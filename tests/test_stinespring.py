"""Tests for minimal dilations, cyclic subspaces, and derivatives."""

import itertools

import numpy as np
import pytest

from cpmaps import (
    CpMap,
    DimensionMismatch,
    NotCP,
    NotDominated,
    PartialCpMap,
    ZeroMap,
    apply,
    cyclic_projection,
    cyclic_subspace_dim,
    dominates,
    factor_matrix,
    map_from_contraction,
    map_from_dilation,
    maps_close,
    minimal_cp_completion_choi,
    minimal_stinespring,
    radon_nikodym,
    representation,
    reducing_projection,
)
from cpmaps import linalg
from cpmaps.gallery import (
    SIGMA_X,
    conjugation_map,
    flip_twirl_map,
    identity_map,
    random_cp_map,
    random_positive_contraction,
    trace_state_map,
    transpose_map,
)

from conftest import random_map, random_psd, random_unit, matrix_unit


def explicit_cyclic_span_dim(triple, h0):
    """Brute-force dim span{(E_pq x I_k) V h0} over all matrix units."""
    d1, k = triple.d_in, triple.multiplicity
    vh = triple.v @ np.asarray(h0, dtype=complex)
    vectors = []
    for p in range(d1):
        for q in range(d1):
            vectors.append(representation(matrix_unit(d1, p, q), k) @ vh)
    return linalg.numerical_rank(np.column_stack(vectors))


def test_identity_triple():
    t = minimal_stinespring(identity_map(2))
    assert t.multiplicity == 1
    assert t.dilation_dim == 2
    assert np.allclose(t.v, np.eye(2))


def test_flip_twirl_triple():
    t = minimal_stinespring(flip_twirl_map())
    assert t.multiplicity == 2
    assert t.dilation_dim == 4
    # V*V = phi(I) = 2I
    assert np.allclose(t.v.conj().T @ t.v, 2.0 * np.eye(2))
    # V h = sum_j K_j h (x) e_j, i.e. V[j::k, :] = K_j
    for j, k in enumerate(t.kraus):
        assert np.allclose(t.v[j::t.multiplicity, :], k)


def test_triple_reproduces_map_on_matrix_units():
    rng = np.random.default_rng(17)
    for d1, d2, k in [(2, 2, 2), (3, 2, 4), (2, 3, 3), (1, 3, 2)]:
        phi = random_map(rng, d1, d2, k)
        t = minimal_stinespring(phi)
        scale = max(np.abs(phi.choi).max(), 1.0)
        for i in range(d1):
            for j in range(d1):
                lhs = t.v.conj().T @ representation(matrix_unit(d1, i, j),
                                                    t.multiplicity) @ t.v
                err = np.abs(lhs - apply(phi, matrix_unit(d1, i, j))).max()
                assert err <= 1e-9 * scale


def test_trace_state_triple_structure():
    # phi(X) = trace(rho X)|v><v| dilates with V h = sum <v,h> sqrt(p_j) u_j (x) e_j
    rho = np.diag([0.25, 0.75]).astype(complex)
    v = np.array([1.0, 0.0], dtype=complex)
    phi = trace_state_map(rho, v)
    t = minimal_stinespring(phi)
    assert t.multiplicity == 2
    h = np.array([1.0, 1j]) / np.sqrt(2.0)
    expected = np.zeros(4, dtype=complex)
    ps, us = np.linalg.eigh(rho)
    for j, k in enumerate(t.kraus):
        expected[j::2] = k @ h
    assert np.allclose(t.v @ h, expected)
    # each factor is sqrt(p_j)|u_j><v| up to phase: check Gram structure
    gram = np.array([[np.trace(a.conj().T @ b) for b in t.kraus]
                     for a in t.kraus])
    assert np.allclose(sorted(np.diag(gram).real), sorted(ps), atol=1e-12)
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12


def test_minimal_stinespring_rejects_bad_input():
    with pytest.raises(NotCP):
        minimal_stinespring(transpose_map(2))
    with pytest.raises(ZeroMap):
        minimal_stinespring(CpMap.zero(2, 2))


def test_map_from_dilation_round_trip():
    rng = np.random.default_rng(23)
    phi = random_map(rng, 3, 2, 3)
    t = minimal_stinespring(phi)
    back = map_from_dilation(t.v, t.d_in, t.d_out, t.multiplicity)
    assert maps_close(phi, back)


def test_factor_matrix_columns():
    t = minimal_stinespring(flip_twirl_map())
    e1 = np.array([1.0, 0.0])
    f = factor_matrix(t, e1)
    assert np.allclose(f[:, 0], t.kraus[0] @ e1)
    assert np.allclose(f[:, 1], t.kraus[1] @ e1)
    with pytest.raises(DimensionMismatch):
        factor_matrix(t, np.ones(3))


def test_cyclic_dims_frozen_examples():
    t = minimal_stinespring(flip_twirl_map())
    assert cyclic_subspace_dim(t, np.zeros(2)) == 0
    # (1,1) is a joint eigenvector of I and sigma_x: rank 1, dim 2 < 4
    assert cyclic_subspace_dim(t, np.array([1.0, 1.0])) == 2
    assert cyclic_subspace_dim(t, np.array([1.0, 0.0])) == 4
    ti = minimal_stinespring(identity_map(2))
    for h0 in (np.array([1.0, 0.0]), np.array([0.3, -1j])):
        assert cyclic_subspace_dim(ti, h0) == 2


def test_cyclic_dim_matches_explicit_span():
    rng = np.random.default_rng(31)
    for d1, d2, k in itertools.product((1, 2, 3), repeat=3):
        if k > d1 * d2:
            continue
        phi = random_map(rng, d1, d2, k)
        t = minimal_stinespring(phi)
        for _ in range(4):
            h0 = random_unit(rng, d2)
            assert cyclic_subspace_dim(t, h0) == explicit_cyclic_span_dim(t, h0)


def test_cyclic_projection_properties():
    t = minimal_stinespring(flip_twirl_map())
    h0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    q = cyclic_projection(t, h0)
    assert np.allclose(q, q.conj().T)
    assert np.allclose(q @ q, q)
    assert int(round(np.trace(q).real)) == cyclic_subspace_dim(t, h0)
    # the subspace is invariant: pi(X) Q = Q pi(X) Q for all X
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pi_x = representation(x, t.multiplicity)
    assert np.abs(q @ pi_x @ q - pi_x @ q).max() < 1e-12
    # V h0 itself lies in the subspace
    vh = t.v @ h0
    assert np.abs(q @ vh - vh).max() < 1e-12


def test_reducing_projection_commutes_exactly():
    rng = np.random.default_rng(8)
    phi = random_map(rng, 3, 2, 3)
    t = minimal_stinespring(phi)
    r = np.diag([1.0, 0.0]).astype(complex)
    q = reducing_projection(t, r)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pi_x = representation(x, t.multiplicity)
    # structurally q = I (x) P, so the commutator is pure rounding noise
    assert np.abs(q @ pi_x - pi_x @ q).max() < 1e-14 * np.abs(x).max()
    # compressing the dilation by a reducing projection yields a dominated map
    sub = map_from_dilation(q @ t.v, t.d_in, t.d_out, t.multiplicity)
    assert dominates(phi, sub)


def test_dominates_examples():
    phi = flip_twirl_map()
    assert dominates(phi, 0.5 * phi)
    assert dominates(phi, phi)
    assert dominates(phi, conjugation_map(SIGMA_X))  # difference is X -> X
    assert not dominates(identity_map(2), transpose_map(2))
    with pytest.raises(DimensionMismatch):
        dominates(identity_map(2), identity_map(3))


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6, 1e8])
def test_dominates_reads_rounding_at_the_operands_scale(c):
    # the minimal completion of phi(.) R equals phi here, and their Choi
    # difference is rounding at the operands' scale (eigenvalues of order
    # 1e-16 c), which the difference's own scale mistook for a violation
    # from c = 1e6 on; a map 0.1% larger is not dominated at any scale
    phi = c * random_cp_map(4, 6, 3)
    r = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    alpha = minimal_cp_completion_choi(PartialCpMap.from_map(phi, r))
    assert dominates(phi, alpha)
    assert not dominates(phi, (1.0 + 1e-3) * phi)


@pytest.mark.parametrize("c", [1.0, 1e-8, 1e-10, 1e-11, 1e-12])
def test_dominates_reads_small_maps_at_their_own_scale(c):
    # with both operands named the PSD slack has no floor: an absolute
    # eps_psd would let a map below it dominate one twice its size
    phi = random_cp_map(4, 6, 3)
    assert not dominates(c * phi, 2.0 * c * phi)
    assert dominates(2.0 * c * phi, c * phi)


def test_radon_nikodym_scalar_and_identity():
    phi = flip_twirl_map()
    rn = radon_nikodym(phi, 0.3 * phi)
    assert np.allclose(rn.matrix, 0.3 * np.eye(2), atol=1e-10)
    rn = radon_nikodym(phi, phi)
    assert np.allclose(rn.matrix, np.eye(2), atol=1e-10)


def test_radon_nikodym_flip_twirl_component():
    # In the Kraus basis {I, sigma_x}: X -> sigma_x X sigma_x has D = diag(0,1)
    phi = flip_twirl_map()
    rn = radon_nikodym(phi, conjugation_map(SIGMA_X))
    assert np.allclose(rn.matrix, np.diag([0.0, 1.0]), atol=1e-10)
    assert maps_close(rn.reconstruct(), conjugation_map(SIGMA_X))


def test_radon_nikodym_round_trip_random():
    rng = np.random.default_rng(45)
    for _ in range(10):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        phi = random_map(rng, d1, d2, k)
        t = minimal_stinespring(phi)
        kk = t.multiplicity
        d = random_psd(rng, kk)
        top = np.linalg.eigvalsh(d)[-1]
        d = d / top * float(rng.uniform(0.1, 1.0))
        psi = map_from_contraction(t, d)
        assert dominates(phi, psi)
        rn = radon_nikodym(phi, psi)
        assert np.abs(rn.matrix - d).max() < 1e-8
        assert maps_close(rn.reconstruct(), psi)


def test_radon_nikodym_at_full_choi_rank_on_m6():
    # Choi rank 36 on M_6: W is 36 x 36, and the Kronecker form of
    # Choi(psi) = W D W* would be a 1296 x 1296 system
    phi = random_cp_map(6, 6, 36, seed=3)
    t = minimal_stinespring(phi)
    assert t.multiplicity == 36
    d = random_positive_contraction(36, seed=4)
    psi = map_from_contraction(t, d)
    rn = radon_nikodym(phi, psi)
    assert np.abs(rn.matrix - d).max() < 1e-10
    assert maps_close(rn.reconstruct(), psi)


def test_radon_nikodym_rejects_non_dominated():
    phi = flip_twirl_map()
    with pytest.raises(NotDominated):
        radon_nikodym(phi, 3.0 * phi)
    with pytest.raises(NotDominated):
        radon_nikodym(identity_map(2), conjugation_map(SIGMA_X))


def _domination_cases():
    """``phi`` and three maps: ``V* (X (x) D) V`` with ``0 <= D <= I`` is
    dominated, the same with ``1.5 D`` is not (its top eigenvalue is 1.5),
    and neither is a ``1e-3``-scaled rank-one map outside ``ran W``."""
    phi = random_cp_map(3, 4, 3, seed=7)
    t = minimal_stinespring(phi)
    d = random_positive_contraction(3, seed=8)
    rng = np.random.default_rng(9)
    off = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    return phi, [map_from_contraction(t, d), map_from_contraction(t, 1.5 * d),
                 1e-3 * CpMap.from_kraus([off])]


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_radon_nikodym_decides_domination_as_dominates_does(c):
    # the k x k tests read the Choi matrices' scale, with no floor
    phi, cases = _domination_cases()
    verdicts = []
    for psi in cases:
        dominated = dominates(c * phi, c * psi)
        verdicts.append(dominated)
        if dominated:
            rn = radon_nikodym(c * phi, c * psi)
            assert maps_close(rn.reconstruct(), c * psi)
        else:
            with pytest.raises(NotDominated):
                radon_nikodym(c * phi, c * psi)
    assert verdicts == [True, False, False]


def test_radon_nikodym_never_calls_dominates(monkeypatch):
    from cpmaps import stinespring

    def refuse(*args, **kwargs):
        raise AssertionError("dominates was called")

    monkeypatch.setattr(stinespring, "dominates", refuse)
    phi, cases = _domination_cases()
    radon_nikodym(phi, cases[0])
    for psi in cases[1:]:
        with pytest.raises(NotDominated):
            radon_nikodym(phi, psi)


def test_radon_nikodym_errors_on_phi_come_from_the_dilation():
    with pytest.raises(ZeroMap):
        radon_nikodym(CpMap.zero(2, 2), identity_map(2))
    with pytest.raises(NotCP):
        radon_nikodym(transpose_map(2), CpMap.zero(2, 2))
    with pytest.raises(DimensionMismatch):
        radon_nikodym(identity_map(2), identity_map(3))


def test_map_from_contraction_validates_shape():
    t = minimal_stinespring(flip_twirl_map())
    with pytest.raises(DimensionMismatch):
        map_from_contraction(t, np.eye(3))
