"""Tests for CP map representations: Kraus, Choi, action."""

import numpy as np
import pytest

from cpmaps import (
    CpMap,
    DimensionMismatch,
    NotCP,
    NotPSD,
    apply,
    choi_rank,
    choi_to_kraus,
    classify,
    counterexample_construct,
    decompose_along,
    is_cp,
    is_quasipure,
    kraus_to_choi,
    maps_close,
    minimal_kraus,
    minimal_stinespring,
    support_projection,
)
from cpmaps.gallery import (
    SIGMA_X,
    conjugation_map,
    diagonal_pair_map,
    flip_twirl_map,
    identity_map,
    random_cp_map,
    trace_state_map,
    transpose_map,
)

from conftest import (
    boundary_choi_maps,
    count_linalg_calls,
    matrix_unit,
    random_kraus,
    random_map,
    random_psd,
)


IDENTITY_CHOI_2 = np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)

FLIP_TWIRL_CHOI = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def test_identity_choi_frozen():
    phi = identity_map(2)
    assert np.allclose(phi.choi, IDENTITY_CHOI_2)


def test_flip_twirl_choi_and_spectrum_frozen():
    phi = flip_twirl_map()
    assert np.allclose(phi.choi, FLIP_TWIRL_CHOI)
    vals = np.linalg.eigvalsh(phi.choi)
    assert np.allclose(vals, [0.0, 0.0, 2.0, 2.0])


def test_choi_blocks_are_images_of_matrix_units():
    rng = np.random.default_rng(3)
    phi = random_map(rng, 3, 2, 2)
    for i in range(3):
        for j in range(3):
            block = phi.choi[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2]
            assert np.allclose(block, apply(phi, matrix_unit(3, i, j)), atol=1e-12)


def test_apply_flip_twirl_closed_form():
    phi = flip_twirl_map()
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = apply(phi, x)
    # X + sigma_x X sigma_x = [[a+d, b+c], [b+c, a+d]]
    assert np.allclose(out, [[5.0, 5.0], [5.0, 5.0]])


def test_apply_matches_kraus_sum():
    rng = np.random.default_rng(11)
    ks = random_kraus(rng, 3, 4, 2)
    phi = CpMap.from_kraus(ks)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    expected = sum(k.conj().T @ x @ k for k in ks)
    assert np.abs(apply(phi, x) - expected).max() < 1e-12


@pytest.mark.parametrize("dims", [(3, 4, 2), (2, 1, 8), (4, 3, 6)])
def test_apply_on_factors_matches_apply_on_the_choi_matrix(dims):
    rng = np.random.default_rng(sum(dims))
    d_in, d_out, k = dims
    ks = random_kraus(rng, d_in, d_out, k)
    phi = CpMap.from_kraus(ks)
    x = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    got = apply(phi, x)
    via_choi = apply(CpMap.from_choi(phi.choi, d_in, d_out), x)
    assert got.shape == (d_out, d_out)
    assert np.abs(got - via_choi).max() <= 1e-13 * np.abs(via_choi).max()
    # the factors' terms are summed in order from zero, as a loop sums them
    # (d_out = 1 is where a numpy reduction would pair them instead)
    looped = np.zeros((d_out, d_out), dtype=complex)
    for f in ks:
        looped += f.conj().T @ x @ f
    assert got.tobytes() == looped.tobytes()


def test_apply_of_the_zero_map_is_an_exact_zero():
    out = apply(CpMap.zero(2, 3), np.ones((2, 2)))
    assert out.shape == (3, 3) and out.dtype == complex
    assert out.tobytes() == np.zeros((3, 3), dtype=complex).tobytes()


def test_apply_is_linear_and_positive():
    rng = np.random.default_rng(5)
    phi = random_map(rng, 3, 3, 2)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a, b = 0.3 - 1j, 2.0 + 0.5j
    lhs = apply(phi, a * x + b * y)
    rhs = a * apply(phi, x) + b * apply(phi, y)
    assert np.abs(lhs - rhs).max() < 1e-9
    p = random_psd(rng, 3)
    w = np.linalg.eigvalsh(apply(phi, p))
    assert w[0] > -1e-10 * max(w[-1], 1.0)


def test_transpose_is_not_cp():
    phi = transpose_map(2)
    # Choi of the transpose is the swap operator: eigenvalues {-1, 1, 1, 1}
    vals = np.linalg.eigvalsh(phi.choi)
    assert np.allclose(vals, [-1.0, 1.0, 1.0, 1.0])
    assert not is_cp(phi)
    with pytest.raises(NotCP):
        classify(phi)


def test_choi_kraus_round_trip_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        r = int(rng.integers(1, d1 * d2 + 1))
        choi = random_psd(rng, d1 * d2, rank=r)
        ks = choi_to_kraus(choi, d1, d2)
        assert len(ks) == r
        back = kraus_to_choi(ks, d1, d2)
        assert np.abs(back - choi).max() < 1e-9 * max(np.abs(choi).max(), 1.0)


def test_choi_to_kraus_canonical_order_and_phase():
    ks = choi_to_kraus(FLIP_TWIRL_CHOI, 2, 2)
    assert np.allclose(ks[0], np.eye(2), atol=1e-12)
    assert np.allclose(ks[1], SIGMA_X, atol=1e-12)
    # the largest entry of each factor is real and positive
    for k in ks:
        idx = np.unravel_index(np.argmax(np.abs(k)), k.shape)
        assert k[idx].imag == pytest.approx(0.0, abs=1e-12)
        assert k[idx].real > 0


def test_minimal_kraus_prefers_stored_independent_family():
    phi = flip_twirl_map()
    mk = minimal_kraus(phi)
    assert all(np.array_equal(a, b) for a, b in zip(mk, phi.kraus))


def test_minimal_kraus_reduces_dependent_family():
    phi = CpMap.from_kraus([np.eye(2), np.eye(2)])
    mk = minimal_kraus(phi)
    assert len(mk) == 1
    assert np.allclose(mk[0], np.sqrt(2.0) * np.eye(2))


def test_minimal_kraus_reduces_dependent_family_at_any_scale():
    # a dependent stored family is reduced from its factors: at x1e6 its
    # Choi matrix has an eigenvalue below -eps_psd by rounding alone
    k1, k2 = random_cp_map(5, 3, 2).kraus
    family = [k1, k2, k1 + 0.5j * k2]
    status = {}
    for c in (1.0, 1e6):
        phi = CpMap.from_kraus([np.sqrt(c) * k for k in family])
        assert is_cp(phi)
        factors = minimal_kraus(phi)
        assert len(factors) == 2
        back = kraus_to_choi(factors, 5, 3)
        assert np.abs(back - phi.choi).max() < 1e-12 * np.abs(phi.choi).max()
        status[c] = is_quasipure(phi).status
    assert status[1e6] == status[1.0]


def test_kraus_and_choi_forms_share_one_rank_rule():
    # nearly dependent factors: the stored family is reduced under the
    # Choi-rank cutoff s^2 > eps_rank * s_max^2, as the Choi matrix is
    d = np.diag([1.0, 2.0, 3.0]).astype(complex)
    by_kraus = CpMap.from_kraus([d, d + 1e-6 * np.eye(3)])
    by_choi = CpMap.from_choi(by_kraus.choi, 3, 3)
    verdicts = set()
    for phi in (by_kraus, by_choi):
        assert len(minimal_kraus(phi)) == choi_rank(phi) == 1
        v = is_quasipure(phi)
        verdicts.add((v.status, v.method))
    assert verdicts == {("QuasiPure", "Pure")}
    # an injective T = [K_1 | K_2] proves QuasiPure from the held family
    # only when minimal_kraus keeps it: here sigma_min(T) / sigma_max(T)
    # is about 5e-7, above eps_rank, while s^2 of the factor vectors is not
    pair = CpMap.from_kraus([np.array([[1.0], [0.0]]),
                             np.array([[1.0], [1e-6]])])
    verdicts = set()
    for phi in (pair, CpMap.from_choi(pair.choi, 2, 1)):
        assert len(minimal_kraus(phi)) == choi_rank(phi) == 1
        v = is_quasipure(phi)
        verdicts.add((v.status, v.method))
    assert verdicts == {("QuasiPure", "Pure")}
    # a family well inside the cutoff is kept as given
    kept = CpMap.from_kraus([d, d + 1e-3 * np.eye(3)])
    assert len(minimal_kraus(kept)) == choi_rank(kept) == 2
    assert all(a is b for a, b in zip(minimal_kraus(kept), kept.kraus))


def test_kraus_to_choi_is_one_exactly_hermitian_gram_product():
    rng = np.random.default_rng(11)
    for d_in, d_out, k in ((1, 1, 1), (2, 3, 4), (5, 4, 3), (8, 12, 6)):
        ks = random_kraus(rng, d_in, d_out, k)
        choi = kraus_to_choi(ks)
        outer = sum(np.outer(f.conj().reshape(-1), f.reshape(-1)) for f in ks)
        assert np.abs(choi - outer).max() <= 1e-14 * np.abs(outer).max()
        assert np.array_equal(choi, choi.conj().T)
        assert np.array_equal(CpMap.from_kraus(ks).choi, choi)


def test_factors_are_coerced_once_per_map(monkeypatch):
    from cpmaps import linalg
    rng = np.random.default_rng(12)
    ks = [f.tolist() for f in random_kraus(rng, 3, 2, 4)]
    seen = []
    original = linalg.as_matrix

    def counted(a):
        seen.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(linalg, "as_matrix", counted)
    phi = CpMap.from_kraus(ks)
    assert seen == [(3, 2)] * 4
    assert all(isinstance(f, np.ndarray) and f.dtype == complex
               for f in phi.kraus)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="finite"):
        CpMap.from_kraus([np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])])
    with pytest.raises(ValueError, match="2-d"):
        CpMap.from_kraus([np.ones(3)])


def test_cp_verdicts_are_scale_invariant():
    # c phi for c in [1e-8, 1e8], phi given by Kraus factors: is_cp needs
    # no eigensolve, and quasi-purity reads the factors, not the scale
    phi = random_cp_map(5, 3, 2)
    psi = random_cp_map(5, 3, 2, seed=1)
    base = is_quasipure(phi).status
    for c in (1e-8, 1.0, 1e6, 1e8):
        scaled = CpMap.from_kraus([np.sqrt(c) * k for k in phi.kraus])
        assert is_cp(scaled)
        assert is_quasipure(scaled).status == base
        # maps given by a Choi matrix keep the eigenvalue test
        other = CpMap.from_kraus([np.sqrt(c) * k for k in psi.kraus])
        assert not is_cp(scaled - other)
        negative = CpMap.from_choi(-c * np.eye(15), 5, 3)
        assert not is_cp(negative)
        with pytest.raises(NotCP):
            classify(negative)


def test_choi_given_maps_are_cp_at_every_scale():
    # the same family given by its Choi matrix: the PSD slack scales with
    # the largest eigenvalue, so rounding at x1e6 does not read as NotCP
    phi = random_cp_map(5, 3, 2)
    psi = random_cp_map(5, 3, 2, seed=1)
    counts = set()
    for c in (1e-8, 1.0, 1e6, 1e8):
        given = CpMap.from_choi(c * phi.choi, 5, 3)
        assert is_cp(given)
        counts.add(len(minimal_kraus(given)))
        difference = CpMap.from_choi(c * (phi.choi - psi.choi), 5, 3)
        assert not is_cp(difference)
        with pytest.raises(NotPSD):
            minimal_kraus(difference)
    assert counts == {2}
    assert not is_cp(transpose_map(2))
    assert not is_cp(CpMap.from_choi(1e8 * transpose_map(2).choi, 2, 2))


def test_is_cp_is_the_factorization_verdict_at_the_psd_cutoff():
    # one eigensolver decides: with is_cp reading eigvalsh and the
    # factorization eigh, 530 of these 4000 draws got different answers
    verdicts = []
    for phi in boundary_choi_maps(np.random.default_rng(0), 4000):
        try:
            minimal_kraus(phi)
            factored = True
        except NotCP:
            factored = False
        assert is_cp(phi) == factored
        verdicts.append(factored)
    assert 0 < sum(verdicts) < len(verdicts)  # the draws straddle the cut


def test_trace_state_map_accepts_a_state_at_every_scale():
    # a rank-2 state on C^4: its two zero eigenvalues come out of eigh as
    # rounding of either sign, which grows with the scale of the state
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    for c in (1.0, 1e6, 1e8):
        phi = trace_state_map(c * (g @ g.conj().T), v)
        assert len(phi.kraus) == 2
        assert is_quasipure(phi).status == "QuasiPure"
    with pytest.raises(NotPSD):
        trace_state_map(np.diag([1.0, 1.0, -1e-3, 0.0]), v)
    with pytest.raises(NotPSD):
        trace_state_map(1e8 * np.diag([1.0, 1.0, -1e-3, 0.0]), v)


def test_minimal_kraus_of_zero_map_is_empty():
    assert minimal_kraus(CpMap.zero(2, 2)) == []


def test_choi_rank():
    assert choi_rank(identity_map(3)) == 1
    assert choi_rank(flip_twirl_map()) == 2
    rng = np.random.default_rng(9)
    phi = random_map(rng, 2, 3, 4)
    assert choi_rank(phi) == 4


def test_choi_rank_counts_the_minimal_factors_of_a_cp_map():
    # -5e-11 is within the PSD slack, so the map is CP, and below the rank
    # rule's cut on signed eigenvalues: one minimal factor, and Choi rank 1,
    # where the singular values (|lambda|) would count 2
    phi = CpMap.from_choi(np.diag([1e-3, -5e-11, 0, 0]), 2, 2)
    assert is_cp(phi)
    assert choi_rank(phi) == len(minimal_kraus(phi)) == classify(phi).choi_rank
    assert choi_rank(phi) == 1
    # a map that is not CP has no Kraus family: its singular values count
    assert not is_cp(transpose_map(2))
    assert choi_rank(transpose_map(2)) == 4


def test_from_action_matches_direct_construction():
    phi = CpMap.from_action(lambda x: x.T, d_in=2, d_out=2)
    assert np.allclose(phi.choi, transpose_map(2).choi)
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    psi = CpMap.from_action(lambda x: a.conj().T @ x @ a, d_in=2, d_out=2)
    assert maps_close(psi, conjugation_map(a))


def test_arithmetic_on_maps():
    phi = identity_map(2)
    sx = conjugation_map(SIGMA_X)
    total = phi + sx
    assert maps_close(total, flip_twirl_map())
    assert maps_close(2.0 * phi, phi + phi)
    assert (total - total).is_zero()
    with pytest.raises(DimensionMismatch):
        identity_map(2) + identity_map(3)


def test_classify_pure_map():
    a = np.array([[1.0, 2.0], [0.0, 1j]])
    info = classify(conjugation_map(a))
    assert info.is_cp
    assert info.is_pure
    assert info.choi_rank == 1
    assert not info.is_entanglement_breaking_quasipure_form


def test_classify_unital():
    assert classify(identity_map(2)).is_unital
    assert not classify(flip_twirl_map()).is_unital  # phi(I) = 2I
    half = 0.5 * flip_twirl_map()
    assert classify(half).is_unital


def test_classify_entanglement_breaking_form():
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    phi = trace_state_map(rho, v)
    info = classify(phi)
    assert info.is_entanglement_breaking_quasipure_form
    assert not info.is_pure
    assert info.choi_rank == 2
    # the recovered pair reproduces the action trace(rho X) |v><v|
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    expected = np.trace(info.eb_state @ x) * np.outer(info.eb_vector,
                                                      info.eb_vector.conj())
    assert np.abs(apply(phi, x) - expected).max() < 1e-9
    assert np.allclose(info.eb_state, rho, atol=1e-9)


def test_classify_flip_twirl_is_not_eb_form():
    info = classify(flip_twirl_map())
    assert not info.is_entanglement_breaking_quasipure_form
    assert info.eb_state is None and info.eb_vector is None


def test_trace_state_map_factors():
    # rank-2 rho = sum p_j |u_j><u_j| gives factors sqrt(p_j) |u_j><v|
    rho = np.diag([0.25, 0.75]).astype(complex)
    v = np.array([0.0, 1.0], dtype=complex)
    phi = trace_state_map(rho, v)
    assert len(phi.kraus) == 2
    for k in phi.kraus:
        assert np.linalg.matrix_rank(k) == 1
    assert np.allclose(
        sum(k @ k.conj().T for k in phi.kraus), rho, atol=1e-12
    )
    with pytest.raises(NotPSD):
        trace_state_map(np.diag([1.0, -0.5]), v)


def test_kraus_to_choi_validates_shapes():
    with pytest.raises(DimensionMismatch):
        kraus_to_choi([np.zeros((2, 2)), np.zeros((3, 2))])
    with pytest.raises(DimensionMismatch):
        kraus_to_choi([])  # dimensions are required for an empty family
    assert np.allclose(kraus_to_choi([], d_in=2, d_out=3), np.zeros((6, 6)))



def test_constructor_builds_or_cross_checks_choi_from_kraus():
    rng = np.random.default_rng(8)
    ks = random_kraus(rng, 2, 3, 2)
    phi = CpMap(d_in=2, d_out=3, kraus=ks)
    assert np.allclose(phi.choi, kraus_to_choi(ks), atol=1e-12)
    assert np.array_equal(CpMap.from_kraus(ks).choi, phi.choi)
    wrong = phi.choi.copy()
    wrong[0, 0] += 1.0
    with pytest.raises(DimensionMismatch):
        CpMap(d_in=2, d_out=3, choi=wrong, kraus=ks)
    with pytest.raises(DimensionMismatch):
        CpMap(d_in=2, d_out=3)


def test_a_map_holds_kraus_factors_or_a_choi_matrix_not_both():
    ks = random_kraus(np.random.default_rng(9), 2, 3, 2)
    with pytest.raises(DimensionMismatch):
        CpMap(d_in=2, d_out=3, kraus=ks, choi=kraus_to_choi(ks))
    assert CpMap.from_choi(kraus_to_choi(ks), 2, 3).kraus is None


#: every public function that factorizes a CP map, called on one map
FACTORIZING = {
    "minimal_kraus": minimal_kraus,
    "minimal_stinespring": minimal_stinespring,
    "classify": classify,
    "is_quasipure": is_quasipure,
    "support_projection": support_projection,
    "decompose_along": lambda phi: decompose_along(
        phi, np.diag(np.arange(phi.d_out, dtype=float))),
}


@pytest.mark.parametrize("name", sorted(FACTORIZING))
def test_the_factorization_decides_complete_positivity(name):
    # transpose_map(2) is given by its Choi matrix, which has eigenvalue
    # -1; a NotCP is a NotPSD
    with pytest.raises(NotPSD) as caught:
        FACTORIZING[name](transpose_map(2))
    assert caught.type is NotCP


@pytest.mark.parametrize("name", sorted(set(FACTORIZING) - {"minimal_kraus"}))
def test_a_choi_given_map_is_factorized_by_one_eigensolve(name, monkeypatch):
    phi = CpMap.from_choi(random_cp_map(3, 4, 3).choi, 3, 4)
    calls = count_linalg_calls(monkeypatch, ["eigh", "eigvalsh", "svd"])
    FACTORIZING[name](phi)
    # the eigendecomposition that extracts the factors also decides that
    # phi is CP: no separate eigvalsh
    assert [c for c in calls if c[0] != "svd"] == [("eigh", (12, 12))]
    if name == "classify":  # the rank is the number of factors
        assert len([c for c in calls if c[0] == "svd"]) == 1


def test_a_counterexample_from_a_choi_given_map_tests_it_once(monkeypatch):
    phi = diagonal_pair_map()
    given = CpMap.from_choi(phi.choi, 3, 3)
    calls = count_linalg_calls(monkeypatch, ["eigvalsh"])
    found = counterexample_construct(given, np.array([1.0, 0.0, 0.0]))
    assert calls == []
    assert found is not None


def test_from_choi_stores_hermitian_cp_checked_lazily():
    # from_choi stores any Hermitian matrix; CP-ness is a separate query
    phi = CpMap.from_choi(np.diag([1.0, -1.0, 0.0, 0.0]), 2, 2)
    assert not is_cp(phi)
    with pytest.raises(NotPSD):
        minimal_kraus(phi)


def test_zero_map_basics():
    z = CpMap.zero(2, 3)
    assert z.is_zero()
    assert is_cp(z)
    assert choi_rank(z) == 0
    assert np.allclose(apply(z, np.eye(2)), np.zeros((3, 3)))


def test_maps_close_uses_max_entry_norm():
    phi = flip_twirl_map()
    psi = CpMap.from_choi(phi.choi + 1e-12, 2, 2)
    assert maps_close(phi, psi)
    rho = CpMap.from_choi(phi.choi + 1e-6, 2, 2)
    assert not maps_close(phi, rho)
    assert not maps_close(flip_twirl_map(), identity_map(2))
