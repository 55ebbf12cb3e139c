"""Tests for the quasi-purity decision pipeline and its oracles."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cpmaps import (
    CpMap,
    InputNotReduced,
    NotCP,
    ZeroMap,
    apply,
    cyclic_projection,
    is_quasipure,
    kraus_to_choi,
    map_from_contraction,
    map_from_dilation,
    minimal_kraus,
    minimal_stinespring,
    rigidity_check,
)
from cpmaps import linalg, quasipure, serialize
from cpmaps.quasipure import METHOD_SYLVESTER
from cpmaps.gallery import (
    conjugation_map,
    diagonal_pair_map,
    flip_twirl_map,
    identity_map,
    planted_witness_map,
    random_cp_map,
    random_positive_contraction,
    trace_state_map,
    transpose_map,
)

from conftest import (
    DATA,
    SRC,
    count_linalg_calls,
    haar_unitary,
    matrix_unit,
    pencil_witness,
    polynomial_factors,
    random_kraus,
    random_unit,
)
from oracles import (
    domination_preserves_quasipurity_check,
    grid_oracle,
    refine_candidate_reference,
)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def witness_is_sound(phi, witness):
    """Independent re-check of the rank window 0 < rank F(h0) < k."""
    ks = minimal_kraus(phi)
    cols = np.column_stack([k @ witness for k in ks])
    r = linalg.numerical_rank(cols)
    return 0 < r < len(ks)


def gaussian_integers(rng, shape):
    return (rng.integers(-2, 3, size=shape)
            + 1j * rng.integers(-2, 3, size=shape)).astype(complex)


def gaussian_integer_pair(rng, d_in, m, singular):
    """Injective Gaussian-integer factors ``(K_1, K_2)`` of shape (d_in, m).

    With ``singular`` the pair is ``A [I; 0]`` and ``A [D; b]`` for an
    upper triangular ``D`` and ``b e_1 = 0``, so ``-D_11 K_1 + K_2`` kills
    ``e_1``; otherwise both factors are drawn at random.
    """
    while True:
        if singular:
            a = gaussian_integers(rng, (d_in, d_in))
            lower = gaussian_integers(rng, (d_in, m))
            lower[:m] = np.triu(lower[:m])
            lower[m:, 0] = 0.0
            pair = (a[:, :m], a @ lower)
        else:
            pair = (gaussian_integers(rng, (d_in, m)),
                    gaussian_integers(rng, (d_in, m)))
        if all(np.linalg.matrix_rank(f) == m for f in pair):
            return pair


def pinned_pencil(seed):
    """A Gaussian-rational pair ``(K_1, K_2)`` drawn from ``seed``.

    Even seeds give a square pair, singular at every eigenvalue of
    ``-K_1^{-1} K_2`` (irrational in general).  Odd seeds plant points:
    ``K_1 = A [I; 0]`` and ``K_2 = A [D; L]`` for an upper triangular ``D``
    and an ``L`` zero on its first columns.  Both factors share a
    denominator up to 7.
    """
    rng = np.random.default_rng(seed)
    while True:
        m = int(rng.integers(2, 5))
        if seed % 2 == 0:
            pair = (gaussian_integers(rng, (m, m)),
                    gaussian_integers(rng, (m, m)))
        else:
            d_in = m + int(rng.integers(1, 3))
            a = gaussian_integers(rng, (d_in, d_in))
            lower = gaussian_integers(rng, (d_in, m))
            lower[:m] = np.triu(lower[:m])
            lower[m:, :int(rng.integers(1, m + 1))] = 0.0
            pair = (a[:, :m], a @ lower)
        denominator = int(rng.integers(1, 8))
        if all(np.linalg.matrix_rank(f) == m for f in pair):
            # each part divided alone: a complex division rounds twice
            return tuple(f.real / denominator + 1j * (f.imag / denominator)
                         for f in pair)


#: pencils whose singular points are known in closed form: ``+-sqrt(2)``
#: (scaled by ``1 + i``, so that the real roots come out of complex
#: arithmetic), ``(z + 1)^2 (z + 2)``, and ``-1, -3`` behind a Gaussian
#: mixing ``A``
NAMED_PENCILS = {
    "sqrt2": ((1 + 1j) * np.eye(2), (1 + 1j) * np.array([[0, 2], [1, 0]])),
    "repeated": (np.eye(3), np.diag([1.0, 1.0, 2.0])),
    "real-rational": (
        np.array([[1, 1j], [2, 1 - 1j], [1j, 3]]),
        np.array([[1, 1j], [2, 1 - 1j], [1j, 3]])
        @ np.array([[1, 1 + 1j], [0, 3]])),
}

#: ``float.hex`` of ``(real, imag)`` of each distinct singular point,
#: correctly rounded: exact roots recorded with sympy's ``nroots(n=30)``
EXACT_ROOTS = {
    "sqrt2": [("-0x1.6a09e667f3bcdp+0", "0x0.0p+0"),
              ("0x1.6a09e667f3bcdp+0", "0x0.0p+0")],
    "repeated": [("-0x1.0000000000000p+1", "0x0.0p+0"),
                 ("-0x1.0000000000000p+0", "0x0.0p+0")],
    "real-rational": [("-0x1.8000000000000p+1", "0x0.0p+0"),
                      ("-0x1.0000000000000p+0", "0x0.0p+0")],
    0: [("-0x1.863f0de8365e4p+0", "0x1.870de03691b58p-1"),
        ("-0x1.97ad9bf23fb66p-3", "-0x1.09a58e9154ce9p-4"),
        ("0x1.07b6b29101d5dp-3", "-0x1.5d382995b226ep-1"),
        ("0x1.cc473c26c7e06p-1", "0x1.12ffb48b0ca8bp+0")],
    1: [("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "-0x1.0000000000000p+1")],
    2: [("-0x1.6628a2be2cd42p+0", "-0x1.fa25792ffffb5p-2"),
        ("0x1.1679e2058326cp-5", "0x1.2940c9175ea6bp-1"),
        ("0x1.9b2865a0f813fp-3", "0x1.e8f7d8f072c24p-1"),
        ("0x1.082518bff2941p+1", "-0x1.2f111475ea308p+3")],
    3: [("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+1", "-0x1.0000000000000p+0")],
    4: [("-0x1.c95abaa064462p-1", "-0x1.9ad398b9fcdefp+2"),
        ("-0x1.b24e692e6c812p-1", "-0x1.e14268c552677p-2"),
        ("0x1.192697077b6fdp-4", "0x1.dbb9df0dba150p-2"),
        ("0x1.30aa71e40e30ep+1", "-0x1.e1f021095f9abp-1")],
    5: [("-0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
        ("-0x1.0000000000000p+0", "-0x1.0000000000000p+1"),
        ("0x1.0000000000000p+1", "0x1.0000000000000p+0")],
    6: [("-0x1.0f064da718aadp+1", "0x1.963e8a61a69ddp+2"),
        ("-0x1.1c491d16ba4b9p+0", "-0x1.473ff902e5477p-1"),
        ("-0x1.7bf1ac50200fap-9", "0x1.23435cd375b67p+0")],
    7: [("0x1.0000000000000p+1", "0x0.0p+0"),
        ("0x0.0p+0", "-0x1.0000000000000p+0")],
    8: [("-0x1.7c97ef5653c5bp-1", "-0x1.5498a9bb80accp-1"),
        ("-0x1.abc38b2a11aa7p-2", "0x1.656b4bfecf6a8p-1"),
        ("-0x1.e15361c48e7d2p-3", "0x1.7322539984eaep-3"),
        ("0x1.b10660dde0db9p-1", "-0x1.754c9f47363bfp-1")],
    9: [("-0x1.0000000000000p+1", "-0x1.0000000000000p+0")],
    10: [("-0x1.e51584b23dc30p-2", "0x1.43fd8c371f275p-2"),
         ("0x1.7470eda7e7950p-3", "0x1.37ea0d6d2f75ep-2"),
         ("0x1.b45d8522cf28ep-1", "0x1.1dc9ce4cfaabep-6"),
         ("0x1.77b5c83da860dp+1", "0x1.5a551188041dep+0")],
    11: [("-0x1.0000000000000p+1", "-0x1.0000000000000p+1")],
}


# ---------------------------------------------------------------------------
# the decision pipeline


def test_pure_maps_are_quasipure():
    v = is_quasipure(conjugation_map(np.array([[1.0, 2.0], [0.0, 1j]])))
    assert v.status == "QuasiPure"
    assert v.method == "Pure"
    assert v.is_proof
    assert v.witness is None


def test_flip_twirl_is_not_quasipure():
    phi = flip_twirl_map()
    v = is_quasipure(phi)
    assert v.status == "NotQuasiPure"
    assert v.method == "ExactPencil"
    assert v.is_proof
    # the dependent ray is spanned by (1,1), the joint eigenvector of I, sigma_x
    overlap = abs(np.vdot(v.witness, np.array([1.0, 1.0]) / np.sqrt(2.0)))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert witness_is_sound(phi, v.witness)


def test_entanglement_breaking_maps_are_quasipure():
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    v = is_quasipure(phi)
    assert v.status == "QuasiPure"
    assert v.is_proof
    # Choi-rank corollary: a quasi-pure map has choi_rank <= d_in
    assert len(minimal_kraus(phi)) <= phi.d_in


def test_rank_three_state_map_hits_exhaustive_single_direction():
    # after removing the common kernel v-perp only one direction remains,
    # so the decision is exact even though k = 3 exceeds the pencil's reach
    phi = trace_state_map(np.diag([1.0, 2.0, 3.0]) / 6.0,
                          np.array([1.0, 0.0]))
    v = is_quasipure(phi)
    assert v.status == "QuasiPure"
    assert v.method == "ExactPencil"
    assert v.is_proof


def test_choi_rank_above_d_in_is_necessary_violation():
    phi = random_cp_map(2, 3, 3, seed=1)
    v = is_quasipure(phi)
    assert v.status == "NotQuasiPure"
    assert v.method == "NecessaryConditionViolated"
    assert witness_is_sound(phi, v.witness)


def test_differing_factor_kernels_is_necessary_violation():
    phi = CpMap.from_kraus([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    v = is_quasipure(phi)
    assert v.status == "NotQuasiPure"
    assert v.method == "NecessaryConditionViolated"
    # e2 kills the first factor but not the second
    assert abs(np.vdot(v.witness, np.array([0.0, 1.0]))) == pytest.approx(1.0)
    assert witness_is_sound(phi, v.witness)


def pairwise_kernel_witness(factors, tol=linalg.DEFAULT_TOL):
    """The factor-kernel test run pairwise: an oracle for the batched one.

    Takes every factor's own kernel basis and returns a basis vector of
    some ``ker K_i`` that another factor does not annihilate, else None.
    """
    nulls = [linalg.kernel_basis(f, tol) for f in factors]
    for i, j in itertools.permutations(range(len(factors)), 2):
        if nulls[i].shape[1] == 0:
            continue
        image = factors[j] @ nulls[i]
        if linalg.max_abs(image) > tol.eps_eq * max(1.0, linalg.max_abs(factors[j])):
            return nulls[i][:, int(np.argmax(np.linalg.norm(image, axis=0)))]
    return None


def kernel_test_population():
    """Maps with equal and with planted differing factor kernels.

    Gaussian factors (square, tall and short), a common kernel planted in
    all of them, and on top of it a kernel vector planted in one factor.
    """
    rng = np.random.default_rng(1107)
    maps = []
    for d_in, d_out, k in ((4, 3, 2), (6, 2, 3), (3, 3, 3), (2, 3, 2),
                           (5, 4, 2), (3, 5, 3)):
        factors = random_kraus(rng, d_in, d_out, k)
        maps.append(factors)
        common = random_unit(rng, d_out)
        keep = np.eye(d_out) - np.outer(common, common.conj())
        maps.append([f @ keep for f in factors])
        extra = random_unit(rng, d_out)
        extra -= np.vdot(common, extra) * common
        extra /= np.linalg.norm(extra)
        one = int(rng.integers(k))
        maps.append([f @ keep @ (np.eye(d_out) - np.outer(extra, extra.conj()))
                     if j == one else f @ keep for j, f in enumerate(factors)])
    maps.append(near_singular_factors(0.1))
    return [CpMap.from_kraus(factors) for factors in maps]


def near_singular_factors(c):
    """Two factors short by their own scale, with no kernel mismatch.

    Each ``K_j`` has singular values ``c`` and ``1e-10 c``, so it is short
    within ``eps_rank``; their small directions differ by an angle of
    ``5e-9``, and ``F`` at either one has two independent columns.
    """
    theta = 5e-9
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    k1 = np.zeros((4, 2), dtype=complex)
    k1[:2] = c * np.diag([1.0, 1e-10])
    k2 = np.zeros((4, 2), dtype=complex)
    k2[2:] = c * np.diag([1.0, 1e-10]) @ rot
    return [k1, k2]


def test_batched_kernel_test_agrees_with_the_pairwise_oracle():
    # after the common-kernel reduction, one batched SVD of the K_j B
    # decides what the k (k - 1) pairwise image checks decide
    mismatches = 0
    for phi in kernel_test_population():
        factors = minimal_kraus(phi)
        if len(factors) > phi.d_in:
            continue
        basis = quasipure._common_kernel_complement(factors, linalg.DEFAULT_TOL)
        stack = np.stack(factors) @ basis
        verdict = quasipure._short_factor_verdict(
            factors, stack, basis, np.linalg.svd(stack, compute_uv=False),
            linalg.DEFAULT_TOL)
        h = None if verdict is None else verdict.witness
        oracle = pairwise_kernel_witness(factors)
        assert (h is None) == (oracle is None)
        if h is not None:
            mismatches += 1
            assert witness_is_sound(phi, h)
            assert witness_is_sound(phi, oracle)
            v = is_quasipure(phi)
            assert (v.status, v.method) == ("NotQuasiPure",
                                            "NecessaryConditionViolated")
            assert witness_is_sound(phi, v.witness)
    assert mismatches >= 6


def test_short_factor_without_a_witness_is_left_to_the_later_steps():
    # a factor short by its own scale is not yet a kernel mismatch: F at
    # its small direction has rank k here, so no witness may be reported
    for c in (0.1, 1.0, 10.0):
        factors = near_singular_factors(c)
        basis = np.eye(2, dtype=complex)
        stack = np.stack(factors)
        assert quasipure._short_factor_verdict(
            factors, stack, basis, np.linalg.svd(stack, compute_uv=False),
            linalg.DEFAULT_TOL) is None
        v = is_quasipure(CpMap.from_kraus(factors))
        assert v.method != "NecessaryConditionViolated"
        assert v.witness is None or witness_is_sound(
            CpMap.from_kraus(factors), v.witness)


def test_short_factor_witness_is_ranked_once(monkeypatch):
    # a 2 x 3 factor always has a kernel; F at a kernel vector of one
    # factor has rank 1, and that one rank is the verdict's
    ranks = []
    real = linalg.numerical_rank

    def counted(mat, *args, **kwargs):
        ranks.append(mat.shape)
        return real(mat, *args, **kwargs)

    phi = random_cp_map(2, 3, 2)
    monkeypatch.setattr(linalg, "numerical_rank", counted)
    v = is_quasipure(phi)
    assert (v.status, v.method) == ("NotQuasiPure",
                                    "NecessaryConditionViolated")
    assert ranks == [(2, 2)]
    monkeypatch.undo()
    assert witness_is_sound(phi, v.witness)


def test_diagonal_pair_witness_from_exact_arithmetic():
    phi = diagonal_pair_map()
    v = is_quasipure(phi)
    assert v.status == "NotQuasiPure"
    assert v.method == "ExactPencil"
    # each standard basis vector is a witness; the pencil reports one of them
    assert witness_is_sound(phi, v.witness)
    assert np.sort(np.abs(v.witness)).tolist() == pytest.approx([0.0, 0.0, 1.0])


def load_map(name):
    return serialize.decode_map(serialize.load_document(DATA / name))


def test_planted_witness_found_by_certificate():
    # k = m = 3: the lowest chart centre polishes into the witness
    phi, _ = planted_witness_map(3, 3, 3, seed=2)
    v = is_quasipure(phi)
    assert v.status == "NotQuasiPure"
    assert v.method == METHOD_SYLVESTER == "SylvesterMatrix"
    assert v.samples_used <= 3
    assert witness_is_sound(phi, v.witness)
    again = is_quasipure(phi)
    assert again.status == v.status
    assert np.allclose(again.witness, v.witness)


@pytest.mark.parametrize("phi", [random_cp_map(4, 2, 3, seed=5),
                                 load_map("inconclusive_map.json")],
                         ids=["random", "fixture"])
def test_generic_k3_map_is_proved_by_pencil_and_certificate(phi):
    # d_in = 4 < k m = 6, so the flattening is not injective; m = 2 leaves
    # one pencil over h, and the Sylvester-type matrix then has full rank;
    # both chart centres of CP^1 are the pencil's, so only S's N cells count
    v = is_quasipure(phi)
    assert v.status == "QuasiPure"
    assert v.method == "SylvesterMatrix"
    assert v.samples_used == 3 * math.comb(4, 3)
    assert v.is_proof
    # the brute-force oracle certifies it too (d_out <= 2)
    cert = grid_oracle(phi)
    assert cert.status == "QuasiPure"
    assert cert.is_proof


def test_out_of_reach_map_is_inconclusive():
    # quasi-pure by construction, rank [K_1 | ... | K_4] = 7 < 16; its
    # Sylvester-type matrix has N = 4 C(7, 4) = 140 columns, past a budget
    # of 100 once the 4 chart centres are spent
    phi = load_map("polynomial_744_map.json")
    assert linalg.numerical_rank(np.hstack(minimal_kraus(phi))) == 7
    v = is_quasipure(phi, budget=100)
    assert v.status == "Inconclusive"
    assert v.method == "SylvesterMatrix"
    assert 0 < v.samples_used <= 100
    assert not v.is_proof
    assert is_quasipure(phi, budget=3).samples_used == 0
    # the default budget builds the square 140 x 140 matrix: a proof
    w = is_quasipure(phi)
    assert (w.status, w.method, w.samples_used) == (
        "QuasiPure", "SylvesterMatrix", 4 + 140)
    assert w.is_proof


def test_certificate_memory_is_bounded_by_the_budget():
    # n = 11: the Sylvester-type matrix would have N = 11 C(21, 11), about
    # 3.9e6 columns, far past the budget, so step 3 stops after the chart
    # centres without enumerating a monomial
    import tracemalloc
    phi = CpMap.from_kraus(polynomial_factors(np.random.default_rng(11),
                                              21, 11, 11))
    tracemalloc.start()
    try:
        v = is_quasipure(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.status == "Inconclusive"
    assert v.samples_used == 11
    assert peak < 50 * 2 ** 20


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 4, 3), (6, 3, 4),
                                   (4, 3, 2), (6, 3, 2)])
def test_polynomial_maps_are_certified(shape):
    # the Kraus form, and the Choi matrix as one Gram product and as a sum
    # of outer products, which differ in the last bits: one verdict, with
    # the same cells
    factors = polynomial_factors(np.random.default_rng(sum(shape)), *shape)
    d_in, m, k = shape
    assert np.linalg.matrix_rank(np.hstack(factors)) == k + m - 1 < k * m
    outer = sum(np.outer(f.reshape(-1).conj(), f.reshape(-1)) for f in factors)
    forms = [CpMap.from_kraus(factors),
             CpMap.from_choi(kraus_to_choi(factors), d_in, m),
             CpMap.from_choi(outer, d_in, m)]
    verdicts = [is_quasipure(phi, budget=100_000) for phi in forms]
    assert {(v.status, v.method, v.samples_used) for v in verdicts} == {
        ("QuasiPure", "SylvesterMatrix", verdicts[0].samples_used)}
    assert verdicts[0].is_proof


def test_witness_is_read_from_the_sylvester_kernel():
    # the lowest chart centre polishes to no witness; a kernel vector of
    # the 30 x 30 matrix does, after the 3 centres and its N = 30 columns
    phi, _ = planted_witness_map(5, 3, 3, seed=17)
    v = is_quasipure(phi)
    assert (v.status, v.method) == ("NotQuasiPure", "SylvesterMatrix")
    assert v.samples_used == 3 + 3 * math.comb(5, 3)
    assert witness_is_sound(phi, v.witness)


@pytest.mark.parametrize("d_in, m, k", [(6, 2, 3), (9, 3, 3)])
def test_unitary_mixing_is_proved_by_the_flattening_rank(d_in, m, k):
    # K_j = A pad(C_j (x) I) B: sigma_k [K_j h] is constant on the sphere,
    # where polishing stalls; rank [K_1 | ... | K_k] = k m decides at once
    rng = np.random.default_rng(d_in)
    for _ in range(16):
        a, b, c = (haar_unitary(rng, n) for n in (d_in, m, k))
        factors = []
        for j in range(k):
            core = np.zeros((d_in, m), dtype=complex)
            core[:k * m] = np.kron(c[j][:, None], np.eye(m))
            factors.append(a @ core @ b)
        v = is_quasipure(CpMap.from_kraus(factors))
        assert v.status == "QuasiPure"
        assert v.method == "ExactPencil"
        assert v.samples_used == 0


@pytest.mark.parametrize("phi", [random_cp_map(5, 2, 2, seed=3),
                                 random_cp_map(8, 2, 3, seed=3)],
                         ids=["k2", "k3"])
def test_injective_flattening_is_decided_by_one_svd(monkeypatch, phi):
    # rank [K_1 | ... | K_k] = k d_out on the stored family settles the map
    # before minimal_kraus, the common kernel and the factor kernels
    ks = list(phi.kraus)
    forms = [CpMap.from_kraus(ks + [ks[0] + 0.5j * ks[1]]),  # dependent
             CpMap.from_choi(phi.choi, phi.d_in, phi.d_out)]

    def refuse(*args, **kwargs):
        raise AssertionError("minimal_kraus ran")

    calls = count_linalg_calls(monkeypatch, ["svd", "eig", "eigh", "eigvalsh"])
    monkeypatch.setattr(quasipure, "minimal_kraus", refuse)
    v = is_quasipure(phi)
    assert calls == [("svd", (phi.d_in, len(ks) * phi.d_out))]
    monkeypatch.undo()
    assert (v.status, v.method) == ("QuasiPure", "ExactPencil")
    for form in forms:
        w = is_quasipure(form)
        assert (w.status, w.method) == (v.status, v.method)


@pytest.mark.parametrize("phi, verdict", [
    (planted_witness_map(6, 2, 3)[0], ("NotQuasiPure", "ExactPencil")),
    (random_cp_map(4, 2, 3, seed=5), ("QuasiPure", "SylvesterMatrix")),
], ids=["square", "wide"])
def test_flattening_rank_is_taken_once(monkeypatch, phi, verdict):
    # not injective, and with no common kernel the reduced flattening is
    # the stored one: a square T is factorized up front, sigma only, and
    # its rank reused, then once more with vectors for the kernel read; a
    # wide one (4 < 3 * 2 rows) has rank below k m, and is neither ranked
    # nor read
    calls = count_linalg_calls(monkeypatch, ["svd"], compute_uv=True)
    v = is_quasipure(phi)
    assert (v.status, v.method) == verdict
    shape = (phi.d_in, 3 * phi.d_out)
    tall = phi.d_in >= shape[1]
    assert calls.count(("svd", shape, False)) == tall
    assert calls.count(("svd", shape, True)) == tall


def test_wide_chart_centre_reads_the_short_factor_sigmas(monkeypatch):
    # planted (5, 3, 3): T = [K_1 | K_2 | K_3] has 5 < 9 rows, so it is
    # neither ranked nor read; k <= m, so the chart centre reads the sigma
    # batch of the short-factor test, and no SVD of the polish computes a
    # U it does not read
    phi = planted_witness_map(5, 3, 3, seed=3)[0]
    calls = count_linalg_calls(monkeypatch, ["svd"], compute_uv=True,
                               full_matrices=True)
    polish = []
    original = quasipure._refine_candidate

    def spied(stack, h):
        start = len(calls)
        out = original(stack, h)
        polish.extend(calls[start:])
        return out

    monkeypatch.setattr(quasipure, "_refine_candidate", spied)
    v = is_quasipure(phi)
    assert (v.status, v.method, v.samples_used) == (
        "NotQuasiPure", "SylvesterMatrix", 3)
    assert [c[:3] for c in calls if c[1] == (3, 5, 3)] == [
        ("svd", (3, 5, 3), False)]
    assert not [c for c in calls if c[1] == (5, 9)]
    assert polish and all(c[2] and not c[3] for c in polish)


def test_common_kernel_complement_takes_one_svd(monkeypatch):
    # the leading right singular vectors of the stacked factors span the
    # complement of their common kernel; a trivial kernel gives I
    rng = np.random.default_rng(21)
    q = haar_unitary(rng, 4)[:, :2]
    factors = [k @ q @ q.conj().T for k in random_kraus(rng, 5, 4, 3)]
    calls = count_linalg_calls(monkeypatch, ["svd"])
    basis = quasipure._common_kernel_complement(factors, linalg.DEFAULT_TOL)
    assert calls == [("svd", (15, 4))]
    assert basis.shape == (4, 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(2))
    assert np.allclose(basis @ basis.conj().T, q @ q.conj().T)
    full = random_kraus(rng, 5, 4, 2)
    assert np.array_equal(
        quasipure._common_kernel_complement(full, linalg.DEFAULT_TOL),
        np.eye(4))


def near_reduction_families(rng, d_in, m, k, rel):
    """Dependent, common-kernel and short-factor families of ``k`` factors
    ``(d_in, m)``, each moved by ``rel`` times its largest entry."""
    g = random_kraus(rng, d_in, m, k)
    x = random_unit(rng, m)
    cut = np.eye(m) - np.outer(x, x.conj())
    families = [g[:-1] + [g[0] + 0.5j * g[-2]],  # K_k in the span of the rest
                [f @ cut for f in g],            # every K_j kills x
                [g[0] @ cut] + g[1:]]            # K_1 alone kills x
    noise = random_kraus(rng, d_in, m, k)
    return [[f + rel * max(map(linalg.max_abs, fam)) * n
             for f, n in zip(fam, noise)] for fam in families]


def verdict_record(phi):
    v = is_quasipure(phi)
    return (v.status, v.method, v.samples_used,
            None if v.witness is None else v.witness.tobytes())


@pytest.mark.parametrize("d_in, m, k", [(4, 2, 2), (6, 3, 2), (6, 2, 3),
                                        (8, 2, 4), (9, 3, 3)])
def test_step_one_vouches_for_the_reduction_soundly(monkeypatch, d_in, m, k):
    # families on either side of a dependency, a common kernel and a short
    # factor, in Kraus and Choi form: whenever sigma(T) vouches for the
    # reduction, minimal_kraus keeps the held family and the common-kernel
    # complement is I, and every verdict is the one the full reduction
    # gives, byte for byte
    tol = linalg.DEFAULT_TOL
    rng = np.random.default_rng(d_in * 100 + m * 10 + k)
    maps = []
    for rel in 3 * ([0.0] + [10.0 ** -e for e in range(3, 14)]):
        for factors in near_reduction_families(rng, d_in, m, k, rel):
            phi = CpMap.from_kraus(factors)
            maps += [phi, CpMap.from_choi(phi.choi, d_in, m)]
    gates = []
    real = quasipure._reduction_is_trivial

    def spy(*args):
        gates.append(real(*args))
        return gates[-1]

    monkeypatch.setattr(quasipure, "_reduction_is_trivial", spy)
    vouched, gated = [], []
    for phi in maps:
        gates.clear()
        gated.append(verdict_record(phi))
        vouched.append(gates == [True])
        if vouched[-1]:
            if phi.kraus:  # minimal_kraus keeps the stored factors themselves
                kept = minimal_kraus(phi, tol)
                assert len(kept) == k
                assert all(a is b for a, b in zip(kept, phi.kraus))
            held = phi.kraus or minimal_kraus(phi, tol)
            assert np.array_equal(
                quasipure._common_kernel_complement(held, tol), np.eye(m))
    monkeypatch.setattr(quasipure, "_reduction_is_trivial",
                        lambda *args: False)
    assert [verdict_record(phi) for phi in maps] == gated
    assert 0 < sum(vouched) < len(maps)


def test_decisions_draw_no_random_numbers(monkeypatch):
    maps = [load_map("inconclusive_map.json"),
            planted_witness_map(3, 3, 3, seed=2)[0]]

    def refuse(*args, **kwargs):
        raise AssertionError("is_quasipure drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert [is_quasipure(phi).status for phi in maps] == \
        ["QuasiPure", "NotQuasiPure"]


def test_input_gates():
    with pytest.raises(NotCP):
        is_quasipure(transpose_map(2))
    with pytest.raises(ZeroMap):
        is_quasipure(CpMap.zero(2, 2))


def test_a_negative_budget_is_rejected_before_step_one(monkeypatch):
    # step 1 proves this map without spending a cell, and still a negative
    # budget is refused, before any factorization; the rigidity check
    # passes its budget through and refuses it alike
    phi = random_cp_map(5, 2, 2, seed=3)
    calls = count_linalg_calls(monkeypatch, ["svd", "eigh"])
    with pytest.raises(ValueError, match="non-negative"):
        is_quasipure(phi, budget=-5)
    with pytest.raises(ValueError, match="non-negative"):
        is_quasipure(CpMap.zero(2, 2), budget=-1)
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match="non-negative"):
        rigidity_check(phi, phi, np.eye(2), budget=-1)
    assert is_quasipure(phi, budget=0).status == "QuasiPure"


@pytest.mark.parametrize("scale", [1e-10, 1e-12])
def test_a_small_map_is_not_the_zero_map(scale):
    # a map that was given is zero only when its Choi matrix is; below
    # eps_eq it is still decided at its own scale, from either form
    phi = random_cp_map(5, 3, 2, seed=0) * scale
    for form in (phi, CpMap.from_choi(phi.choi, 5, 3)):
        assert not form.is_zero()
        assert is_quasipure(form).status == "QuasiPure"
    assert CpMap.zero(5, 3).is_zero()
    with pytest.raises(ZeroMap):
        is_quasipure(CpMap.zero(5, 3))


# ---------------------------------------------------------------------------
# the k = 2 pencil


def pencil_verdict(*factors):
    """The verdict on the map with the Kraus factors ``factors``."""
    return is_quasipure(CpMap.from_kraus(list(factors)))


def test_pencil_identity_sigma_x():
    v = pencil_verdict(np.eye(2), SIGMA_X)
    assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
    # pencil zI + sigma_x is singular at z = -1 and z = +1; the witness is a
    # joint eigenvector of the pair, i.e. (1,1) or (1,-1) up to phase
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert max(abs(np.vdot(v.witness, plus)), abs(np.vdot(v.witness, minus))) \
        == pytest.approx(1.0, abs=1e-12)


def test_pencil_diagonal_pair():
    v = pencil_verdict(np.diag([1.0, 1.0]), np.diag([1.0, 2.0]))
    assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
    # singular directions are exactly e1 and e2
    assert np.sort(np.abs(v.witness)).tolist() == pytest.approx([0.0, 1.0])
    # a repeated singular point, (z + 1)^2 (z + 2), at integer and at
    # irrational scale
    for scale in (1.0, np.sqrt(2.0)):
        v = pencil_verdict(scale * np.eye(3), scale * np.diag([1.0, 1.0, 2.0]))
        assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
        assert np.sort(np.abs(v.witness)).tolist() == pytest.approx([0, 0, 1])


def test_pencil_never_vanishing_columns():
    points = quasipure._singular_points(
        np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), linalg.DEFAULT_TOL)
    assert points == []


def test_pencil_float_path_singular():
    # irrational entries force the floating-point route
    v = pencil_verdict(np.eye(2), np.diag([np.sqrt(2.0), np.sqrt(3.0)]))
    assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
    assert np.sort(np.abs(v.witness)).tolist() == pytest.approx([0.0, 1.0])


def test_pencil_float_path_injective():
    # the pencil has no singular point, and step 3 proves the map
    l1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    l2 = np.sqrt(2.0) * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert quasipure._singular_points(l1, l2, linalg.DEFAULT_TOL) == []
    v = pencil_verdict(l1, l2)
    assert (v.status, v.method) == ("QuasiPure", "SylvesterMatrix")
    assert v.witness is None


def test_gaussian_integer_pencils_keep_their_verdict_when_scaled():
    # a Gaussian-integer pair and the same pair scaled by sqrt(2), so that
    # no entry is a small rational: one floating-point route, the same
    # singular points, and the same status, method and cells
    rng = np.random.default_rng(41)
    statuses = set()
    for d_in, m in [(2, 2), (3, 2), (4, 2), (4, 3), (5, 3), (6, 3)]:
        for singular in (False, True):
            l1, l2 = gaussian_integer_pair(rng, d_in, m, singular)
            points = quasipure._singular_points(l1, l2, linalg.DEFAULT_TOL)
            scaled = quasipure._singular_points(
                np.sqrt(2.0) * l1, np.sqrt(2.0) * l2, linalg.DEFAULT_TOL)
            assert len(points) == len(scaled)
            assert np.allclose(points, scaled, atol=1e-8), \
                f"points move at {(d_in, m)}"
            verdicts = [pencil_verdict(l1, l2),
                        pencil_verdict(np.sqrt(2.0) * l1, np.sqrt(2.0) * l2)]
            assert len({(v.status, v.method, v.samples_used)
                        for v in verdicts}) == 1
            assert (verdicts[0].status == "QuasiPure") == (not points)
            for v in verdicts:
                if v.witness is not None:
                    cols = np.column_stack([l1 @ v.witness, l2 @ v.witness])
                    assert linalg.numerical_rank(cols) == 1
            statuses.add(verdicts[0].status)
    assert statuses == {"QuasiPure", "NotQuasiPure"}


def test_real_pencil_is_solved_in_real_arithmetic():
    # the flip twirl's pencil z I + sigma_x is singular at -1 and 1: a
    # real -M_1^+ M_2 is solved in real arithmetic, which gives both points
    # exactly, and the witness recorded in the goldens is polished from them
    points = quasipure._singular_points(
        np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
        linalg.DEFAULT_TOL)
    assert [(z.real.hex(), z.imag.hex()) for z in points] == [
        ((-1.0).hex(), (0.0).hex()), ((1.0).hex(), (0.0).hex())]


@pytest.mark.parametrize("scale", [1e-15, 1e-10, 1e-4, 1e4, 1e8, 1e15,
                                   1e18, 1e20], ids="{:g}".format)
@pytest.mark.parametrize("phi, method", [
    (random_cp_map(5, 3, 2), "SylvesterMatrix"),
    (planted_witness_map(5, 3, 2)[0], "ExactPencil"),
    (planted_witness_map(4, 3, 3, seed=0)[0], "SylvesterMatrix"),
], ids=["random", "planted", "planted-k3"])
def test_pencil_verdict_survives_rescaling(phi, method, scale):
    # Kraus factors scaled by c scale the map by c^2; a floating-point
    # pencil's QuasiPure stands on the full rank of the Sylvester matrix,
    # and the polisher stops at the scale of the factors
    v = is_quasipure(phi)
    for scaled in (
            CpMap.from_kraus([scale * k for k in minimal_kraus(phi)]),
            CpMap.from_choi(scale ** 2 * phi.choi, phi.d_in, phi.d_out)):
        w = is_quasipure(scaled)
        assert w.status == v.status
        assert w.method == v.method == method
        assert w.samples_used == v.samples_used
        assert w.is_proof
        if w.witness is not None:
            assert witness_is_sound(scaled, w.witness)


def test_quasipurity_never_loads_sympy():
    # a float decision and the Gaussian-integer witness maps: no exact
    # arithmetic, so neither sympy nor fractions nor decimal is loaded
    code = (
        "import sys\n"
        "from cpmaps import gallery, is_quasipure, serialize\n"
        "special = serialize.load_document(sys.argv[1])\n"
        "for phi in (gallery.random_cp_map(4, 2, 2, seed=1),\n"
        "            gallery.diagonal_pair_map(),\n"
        "            serialize.decode_map(special)):\n"
        "    v = is_quasipure(phi)\n"
        "    print(v.status, v.method,\n"
        "          sorted({'sympy', 'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code,
                           str(DATA / "special_map.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "QuasiPure ExactPencil []",
        "NotQuasiPure ExactPencil []",
        "NotQuasiPure ExactPencil []",
    ]


@pytest.mark.parametrize("case", list(EXACT_ROOTS))
def test_singular_points_match_the_exact_roots(case):
    # the floating-point points of Gaussian-rational pencils, irrational
    # and repeated roots among them, against the recorded exact roots: each
    # point is near a root and each root near a point (rounding error of
    # the eigensolve: at most 2.5e-14 over these pencils)
    pair = (NAMED_PENCILS[case] if isinstance(case, str)
            else pinned_pencil(case))
    roots = [complex(float.fromhex(re), float.fromhex(im))
             for re, im in EXACT_ROOTS[case]]
    points = quasipure._singular_points(*pair, linalg.DEFAULT_TOL)
    assert points
    gap = np.abs(np.subtract.outer(points, roots)) / np.maximum(
        1.0, np.abs(roots))
    assert gap.min(axis=1).max() < 1e-12
    assert gap.min(axis=0).max() < 1e-12


def test_double_singular_point_is_kept():
    # a Gaussian-integer pencil singular only at 1 + i, a double point: the
    # eigensolve splits it by about 4e-8, where sigma_min / sigma_max of
    # z K_1 + K_2 is about 6e-9, above eps_rank but not its square root; the
    # rank rule on sigma^2 keeps both halves and the pencil decides
    l1 = np.array([[0, 0], [-1 + 2j, 2], [-1j, -1], [-3 + 1j, 2 + 2j]])
    l2 = np.array([[-1j, -1], [2 - 1j, -2 - 1j], [-1 + 1j, 1 + 1j],
                   [1 + 2j, -1j]])
    points = quasipure._singular_points(l1, l2, linalg.DEFAULT_TOL)
    assert np.allclose(points, [1 + 1j, 1 + 1j], atol=1e-6)
    v = pencil_verdict(l1, l2)
    assert (v.status, v.method, v.samples_used) == (
        "NotQuasiPure", "ExactPencil", 0)
    cols = np.column_stack([l1 @ v.witness, l2 @ v.witness])
    assert linalg.numerical_rank(cols) == 1


def count_polishes(monkeypatch):
    """The list of directions ``_refine_candidate`` is handed, as it runs."""
    polished = []
    original = quasipure._refine_candidate

    def counted(stack, h):
        polished.append(h)
        return original(stack, h)

    monkeypatch.setattr(quasipure, "_refine_candidate", counted)
    return polished


def test_pencil_polishes_singular_candidates_first(monkeypatch):
    # K_2 e_1 = -2 K_1 e_1: -K_1^+ K_2 has the singular point 2 and two
    # spurious eigenvalues, which the rank rule drops; the genuine one is
    # polished alone.  T = [K_1 | K_2] has 5 < 6 rows, so its kernel is not
    # read first
    rng = np.random.default_rng(0)
    l1, l2 = (rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
              for _ in range(2))
    l2[:, 0] = -2.0 * l1[:, 0]
    candidates = np.linalg.eigvals(-np.linalg.lstsq(l1, l2, rcond=None)[0])
    assert sorted(candidates.real)[-1] == pytest.approx(2.0)
    points = quasipure._singular_points(l1, l2, linalg.DEFAULT_TOL)
    assert points == [pytest.approx(2.0)]
    polished = count_polishes(monkeypatch)
    v = pencil_verdict(l1, l2)
    assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
    assert abs(v.witness[0]) == pytest.approx(1.0)
    assert len(polished) == 1
    assert abs(polished[0][0]) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spurious_pencil_points_are_not_polished(monkeypatch, seed):
    # a float k = 2 polynomial map, quasi-pure with rank T = 4 < 6: none of
    # the three eigenvalues of -K_1^+ K_2 is a singular point, so nothing
    # is polished before S proves the map
    phi = CpMap.from_kraus(polynomial_factors(np.random.default_rng(seed),
                                              6, 3, 2))
    polished = count_polishes(monkeypatch)
    v = is_quasipure(phi)
    assert (v.status, v.method) == ("QuasiPure", "SylvesterMatrix")
    assert len(polished) == 0


def pipeline_polishes(monkeypatch, maps):
    """``(route, stack, h)`` of every polish ``is_quasipure`` runs on ``maps``.

    The route is the candidate's: ``pencil``, ``chart centre`` (``n``
    cells spent) or ``S kernel``.
    """
    polishes, route = [], []
    candidate = quasipure._candidate_verdict
    refine = quasipure._refine_candidate

    def spied_candidate(factors, stack, basis, vec, dependency, method, tol,
                        samples=0):
        route[:] = ["pencil" if method == "ExactPencil"
                    else "chart centre" if samples == min(stack.shape[::2])
                    else "S kernel"]
        return candidate(factors, stack, basis, vec, dependency, method, tol,
                         samples)

    def spied_refine(stack, h):
        polishes.append((route[0], stack, h))
        return refine(stack, h)

    monkeypatch.setattr(quasipure, "_candidate_verdict", spied_candidate)
    monkeypatch.setattr(quasipure, "_refine_candidate", spied_refine)
    for phi in maps:
        is_quasipure(phi)
    monkeypatch.undo()
    return polishes


def test_polish_matches_the_reference_byte_for_byte(monkeypatch):
    # the leaner rounds compute the iterates of the reference polish, bit
    # for bit: from the starts the pipeline hands it (pencil points, chart
    # centres, kernel vectors of S) on wide planted and random maps, and
    # from random unit starts on their stacks
    def planted_and_random(shapes, seeds):
        return [phi for shape in shapes for seed in seeds
                for phi in (planted_witness_map(*shape, seed=seed)[0],
                            random_cp_map(*shape, seed=seed))]

    wide = planted_and_random([(4, 3, 3), (5, 3, 3), (5, 4, 4), (6, 4, 4)],
                              range(20))
    pencils = planted_and_random([(5, 3, 2), (4, 3, 2), (5, 2, 3), (4, 2, 3)],
                                 range(5))
    polishes = pipeline_polishes(monkeypatch, wide + pencils)
    assert {route for route, _, _ in polishes} == {
        "pencil", "chart centre", "S kernel"}
    rng = np.random.default_rng(29)
    starts = [(stack, h) for _, stack, h in polishes]
    starts += [(np.stack(phi.kraus), random_unit(rng, phi.d_out))
               for phi in wide]
    for stack, h in starts:
        assert (quasipure._refine_candidate(stack, h).tobytes()
                == refine_candidate_reference(stack, h).tobytes())


def test_failed_polish_matches_the_reference_byte_for_byte(monkeypatch):
    # on quasi-pure polynomial stacks the polish finds no witness: it stops
    # at a stationary alternating step, or runs into the 400-round cap, and
    # either exit returns the reference's bytes
    rounds = count_linalg_calls(monkeypatch, ["lstsq"])
    rng = np.random.default_rng(0)
    exits = set()
    for shape in [(5, 3, 3), (6, 4, 3), (6, 3, 4), (4, 3, 2), (6, 3, 2)]:
        for seed in range(4):
            stack = np.stack(polynomial_factors(np.random.default_rng(seed),
                                                *shape))
            h = random_unit(rng, shape[1])
            rounds.clear()
            got = quasipure._refine_candidate(stack, h)
            exits.add(len(rounds) == 400)
            want = refine_candidate_reference(stack, h)
            assert got.tobytes() == want.tobytes()
    assert exits == {False, True}


def test_inconclusive_fixture_polishes_one_chart_centre(monkeypatch):
    # the G-side pencil (m = 2 < k = 3) has no singular point, and both
    # chart centres of CP^1 are the pencil's, so nothing is polished before
    # S's 12 columns prove the map
    polished = count_polishes(monkeypatch)
    v = is_quasipure(load_map("inconclusive_map.json"))
    assert (v.status, v.method, v.samples_used) == (
        "QuasiPure", "SylvesterMatrix", 12)
    assert len(polished) == 0


@pytest.mark.parametrize("name, decision, line", [
    ("eb_map.json", None, None),
    ("nqp_phi.json", False, [0.0, 0.0, 1.0]),
    ("nqp_psi.json", False, [0.0, 0.0, 1.0]),
    ("special_map.json", False, [1.0, 1.0]),
])
def test_pencil_decisions_on_the_fixtures(name, decision, line):
    # the witness lines (decision False; None: no witness) recorded with
    # the plain (real, imag) candidate order, on the fixtures' reduced
    # factors and, scaled by sqrt(2) so that no entry is a small rational,
    # on the floating-point route
    factors = minimal_kraus(load_map(name))
    assert len(factors) == 2
    basis = quasipure._common_kernel_complement(factors, linalg.DEFAULT_TOL)
    if line is not None:
        line = np.asarray(line) / np.linalg.norm(line)
    for scale in (1.0, np.sqrt(2.0)):
        v = pencil_verdict(*(scale * f @ basis for f in factors))
        assert v.status == ("QuasiPure" if decision is None
                            else "NotQuasiPure")
        if line is None:
            assert v.witness is None
        else:
            assert abs(np.vdot(v.witness, line)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("factors, kernel_svds", [
    (minimal_kraus(planted_witness_map(5, 3, 2)[0]), 1),
    (gaussian_integer_pair(np.random.default_rng(7), 5, 2, singular=True), 0),
    (minimal_kraus(planted_witness_map(6, 2, 3)[0]), 1),
], ids=["float", "gaussian-integer", "g-side"])
def test_k2_decision_reuses_the_reduction(monkeypatch, factors, kernel_svds):
    # is_quasipure has removed the common kernel and tested the short
    # factors itself: on the K side (k = 2) the pencil takes neither the SVD
    # of the stacked pair again nor a kernel SVD of either factor; on the G
    # side (m = 2 < k) the G_i have no common kernel, and the planted e_1 is
    # the point c = (1, 0), tested before the pencil.  The Gaussian-integer
    # pair has a tall T = [K_1 | K_2] (4 columns, 5 rows) with a
    # one-dimensional kernel, so step 1's sigma(T) shows the common kernel
    # trivial and the stacked factors are not factorized at all; the
    # planted g-side kernel a (x) e_1 is m = 2 dimensional, and T vouches
    # for nothing
    k, (d, m) = len(factors), factors[0].shape
    kernels = []
    original = linalg.kernel_basis

    def counted(mat, *args, **kwargs):
        kernels.append(np.shape(mat))
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    calls = count_linalg_calls(monkeypatch, ["svd"])
    v = is_quasipure(CpMap.from_kraus(factors))
    assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
    assert calls.count(("svd", (k * d, m))) == kernel_svds  # common kernel
    assert kernels == []
    if k > m:
        assert calls.count(("svd", (2 * d, k))) == 0  # the stacked G_1, G_2
        assert np.allclose(v.witness, np.eye(m)[0])


@pytest.mark.parametrize("phi", [
    pencil_witness(np.random.default_rng(4), 6, 3),
    planted_witness_map(6, 2, 3)[0],
    planted_witness_map(9, 3, 3)[0],
    planted_witness_map(9, 3, 3, seed=5)[0],
], ids=["pencil-6x3", "planted-623", "planted-933", "planted-933-seed5"])
def test_square_flattening_witness_is_read_from_its_kernel(monkeypatch, phi):
    # a witness h with dependency vectors A puts A (x) h in ker T; with
    # k m <= d_in rows and one witness, the last right singular vector of T
    # is such a tensor, and its largest row passes the rank window with no
    # pencil, no chart centre and no polish.  Step 1's sigma(T) vouches for
    # the reduction except on planted-623, whose kernel {a (x) e_1} has
    # dimension m = 2; either way the one batched sigma-only SVD is the
    # short-factor test, which finds every factor injective and asks for no
    # vectors
    def refuse(*args, **kwargs):
        raise AssertionError("a later candidate ran")

    monkeypatch.setattr(quasipure, "_singular_points", refuse)
    monkeypatch.setattr(quasipure, "_refine_candidate", refuse)
    calls = count_linalg_calls(monkeypatch, ["svd"], compute_uv=True)
    v = is_quasipure(phi)
    monkeypatch.undo()
    assert (v.status, v.method, v.samples_used) == (
        "NotQuasiPure", "ExactPencil", 0)
    assert witness_is_sound(phi, v.witness)
    k, (d, m) = len(phi.kraus), phi.kraus[0].shape
    assert calls.count(("svd", (d, k * m), True)) == 1
    assert [c for c in calls if len(c[1]) == 3] == [("svd", (k, d, m), False)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quasipure_square_flattening_pays_one_read(monkeypatch, seed):
    # quasi-pure with rank T = 4 < 6 = k m = d_in: the read costs one SVD
    # of T with vectors and one rank window on F(h), 6 x 2, and polishes
    # nothing before S proves the map
    phi = CpMap.from_kraus(polynomial_factors(np.random.default_rng(seed),
                                              6, 3, 2))
    polished = count_polishes(monkeypatch)
    calls = count_linalg_calls(monkeypatch, ["svd"], compute_uv=True)
    v = is_quasipure(phi)
    assert (v.status, v.method) == ("QuasiPure", "SylvesterMatrix")
    assert calls.count(("svd", (6, 6), True)) == 1
    assert calls.count(("svd", (6, 2), False)) == 1
    assert polished == []


def test_two_witnesses_fall_through_to_the_pencil(monkeypatch):
    # K_1 = A [I; 0] and K_2 = A [D; 0] for an upper triangular D with
    # distinct diagonal: the eigenvectors of D are two witnesses, ker T
    # holds two rank-one tensors, and its last singular vector, a mixture
    # of them, reads no witness; the pencil still finds one
    rng = np.random.default_rng(11)
    while True:
        a = gaussian_integers(rng, (4, 4))
        if abs(np.linalg.det(a)) > 0.5:
            break
    d = np.array([[1 + 1j, 2], [0, -1]])
    phi = CpMap.from_kraus([a[:, :2], a[:, :2] @ d])
    pencils = []
    original = quasipure._singular_points

    def counted(m1, m2, tol):
        pencils.append(m1.shape)
        return original(m1, m2, tol)

    monkeypatch.setattr(quasipure, "_singular_points", counted)
    v = is_quasipure(phi)
    assert (v.status, v.method) == ("NotQuasiPure", "ExactPencil")
    assert witness_is_sound(phi, v.witness)
    assert pencils == [(4, 2)]


# ---------------------------------------------------------------------------
# the grid oracle


def test_grid_oracle_examples():
    v = grid_oracle(flip_twirl_map())
    assert v.status == "NotQuasiPure"
    assert v.method == "GridOracle"
    overlap = abs(np.vdot(v.witness, np.array([1.0, 1.0]) / np.sqrt(2.0)))
    assert overlap > 1.0 - 1e-6
    assert grid_oracle(identity_map(2)).status == "QuasiPure"
    eb = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    assert grid_oracle(eb).status == "QuasiPure"


def test_grid_oracle_scale_limits():
    with pytest.raises(ValueError, match="d_out=3, k=1"):
        grid_oracle(identity_map(3))  # d_out = 3
    with pytest.raises(ValueError, match="d_out=2, k=4"):
        grid_oracle(random_cp_map(3, 2, 4, seed=0))  # k = 4
    with pytest.raises(ValueError, match="at least 8"):
        grid_oracle(flip_twirl_map(), grid_density=4)


def test_pencil_agrees_with_grid_on_small_maps():
    rng = np.random.default_rng(100)
    for trial in range(12):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        k = int(rng.integers(1, min(3, d1 * d2 + 1)))
        phi = random_cp_map(d1, d2, k, rng=rng)
        fast = is_quasipure(phi)
        slow = grid_oracle(phi)
        assert fast.status != "Inconclusive"
        assert slow.status != "Inconclusive"
        assert fast.status == slow.status, f"disagreement on trial {trial}"
    # and on Gaussian-integer maps with d_out = 2
    for trial in range(8):
        pair = gaussian_integer_pair(rng, 2 + trial % 3, 2, trial % 2 == 1)
        phi = CpMap.from_kraus(list(pair))
        fast = is_quasipure(phi)
        assert fast.status == grid_oracle(phi).status, \
            f"disagreement on Gaussian-integer trial {trial}"
    # and on the curated boundary case
    assert is_quasipure(flip_twirl_map()).status == \
        grid_oracle(flip_twirl_map()).status


def test_grid_oracle_agrees_on_k3_maps():
    # k = 3, d_out <= 2: one reduced column (the flattening rank decides),
    # or two (a pencil over h, then the Sylvester-type matrix)
    rng = np.random.default_rng(300)
    family = [random_cp_map(d_in, d_out, 3, rng=rng)
              for d_in in (3, 4, 5) for d_out in (1, 2) for _ in range(2)]
    family += [planted_witness_map(d_in, 2, 3, seed=d_in)[0]
               for d_in in (3, 4, 5)]
    methods = set()
    for trial, phi in enumerate(family):
        fast = is_quasipure(phi)
        slow = grid_oracle(phi)
        assert fast.status != "Inconclusive"
        assert fast.status == slow.status, f"disagreement on map {trial}"
        if fast.witness is not None:
            assert witness_is_sound(phi, fast.witness)
        methods.add((fast.status, fast.method))
    assert methods == {("QuasiPure", "ExactPencil"),
                       ("QuasiPure", "SylvesterMatrix"),
                       ("NotQuasiPure", "ExactPencil")}


# ---------------------------------------------------------------------------
# order-theoretic consequences


def test_domination_preserves_quasipurity_on_state_map():
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    assert domination_preserves_quasipurity_check(phi, trials=10)


def test_domination_preserves_quasipurity_on_pure_map():
    phi = conjugation_map(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert domination_preserves_quasipurity_check(phi, trials=5)


def test_domination_check_requires_proof_grade_base():
    with pytest.raises(ValueError, match="NotQuasiPure"):
        domination_preserves_quasipurity_check(flip_twirl_map(), trials=2)


def test_kernel_equality_for_dominated_maps():
    # dominated parts of a quasi-pure map keep the kernel of phi(I)
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    triple = minimal_stinespring(phi)
    unit_kernel = linalg.kernel_basis(apply(phi, np.eye(phi.d_in)))
    rng = np.random.default_rng(77)
    for _ in range(10):
        d = random_positive_contraction(triple.multiplicity, rng=rng)
        alpha = map_from_contraction(triple, d)
        if alpha.is_zero():
            continue
        ker = linalg.kernel_basis(apply(alpha, np.eye(phi.d_in)))
        assert ker.shape == unit_kernel.shape
        # same span: each basis lies in the range of the other projection
        p = unit_kernel @ unit_kernel.conj().T
        assert np.abs(p @ ker - ker).max() < 1e-9


def test_strict_kernel_growth_at_a_witness():
    # at a witness the cyclic subspace is proper, and cutting it away leaves
    # a nonzero map whose unit image has a strictly larger kernel
    phi = flip_twirl_map()
    v = is_quasipure(phi)
    triple = minimal_stinespring(phi)
    q = cyclic_projection(triple, v.witness)
    rest = map_from_dilation((np.eye(triple.dilation_dim) - q) @ triple.v,
                             triple.d_in, triple.d_out, triple.multiplicity)
    assert not rest.is_zero()
    base_nullity = linalg.kernel_basis(apply(phi, np.eye(2))).shape[1]
    rest_nullity = linalg.kernel_basis(apply(rest, np.eye(2))).shape[1]
    assert rest_nullity > base_nullity


def test_internal_consistency_checks_raise_input_not_reduced():
    """The one internal raise of InputNotReduced, reached directly."""
    # e_1 is cyclic for {I, sigma_x}: rank F(e_1) = 2 = k, no witness
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(InputNotReduced,
                       match="candidate witness failed the rank window"):
        quasipure._not_quasipure([np.eye(2, dtype=complex), sigma_x],
                                 np.array([1, 0], dtype=complex),
                                 quasipure.METHOD_NECESSARY, linalg.DEFAULT_TOL)
