"""Tests for positive block completion and minimal CP completion."""

import json

import numpy as np
import pytest

from cpmaps import (
    BlockCompletionProblem,
    CpMap,
    DimensionMismatch,
    MalformedPartialMap,
    NotCompletable,
    PartialCpMap,
    RNotProjection,
    SeedNotACompletion,
    apply,
    block_completable,
    cp_completable,
    dominates,
    forced_equality_scan,
    maps_close,
    minimal_block_completion,
    minimal_cp_completion_choi,
    minimal_cp_completion_stinespring,
)
from cpmaps import linalg, serialize
from cpmaps.completion import _decide, _split_blocks
from cpmaps.gallery import (
    flip_twirl_map,
    identity_map,
    random_cp_map,
    trace_state_map,
)

from conftest import (
    DATA,
    count_linalg_calls,
    haar_unitary,
    random_non_normal,
    random_projection,
    random_psd,
    record_norm_orders,
)
from oracles import pseudo_inverse


E11 = np.diag([1.0, 0.0]).astype(complex)


# ---------------------------------------------------------------------------
# block completion


def test_block_completable_frozen_examples():
    yes = BlockCompletionProblem.from_blocks(np.diag([1.0, 0.0]),
                                             np.array([[1.0, 0.0]]))
    assert block_completable(yes)
    no = BlockCompletionProblem.from_blocks(np.diag([1.0, 0.0]),
                                            np.array([[0.0, 1.0]]))
    assert not block_completable(no)
    invertible = BlockCompletionProblem.from_blocks(
        np.eye(2), np.array([[0.3, 1.0], [2.0, -1j]]))
    assert block_completable(invertible)


def test_minimal_block_completion_frozen_examples():
    prob = BlockCompletionProblem.from_blocks(np.diag([1.0, 0.0]),
                                              np.array([[1.0, 0.0]]))
    m = minimal_block_completion(prob)
    expected = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.allclose(m, expected, atol=1e-12)
    assert linalg.numerical_rank(m) == 1

    inv = BlockCompletionProblem.from_blocks(np.eye(2), np.array([[1.0, 0.0]]))
    m = minimal_block_completion(inv)
    assert np.allclose(m[2, 2], 1.0)

    scalar = BlockCompletionProblem.from_blocks(2.0 * np.eye(1),
                                                np.array([[3.0]]))
    m = minimal_block_completion(scalar)
    assert np.allclose(m, [[2.0, 3.0], [3.0, 4.5]])


def test_minimal_block_completion_requires_feasibility():
    prob = BlockCompletionProblem.from_blocks(np.diag([1.0, 0.0]),
                                              np.array([[0.0, 1.0]]))
    with pytest.raises(NotCompletable):
        minimal_block_completion(prob)


def test_block_problem_validation():
    with pytest.raises(RNotProjection):
        BlockCompletionProblem(p=np.diag([2.0, 0.0]),
                               a=np.diag([1.0, 0.0]),
                               c=np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        BlockCompletionProblem(p=np.diag([1.0, 0.0]).astype(complex),
                               a=np.eye(2, dtype=complex),
                               c=np.zeros((2, 2), dtype=complex))


def test_kernel_criterion_matches_q_bound_both_directions():
    # completability (ker A inside ker C) is equivalent to exists q: C*C <= qA
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        a = random_psd(rng, r, rank=int(rng.integers(1, r + 1)))
        c = rng.normal(size=(n - r, r)) + 1j * rng.normal(size=(n - r, r))
        if rng.uniform() < 0.5:
            # force the columns of C* into the range of A
            c = c @ linalg.range_projection(a)
        prob = BlockCompletionProblem.from_blocks(a, c)
        feasible = block_completable(prob)
        # direct search for q: C*C <= qA iff scaled compression is bounded
        sqrt_pinv = linalg.psd_sqrt(pseudo_inverse(a))
        gram = c.conj().T @ c
        q = float(np.linalg.eigvalsh(sqrt_pinv @ gram @ sqrt_pinv)[-1])
        bounded = linalg.psd_check(q * a - gram, linalg.Tolerance(
            eps_rank=1e-9, eps_psd=1e-7, eps_eq=1e-9))
        leak = linalg.max_abs(gram - linalg.range_projection(a) @ gram
                              @ linalg.range_projection(a))
        if feasible:
            assert bounded and leak < 1e-8
        else:
            assert leak > 1e-8  # C has mass outside ran A: no finite q


def test_schur_minimality_downward_perturbations():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        a = random_psd(rng, r)
        c = rng.normal(size=(n - r, r)) + 1j * rng.normal(size=(n - r, r))
        prob = BlockCompletionProblem.from_blocks(a, c)
        m = minimal_block_completion(prob)
        assert linalg.psd_check(m)
        d = m[r:, r:]
        g = random_psd(rng, n - r)
        g = g / max(np.abs(g).max(), 1e-12) * max(np.abs(d).max(), 1.0)
        smaller = m.copy()
        smaller[r:, r:] = d - 1e-3 * g
        assert not linalg.psd_check(smaller)


def test_monotone_family_increases_to_minimal_corner():
    rng = np.random.default_rng(34)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        a = random_psd(rng, r, rank=int(rng.integers(1, r + 1)))
        c = (rng.normal(size=(n - r, r)) + 1j * rng.normal(size=(n - r, r)))
        c = c @ linalg.range_projection(a)
        d = minimal_block_completion(
            BlockCompletionProblem.from_blocks(a, c))[r:, r:]
        scale = max(np.abs(d).max(), 1.0)
        prev = None
        for t in (1e-2, 1e-4, 1e-6):
            approx = c @ np.linalg.inv(a + t * np.eye(r)) @ c.conj().T
            approx = (approx + approx.conj().T) / 2.0  # rounding hygiene
            assert linalg.psd_check(d - approx + 1e-9 * scale * np.eye(n - r))
            if prev is not None:
                assert linalg.psd_check(approx - prev
                                        + 1e-9 * scale * np.eye(n - r))
            prev = approx
        assert np.abs(prev - d).max() < 1e-4 * scale


# ---------------------------------------------------------------------------
# partial CP maps


def test_partial_map_from_map_and_evaluate():
    phi = flip_twirl_map()
    beta = PartialCpMap.from_map(phi, E11)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(beta.evaluate(x), apply(phi, x) @ E11)
    assert np.allclose(beta.range_projection(), E11)


def test_partial_map_accepts_non_projection_r():
    # blocks hold beta(E_ij) = phi(E_ij) R for R exactly as given; only the
    # completion machinery normalizes R to its range projection
    phi = flip_twirl_map()
    r = np.diag([2.0, 0.0])
    beta = PartialCpMap.from_map(phi, r)
    assert np.allclose(beta.range_projection(), E11)
    x = np.eye(2, dtype=complex)
    assert np.allclose(beta.evaluate(x), apply(phi, x) @ r)
    alpha = minimal_cp_completion_choi(beta)
    assert np.allclose(apply(alpha, x) @ r, beta.evaluate(x))
    assert dominates(phi, alpha)


def test_partial_map_rejects_leaky_blocks():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # in M_2 E_22 side
    with pytest.raises(MalformedPartialMap):
        PartialCpMap(d_in=1, d_out=2, r=E11, blocks=((bad,),))


def test_partial_map_accepts_non_normal_r():
    # phi(X) R vanishes on ker R = ran(R*)^perp, which for a non-normal R
    # is not ran(R)^perp; both routes complete such data alike
    rng = np.random.default_rng(77)
    for _ in range(5):
        phi = random_cp_map(3, 4, 3, rng=rng)
        r = random_non_normal(rng, 4, 2)
        beta = PartialCpMap.from_map(phi, r)
        via_choi = minimal_cp_completion_choi(beta)
        via_stine = minimal_cp_completion_stinespring(beta, phi)
        assert maps_close(via_choi, via_stine)
        assert np.abs(via_choi.choi - via_stine.choi).max() <= 1e-14 * max(
            1.0, np.abs(phi.choi).max())
        data = phi.choi @ np.kron(np.eye(3), r)
        assert np.allclose(via_choi.choi @ np.kron(np.eye(3), r), data)
        assert dominates(phi, via_choi)


def test_partial_map_ideal_is_the_kernel_of_r():
    # R = E_12: ran R = ker R = span(e_1), so M_2 . R holds the matrices
    # with a zero first column.  E_12 = E_11 R lies there; E_11 does not,
    # though it vanishes on the orthocomplement of ran R
    r = np.array([[0.0, 1.0], [0.0, 0.0]])
    e12 = r.astype(complex)
    beta = PartialCpMap(d_in=1, d_out=2, r=r, blocks=((e12,),))
    alpha = minimal_cp_completion_choi(beta)
    assert np.allclose(apply(alpha, np.eye(1)) @ r, e12)
    with pytest.raises(MalformedPartialMap, match=r"block \(0,0\)"):
        PartialCpMap(d_in=1, d_out=2, r=r, blocks=((E11,),))


def test_partial_map_from_a_map_checks_the_shape_of_r():
    # a 3 x 3 R against a map into M_4 is refused before any product
    phi = random_cp_map(3, 4, 3)
    with pytest.raises(DimensionMismatch, match=r"R has shape \(3, 3\)"):
        PartialCpMap.from_map(phi, np.eye(3))
    with pytest.raises(DimensionMismatch, match=r"R has shape \(3, 3\)"):
        forced_equality_scan(phi, np.eye(3))


def test_partial_map_validates_blocks_as_before():
    eye, big = np.eye(2), np.eye(3)
    r = np.eye(2)
    with pytest.raises(DimensionMismatch, match=r"block \(1,1\) has shape \(3, 3\)"):
        PartialCpMap(d_in=2, d_out=2, r=r, blocks=((eye, eye), (eye, big)))
    with pytest.raises(DimensionMismatch, match=r"block \(0,0\) has shape \(3, 3\)"):
        PartialCpMap(d_in=2, d_out=2, r=r, blocks=((big, big), (big, big)))
    with pytest.raises(DimensionMismatch, match=r"block \(0,0\) has shape \(2, 3\)"):
        PartialCpMap(d_in=2, d_out=2, r=r, blocks=np.zeros((2, 2, 2, 3)))
    nan = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        PartialCpMap(d_in=2, d_out=2, r=r, blocks=((eye, eye), (nan, eye)))
    with pytest.raises(ValueError, match="finite"):  # ragged: first bad block
        PartialCpMap(d_in=2, d_out=2, r=r, blocks=((eye, eye), (nan, big)))
    with pytest.raises(ValueError, match="2-d"):
        PartialCpMap(d_in=1, d_out=2, r=r, blocks=((np.ones(2),),))
    # every block well formed, but more of them than d_in x d_in
    with pytest.raises(DimensionMismatch, match="1 x 1 array of 2 x 2 blocks"):
        PartialCpMap(d_in=1, d_out=2, r=r, blocks=((eye, eye), (eye, eye)))
    with pytest.raises(DimensionMismatch, match="1 x 1 array of 2 x 2 blocks"):
        PartialCpMap(d_in=1, d_out=2, r=r, blocks=((eye, big),))
    # the stacked column is a copy of the caller's blocks
    given = np.eye(2, dtype=complex).reshape(1, 1, 2, 2)
    beta = PartialCpMap(d_in=1, d_out=2, r=r, blocks=given)
    given[0, 0, 0, 0] = 5.0
    assert beta.blocks[0][0][0, 0] == 1.0


def test_cp_completable_examples():
    assert cp_completable(PartialCpMap.from_map(flip_twirl_map(), E11))
    rng = np.random.default_rng(3)
    phi = random_cp_map(3, 2, 2, rng=rng)
    r = random_projection(rng, 2, 1)
    assert cp_completable(PartialCpMap.from_map(phi, r))
    neg = PartialCpMap(d_in=1, d_out=1, r=np.array([[1.0]]),
                       blocks=((np.array([[-1.0 + 0j]]),),))
    assert not cp_completable(neg)
    with pytest.raises(NotCompletable):
        minimal_cp_completion_choi(neg)



def test_not_completable_carries_min_eigenvalue_and_kernel_leak():
    zero = np.zeros((2, 2), dtype=complex)
    # negative compression: A = diag(-1, 0) on ran P, and C = 0
    neg = PartialCpMap(d_in=2, d_out=2, r=E11,
                       blocks=((-E11, zero), (zero, zero)))
    with pytest.raises(NotCompletable) as caught:
        minimal_cp_completion_choi(neg)
    assert caught.value.compression_min_eigenvalue == pytest.approx(-1.0)
    assert caught.value.kernel_leak == pytest.approx(0.0, abs=1e-12)
    # kernel leak: A = diag(1, 0) >= 0, but C sends the kernel of A to 0.5 e2
    leak_block = np.array([[0.0, 0.0], [0.5, 0.0]], dtype=complex)
    leaky = PartialCpMap(d_in=2, d_out=2, r=E11,
                         blocks=((E11, zero), (zero, leak_block)))
    assert not cp_completable(leaky)
    with pytest.raises(NotCompletable) as caught:
        minimal_cp_completion_choi(leaky)
    assert caught.value.compression_min_eigenvalue == pytest.approx(
        0.0, abs=1e-12)
    assert caught.value.kernel_leak == pytest.approx(0.5)
    # a non-Hermitian compression admits no completion; the numbers are
    # those of its Hermitian part [[1, 1/2], [1/2, 1]]
    one, nil = np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)
    skew = PartialCpMap(d_in=2, d_out=1, r=one,
                        blocks=((one, one), (nil, one)))
    assert not cp_completable(skew)
    with pytest.raises(NotCompletable) as caught:
        minimal_cp_completion_choi(skew)
    assert caught.value.compression_min_eigenvalue == pytest.approx(0.5)
    assert caught.value.kernel_leak == 0.0
    # the block route raises the same data
    prob = BlockCompletionProblem.from_blocks(np.diag([1.0, 0.0]),
                                              np.array([[0.0, 2.0]]))
    with pytest.raises(NotCompletable) as caught:
        minimal_block_completion(prob)
    assert caught.value.kernel_leak == pytest.approx(2.0)

def test_not_completable_carries_the_exact_two_norm_leak():
    # a two-dimensional kernel whose leak has distinct singular values, so
    # the Frobenius norm used to pass the test first is not the 2-norm
    rng = np.random.default_rng(75)
    for _ in range(5):
        a = np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex)
        c = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        corner = BlockCompletionProblem.from_blocks(a, c)
        u = haar_unitary(rng, 7)
        problem = BlockCompletionProblem(
            p=u @ corner.p @ u.conj().T, a=u @ corner.a @ u.conj().T,
            c=u @ corner.c @ u.conj().T)
        want = np.linalg.norm(c[:, 2:], 2)
        assert want < 0.99 * np.linalg.norm(c[:, 2:])
        assert not block_completable(problem)
        with pytest.raises(NotCompletable) as caught:
            minimal_block_completion(problem)
        assert caught.value.kernel_leak == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("size, completable", [(0.9e-9, True),
                                                (1.1e-9, False)])
def test_leak_cutoff_is_on_the_two_norm(size, completable):
    # C null = size * I_2: Frobenius norm sqrt(2) size, above the cutoff
    # eps_rank = 1e-9 in both cases; the 2-norm, size, decides
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    c = np.zeros((2, 3), dtype=complex)
    c[:, 1:] = size * np.eye(2)
    problem = BlockCompletionProblem.from_blocks(a, c)
    assert block_completable(problem) is completable
    if not completable:
        with pytest.raises(NotCompletable) as caught:
            minimal_block_completion(problem)
        assert caught.value.kernel_leak == pytest.approx(size, rel=1e-12)


def test_a_small_leak_is_passed_without_an_svd(monkeypatch):
    rng = np.random.default_rng(76)
    phi = random_cp_map(4, 6, 3, rng=rng)
    beta = PartialCpMap.from_map(phi, random_psd(rng, 6, rank=3))
    calls = count_linalg_calls(monkeypatch, ["svd"])
    norms = record_norm_orders(monkeypatch)
    assert cp_completable(beta)
    # R's SVD was taken when beta was built; ker A (12 x 12, rank 3) leaks
    # nothing, as its Frobenius norm shows without a 2-norm
    assert calls == []
    assert norms == [None]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def _corner_data(a, c):
    """Partial data with ``R = E_11`` whose known blocks are ``A = a`` and
    ``C = c`` (``d_in = len(a)``, ``d_out = 2``)."""
    d1 = len(a)
    column = np.zeros((2 * d1, 2 * d1), dtype=complex)
    column[0::2, 0::2] = a
    column[1::2, 0::2] = c
    blocks = column.reshape(d1, 2, d1, 2).swapaxes(1, 2)
    return PartialCpMap(d_in=d1, d_out=2, r=E11, blocks=blocks)


def _leak_cases():
    """``(name, A, C)``: feasible, not PSD, leaking well past the cutoff,
    and 2-norm leaks at once and twice the cutoff times ``1 -+ 1e-6`` on a
    ``k``-dimensional ``ker A``: ``C`` there is ``size * [I_k; 0]``, whose
    Frobenius norm ``sqrt(k) size`` settles neither test by itself."""
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    c = np.zeros((3, 3), dtype=complex)
    c[:, 0] = [0.5, 0.25j, -0.125]
    null = np.eye(3, 2, dtype=complex)
    cases = [("feasible", a, c),
             ("negative", np.diag([1.0, -0.5, 0.0]).astype(complex), c),
             ("leak", a, c + np.hstack([np.zeros((3, 1)), 0.3 * null]))]
    cutoff = linalg.DEFAULT_TOL.eps_rank
    for k in (2, 8):
        a = np.diag([1.0] + [0.0] * k).astype(complex)
        null = np.eye(k + 1, k, dtype=complex)
        for times in (1.0, 2.0):
            for side in (-1e-6, 1e-6):
                size = times * cutoff * (1.0 + side)
                cases.append((f"k{k}-{times:g}x{side:+g}", a, np.hstack(
                    [np.zeros((k + 1, 1)), size * null])))
    return cases


@pytest.mark.parametrize("name, a, c", _leak_cases(),
                         ids=[case[0] for case in _leak_cases()])
def test_cp_completable_is_the_exact_decision(monkeypatch, name, a, c):
    tol = linalg.DEFAULT_TOL
    beta = _corner_data(a, c)
    split = _split_blocks(beta, tol)
    want = _decide(split.a, split.c, tol, exact=True)[0]
    assert want == (name == "feasible" or name.endswith("-1x-1e-06"))
    calls = count_linalg_calls(monkeypatch, ["svd"])
    norms = record_norm_orders(monkeypatch)
    assert cp_completable(beta) == want
    assert calls == []
    # a failed PSD test reads no leak; a leak whose lower bound already
    # fails takes no 2-norm
    if name == "negative":
        assert norms == []
    if name in ("feasible", "leak") or name.endswith("-2x+1e-06"):
        assert norms == [None]


def test_r_is_factorized_once_per_partial_map(monkeypatch):
    rng = np.random.default_rng(78)
    phi = random_cp_map(3, 4, 3, rng=rng)
    r = random_psd(rng, 4, rank=2)
    calls = count_linalg_calls(monkeypatch, ["svd"])
    beta = PartialCpMap.from_map(phi, r)
    assert cp_completable(beta)
    via_choi = minimal_cp_completion_choi(beta)
    via_stine = minimal_cp_completion_stinespring(beta, phi)
    assert maps_close(via_choi, via_stine)
    assert [call for call in calls if call[1] == (4, 4)] == [("svd", (4, 4))]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_completion_verdicts_are_scale_invariant(scale):
    # ker A is 38-dimensional; at x1e6 its eigenvalues come out of eigh
    # below -eps_psd by rounding alone, inside the relative slack of
    # linalg.psd_check that the PSD test on A now uses
    rng = np.random.default_rng(0)
    d1, d2 = 6, 8
    phi = random_cp_map(d1, d2, 5, rng=rng)
    r = random_psd(rng, d2, rank=4)
    verdicts = {}
    for kind in ("feasible", "negative", "leak"):
        choi = phi.choi
        if kind != "feasible":
            choi = _infeasible_choi(rng, choi, r, d1, d2, kind)
        column = scale * choi @ np.kron(np.eye(d1), r)
        blocks = column.reshape(d1, d2, d1, d2).swapaxes(1, 2)
        beta = PartialCpMap(d_in=d1, d_out=d2, r=r, blocks=blocks)
        verdicts[kind] = cp_completable(beta)
        if verdicts[kind]:
            alpha = minimal_cp_completion_choi(beta)
            got = alpha.choi @ np.kron(np.eye(d1), r)
            assert np.abs(got - column).max() <= 1e-9 * np.abs(column).max()
        else:
            with pytest.raises(NotCompletable):
                minimal_cp_completion_choi(beta)
    assert verdicts == {"feasible": True, "negative": False, "leak": False}


def _scaled_fixture(name, scale):
    doc = json.loads((DATA / name).read_text())
    beta = serialize.decode_partial_map(doc, np.diag([1.0, 0.0]))
    return PartialCpMap(d_in=beta.d_in, d_out=beta.d_out, r=beta.r,
                        blocks=scale * np.asarray(beta.blocks))


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-10, 1e-12])
def test_fixture_verdicts_hold_at_small_scale(scale):
    # both deciding numbers are read at the data's own scale: with a floor
    # max(1, .) the infeasible fixture read as completable below 1e-9
    infeasible = _scaled_fixture("infeasible_partial.json", scale)
    assert not cp_completable(infeasible)
    with pytest.raises(NotCompletable):
        minimal_cp_completion_choi(infeasible)
    feasible = _scaled_fixture("special_partial.json", scale)
    assert cp_completable(feasible)
    unscaled = minimal_cp_completion_choi(
        _scaled_fixture("special_partial.json", 1.0)).choi
    got = minimal_cp_completion_choi(feasible).choi
    assert np.abs(got - scale * unscaled).max() <= 1e-12 * scale


def test_minimal_completion_identity_full_information():
    beta = PartialCpMap.from_map(identity_map(2), np.eye(2))
    assert maps_close(minimal_cp_completion_choi(beta), identity_map(2))


def test_minimal_completion_of_zero_is_zero():
    beta = PartialCpMap.from_map(CpMap.zero(2, 2), E11)
    assert minimal_cp_completion_choi(beta).is_zero()


def test_minimal_completion_recovers_quasipure_map():
    # restriction of a quasi-pure map with phi(X0)R != 0 determines the map
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    beta = PartialCpMap.from_map(phi, E11)
    assert maps_close(minimal_cp_completion_choi(beta), phi)
    assert maps_close(minimal_cp_completion_stinespring(beta, phi), phi)


def test_minimal_completion_flip_twirl_at_e11():
    # the cyclic subspace of e1 is everything, so even this non-quasi-pure
    # restriction forces the full map back
    phi = flip_twirl_map()
    beta = PartialCpMap.from_map(phi, E11)
    a_choi = minimal_cp_completion_choi(beta)
    a_stine = minimal_cp_completion_stinespring(beta, phi)
    assert maps_close(a_choi, a_stine)
    assert maps_close(a_choi, phi)
    assert dominates(phi, a_choi)
    x = np.array([[0.5, 1j], [2.0, -1.0]])
    assert np.abs(apply(a_choi, x) @ E11 - apply(phi, x) @ E11).max() < 1e-9


def test_stinespring_route_requires_genuine_seed():
    beta = PartialCpMap.from_map(flip_twirl_map(), E11)
    with pytest.raises(SeedNotACompletion):
        minimal_cp_completion_stinespring(beta, identity_map(2))



def test_stinespring_route_rejects_seed_off_by_more_than_eps_eq():
    phi = flip_twirl_map()
    beta = PartialCpMap.from_map(phi, E11)
    # phi + t id changes beta(E_11) by t E_11 and stays CP; the data has
    # scale 1, so the seed completes it when t <= eps_eq (t = eps_eq itself
    # sits on the boundary, where rounding decides)
    for t in (1e-6, 1e-8):
        with pytest.raises(SeedNotACompletion):
            minimal_cp_completion_stinespring(beta, phi + t * identity_map(2))
    alpha = minimal_cp_completion_stinespring(beta,
                                              phi + 1e-10 * identity_map(2))
    assert np.abs(alpha.choi - phi.choi).max() < 1e-8
    # the caller's eps_eq is the rule
    loose = linalg.Tolerance(eps_eq=1e-7)
    alpha = minimal_cp_completion_stinespring(
        beta, phi + 1e-8 * identity_map(2), loose)
    assert np.abs(alpha.choi - phi.choi).max() < 1e-8

def test_routes_agree_on_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(10):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        phi = random_cp_map(d1, d2, k, rng=rng)
        rank = int(rng.integers(1, d2 + 1))
        r = random_projection(rng, d2, rank)
        beta = PartialCpMap.from_map(phi, r)
        a_choi = minimal_cp_completion_choi(beta)
        a_stine = minimal_cp_completion_stinespring(beta, phi)
        scale = max(np.abs(phi.choi).max(), 1.0)
        assert np.abs(a_choi.choi - a_stine.choi).max() < 1e-8 * scale
        assert dominates(phi, a_choi)
        # completion property on matrix units
        for i in range(d1):
            for j in range(d1):
                e = np.zeros((d1, d1), dtype=complex)
                e[i, j] = 1.0
                err = np.abs(apply(a_choi, e) @ beta.range_projection()
                             - beta.evaluate(e)).max()
                assert err < 1e-8 * scale


def test_perturbed_completions_dominate_the_minimal_one():
    rng = np.random.default_rng(60)
    phi = random_cp_map(2, 3, 2, rng=rng)
    r = random_projection(rng, 3, 1)
    beta = PartialCpMap.from_map(phi, r)
    alpha = minimal_cp_completion_choi(beta)
    p = beta.range_projection()
    off = np.eye(3) - p
    for _ in range(5):
        g = [(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))) @ off
             for _ in range(2)]
        bump = CpMap.from_kraus(g)
        psi = alpha + bump
        # psi is still a completion, and dominates alpha
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs(apply(psi, x) @ p - beta.evaluate(x)).max() < 1e-9 \
            * max(np.abs(phi.choi).max(), 1.0)
        assert dominates(psi, alpha)


# ---------------------------------------------------------------------------
# the compressed decision against the dense operator-form formulas

# fixed before comparing: numbers agree to this fraction of the data's size
REFERENCE_RTOL = 1e-8


def _reference_decide(p, a, c, tol):
    """``_decide`` as written on ``n x n`` operator-form blocks."""
    n = p.shape[0]
    eigs = np.linalg.eigvalsh(a)
    min_eig = float(eigs[0])
    null = linalg.kernel_basis(a + (np.eye(n) - p), tol)
    leak = float(np.linalg.norm(c @ null, ord=2)) if null.size else 0.0
    completable = (min_eig >= -tol.eps_psd * max(1.0, np.abs(eigs).max())
                   and leak <= tol.eps_rank * max(1.0, linalg.max_abs(c)))
    return completable, min_eig, leak


def _reference_split(beta, tol):
    """``(P, A, C, hermitian)`` from ``[beta(E_ij) R^+]`` and ``I (x) P_R``."""
    n = beta.d_in * beta.d_out
    r_pinv = np.linalg.pinv(beta.r, rcond=tol.eps_rank)
    p = np.kron(np.eye(beta.d_in), linalg.range_projection(beta.r, tol))
    column = np.block([[b @ r_pinv for b in row] for row in beta.blocks])
    a = p @ column
    c = (np.eye(n) - p) @ column
    hermitian = (linalg.max_abs(a - a.conj().T)
                 <= 1e-9 * max(1.0, linalg.max_abs(a)))
    return p, (a + a.conj().T) / 2.0, c, hermitian


def _reference_completion(a, c, tol):
    m = a + c + c.conj().T + c @ pseudo_inverse(a, tol) @ c.conj().T
    return (m + m.conj().T) / 2.0


def _compare_with_reference(p, a, c, hermitian, decide, complete, tol):
    """Run the library on one problem and check it against the reference."""
    ref_ok, ref_min, ref_leak = _reference_decide(p, a, c, tol)
    ref_ok = ref_ok and hermitian
    scale = max(1.0, linalg.max_abs(a), linalg.max_abs(c))
    assert decide() == ref_ok
    if ref_ok:
        want = _reference_completion(a, c, tol)
        got = complete()
        assert np.abs(got - want).max() <= REFERENCE_RTOL * max(
            1.0, np.abs(want).max())
        return True
    with pytest.raises(NotCompletable) as caught:
        complete()
    assert caught.value.compression_min_eigenvalue == pytest.approx(
        ref_min, abs=REFERENCE_RTOL * scale)
    assert caught.value.kernel_leak == pytest.approx(
        ref_leak, abs=REFERENCE_RTOL * scale)
    return False


def _comparison_operators(rng, d):
    """R invertible, of rank 1, zero, PSD but not a projection, and
    rank-deficient and not normal."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psd = random_psd(rng, d, rank=max(1, d - 1))
    return [g, random_projection(rng, d, 1), np.zeros((d, d)), psd,
            random_non_normal(rng, d, d - 1)]


def _infeasible_choi(rng, choi, r, d1, d2, kind):
    """A Hermitian matrix whose data ``X -> M(X) R`` has no CP completion."""
    n = d1 * d2
    p = np.kron(np.eye(d1), linalg.range_projection(r))
    u = p @ (rng.normal(size=n) + 1j * rng.normal(size=n))
    u = u / np.linalg.norm(u)
    if kind == "negative":
        return choi - 2.0 * np.abs(choi).max() * n * np.outer(u, u.conj())
    # kill u in the known compression and let C carry it elsewhere
    x = (np.eye(n) - p) @ (rng.normal(size=n) + 1j * rng.normal(size=n))
    q = np.eye(n) - np.outer(u, u.conj())
    return q @ choi @ q + np.outer(u, x.conj()) + np.outer(x, u.conj())


def test_partial_map_decisions_match_the_dense_reference():
    rng = np.random.default_rng(71)
    tol = linalg.DEFAULT_TOL
    seen = {True: 0, False: 0}
    for trial in range(12):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        phi = random_cp_map(d1, d2, int(rng.integers(1, 4)), rng=rng)
        for r in _comparison_operators(rng, d2):
            rank = linalg.numerical_rank(r)
            kinds = ["feasible"] + ["negative", "skew"] * (rank > 0)
            if 0 < rank < d2:
                kinds.append("leak")
            for kind in kinds:
                choi = phi.choi
                if kind in ("negative", "leak"):
                    choi = _infeasible_choi(rng, choi, r, d1, d2, kind)
                column = choi @ np.kron(np.eye(d1), r)
                if kind == "skew":
                    # an anti-Hermitian addition: the compression's Hermitian
                    # part stays PSD, the data still admits no completion
                    h = random_psd(rng, d1 * d2) - random_psd(rng, d1 * d2)
                    column = column + 1j * h @ np.kron(np.eye(d1), r)
                blocks = column.reshape(d1, d2, d1, d2).swapaxes(1, 2)
                beta = PartialCpMap(d_in=d1, d_out=d2, r=r, blocks=blocks)
                p, a, c, hermitian = _reference_split(beta, tol)
                seen[_compare_with_reference(
                    p, a, c, hermitian,
                    lambda: cp_completable(beta, tol),
                    lambda: minimal_cp_completion_choi(beta, tol).choi,
                    tol)] += 1
    assert seen[True] >= 40 and seen[False] >= 40


def test_block_decisions_match_the_dense_reference_in_a_rotated_basis():
    rng = np.random.default_rng(72)
    tol = linalg.DEFAULT_TOL
    seen = {True: 0, False: 0}
    for _ in range(30):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(0, 3))
        a = random_psd(rng, r, rank=int(rng.integers(1, r + 1)))
        c = rng.normal(size=(s, r)) + 1j * rng.normal(size=(s, r))
        if rng.uniform() < 0.5:
            c = c @ linalg.range_projection(a)
        if rng.uniform() < 0.25:
            a = a - 2.0 * np.abs(a).max() * np.eye(r) * rng.uniform()
        corner = BlockCompletionProblem.from_blocks(a, c)
        u = haar_unitary(rng, r + s)
        problem = BlockCompletionProblem(
            p=u @ corner.p @ u.conj().T, a=u @ corner.a @ u.conj().T,
            c=u @ corner.c @ u.conj().T)
        seen[_compare_with_reference(
            problem.p, problem.a, problem.c, True,
            lambda: block_completable(problem, tol),
            lambda: minimal_block_completion(problem, tol),
            tol)] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def test_choi_route_makes_one_compressed_eigensolve(monkeypatch):
    rng = np.random.default_rng(73)
    phi = random_cp_map(8, 12, 6, rng=rng)
    r = random_psd(rng, 12, rank=6)
    beta = PartialCpMap.from_map(phi, r)
    calls = count_linalg_calls(monkeypatch, ["eigh", "eigvalsh", "svd"])
    minimal_cp_completion_choi(beta)
    assert [call for call in calls if call[0] != "svd"] == [("eigh", (48, 48))]
    assert all(shape[0] < 96 for _, shape in calls)


def test_stinespring_route_checks_a_choi_seed_once(monkeypatch):
    rng = np.random.default_rng(74)
    phi = random_cp_map(3, 4, 3, rng=rng)
    r = random_projection(rng, 4, 2)
    beta = PartialCpMap.from_map(phi, r)
    seed = minimal_cp_completion_choi(beta)  # given by its Choi matrix
    calls = count_linalg_calls(monkeypatch, ["eigh", "eigvalsh"])
    alpha = minimal_cp_completion_stinespring(beta, seed)
    # the eigendecomposition that extracts the seed's factors also decides
    # that it is CP
    assert calls == [("eigh", (12, 12))]
    assert maps_close(alpha, seed)
    # a seed that matches the data but is not CP is still refused: w lies
    # in ran(I (x) (1 - P_R)), which the data never sees
    w = np.kron(np.eye(3), np.eye(4) - beta.range_projection()) @ (
        rng.normal(size=12) + 1j * rng.normal(size=12))
    bad = CpMap.from_choi(seed.choi - np.outer(w, w.conj()), 3, 4)
    with pytest.raises(SeedNotACompletion):
        minimal_cp_completion_stinespring(beta, bad)


@pytest.mark.parametrize("shape", [(1, 3), (3, 4), (8, 12)])
@pytest.mark.parametrize("kind", ["square", "rectangular", "adjoint"])
def test_block_product_is_the_kronecker_product(kind, shape):
    """``_times_blocks(column, m, d_in)`` is ``column (I_{d_in} (x) m)``
    for a square ``m``, a ``d x r`` one with ``r < d`` (as in the block
    split) and ``m = u*`` (as in its lift)."""
    from cpmaps.completion import _times_blocks
    rng = np.random.default_rng(sum(shape))
    d_in, d = shape
    n = d_in * d
    column = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    cols = d - 1 if kind == "rectangular" else d
    m = rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))
    if kind == "adjoint":
        m = haar_unitary(rng, d).conj().T
    got = _times_blocks(column, m, d_in)
    want = column @ np.kron(np.eye(d_in), m)
    assert got.shape == want.shape == (n, d_in * cols)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
