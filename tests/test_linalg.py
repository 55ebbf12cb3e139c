"""Tests for the tolerance-aware linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpmaps import Tolerance, NonHermitianInput, NotPSD
from cpmaps import linalg

from conftest import haar_unitary, random_psd, random_projection
from oracles import pseudo_inverse


def test_tolerance_defaults_and_validation():
    tol = Tolerance()
    assert tol.eps_rank == 1e-9
    assert tol.eps_psd == 1e-10
    assert tol.eps_eq == 1e-9
    Tolerance(1e-6, 1e-7, 1e-6)  # fine
    with pytest.raises(ValueError):
        Tolerance(eps_rank=0.0)
    with pytest.raises(ValueError):
        Tolerance(eps_psd=1e-2)
    with pytest.raises(ValueError):
        Tolerance(eps_eq=-1e-9)


def test_as_matrix_accepts_lists_and_rejects_ragged():
    m = linalg.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        linalg.as_matrix([[1, 2], [3]])


def test_require_hermitian_symmetrizes_and_rejects():
    h = linalg.require_hermitian([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    assert np.allclose(h, h.conj().T)
    with pytest.raises(NonHermitianInput):
        linalg.require_hermitian([[0.0, 1.0], [0.0, 0.0]])
    # tiny asymmetry within the residual budget is repaired, not rejected
    almost = np.array([[1.0, 1e-14], [0.0, 1.0]])
    h = linalg.require_hermitian(almost)
    assert np.allclose(h, h.conj().T)


@pytest.mark.parametrize("d_in, d_out", [(1, 1), (2, 3), (8, 12)])
def test_symmetrizations_are_bit_for_bit_the_average(d_in, d_out):
    """``_hermitian_part`` halves ``g + g*`` in a fresh buffer: the bytes
    are those of ``(g + g*) / 2``, and the input is left as it was; so do
    ``require_hermitian`` and the Gram Choi matrix of Kraus factors, which
    call it."""
    from cpmaps.cp_map import _gram_choi
    rng = np.random.default_rng(d_in * d_out)
    n = d_in * d_out
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    near = g + g.conj().T + 1e-14 * g  # within the residual budget
    for m in (g, near):
        before = m.copy()
        got = linalg._hermitian_part(m)
        assert got.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
        assert got is not m and m.tobytes() == before.tobytes()
    before = near.copy()
    got = linalg.require_hermitian(near)
    assert got.tobytes() == ((near + near.conj().T) / 2.0).tobytes()
    assert got is not near and near.tobytes() == before.tobytes()
    factors = [rng.normal(size=(d_in, d_out)) + 1j * rng.normal(
        size=(d_in, d_out)) for _ in range(3)]
    copies = [f.copy() for f in factors]
    rows = np.stack(factors).reshape(3, n)
    gram = rows.conj().T @ rows
    got = _gram_choi(factors, d_in, d_out)
    assert got.tobytes() == ((gram + gram.conj().T) / 2.0).tobytes()
    assert all(f.tobytes() == c.tobytes() for f, c in zip(factors, copies))


def test_eigh_frozen_example():
    # [[2, 1-i], [1+i, 3]] has eigenvalues 1 and 4 (trace 5, det 4)
    vals, vecs = linalg.eigh([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    assert np.allclose(vals, [1.0, 4.0])
    m = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, m)


def test_numerical_rank_relative_threshold():
    assert linalg.numerical_rank([[1.0, 0.0], [0.0, 1e-12]]) == 1
    assert linalg.numerical_rank([[1.0, 0.0], [0.0, 1e-6]]) == 2
    assert linalg.numerical_rank(np.zeros((3, 2))) == 0
    # the threshold is relative: scaling the matrix does not change the rank
    assert linalg.numerical_rank([[1e8, 0.0], [0.0, 1e-4]]) == 1


def test_kept_empty_and_zero_input_keep_nothing():
    tol = Tolerance()
    assert linalg.kept([], tol).shape == (0,)
    assert linalg.kept(np.zeros((2, 0)), tol).shape == (2, 0)
    assert not linalg.kept(np.zeros(3), tol).any()
    assert not linalg.kept(np.zeros(3), tol, 0.0).any()


def test_kept_judges_a_batch_row_by_row():
    tol = Tolerance()
    # against the first row's top, 1.0, the whole second row would drop
    values = np.array([[1.0, 1e-6, 1e-12], [1e-10, 1e-16, 1e-20]])
    assert linalg.kept(values, tol).tolist() == [[True, True, False],
                                                 [True, True, False]]


def test_kept_drops_a_value_negligible_next_to_a_named_scale():
    tol = Tolerance()
    assert linalg.kept([1e-12], tol).tolist() == [True]
    assert linalg.kept([1e-12], tol, 1.0).tolist() == [False]
    assert linalg.kept([1e-12, 1e-3], tol, 1.0).tolist() == [False, True]


def test_rank_helpers_agree_at_the_cutoff():
    # eigenvalues 0.9x and 1.1x the cutoff eps_rank * 1 on either side
    tol = Tolerance()
    u = haar_unitary(np.random.default_rng(3), 4)
    w = np.array([1.0, 1.1e-9, 0.9e-9, 0.0])
    m = (u * w) @ u.conj().T
    m = (m + m.conj().T) / 2
    inside = u[:, :2] @ u[:, :2].conj().T
    assert linalg.numerical_rank(m, tol) == 2
    assert linalg.ranked_svd(m, tol)[3] == 2
    null = linalg.kernel_basis(m, tol)
    assert null.shape == (4, 2)
    assert np.allclose(null @ null.conj().T, np.eye(4) - inside, atol=1e-6)
    assert np.allclose(linalg.range_projection(m, tol), inside, atol=1e-6)
    want = (u[:, :2] / w[:2]) @ u[:, :2].conj().T
    got = pseudo_inverse(m, tol)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_kernel_basis_frozen_example():
    null = linalg.kernel_basis([[1.0, 1.0], [1.0, 1.0]])
    assert null.shape == (2, 1)
    v = null[:, 0]
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    # defined up to phase
    assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12
    full = linalg.kernel_basis(np.eye(3))
    assert full.shape == (3, 0)


def test_pseudo_inverse_frozen_example():
    pinv = pseudo_inverse(np.diag([2.0, 0.0]))
    assert np.allclose(pinv, np.diag([0.5, 0.0]))


def test_range_projection_frozen_example():
    p = linalg.range_projection([[1.0], [1.0]])
    assert np.allclose(p, 0.5 * np.ones((2, 2)))


def test_psd_check_and_sqrt():
    assert linalg.psd_check(np.diag([1.0, 0.0]))
    assert linalg.psd_check(np.diag([1.0, -1e-12]))  # within slack
    assert not linalg.psd_check(np.diag([1.0, -1e-3]))
    with pytest.raises(NotPSD):
        linalg.psd_sqrt(np.diag([1.0, -1.0]))
    s = linalg.psd_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=12345))
def test_pseudo_inverse_penrose_identities(n, seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, n, rank=rng.integers(0, n + 1))
    pinv = pseudo_inverse(m)
    scale = max(np.abs(m).max(), 1.0)
    assert np.allclose(m @ pinv @ m, m, atol=1e-10 * scale)
    assert np.allclose(pinv @ m @ pinv, pinv, atol=1e-10)
    assert np.allclose((m @ pinv).conj().T, m @ pinv, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12345))
def test_range_projection_is_projection_onto_range(n, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, n + 1))
    m = random_psd(rng, n, rank=rank)
    p = linalg.range_projection(m)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ m, m, atol=1e-9 * max(np.abs(m).max(), 1.0))
    assert linalg.numerical_rank(p) == rank


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12345))
def test_kernel_and_range_are_complementary(n, seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, n, rank=rng.integers(0, n + 1))
    null = linalg.kernel_basis(m)
    p = linalg.range_projection(m)
    assert null.shape[1] == n - linalg.numerical_rank(m)
    if null.shape[1]:
        assert np.abs(p @ null).max() < 1e-9
        assert np.allclose(null.conj().T @ null, np.eye(null.shape[1]), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12345))
def test_psd_sqrt_squares_back(n, seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, n)
    s = linalg.psd_sqrt(m)
    assert np.allclose(s @ s, m, atol=1e-9 * max(np.abs(m).max(), 1.0))
    assert linalg.psd_check(s)


def test_projection_helpers_match():
    rng = np.random.default_rng(7)
    p = random_projection(rng, 5, 2)
    assert linalg.numerical_rank(p) == 2
    assert np.allclose(linalg.range_projection(p), p, atol=1e-10)
    assert np.allclose(pseudo_inverse(p), p, atol=1e-10)


# the equality and Hermitian rules, read cheapest-first, are the written
# inequalities at every scale, at their cutoffs and one ulp to each side

EXPONENTS = st.floats(min_value=-14.0, max_value=14.0)
TOLERANCES = st.sampled_from([linalg.DEFAULT_TOL, Tolerance(eps_eq=3e-7),
                              Tolerance(eps_eq=1.7e-12)])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _scaled(rng, size, n=3):
    """A complex ``n x n`` matrix whose largest modulus is exactly ``size``."""
    m = size * (rng.uniform(-0.5, 0.5, (n, n))
                + 1j * rng.uniform(-0.5, 0.5, (n, n)))
    m[rng.integers(n), rng.integers(n)] = size
    return m


def _written_negligible(x, tol, *operands):
    scale = max([1.0] + [np.abs(a).max() for a in operands])
    return np.abs(x).max() <= tol.eps_eq * scale


@settings(max_examples=200, deadline=None)
@given(EXPONENTS, st.lists(EXPONENTS, max_size=3), TOLERANCES, SEEDS)
def test_negligible_is_the_written_rule(x_exp, op_exps, tol, seed):
    rng = np.random.default_rng(seed)
    operands = [_scaled(rng, 10.0 ** e) for e in op_exps]
    x = _scaled(rng, 10.0 ** x_exp)
    assert linalg.negligible(x, tol, *operands) == _written_negligible(
        x, tol, *operands)


@settings(max_examples=200, deadline=None)
@given(st.lists(EXPONENTS, max_size=3), st.sampled_from([-1, 0, 1]),
       TOLERANCES, SEEDS)
def test_negligible_at_its_cutoff(op_exps, ulps, tol, seed):
    rng = np.random.default_rng(seed)
    operands = [_scaled(rng, 10.0 ** e) for e in op_exps]
    cutoff = tol.eps_eq * max([1.0] + [10.0 ** e for e in op_exps])
    size = cutoff if ulps == 0 else np.nextafter(cutoff, np.inf * ulps)
    x = _scaled(rng, size)
    got = linalg.negligible(x, tol, *operands)
    assert got == _written_negligible(x, tol, *operands) == (ulps <= 0)


def _asymmetric(rng, size, gap):
    """A real-diagonal matrix of largest modulus ``size`` that is Hermitian
    but for one entry, so that ``max |m - m*| == gap`` exactly."""
    m = _scaled(rng, size, 4)
    m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(np.diag(m).real)
    m[0, 0] = size
    m[2, 3], m[3, 2] = gap, 0.0
    return m


def _written_hermitian(m):
    gap = np.abs(m - m.conj().T).max()
    return not gap > linalg.HERMITIAN_RESIDUAL * max(1.0, np.abs(m).max())


@settings(max_examples=200, deadline=None)
@given(EXPONENTS, st.floats(min_value=-3.0, max_value=3.0), SEEDS)
def test_require_hermitian_is_the_written_rule(exp, gap_exp, seed):
    rng = np.random.default_rng(seed)
    size = 10.0 ** exp
    gap = linalg.HERMITIAN_RESIDUAL * max(1.0, size) * 10.0 ** gap_exp
    m = _asymmetric(rng, size, gap)
    try:
        linalg.require_hermitian(m)
        accepted = True
    except NonHermitianInput:
        accepted = False
    assert accepted == _written_hermitian(m)


@settings(max_examples=200, deadline=None)
@given(EXPONENTS, st.sampled_from([-1, 0, 1]), SEEDS)
def test_require_hermitian_at_its_cutoff(exp, ulps, seed):
    rng = np.random.default_rng(seed)
    size = 10.0 ** exp
    cutoff = linalg.HERMITIAN_RESIDUAL * max(1.0, size)
    gap = cutoff if ulps == 0 else np.nextafter(cutoff, np.inf * ulps)
    m = _asymmetric(rng, size, gap)
    assert _written_hermitian(m) == (ulps <= 0)
    if ulps <= 0:
        linalg.require_hermitian(m)
    else:
        with pytest.raises(NonHermitianInput):
            linalg.require_hermitian(m)
