"""Deciding quasi-purity of completely positive maps.

A CP map is *quasi-pure* when every nonzero vector in the range of its
minimal Stinespring ``V`` is cyclic for the dilated representation.  In
matrix-algebra terms, with minimal Kraus factors ``K_1..K_k``:

    the map is quasi-pure  iff  whenever some ``K_i h0 != 0`` the vectors
    ``K_1 h0, ..., K_k h0`` are linearly independent.

A *witness* is an ``h0`` with ``0 < rank F(h0) < k`` for
``F(h) = [K_1 h | ... | K_k h]``: a nonzero ``a (x) h0`` sent to zero by
``T = [K_1 | ... | K_k]``, as ``F(h) a = P(a) h = sum_j a_j K_j h``.

:func:`is_quasipure` first takes the rank of ``T`` on the family the map
holds (its stored Kraus factors, else its minimal ones) when ``k >= 2``
and ``k d_out <= d_in``: ``rank T == k d_out`` with ``sigma_min(T)^2 >
eps_rank sigma_max(T)^2`` proves ``QuasiPure`` from that one SVD (step
1).  Otherwise it settles ``k == 1`` (pure), reduces modulo the common
kernel (``K_j B`` for an orthonormal basis ``B`` of its complement,
``m`` columns) and checks two necessary conditions, each violation
yielding a witness.  One is ``k <= d_in``.  The other is that the factor
kernels coincide: after the reduction they meet in ``0``, so they
coincide iff every ``K_j B`` is injective, which one batched SVD of the
``(k, d_in, m)`` stack decides.  A short ``K_j B`` sends its last right
singular vector ``x`` to zero while some other factor does not, so
``B x`` is the witness once it passes the rank window; a factor short
only by its own scale, with ``F(B x)`` still of rank ``k``, is left to
the steps below.  Then:

1. ``rank T == k m`` proves ``QuasiPure``: no nonzero tensor is sent to
   zero.  The rank counts singular values above ``eps_rank`` times the
   largest, far above the SVD's backward error (a small multiple of the
   unit roundoff times the largest), so by Weyl's inequality the exact
   ``sigma_min(T)`` is positive.  For ``m == 1``, ``T = F(h)`` for the
   only direction, so this step decides.  Taken before the reduction, it
   gives the answer the reduction would reach: see :func:`is_quasipure`.
2. In the smaller mode ``n = min(k, m)`` the question is whether
   ``M(c) = sum_i c_i M_i`` is injective for all ``c != 0``, with
   ``M_j = K_j`` (``M = P``) when ``k <= m`` and
   ``M_i = G_i = [K_1 e_i | ... | K_k e_i]`` (``M = F``) otherwise; a
   dependency vector ``a`` gives the witness ``h = ker P(a)``.  For
   ``n == 2`` the pencil ``z M_1 + M_2`` supplies the candidates ``c = (z,
   1)`` and, over ``Z[i]``, a proof.  It needs ``M_1`` injective: on the
   ``K`` side the short-factor test made it so; on the ``G`` side (``m ==
   2 < k``) ``c = (1, 0)``, ``h = B e_1``, is tested first, and once it
   fails ``G_1 = F(B e_1)`` is injective (the ``G_i`` have no common
   kernel, as ``sum_j a_j K_j B = 0`` forces ``a = 0``).  With ``Q M_1 =
   [I; 0]`` and ``Q M_2 = [-N; C]``, ``(z M_1 + M_2) v = 0`` reads ``N v =
   z v`` and ``C v = 0``; an ``N``-invariant subspace of ``ker C`` holds
   an eigenvector, and the largest is ``ker [C; CN; CN^2; ...]``, so the
   pencil is injective iff that has full column rank (Hautus/Kalman
   observability).  Gaussian-rational input is decided exactly, and each
   exact singular point must give a witness; otherwise the points are the
   eigenvalues of ``-M_1^+ M_2`` and prove nothing.
3. Otherwise, and behind a floating-point pencil, the first candidate is
   the chart centre ``e_i`` of ``CP^{n-1}`` with the lowest
   ``sigma_p(M_i)`` (``p`` columns): ``n`` cells, against the ``N`` of
   ``S``.  The bidegree-``(1, k)`` Sylvester-type matrix ``S`` of ``T (a
   (x) h) = 0`` (Sturmfels & Zelevinsky, J. Algebra 163, 1994) has a row
   per row ``r`` of ``T`` and monomial ``h^g``, ``|g| = k-1``, a column
   per monomial ``a_j h^b``, ``|b| = k`` (``N = k C(m+k-1, k)``), and
   ``T[r, (j, l)]`` at row ``(r, g)``, column ``(j, g + e_l)``.  A
   witness's zero ``(a, h)`` gives the kernel vector ``(a_j h^b) != 0``,
   so full column rank proves ``QuasiPure`` by step 1's Weyl margin: ``S``
   copies the entries of ``T``.  Otherwise each kernel vector, in SVD
   order, is read (``h_l`` from ``a_j h_l0^(k-1) h_l`` at its largest
   ``a_j h_l0^k``) as a candidate; none passing, or a budget below ``n +
   N``, gives ``Inconclusive``.

Every candidate becomes a witness in one place, :func:`_candidate_verdict`:
its direction, :func:`_refine_candidate`, ``B h`` and the rank window.

Tags: ``Pure``, ``NecessaryConditionViolated``, ``ExactPencil`` (steps 1
and 2), ``SylvesterMatrix`` (step 3); each ``QuasiPure`` is proof-grade,
each witness re-verified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .cp_map import CpMap, _canonical_phase, is_cp, minimal_kraus
from .errors import (
    InputNotReduced,
    NotCP,
    ZeroMap,
)
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "QUASI_PURE",
    "NOT_QUASI_PURE",
    "INCONCLUSIVE",
    "METHOD_PURE",
    "METHOD_EXACT_PENCIL",
    "METHOD_NECESSARY",
    "METHOD_SYLVESTER",
    "QuasiPurityVerdict",
    "is_quasipure",
]

QUASI_PURE = "QuasiPure"
NOT_QUASI_PURE = "NotQuasiPure"
INCONCLUSIVE = "Inconclusive"

METHOD_PURE = "Pure"
METHOD_EXACT_PENCIL = "ExactPencil"
METHOD_NECESSARY = "NecessaryConditionViolated"
METHOD_SYLVESTER = "SylvesterMatrix"

_PROOF_METHODS = frozenset({METHOD_PURE, METHOD_EXACT_PENCIL,
                            METHOD_SYLVESTER})


@dataclass(frozen=True, eq=False)
class QuasiPurityVerdict:
    """Outcome of a quasi-purity decision.

    ``witness`` is present exactly when ``status == NotQuasiPure`` and is a
    unit vector with ``0 < rank F(witness) < k``.  ``samples_used`` counts
    the cells step 3 spent: its ``n`` chart centres, then the ``N`` columns
    of the Sylvester-type matrix once it is built.
    """

    status: str
    method: str
    witness: Optional[np.ndarray] = None
    samples_used: int = 0

    @property
    def is_proof(self) -> bool:
        """Witnesses and positive verdicts backed by a proof."""
        if self.status == NOT_QUASI_PURE:
            return True
        return self.status == QUASI_PURE and self.method in _PROOF_METHODS


# ---------------------------------------------------------------------------
# witness handling


def _normalize(vec: np.ndarray) -> np.ndarray:
    """The unit vector along ``vec``, its largest entry real positive."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    return vec if norm == 0 else _canonical_phase(vec / norm)


def _is_witness(factors, h0, tol: Tolerance) -> bool:
    """Whether ``0 < rank F(h0) < k``."""
    r = linalg.numerical_rank(np.column_stack([k @ h0 for k in factors]), tol)
    return 0 < r < len(factors)


def _witness_verdict(factors, h0, method: str, tol: Tolerance,
                     samples: int = 0) -> Optional[QuasiPurityVerdict]:
    """A NotQuasiPure verdict on ``h0``, normalized, if it is a witness."""
    h0 = _normalize(h0)
    if not _is_witness(factors, h0, tol):
        return None
    return QuasiPurityVerdict(status=NOT_QUASI_PURE, method=method,
                              witness=h0, samples_used=samples)


def _not_quasipure(factors, h0, method: str, tol: Tolerance):
    """Package a NotQuasiPure verdict, re-verifying the witness first."""
    verdict = _witness_verdict(factors, h0, method, tol)
    if verdict is None:
        raise InputNotReduced(
            "internal error: candidate witness failed the rank window"
        )
    return verdict


# ---------------------------------------------------------------------------
# common-kernel reduction


def _common_kernel_complement(factors, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis (columns) of the orthocomplement of cap_j ker K_j.

    The leading right singular vectors of the stacked factors span it.  A
    trivial common kernel gives ``I`` itself, so the reduced factors are
    the given ones entry for entry.
    """
    _, _, vh, r = linalg.ranked_svd(np.vstack(factors), tol)
    if r == vh.shape[1]:
        return np.eye(r, dtype=complex)
    return vh[:r].conj().T


def _short_factor_witness(factors, stack, basis,
                          tol: Tolerance) -> Optional[np.ndarray]:
    """A witness ``B x`` with ``K_j B x = 0`` for some ``j``, or None.

    ``stack`` holds the reduced factors ``K_j B`` (``k x d x m``).  One
    batched SVD gives every factor's rank by the rank rule
    :func:`linalg.kept`, row by row; a factor is short when its rank is
    below ``m`` (always so when ``d < m``).  Short factors are tried
    shortest first, by the ratio of their smallest singular value to their
    largest, and ``B x`` for the last right singular vector ``x`` is kept
    only when it passes the rank window: a factor short by its own scale
    can still leave ``F(B x)`` of rank ``k`` (its image is small, not
    zero, next to the others), and then the steps after this test
    decide.
    """
    _, d, m = stack.shape
    _, s, vh = np.linalg.svd(stack, full_matrices=d < m)
    short = np.flatnonzero(np.count_nonzero(linalg.kept(s, tol), axis=1) < m)
    ratio = s[short, -1] / s[short, 0] if d >= m else np.zeros(short.size)
    for j in short[np.argsort(ratio, kind="stable")]:
        h = basis @ vh[j, -1].conj()
        if _is_witness(factors, h, tol):
            return h
    return None


# ---------------------------------------------------------------------------
# the k = 2 pencil


def _rationalize(x: float) -> Optional[Fraction]:
    """Recognize a float as a small rational (exact round-trip), else None.

    A non-integer is read only below ``2^12`` in absolute value: above it
    doubles are spaced wider than the rationals ``p/q``, ``q <= 10^6``
    (about ``1e-12`` apart), and would round-trip through one by chance.
    """
    if not math.isfinite(x) or (abs(x) >= 2 ** 12 and not x.is_integer()):
        return None
    fr = Fraction(x).limit_denominator(10 ** 6)
    return fr if float(fr) == x else None


def _gaussian_integer_pencil(mats):
    """The matrices times one common denominator, or None.

    Each comes back as rows of Gaussian integers ``(re, im)``; None when
    some entry is not a Gaussian rational.  A common scale leaves the
    singular points of the pencil where they were.  Integer-valued input,
    the common case, is read by one vectorised test and ``int``, with no
    :class:`Fraction`; any other entry sends the whole input through
    :func:`_rationalize` and the least common denominator.
    """
    mats = np.array(mats, dtype=complex)
    parts = mats.view(float).ravel()  # re, im, re, im, ...
    if np.isfinite(parts).all() and (parts == np.round(parts)).all():
        values = [int(x) for x in parts.tolist()]
    else:
        fractions = []
        for x in parts.tolist():
            fr = _rationalize(x)
            if fr is None:
                return None
            fractions.append(fr)
        common = math.lcm(*(x.denominator for x in fractions))
        values = [x.numerator * (common // x.denominator) for x in fractions]
    entries = list(zip(values[0::2], values[1::2]))
    n, d, m = mats.shape
    return [[entries[(i * d + r) * m:(i * d + r + 1) * m] for r in range(d)]
            for i in range(n)]


def _mul(a, b):
    """The product of two Gaussian integers ``(re, im)``."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _matmul(a, b):
    """The product of two matrices of Gaussian integers (lists of rows)."""
    cols = list(zip(*b))
    return [[(sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)),
              sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)))
             for col in cols] for row in a]


def _primitive(vec):
    """``vec`` divided by the gcd of its integers."""
    g = math.gcd(*(x for z in vec for x in z))
    return vec if g <= 1 else [(re // g, im // g) for re, im in vec]


def _echelon(rows, width: int):
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss).

    Eliminates on the first ``width`` columns of ``rows`` (Gaussian
    integers).  Each step cross-multiplies every other row with the pivot
    row and divides it exactly by the previous pivot, so every entry stays
    a minor of the input.  Returns ``(pivots, d, rows)``: the pivot columns
    in order, the last pivot ``d``, and rows spanning the same space, the
    first ``len(pivots)`` of which read ``d`` at their own pivot and zero
    at the others, the rest zero on the first ``width`` columns.
    """
    rows = [list(row) for row in rows]
    pivots, prev = [], (1, 0)
    for col in range(width):
        top = len(pivots)
        src = next((i for i in range(top, len(rows))
                    if rows[i][col] != (0, 0)), None)
        if src is None:
            continue
        rows[top], rows[src] = rows[src], rows[top]
        (pr, pi), pivot_row = rows[top][col], rows[top]
        # the exact division by prev: times conj(prev), over |prev|^2
        (qr, qi), norm = prev, prev[0] ** 2 + prev[1] ** 2
        for i, row in enumerate(rows):
            if i == top:
                continue
            er, ei = row[col]
            new = []
            for (xr, xi), (yr, yi) in zip(row, pivot_row):
                ar = pr * xr - pi * xi - er * yr + ei * yi
                ai = pr * xi + pi * xr - er * yi - ei * yr
                new.append(((ar * qr + ai * qi) // norm,
                            (ai * qr - ar * qi) // norm))
            rows[i] = new
        pivots.append(col)
        prev = (pr, pi)
    return pivots, prev, rows


def _reduce_rows(a, b, r: int):
    """Row-reduce ``[a | b]`` over Z[i] for ``a`` of full column rank ``r``.

    Some invertible ``Q`` gives ``Q a = [d I_r; 0]`` for a nonzero Gaussian
    integer ``d``; returns ``d`` and the two blocks of ``Q b`` (its first
    ``r`` rows, then the rest).
    """
    pivots, d, rows = _echelon([x + y for x, y in zip(a, b)], r)
    if pivots != list(range(r)):
        raise InputNotReduced("internal error: row reduction lost a pivot")
    return d, [row[r:] for row in rows[:r]], [row[r:] for row in rows[r:]]


def _kernel(rows, m: int):
    """A basis of the kernel of ``rows`` (``m`` columns), over Z[i]."""
    pivots, d, rows = _echelon(rows, m)
    basis = []
    for free in (col for col in range(m) if col not in pivots):
        vec = [(0, 0)] * m
        vec[free] = d
        for row, col in zip(rows, pivots):
            vec[col] = (-row[free][0], -row[free][1])
        basis.append(vec)
    return basis


def _charpoly(s):
    """``det(x I - S)`` over Z[i], highest degree first (Faddeev-LeVerrier)."""
    r = len(s)
    coeffs = [(1, 0)]
    acc = [[(int(i == j), 0) for j in range(r)] for i in range(r)]
    for k in range(1, r + 1):
        acc = _matmul(s, acc)
        # the coefficients are Gaussian integers: k divides the trace
        c = (-sum(acc[i][i][0] for i in range(r)) // k,
             -sum(acc[i][i][1] for i in range(r)) // k)
        coeffs.append(c)
        for i in range(r):
            acc[i][i] = (acc[i][i][0] + c[0], acc[i][i][1] + c[1])
    return coeffs


def _pseudo_divide(a, b):
    """``(q, rem)`` with ``lc(b)^e a = q b + rem``, ``e = deg a - deg b + 1``.

    Polynomials over Z[i], highest degree first; ``rem`` has ``deg b``
    coefficients, leading zeros included.
    """
    lead, q, rem = b[0], [], list(a)
    for _ in range(len(a) - len(b) + 1):
        e = rem[0]
        q = [_mul(lead, c) for c in q] + [e]
        tail = b[1:] + [(0, 0)] * (len(rem) - len(b))
        rem = [(lx[0] - ey[0], lx[1] - ey[1]) for lx, ey in
               ((_mul(lead, x), _mul(e, y)) for x, y in zip(rem[1:], tail))]
    return q, rem


def _squarefree(poly):
    """``poly / gcd(poly, poly')``, up to a factor; highest degree first."""
    n = len(poly) - 1
    a, b = poly, [(re * (n - j), im * (n - j))
                  for j, (re, im) in enumerate(poly[:-1])]
    while b:  # Euclid on primitive pseudo-remainders
        rem = _pseudo_divide(a, b)[1]
        while rem and rem[0] == (0, 0):
            rem = rem[1:]
        a, b = b, _primitive(rem)
    return _primitive(_pseudo_divide(poly, a)[0]) if len(a) > 1 else poly


def _newton(poly, seed: complex):
    """The root of ``poly`` (over Z[i]) Newton's method finds from ``seed``.

    The iterate is ``w / 2^e`` for a Gaussian integer ``w`` and at least
    320 fractional bits, so each step is exact up to the rounding of
    ``w``.  Horner on the scaled point: ``H_j = H_{j-1} w + a_j 2^{e j}``
    and ``G_j = G_{j-1} w + H_{j-1}`` give ``p(z) = H_n / 2^{e n}`` and
    ``p'(z) = G_n / 2^{e (n-1)}``, so the step is ``w -= H_n / G_n``; at
    most 60 steps, ending once a step rounds to zero.  Returns the real
    and imaginary parts as fractions.
    """
    e = 320 - min(0, math.frexp(abs(seed))[1])
    w = (round(math.ldexp(seed.real, e)), round(math.ldexp(seed.imag, e)))
    scaled = [(re << (e * j), im << (e * j))
              for j, (re, im) in enumerate(poly)]
    for _ in range(60):
        h, g = scaled[0], (0, 0)
        for a in scaled[1:]:
            g = _mul(g, w)
            g = (g[0] + h[0], g[1] + h[1])
            h = _mul(h, w)
            h = (h[0] + a[0], h[1] + a[1])
        den = g[0] ** 2 + g[1] ** 2
        if den == 0:
            break
        num = _mul(h, (g[0], -g[1]))
        step = tuple((2 * x + den) // (2 * den) for x in num)  # rounded
        if step == (0, 0):
            break
        w = (w[0] - step[0], w[1] - step[1])
    return Fraction(w[0], 1 << e), Fraction(w[1], 1 << e)


def _roots(poly) -> list:
    """The roots of a square-free ``poly`` over Z[i] as complex doubles.

    Rounded as sympy's ``nroots(n=30)`` rounds: a real or imaginary part
    below ``2^-102`` (mpmath's epsilon at 30 digits) in absolute value
    reads as zero, any other as the nearest double.  Real roots come
    first, then by real part, size of the imaginary part and its sign.
    """
    if len(poly) == 2:  # a z + b: z = -b conj(a) / |a|^2, exactly
        (ar, ai), (br, bi) = poly
        norm = ar * ar + ai * ai
        points = [(Fraction(-br * ar - bi * ai, norm),
                   Fraction(br * ai - bi * ar, norm))]
    else:
        top = max(abs(x) for z in poly for x in z).bit_length()
        seeds = np.roots([complex(re / 2 ** top, im / 2 ** top)
                          for re, im in poly])
        points = [_newton(poly, complex(seed)) for seed in seeds]
    roots = [complex(*(0.0 if abs(x) < 2.0 ** -102 else float(x)
                       for x in point)) for point in points]
    return sorted(roots, key=lambda z: (z.imag != 0, z.real, abs(z.imag),
                                        z.imag > 0))


def _exact_singular_points(k1, k2) -> list:
    """Singular points of ``z K_1 + K_2``, exact over Z[i] up to the roots.

    ``K_1`` and ``K_2`` are matrices of Gaussian integers and ``K_1`` must
    be injective.  With ``Q K_1 = [d I_m; 0]`` and ``Q K_2 = [N; B]`` the
    points are the eigenvalues of ``M = -N / d`` on its unobservable
    subspace ``ker [B; BN; ...; BN^{m-1}]``.  On a basis ``U`` of that
    subspace ``N U = U S / d'``, so the points are ``-s / (d d')`` for the
    eigenvalues ``s`` of ``S``: the roots of the square-free part of the
    characteristic polynomial of ``S``, taken in that variable.
    """
    m = len(k1[0])
    d, n, block = _reduce_rows(k1, k2, m)
    rows = list(block)
    for _ in range(m - 1):
        block = [_primitive(row) for row in _matmul(block, n)]
        rows += block
    basis = _kernel(rows, m)
    r = len(basis)
    if r == 0:
        # rank [B; BN; ...; BN^{m-1}] == m: no eigenvector of M in ker B
        return []
    u = [list(row) for row in zip(*basis)]
    d_sub, s, _ = _reduce_rows(u, _matmul(n, u), r)
    poly = _squarefree(_charpoly(s))
    t, powers = _mul((-d[0], -d[1]), d_sub), [(1, 0)]  # s = t z
    for _ in poly[1:]:
        powers.append(_mul(powers[-1], t))
    return _roots(_primitive([_mul(c, power)
                              for c, power in zip(poly, reversed(powers))]))


def _singular_points(m1, m2, tol: Tolerance):
    """The singular points ``z`` of ``z M_1 + M_2``, for an injective ``M_1``.

    Returns ``(exact, points)``; ``exact`` with no point proves the pencil
    injective for every ``(z, 1)``, ``z = 0`` included.  When every entry is
    a Gaussian rational, both matrices are scaled by one common
    denominator, which moves no point, and the observability test of the
    module docstring runs over ``Z[i]`` with Python integers: the points
    are :func:`_exact_singular_points`, each rounded once as :func:`_roots`
    says, so that witnesses recorded from them (the goldens among them) keep
    their bytes.  Otherwise they are the eigenvalues of ``-M_1^+ M_2``.
    Points are ordered by ``(real, imag)``, except that floating-point ones
    at which ``z M_1 + M_2`` is already singular by the rank rule (one
    batched SVD) go first, since a spurious one costs the polisher the
    most; all are tried, so the order can change which witness is returned,
    never whether one is.
    """
    exact = _gaussian_integer_pencil([m1, m2])
    if exact is None:
        points = np.linalg.eigvals(-np.linalg.lstsq(m1, m2, rcond=None)[0])
        sigma = np.linalg.svd(points[:, None, None] * m1 + m2,
                              compute_uv=False)
        later = linalg.kept(sigma, tol)[:, -1]
    else:
        points = _exact_singular_points(*exact)
        later = [False] * len(points)  # each one a genuine root
    order = sorted(range(len(points)), key=lambda i: (
        later[i], round(points[i].real, 12), round(points[i].imag, 12)))
    return exact is not None, [points[i] for i in order]


# ---------------------------------------------------------------------------
# candidates into witnesses; the Sylvester-type matrix


def _refine_candidate(stack, h, iters: int = 400):
    """Drive ``h`` towards a rank-deficient direction of ``F``.

    Each round takes the worst dependency vector ``a`` of ``F(h)`` and
    tries a Gauss-Newton step on ``P(a) h = 0`` moving ``a`` and ``h``
    orthogonally to themselves, kept when it lowers ``sigma_k(F(h))``;
    otherwise ``h`` becomes the best kernel direction of ``P(a)``, an
    alternating step that converges only linearly.  The loop exits once
    ``sigma_k`` reaches rounding level.
    """
    k = len(stack)  # stack: (k, d1, m)
    floor = 1e-14 * float(np.abs(stack).max())

    def state(vec):  # sigma_k of F(vec), F(vec), its worst a, and vec
        f = np.einsum("jdm,m->dj", stack, vec)
        _, s, vh = np.linalg.svd(f)
        return s[min(k, s.size) - 1], f, vh[-1, :].conj(), vec

    s, f, a, h = state(h)
    for _ in range(iters):
        if s < floor:
            break
        pencil = np.tensordot(a, stack, axes=(0, 0))
        jacobian = np.hstack([f - np.outer(f @ a, a.conj()),
                              pencil - np.outer(pencil @ h, h.conj())])
        step = np.linalg.lstsq(jacobian, -(pencil @ h), rcond=None)[0][k:]
        trial = state((h + step) / np.linalg.norm(h + step))
        if trial[0] >= s:
            h_new = np.linalg.svd(pencil)[2][-1, :].conj()
            if np.linalg.norm(h_new - h * np.vdot(h, h_new)) < 1e-15:
                return h_new
            trial = state(h_new)
        s, f, a, h = trial
    return h


def _candidate_verdict(factors, stack, basis, vec, dependency: bool,
                       method: str, tol: Tolerance,
                       samples: int = 0) -> Optional[QuasiPurityVerdict]:
    """The witness polished from the candidate ``vec`` as a verdict, or None.

    ``vec`` is a direction ``h`` of the reduced factors, or a dependency
    vector ``a`` when ``dependency``; :func:`_refine_candidate` polishes
    ``h``, or ``ker P(a)``, and ``B h`` must pass the rank window.
    """
    if dependency:
        vec = np.linalg.svd((vec[:, None, None] * stack).sum(0))[2][-1].conj()
    h = _refine_candidate(stack, vec / np.linalg.norm(vec))
    return _witness_verdict(factors, basis @ h, method, tol, samples)


def _sylvester_step(factors, stack, basis, side, dependency: bool,
                    budget: int, tol: Tolerance) -> QuasiPurityVerdict:
    """Step 3 of the module docstring on ``side``, the ``n`` stacked
    ``M_i``, whose chart centres are dependency vectors if ``dependency``."""
    n = side.shape[0]
    k, d, m = stack.shape
    if n > budget:
        return QuasiPurityVerdict(status=INCONCLUSIVE, method=METHOD_SYLVESTER)
    sigma = np.linalg.svd(side, compute_uv=False)[:, -1]
    lowest = np.eye(n, dtype=complex)[np.argmin(sigma)]
    verdict = _candidate_verdict(factors, stack, basis, lowest, dependency,
                                 METHOD_SYLVESTER, tol, samples=n)
    if verdict is not None:
        return verdict
    width = math.comb(m + k - 1, k)  # the monomials h^b, |b| = k
    cells = n + k * width
    if cells > budget:
        return QuasiPurityVerdict(status=INCONCLUSIVE, method=METHOD_SYLVESTER,
                                  samples_used=n)
    # the exponents g of the rows; h^(g + e_l) is column columns[g, l]
    picks = itertools.combinations_with_replacement(range(m), k - 1)
    rows = (np.array(list(picks))[:, :, None] == np.arange(m)).sum(axis=1)
    grown = (rows[:, None, :] + np.eye(m, dtype=int)).reshape(-1, m)
    columns = np.unique(grown, axis=0, return_inverse=True)[1].reshape(-1, m)
    s = np.zeros((d, len(rows), k, width), dtype=complex)
    s[:, np.arange(len(rows))[:, None], :, columns] = stack.transpose(2, 1, 0)
    s = s.reshape(-1, k * width)
    _, sigma, vh = np.linalg.svd(s, full_matrices=len(s) < k * width)
    rank = int(np.count_nonzero(linalg.kept(sigma, tol)))
    if rank == k * width:
        return QuasiPurityVerdict(status=QUASI_PURE, method=METHOD_SYLVESTER,
                                  samples_used=cells)
    pure = np.flatnonzero(rows.max(axis=1) == k - 1)  # the rows h_l0^(k-1)
    for v in vh[rank:].conj().reshape(-1, k, width):
        j, l0 = np.unravel_index(
            np.argmax(np.abs(v[:, columns[pure, np.arange(m)]])), (k, m))
        h = v[j, columns[pure[l0]]]  # a_j h_l0^(k-1) h_l
        verdict = _candidate_verdict(factors, stack, basis, h, False,
                                     METHOD_SYLVESTER, tol, samples=cells)
        if verdict is not None:
            return verdict
    return QuasiPurityVerdict(status=INCONCLUSIVE, method=METHOD_SYLVESTER,
                              samples_used=cells)


# ---------------------------------------------------------------------------
# the decision pipeline


def is_quasipure(phi: CpMap, tol: Tolerance = DEFAULT_TOL, *,
                 budget: int = 2000) -> QuasiPurityVerdict:
    """Decide quasi-purity of a nonzero CP map.

    ``budget`` caps the cells step 3 may spend, ``n`` chart centres and
    the ``N`` columns of its Sylvester-type matrix (reported as
    ``samples_used``); a budget below them gives ``Inconclusive``.  No step
    draws random numbers, so the verdict is a function of the input.

    Step 1 runs first, on the family the map holds, because an injective
    ``T`` makes every step before it a no-op.  Write ``r = sigma_min(T) /
    sigma_max(T)``, above ``eps_rank`` when ``T`` is injective.  For unit
    ``a`` and ``x``, ``K_j x = T (e_j (x) x)``, ``sum_j a_j K_j x =
    T (a (x) x)`` and ``||sum_j a_j K_j||_F^2 = sum_l ||T (a (x) e_l)||^2``,
    so each of these three quantities lies between ``sigma_min(T)`` and
    ``sigma_max(T)`` (times the same constant) and three singular-value
    ratios are at least ``r``: those of the stacked factor vectors, of the
    stacked factors (so the common kernel is trivial and the basis is
    ``I``), and of each factor (so every factor is injective and the
    kernels agree).  An injective ``T`` has ``d_in >= k d_out >= k`` rows,
    so ``k > d_in`` cannot occur either, and a wider ``T`` is not
    factorized here.  The held family is then exactly independent, a
    minimal family of the map as given, and no nonzero ``a (x) h`` is sent
    to zero: ``QuasiPure`` is proved.  The early return asks the rank rule
    :func:`linalg.kept` to keep every ``sigma(T)^2``, which is ``r^2 >
    eps_rank`` and keeps every ``sigma(T)`` too.  It keeps every ``s^2`` of
    the stacked factor vectors as well, so :func:`minimal_kraus` keeps the
    family, and the same map given by its Choi matrix, whose minimal
    factors mix these by a unitary and leave the singular values of ``T``
    alone, returns here too.  For a smaller ``r`` the pipeline
    runs on the reduced family, which may be shorter.  When the family is
    not reduced, the rank of ``T`` is reused while the basis is ``I``.
    """
    if not is_cp(phi, tol):
        raise NotCP("quasi-purity is defined for completely positive maps")
    if phi.is_zero():
        raise ZeroMap("quasi-purity is undefined for the zero map")

    # step 1 first, on the family the map holds: injective settles it
    given = list(phi.kraus) if phi.kraus else minimal_kraus(phi, tol)
    columns = len(given) * phi.d_out
    flat_rank = None
    if len(given) >= 2 and columns <= phi.d_in:  # else T cannot be injective
        s = np.linalg.svd(np.hstack(given), compute_uv=False)
        # s descends, so the last s^2 kept keeps them all, and every s:
        # T is injective
        if linalg.kept(s * s, tol)[-1]:
            return QuasiPurityVerdict(status=QUASI_PURE,
                                      method=METHOD_EXACT_PENCIL)
        flat_rank = int(np.count_nonzero(linalg.kept(s, tol)))

    factors = minimal_kraus(phi, tol) if phi.kraus else given
    k = len(factors)
    if k == 1:
        return QuasiPurityVerdict(status=QUASI_PURE, method=METHOD_PURE)
    if k != len(given):  # a dependent stored family was reduced
        flat_rank = None

    basis = _common_kernel_complement(factors, tol)

    # necessary condition: Choi rank at most d_in
    if k > phi.d_in:
        return _not_quasipure(factors, basis[:, 0], METHOD_NECESSARY, tol)

    stack = np.stack(factors) @ basis  # (k, d, m)
    m = basis.shape[1]

    # necessary condition: all factor kernels coincide
    short = _short_factor_witness(factors, stack, basis, tol)
    if short is not None:
        return _not_quasipure(factors, short, METHOD_NECESSARY, tol)

    # step 1 on the reduced factors; m == d_out iff the basis is I, and
    # then f @ I equals f entry for entry: the rank taken above is this one
    if flat_rank is None or m < phi.d_out:
        flat_rank = linalg.numerical_rank(np.hstack(stack), tol)
    if flat_rank == k * m:
        return QuasiPurityVerdict(status=QUASI_PURE,
                                  method=METHOD_EXACT_PENCIL)
    if m == 1:  # the flattening is F(h) for the only direction h
        return _not_quasipure(factors, basis[:, 0], METHOD_EXACT_PENCIL, tol)

    # the smaller mode: M(a) = sum_j a_j K_j, or M(h) = sum_i h_i G_i
    over_a = k <= m
    side = stack if over_a else stack.transpose(2, 1, 0)
    if min(k, m) == 2:
        # step 2: the point c = (1, 0), then those of the pencil z M_1 + M_2;
        # on the K side the short-factor test covered c = (1, 0)
        if not over_a:
            verdict = _witness_verdict(factors, basis[:, 0],
                                       METHOD_EXACT_PENCIL, tol)
            if verdict is not None:
                return verdict
        exact, points = _singular_points(side[0], side[1], tol)
        for z in points:
            verdict = _candidate_verdict(factors, stack, basis,
                                         np.array([z, 1.0]), over_a,
                                         METHOD_EXACT_PENCIL, tol)
            if verdict is not None:
                return verdict
        if exact and points:
            raise InputNotReduced(
                "internal error: exact singular point failed the rank window"
            )
        if exact:
            return QuasiPurityVerdict(status=QUASI_PURE,
                                      method=METHOD_EXACT_PENCIL)
    # step 3 (and the proof behind a floating-point pencil)
    return _sylvester_step(factors, stack, basis, side, over_a, budget, tol)
