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
1).  When it does not, two more of those singular values may still vouch
for the reduction, by Courant-Fischer on the subspaces ``{c (x) x}`` and
``{c (x) h}`` of a fixed ``c``, resp. ``h``:

    ``sigma_{km-m+1}(T) <= s_min(W)``, ``s_max(W)^2 <= m sigma_max(T)^2``
    for the stacked factor vectors ``W``, and
    ``sigma_{km-k+1}(T) <= s_min(V)``, ``s_max(V)^2 <= k sigma_max(T)^2``
    for the stacked factors ``V``.

Kept by the rank rule against ``2 m sigma_max(T)^2`` (squared) and
``sqrt(2k) sigma_max(T)``, they show the held family independent and its
common kernel trivial, the answers :func:`minimal_kraus` and the
common-kernel SVD would give; the factor 2 absorbs the rounding of all
three SVDs, which is of the unit roundoff, far below ``eps_rank``.
It then settles ``k == 1`` (pure), reduces modulo the common kernel
(``K_j B`` for an orthonormal basis ``B`` of its complement, ``m``
columns; ``B = I`` once step 1 vouched) and checks two necessary
conditions, each violation yielding a witness.  One is ``k <= d_in``.
The other is that the factor kernels coincide: after the reduction they
meet in ``0``, so they coincide iff every ``K_j B`` is injective, which
one batched sigma-only SVD of the ``(k, d_in, m)`` stack decides when
``d_in >= m``.  A short ``K_j B`` sends its last right
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
   A reduced flattening ``T' = [K_1 B | ... | K_k B]`` with fewer than
   ``k m`` rows has rank below ``k m`` and is not ranked at all; ``m ==
   1`` always leaves it ``d_in >= k`` rows.
2. This step only supplies candidates, and proves nothing.  The first
   is read from the kernel of the reduced flattening ``T' = [K_1 B | ...
   | K_k B]`` when it has ``d_in >= k m`` rows.  A witness ``h`` with
   dependency vectors ``A`` puts ``A (x) h`` in ``ker T'``, which step 1
   found nonzero.  When that is all of ``ker T'``, its last right
   singular vector (one SVD with vectors), read as a ``k x m`` matrix, is
   ``a h^T``, and its largest row lies along ``h``.  ``ker T'`` moves with
   the family by ``U^T (x) I`` (Nielsen & Chuang, Thm 8.2) and keeps its
   rank-one vectors, so the read does not depend on the family.  Two
   witness lines, or a quasi-pure map, leave in general a vector of higher
   rank there, whose row then fails the rank window.  A wider ``T'`` has a kernel
   of dimension ``k m - d_in`` or more whatever the map, and is not read.
   The other candidates live in the smaller mode ``n = min(k, m)``, where
   the question is whether ``M(c) = sum_i c_i M_i`` is injective for all
   ``c != 0``, with ``M_j = K_j`` (``M = P``) when ``k <= m`` and
   ``M_i = G_i = [K_1 e_i | ... | K_k e_i]`` (``M = F``) otherwise; a
   dependency vector ``a`` gives the witness ``h = ker P(a)``.  For
   ``n == 2`` they are the points ``c = (z, 1)`` of the pencil
   ``z M_1 + M_2``: the floating-point eigenvalues of ``-M_1^+ M_2`` at
   which the pencil is singular by the rank rule.  That needs ``M_1``
   injective: on the ``K`` side the short-factor test made it so; on the
   ``G`` side (``m == 2 < k``) ``c = (1, 0)``, ``h = B e_1``, is tested
   first, and once it fails ``G_1 = F(B e_1)`` is injective (the ``G_i``
   have no common kernel, as ``sum_j a_j K_j B = 0`` forces ``a = 0``).
   Both chart centres of ``CP^1`` are then covered, ``c = (0, 1)`` being
   the point ``z = 0``.
   For ``n > 2`` the one candidate is the chart centre ``e_i`` of
   ``CP^{n-1}`` with the lowest ``sigma_p(M_i)`` (``p`` columns): ``n``
   cells, against the ``N`` of ``S``.  On the ``K`` side with ``d_in >=
   m`` these are the short-factor test's singular values, read again.
3. The bidegree-``(1, k)`` Sylvester-type matrix ``S`` of ``T (a (x) h)
   = 0`` (Sturmfels & Zelevinsky, J. Algebra 163, 1994) decides every map
   that no candidate of step 2 settles.  It has a row per row ``r`` of
   ``T`` and monomial ``h^g``, ``|g| = k-1``, a column per monomial ``a_j
   h^b``, ``|b| = k`` (``N = k C(m+k-1, k)``), and ``T[r, (j, l)]`` at row
   ``(r, g)``, column ``(j, g + e_l)``.  A witness's zero ``(a, h)`` gives
   the kernel vector ``(a_j h^b) != 0``, so full column rank proves
   ``QuasiPure`` by step 1's Weyl margin: ``S`` copies the entries of
   ``T``.  Otherwise each kernel vector, in SVD order, is read (``h_l``
   from ``a_j h_l0^(k-1) h_l`` at its largest ``a_j h_l0^k``) as a
   candidate; none passing, or a budget below the cells of steps 2 and 3
   (``N``, plus ``n`` for ``n > 2``), gives ``Inconclusive``.

Two candidates of step 2 take no polish and go to the rank window
directly: ``c = (1, 0)``, a fixed direction, and the kernel vector, a
witness to rounding when it is one at all.  Every other candidate becomes
a witness in one place, :func:`_candidate_verdict`: its direction,
:func:`_refine_candidate`, ``B h`` and the rank window.

Tags: ``Pure``, ``NecessaryConditionViolated``, ``ExactPencil`` (step 1,
the kernel read and the pencil of step 2), ``SylvesterMatrix`` (step 2's
chart centre and step 3); each ``QuasiPure`` is proof-grade, each witness
re-verified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .cp_map import CpMap, _canonical_phase, minimal_kraus
from .errors import InputNotReduced, ZeroMap
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
    the cells spent: the ``n`` chart centres of step 2 when ``n > 2``, then
    the ``N`` columns of the Sylvester-type matrix once it is built.
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
    r = linalg.numerical_rank((np.asarray(factors) @ h0).T, tol)
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


def _reduction_is_trivial(s, k: int, m: int, tol: Tolerance) -> bool:
    """Whether step 1's ``sigma(T)`` vouches for the reduction.

    ``s`` holds the ``k m`` singular values of a tall ``T = [K_1 | ... |
    K_k]``, descending.  The rank rule keeping ``sigma_{km-m+1}(T)^2``
    against ``2 m sigma_max(T)^2`` and ``sigma_{km-k+1}(T)`` against
    ``sqrt(2k) sigma_max(T)`` shows that :func:`minimal_kraus` keeps the
    held family and that :func:`_common_kernel_complement` is ``I``: the
    bounds and the rounding margin are in :func:`is_quasipure`.
    """
    top = s[0]
    return bool(linalg.kept([s[-m] ** 2], tol, 2 * m * top * top)[0]
                and linalg.kept([s[-k]], tol, math.sqrt(2 * k) * top)[0])


def _short_factor_verdict(factors, stack, basis, s,
                          tol: Tolerance) -> Optional[QuasiPurityVerdict]:
    """NotQuasiPure on a witness ``B x`` with ``K_j B x = 0``, or None.

    ``stack`` holds the reduced factors ``K_j B`` (``k x d x m``).  A factor
    is short when its rank is below ``m``, always so when ``d < m``.
    Otherwise ``s``, the batched sigma-only SVD of ``stack``, gives every
    factor's rank by the rank rule :func:`linalg.kept`, row by row, and the
    test ends there when every factor keeps all ``m``: singular vectors are
    computed only for the short factors.  They are tried shortest first, by
    the ratio of their smallest singular value to their largest, and ``B x``
    for the last right singular vector ``x`` is kept only when it passes the
    rank window: a factor short by its own scale can still leave ``F(B x)``
    of rank ``k`` (its image is small, not zero, next to the others), and
    then the steps after this test decide.  That check is the verdict's
    own, so the witness is ranked once.
    """
    _, d, m = stack.shape
    if d < m:
        short = np.arange(len(stack))
    else:
        short = np.flatnonzero(linalg.kept(s, tol).sum(axis=1) < m)
        if short.size == 0:
            return None
        short = short[np.argsort(s[short, -1] / s[short, 0], kind="stable")]
    vh = np.linalg.svd(stack[short], full_matrices=d < m)[2]
    for x in vh[:, -1]:
        verdict = _witness_verdict(factors, basis @ x.conj(),
                                   METHOD_NECESSARY, tol)
        if verdict is not None:
            return verdict
    return None


# ---------------------------------------------------------------------------
# the k = 2 pencil


def _singular_points(m1, m2, tol: Tolerance):
    """The singular points ``z`` of ``z M_1 + M_2``, for an injective ``M_1``.

    They are the eigenvalues of ``-M_1^+ M_2`` at which ``z M_1 + M_2`` is
    singular by the rank rule on its Gram matrix, that is on ``sigma^2``
    (one batched SVD), ordered by ``(real, imag)``; they are candidates and
    prove nothing.  The square keeps a double point: the eigensolve finds
    it only to about the square root of the unit roundoff, where
    ``sigma_min / sigma_max`` is near ``1e-8``, while the other eigenvalues
    sit at ratios of order one.
    """
    x = -np.linalg.lstsq(m1, m2, rcond=None)[0]
    # a real matrix is solved in real arithmetic, whose real eigenvalues
    # come out exactly where the complex solver's may not (the flip twirl's
    # -1 reads -0.9999999999999999 in complex arithmetic), so that witnesses
    # recorded from them keep their bytes
    points = np.linalg.eigvals(x if x.imag.any() else x.real).astype(complex)
    sigma = np.linalg.svd(points[:, None, None] * m1 + m2, compute_uv=False)
    points = points[~linalg.kept(sigma * sigma, tol)[:, -1]]
    return sorted(points, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


# ---------------------------------------------------------------------------
# candidates into witnesses; the Sylvester-type matrix


def _refine_candidate(stack, h):
    """Drive ``h`` towards a rank-deficient direction of ``F``.

    Each round takes the worst dependency vector ``a`` of ``F(h)`` and
    tries a Gauss-Newton step on ``P(a) h = 0`` moving ``a`` and ``h``
    orthogonally to themselves, kept when it lowers ``sigma_k(F(h))``;
    otherwise ``h`` becomes the best kernel direction of ``P(a)``, an
    alternating step that converges only linearly.  The loop exits once
    ``sigma_k`` reaches rounding level, or after 400 rounds.

    One round forms ``P(a)`` as one product with the flattened stack and
    ``P(a) h`` once, fills the ``d x (k + m)`` Jacobian ``[F(h) (I - a a*)
    | P(a) (I - h h*)]`` in one buffer, solves one least-squares problem,
    and takes the SVD of the trial ``F(h)``; a rejected step adds the SVD
    of ``P(a)``.  Neither SVD computes the ``U`` it would not read.
    """
    k, d, m = stack.shape
    flat = stack.reshape(k, -1)
    floor = 1e-14 * float(np.abs(stack).max())
    jacobian = np.empty((d, k + m), dtype=complex)

    def state(vec):  # sigma_k of F(vec), F(vec), its worst a, and vec
        f = np.einsum("jdm,m->dj", stack, vec)
        s, vh = np.linalg.svd(f, full_matrices=d < k)[1:]
        return s[min(k, s.size) - 1], f, vh[-1, :].conj(), vec

    s, f, a, h = state(h)
    for _ in range(400):
        if s < floor:
            break
        pencil = (a @ flat).reshape(d, m)
        image = pencil @ h
        np.subtract(f, (f @ a)[:, None] * a.conj(), out=jacobian[:, :k])
        np.subtract(pencil, image[:, None] * h.conj(), out=jacobian[:, k:])
        moved = h + np.linalg.lstsq(jacobian, -image, rcond=None)[0][k:]
        trial = state(moved / np.linalg.norm(moved))
        if trial[0] >= s:
            h_new = np.linalg.svd(pencil, full_matrices=d < m)[2][-1, :].conj()
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
        _, d, m = stack.shape
        pencil = (vec[:, None, None] * stack).sum(0)  # P(a)
        vec = np.linalg.svd(pencil, full_matrices=d < m)[2][-1].conj()
    h = _refine_candidate(stack, vec / np.linalg.norm(vec))
    return _witness_verdict(factors, basis @ h, method, tol, samples)


def _sylvester_step(factors, stack, basis, spent: int, budget: int,
                    tol: Tolerance) -> QuasiPurityVerdict:
    """Step 3 of the module docstring, after the ``spent`` cells of step 2."""
    k, d, m = stack.shape
    width = math.comb(m + k - 1, k)  # the monomials h^b, |b| = k
    cells = spent + k * width
    if cells > budget:
        return QuasiPurityVerdict(status=INCONCLUSIVE, method=METHOD_SYLVESTER,
                                  samples_used=spent)
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

    ``budget`` caps the cells steps 2 and 3 may spend, the ``n`` chart
    centres when ``n > 2`` and the ``N`` columns of the Sylvester-type
    matrix (reported as ``samples_used``); a budget below them gives
    ``Inconclusive``.  The kernel read of step 2 spends no cells.  No
    step draws random numbers, so the verdict is a function of the input.
    Raises ValueError for a negative budget, before any step, ZeroMap for
    the zero map, and NotCP, from :func:`minimal_kraus`, for a map given
    by a Choi matrix that is not PSD.

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
    alone, returns here too.

    For a smaller ``r`` the same singular values may still vouch for the
    reduction (:func:`_reduction_is_trivial`).  For a unit ``c``, the
    ``m``-dimensional space ``{c (x) x}`` holds, by Courant-Fischer, a
    unit vector with ``||T v|| >= sigma_{km-m+1}(T)``, and ``||T v||^2 <=
    sum_l ||T (c (x) e_l)||^2 = ||sum_j c_j K_j||_F^2 <= m
    sigma_max(T)^2``: for the stacked factor vectors ``W``,
    ``sigma_{km-m+1}(T) <= s_min(W)`` and ``s_max(W)^2 <= m
    sigma_max(T)^2``.  For a unit ``h``, the ``k``-dimensional ``{c (x)
    h}`` likewise gives ``sigma_{km-k+1}(T) <= ||sum_j c_j K_j h|| <=
    (sum_j ||K_j h||^2)^(1/2) <= sqrt(k) sigma_max(T)``: for the stacked
    factors ``V``, ``sigma_{km-k+1}(T) <= s_min(V)`` and ``s_max(V) <=
    sqrt(k) sigma_max(T)``.  So when the rank rule keeps
    ``sigma_{km-m+1}(T)^2`` against ``2 m sigma_max(T)^2`` and
    ``sigma_{km-k+1}(T)`` against ``sqrt(2k) sigma_max(T)``, the exact
    ``s(W)^2`` and ``s(V)`` pass it with a factor 2, resp. ``sqrt 2``, to
    spare.  As in step 1, rounding moves each computed singular value by a
    small multiple of the unit roundoff times the largest, far below
    ``eps_rank`` times it, and that margin covers all three SVDs: the
    held family is the one :func:`minimal_kraus` keeps, its common kernel
    is trivial, and the pipeline runs on it with the basis ``I``, taking
    neither SVD.  Otherwise it runs on the reduced family, which may be
    shorter.  When the family is not reduced, the rank of ``T`` is reused
    while the basis is ``I``.  Step 1 takes singular values only, at
    either place: the kernel read factorizes ``T'`` again, with vectors,
    only once ``T'`` is known to be deficient, so a map that
    step 1 proves pays for no vectors.  A wide ``T'`` (``d_in < k m``)
    has rank below ``k m``, so it is neither ranked nor read.  One
    sigma-only SVD of the ``(k, d_in, m)`` stack of the ``K_j B``, taken
    when ``d_in >= m``, is both the short-factor test and, when ``k <=
    m``, the ``sigma_p(M_i)`` of step 2's chart centre.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    if phi.is_zero():
        raise ZeroMap("quasi-purity is undefined for the zero map")

    # step 1 first, on the family the map holds: injective settles it
    given = list(phi.kraus) if phi.kraus else minimal_kraus(phi, tol)
    columns = len(given) * phi.d_out
    flat_rank = None
    trivial = False
    if len(given) >= 2 and columns <= phi.d_in:  # else T cannot be injective
        s = np.linalg.svd(np.hstack(given), compute_uv=False)
        # s descends, so the last s^2 kept keeps them all, and every s:
        # T is injective
        if linalg.kept(s * s, tol)[-1]:
            return QuasiPurityVerdict(status=QUASI_PURE,
                                      method=METHOD_EXACT_PENCIL)
        flat_rank = int(np.count_nonzero(linalg.kept(s, tol)))
        trivial = _reduction_is_trivial(s, len(given), phi.d_out, tol)

    factors = minimal_kraus(phi, tol) if phi.kraus and not trivial else given
    k = len(factors)
    if k == 1:
        return QuasiPurityVerdict(status=QUASI_PURE, method=METHOD_PURE)
    if k != len(given):  # a dependent stored family was reduced
        flat_rank = None

    basis = (np.eye(phi.d_out, dtype=complex) if trivial
             else _common_kernel_complement(factors, tol))

    # necessary condition: Choi rank at most d_in
    if k > phi.d_in:
        return _not_quasipure(factors, basis[:, 0], METHOD_NECESSARY, tol)

    stack = np.stack(factors) @ basis  # (k, d, m)
    m = basis.shape[1]

    # necessary condition: all factor kernels coincide; the sigma batch
    # of the K_j B serves step 2's chart centre too
    sigma = (np.linalg.svd(stack, compute_uv=False) if phi.d_in >= m
             else None)
    verdict = _short_factor_verdict(factors, stack, basis, sigma, tol)
    if verdict is not None:
        return verdict

    # step 1 on the reduced factors, when T' has k m rows or more (always
    # so for m == 1, as k <= d_in): a wider T' has rank below k m.  m ==
    # d_out iff the basis is I, and then f @ I equals f entry for entry:
    # the rank taken above is this one
    tall = phi.d_in >= k * m
    if tall:
        if flat_rank is None or m < phi.d_out:
            flat_rank = linalg.numerical_rank(np.hstack(stack), tol)
        if flat_rank == k * m:
            return QuasiPurityVerdict(status=QUASI_PURE,
                                      method=METHOD_EXACT_PENCIL)
    if m == 1:  # the flattening is F(h) for the only direction h
        return _not_quasipure(factors, basis[:, 0], METHOD_EXACT_PENCIL, tol)

    # step 2, first candidate when T' is tall: its last right singular
    # vector, read as the k x m matrix a h^T, at its largest row
    if tall:
        x = np.linalg.svd(np.hstack(stack), full_matrices=False)[2][-1]
        x = x.conj().reshape(k, m)
        verdict = _witness_verdict(
            factors, basis @ x[np.argmax(np.linalg.norm(x, axis=1))],
            METHOD_EXACT_PENCIL, tol)
        if verdict is not None:
            return verdict

    # step 2, the other candidates, in the smaller mode: M(a) =
    # sum_j a_j K_j, or M(h) = sum_i h_i G_i
    over_a = k <= m
    side = stack if over_a else stack.transpose(2, 1, 0)
    n = side.shape[0]
    if n == 2:
        # the point c = (1, 0), then those of the pencil z M_1 + M_2, where
        # z = 0 is c = (0, 1); on the K side the short-factor test covered
        # c = (1, 0)
        if not over_a:
            verdict = _witness_verdict(factors, basis[:, 0],
                                       METHOD_EXACT_PENCIL, tol)
            if verdict is not None:
                return verdict
        for z in _singular_points(side[0], side[1], tol):
            verdict = _candidate_verdict(factors, stack, basis,
                                         np.array([z, 1.0]), over_a,
                                         METHOD_EXACT_PENCIL, tol)
            if verdict is not None:
                return verdict
        spent = 0
    elif n > budget:
        return QuasiPurityVerdict(status=INCONCLUSIVE, method=METHOD_SYLVESTER)
    else:
        # the chart centre e_i of CP^{n-1} with the lowest sigma_p(M_i);
        # on the K side these are the short-factor test's sigmas
        if not over_a or sigma is None:
            sigma = np.linalg.svd(side, compute_uv=False)
        lowest = np.eye(n, dtype=complex)[np.argmin(sigma[:, -1])]
        verdict = _candidate_verdict(factors, stack, basis, lowest, over_a,
                                     METHOD_SYLVESTER, tol, samples=n)
        if verdict is not None:
            return verdict
        spent = n
    # step 3: the proof, or the candidates, of the Sylvester-type matrix
    return _sylvester_step(factors, stack, basis, spent, budget, tol)
