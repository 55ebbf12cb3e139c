"""Positive block completion and minimal CP completion.

Block problem.  Given a projection ``P`` on ``C^n`` and the blocks
``A = P M P`` and ``C = (I-P) M P`` of an unknown PSD matrix ``M``, a
positive completion exists iff ``A`` is PSD and ``ker A`` (within
``ran P``) is contained in ``ker C``.  In finite dimension that kernel
condition is equivalent to the quadratic bound ``C* C <= q A`` for some
``q > 0``:

* if ``C* C <= q A`` then any ``v`` with ``A v = 0`` has
  ``||C v||^2 <= q <v, A v> = 0``;
* conversely, if ``ker A <= ker C`` then ``C* C`` is supported on
  ``ran A``, where ``A >= lambda_min+ . P_ran(A)``, so
  ``q = ||C||^2 / lambda_min+(A)`` works.

Both directions are exercised numerically in the test suite.  Among all
completions -- which share ``A`` and ``C`` and differ only in the free
corner -- there is a least one in the PSD order, with corner
``D = C A^+ C*`` (the limit of ``C (A + t)^{-1} C*`` as ``t`` decreases to
``0``).

CP problem.  A partial map ``beta(X) = phi(X) R`` determines the Choi
column ``[beta(E_ij)]``; a CP completion exists iff that column extends to
a PSD matrix, i.e. iff the block problem with splitting
``P = I (x) P_R`` is completable.  The minimal CP completion can be
computed two independent ways, which must agree:

* Choi route: minimal positive completion of the block problem;
* Stinespring route: compress a seed completion's dilation to the
  reducing subspace generated by ``V P_R``.

Both results are Gram matrices of few factors, and both routes stay in
that factor form (Anderson & Trapp, *Shorted operators II*, 1975, for
the block side): the least completion is ``Y Y*`` for the ``n x rank A``
factor ``Y = [V sqrt(w); C V / sqrt(w)]``, ``A V = V w`` over the
eigenvalues the rank rule keeps, and the compression has one Kraus factor
per dimension of the reducing subspace.  No dilation-sized projector is
formed, and an ``n x n`` completion is assembled and lifted only when what
the rank rule dropped from the factor could exceed what the equality rule
forgives on the data; it then copies the known blocks.

Decisions run in an orthonormal basis adapted to the splitting, ``ran P``
first: there ``A`` is ``m x m`` (``m = rank P``) and ``C`` is
``(n-m) x m``.  One eigendecomposition of that ``A`` gives its smallest
eigenvalue, its kernel and ``A^+``; the factor ``Y`` is formed in the
same basis and only its rows are rotated back.  A partial map needs no
``n x n`` projection for this: its basis is ``I (x) [U | U_perp]``, with
``U`` from the SVD of ``R``, applied one ``d_out``-block at a time.  A
``BlockCompletionProblem`` stores its blocks in operator form (``n x n``
matrices with ``A = P A P`` and ``C = (I-P) C P``) and is compressed by
the eigenvectors of ``P``; ``from_blocks`` accepts the familiar compact
``[[A, C*], [C, *]]`` corner layout.

Column form.  ``PartialCpMap`` stacks its blocks once into the known Choi
column ``[beta(E_ij)]`` and factorizes ``R`` once, by its ideal check's SVD;
each route splits the column once and decides once, from the smallest
eigenvalue of ``A`` and the leak ``||C|_{ker A}||_2`` -- the two numbers a
``NotCompletable`` carries.  The leak is tested by its Frobenius norm
first, an upper bound on the 2-norm: below the cutoff it settles the test
with the same answer, and the 2-norm (an SVD) is taken only when it does
not or ``A`` fails the PSD test, so a ``NotCompletable`` still carries the
exact number; ``cp_completable``, which carries none, stops at its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .cp_map import CpMap
from .errors import (
    DimensionMismatch,
    MalformedPartialMap,
    NotCompletable,
    NotCP,
    RNotProjection,
    SeedNotACompletion,
)
from .linalg import DEFAULT_TOL, Tolerance
from .stinespring import _compression, minimal_stinespring

__all__ = [
    "BlockCompletionProblem",
    "PartialCpMap",
    "block_completable",
    "minimal_block_completion",
    "cp_completable",
    "minimal_cp_completion_choi",
    "minimal_cp_completion_stinespring",
]


def _check_projection(p: np.ndarray, what: str) -> np.ndarray:
    p = linalg.require_hermitian(p)
    if not linalg.negligible(p @ p - p, DEFAULT_TOL, p):
        raise RNotProjection(f"{what} is not an orthogonal projection")
    return p


@dataclass(frozen=True, eq=False)
class BlockCompletionProblem:
    """Known data of a partially specified PSD matrix.

    ``p`` is the splitting projection; ``a`` and ``c`` are the known
    compression and off-diagonal block in operator form (``a = p a p``,
    ``c = (1-p) c p``, both ``n x n``).
    """

    p: np.ndarray
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        p = _check_projection(self.p, "the splitting")
        a = linalg.require_hermitian(self.a)
        c = linalg.as_matrix(self.c)
        n = p.shape[0]
        if a.shape != (n, n) or c.shape != (n, n):
            raise DimensionMismatch("blocks must match the splitting dimension")
        comp = np.eye(n, dtype=complex) - p
        if not linalg.negligible(p @ a @ p - a, DEFAULT_TOL, a):
            raise DimensionMismatch("diagonal block is not supported on ran P")
        if not linalg.negligible(comp @ c @ p - c, DEFAULT_TOL, c):
            raise DimensionMismatch(
                "off-diagonal block must map ran P into its complement"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_blocks(cls, a, c) -> "BlockCompletionProblem":
        """Build from compact corner blocks ``a`` (r x r) and ``c`` (s x r).

        The splitting projection is onto the first ``r`` coordinates of
        ``C^{r+s}``, matching the ``[[A, C*], [C, *]]`` corner picture.
        """
        a = linalg.as_matrix(a)
        c = linalg.as_matrix(c)
        r = a.shape[0]
        if a.shape != (r, r):
            raise DimensionMismatch("diagonal block must be square")
        if c.shape[1] != r:
            raise DimensionMismatch("off-diagonal block must have r columns")
        s = c.shape[0]
        n = r + s
        p = np.zeros((n, n), dtype=complex)
        p[:r, :r] = np.eye(r)
        a_op = np.zeros((n, n), dtype=complex)
        a_op[:r, :r] = a
        c_op = np.zeros((n, n), dtype=complex)
        c_op[r:, :r] = c
        return cls(p=p, a=a_op, c=c_op)


@dataclass(frozen=True, eq=False)
class _Split:
    """Known blocks in an orthonormal basis ``ran P (+) ran P^perp``.

    ``a`` (``m x m``, Hermitian) and ``c`` (``(n-m) x m``) are ``A`` and
    ``C`` in that basis; ``lift`` carries the rows of an ``n``-row factor
    written in it back to the original coordinates (the basis change
    ``B``, so that ``Y Y*`` lifts to ``B Y Y* B*``).  ``data`` are the
    arrays the blocks were read from, and a change of 2-norm ``e`` to
    ``[A; C]`` moves no entry of their reproduction by more than ``reach *
    e``.
    """

    a: np.ndarray
    c: np.ndarray
    lift: Callable[[np.ndarray], np.ndarray]
    reach: float
    data: tuple


def _compress(problem: BlockCompletionProblem) -> _Split:
    """The operator-form blocks in the eigenbasis of the splitting ``P``."""
    w, q = np.linalg.eigh(problem.p)
    inside = w > 0.5
    basis = np.hstack([q[:, inside], q[:, ~inside]])
    m = int(np.count_nonzero(inside))
    q_in, q_out = basis[:, :m], basis[:, m:]
    a = q_in.conj().T @ problem.a @ q_in
    return _Split(a=(a + a.conj().T) / 2.0,
                  c=q_out.conj().T @ problem.c @ q_in,
                  lift=lambda y: basis @ y,
                  reach=1.0, data=(problem.a, problem.c))


def _decide(a: np.ndarray, c: np.ndarray, tol: Tolerance, *,
            exact: bool = False, verdict: bool = False):
    """``(completable, min eigenvalue of A, leak, kept eigenpairs of A,
    largest |eigenvalue| dropped)``.

    ``A >= 0`` and ``ker A <= ker C`` are read at the data's own scale
    ``s = max(max |lambda(A)|, max |C|)``, with no floor: the eigenvalue
    is at least ``-eps_psd * s`` (:func:`linalg._psd_slack` with ``s``
    named), ``ker A`` is spanned by the eigenvectors whose ``|lambda|``
    the rank rule :func:`linalg.kept` drops at ``s`` and, once ``A``
    passes, by those below zero (kept only when ``eps_psd`` exceeds
    ``eps_rank``), so every eigenvalue kept is positive, and the leak
    ``||C|_{ker A}||_2`` must be dropped by that rule at ``s`` too.  The
    eigenpairs it keeps are returned for ``A^+``.  Since ``||X||_2 <=
    ||X||_F``, a Frobenius norm the rule drops passes the leak test; then,
    unless ``exact`` is set, the leak returned is that Frobenius norm.
    Otherwise it is the 2-norm.  With ``verdict`` set only ``completable``
    is returned, once known: after a failed PSD test, or when the rule keeps
    half of ``||X||_F / sqrt(min(rows, cols)) <= ||X||_2``, no 2-norm.
    The last number is ``max |lambda|`` over the eigenvalues of ``ker A``
    (zero when there are none).
    """
    w, v = np.linalg.eigh(a)
    min_eig = float(w[0]) if w.size else 0.0
    if c.shape[0]:
        # P != I: as an n x n operator A also has the eigenvalue 0 on
        # ran(P)^perp
        min_eig = min(min_eig, 0.0)
    scale = max(linalg.max_abs(w), linalg.max_abs(c))
    psd = w.size == 0 or min_eig >= -linalg._psd_slack(w, tol, scale)
    if verdict and not psd:
        return False
    keep = linalg.kept(np.abs(w), tol, scale)
    if psd:
        keep &= w > 0.0
    null_leak = c @ v[:, ~keep]
    leak = float(np.linalg.norm(null_leak))
    if null_leak.size and (exact or not psd
                           or linalg.kept([leak], tol, scale)[0]):
        if verdict and linalg.kept([leak / 2.0 / np.sqrt(min(null_leak.shape))],
                                   tol, scale)[0]:
            return False
        leak = float(np.linalg.norm(null_leak, ord=2))
    completable = psd and not linalg.kept([leak], tol, scale)[0]
    if verdict:
        return completable
    return (completable, min_eig, leak, (w[keep], v[:, keep]),
            linalg.max_abs(w[~keep]))


def _least_completion(split: _Split, tol: Tolerance):
    """The least completion ``A + C + C* + C A^+ C*`` in the original
    coordinates: ``(Y, None)`` for a factor ``Y`` (``n x rank A``) with
    that Gram matrix, or ``(None, M)`` for the matrix itself.

    With the eigenpairs ``A V = V w`` the decision keeps, ``Y = [V
    sqrt(w); C V / sqrt(w)]``: its Gram matrix has the corner ``C A^+ C*``
    and, where the data has ``A`` and ``C``, ``V w V*`` and ``C V V*``.
    They differ by what the rank rule dropped, ``[V_0 w_0; C V_0] V_0*``
    over the other eigenpairs, whose 2-norm is at most ``hypot(max |w_0|,
    leak)``: up to ``eps_rank`` times the decision's scale, which may be
    ``m`` times the data's largest entry and so more than the equality rule
    forgives.  When that bound, times ``split.reach``, is not negligible
    against ``split.data``, the known blocks are put back as they are and
    ``M = [A, C*; C, C A^+ C*]`` is returned, lifted on both sides and
    symmetrized.  Raises NotCompletable, with the two deciding numbers,
    when no completion exists.
    """
    completable, min_eig, leak, (w, v), dropped = _decide(split.a, split.c,
                                                          tol)
    if not completable:
        raise NotCompletable(min_eig, leak)
    root = np.sqrt(w)
    y = np.vstack([v * root, (split.c @ v) / root])
    if linalg.negligible(np.hypot(dropped, leak) * split.reach, tol,
                         *split.data):
        return split.lift(y), None
    z = y[split.a.shape[0]:]
    full = np.block([[split.a, split.c.conj().T],
                     [split.c, z @ z.conj().T]])
    # B M B*, from the lift of rows alone
    full = split.lift(split.lift(full).conj().T).conj().T
    return None, linalg._hermitian_part(full)


def block_completable(problem: BlockCompletionProblem,
                      tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the block data extends to some PSD matrix.

    The test is ``A`` PSD together with ``ker A <= ker C`` (kernels taken
    inside ``ran P``); see the module docstring for why this matches the
    quadratic criterion ``C* C <= q A``.
    """
    split = _compress(problem)
    return _decide(split.a, split.c, tol, verdict=True)


def minimal_block_completion(problem: BlockCompletionProblem,
                             tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The least PSD completion ``A + C + C* + C A^+ C*``.

    Every completion differs from this one only in the free corner, and by
    a larger-or-equal PSD corner; NotCompletable is raised when no
    completion exists at all, carrying the two numbers that decided it.
    The result is the Gram matrix ``Y Y*`` of the factor of
    :func:`_least_completion`, symmetrized: exactly Hermitian and PSD, it
    reproduces the known blocks up to what the rank rule dropped.  When
    that could exceed what the equality rule forgives, the known blocks
    are copied instead.
    """
    y, full = _least_completion(_compress(problem), tol)
    return full if y is None else linalg._hermitian_part(y @ y.conj().T)


# ---------------------------------------------------------------------------
# partial CP maps


@dataclass(frozen=True, eq=False)
class PartialCpMap:
    """The data ``beta(X) = phi(X) R`` of an unknown CP map ``phi``.

    ``blocks[i][j]`` holds ``beta(E_ij)``; every block must lie in the
    right ideal ``M_{d_out} . R`` (i.e. vanish on ``ker R``, the
    orthocomplement of ``ran R*``), otherwise MalformedPartialMap is raised.
    The blocks are also kept stacked as the known Choi column
    ``[beta(E_ij)]``, which equals ``Choi(phi) (I (x) R)``.
    """

    d_in: int
    d_out: int
    r: np.ndarray
    blocks: tuple
    _column: np.ndarray = field(init=False, repr=False)
    _svd: tuple = field(init=False, repr=False)

    def __post_init__(self):
        d = self.d_out
        r = linalg.as_matrix(self.r)
        if r.shape != (d, d):
            raise DimensionMismatch(f"R has shape {r.shape}, expected {(d, d)}")
        object.__setattr__(self, "r", r)
        column = np.empty((self.d_in * d, self.d_in * d), dtype=complex)
        try:
            stacked = np.asarray(self.blocks, dtype=complex)
        except (TypeError, ValueError):  # ragged
            stacked = None
        if stacked is None or stacked.shape != (self.d_in, self.d_in, d, d):
            _name_bad_block(self.blocks, self.d_in, d)
        if not np.all(np.isfinite(stacked)):
            raise ValueError("matrix entries must be finite")
        column.reshape(self.d_in, d, self.d_in, d)[...] = stacked.swapaxes(1, 2)
        blocks = column.reshape(self.d_in, d, self.d_in, d).swapaxes(1, 2)
        object.__setattr__(self, "_svd",
                           np.linalg.svd(r, full_matrices=False))
        _, _, vh, rank = self._ranked_svd(DEFAULT_TOL)
        comp = np.eye(d, dtype=complex) - vh[:rank].conj().T @ vh[:rank]
        leaks = _times_blocks(column, comp, self.d_in).reshape(
            self.d_in, d, self.d_in, d).swapaxes(1, 2)
        if not linalg.negligible(leaks, DEFAULT_TOL, column):
            i, j = np.unravel_index(np.abs(leaks).argmax(), leaks.shape)[:2]
            raise MalformedPartialMap(f"block ({i},{j}) does not lie in M_d . R")
        # the blocks are views into the column
        object.__setattr__(self, "blocks", tuple(tuple(row) for row in blocks))
        object.__setattr__(self, "_column", column)

    @classmethod
    def from_map(cls, phi: CpMap, r) -> "PartialCpMap":
        r = linalg.as_matrix(r)
        d1, d2 = phi.d_in, phi.d_out
        if r.shape != (d2, d2):
            raise DimensionMismatch(f"R has shape {r.shape}, expected {(d2, d2)}")
        column = _times_blocks(phi.choi, r, d1)
        blocks = column.reshape(d1, d2, d1, d2).swapaxes(1, 2)
        return cls(d_in=d1, d_out=d2, r=r, blocks=blocks)

    def _ranked_svd(self, tol: Tolerance):
        """:func:`linalg.ranked_svd` of ``R``, from the SVD taken at build."""
        u, s, vh = self._svd
        return u, s, vh, int(np.count_nonzero(linalg.kept(s, tol)))

    def range_projection(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        u, _, _, rank = self._ranked_svd(tol)
        return u[:, :rank] @ u[:, :rank].conj().T

    def evaluate(self, x) -> np.ndarray:
        """beta(X) by linearity from the unit blocks."""
        x = linalg.as_matrix(x)
        d1, d2 = self.d_in, self.d_out
        return np.einsum("ij,iajb->ab", x, self._column.reshape(d1, d2, d1, d2))


def _name_bad_block(blocks, d_in: int, d: int) -> None:
    """Raise for blocks that do not stack to ``(d_in, d_in, d, d)``.

    Names the first block that is not a finite ``d x d`` matrix; when every
    block is one, the outer container has the wrong shape.
    """
    for i in range(d_in):
        for j in range(d_in):
            b = linalg.as_matrix(blocks[i][j])
            if b.shape != (d, d):
                raise DimensionMismatch(f"block ({i},{j}) has shape {b.shape}")
    raise DimensionMismatch(
        f"blocks do not form a {d_in} x {d_in} array of {d} x {d} blocks"
    )


def _times_blocks(column: np.ndarray, m: np.ndarray, d_in: int) -> np.ndarray:
    """``column (I_{d_in} (x) m)``: every block column of ``column`` times
    ``m``, as one GEMM over the ``rows * d_in`` block rows."""
    rows = column.shape[0]
    return (column.reshape(rows * d_in, m.shape[0]) @ m).reshape(rows, -1)


def _split_blocks(beta: PartialCpMap, tol: Tolerance) -> _Split:
    """The block problem induced by a partial CP map, in the basis of ``R``.

    Knowing ``phi(X) R`` is the same as knowing ``phi(X) P_R`` (multiply by
    the pseudo-inverse of ``R`` or by ``R`` itself), so the known Choi
    column is ``N = [beta(E_ij) R^+]`` and the splitting is
    ``P = I (x) P_R``.  With ``R = U S V*`` (``U = [U_r | U_perp]``) the
    known columns are ``N (I (x) U_r) = [beta(E_ij) V_r S_r^{-1}]``, and
    ``N (I (x) U_perp) = 0`` exactly since ``R^+ U_perp = 0``.  Rotating
    their rows by ``I (x) U*`` gives ``A`` and ``C``.  The known
    compression must be Hermitian (equivalently
    ``beta(E_ij)* ~ beta(E_ji)`` against ``R``); when it is not,
    NotCompletable is raised with the numbers of its Hermitian part.
    """
    d1, d2 = beta.d_in, beta.d_out
    n = d1 * d2
    u, s, vh, r = beta._ranked_svd(tol)
    known = _times_blocks(beta._column, vh[:r].conj().T / s[:r], d1)
    rotated = u.conj().T @ known.reshape(d1, d2, d1 * r)
    a = rotated[:, :r].reshape(d1 * r, d1 * r)
    c = rotated[:, r:].reshape(n - d1 * r, d1 * r)
    order = np.arange(n).reshape(d1, d2)
    # positions of the ran P and ran P^perp coordinates among I (x) U's
    perm = np.concatenate([order[:, :r].ravel(), order[:, r:].ravel()])

    def lift(y: np.ndarray) -> np.ndarray:
        blocked = np.empty_like(y)
        blocked[perm] = y
        return (u @ blocked.reshape(d1, d2, -1)).reshape(n, -1)

    hermitian = linalg.negligible(a - a.conj().T, tol, a)
    a = (a + a.conj().T) / 2.0
    if not hermitian:
        _, min_eig, leak, *_ = _decide(a, c, tol, exact=True)
        raise NotCompletable(min_eig, leak,
                             "the known compression is not Hermitian")
    # the column is N (I (x) U_r S_r V_r*): a change to N's known blocks
    # grows by at most the largest singular value of R
    return _Split(a=a, c=c, lift=lift, reach=float(s[0]),
                  data=(beta._column,))


def cp_completable(beta: PartialCpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether some CP map ``phi`` satisfies ``phi(X) R = beta(X)``.

    Reduces to positive completability of the known Choi column, with the
    additional self-consistency requirement that the known compression be
    Hermitian (equivalently ``beta(E_ij)* ~ beta(E_ji)`` against ``R``).
    """
    try:
        split = _split_blocks(beta, tol)
    except NotCompletable:
        return False
    return _decide(split.a, split.c, tol, verdict=True)


def minimal_cp_completion_choi(beta: PartialCpMap,
                               tol: Tolerance = DEFAULT_TOL) -> CpMap:
    """Minimal CP completion via the positive block completion of the Choi.

    The PSD order on Choi matrices is the CP domination order, and all
    completions share everything but the free corner, so the least block
    completion is the Choi matrix of the least CP completion.  It is given
    by factors: each column ``y`` of the factor ``Y`` of
    :func:`_least_completion` is a Choi vector, the Kraus factor
    ``conj(y)`` reshaped to ``d_in x d_out``, so the result is CP by
    construction and its Choi matrix is the Gram matrix ``Y Y*``.  In
    exchange for being exactly PSD, that Choi matrix reproduces the known
    blocks up to what the rank rule dropped (at most ``eps_rank`` times the
    decision's scale) rather than exactly.

    That scale is ``A``'s largest eigenvalue, which may be ``m`` times the
    data's largest entry: an eigenvalue of ``A``, or a leak of ``C`` into
    ``ker A``, just under the rank cutoff may then exceed what the equality
    rule forgives, and the factor would not reproduce ``beta``.  When the
    drop is that large (``d_out = 1``, ``R = 1`` and ``A = J_3 + 2.7e-9 u
    u*``, ``u = (e_1 - e_2) / sqrt 2``), the completion is given by its
    Choi matrix with the known blocks copied, PSD within the slack the
    decision allowed.
    """
    y, full = _least_completion(_split_blocks(beta, tol), tol)
    if y is None:
        return CpMap.from_choi(full, beta.d_in, beta.d_out)
    factors = y.conj().T.reshape(-1, beta.d_in, beta.d_out)
    return CpMap.from_kraus(list(factors), beta.d_in, beta.d_out)


def _seed_completes(beta: PartialCpMap, seed: CpMap, tol: Tolerance) -> bool:
    """Whether ``seed`` matches the data, complete positivity aside.

    A seed given by Kraus factors is CP by construction; one given by its
    Choi matrix is tested by the one eigendecomposition that extracts its
    factors, in :func:`minimal_stinespring`.
    """
    if (seed.d_in, seed.d_out) != (beta.d_in, beta.d_out):
        return False
    got = _times_blocks(seed.choi, beta.r, beta.d_in)
    return linalg.negligible(got - beta._column, tol, got, beta._column)


def minimal_cp_completion_stinespring(beta: PartialCpMap, seed: CpMap,
                                      tol: Tolerance = DEFAULT_TOL) -> CpMap:
    """Minimal CP completion via compression of a seed completion.

    Given any CP completion ``seed``, the subspace generated by
    ``pi(X) V P_R h`` inside the seed's minimal dilation is reducing; the
    compression of the dilation to it is the unique minimal completion,
    independent of which seed was supplied.  It is returned by its
    ``dim S`` Kraus factors, ``Q* [K_1; ..; K_k]`` for an orthonormal basis
    ``Q`` of the subspace's factor ``S``.  SeedNotACompletion is raised
    when the seed does not actually complete ``beta``.
    """
    message = "the seed map is not a CP completion of the partial data"
    if not _seed_completes(beta, seed, tol):
        raise SeedNotACompletion(message)
    if seed.is_zero():
        return CpMap.zero(beta.d_in, beta.d_out)
    try:
        triple = minimal_stinespring(seed, tol)
    except NotCP:
        raise SeedNotACompletion(message) from None
    return _compression(triple, beta.range_projection(tol), tol)
