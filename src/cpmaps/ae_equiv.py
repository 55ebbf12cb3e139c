"""Equivalence of CP maps against an operator, and when it forces equality.

Two maps are *R-equivalent* when ``phi(X) R = psi(X) R`` for every ``X``;
only the range projection of ``R`` matters.  When the comparison operator
is the support projection of a reference CP map ``xi`` (the smallest
projection ``P`` with ``xi(P) = xi(I)``), R-equivalence is equality
almost everywhere with respect to ``xi``: the differences live in the
null ideal ``{X : xi(X* X) = 0}``.

The central structural facts made executable here:

* every ``phi`` splits uniquely as ``phi = alpha + remainder`` where
  ``alpha`` is the minimal CP completion of ``X -> phi(X) R`` (so
  ``alpha`` is R-equivalent to ``phi``) and the remainder is R-equivalent
  to zero (:func:`decompose_along`);
* rigidity: if ``phi`` is quasi-pure, ``phi(I) = psi(I)``, the maps are
  R-equivalent, and ``phi(.) R`` is not identically zero, then
  ``phi = psi`` (:func:`rigidity_check`);
* without quasi-purity, equality can genuinely fail:
  :func:`counterexample_construct` builds a distinct ``psi`` that is
  CP, unit-matched and R-equivalent to ``phi`` by twisting the dominated
  part of ``phi`` that vanishes on a quasi-purity witness, with one
  unitary read off the commutant of that part; None means no twist
  moves the map at that witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import linalg
from .completion import (
    PartialCpMap,
    _times_blocks,
    minimal_cp_completion_choi,
    minimal_cp_completion_stinespring,
)
from .cp_map import CpMap, apply, is_cp, maps_close, minimal_kraus
from .errors import (
    DimensionMismatch,
    HypothesisFailed,
    NotCP,
    WitnessInvalid,
    ZeroMap,
)
from .linalg import DEFAULT_TOL, Tolerance
from .quasipure import QUASI_PURE, QuasiPurityVerdict, is_quasipure
from .stinespring import (_minimal_triple, cyclic_projection,
                          map_from_dilation, reducing_projection)

__all__ = [
    "EquivalenceContext",
    "DecompositionResult",
    "RigidityVerdict",
    "THEOREM_HOLDS",
    "COUNTEREXAMPLE_FOUND",
    "support_projection",
    "r_equivalent",
    "decompose_along",
    "rigidity_check",
    "ae_equal_rigidity",
    "counterexample_construct",
    "forced_equality_scan",
]

THEOREM_HOLDS = "TheoremHolds"
COUNTEREXAMPLE_FOUND = "CounterexampleFound"


@dataclass(frozen=True, eq=False)
class EquivalenceContext:
    """What two maps are compared against: an operator or a reference map."""

    r: Optional[np.ndarray] = None
    xi: Optional[CpMap] = None
    _projections: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if (self.r is None) == (self.xi is None):
            raise ValueError(
                "provide exactly one of an operator R or a reference map xi"
            )
        if self.r is not None:
            object.__setattr__(self, "r", linalg.as_matrix(self.r))

    @classmethod
    def from_operator(cls, r) -> "EquivalenceContext":
        return cls(r=linalg.as_matrix(r))

    @classmethod
    def from_reference_map(cls, xi: CpMap) -> "EquivalenceContext":
        return cls(xi=xi)

    def projection(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """ran R, or the support of xi (cached per tolerance, read-only)."""
        if tol not in self._projections:
            p = (linalg.range_projection(self.r, tol) if self.r is not None
                 else support_projection(self.xi, tol))
            p.flags.writeable = False
            self._projections[tol] = p
        return self._projections[tol]


def support_projection(xi: CpMap, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Smallest projection ``P`` with ``xi(P) = xi(I)``.

    For Kraus factors ``K_j`` of ``xi`` this is the range projection of
    ``sum_j K_j K_j*``; its complement generates the null ideal
    ``{X : xi(X* X) = 0} = M . (I - P)``.  Raises NotCP / ZeroMap on
    inputs without a support.
    """
    if not is_cp(xi, tol):
        raise NotCP("support projections are defined for CP maps")
    if xi.is_zero():
        raise ZeroMap("the zero map has empty support")
    factors = minimal_kraus(xi, tol)
    gram = np.zeros((xi.d_in, xi.d_in), dtype=complex)
    for k in factors:
        gram += k @ k.conj().T
    p = linalg.range_projection(gram, tol)
    unit = xi.unit()
    if not linalg.negligible(apply(xi, p) - unit, tol, unit):
        raise NotCP("internal error: the support projection P fails "
                    "xi(P) = xi(I)")
    return p


def _coerce_context(ctx: Union[EquivalenceContext, CpMap, np.ndarray, list]
                    ) -> EquivalenceContext:
    if isinstance(ctx, EquivalenceContext):
        return ctx
    if isinstance(ctx, CpMap):
        return EquivalenceContext.from_reference_map(ctx)
    return EquivalenceContext.from_operator(ctx)


def r_equivalent(phi: CpMap, psi: CpMap,
                 ctx: Union[EquivalenceContext, CpMap, np.ndarray, list],
                 tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``phi(X) R = psi(X) R`` for all ``X`` (checked on units).

    Multiplying by ``R`` and by its pseudo-inverse shows only the range
    projection of ``R`` matters, so the comparison runs against the
    context's projection.
    """
    if (phi.d_in, phi.d_out) != (psi.d_in, psi.d_out):
        raise DimensionMismatch("maps act on different algebras")
    return _equivalent(_coerce_context(ctx).projection(tol),
                       phi.choi - psi.choi, phi, psi, tol)


def _equivalent(p, diff, phi: CpMap, psi: CpMap, tol: Tolerance) -> bool:
    """:func:`r_equivalent` against ``p``, given ``phi.choi - psi.choi``."""
    if p.shape != (phi.d_out, phi.d_out):
        raise DimensionMismatch("comparison operator has the wrong dimension")
    masked = _times_blocks(diff, p, phi.d_in)
    return linalg.negligible(masked, tol, phi.choi, psi.choi)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Split ``phi = alpha + phi1`` along a comparison operator.

    ``alpha`` is the minimal CP completion of ``phi(.) R`` (R-equivalent
    to ``phi``); the remainder ``phi1`` is CP and R-equivalent to zero.
    """

    alpha: CpMap
    phi1: CpMap


def decompose_along(phi: CpMap, r,
                    tol: Tolerance = DEFAULT_TOL) -> DecompositionResult:
    """Decompose a CP map along an operator.

    ``phi`` itself completes its own data, so ``alpha`` compresses phi's own
    minimal dilation to the subspace generated by ``V P_R``, with no partial
    map built; the remainder is CP because ``alpha`` is dominated by ``phi``.
    """
    if not is_cp(phi, tol):
        raise NotCP("decomposition requires a completely positive map")
    r = linalg.as_matrix(r)
    if r.shape != (phi.d_out, phi.d_out):
        raise DimensionMismatch("R does not act on the codomain of phi")
    if phi.is_zero():
        zero = CpMap.zero(phi.d_in, phi.d_out)
        return DecompositionResult(alpha=zero, phi1=zero)
    triple = _minimal_triple(phi, tol)
    q = reducing_projection(triple, linalg.range_projection(r, tol), tol)
    alpha = map_from_dilation(q @ triple.v, phi.d_in, phi.d_out,
                              triple.multiplicity)
    return DecompositionResult(alpha=alpha, phi1=phi - alpha)


@dataclass(frozen=True, eq=False)
class RigidityVerdict:
    """Outcome of a rigidity check whose hypotheses all held."""

    status: str
    max_deviation: float
    quasipurity: QuasiPurityVerdict


def rigidity_check(phi: CpMap, psi: CpMap, r,
                   tol: Tolerance = DEFAULT_TOL, *,
                   budget: int = 2000) -> RigidityVerdict:
    """Machine-check the hypotheses that force ``phi = psi``, then compare.

    Hypotheses (HypothesisFailed with the culprit's name when violated):

    * ``phi`` is quasi-pure with a proof-grade verdict;
    * ``phi(I) = psi(I)``;
    * the maps are R-equivalent;
    * ``phi(.) R`` is not identically zero.

    Under these the maps must agree outright, by :func:`maps_close`; a
    ``CounterexampleFound`` status would indicate a defect in this package,
    not new mathematics.  ``r`` may also be a context, whose projection is
    then reused.
    """
    if (phi.d_in, phi.d_out) != (psi.d_in, psi.d_out):
        raise DimensionMismatch("maps act on different algebras")
    if not is_cp(phi, tol) or not is_cp(psi, tol):
        raise NotCP("rigidity concerns completely positive maps")
    ctx = _coerce_context(r)

    verdict = is_quasipure(phi, tol, budget=budget)
    if not (verdict.status == QUASI_PURE and verdict.is_proof):
        raise HypothesisFailed(
            "quasi-purity",
            f"need a proof-grade quasi-pure map, got {verdict.status} "
            f"({verdict.method})",
        )

    units = phi.unit(), psi.unit()
    if not linalg.negligible(units[0] - units[1], tol, *units):
        raise HypothesisFailed("unit-values", "phi(I) != psi(I)")

    diff = phi.choi - psi.choi  # R-equivalence, equality and the deviation
    if not _equivalent(ctx.projection(tol), diff, phi, psi, tol):
        raise HypothesisFailed("r-equivalence", "phi(X) R != psi(X) R")

    masked = _times_blocks(phi.choi, ctx.projection(tol), phi.d_in)
    if linalg.negligible(masked, tol, phi.choi):
        raise HypothesisFailed("vanishes-on-r", "phi(.) R is identically zero")

    status = (THEOREM_HOLDS if linalg.negligible(diff, tol, phi.choi, psi.choi)
              else COUNTEREXAMPLE_FOUND)
    deviation = linalg.max_abs(diff)
    return RigidityVerdict(status=status, max_deviation=float(deviation),
                           quasipurity=verdict)


def ae_equal_rigidity(phi: CpMap, psi: CpMap,
                      xi: Union[CpMap, EquivalenceContext],
                      tol: Tolerance = DEFAULT_TOL, *,
                      budget: int = 2000) -> RigidityVerdict:
    """Rigidity against the support projection of a reference CP map.

    Adds two gates on the reference map: it must be CP and nonzero, and
    the composition ``xi . phi`` must not vanish (checked on its Choi
    matrix); then delegates to :func:`rigidity_check` with the support
    projection.  ``xi`` may also be a reference-map context, whose
    projection is then reused.
    """
    ctx = _coerce_context(xi)
    xi = ctx.xi
    if xi is None or not is_cp(xi, tol) or xi.is_zero():
        raise HypothesisFailed("reference-map",
                               "the reference map must be CP and nonzero")
    if xi.d_in != phi.d_out:
        raise DimensionMismatch(
            "the reference map must act on the codomain of phi"
        )
    # Choi blocks: phi(E_ij) = phi_t[i, :, j, :] and xi(E_ab) = xi_t[a, :, b, :]
    phi_t = phi.choi.reshape(phi.d_in, phi.d_out, phi.d_in, phi.d_out)
    xi_t = xi.choi.reshape(xi.d_in, xi.d_out, xi.d_in, xi.d_out)
    composed = np.einsum("iajb,acbe->icje", phi_t, xi_t)
    if linalg.negligible(composed, tol, xi.choi):
        raise HypothesisFailed("vanishes-on-r", "xi . phi is identically zero")
    return rigidity_check(phi, psi, ctx, tol, budget=budget)


# ---------------------------------------------------------------------------
# counterexamples without quasi-purity


def counterexample_construct(phi: CpMap, witness,
                             tol: Tolerance = DEFAULT_TOL
                             ) -> Optional[Tuple[CpMap, np.ndarray]]:
    """Build ``psi != phi`` that matches ``phi`` through the witness.

    Given a quasi-purity witness ``h0``, the compression of ``phi`` to the
    complement of the witness's cyclic subspace is a nonzero CP map
    ``alpha <= phi`` with ``alpha(X) h0 = 0`` for every ``X``.  Any ``Z``
    with ``Z h0 = 0`` and ``Z* alpha(I) Z = alpha(I)`` yields

        ``psi = Z* alpha(.) Z + (phi - alpha)``,

    which is CP, unit-matched and R-equivalent to ``phi`` for
    ``R = |h0><h0|``; it differs from ``phi`` iff the twist moves some
    ``alpha(X)``.  Writing ``S = alpha(I)``, every admissible twist acts
    as ``Z = S^{+1/2} U S^{1/2}`` for a unitary ``U`` of ``ran S`` (plus
    irrelevant pieces into ``ker S``).  With
    ``B_ij = S^{+1/2} alpha(E_ij) S^{+1/2}`` on ``ran S`` we have
    ``alpha(E_ij) = S^{1/2} B_ij S^{1/2}`` and
    ``Z* alpha(E_ij) Z = S^{1/2} U* B_ij U S^{1/2}``, so a twist moves
    ``alpha`` exactly when ``U`` fails to commute with some ``B_ij``, and
    some twist does exactly when some ``B_ij`` is not a scalar.  The one
    candidate takes the Hermitian or anti-Hermitian part of the ``B_ij``
    farthest (in Frobenius norm) from a scalar and swaps its eigenvectors
    for the smallest and the largest eigenvalue: that moves the part by
    the whole spread of its spectrum.

    Returns ``(psi, R)`` on success, and None when no admissible twist
    moves the map at this witness: every ``B_ij`` is a scalar (always so
    when ``rank S = 1``, and when a cyclic ``h0`` leaves nothing to
    twist), or the candidate leaves ``phi`` equal to itself by
    :func:`maps_close`, or fails a postcondition.  Raises WitnessInvalid
    when ``phi(I) h0 = 0``, when the compression fails to annihilate the
    witness numerically, or when the map is provably quasi-pure (no
    witness exists at all).  Every equality here is the package's one
    rule, :func:`linalg.negligible`.
    """
    if not is_cp(phi, tol):
        raise NotCP("counterexamples start from a completely positive map")
    h0 = np.asarray(witness, dtype=complex).reshape(-1)
    if h0.shape != (phi.d_out,):
        raise DimensionMismatch("witness has the wrong length")
    norm = np.linalg.norm(h0)
    if norm == 0:
        raise WitnessInvalid("the zero vector cannot witness anything")
    h0 = h0 / norm
    unit = phi.unit()
    if linalg.negligible(unit @ h0, tol, unit):
        raise WitnessInvalid("phi(I) annihilates the witness")

    # one factorization: the triple's factors are minimal_kraus(phi)
    triple = _minimal_triple(phi, tol)
    factors = triple.kraus
    cols = np.column_stack([k @ h0 for k in factors])
    rank = linalg.numerical_rank(cols, tol)
    if rank >= len(factors):
        # h0 is cyclic, so the dominated part vanishing on it is zero and
        # the construction can only reproduce phi.  Distinguish "the map
        # has no witnesses at all" from "this h0 just is not one".
        verdict = is_quasipure(phi, tol)
        if verdict.status == QUASI_PURE and verdict.is_proof:
            raise WitnessInvalid("the map is quasi-pure; no witness exists")
        return None

    q = cyclic_projection(triple, h0, tol)
    eye = np.eye(triple.dilation_dim, dtype=complex)
    alpha = map_from_dilation((eye - q) @ triple.v, phi.d_in, phi.d_out,
                              triple.multiplicity)
    if linalg.negligible(alpha.choi, tol, phi.choi):
        raise WitnessInvalid("the witness generates a cyclic subspace; "
                             "no dominated map vanishes on it")
    s = alpha.unit()
    if not linalg.negligible(s @ h0, tol, s):
        raise WitnessInvalid("the compression does not annihilate the witness")

    w, u = linalg.eigh(s)
    pos = linalg.kept(w, tol)
    rank_s = int(np.count_nonzero(pos))
    if rank_s == 0:
        raise WitnessInvalid("the compression has zero unit value")
    if rank_s == 1:
        # every B_ij is 1 x 1, a scalar: no twist moves alpha
        return None
    basis = u[:, pos]  # orthonormal basis of ran S
    sqrt_w = np.sqrt(w[pos])
    s_half = basis * sqrt_w          # S^{1/2} restricted: C^{rank} <- ...
    s_inv_half = basis / sqrt_w

    # alpha(E_ij) for every matrix unit: the blocks of its Choi matrix
    alpha_units = alpha.choi.reshape(
        phi.d_in, phi.d_out, phi.d_in, phi.d_out).swapaxes(1, 2)

    # every B_ij on ran S, and its squared Frobenius distance to the
    # scalars, ||B||^2 - |tr B|^2 / r
    b = (s_inv_half.conj().T @ alpha_units @ s_inv_half).reshape(
        -1, rank_s, rank_s)
    distance = (np.einsum("kpq,kpq->k", b, b.conj()).real
                - np.abs(np.trace(b, axis1=1, axis2=2)) ** 2 / rank_s)
    far = b[np.argmax(distance)]
    parts = [(far + far.conj().T) / 2.0, (far - far.conj().T) / 2.0j]
    offsets = [np.linalg.norm(p - np.trace(p).real / rank_s * np.eye(rank_s))
               for p in parts]
    _, vecs = np.linalg.eigh(parts[int(offsets[1] > offsets[0])])
    # the reflection I - v v*, v = x - y, exchanges the eigenvectors x and
    # y of the smallest and the largest eigenvalue
    v = vecs[:, 0] - vecs[:, -1]
    swap = np.eye(rank_s) - np.outer(v, v.conj())
    z = s_inv_half @ swap @ s_half.conj().T

    # psi's family: alpha's factors twisted by z, then the factors
    # (q V)[j::k] of the kept part phi - alpha
    kept, k = q @ triple.v, triple.multiplicity
    psi = CpMap.from_kraus([f @ z for f in alpha.kraus]
                           + [kept[j::k, :] for j in range(k)],
                           phi.d_in, phi.d_out)
    psi_unit = psi.unit()
    r = np.outer(h0, h0.conj())
    diff = phi.choi - psi.choi
    # final validation of the promised postconditions
    if (not is_cp(psi, tol)
            or not linalg.negligible(psi_unit - unit, tol, psi_unit, unit)
            or not _equivalent(linalg.range_projection(r, tol), diff,
                               phi, psi, tol)
            or linalg.negligible(diff, tol, phi.choi, psi.choi)):
        return None
    return psi, r


def forced_equality_scan(phi: CpMap, r, *,
                         tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether R-equivalence plus a matched unit value pin ``phi`` down.

    By the minimal completion theorem the data ``beta = phi(.) R`` has a
    unique minimal CP completion ``alpha``, dominated by every completion.
    If ``alpha = phi``, any CP ``psi`` that is R-equivalent to ``phi``
    completes ``beta``, so ``psi - phi`` is CP.  If also
    ``psi(I) = phi(I)``, that excess has zero unit value; its Choi matrix
    is then PSD with trace ``tr (psi - phi)(I) = 0``, so ``psi = phi``.

    Returns True iff the minimal completion, computed by both routes,
    equals ``phi``; False when the routes disagree or the minimal
    completion differs from ``phi`` (distinct unit-matched completions
    may then exist).
    """
    beta = PartialCpMap.from_map(phi, r)
    via_choi = minimal_cp_completion_choi(beta, tol)
    via_stine = minimal_cp_completion_stinespring(beta, phi, tol)
    return (maps_close(via_choi, via_stine, tol)
            and maps_close(via_choi, phi, tol))
