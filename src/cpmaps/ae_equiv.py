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
* whether R-equivalence and a matched unit pin ``phi`` down, and the
  counterexample when they do not (:func:`forced_equality_scan`,
  :func:`counterexample_construct`), are one decision.  A CP ``psi``
  R-equivalent to ``phi`` completes the same data, so by minimality
  ``psi = alpha + rho`` with ``rho`` CP and ``rho(.) R = 0``; then
  ``psi(I) = phi(I)`` iff ``rho(I) = D := phi(I) - alpha(I) >= 0``.  If
  ``D = 0``, ``rho`` is CP with zero unit value, so ``rho = 0`` and
  ``psi = phi``.  Otherwise every ``rho_i(X) = <e_i, X e_i> D`` qualifies
  (``D R = 0`` because the remainder vanishes on ``R``); for
  ``d_in >= 2``, ``rho_0 != rho_1``, so ``alpha + rho_0`` or
  ``alpha + rho_1`` is a distinct ``psi``, and for ``d_in = 1`` every CP
  ``psi`` is ``x -> x psi(1)``, fixed by its unit.  Hence ``phi`` is rigid
  at ``R`` iff ``phi = alpha`` or ``d_in = 1``.  At a quasi-purity
  witness ``h0`` the vector ``V h0`` is not cyclic, so ``alpha != phi`` at
  ``R = |h0><h0|``: every witness of a map on ``M_{d_in}``,
  ``d_in >= 2``, carries a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import linalg
from .completion import _times_blocks
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
from .stinespring import (map_from_dilation, minimal_stinespring,
                          reducing_projection)

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
    ``{X : xi(X* X) = 0} = M . (I - P)``.  Raises ZeroMap on the zero map,
    and NotCP, from :func:`minimal_kraus`, on a non-CP map.
    """
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


def _operator_on_codomain(phi: CpMap, r) -> np.ndarray:
    """``r`` as a ``d_out x d_out`` matrix; DimensionMismatch otherwise."""
    r = linalg.as_matrix(r)
    if r.shape != (phi.d_out, phi.d_out):
        raise DimensionMismatch(
            f"R has shape {r.shape}, expected {(phi.d_out, phi.d_out)}")
    return r


def _completion_along(phi: CpMap, r: np.ndarray, tol: Tolerance) -> CpMap:
    """The ``alpha`` of :func:`decompose_along` for a nonzero ``phi``."""
    triple = minimal_stinespring(phi, tol)
    q = reducing_projection(triple, linalg.range_projection(r, tol), tol)
    return map_from_dilation(q @ triple.v, phi.d_in, phi.d_out,
                             triple.multiplicity)


def decompose_along(phi: CpMap, r,
                    tol: Tolerance = DEFAULT_TOL) -> DecompositionResult:
    """Decompose a CP map along an operator.

    ``phi`` itself completes its own data, so ``alpha`` compresses phi's own
    minimal dilation to the subspace generated by ``V P_R``, with no partial
    map built; the remainder is CP because ``alpha`` is dominated by ``phi``.
    The zero map splits into two zero maps.  Raises DimensionMismatch for an
    ``R`` of the wrong shape and NotCP, from :func:`minimal_stinespring`, on
    a non-CP ``phi``.
    """
    r = _operator_on_codomain(phi, r)
    if phi.is_zero():
        zero = CpMap.zero(phi.d_in, phi.d_out)
        return DecompositionResult(alpha=zero, phi1=zero)
    alpha = _completion_along(phi, r, tol)
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
    # phi's complete positivity is decided by is_quasipure's factorization
    if not is_cp(psi, tol):
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
    projection is then reused.  The projection is taken first: its one
    factorization of ``xi`` decides the first gate.
    """
    ctx = _coerce_context(xi)
    xi = ctx.xi
    if xi is not None:
        try:
            ctx.projection(tol)
        except (NotCP, ZeroMap):
            xi = None
    if xi is None:
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
# forced equality and counterexamples


def _distinct_completion(phi: CpMap, r,
                         tol: Tolerance) -> Optional[CpMap]:
    """A CP ``psi != phi``, R-equivalent and unit-matched, or None.

    ``psi = alpha + rho_i`` with ``alpha`` of :func:`decompose_along` and
    ``rho_i(X) = <e_i, X e_i> D``, ``D = phi(I) - alpha(I)``, built from
    ``alpha``'s factors and ``e_i f_a*`` for the kept columns ``f_a`` of
    ``D^{1/2}``; ``i = 1`` is tried when ``psi_0`` equals ``phi``.  None
    when ``D`` keeps no eigenvalue at the scale of ``phi(I)``, or when no
    ``psi_i`` differs from ``phi`` (always so on ``M_1``), and for the zero
    map, which a zero unit pins down.
    """
    r = _operator_on_codomain(phi, r)
    if phi.is_zero():
        return None
    alpha = _completion_along(phi, r, tol)
    unit = phi.unit()
    w, u = linalg.eigh(unit - alpha.unit())
    pos = linalg.kept(w, tol, linalg.max_abs(unit))
    if not pos.any():
        return None
    rows = (u[:, pos] * np.sqrt(w[pos])).conj().T  # the f_a*
    for i in range(min(phi.d_in, 2)):
        extra = np.zeros((len(rows), phi.d_in, phi.d_out), dtype=complex)
        extra[:, i, :] = rows
        psi = CpMap.from_kraus(list(alpha.kraus) + list(extra),
                               phi.d_in, phi.d_out)
        if not maps_close(psi, phi, tol):
            return psi
    return None


def counterexample_construct(phi: CpMap, witness,
                             tol: Tolerance = DEFAULT_TOL
                             ) -> Optional[Tuple[CpMap, np.ndarray]]:
    """Build ``psi != phi`` that matches ``phi`` through the witness.

    The construction of the module docstring at ``R = |h0><h0|``: at a
    quasi-purity witness ``h0`` the vector ``V h0`` is not cyclic, so the
    minimal completion of ``phi(.) R`` falls short of ``phi`` and, for
    ``d_in >= 2``, a counterexample exists.  Returns ``(psi, R)``, checked
    once more against the promised postconditions (CP by construction, the
    same unit, R-equivalent, distinct), and None when ``phi`` is rigid at
    ``R`` (so ``h0`` is no witness) or a postcondition fails.  Raises
    WitnessInvalid for the zero vector, when ``phi(I) h0 = 0``, and when
    ``phi`` is rigid at ``R`` and provably quasi-pure (no witness exists at
    all); the witness is checked before the map, whose complete positivity
    the one factorization, :func:`minimal_stinespring`, decides (NotCP).
    """
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

    r = np.outer(h0, h0.conj())
    psi = _distinct_completion(phi, r, tol)
    if psi is None:
        verdict = is_quasipure(phi, tol)
        if verdict.status == QUASI_PURE and verdict.is_proof:
            raise WitnessInvalid("the map is quasi-pure; no witness exists")
        return None
    psi_unit = psi.unit()
    diff = phi.choi - psi.choi
    # final validation of the promised postconditions
    if (not linalg.negligible(psi_unit - unit, tol, psi_unit, unit)
            or not _equivalent(r, diff, phi, psi, tol)
            or linalg.negligible(diff, tol, phi.choi, psi.choi)):
        return None
    return psi, r


def forced_equality_scan(phi: CpMap, r, *,
                         tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether R-equivalence plus a matched unit value pin ``phi`` down.

    True iff no CP ``psi != phi`` with ``psi(I) = phi(I)`` is R-equivalent
    to ``phi``: by the argument of the module docstring, iff ``phi`` is the
    minimal completion of ``phi(.) R`` (``D = 0``) or ``d_in = 1``.
    Raises DimensionMismatch for an ``R`` of the wrong shape and NotCP for
    a non-CP ``phi``.
    """
    return _distinct_completion(phi, r, tol) is None
