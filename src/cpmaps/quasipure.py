"""Deciding quasi-purity of completely positive maps.

A CP map is *quasi-pure* when every nonzero vector in the range of its
minimal Stinespring ``V`` is cyclic for the dilated representation.  In
matrix-algebra terms, with minimal Kraus factors ``K_1..K_k``:

    the map is quasi-pure  iff  whenever some ``K_i h0 != 0`` the vectors
    ``K_1 h0, ..., K_k h0`` are linearly independent.

Equivalently, writing ``F(h0) = [K_1 h0 | ... | K_k h0]``, a *witness*
against quasi-purity is any ``h0`` with ``0 < rank F(h0) < k``.

Decision pipeline (:func:`is_quasipure`):

1. ``k == 1``: pure maps are quasi-pure.
2. Necessary conditions: quasi-purity forces ``k <= d_in`` and all factor
   kernels equal; a violation yields a concrete witness.
3. Reduce modulo the common kernel ``N`` of the factors (replace ``K_j`` by
   ``K_j B`` for an orthonormal basis ``B`` of ``N``'s complement); after
   step 2 each reduced factor is injective.
4. ``k == 2``: decision via the pencil ``z K_1 + K_2``
   (:func:`exact_pencil_k2`).  Row reduction turns it into an ``m x m``
   matrix ``M`` and a block ``B``; the pencil is singular exactly at the
   eigenvalues of ``M`` with an eigenvector in ``ker B``, so ``QuasiPure``
   is the observability rank test ``rank [B; BM; ...] == m``, exact over
   the Gaussian rationals, and witness candidates are eigenvalues of
   ``M``.  If the reduction leaves a single column the decision is a
   single rank check and exact for every ``k``.
5. Otherwise a seeded randomized search for witnesses; exhausting the
   budget yields ``Inconclusive`` unless the caller opts into trusting the
   randomized evidence.  A witness it finds is tagged
   ``RandomizedWitness``.

Verdicts carry a method tag; ``QuasiPure`` with method ``Pure``,
``ExactPencil`` or ``GridOracle`` is proof-grade, randomized evidence is
not.  Witnesses are always re-verified against the rank window before a
``NotQuasiPure`` verdict is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .cp_map import CpMap, is_cp, minimal_kraus
from .errors import (
    InconclusiveQuasiPurity,
    InputNotReduced,
    NotCP,
    TooLarge,
    ZeroMap,
)
from .linalg import DEFAULT_TOL, Tolerance
from .stinespring import map_from_contraction, minimal_stinespring

__all__ = [
    "QUASI_PURE",
    "NOT_QUASI_PURE",
    "INCONCLUSIVE",
    "METHOD_PURE",
    "METHOD_EXACT_PENCIL",
    "METHOD_NECESSARY",
    "METHOD_RANDOMIZED",
    "METHOD_SEARCH_WITNESS",
    "METHOD_GRID",
    "QuasiPurityVerdict",
    "is_quasipure",
    "exact_pencil_k2",
    "grid_oracle",
    "domination_preserves_quasipurity_check",
]

QUASI_PURE = "QuasiPure"
NOT_QUASI_PURE = "NotQuasiPure"
INCONCLUSIVE = "Inconclusive"

METHOD_PURE = "Pure"
METHOD_EXACT_PENCIL = "ExactPencil"
METHOD_NECESSARY = "NecessaryConditionViolated"
METHOD_RANDOMIZED = "RandomizedNoCounterexample"
METHOD_SEARCH_WITNESS = "RandomizedWitness"
METHOD_GRID = "GridOracle"

_PROOF_METHODS = frozenset({METHOD_PURE, METHOD_EXACT_PENCIL, METHOD_GRID})


@dataclass(frozen=True, eq=False)
class QuasiPurityVerdict:
    """Outcome of a quasi-purity decision.

    ``witness`` is present exactly when ``status == NotQuasiPure`` and is a
    unit vector with ``0 < rank F(witness) < k``.
    """

    status: str
    method: str
    witness: Optional[np.ndarray] = None
    samples_used: int = 0

    @property
    def is_proof(self) -> bool:
        """Proof-grade positive verdicts; randomized evidence is excluded."""
        if self.status == NOT_QUASI_PURE:
            return True
        return self.status == QUASI_PURE and self.method in _PROOF_METHODS


# ---------------------------------------------------------------------------
# witness handling


def _normalize(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return vec
    vec = vec / norm
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    return vec * (np.abs(pivot) / pivot)


def _factor_columns(factors, h0) -> np.ndarray:
    return np.column_stack([k @ h0 for k in factors])


def _witness_rank(factors, h0, tol: Tolerance) -> int:
    return linalg.numerical_rank(_factor_columns(factors, h0), tol)


def _is_witness(factors, h0, tol: Tolerance) -> bool:
    r = _witness_rank(factors, h0, tol)
    return 0 < r < len(factors)


def _not_quasipure(factors, h0, method: str, tol: Tolerance,
                   samples: int = 0) -> QuasiPurityVerdict:
    """Package a NotQuasiPure verdict, re-verifying the witness first."""
    h0 = _normalize(h0)
    if not _is_witness(factors, h0, tol):
        raise InputNotReduced(
            "internal error: candidate witness failed the rank window"
        )
    return QuasiPurityVerdict(status=NOT_QUASI_PURE, method=method,
                              witness=h0, samples_used=samples)


# ---------------------------------------------------------------------------
# common-kernel reduction


def _common_kernel_complement(factors, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis (columns) of the orthocomplement of cap_j ker K_j."""
    stacked = np.vstack(factors)
    null = linalg.kernel_basis(stacked, tol)
    d = factors[0].shape[1]
    if null.shape[1] == 0:
        return np.eye(d, dtype=complex)
    return linalg.kernel_basis(null.conj().T, tol)


# ---------------------------------------------------------------------------
# the k = 2 pencil


def _rationalize(x: float) -> Optional[Fraction]:
    """Recognize a float as a small rational (exact round-trip), else None."""
    if x != x or abs(x) == float("inf"):
        return None
    fr = Fraction(x).limit_denominator(10 ** 6)
    return fr if float(fr) == x else None


def _gaussian_rational_entries(mats):
    """Entries of each matrix as ``(re, im)`` fraction pairs, or None.

    Decided with ``fractions`` alone, so float input never loads sympy.
    """
    out = []
    for mat in mats:
        rows = []
        for row in np.asarray(mat, dtype=complex):
            entries = []
            for z in row:
                re = _rationalize(float(z.real))
                im = _rationalize(float(z.imag))
                if re is None or im is None:
                    return None
                entries.append((re, im))
            rows.append(entries)
        out.append(rows)
    return out


def _polish_root(l1, l2, z0, iters: int = 60):
    """Alternating refinement of a candidate singular point of the pencil.

    Alternates between the best kernel direction ``v`` at the current ``z``
    and the best ``z`` for the current ``v`` (a one-dimensional least
    squares); converges quadratically near a genuine singular point.
    """
    z = complex(z0)
    v = None
    for _ in range(iters):
        pencil = z * l1 + l2
        _, s, vh = np.linalg.svd(pencil)
        v = vh[-1, :].conj()
        a = l1 @ v
        b = l2 @ v
        denom = np.vdot(a, a).real
        if denom <= 0.0:
            break
        z_new = -np.vdot(a, b) / denom
        if abs(z_new - z) <= 1e-15 * max(1.0, abs(z)):
            z = z_new
            break
        z = z_new
    return z, v


def _reduce_rows(a, b, r: int):
    """Row-reduce ``[a | b]`` for ``a`` of full column rank ``r``.

    Some invertible ``Q`` gives ``Q a = [I_r; 0]``; returns the two blocks
    of ``Q b`` (its first ``r`` rows, then the rest).
    """
    red, pivots = a.hstack(b).rref()
    if tuple(pivots[:r]) != tuple(range(r)):
        raise InputNotReduced("internal error: row reduction lost a pivot")
    return red[:r, r:], red[r:, r:]


def _exact_singular_points(entries, m: int) -> list:
    """Singular points of ``z K_1 + K_2``: exact over QQ_I, roots to 30 digits.

    ``K_1`` must be injective.  With ``Q K_1 = [I_m; 0]`` and
    ``Q K_2 = [-M; B]`` the points are the eigenvalues of ``M`` on its
    unobservable subspace ``ker [B; BM; ...; BM^{m-1}]``; their
    characteristic polynomial is the gcd of the maximal minors.
    """
    import sympy as sp
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    def dm(rows):
        return DomainMatrix([[QQ_I(re, im) for re, im in row] for row in rows],
                            (len(rows), m), QQ_I)

    k1, k2 = (dm(rows) for rows in entries)
    top, b = _reduce_rows(k1, k2, m)
    mat = -top
    blocks = [b]
    for _ in range(m - 1):
        blocks.append(blocks[-1] * mat)
    unobservable = DomainMatrix.vstack(*blocks).nullspace().transpose()
    r = unobservable.shape[1]
    if r == 0:
        # rank [B; BM; ...; BM^{m-1}] == m: no eigenvector of M in ker B
        return []
    restricted, _ = _reduce_rows(unobservable, mat * unobservable, r)
    poly = sp.Poly(restricted.charpoly(), sp.Symbol("z"), domain=QQ_I)
    # nroots does not converge on repeated roots; each point is needed once
    return [complex(root) for root in poly.sqf_part().nroots(n=30)]


def exact_pencil_k2(l1, l2, tol: Tolerance = DEFAULT_TOL):
    """Decide whether ``a1 K_1 + a2 K_2`` is injective for every ``a != 0``.

    The inputs must already be reduced: a nonzero common kernel raises
    InputNotReduced.  Returns ``(decision, witness)`` where the witness (a
    unit vector annihilated by some nonzero pencil member while not lying
    in both kernels) is present iff the decision is False.

    The endpoints ``a = (1, 0)`` and ``(0, 1)`` are rank checks.  Once
    they pass, ``K_1`` is injective, and row reduction gives an invertible
    ``Q`` with ``Q K_1 = [I_m; 0]`` and ``Q K_2 = [-M; B]`` (``M`` is
    ``m x m``).  Then ``(z K_1 + K_2) v = 0`` reads ``M v = z v`` and
    ``B v = 0``: the interior direction ``a = (z, 1)`` is singular exactly
    when ``M`` has a ``z``-eigenvector in ``ker B``.  An ``M``-invariant
    subspace of ``ker B`` contains an eigenvector, and the largest one is
    ``ker [B; BM; ...; BM^{m-1}]``, so the pencil is injective everywhere
    iff that matrix has rank ``m`` (the Hautus/Kalman observability test).

    When every entry is a Gaussian rational the reduction and the rank are
    computed exactly over QQ_I, so a True decision is a proof; the
    candidate roots are then the eigenvalues of ``M`` on that kernel.
    Otherwise the candidates are the eigenvalues of ``-K_1^+ K_2``.
    Either way each candidate is polished and must pass the rank window
    before it yields a witness.
    """
    l1 = linalg.as_matrix(l1)
    l2 = linalg.as_matrix(l2)
    if l1.shape != l2.shape:
        raise InputNotReduced("factors must share a shape")
    m = l1.shape[1]
    factors = [l1, l2]
    common = linalg.kernel_basis(np.vstack(factors), tol)
    if common.shape[1] != 0:
        raise InputNotReduced(
            "factors have a common kernel; reduce before calling the pencil"
        )

    # endpoints
    for single in (l1, l2):
        null = linalg.kernel_basis(single, tol)
        if null.shape[1] != 0:
            witness = _normalize(null[:, 0])
            if _is_witness(factors, witness, tol):
                return False, witness

    # both endpoints injective; in particular m <= rows
    exact = _gaussian_rational_entries(factors)
    if exact is None:
        candidates = np.linalg.eigvals(-np.linalg.lstsq(l1, l2, rcond=None)[0])
    else:
        candidates = _exact_singular_points(exact, m)
    for root in sorted(candidates,
                       key=lambda c: (round(c.real, 12), round(c.imag, 12))):
        _, v = _polish_root(l1, l2, root)
        if v is not None and _is_witness(factors, v, tol):
            return False, _normalize(v)
    if exact is not None and len(candidates) > 0:
        raise InputNotReduced(
            "internal error: exact singular point failed the rank window"
        )
    return True, None


# ---------------------------------------------------------------------------
# randomized search (k >= 3, multi-column reductions)


def _structured_candidates(reduced):
    """Deterministic candidate directions in the reduced space."""
    m = reduced[0].shape[1]
    cands = []
    eye = np.eye(m, dtype=complex)
    for i in range(m):
        cands.append(eye[:, i])
        for j in range(i + 1, m):
            cands.append(eye[:, i] + eye[:, j])
            cands.append(eye[:, i] - eye[:, j])
            cands.append(eye[:, i] + 1j * eye[:, j])
            cands.append(eye[:, i] - 1j * eye[:, j])
    for k in reduced:
        _, _, vh = np.linalg.svd(k)
        cands.append(vh[0, :].conj())
        cands.append(vh[-1, :].conj())
    return cands


def _refine_candidate(reduced, h, iters: int = 400):
    """Alternating minimization towards a rank-deficient direction.

    Alternates the worst dependency vector ``a`` of ``F(h)`` with the best
    kernel direction of ``sum_j a_j K_j``; both steps are smallest singular
    vectors of small matrices.  Convergence is linear, so the budget is
    generous; the loop exits early once the small singular value bottoms
    out at rounding level.
    """
    k = len(reduced)
    stack = np.stack(reduced)  # (k, d1, m)
    floor = 1e-14 * max(float(np.abs(stack).max()), 1.0)
    for _ in range(iters):
        f = np.einsum("jdm,m->dj", stack, h)
        _, s, vh = np.linalg.svd(f)
        if s[min(k, s.size) - 1] < floor:
            break
        a = vh[-1, :].conj()
        pencil = np.tensordot(a, stack, axes=(0, 0))
        _, _, vh2 = np.linalg.svd(pencil)
        h_new = vh2[-1, :].conj()
        if np.linalg.norm(h_new - h * np.vdot(h, h_new)) < 1e-15:
            h = h_new
            break
        h = h_new
    return h


def _randomized_search(factors, reduced, basis, budget, rng, tol: Tolerance):
    """Sample dependency directions and kernel candidates within a budget.

    Returns ``(witness_or_None, samples_used)``.
    """
    k = len(factors)
    m = reduced[0].shape[1]
    samples = 0
    for cand in _structured_candidates(reduced):
        samples += 1
        h = basis @ _normalize(cand)
        if _is_witness(factors, h, tol):
            return h, samples
    stack = np.stack(reduced)
    while samples < budget:
        samples += 1
        a = rng.normal(size=k) + 1j * rng.normal(size=k)
        a /= np.linalg.norm(a)
        pencil = np.tensordot(a, stack, axes=(0, 0))
        null = linalg.kernel_basis(pencil, tol)
        candidates = [null[:, c] for c in range(null.shape[1])]
        if not candidates:
            _, _, vh = np.linalg.svd(pencil)
            candidates = [_refine_candidate(reduced, vh[-1, :].conj())]
        for cand in candidates:
            h = basis @ _normalize(cand)
            if _is_witness(factors, h, tol):
                return h, samples
    return None, samples


# ---------------------------------------------------------------------------
# the decision pipeline


def is_quasipure(phi: CpMap, tol: Tolerance = DEFAULT_TOL, *,
                 budget: int = 2000, seed: int = 0,
                 strict: bool = True) -> QuasiPurityVerdict:
    """Decide quasi-purity of a nonzero CP map.

    ``strict`` (the default) demotes "no counterexample found within the
    randomized budget" to ``Inconclusive``; passing ``strict=False`` lets
    the caller accept that evidence as a ``QuasiPure`` status (the method
    tag still says ``RandomizedNoCounterexample`` so provenance is never
    lost).  Exact branches ignore the budget and the seed.
    """
    if not is_cp(phi, tol):
        raise NotCP("quasi-purity is defined for completely positive maps")
    if phi.is_zero(tol):
        raise ZeroMap("quasi-purity is undefined for the zero map")

    factors = minimal_kraus(phi, tol)
    k = len(factors)
    if k == 1:
        return QuasiPurityVerdict(status=QUASI_PURE, method=METHOD_PURE)

    basis = _common_kernel_complement(factors, tol)

    # necessary condition: Choi rank at most d_in
    if k > phi.d_in:
        return _not_quasipure(factors, basis[:, 0], METHOD_NECESSARY, tol)

    # necessary condition: all factor kernels coincide
    nulls = [linalg.kernel_basis(f, tol) for f in factors]
    for i, j in itertools.permutations(range(k), 2):
        if nulls[i].shape[1] == 0:
            continue
        image = factors[j] @ nulls[i]
        if linalg.max_abs(image) > tol.eps_eq * max(1.0, linalg.max_abs(factors[j])):
            col = int(np.argmax(np.linalg.norm(image, axis=0)))
            return _not_quasipure(factors, nulls[i][:, col],
                                  METHOD_NECESSARY, tol)

    reduced = [f @ basis for f in factors]
    m = basis.shape[1]

    if k == 2:
        decision, witness = exact_pencil_k2(reduced[0], reduced[1], tol)
        if decision:
            return QuasiPurityVerdict(status=QUASI_PURE,
                                      method=METHOD_EXACT_PENCIL)
        return _not_quasipure(factors, basis @ witness,
                              METHOD_EXACT_PENCIL, tol)

    if m == 1:
        # a single reduced column leaves one projective direction to test,
        # so the rank window check is exhaustive for any k
        h = basis[:, 0]
        if _is_witness(factors, h, tol):
            return _not_quasipure(factors, h, METHOD_EXACT_PENCIL, tol)
        return QuasiPurityVerdict(status=QUASI_PURE,
                                  method=METHOD_EXACT_PENCIL)

    rng = np.random.default_rng(seed)
    witness, samples = _randomized_search(factors, reduced, basis, budget,
                                          rng, tol)
    if witness is not None:
        return _not_quasipure(factors, witness, METHOD_SEARCH_WITNESS, tol,
                              samples=samples)
    status = INCONCLUSIVE if strict else QUASI_PURE
    return QuasiPurityVerdict(status=status, method=METHOD_RANDOMIZED,
                              samples_used=samples)


# ---------------------------------------------------------------------------
# brute-force grid oracle


def _grid_points(m: int, density: int) -> np.ndarray:
    if m == 1:
        return np.ones((1, 1), dtype=complex)
    thetas = np.linspace(0.0, np.pi / 2.0, density)
    phases = np.linspace(0.0, 2.0 * np.pi, density, endpoint=False)
    tt, pp = np.meshgrid(thetas, phases, indexing="ij")
    pts = np.stack(
        [np.cos(tt).ravel().astype(complex),
         (np.exp(1j * pp) * np.sin(tt)).ravel()],
        axis=1,
    )
    return pts


def grid_oracle(phi: CpMap, grid_density: int = 200,
                tol: Tolerance = DEFAULT_TOL) -> QuasiPurityVerdict:
    """Brute-force quasi-purity scan over a projective grid of directions.

    Only meant for ``d_out <= 2`` and ``k <= 3`` (TooLarge otherwise); this
    is the independent oracle the exact pencil is validated against, so it
    deliberately shares none of the pencil machinery.  After reducing the
    common kernel, it scans magnitude/phase grid points on the projective
    space of directions:

    * any grid point inside the rank window is a verified witness;
    * points whose k-th singular value dips below a Lipschitz threshold
      (singular values of ``F(h)`` are 1-Lipschitz in ``h`` against the
      aggregate factor norm) are polished by alternating minimization and
      re-verified;
    * if the scan minimum clears the Lipschitz margin, no direction
      anywhere on the sphere can be singular and the verdict is a
      certificate, not a sample.
    """
    if not is_cp(phi, tol):
        raise NotCP("quasi-purity is defined for completely positive maps")
    if phi.is_zero(tol):
        raise ZeroMap("quasi-purity is undefined for the zero map")
    factors = minimal_kraus(phi, tol)
    k = len(factors)
    if phi.d_out > 2 or k > 3:
        raise TooLarge(
            f"grid oracle supports d_out <= 2 and k <= 3, got "
            f"d_out={phi.d_out}, k={k}"
        )
    if grid_density < 8:
        raise ValueError("grid density must be at least 8")

    basis = _common_kernel_complement(factors, tol)
    reduced = [f @ basis for f in factors]
    m = basis.shape[1]
    stack = np.stack(reduced)  # (k, d1, m)
    pts = _grid_points(m, grid_density)

    fs = np.einsum("jdm,nm->ndj", stack, pts)
    svals = np.linalg.svd(fs, compute_uv=False)  # (N, min(d1, k)) descending
    smax = svals[:, 0]
    ranks = np.sum(svals > tol.eps_rank * smax[:, None], axis=1)

    window = (ranks > 0) & (ranks < k)
    if np.any(window):
        idx = int(np.argmax(window))
        h = basis @ pts[idx]
        return _not_quasipure(factors, h, METHOD_GRID, tol)

    if k > phi.d_in:
        # rank can never reach k; any direction with a nonzero image is a
        # witness, and after reduction every direction has a nonzero image
        h = basis @ pts[0]
        return _not_quasipure(factors, h, METHOD_GRID, tol)

    if m == 1:
        # one projective direction -- the scan above was already exhaustive
        return QuasiPurityVerdict(status=QUASI_PURE, method=METHOD_GRID)

    lipschitz = float(np.sqrt(sum(
        np.linalg.norm(r, ord=2) ** 2 for r in reduced)))
    dtheta = (np.pi / 2.0) / (grid_density - 1)
    dphase = (2.0 * np.pi) / grid_density
    covering = 0.5 * (dtheta + dphase)
    margin = lipschitz * covering

    sigma_k = svals[:, k - 1]
    suspicious = np.nonzero(sigma_k <= 4.0 * margin)[0]
    order = suspicious[np.argsort(sigma_k[suspicious])][:16]
    for idx in order:
        h = _refine_candidate(reduced, pts[idx] / np.linalg.norm(pts[idx]))
        lifted = basis @ h
        if _is_witness(factors, lifted, tol):
            return _not_quasipure(factors, lifted, METHOD_GRID, tol)

    if float(np.min(sigma_k)) > margin:
        return QuasiPurityVerdict(status=QUASI_PURE, method=METHOD_GRID)
    return QuasiPurityVerdict(status=INCONCLUSIVE, method=METHOD_GRID)


# ---------------------------------------------------------------------------
# order-theoretic consistency harness


def domination_preserves_quasipurity_check(
        phi: CpMap, trials: int = 20, tol: Tolerance = DEFAULT_TOL, *,
        seed: int = 0, budget: int = 2000) -> bool:
    """Check that maps dominated by a quasi-pure map stay quasi-pure.

    ``phi`` must itself carry a proof-grade quasi-pure verdict, otherwise
    InconclusiveQuasiPurity is raised (callers typically convert this to a
    test skip).  Each trial draws a random positive contraction in the
    commutant factor, forms the dominated map, and checks its verdict;
    inconclusive verdicts on the dominated side are skipped, a single
    NotQuasiPure makes the whole check fail.
    """
    base = is_quasipure(phi, tol, budget=budget, seed=seed)
    if not (base.status == QUASI_PURE and base.is_proof):
        raise InconclusiveQuasiPurity(
            f"base map verdict is {base.status} ({base.method})"
        )
    triple = minimal_stinespring(phi, tol)
    k = triple.multiplicity
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h = g @ g.conj().T
        top = float(np.linalg.eigvalsh(h)[-1])
        if top <= 0.0:
            continue
        d = h / top * rng.uniform(0.2, 1.0)
        dominated = map_from_contraction(triple, d)
        if dominated.is_zero(tol):
            continue
        verdict = is_quasipure(dominated, tol, budget=budget, seed=seed)
        if verdict.status == NOT_QUASI_PURE:
            return False
    return True
