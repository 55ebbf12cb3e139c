"""Linear maps between matrix algebras in Kraus and Choi form.

Conventions, fixed package-wide:

* a map acts as ``phi(X) = sum_j K_j* X K_j`` where each Kraus factor
  ``K_j`` has shape ``(d_in, d_out)``;
* the Choi matrix is the block matrix ``[phi(E_ij)]`` of shape
  ``(d_in * d_out, d_in * d_out)`` whose block ``(i, j)`` holds
  ``phi(E_ij)`` for the ``d_in x d_in`` matrix unit ``E_ij``.

Under these conventions the Choi matrix equals

    ``sum_j  v_j v_j*``   with   ``v_j = conj(K_j).reshape(-1)``

(row-major flattening): :func:`kraus_to_choi` forms it as one Gram
product of the stacked ``conj(v_j)``, and :func:`_vector_kraus` inverts
the flattening.  The map is completely positive iff its
Choi matrix is PSD, the minimal number of Kraus factors equals the rank of
the Choi matrix, and scaled Choi eigenvectors give a trace-orthogonal
minimal Kraus family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotCP
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "CpMap",
    "MapClass",
    "apply",
    "kraus_to_choi",
    "choi_to_kraus",
    "minimal_kraus",
    "is_cp",
    "choi_rank",
    "classify",
    "maps_close",
]


def _vector_kraus(v: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The factor whose Choi vector is ``v``: inverts ``conj(K).reshape(-1)``."""
    return v.reshape(d_in, d_out).conj()


def _canonical_phase(k: np.ndarray) -> np.ndarray:
    """Rotate a factor so its largest entry is real positive.

    A global phase on a Kraus factor leaves the map unchanged; pinning it
    makes decompositions reproducible run to run.
    """
    flat = k.reshape(-1)
    if flat.size == 0:
        return k
    idx = int(np.argmax(np.abs(flat)))
    pivot = flat[idx]
    if np.abs(pivot) == 0.0:
        return k
    return k * (np.abs(pivot) / pivot)


@dataclass(frozen=True, eq=False)
class CpMap:
    """A linear map ``M_{d_in} -> M_{d_out}`` with Hermitian Choi matrix.

    A map is given either by Kraus factors or by its Choi matrix, never by
    both (the constructor raises DimensionMismatch).  Given factors, each
    is coerced to a complex array and checked finite once, here
    (:meth:`from_kraus` only reads the first one's shape), and the Choi
    matrix is formed from them as one Gram product (:func:`kraus_to_choi`),
    so the map is CP by construction.  Given a Choi matrix, ``kraus`` stays
    None.  Despite the name, construction does not require complete
    positivity -- differences of CP maps and other Hermiticity-preserving
    maps are legal values: :func:`minimal_kraus` raises NotCP on a non-CP
    map, and :func:`is_cp` says whether it would.
    """

    d_in: int
    d_out: int
    choi: Optional[np.ndarray] = None
    kraus: Optional[tuple] = None

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise DimensionMismatch("dimensions must be positive")
        if self.kraus is not None:
            if self.choi is not None:
                raise DimensionMismatch(
                    "give Kraus factors or a Choi matrix, not both")
            # the one coercion and finite check of each factor
            ks = tuple(linalg.as_matrix(k) for k in self.kraus)
            object.__setattr__(self, "kraus", ks)
            # _gram_choi checks the factor shapes; its result is exactly
            # Hermitian and of shape (n, n)
            object.__setattr__(self, "choi",
                               _gram_choi(ks, self.d_in, self.d_out))
            return
        if self.choi is None:
            raise DimensionMismatch("a Choi matrix or Kraus factors are required")
        n = self.d_in * self.d_out
        choi = linalg.require_hermitian(self.choi)
        if choi.shape != (n, n):
            raise DimensionMismatch(
                f"Choi matrix has shape {choi.shape}, expected {(n, n)}"
            )
        object.__setattr__(self, "choi", choi)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray], d_in: int | None = None,
                   d_out: int | None = None) -> "CpMap":
        # the constructor coerces the factors; only the first one's shape
        # is read here
        ks = tuple(kraus)
        if not ks:
            if d_in is None or d_out is None:
                raise DimensionMismatch(
                    "dimensions are required for an empty Kraus family"
                )
        elif d_in is None or d_out is None:
            shape = np.shape(ks[0])
            if len(shape) != 2:
                raise ValueError(f"expected a 2-d array, got shape {shape}")
            d_in = shape[0] if d_in is None else d_in
            d_out = shape[1] if d_out is None else d_out
        return cls(d_in=d_in, d_out=d_out, kraus=ks)

    @classmethod
    def from_choi(cls, choi, d_in: int, d_out: int) -> "CpMap":
        return cls(d_in=d_in, d_out=d_out, choi=choi)

    @classmethod
    def from_action(cls, action: Callable[[np.ndarray], np.ndarray],
                    d_in: int, d_out: int) -> "CpMap":
        """Build a map from a callable by evaluating it on matrix units.

        The callable must be Hermiticity-preserving, otherwise the assembled
        Choi matrix fails the Hermitian check.
        """
        blocks = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
        for i in range(d_in):
            for j in range(d_in):
                unit = np.zeros((d_in, d_in), dtype=complex)
                unit[i, j] = 1.0
                value = linalg.as_matrix(action(unit))
                if value.shape != (d_out, d_out):
                    raise DimensionMismatch(
                        f"action returned shape {value.shape}, expected "
                        f"{(d_out, d_out)}"
                    )
                blocks[i * d_out:(i + 1) * d_out, j * d_out:(j + 1) * d_out] = value
        return cls(d_in=d_in, d_out=d_out, choi=blocks)

    @classmethod
    def zero(cls, d_in: int, d_out: int) -> "CpMap":
        return cls(d_in=d_in, d_out=d_out, kraus=())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "CpMap") -> "CpMap":
        self._check_same_space(other)
        if self.kraus is not None and other.kraus is not None:
            return CpMap.from_kraus(self.kraus + other.kraus,
                                    self.d_in, self.d_out)
        return CpMap(d_in=self.d_in, d_out=self.d_out,
                     choi=self.choi + other.choi)

    def __sub__(self, other: "CpMap") -> "CpMap":
        self._check_same_space(other)
        return CpMap(d_in=self.d_in, d_out=self.d_out,
                     choi=self.choi - other.choi)

    def __mul__(self, scalar: float) -> "CpMap":
        s = float(scalar)
        if self.kraus is not None and s >= 0.0:
            return CpMap.from_kraus([np.sqrt(s) * k for k in self.kraus],
                                    self.d_in, self.d_out)
        return CpMap(d_in=self.d_in, d_out=self.d_out, choi=s * self.choi)

    __rmul__ = __mul__

    def _check_same_space(self, other: "CpMap") -> None:
        if (self.d_in, self.d_out) != (other.d_in, other.d_out):
            raise DimensionMismatch(
                f"maps act on different algebras: "
                f"{(self.d_in, self.d_out)} vs {(other.d_in, other.d_out)}"
            )

    # -- conveniences ------------------------------------------------------

    def unit(self) -> np.ndarray:
        """Value on the identity, ``phi(I_{d_in})``."""
        return apply(self, np.eye(self.d_in, dtype=complex))

    def is_zero(self) -> bool:
        """Whether the Choi matrix is exactly zero.

        No tolerance applies: a nonzero map, however small, is decided at
        its own scale.  A caller that forms a map from others (a difference,
        a compression) judges it zero up to rounding by
        :func:`linalg.negligible` against those operands.
        """
        return not self.choi.any()


def apply(phi: CpMap, x) -> np.ndarray:
    """Evaluate ``phi`` on a ``d_in x d_in`` matrix ``x``."""
    x = linalg.as_matrix(x)
    if x.shape != (phi.d_in, phi.d_in):
        raise DimensionMismatch(
            f"argument has shape {x.shape}, expected {(phi.d_in, phi.d_in)}"
        )
    if phi.kraus is not None:
        out = np.zeros((phi.d_out, phi.d_out), dtype=complex)
        if phi.kraus:  # one stacked product, summed in order from the zero
            ks = np.stack(phi.kraus)
            out = sum(ks.conj().swapaxes(1, 2) @ x @ ks, out)
        return out
    # phi(X) = sum_ij X_ij phi(E_ij), and block (i, j) of the Choi matrix
    # is phi(E_ij).
    tensor = phi.choi.reshape(phi.d_in, phi.d_out, phi.d_in, phi.d_out)
    return np.einsum("ij,iajb->ab", x, tensor)


def kraus_to_choi(kraus: Sequence[np.ndarray], d_in: int | None = None,
                  d_out: int | None = None) -> np.ndarray:
    """Assemble the Choi matrix of ``X -> sum_j K_j* X K_j``.

    One Gram product: the rows of ``S`` are the factors flattened row-major,
    ``conj(v_j)``, so ``sum_j v_j v_j* = S* S``; it is symmetrized, which
    makes the result exactly Hermitian.
    """
    ks = [linalg.as_matrix(k) for k in kraus]
    if ks:
        d_in = ks[0].shape[0] if d_in is None else d_in
        d_out = ks[0].shape[1] if d_out is None else d_out
    if d_in is None or d_out is None:
        raise DimensionMismatch("dimensions required for empty Kraus family")
    return _gram_choi(ks, d_in, d_out)


def _gram_choi(ks: Sequence[np.ndarray], d_in: int, d_out: int) -> np.ndarray:
    """:func:`kraus_to_choi` of factors already coerced by ``as_matrix``."""
    for k in ks:
        if k.shape != (d_in, d_out):
            raise DimensionMismatch(
                f"Kraus factor has shape {k.shape}, expected {(d_in, d_out)}"
            )
    n = d_in * d_out
    if not ks:
        return np.zeros((n, n), dtype=complex)
    rows = np.stack(ks).reshape(len(ks), n)
    return linalg._hermitian_part(rows.conj().T @ rows)


def choi_to_kraus(choi, d_in: int, d_out: int,
                  tol: Tolerance = DEFAULT_TOL) -> list:
    """Minimal Kraus factors of a PSD Choi matrix.

    One ``np.linalg.eigh`` decides and factorizes: NotCP, a NotPSD, is
    raised below ``-eps_psd * max(1, max |lambda|)``, and the eigenvectors
    whose eigenvalue :func:`linalg.kept` keeps, scaled by its square root
    and reshaped, are the factors: independent, trace-orthogonal, and as
    many as the Choi rank.  :func:`is_cp` reads this eigensolve.
    """
    choi = linalg.require_hermitian(choi)
    n = d_in * d_out
    if choi.shape != (n, n):
        raise DimensionMismatch(
            f"Choi matrix has shape {choi.shape}, expected {(n, n)}"
        )
    w, u = np.linalg.eigh(choi)
    if w.size and w[0] < -linalg._psd_slack(w, tol):
        raise NotCP(f"Choi matrix has eigenvalue {w[0]:.3e}")
    keep = np.nonzero(linalg.kept(w, tol))[0]
    factors = []
    for idx in keep[::-1]:  # largest eigenvalue first
        v = np.sqrt(w[idx]) * u[:, idx]
        factors.append(_canonical_phase(_vector_kraus(v, d_in, d_out)))
    return factors


def minimal_kraus(phi: CpMap, tol: Tolerance = DEFAULT_TOL) -> list:
    """A minimal (linearly independent) Kraus family for a CP map.

    This is where a caller that needs factors learns whether the map is
    CP: stored factors make it CP, and a Choi matrix is factorized by
    :func:`choi_to_kraus`, which raises NotCP (a NotPSD) on a non-CP map.

    A stored linearly independent family is returned unchanged -- any
    independent family is a legitimate minimal choice, and preserving the
    caller's basis keeps derived objects (e.g. commutant factors) in their
    coordinates.  Independence is read from the SVD of the stacked factors:
    the Choi matrix is ``W W*`` for the matrix ``W`` of their Choi vectors,
    so its eigenpairs are the squared singular values ``s^2`` and the left
    singular vectors of ``W``, and the family is independent when the rank
    rule :func:`linalg.kept` keeps every ``s^2``, as :func:`choi_to_kraus`
    keeps Choi eigenvalues.  A dependent family is reduced to the kept
    singular pairs, without ever forming a Choi eigenvalue below zero.
    Either way the length is :func:`choi_rank`, from factors or from Choi.
    """
    if phi.kraus:
        stack = np.stack(phi.kraus).reshape(len(phi.kraus), -1)  # rows: conj(v_j)
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        keep = np.nonzero(linalg.kept(s * s, tol))[0]
        if keep.size == len(phi.kraus):
            return list(phi.kraus)
        # Choi eigenvector conj(vh[i]) scaled by s[i], reshaped by _vector_kraus
        return [_canonical_phase(s[i] * vh[i].reshape(phi.d_in, phi.d_out))
                for i in keep]
    return choi_to_kraus(phi.choi, phi.d_in, phi.d_out, tol)


def is_cp(phi: CpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff :func:`minimal_kraus` factorizes ``phi`` without raising.

    Stored Kraus factors make a map CP, with no eigensolve.  A Choi matrix
    is decided by the one ``np.linalg.eigh`` of :func:`choi_to_kraus`; a
    second eigensolver could round an eigenvalue at the cutoff otherwise.
    """
    if phi.kraus is not None:
        return True
    try:
        choi_to_kraus(phi.choi, phi.d_in, phi.d_out, tol)
    except NotCP:
        return False
    return True


def choi_rank(phi: CpMap, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of the Choi matrix.

    For a CP map this is ``len(minimal_kraus(phi))``, read from signed
    eigenvalues; for any other map, the singular values the rule keeps.
    """
    try:
        return len(minimal_kraus(phi, tol))
    except NotCP:
        return linalg.numerical_rank(phi.choi, tol)


def maps_close(phi: CpMap, psi: CpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equality of maps: :func:`linalg.negligible` on the Choi difference."""
    if (phi.d_in, phi.d_out) != (psi.d_in, psi.d_out):
        return False
    return linalg.negligible(phi.choi - psi.choi, tol, phi.choi, psi.choi)


@dataclass(frozen=True, eq=False)
class MapClass:
    """Structural summary of a CP map produced by :func:`classify`.

    ``is_entanglement_breaking_quasipure_form`` is true when every minimal
    Kraus factor is rank one with a common right vector ``v``, i.e. the map
    acts as ``X -> trace(rho X) |v><v|``; ``eb_state`` and ``eb_vector``
    then carry ``(rho, v)``.
    """

    d_in: int
    d_out: int
    is_cp: bool
    choi_rank: int
    is_pure: bool
    is_unital: bool
    is_entanglement_breaking_quasipure_form: bool
    eb_state: Optional[np.ndarray] = None
    eb_vector: Optional[np.ndarray] = None


def _eb_form(factors: list, d_in: int, d_out: int, tol: Tolerance):
    """Detect the trace-functional-times-state form of a CP map.

    Checks every minimal factor is rank <= 1 and that the right singular
    vectors coincide up to phase; returns ``(rho, v)`` or ``None``.
    """
    if not factors:
        return None
    common_v = None
    lefts = []
    for k in factors:
        _, s, vh = np.linalg.svd(k)
        if np.count_nonzero(linalg.kept(s, tol)) != 1:
            return None
        v = vh[0, :].conj()
        if common_v is None:
            common_v = v
        elif not linalg.negligible(abs(np.vdot(common_v, v)) - 1.0, tol):
            return None
    common_v = _canonical_phase(common_v)
    for k in factors:
        lefts.append(k @ common_v)  # k = |w><v|  =>  k v = w
    rho = np.zeros((d_in, d_in), dtype=complex)
    for w in lefts:
        rho += np.outer(w, w.conj())
    # confirm the reconstruction phi(X) = trace(rho X) |v><v|: its Choi
    # block (i, j) is rho[j, i] |v><v|
    expected = np.kron(rho.T, np.outer(common_v, common_v.conj()))
    got = kraus_to_choi(factors, d_in, d_out)
    if not linalg.negligible(expected - got, tol, expected, got):
        return None
    return rho, common_v


def classify(phi: CpMap, tol: Tolerance = DEFAULT_TOL) -> MapClass:
    """Structural facts about a CP map; raises NotCP on a non-CP input.

    The one factorization, :func:`minimal_kraus`, decides complete
    positivity, and its length is the Choi rank.
    """
    factors = minimal_kraus(phi, tol)
    rank = len(factors)
    # the operand I is the floor of the rule
    unital = linalg.negligible(phi.unit() - np.eye(phi.d_out), tol)
    eb = _eb_form(factors, phi.d_in, phi.d_out, tol)
    return MapClass(
        d_in=phi.d_in,
        d_out=phi.d_out,
        is_cp=True,
        choi_rank=rank,
        is_pure=rank <= 1,
        is_unital=bool(unital),
        is_entanglement_breaking_quasipure_form=eb is not None,
        eb_state=None if eb is None else eb[0],
        eb_vector=None if eb is None else eb[1],
    )
