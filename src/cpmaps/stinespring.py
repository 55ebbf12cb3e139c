"""Minimal Stinespring dilations and the commutant order structure.

For a CP map ``phi: M_{d1} -> M_{d2}`` with minimal Kraus family
``K_1..K_k`` the dilation space is ``C^{d1} (x) C^k`` (row-major index
``i*k + j``), the representation is ``pi(X) = kron(X, I_k)``, and

    ``V h = sum_j (K_j h) (x) e_j``            (``V`` of shape ``(d1*k, d2)``)

so that ``phi(X) = V* pi(X) V`` and ``V* V = phi(I)``.  Minimality means the
vectors ``pi(X) V h`` span the whole dilation space.

The commutant of ``pi(M_{d1})`` is ``I_{d1} (x) M_k``, so a map dominated by
``phi`` corresponds to a unique positive contraction ``D`` in ``M_k`` via
``psi(X) = V* (X (x) D) V`` -- the Radon-Nikodym derivative of ``psi`` with
respect to ``phi``.  :func:`radon_nikodym` recovers ``D`` from the Choi
form of this identity, ``Choi(psi) = W D W*``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cp_map import CpMap, minimal_kraus
from .errors import DimensionMismatch, NotDominated, ZeroMap
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "StinespringTriple",
    "RnDerivative",
    "minimal_stinespring",
    "representation",
    "map_from_dilation",
    "map_from_contraction",
    "factor_matrix",
    "cyclic_subspace_dim",
    "reducing_projection",
    "cyclic_projection",
    "dominates",
    "radon_nikodym",
]


@dataclass(frozen=True, eq=False)
class StinespringTriple:
    """Minimal dilation data ``(pi, V, C^{d1} (x) C^k)`` of a CP map."""

    d_in: int
    d_out: int
    kraus: tuple
    v: np.ndarray

    @property
    def multiplicity(self) -> int:
        """Number of Kraus factors ``k`` (= Choi rank by minimality)."""
        return len(self.kraus)

    @property
    def dilation_dim(self) -> int:
        return self.d_in * self.multiplicity


def representation(x, k: int) -> np.ndarray:
    """The dilated left action ``pi(X) = kron(X, I_k)``."""
    return np.kron(linalg.as_matrix(x), np.eye(k, dtype=complex))


def _isometry_like(kraus, d_in: int, d_out: int) -> np.ndarray:
    k = len(kraus)
    v = np.zeros((d_in * k, d_out), dtype=complex)
    for j, factor in enumerate(kraus):
        v[j::k, :] = factor
    return v


def minimal_stinespring(phi: CpMap, tol: Tolerance = DEFAULT_TOL) -> StinespringTriple:
    """Minimal Stinespring triple of a nonzero CP map.

    The package's one dilation builder.  Raises ZeroMap for the zero map
    (which has no dilation space to speak of), and NotCP for a non-CP
    input from the one factorization, :func:`minimal_kraus`, that also
    supplies the factors.
    """
    if phi.is_zero():
        raise ZeroMap("the zero map has no minimal dilation")
    factors = minimal_kraus(phi, tol)
    v = _isometry_like(factors, phi.d_in, phi.d_out)
    return StinespringTriple(d_in=phi.d_in, d_out=phi.d_out,
                             kraus=tuple(factors), v=v)


def map_from_dilation(w: np.ndarray, d_in: int, d_out: int, k: int) -> CpMap:
    """The CP map ``X -> W* (X (x) I_k) W`` for ``W: C^{d_out} -> C^{d_in*k}``.

    Splitting ``W`` into its block rows ``M_j[i, :] = W[i*k + j, :]`` gives
    Kraus factors, so the result is CP by construction.
    """
    w = linalg.as_matrix(w)
    if w.shape != (d_in * k, d_out):
        raise DimensionMismatch(
            f"dilation operator has shape {w.shape}, expected {(d_in * k, d_out)}"
        )
    factors = [w[j::k, :] for j in range(k)]
    return CpMap.from_kraus(factors, d_in, d_out)


def map_from_contraction(triple: StinespringTriple, d: np.ndarray) -> CpMap:
    """The dominated map ``X -> V* (X (x) D) V`` for ``0 <= D <= I`` in M_k.

    With ``E = sqrt(D)`` the factors of the result are the mixtures
    ``M_m = sum_j E[m, j] K_j``.
    """
    k = triple.multiplicity
    d = linalg.require_hermitian(d)
    if d.shape != (k, k):
        raise DimensionMismatch(f"expected a {k} x {k} contraction, got {d.shape}")
    e = linalg.psd_sqrt(d)
    factors = [sum(e[m, j] * triple.kraus[j] for j in range(k)) for m in range(k)]
    return CpMap.from_kraus(factors, triple.d_in, triple.d_out)


def factor_matrix(triple: StinespringTriple, h0) -> np.ndarray:
    """The ``d_in x k`` matrix ``[K_1 h0 | ... | K_k h0]``.

    ``V h0`` reshaped to ``(d_in, k)`` is exactly this matrix; its rank
    controls the cyclic subspace of ``h0``.
    """
    h0 = np.asarray(h0, dtype=complex).reshape(-1)
    if h0.shape != (triple.d_out,):
        raise DimensionMismatch(
            f"vector has length {h0.size}, expected {triple.d_out}"
        )
    return (triple.v @ h0).reshape(triple.d_in, triple.multiplicity)


def cyclic_subspace_dim(triple: StinespringTriple, h0,
                        tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of ``span{pi(X) V h0 : X in M_{d_in}}``.

    The span consists of all matrices (in the ``(d_in, k)`` picture) whose
    rows lie in the row space of ``[K_1 h0 | .. | K_k h0]``, hence the
    dimension is ``d_in * rank`` of that matrix.  The brute-force span over
    matrix units lives in the test suite as an independent oracle.
    """
    g = factor_matrix(triple, h0)
    return triple.d_in * linalg.numerical_rank(g, tol)


def reducing_projection(triple: StinespringTriple, m,
                        tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projection onto ``span{pi(X) V m h : X, h}`` for a d_out-row block ``m``.

    The span is invariant under the *-algebra ``pi(M_{d_in})`` and therefore
    reducing; concretely it equals ``C^{d_in} (x) S`` where ``S`` is spanned
    by the rows of the matrices ``(V m e_c)`` reshaped to ``(d_in, k)``.  The
    returned projection is ``kron(I_{d_in}, P_S)`` and commutes with every
    ``pi(X)`` exactly by construction.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.shape[0] != triple.d_out:
        raise DimensionMismatch(
            f"block has {m.shape[0]} rows, expected {triple.d_out}"
        )
    k = triple.multiplicity
    w = triple.v @ m  # (d_in * k, s)
    rows = w.reshape(triple.d_in, k, -1)
    rows = np.moveaxis(rows, 1, 2).reshape(-1, k)  # all rows, as k-vectors
    p_rows = linalg.range_projection(rows.T, tol)
    return np.kron(np.eye(triple.d_in, dtype=complex), p_rows)


def cyclic_projection(triple: StinespringTriple, h0,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the cyclic subspace generated by a single vector."""
    h0 = np.asarray(h0, dtype=complex).reshape(-1, 1)
    return reducing_projection(triple, h0, tol)


def dominates(phi: CpMap, psi: CpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``phi - psi`` is CP, i.e. the Choi difference is PSD.

    The difference rounds at the scale of the operands, not at its own, so
    its smallest eigenvalue may reach ``eps_psd * s`` below zero, ``s``
    the largest spectral norm of the two Choi matrices and of their
    difference (:func:`linalg._psd_slack` with both operands named, so
    with no floor: the verdict is the same at every scale).
    """
    if (phi.d_in, phi.d_out) != (psi.d_in, psi.d_out):
        raise DimensionMismatch("maps act on different algebras")
    w = np.linalg.eigvalsh(linalg.require_hermitian(phi.choi - psi.choi))
    return bool(w[0] >= -linalg._psd_slack(w, tol, np.linalg.norm(phi.choi, 2),
                                           np.linalg.norm(psi.choi, 2)))


@dataclass(frozen=True, eq=False)
class RnDerivative:
    """Radon-Nikodym derivative of a dominated map: ``k x k`` factor ``D``.

    The dominated map is recovered as ``psi(X) = V* (X (x) D) V``; ``D`` is
    a positive contraction in the commutant factor ``M_k``.
    """

    matrix: np.ndarray
    triple: StinespringTriple

    def reconstruct(self) -> CpMap:
        return map_from_contraction(self.triple, self.matrix)


def radon_nikodym(phi: CpMap, psi: CpMap,
                  tol: Tolerance = DEFAULT_TOL) -> RnDerivative:
    """Solve ``psi(E_pq) = sum_{j,m} D_{jm} K_j* E_pq K_m`` for ``D``.

    In Choi form the system reads ``Choi(psi) = W D W*`` where the columns
    of ``W`` are the flattened conjugate Kraus factors of ``phi``; since a
    minimal family is linearly independent, ``W`` has full column rank and
    ``D = W^+ Choi(psi) W^+*``.  With the thin QR ``W = Q T`` that is
    ``D = T^-1 G T^-*`` for ``G = Q* Choi(psi) Q``.  The residual
    ``Q G Q* - Choi(psi)`` must be :func:`linalg.negligible`, and ``D`` is
    a positive contraction iff ``G`` and ``T T* - G = Q* (Choi(phi) -
    Choi(psi)) Q`` are PSD: both are judged at the scale of the Choi
    matrices, where the rounding lives, not at ``D``'s, which the
    conditioning of ``W`` inflates.

    Raises NotDominated when ``psi`` is not dominated by ``phi``.
    """
    if not dominates(phi, psi, tol):
        raise NotDominated("psi is not dominated by phi")
    triple = minimal_stinespring(phi, tol)
    w = np.stack([f.conj().reshape(-1) for f in triple.kraus], axis=1)
    q, t = np.linalg.qr(w)
    g = q.conj().T @ psi.choi @ q
    residual = q @ g @ q.conj().T - psi.choi
    if not linalg.negligible(residual, tol, phi.choi, psi.choi):
        raise NotDominated(f"no commutant factor reproduces psi: residual "
                           f"{linalg.max_abs(residual):.3e}")
    low = np.linalg.eigvalsh(g)
    high = np.linalg.eigvalsh(t @ t.conj().T - g)
    if (low[0] < -linalg._psd_slack(low, tol)
            or high[0] < -linalg._psd_slack(high, tol, np.linalg.norm(
                phi.choi, 2), np.linalg.norm(psi.choi, 2))):
        raise NotDominated("recovered factor is not a positive contraction: "
                           f"Q* Choi(psi) Q has eigenvalue {low[0]:.3e}, "
                           f"Q* Choi(phi - psi) Q {high[0]:.3e}")
    d = np.linalg.solve(t, np.linalg.solve(t, g).conj().T)
    return RnDerivative(matrix=(d + d.conj().T) / 2.0, triple=triple)
