"""Dense complex linear algebra and the package's one tolerance model.

Every floating-point judgement the package makes (what is this matrix's
rank? is it PSD? are these two operators equal?) funnels through this
module and reads the caller's :class:`Tolerance`.  There are three rules,
each named by its operands:

* **rank** is :func:`kept`: a singular value (or eigenvalue) counts as
  nonzero when ``value > eps_rank * max(max values, *scales)``, the values
  being those of one matrix (a row of a 2-D batch) and the scales the
  sizes of the data the matrix was formed from.  With no scales the cut is
  relative to the largest value alone; :func:`numerical_rank`,
  :func:`ranked_svd`, :func:`kernel_basis` and :func:`range_projection`
  all count with it;
* **equality** is :func:`negligible`: a difference ``x`` counts as zero
  when ``max |x| <= eps_eq * max(1, max |operand|)``, the operands being
  the quantities ``x`` was formed from (for ``a - b``, ``a`` and ``b``),
  read cheapest-first, the floor ``1`` before each operand; rounding is
  monotone, ``fl(e * max(1, s)) == max(e, fl(e * s))``, so it is the same;
* **positivity** is :func:`_psd_slack`: the smallest eigenvalue of a
  Hermitian matrix may reach ``eps_psd * max(1, max |lambda|)`` below
  zero.  A matrix whose operands are named reads it at their scale
  alone, ``eps_psd * max(max |lambda|, *scales)``, with no floor
  (:func:`stinespring.dominates`, the completion decision, and the
  ``k x k`` tests ``G >= 0``, ``T T* - G >= 0`` of ``radon_nikodym``).

The floor ``max(1, .)`` stands in for the operands a lone matrix does not
name, such as a Choi matrix handed in.  A map that was given is never
judged zero by it: :meth:`CpMap.is_zero` asks for an exactly zero Choi
matrix, and only a map formed from others reads zero by
``negligible(x, tol, *operands)``.  The PSD order drops the floor once both
operands are named, so ``dominates`` and ``radon_nikodym`` judge ``(c phi,
c psi)`` alike for every ``c > 0``; with the floor, a map below ``eps_psd``
would dominate one twice its size.  The rank rule has no floor.

Three constants stay outside :class:`Tolerance`: ``HERMITIAN_RESIDUAL``
(how far from Hermitian an input may be before it is rejected), the
quasi-purity polisher's stopping rules (iteration constants, not
judgements), and the ``0.5`` that splits a splitting projection's
eigenvalues (0 or 1) in :mod:`completion`.

Matrices are plain ``numpy.ndarray`` objects with ``complex`` dtype.  The
helpers here never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput, NotPSD

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "max_abs",
    "negligible",
    "kept",
    "require_hermitian",
    "eigh",
    "psd_check",
    "numerical_rank",
    "psd_sqrt",
    "ranked_svd",
    "range_projection",
    "kernel_basis",
]

#: Hermiticity slack: a matrix within this (scale-relative) distance of its
#: adjoint is silently symmetrized; anything farther raises NonHermitianInput.
HERMITIAN_RESIDUAL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Bundle of the three tolerances used throughout the package.

    :param eps_rank: relative singular-value cutoff for rank decisions.
    :param eps_psd: slack allowed below zero for PSD checks, relative to
        ``max(1, max |lambda|)`` of the matrix tested.
    :param eps_eq: max-entry-norm threshold for operator equality,
        relative to ``max(1, max |operand|)`` (:func:`negligible`).
    """

    eps_rank: float = 1e-9
    eps_psd: float = 1e-10
    eps_eq: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("eps_rank", "eps_psd", "eps_eq"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3), got {value!r}")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex array, rejecting NaN/inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def max_abs(a) -> float:
    """Max-entry norm ``max_ij |a_ij|`` (zero for an empty array)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def negligible(x, tol: Tolerance, *operands) -> bool:
    """Whether ``x`` is zero at the scale of the ``operands`` it was formed
    from: ``max |x| <= eps_eq * max(1, max |operand|)``.

    This is the package's one equality rule; ``a`` equals ``b`` when
    ``negligible(a - b, tol, a, b)``.  It is read cheapest-first, the floor
    and then each operand, which by monotone rounding is that inequality.
    """
    size = max_abs(x)
    return size <= tol.eps_eq or any(size <= tol.eps_eq * max_abs(a)
                                     for a in operands)


def kept(values, tol: Tolerance, *scales) -> np.ndarray:
    """Which ``values`` count as nonzero: ``values > eps_rank * max(max
    values, *scales)``.

    This is the package's one rank rule.  ``values`` are the singular
    values (or eigenvalues) of one matrix, or of a batch stacked along the
    first axis of a 2-D array, which is judged row by row.  The ``scales``
    are the sizes of the data the matrix was formed from; a value is
    dropped when it is negligible next to them, even if it is the largest.
    Empty and all-zero input keep nothing.
    """
    values = np.asarray(values)
    if values.size == 0:
        return np.zeros(values.shape, dtype=bool)
    # a batch keeps its row axis; one matrix's top is a scalar
    top = values.max(axis=-1, keepdims=values.ndim > 1)
    if scales:
        top = np.maximum(top, max(scales))
    return values > tol.eps_rank * top


def require_hermitian(m) -> np.ndarray:
    """Return the Hermitian part of ``m`` if it is close enough to Hermitian.

    The residual ``max_abs(m - m*)`` is compared against
    ``HERMITIAN_RESIDUAL`` scaled by ``max(1, max_abs(m))`` so that
    well-conditioned large matrices are not rejected for harmless rounding.
    Beyond that, NonHermitianInput is raised rather than silently averaging
    away a real asymmetry.  As in :func:`negligible`, the floor goes first.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"matrix is not square: shape {m.shape}")
    gap = max_abs(m - m.conj().T)
    if gap > HERMITIAN_RESIDUAL and gap > HERMITIAN_RESIDUAL * max_abs(m):
        raise NonHermitianInput(
            f"matrix is not Hermitian: ||M - M*||_max = {gap:.3e}"
        )
    return _hermitian_part(m)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m*) / 2`` of a square array, bit for bit: ``m + m*`` in one
    fresh buffer, halved in place (``x / 2 == x * 0.5`` exactly)."""
    h = m + m.conj().T
    h *= 0.5
    return h


def eigh(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and unitary ``u``
    such that ``m = u @ diag(w) @ u*``.
    """
    h = require_hermitian(m)
    w, u = np.linalg.eigh(h)
    return w, u


def _psd_slack(w: np.ndarray, tol: Tolerance, *scales: float) -> float:
    """How far below zero the (nonempty) eigenvalues ``w`` of a PSD matrix
    may reach: ``eps_psd * max(1, max |w|)`` for a lone matrix, and
    ``eps_psd * max(max |w|, *scales)`` for one formed from operands of
    sizes ``scales``."""
    top = float(np.abs(w).max())
    return tol.eps_psd * (max(top, *scales) if scales else max(1.0, top))


def psd_check(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue of Hermitian ``m`` is at least
    ``-eps_psd * max(1, max |lambda|)``."""
    h = require_hermitian(m)
    if h.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(h)
    return bool(w[0] >= -_psd_slack(w, tol))


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of ``m``: the singular values :func:`kept`."""
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(kept(s, tol)))


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negatives are clipped."""
    w, u = eigh(m)
    if w.size and w[0] < -_psd_slack(w, tol):
        raise NotPSD(f"matrix has a negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def ranked_svd(m, tol: Tolerance = DEFAULT_TOL):
    """``(u, s, vh, rank)``: the thin SVD of ``m`` and its numerical rank.

    ``u[:, :rank]`` is an orthonormal basis of the column space of ``m``;
    for a square ``m`` the remaining columns of ``u`` span its orthogonal
    complement.
    """
    m = as_matrix(m)
    if m.size == 0:
        rows, cols = m.shape
        return (np.eye(rows, 0, dtype=complex), np.zeros(0),
                np.eye(0, cols, dtype=complex), 0)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh, int(np.count_nonzero(kept(s, tol)))


def range_projection(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the column space of ``m``."""
    u, _, _, r = ranked_svd(m, tol)
    ur = u[:, :r]
    return ur @ ur.conj().T


def kernel_basis(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the kernel of ``m``.

    The result has shape ``(cols, cols - rank)``; for a full-rank matrix it
    has zero columns.  ``m @ kernel_basis(m)`` vanishes to working precision.
    """
    m = as_matrix(m)
    cols = m.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if max_abs(m) == 0.0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    r = int(np.count_nonzero(kept(s, tol)))
    return vh[r:, :].conj().T
