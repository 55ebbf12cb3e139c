"""Ready-made maps used throughout the tests, demos and CLI demo table.

Each constructor returns a :class:`~cpmaps.cp_map.CpMap` with its Kraus
family attached, so downstream code (quasi-purity search, Radon-Nikodym
derivatives) works in the natural coordinates of the example.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import linalg
from .cp_map import CpMap
from .errors import DimensionMismatch, NotPSD
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "identity_map",
    "conjugation_map",
    "transpose_map",
    "trace_state_map",
    "flip_twirl_map",
    "diagonal_pair_map",
    "planted_witness_map",
    "random_cp_map",
    "random_positive_contraction",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def identity_map(d: int) -> CpMap:
    """The identity map on ``M_d`` (pure, Kraus family ``{I}``)."""
    return CpMap.from_kraus([np.eye(d, dtype=complex)])


def conjugation_map(a) -> CpMap:
    """The pure map ``X -> A* X A`` for a single operator ``A``."""
    return CpMap.from_kraus([linalg.as_matrix(a)])


def transpose_map(d: int) -> CpMap:
    """Entrywise transposition on ``M_d``: positive but famously not CP.

    Useful as a negative control -- its Choi matrix (the swap operator)
    has eigenvalue -1.
    """
    return CpMap.from_action(lambda x: x.T, d, d)


def trace_state_map(rho, v) -> CpMap:
    """The map ``X -> trace(rho X) |v><v|`` for a PSD ``rho`` and vector ``v``.

    Any map of this form factors through a commutative algebra, and every
    such map is quasi-pure: the Kraus factors ``|sqrt(p_j) u_j><v|`` built
    from an eigendecomposition ``rho = sum p_j |u_j><u_j|`` all share the
    right vector ``v``.  ``rho`` is tested by the rule of
    :func:`linalg.psd_check`, with a slack relative to its largest
    eigenvalue, so a state is accepted at every scale.
    """
    rho = linalg.require_hermitian(rho)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if np.linalg.norm(v) == 0.0:
        raise DimensionMismatch("the output vector must be nonzero")
    w, u = np.linalg.eigh(rho)
    if w.size and w[0] < -linalg._psd_slack(w, DEFAULT_TOL):
        raise NotPSD(f"state has eigenvalue {w[0]:.3e}")
    factors = [np.sqrt(w[j]) * np.outer(u[:, j], v.conj())
               for j in np.flatnonzero(linalg.kept(w, DEFAULT_TOL))]
    if not factors:
        return CpMap.zero(rho.shape[0], v.size)
    return CpMap.from_kraus(factors, rho.shape[0], v.size)


def flip_twirl_map() -> CpMap:
    """The qubit map ``X -> X + sigma_x X sigma_x``.

    Kraus family ``{I, sigma_x}``; Choi spectrum ``{2, 2, 0, 0}``.  The
    map is quasi-pure *except* on the two vectors ``(1, +-1)/sqrt(2)``,
    which are exactly its quasi-purity witnesses, and it is rigid in a
    strong sense: no distinct CP map matches it through ``R = |h0><h0|``
    even at a witness ``h0``.
    """
    return CpMap.from_kraus([np.eye(2, dtype=complex), SIGMA_X])


def diagonal_pair_map(diag: Sequence[float] = (1.0, 2.0, 3.0)) -> CpMap:
    """The map with Kraus pair ``{I, diag(c_1, ..., c_d)}``.

    For distinct nonzero ``c_i`` this is *not* quasi-pure: every standard
    basis vector ``e_i`` is a witness (both factors send it into the same
    line), and :func:`cpmaps.counterexample_construct` produces genuinely
    different maps agreeing with it through ``R = |e_i><e_i|``.
    """
    c = np.asarray(diag, dtype=complex)
    d = c.size
    return CpMap.from_kraus([np.eye(d, dtype=complex), np.diag(c)])


def planted_witness_map(d_in: int, d_out: int, k: int, *, seed: int = 0,
                        tol: Tolerance = DEFAULT_TOL) -> tuple:
    """A random CP map with a known quasi-purity witness planted at ``e_1``.

    Kraus factors ``K_j = c_j |w><e_1| + G_j (I - |e_1><e_1|)`` with random
    ``w``, ``c_j`` and ``G_j``: every factor sends ``e_1`` into the line
    through ``w``, so ``rank [K_j e_1] = 1 < k`` whenever the family stays
    independent.  Returns ``(map, witness)``.
    """
    if k < 2:
        raise DimensionMismatch("a planted witness needs at least two factors")
    rng = np.random.default_rng(seed)
    h0 = np.zeros(d_out, dtype=complex)
    h0[0] = 1.0
    comp = np.eye(d_out, dtype=complex) - np.outer(h0, h0.conj())
    for _ in range(64):
        w = rng.normal(size=d_in) + 1j * rng.normal(size=d_in)
        w /= np.linalg.norm(w)
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        factors = []
        for j in range(k):
            g = rng.normal(size=(d_in, d_out)) + 1j * rng.normal(size=(d_in, d_out))
            factors.append(c[j] * np.outer(w, h0.conj()) + g @ comp)
        stack = np.stack([f.reshape(-1) for f in factors])
        cols = np.column_stack([f @ h0 for f in factors])
        if (linalg.numerical_rank(stack, tol) == k
                and linalg.numerical_rank(cols, tol) == 1):
            return CpMap.from_kraus(factors, d_in, d_out), h0
    raise RuntimeError("failed to draw an independent planted family")


def random_cp_map(d_in: int, d_out: int, k: int, *, seed: int = 0,
                  rng: Optional[np.random.Generator] = None) -> CpMap:
    """A Haar-flavoured random CP map with exactly ``k`` Kraus factors."""
    if rng is None:
        rng = np.random.default_rng(seed)
    factors = [
        (rng.normal(size=(d_in, d_out)) + 1j * rng.normal(size=(d_in, d_out)))
        / np.sqrt(2.0 * d_in * d_out)
        for _ in range(k)
    ]
    return CpMap.from_kraus(factors, d_in, d_out)


def random_positive_contraction(n: int, *, seed: int = 0,
                                rng: Optional[np.random.Generator] = None
                                ) -> np.ndarray:
    """A random ``0 <= D <= I``, its eigenvalues spread over ``[0, 1]``."""
    if rng is None:
        rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = g @ g.conj().T
    w, u = np.linalg.eigh(h)
    spread = float(w[-1] - w[0]) if n > 1 and w[-1] > w[0] else 1.0
    scaled = (w - w[0]) / spread if n > 1 else np.array([1.0])
    return (u * scaled) @ u.conj().T
