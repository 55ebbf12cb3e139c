"""Seeded inputs whose answers are known by construction.

Everything here is plain numpy: the benchmark never asks ``cpmaps`` (or its
``gallery``) to make an input, so a change to the library cannot change the
inputs it is measured on.  Conventions follow the library: a map is
``X -> sum_j K_j* X K_j`` with factors of shape ``(d_in, d_out)``, and a
quasi-purity witness is a vector ``h`` in ``C^{d_out}`` with
``0 < rank [K_1 h | ... | K_k h] < k``.
"""

from __future__ import annotations

import numpy as np

from checks import choi_of, range_projection, rank


def ginibre(rng, shape) -> np.ndarray:
    """Complex Gaussian entries of unit variance."""
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def haar_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def near_unitary(rng, n: int, spread: float = 0.2) -> np.ndarray:
    """``U diag(s) V`` with singular values spread evenly over ``1 +- spread``.

    Exactly unitary mixing makes ``sigma_k [K_j h]`` constant over the
    sphere, and the randomized search then either stalls at once or runs its
    refinement to the iteration cap depending on rounding: a two-valued cost
    that no number of inputs averages out.  A modest spread keeps the
    landscape curved and the cost per map comparable.
    """
    s = 1.0 + spread * np.linspace(-1.0, 1.0, n)
    return haar_unitary(rng, n) @ np.diag(s) @ haar_unitary(rng, n)


def gaussian_integers(rng, shape) -> np.ndarray:
    """Entries ``a + ib`` with ``a, b`` in ``{-1, 0, 1}``."""
    return (rng.integers(-1, 2, size=shape)
            + 1j * rng.integers(-1, 2, size=shape)).astype(complex)


def invertible_gaussian_integers(rng, n: int) -> np.ndarray:
    while True:
        a = gaussian_integers(rng, (n, n))
        if abs(np.linalg.det(a)) > 0.5:  # a nonzero Gaussian integer
            return a


# ---------------------------------------------------------------------------
# quasi-purity


def quasipure_factors(a, b, c, d_in: int, m: int) -> list:
    """``K_j = A pad(sum_i C_ji (e_i (x) I_m)) B`` for invertible A, B, C.

    ``[K_1 h | ... | K_k h] = A pad(C^T (x) B h)`` has rank ``k`` for every
    ``h != 0``, so the map is quasi-pure.  Needs ``k m <= d_in``.
    """
    k = c.shape[0]
    if k * m > d_in:
        raise ValueError(f"quasi-pure construction needs k*m <= d_in, got {k}*{m} > {d_in}")
    factors = []
    for j in range(k):
        core = np.zeros((d_in, m), dtype=complex)
        core[:k * m] = np.kron(c[j][:, None], np.eye(m))
        factors.append(a @ core @ b)
    return factors


def quasipure_float(rng, d_in: int, m: int, k: int, mix=haar_unitary) -> list:
    return quasipure_factors(mix(rng, d_in), mix(rng, m), mix(rng, k), d_in, m)


def quasipure_exact(rng, d_in: int, m: int, k: int = 2) -> list:
    return quasipure_factors(invertible_gaussian_integers(rng, d_in),
                             invertible_gaussian_integers(rng, m),
                             invertible_gaussian_integers(rng, k), d_in, m)


def pencil_witness(rng, d_in: int, m: int, exact: bool):
    """A ``k = 2`` pair singular at an interior point ``z0`` of the pencil.

    ``K_2 g = -z0 K_1 g`` for ``g = e_1``; mixing the columns by ``B`` moves
    the witness to ``B^{-1} e_1``.  Both factors stay injective, so neither
    endpoint of the pencil decides the map.  Returns ``(factors, witness)``.
    """
    while True:
        if exact:
            k1 = gaussian_integers(rng, (d_in, m))
            k2 = gaussian_integers(rng, (d_in, m))
            z0 = complex(rng.integers(1, 3), rng.choice([-1, 1]) * rng.integers(1, 3))
            b = invertible_gaussian_integers(rng, m)
        else:
            k1 = ginibre(rng, (d_in, m))
            k2 = ginibre(rng, (d_in, m))
            z0 = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            b = haar_unitary(rng, m)
        k2[:, 0] = -z0 * k1[:, 0]
        if rank(k1) == m and rank(k2) == m:
            factors = [k1 @ b, k2 @ b]
            return factors, np.linalg.solve(b, np.eye(m)[:, 0])


def planted_witness(rng, d_in: int, m: int, k: int):
    """``K_j = c_j |w><h0| + G_j (I - |h0><h0|)`` at a random unit ``h0``.

    Every factor sends ``h0`` into the line through ``w``, so
    ``rank [K_j h0] = 1 < k``.  Returns ``(factors, witness)``.
    """
    h0 = ginibre(rng, m)
    h0 /= np.linalg.norm(h0)
    w = ginibre(rng, d_in)
    w /= np.linalg.norm(w)
    c = ginibre(rng, k)
    comp = np.eye(m) - np.outer(h0, h0.conj())
    factors = [c[j] * np.outer(w, h0.conj()) + ginibre(rng, (d_in, m)) @ comp
               for j in range(k)]
    return factors, h0


def generic_factors(rng, d_in: int, m: int, k: int) -> list:
    """Independent Gaussian factors.

    When ``min(m, k) - 1 >= d_in - k + 1`` the rank-deficient locus of
    ``[K_j h]`` meets projective ``h``-space for every generic draw, so the
    map is not quasi-pure; the benchmark only uses such shapes.
    """
    if min(m, k) - 1 < d_in - k + 1:
        raise ValueError(f"({d_in}, {m}, {k}) is generically quasi-pure")
    return [ginibre(rng, (d_in, m)) for _ in range(k)]


# ---------------------------------------------------------------------------
# completion and equivalence


def random_factors(rng, d_in: int, d_out: int, k: int) -> list:
    return [ginibre(rng, (d_in, d_out)) / np.sqrt(d_in * d_out) for _ in range(k)]


def rank_deficient_psd(rng, n: int, r: int) -> np.ndarray:
    g = ginibre(rng, (n, r))
    return g @ g.conj().T


def projection(rng, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(ginibre(rng, (n, r)))
    return q @ q.conj().T


def partial_blocks(choi: np.ndarray, r: np.ndarray, d_in: int, d_out: int) -> tuple:
    """``beta(E_ij) = phi(E_ij) R``: block ``(i, j)`` of the Choi matrix times R."""
    return tuple(
        tuple(choi[i * d_out:(i + 1) * d_out, j * d_out:(j + 1) * d_out] @ r
              for j in range(d_in))
        for i in range(d_in)
    )


def infeasible_choi(rng, factors, r: np.ndarray, d_in: int, d_out: int,
                    kind: str) -> np.ndarray:
    """A Hermitian "Choi column" whose data ``X -> psi(X) R`` has no CP completion.

    ``negative``: subtract ``t u u*`` with ``u`` in ``ran (I (x) P_R)``,
    so the known compression has ``<u, A u> < 0``.
    ``leak``: remove ``u`` from the known compression ``A`` while keeping
    the off-diagonal block ``C``, so ``u`` lies in ``ker A`` but not in
    ``ker C``.
    """
    choi = choi_of(factors)
    p = np.kron(np.eye(d_in), range_projection(r))
    u = p @ ginibre(rng, d_in * d_out)
    u /= np.linalg.norm(u)
    if kind == "negative":
        t = 2.0 * float(np.real(u.conj() @ choi @ u)) + 1.0
        return choi - t * np.outer(u, u.conj())
    if kind == "leak":
        a = p @ choi @ p
        cut = np.eye(d_in * d_out) - np.outer(u, u.conj())
        return choi - a + cut @ a @ cut
    raise ValueError(kind)


def trace_state_factors(rng, d_in: int, d_out: int):
    """Factors of ``X -> trace(rho X) |v><v|`` for a full-rank state ``rho``.

    Every such map is quasi-pure.  Returns ``(factors, v)``.
    """
    g = ginibre(rng, (d_in, d_in))
    rho = g @ g.conj().T + 0.1 * np.eye(d_in)
    rho /= np.trace(rho).real
    w, u = np.linalg.eigh(rho)
    v = ginibre(rng, d_out)
    v /= np.linalg.norm(v)
    return [np.sqrt(w[j]) * np.outer(u[:, j], v.conj()) for j in range(d_in)], v


def remix(rng, factors) -> list:
    """The same map written with another Kraus family (unitary mixing)."""
    u = haar_unitary(rng, len(factors))
    return [sum(u[i, j] * factors[j] for j in range(len(factors)))
            for i in range(len(factors))]


def diagonal_pair(rng, d: int):
    """Factors ``{I, diag(c)}`` with distinct ``c`` and a witness ``e_i``.

    Both factors send ``e_i`` into the same line, so ``e_i`` is a witness,
    and for ``d >= 3`` the twist construction has room to move the map.
    """
    c = 1.0 + np.cumsum(rng.uniform(0.3, 1.0, size=d))
    h0 = np.zeros(d, dtype=complex)
    h0[rng.integers(d)] = 1.0
    return [np.eye(d, dtype=complex), np.diag(c).astype(complex)], h0
