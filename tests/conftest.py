"""Shared helpers for the test suite."""

import os
import pathlib
import subprocess
import sys

import numpy as np

from cpmaps import CpMap

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=DATA):
    """Run ``python -m cpmaps *args`` cold in a child process.

    The child gets the absolute ``src`` directory in front of any inherited
    ``PYTHONPATH``, so the package is found whatever the working directory
    and whether or not it is installed.  Returns (exit code, stdout, stderr).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cpmaps", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def random_kraus(rng, d_in, d_out, k):
    """A list of k independent complex Gaussian factor matrices."""
    return [
        rng.normal(size=(d_in, d_out)) + 1j * rng.normal(size=(d_in, d_out))
        for _ in range(k)
    ]


def random_map(rng, d_in, d_out, k):
    return CpMap.from_kraus(random_kraus(rng, d_in, d_out, k))


def random_psd(rng, n, rank=None):
    """A random PSD matrix, optionally of prescribed rank."""
    r = n if rank is None else rank
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    return g @ g.conj().T


def random_projection(rng, n, rank):
    """An orthogonal projection of the given rank."""
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def random_non_normal(rng, n, rank):
    """``R = G H*`` of the given rank, with ``ran R != ran R*``."""
    g, h = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            for _ in range(2))
    return g @ h.conj().T


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def boundary_choi_maps(rng, count):
    """``count`` maps M_2 -> M_2 by their Choi matrices ``U diag(-1e-10 + u,
    0.3, 0.6, 1) U*``, Haar ``U``, ``u ~ U(-3e-16, 3e-16)``: the smallest
    eigenvalue lies within rounding of the default PSD cutoff, ``-eps_psd *
    max(1, max |lambda|) = -1e-10``."""
    for _ in range(count):
        u = haar_unitary(rng, 4)
        w = np.array([-1e-10 + rng.uniform(-3e-16, 3e-16), 0.3, 0.6, 1.0])
        yield CpMap.from_choi((u * w) @ u.conj().T, 2, 2)


def matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def polynomial_factors(rng, d_in, m, k, draw=haar_unitary):
    """Factors ``K_j = A (sum_l C_jl S_l) B`` of a quasi-pure map.

    ``S_l`` sends the coefficients of ``h(x)`` (degree < m) to those of
    ``x^l h(x)`` in ``C^{d_in}``, ``d_in >= k + m - 1``.  Then
    ``sum_j a_j K_j h = A ((C^T a)(x) (B h)(x))``, a product of nonzero
    polynomials for invertible ``A``, ``B``, ``C``, so no ``a (x) h != 0``
    is sent to zero, while ``rank [K_1 | ... | K_k] = k + m - 1 < k m``.
    ``A``, ``B``, ``C`` are ``draw(rng, n)``: Haar unitaries by default.
    """
    a, b, c = (draw(rng, n) for n in (d_in, m, k))
    shifts = [np.eye(d_in, m, -l) for l in range(k)]
    return [a @ sum(c[j, l] * shifts[l] for l in range(k)) @ b
            for j in range(k)]


def pencil_witness(rng, d_in, m):
    """A ``k = 2`` pair with ``K_2 e_1 = -2 K_1 e_1``, its columns mixed by
    a unitary: ``T = [K_1 | K_2]`` has a one-dimensional kernel."""
    l1, l2 = (rng.normal(size=(d_in, m)) + 1j * rng.normal(size=(d_in, m))
              for _ in range(2))
    l2[:, 0] = -2.0 * l1[:, 0]
    b = haar_unitary(rng, m)
    return CpMap.from_kraus([l1 @ b, l2 @ b])


def counterexample_population():
    """(map, witness) pairs of the counterexample soundness criterion.

    Four diagonal pair maps and 36 seeded planted-witness maps, each with
    the witness ``is_quasipure`` reports, kept when it reports one.
    """
    from cpmaps import is_quasipure
    from cpmaps.gallery import diagonal_pair_map, planted_witness_map

    rng = np.random.default_rng(1008)
    maps = [diagonal_pair_map(diag) for diag in (
        (1.0, 2.0, 3.0), (1.0, 2.0, 5.0), (1.0, 3.0, 7.0), (2.0, 3.0, 4.0))]
    while len(maps) < 40:
        phi, _ = planted_witness_map(
            int(rng.integers(2, 4)), int(rng.integers(2, 4)),
            int(rng.integers(2, 4)), seed=int(rng.integers(0, 10 ** 6)))
        maps.append(phi)
    pairs = []
    for phi in maps:
        verdict = is_quasipure(phi)
        if verdict.status == "NotQuasiPure":
            pairs.append((phi, verdict.witness))
    return pairs


def count_linalg_calls(monkeypatch, names, compute_uv=False,
                       full_matrices=False):
    """Record the input shape of every call to the named numpy.linalg routines.

    With ``compute_uv`` each record also holds whether an ``svd`` call asked
    for singular vectors (its own ``compute_uv``, True by default), and with
    ``full_matrices`` then whether it asked for full ``U`` and ``V*`` (its
    own ``full_matrices``, True by default).
    """
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def counted(m, *args, _name=name, _original=original, **kwargs):
            record = (_name, np.shape(m))
            if compute_uv:
                record += (args[1] if len(args) > 1
                           else kwargs.get("compute_uv", True),)
            if full_matrices:
                record += (args[0] if args
                           else kwargs.get("full_matrices", True),)
            calls.append(record)
            return _original(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def record_norm_orders(monkeypatch):
    """Record the ``ord`` of every call to ``numpy.linalg.norm``."""
    orders = []
    original = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return original(x, ord, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", norm)
    return orders
