"""The benchmark's own checks, in numpy, independent of ``cpmaps``.

Each check raises ``CheckFailed`` with a reason, so a caller can count a
wrong answer and say which property it broke.  Tolerances are relative to
the scale of the data and looser than the library's, because they judge
answers that are exact up to rounding.
"""

from __future__ import annotations

import numpy as np

RANK_REL = 1e-7
EQ_REL = 1e-7
PSD_REL = 1e-8


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def rank(m, rel: float = RANK_REL) -> int:
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel * s[0]))


def choi_of(factors) -> np.ndarray:
    """``sum_j v_j v_j*`` with ``v_j = conj(K_j)`` flattened row-major."""
    vs = np.stack([np.asarray(k, dtype=complex).conj().reshape(-1) for k in factors])
    return vs.T @ vs.conj()


def min_eig(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def is_psd(m, scale: float | None = None) -> bool:
    scale = max(1.0, max_abs(m)) if scale is None else scale
    return min_eig(m) >= -PSD_REL * scale


def range_projection(r, rel: float = RANK_REL) -> np.ndarray:
    """Projection onto the range of a matrix (via its SVD)."""
    u, s, _ = np.linalg.svd(np.asarray(r, dtype=complex))
    keep = u[:, s > rel * s[0]]
    return keep @ keep.conj().T


def unit_value(choi, d_in: int, d_out: int) -> np.ndarray:
    """``phi(I)``: the sum of the diagonal blocks of the Choi matrix."""
    blocks = np.asarray(choi).reshape(d_in, d_out, d_in, d_out)
    return np.einsum("iaib->ab", blocks)


def right_masked(choi, r, d_in: int) -> np.ndarray:
    """The blocks ``phi(E_ij) R`` side by side: ``Choi (I (x) R)``."""
    return np.asarray(choi) @ np.kron(np.eye(d_in), r)


# ---------------------------------------------------------------------------
# quasi-purity


def check_witness(factors, witness) -> None:
    """``0 < rank [K_1 h | ... | K_k h] < k`` on the input factors."""
    require(witness is not None, "NotQuasiPure without a witness")
    h = np.asarray(witness, dtype=complex).reshape(-1)
    require(h.shape == (factors[0].shape[1],), "witness has the wrong length")
    require(np.linalg.norm(h) > 0.0, "zero witness")
    r = rank(np.column_stack([k @ h for k in factors]))
    require(0 < r < len(factors), f"witness rank {r} outside (0, {len(factors)})")


def check_quasipurity(expected: str, factors, verdict) -> bool:
    """Judge a verdict against the known answer; True when it is decided.

    ``Inconclusive`` is neither right nor wrong.  ``QuasiPure`` on a map
    with a witness, ``NotQuasiPure`` on a quasi-pure map, and a witness
    outside the rank window are wrong answers.
    """
    status = verdict.status
    if status == "Inconclusive":
        return False
    require(status in ("QuasiPure", "NotQuasiPure"), f"unknown status {status!r}")
    require(status == expected, f"expected {expected}, got {status} ({verdict.method})")
    if status == "NotQuasiPure":
        check_witness(factors, verdict.witness)
    return True


# ---------------------------------------------------------------------------
# completion


def check_completion(alpha_choi, phi_choi, r, d_in: int, d_out: int) -> None:
    """A minimal CP completion of ``X -> phi(X) R`` for a CP ``phi``.

    ``alpha`` must be CP, reproduce ``phi(E_ij) R`` on every matrix unit,
    and be dominated by ``phi`` (``Choi(phi) - Choi(alpha)`` PSD): the
    minimal completion lies below every completion, ``phi`` among them.
    """
    scale = max(1.0, max_abs(phi_choi))
    require(is_psd(alpha_choi, scale), "completion is not CP")
    gap = max_abs(right_masked(np.asarray(alpha_choi) - phi_choi, r, d_in))
    require(gap <= EQ_REL * scale * max(1.0, max_abs(r)),
            f"completion misses the data by {gap:.2e}")
    require(is_psd(np.asarray(phi_choi) - alpha_choi, scale),
            "completion is not dominated by the generating map")


def check_same(a_choi, b_choi, what: str) -> None:
    scale = max(1.0, max_abs(a_choi), max_abs(b_choi))
    gap = max_abs(np.asarray(a_choi) - b_choi)
    require(gap <= EQ_REL * scale, f"{what} differ by {gap:.2e}")


def check_decomposition(alpha_choi, phi1_choi, phi_choi, r, d_in: int) -> None:
    """``alpha + phi1 = phi``, both CP, and ``phi1(.) R = 0``."""
    scale = max(1.0, max_abs(phi_choi))
    check_same(np.asarray(alpha_choi) + phi1_choi, phi_choi, "alpha + phi1 and phi")
    require(is_psd(alpha_choi, scale), "alpha is not CP")
    require(is_psd(phi1_choi, scale), "phi1 is not CP")
    leak = max_abs(right_masked(phi1_choi, r, d_in))
    require(leak <= EQ_REL * scale * max(1.0, max_abs(r)), f"phi1(.) R is {leak:.2e}, not 0")


def check_counterexample(psi_choi, r, phi_choi, d_in: int, d_out: int, witness) -> None:
    """``psi`` is CP, unit-matched, R-equivalent to ``phi`` and differs from it."""
    scale = max(1.0, max_abs(phi_choi))
    require(is_psd(psi_choi, scale), "counterexample is not CP")
    unit_gap = max_abs(unit_value(psi_choi, d_in, d_out) - unit_value(phi_choi, d_in, d_out))
    require(unit_gap <= EQ_REL * scale, f"unit values differ by {unit_gap:.2e}")
    h = np.asarray(witness, dtype=complex) / np.linalg.norm(witness)
    require(max_abs(np.asarray(r) - np.outer(h, h.conj())) <= EQ_REL,
            "R is not the projection onto the witness")
    leak = max_abs(right_masked(np.asarray(psi_choi) - phi_choi, r, d_in))
    require(leak <= EQ_REL * scale, f"not R-equivalent: {leak:.2e}")
    require(max_abs(np.asarray(psi_choi) - phi_choi) > 1e-6 * scale,
            "counterexample equals phi")
