"""Reference checks the tests hold the library against.

None decides anything the library ships: :func:`grid_oracle` is a
brute-force scan over a grid of directions, and
:func:`domination_preserves_quasipurity_check` samples maps dominated by a
quasi-pure one; both raise ``ValueError`` on input they do not cover.
:func:`pseudo_inverse` is the Moore-Penrose inverse the completion tests
build their reference completions from.
:func:`refine_candidate_reference` is the candidate polish as it was
written before its rounds were made leaner, kept verbatim so the tests can
hold the library's polish to it byte for byte.
:func:`dense_least_completion`, :func:`dense_compression` and
:func:`reducing_projection_reference` are the minimal completions as they
were built before they were kept in factor form: an ``n x n`` Choi matrix
lifted through a scatter and two products, and a dilation compressed by
the ``kron(I, P_S)`` projector.
"""

import numpy as np

from cpmaps import (
    CpMap,
    is_cp,
    is_quasipure,
    linalg,
    map_from_contraction,
    map_from_dilation,
    minimal_kraus,
    minimal_stinespring,
    quasipure,
)
from cpmaps.completion import _decide, _split_blocks, _times_blocks
from cpmaps.errors import NotCompletable, NotCP, ZeroMap
from cpmaps.linalg import DEFAULT_TOL, Tolerance
from cpmaps.quasipure import (
    INCONCLUSIVE,
    NOT_QUASI_PURE,
    QUASI_PURE,
    QuasiPurityVerdict,
)

METHOD_GRID = "GridOracle"


class GridVerdict(QuasiPurityVerdict):
    """A grid-oracle verdict.

    The oracle returns ``QuasiPure`` only once its Lipschitz margin clears
    (or the scan was exhaustive), so every decided verdict is a proof.
    """

    @property
    def is_proof(self) -> bool:
        return self.status != INCONCLUSIVE


def pseudo_inverse(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian matrix via eigendecomposition.

    Only the eigenvalues whose magnitudes the rank rule :func:`linalg.kept`
    keeps are inverted, the rest are exact zeros, which keeps it consistent
    with :func:`linalg.numerical_rank` and :func:`linalg.range_projection`
    on the same input.
    """
    w, u = linalg.eigh(m)
    keep = linalg.kept(np.abs(w), tol)
    return (u[:, keep] / w[keep]) @ u[:, keep].conj().T


def _complement(factors, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis (columns) of the orthocomplement of cap_j ker K_j.

    Taken as the kernel of the common kernel's adjoint, apart from the
    library's one-SVD reduction, so the oracle checks that one too.
    """
    null = linalg.kernel_basis(np.vstack(factors), tol)
    if null.shape[1] == 0:
        return np.eye(factors[0].shape[1], dtype=complex)
    return linalg.kernel_basis(null.conj().T, tol)


def _not_quasipure(factors, h, tol: Tolerance) -> GridVerdict:
    h = quasipure._normalize(h)
    assert quasipure._is_witness(factors, h, tol), \
        "grid witness failed the rank window"
    return GridVerdict(status=NOT_QUASI_PURE, method=METHOD_GRID, witness=h)


def _grid_points(m: int, density: int) -> np.ndarray:
    if m == 1:
        return np.ones((1, 1), dtype=complex)
    thetas = np.linspace(0.0, np.pi / 2.0, density)
    phases = np.linspace(0.0, 2.0 * np.pi, density, endpoint=False)
    tt, pp = np.meshgrid(thetas, phases, indexing="ij")
    return np.stack([np.cos(tt).ravel().astype(complex),
                     (np.exp(1j * pp) * np.sin(tt)).ravel()], axis=1)


def grid_oracle(phi: CpMap, grid_density: int = 200,
                tol: Tolerance = DEFAULT_TOL) -> GridVerdict:
    """Brute-force quasi-purity scan over a projective grid of directions.

    Only meant for ``d_out <= 2`` and ``k <= 3`` (ValueError otherwise); it
    shares none of the pencil machinery.  After reducing the common kernel,
    it scans magnitude/phase grid points on the projective space of
    directions:

    * any grid point inside the rank window is a verified witness;
    * points whose k-th singular value dips below a Lipschitz threshold
      (singular values of ``F(h)`` are 1-Lipschitz in ``h`` against the
      aggregate factor norm) are polished and re-verified;
    * if the scan minimum clears the Lipschitz margin, no direction
      anywhere on the sphere can be singular and the verdict is a
      certificate, not a sample.
    """
    if not is_cp(phi, tol):
        raise NotCP("quasi-purity is defined for completely positive maps")
    if phi.is_zero():
        raise ZeroMap("quasi-purity is undefined for the zero map")
    factors = minimal_kraus(phi, tol)
    k = len(factors)
    if phi.d_out > 2 or k > 3:
        raise ValueError(
            f"grid oracle supports d_out <= 2 and k <= 3, got "
            f"d_out={phi.d_out}, k={k}"
        )
    if grid_density < 8:
        raise ValueError("grid density must be at least 8")

    basis = _complement(factors, tol)
    m = basis.shape[1]
    stack = np.stack([f @ basis for f in factors])  # (k, d1, m)
    pts = _grid_points(m, grid_density)

    fs = np.einsum("jdm,nm->ndj", stack, pts)
    svals = np.linalg.svd(fs, compute_uv=False)  # (N, min(d1, k)) descending
    smax = svals[:, 0]
    ranks = np.sum(svals > tol.eps_rank * smax[:, None], axis=1)

    window = (ranks > 0) & (ranks < k)
    if np.any(window):
        idx = int(np.argmax(window))
        return _not_quasipure(factors, basis @ pts[idx], tol)

    if k > phi.d_in:
        # rank can never reach k; any direction with a nonzero image is a
        # witness, and after reduction every direction has a nonzero image
        return _not_quasipure(factors, basis @ pts[0], tol)

    if m == 1:
        # one projective direction -- the scan above was already exhaustive
        return GridVerdict(status=QUASI_PURE, method=METHOD_GRID)

    lipschitz = float(np.sqrt(sum(
        np.linalg.norm(r, ord=2) ** 2 for r in stack)))
    dtheta = (np.pi / 2.0) / (grid_density - 1)
    dphase = (2.0 * np.pi) / grid_density
    covering = 0.5 * (dtheta + dphase)
    margin = lipschitz * covering

    sigma_k = svals[:, k - 1]
    suspicious = np.nonzero(sigma_k <= 4.0 * margin)[0]
    order = suspicious[np.argsort(sigma_k[suspicious])][:16]
    for idx in order:
        h = quasipure._refine_candidate(stack,
                                        pts[idx] / np.linalg.norm(pts[idx]))
        lifted = basis @ h
        if quasipure._is_witness(factors, lifted, tol):
            return _not_quasipure(factors, lifted, tol)

    if float(np.min(sigma_k)) > margin:
        return GridVerdict(status=QUASI_PURE, method=METHOD_GRID)
    return GridVerdict(status=INCONCLUSIVE, method=METHOD_GRID)


def domination_preserves_quasipurity_check(
        phi: CpMap, trials: int = 20, tol: Tolerance = DEFAULT_TOL, *,
        seed: int = 0, budget: int = 2000) -> bool:
    """Check that maps dominated by a quasi-pure map stay quasi-pure.

    ``phi`` must itself carry a proof-grade quasi-pure verdict, otherwise
    ValueError is raised.  Each trial draws a random positive contraction
    in the commutant factor, forms the dominated map, and checks its
    verdict; inconclusive verdicts on the dominated side are skipped, a
    single NotQuasiPure makes the whole check fail.
    """
    base = is_quasipure(phi, tol, budget=budget)
    if not (base.status == QUASI_PURE and base.is_proof):
        raise ValueError(
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
        if dominated.is_zero():
            continue
        verdict = is_quasipure(dominated, tol, budget=budget)
        if verdict.status == NOT_QUASI_PURE:
            return False
    return True


def refine_candidate_reference(stack, h):
    """Drive ``h`` towards a rank-deficient direction of ``F``.

    Each round takes the worst dependency vector ``a`` of ``F(h)`` and
    tries a Gauss-Newton step on ``P(a) h = 0`` moving ``a`` and ``h``
    orthogonally to themselves, kept when it lowers ``sigma_k(F(h))``;
    otherwise ``h`` becomes the best kernel direction of ``P(a)``, an
    alternating step that converges only linearly.  The loop exits once
    ``sigma_k`` reaches rounding level, or after 400 rounds.
    """
    k = len(stack)  # stack: (k, d1, m)
    floor = 1e-14 * float(np.abs(stack).max())

    def state(vec):  # sigma_k of F(vec), F(vec), its worst a, and vec
        f = np.einsum("jdm,m->dj", stack, vec)
        _, s, vh = np.linalg.svd(f)
        return s[min(k, s.size) - 1], f, vh[-1, :].conj(), vec

    s, f, a, h = state(h)
    for _ in range(400):
        if s < floor:
            break
        pencil = np.tensordot(a, stack, axes=(0, 0))
        jacobian = np.hstack([f - np.outer(f @ a, a.conj()),
                              pencil - np.outer(pencil @ h, h.conj())])
        step = np.linalg.lstsq(jacobian, -(pencil @ h), rcond=None)[0][k:]
        trial = state((h + step) / np.linalg.norm(h + step))
        if trial[0] >= s:
            h_new = np.linalg.svd(pencil)[2][-1, :].conj()
            if np.linalg.norm(h_new - h * np.vdot(h, h_new)) < 1e-15:
                return h_new
            trial = state(h_new)
        s, f, a, h = trial
    return h


def dense_least_completion(beta, tol: Tolerance = DEFAULT_TOL) -> CpMap:
    """The minimal CP completion of ``beta`` by the Choi route, assembled as
    the ``n x n`` matrix ``[A, C*; C, C A^+ C*]`` in the basis of ``R``'s
    SVD, scattered into ``I (x) U``'s coordinate order and lifted by
    ``(I (x) U) . (I (x) U)*``, then symmetrized."""
    split = _split_blocks(beta, tol)
    completable, min_eig, leak, (w, v), _ = _decide(split.a, split.c, tol)
    if not completable:
        raise NotCompletable(min_eig, leak)
    d1, d2 = beta.d_in, beta.d_out
    n = d1 * d2
    u, _, _, r = beta._ranked_svd(tol)
    cv = split.c @ v
    m = split.a.shape[0]
    full = np.empty((n, n), dtype=complex)
    full[:m, :m] = split.a
    full[m:, :m] = split.c
    full[:m, m:] = split.c.conj().T
    full[m:, m:] = (cv / w) @ cv.conj().T
    order = np.arange(n).reshape(d1, d2)
    perm = np.concatenate([order[:, :r].ravel(), order[:, r:].ravel()])
    blocked = np.empty_like(full)
    blocked[np.ix_(perm, perm)] = full
    blocked = (u @ blocked.reshape(d1, d2, n)).reshape(n, n)
    full = _times_blocks(blocked, u.conj().T, d1)
    return CpMap.from_choi((full + full.conj().T) / 2.0, d1, d2)


def reducing_projection_reference(triple, m,
                                  tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``kron(I_{d_in}, P_S)`` from the range projection of the rows that
    span ``S``, as :func:`cpmaps.reducing_projection` was written."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    k = triple.multiplicity
    rows = (triple.v @ m).reshape(triple.d_in, k, -1)
    rows = np.moveaxis(rows, 1, 2).reshape(-1, k)
    p_rows = linalg.range_projection(rows.T, tol)
    return np.kron(np.eye(triple.d_in, dtype=complex), p_rows)


def dense_compression(triple, m, tol: Tolerance = DEFAULT_TOL) -> CpMap:
    """``X -> V* Q (X (x) I) Q V`` for ``Q`` the reducing projection of
    ``m``, through the full ``d_in k``-dimensional dilation space."""
    q = reducing_projection_reference(triple, m, tol)
    return map_from_dilation(q @ triple.v, triple.d_in, triple.d_out,
                             triple.multiplicity)
