"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line when it
holds; the assertions carry the stated tolerances and runtime budgets.
"""

import itertools
import time

import numpy as np

from cpmaps import (
    CpMap,
    apply,
    block_completable,
    BlockCompletionProblem,
    choi_to_kraus,
    counterexample_construct,
    cyclic_projection,
    dominates,
    forced_equality_scan,
    is_cp,
    is_quasipure,
    kraus_to_choi,
    map_from_contraction,
    map_from_dilation,
    maps_close,
    minimal_block_completion,
    minimal_cp_completion_choi,
    minimal_cp_completion_stinespring,
    minimal_stinespring,
    PartialCpMap,
    radon_nikodym,
    r_equivalent,
    rigidity_check,
)
from cpmaps import linalg, serialize
from cpmaps.gallery import (
    conjugation_map,
    diagonal_pair_map,
    flip_twirl_map,
    identity_map,
    planted_witness_map,
    random_cp_map,
    random_positive_contraction,
    trace_state_map,
)

from conftest import (
    DATA,
    counterexample_population,
    haar_unitary,
    random_projection,
    random_psd,
    random_unit,
    run_cli,
)
from oracles import grid_oracle

E11 = np.diag([1.0, 0.0]).astype(complex)


def announce(n, label):
    print(f"criterion {n}: PASS — {label}")


def random_state_map(rng, d1, d2):
    """A random map of the form X -> trace(rho X)|v><v| (always quasi-pure)."""
    rho = random_psd(rng, d1, rank=int(rng.integers(1, d1 + 1)))
    rho = rho / np.trace(rho).real
    return trace_state_map(rho, random_unit(rng, d2))


def same_span(a, b, tol=1e-9):
    if a.shape[1] != b.shape[1]:
        return False
    if a.shape[1] == 0:
        return True
    p = a @ a.conj().T
    return np.abs(p @ b - b).max() < tol


def test_criterion_1_choi_kraus_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        n = d1 * d2
        choi = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        back = kraus_to_choi(choi_to_kraus(choi, d1, d2), d1, d2)
        worst = max(worst, float(np.abs(back - choi).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"round-trip error {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    announce(1, f"500 Choi/Kraus round trips, max error {worst:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_2_radon_nikodym_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    done = 0
    while done < 200:
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(5, d1 * d2 + 1)))
        phi = random_cp_map(d1, d2, k, rng=rng)
        triple = minimal_stinespring(phi)
        d = random_positive_contraction(triple.multiplicity, rng=rng)
        psi = map_from_contraction(triple, d)
        rn = radon_nikodym(phi, psi)
        worst = max(worst, float(np.abs(rn.matrix - d).max()))
        eigs = np.linalg.eigvalsh(rn.matrix)
        assert eigs[0] >= -1e-10 and eigs[-1] <= 1.0 + 1e-8
        done += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"derivative error {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    announce(2, f"200 derivative round trips, max error {worst:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_3_quasipurity_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    family = [
        flip_twirl_map(),
        identity_map(2),
        trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0])),
        trace_state_map(np.array([[0.6, 0.2], [0.2, 0.4]]),
                        np.array([1.0, 1j]) / np.sqrt(2.0)),
        conjugation_map(np.array([[1.0, 0.3], [0.0, 2.0]])),
        CpMap.from_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    ]
    while len(family) < 50:
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        k = int(rng.integers(1, min(3, d1 * d2 + 1)))
        family.append(random_cp_map(d1, d2, k, rng=rng))
    disagreements = 0
    for phi in family:
        fast = is_quasipure(phi)
        slow = grid_oracle(phi, grid_density=200)
        assert fast.status in ("QuasiPure", "NotQuasiPure")
        assert slow.status in ("QuasiPure", "NotQuasiPure")
        if fast.status != slow.status:
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    announce(3, f"{len(family)} maps, pencil vs grid oracle, "
                f"0 disagreements, {elapsed:.1f}s")


def test_criterion_4_kernel_theorem_both_directions():
    rng = np.random.default_rng(1004)

    # forward: dominated parts of quasi-pure maps keep the unit kernel
    for trial in range(50):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        phi = random_state_map(rng, d1, d2)
        triple = minimal_stinespring(phi)
        base = linalg.kernel_basis(apply(phi, np.eye(d1)))
        draws = 0
        while draws < 20:
            d = random_positive_contraction(triple.multiplicity, rng=rng)
            alpha = map_from_contraction(triple, d)
            if alpha.is_zero():
                continue
            draws += 1
            ker = linalg.kernel_basis(apply(alpha, np.eye(d1)))
            assert same_span(base, ker), f"kernel drift in trial {trial}"

    # converse: at a witness the cut-down map grows the kernel strictly
    hard = [flip_twirl_map(), diagonal_pair_map(),
            diagonal_pair_map((1.0, 4.0, 9.0)),
            CpMap.from_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])]
    while len(hard) < 20:
        phi, _ = planted_witness_map(
            int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2,
            seed=int(rng.integers(0, 10 ** 6)))
        hard.append(phi)
    for phi in hard:
        verdict = is_quasipure(phi)
        assert verdict.status == "NotQuasiPure"
        triple = minimal_stinespring(phi)
        q = cyclic_projection(triple, verdict.witness)
        alpha = map_from_dilation(
            (np.eye(triple.dilation_dim) - q) @ triple.v,
            triple.d_in, triple.d_out, triple.multiplicity)
        assert not alpha.is_zero()
        base = linalg.kernel_basis(apply(phi, np.eye(phi.d_in)))
        grown = linalg.kernel_basis(apply(alpha, np.eye(phi.d_in)))
        assert grown.shape[1] > base.shape[1]
        if base.shape[1]:
            p = grown @ grown.conj().T
            assert np.abs(p @ base - base).max() < 1e-9
    announce(4, "kernel preservation on 50 quasi-pure maps and strict growth "
                "on 20 witnesses")


def test_criterion_5_minimal_completion_routes_and_domination():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        phi = random_cp_map(d1, d2, k, rng=rng)
        r = random_projection(rng, d2, int(rng.integers(1, d2 + 1)))
        beta = PartialCpMap.from_map(phi, r)
        a_choi = minimal_cp_completion_choi(beta)
        a_stine = minimal_cp_completion_stinespring(beta, phi)
        worst = max(worst, float(np.abs(a_choi.choi - a_stine.choi).max()))
        assert dominates(phi, a_choi)
        off = np.eye(d2) - r
        for _ in range(20):
            g = [(rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2)))
                 @ off for _ in range(int(rng.integers(1, 3)))]
            psi = a_choi + CpMap.from_kraus(g)
            assert dominates(psi, a_choi)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"route discrepancy {worst:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    announce(5, f"100 completions, route discrepancy {worst:.2e}, dominated "
                f"by 20 perturbations each, {elapsed:.1f}s")


def test_criterion_6_block_completion_minimality():
    rng = np.random.default_rng(1006)
    perturbations = 0
    while perturbations < 50:
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        a = random_psd(rng, r, rank=int(rng.integers(1, r + 1)))
        c = (rng.normal(size=(n - r, r)) + 1j * rng.normal(size=(n - r, r)))
        c = c @ linalg.range_projection(a)
        prob = BlockCompletionProblem.from_blocks(a, c)
        if not block_completable(prob):
            continue
        m = minimal_block_completion(prob)
        d = m[r:, r:]
        if np.abs(d).max() < 1e-9:
            continue
        support = linalg.range_projection(d)
        for _ in range(5):
            g = support @ random_psd(rng, n - r) @ support
            top = np.linalg.eigvalsh(g)[-1]
            if top < 1e-12:
                continue
            g = g / top * max(np.abs(d).max(), 1.0)
            smaller = m.copy()
            smaller[r:, r:] = d - 1e-3 * g
            assert not linalg.psd_check(smaller), "corner was not minimal"
            perturbations += 1

        scale = max(np.abs(d).max(), 1.0)
        prev = None
        for t in (1e-2, 1e-4, 1e-6):
            approx = c @ np.linalg.inv(a + t * np.eye(r)) @ c.conj().T
            approx = (approx + approx.conj().T) / 2.0
            slack = 1e-9 * scale * np.eye(n - r)
            assert linalg.psd_check(d - approx + slack)
            if prev is not None:
                assert linalg.psd_check(approx - prev + slack)
            prev = approx
    announce(6, f"{perturbations} downward perturbations broke positivity; "
                "monotone family increases to the minimal corner")


def test_criterion_7_rigidity():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    done = 0
    worst = 0.0
    while done < 200:
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(2, 4))
        phi = random_state_map(rng, d1, d2)
        r = random_projection(rng, d2, int(rng.integers(1, d2 + 1)))
        beta = PartialCpMap.from_map(phi, r)
        units = [apply(phi, e) @ beta.range_projection()
                 for e in np.eye(d1 * d1).reshape(d1 * d1, d1, d1)]
        if max(np.abs(u).max() for u in units) < 1e-9:
            continue  # the X0 hypothesis would fail; draw again
        psi = minimal_cp_completion_choi(beta)
        verdict = rigidity_check(phi, psi, r)
        assert verdict.status == "TheoremHolds"
        worst = max(worst, verdict.max_deviation)
        assert np.abs(phi.choi - psi.choi).max() <= 1e-8
        done += 1
    # a non-injective k = 4 map, quasi-pure by construction and proved by
    # its Sylvester-type matrix, against a remixed Kraus family of itself
    phi = serialize.decode_map(
        serialize.load_document(DATA / "polynomial_744_map.json"))
    u = haar_unitary(rng, len(phi.kraus))
    psi = CpMap.from_kraus(list(np.tensordot(u, np.stack(phi.kraus), 1)))
    r = np.zeros((phi.d_out, phi.d_out), dtype=complex)
    r[0, 0] = 1.0
    verdict = rigidity_check(phi, psi, r)
    assert verdict.status == "TheoremHolds"
    worst = max(worst, verdict.max_deviation)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    announce(7, f"201 rigidity instances, TheoremHolds, max deviation "
                f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_counterexample_soundness():
    pairs = counterexample_population()
    assert len(pairs) >= 10
    for phi, witness in pairs:
        out = counterexample_construct(phi, witness)
        assert out is not None, "no counterexample at a witness"
        psi, r = out
        d1 = phi.d_in
        scale = max(np.abs(phi.choi).max(), 1.0)
        assert is_cp(psi)
        assert np.abs(apply(psi, np.eye(d1))
                      - apply(phi, np.eye(d1))).max() < 1e-9 * scale
        assert r_equivalent(phi, psi, r)
        assert np.abs(phi.choi - psi.choi).max() > 1e-6
        assert linalg.numerical_rank(r) == 1

    # the boundary case: restriction at e1 forces the whole map back
    special = flip_twirl_map()
    assert counterexample_construct(special, np.array([1.0, 0.0])) is None
    assert forced_equality_scan(special, E11)
    announce(8, f"{len(pairs)} counterexamples with all postconditions; "
                "forced equality confirmed at the boundary case")


def test_criterion_9_demo_and_golden_reports():
    code, _, err = run_cli("demo", "--seed", "0")
    assert code == 0, f"demo did not exit cleanly\n{err}"

    goldens = [
        (("quasipure", "eb_map.json"), "golden_quasipure_eb.json"),
        (("quasipure", "special_map.json"), "golden_quasipure_special.json"),
        (("aeq", "nqp_phi.json", "nqp_psi.json", "--r", "nqp_r.json"),
         "golden_aeq_nonquasipure.json"),
    ]
    for args, name in goldens:
        expected = (DATA / name).read_text()
        for _ in range(2):
            _, out, err = run_cli(*args)
            assert out == expected, f"golden report drifted: {name}\n{err}"
    announce(9, "demo exits 0; three golden reports byte-stable")
