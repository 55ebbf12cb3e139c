"""Command-line front end: JSON documents in, JSON reports out.

Reports go to stdout and are byte-identical for the same inputs (for
``demo``, the same ``--seed`` of its random rows); diagnostics (including
wall time) go to stderr.  Exit codes are a stable contract: 0
success/affirmative, 1 negative verdict, 2 invalid input, 3 inconclusive.

A command loads only the modules it runs.  This module imports
:mod:`linalg`, :mod:`errors` and :mod:`serialize` (which brings
:mod:`cp_map`); each ``_cmd_*`` handler, and the demo table, imports the
functions it calls.  So ``analyze`` stops there, ``quasipure`` adds
:mod:`quasipure`, ``complete`` adds :mod:`stinespring` and
:mod:`completion`, ``aeq`` loads every module but :mod:`gallery`, and
``demo --list`` loads no more than ``analyze``.  The wall time on stderr
includes the handler's imports.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    HypothesisFailed,
    MalformedDocument,
    NotCompletable,
    ToolkitError,
)
from .linalg import Tolerance
from .serialize import (
    decode_map,
    decode_operator,
    decode_partial_map,
    dump_report,
    encode_map,
    encode_matrix,
    encode_vector,
    load_document,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _tolerance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=Tolerance.eps_rank,
                        metavar="EPS", help="relative rank cutoff")
    parser.add_argument("--tol-psd", type=float, default=Tolerance.eps_psd,
                        metavar="EPS", help="PSD eigenvalue slack")
    parser.add_argument("--tol-eq", type=float, default=Tolerance.eps_eq,
                        metavar="EPS", help="entrywise equality slack")


def _tolerance(args) -> Tolerance:
    return Tolerance(eps_rank=args.tol_rank, eps_psd=args.tol_psd,
                     eps_eq=args.tol_eq)


def _tolerance_fields(tol: Tolerance) -> dict:
    return {"eps_rank": tol.eps_rank, "eps_psd": tol.eps_psd,
            "eps_eq": tol.eps_eq}


def _emit(report: dict) -> None:
    sys.stdout.write(dump_report(report))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmaps",
        description="Analyze completely positive maps: structure, "
                    "quasi-purity, minimal completions and rigidity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report for a map file")
    p.add_argument("map_file")
    _tolerance_args(p)

    p = sub.add_parser("quasipure", help="decide quasi-purity of a CP map")
    p.add_argument("map_file")
    p.add_argument("--budget", type=int, default=2000,
                   help="non-negative number of cells steps 2 and 3 may "
                        "spend: chart centres, then the columns of the "
                        "Sylvester-type matrix")
    _tolerance_args(p)

    p = sub.add_parser("complete",
                       help="minimal CP completion of partial data")
    p.add_argument("beta_file", help="partial map document (blocks)")
    p.add_argument("r_file", help="comparison operator document")
    p.add_argument("--route", choices=("choi", "stinespring", "both"),
                   default="both")
    _tolerance_args(p)

    p = sub.add_parser("aeq", help="R-equivalence and rigidity of two maps")
    p.add_argument("phi_file")
    p.add_argument("psi_file")
    ctx = p.add_mutually_exclusive_group(required=True)
    ctx.add_argument("--r", dest="r_file", metavar="R_FILE",
                     help="comparison operator document")
    ctx.add_argument("--xi", dest="xi_file", metavar="XI_FILE",
                     help="reference map document (support projection)")
    p.add_argument("--budget", type=int, default=2000,
                   help="non-negative number of cells the quasi-purity "
                        "decision of phi may spend")
    _tolerance_args(p)

    p = sub.add_parser("demo", help="run the built-in example suite")
    p.add_argument("--list", action="store_true",
                   help="print demo names without running")
    p.add_argument("--seed", type=int, default=0)
    _tolerance_args(p)

    return parser


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args) -> int:
    from .cp_map import choi_rank, classify, is_cp

    tol = _tolerance(args)
    phi = decode_map(load_document(args.map_file))
    spectrum = [float(x) for x in np.linalg.eigvalsh(phi.choi)]
    info = classify(phi, tol) if is_cp(phi, tol) else None
    report = {
        "command": "analyze",
        "tolerances": _tolerance_fields(tol),
        "d_in": phi.d_in,
        "d_out": phi.d_out,
        "is_cp": info is not None,
        "choi_rank": choi_rank(phi, tol) if info is None else info.choi_rank,
        "choi_spectrum": spectrum,
    }
    if info is not None:
        report["is_pure"] = info.is_pure
        report["is_unital"] = info.is_unital
        report["is_entanglement_breaking_quasipure_form"] = (
            info.is_entanglement_breaking_quasipure_form
        )
        if info.eb_state is not None:
            report["eb_state"] = encode_matrix(info.eb_state)
            report["eb_vector"] = encode_vector(info.eb_vector)
    _emit(report)
    return EXIT_OK


def _cmd_quasipure(args) -> int:
    from .cp_map import is_cp
    from .quasipure import NOT_QUASI_PURE, QUASI_PURE, is_quasipure

    tol = _tolerance(args)
    phi = decode_map(load_document(args.map_file))
    report = {
        "command": "quasipure",
        "tolerances": _tolerance_fields(tol),
        "budget": args.budget,
    }
    if not is_cp(phi, tol):
        report["error"] = "NotCP"
        _emit(report)
        print("quasipure: NotCP: the map must be completely positive",
              file=sys.stderr)
        return EXIT_NEGATIVE
    verdict = is_quasipure(phi, tol, budget=args.budget)
    report["status"] = verdict.status
    report["method"] = verdict.method
    report["is_proof"] = verdict.is_proof
    report["samples_used"] = verdict.samples_used
    report["witness"] = (None if verdict.witness is None
                         else encode_vector(verdict.witness))
    _emit(report)
    if verdict.status == QUASI_PURE:
        return EXIT_OK
    if verdict.status == NOT_QUASI_PURE:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def _cmd_complete(args) -> int:
    from .completion import (
        minimal_cp_completion_choi,
        minimal_cp_completion_stinespring,
    )

    tol = _tolerance(args)
    r = decode_operator(load_document(args.r_file))
    beta_doc = load_document(args.beta_file)
    beta = decode_partial_map(beta_doc, r)
    report = {
        "command": "complete",
        "tolerances": _tolerance_fields(tol),
        "route": args.route,
    }
    completion_choi = None
    try:
        completion_choi = minimal_cp_completion_choi(beta, tol)
    except NotCompletable as exc:
        # localize the violation: smallest eigenvalue of the known
        # compression, and how badly ker A leaks through C
        violation = {
            "compression_min_eigenvalue": exc.compression_min_eigenvalue,
            "kernel_leak": exc.kernel_leak,
        }
    report["completable"] = completion_choi is not None
    if completion_choi is None:
        report["violation"] = violation
        _emit(report)
        return EXIT_NEGATIVE

    primary = completion_choi
    if args.route != "choi":
        # the Choi route's completion seeds the Stinespring route
        primary = minimal_cp_completion_stinespring(beta, completion_choi, tol)
    report["completion"] = encode_map(primary)
    if args.route == "both":
        discrepancy = linalg.max_abs(completion_choi.choi - primary.choi)
        report["route_discrepancy"] = float(discrepancy)
    _emit(report)
    return EXIT_OK


def _cmd_aeq(args) -> int:
    from .ae_equiv import (
        EquivalenceContext,
        ae_equal_rigidity,
        r_equivalent,
        rigidity_check,
    )
    from .cp_map import is_cp, maps_close

    tol = _tolerance(args)
    phi = decode_map(load_document(args.phi_file))
    psi = decode_map(load_document(args.psi_file))
    report = {
        "command": "aeq",
        "tolerances": _tolerance_fields(tol),
        "budget": args.budget,
    }
    if args.r_file is not None:
        ctx = EquivalenceContext.from_operator(
            decode_operator(load_document(args.r_file)))
        report["context"] = "operator"
    else:
        xi = decode_map(load_document(args.xi_file))
        ctx = EquivalenceContext.from_reference_map(xi)
        report["context"] = "reference-map"
    equivalent = r_equivalent(phi, psi, ctx, tol)
    report["equivalent"] = bool(equivalent)
    report["maps_equal"] = bool(maps_close(phi, psi, tol))

    rigidity: dict = {"applicable": False}
    if is_cp(phi, tol) and is_cp(psi, tol):
        try:
            check = ae_equal_rigidity if args.r_file is None else rigidity_check
            verdict = check(phi, psi, ctx, tol, budget=args.budget)
            rigidity = {
                "applicable": True,
                "status": verdict.status,
                "max_deviation": verdict.max_deviation,
                "quasipurity_method": verdict.quasipurity.method,
            }
        except HypothesisFailed as exc:
            rigidity = {"applicable": False,
                        "failed_hypothesis": exc.hypothesis}
    report["rigidity"] = rigidity
    _emit(report)
    return EXIT_OK if equivalent else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# demo suite


#: the demo rows in order; ``demo --list`` prints these without loading
#: the modules the rows run
_DEMO_NAMES = (
    "eb-map-is-quasipure",
    "flip-twirl-not-quasipure",
    "flip-twirl-forced-equality-at-e1",
    "flip-twirl-counterexample-at-witness",
    "diagonal-pair-counterexample",
    "decomposition-on-random-maps",
    "rigidity-on-eb-maps",
)


def _demo_rows(seed: int, tol: Tolerance):
    """(name, callable) pairs; each callable returns (passed, detail)."""
    from .ae_equiv import (
        EquivalenceContext,
        THEOREM_HOLDS,
        counterexample_construct,
        decompose_along,
        forced_equality_scan,
        r_equivalent,
        rigidity_check,
    )
    from .completion import PartialCpMap, minimal_cp_completion_choi
    from .cp_map import CpMap, is_cp
    from .gallery import diagonal_pair_map, flip_twirl_map, trace_state_map
    from .quasipure import NOT_QUASI_PURE, QUASI_PURE, is_quasipure

    def eb_quasipure():
        rho = np.diag([1.0, 2.0]) / 3.0
        phi = trace_state_map(rho, np.array([1.0, 0.0]))
        verdict = is_quasipure(phi, tol, budget=500)
        ok = verdict.status == QUASI_PURE and verdict.is_proof
        return ok, f"status={verdict.status} method={verdict.method}"

    def special_not_quasipure():
        phi = flip_twirl_map()
        verdict = is_quasipure(phi, tol, budget=500)
        ok = verdict.status == NOT_QUASI_PURE and verdict.witness is not None
        detail = f"status={verdict.status}"
        if verdict.witness is not None:
            w = np.abs(verdict.witness)
            detail += f" |witness|=({w[0]:.4f},{w[1]:.4f})"
        return ok, detail

    def special_forced_equality():
        phi = flip_twirl_map()
        e1 = np.array([1.0, 0.0])
        found = counterexample_construct(phi, e1, tol)
        r = np.outer(e1, e1.conj())
        forced = forced_equality_scan(phi, r, tol=tol)
        ok = found is None and forced
        return ok, f"twist_found={found is not None} forced_equality={forced}"

    def postconditions(phi, found):
        psi, r = found
        return [
            is_cp(psi, tol),
            linalg.max_abs(psi.unit() - phi.unit()) <= 1e-8,
            r_equivalent(phi, psi, EquivalenceContext.from_operator(r), tol),
            linalg.max_abs(phi.choi - psi.choi) > 1e-6,
        ]

    def special_counterexample():
        phi = flip_twirl_map()
        h0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        found = counterexample_construct(phi, h0, tol)
        if found is None:
            return False, "no counterexample found"
        checks = postconditions(phi, found)
        deviation = linalg.max_abs(phi.choi - found[0].choi)
        return all(checks), (f"postconditions={checks} "
                             f"deviation={deviation:.3f}")

    def diagonal_counterexample():
        phi = diagonal_pair_map((1.0, 2.0, 3.0))
        h0 = np.array([1.0, 0.0, 0.0])
        found = counterexample_construct(phi, h0, tol)
        if found is None:
            return False, "no counterexample found"
        checks = postconditions(phi, found)
        return all(checks), f"postconditions={checks}"

    def decomposition_random():
        rng = np.random.default_rng(seed)
        ok = True
        worst = 0.0
        for trial in range(5):
            d1, d2 = 2, 3
            factors = [rng.normal(size=(d1, d2))
                       + 1j * rng.normal(size=(d1, d2)) for _ in range(2)]
            phi = CpMap.from_kraus(factors, d1, d2)
            g = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
            r = g @ g.conj().T
            parts = decompose_along(phi, r, tol)
            resid = linalg.max_abs(parts.alpha.choi + parts.phi1.choi
                                   - phi.choi)
            scale = max(1.0, linalg.max_abs(phi.choi))
            worst = max(worst, resid / scale)
            ok = ok and resid <= 1e-8 * scale
            ok = ok and is_cp(parts.alpha, tol) and is_cp(parts.phi1, tol)
            ok = ok and r_equivalent(
                parts.phi1, CpMap.zero(d1, d2),
                EquivalenceContext.from_operator(r), tol)
        return ok, f"max_residual={worst:.2e}"

    def rigidity_eb():
        rng = np.random.default_rng(seed)
        ok = True
        for trial in range(5):
            d = 2 + (trial % 2)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            phi = trace_state_map(rho, v)
            r = np.outer(v, v.conj())
            beta = PartialCpMap.from_map(phi, r)
            psi = minimal_cp_completion_choi(beta, tol)
            verdict = rigidity_check(phi, psi, r, tol, budget=500)
            ok = ok and verdict.status == THEOREM_HOLDS
            ok = ok and verdict.max_deviation <= 1e-8
        detail = ("all TheoremHolds within 1e-8" if ok
                  else "rigidity verdict or deviation failed")
        return ok, detail

    return list(zip(_DEMO_NAMES, (
        eb_quasipure, special_not_quasipure, special_forced_equality,
        special_counterexample, diagonal_counterexample, decomposition_random,
        rigidity_eb)))


def _cmd_demo(args) -> int:
    tol = _tolerance(args)
    report = {
        "command": "demo",
        "tolerances": _tolerance_fields(tol),
        "seed": args.seed,
    }
    if args.list:
        report["demos"] = list(_DEMO_NAMES)
        _emit(report)
        return EXIT_OK
    results = []
    all_passed = True
    for name, runner in _demo_rows(args.seed, tol):
        try:
            passed, detail = runner()
        except ToolkitError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed),
                        "detail": str(detail)})
        all_passed = all_passed and passed
    report["results"] = results
    report["all_passed"] = all_passed
    _emit(report)
    return EXIT_OK if all_passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "quasipure": _cmd_quasipure,
        "complete": _cmd_complete,
        "aeq": _cmd_aeq,
        "demo": _cmd_demo,
    }
    start = time.perf_counter()
    try:
        code = handlers[args.command](args)
    except MalformedDocument as exc:
        print(f"{args.command}: malformed input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ToolkitError, ValueError) as exc:
        print(f"{args.command}: invalid input: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INVALID
    finally:
        elapsed = (time.perf_counter() - start) * 1000.0
        print(f"{args.command}: wall time {elapsed:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
