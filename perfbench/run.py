"""Benchmark of ``cpmaps``: four workloads, each loading one part of the library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pencil|search|complete|cli-cold|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` times the named workload in its own process, checks every
output, and prints the end-to-end metrics.  ``--trace 1`` runs one traced
round of every workload (the per-layer metrics are named
``<workload>.<layer>.<metric>``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("pencil", "search", "complete", "cli-cold")

# Set-up is measured this many times (separate processes) and the median
# reported; the last of them is the process that then runs the timed phase.
SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "ref_ops_per_s": "1/s", "ref_op_p50_ms": "ms",
                    "decided": "count", "peak_rss_mb": "MB"}

# Per-layer metrics, reported for the workloads where the layer does work.
PER_LAYER = {
    "pencil": ["linalg.calls", "linalg.self_ms", "cp_map.minimal_kraus_ms",
               "cp_map.is_cp_calls", "quasipure.exact_pencil_k2_ms",
               "quasipure.exact_pencil_k2_calls", "quasipure.pencil_exact_p50_ms",
               "quasipure.pencil_float_p50_ms", "quasipure.is_quasipure_self_ms",
               "quasipure.decided_ratio"],
    "search": ["linalg.calls", "linalg.self_ms", "cp_map.minimal_kraus_ms",
               "cp_map.is_cp_calls", "quasipure.is_quasipure_self_ms",
               "quasipure.samples_used", "quasipure.ms_per_sample",
               "quasipure.inconclusive", "quasipure.decided_ratio"],
    "complete": ["linalg.calls", "linalg.self_ms", "cp_map.from_kraus_ms",
                 "cp_map.minimal_kraus_ms", "cp_map.is_cp_calls",
                 "stinespring.minimal_stinespring_ms", "stinespring.reducing_projection_ms",
                 "completion.cp_completable_calls", "completion.cp_completable_ms",
                 "completion.minimal_cp_completion_choi_ms",
                 "completion.minimal_cp_completion_stinespring_ms",
                 "ae_equiv.decompose_along_ms", "ae_equiv.rigidity_check_ms",
                 "ae_equiv.counterexample_construct_ms", "ae_equiv.r_equivalent_calls"],
    "cli-cold": ["linalg.calls", "linalg.self_ms", "cp_map.from_kraus_ms",
                 "quasipure.exact_pencil_k2_ms", "completion.cp_completable_calls",
                 "completion.cp_completable_ms", "completion.minimal_cp_completion_choi_ms",
                 "completion.minimal_cp_completion_stinespring_ms",
                 "completion.necessary_conditions_report_ms", "serialize.decode_ms",
                 "serialize.encode_ms", "cli.handler_ms", "cli.outside_handler_ms",
                 "cli.import_numpy_ms", "cli.import_sympy_ms", "cli.import_cpmaps_ms"],
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # one process, one operation at a time: keep BLAS from starting threads
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0):
    """Start a worker; return ``(set-up seconds, result or None)``.

    Set-up runs from process start to the worker's ``READY`` line.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", OUT]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    setups = [run_worker(workload, seed, "setup")[0] for _ in range(SETUPS - 1)]
    setup, result = run_worker(workload, seed, "timed", seconds)
    setups.append(setup)
    metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
    for reason in result["wrong"]:
        print(f"{workload}: wrong answer: {reason}", file=sys.stderr)
    for reason, count in result["failures"].items():
        print(f"{workload}: failed x{count}: {reason}", file=sys.stderr)
    raw = result["raw"]
    print(f"{workload}: set-ups {' '.join('%.3f' % s for s in setups)} s; rounds "
          f"{' '.join('%.3f' % w for w in result['round_walls'])} s; unscaled "
          f"{raw['ops_per_s']:.2f} ops/s, {raw['op_p50_ms']:.2f} ms median; host "
          f"{raw['slowdown']:.3f}x the reference time", file=sys.stderr)
    return report(not result["wrong"], result["attempted"], result["failed"],
                  {name: metrics[name] for name in END_TO_END_UNITS}, END_TO_END_UNITS)


def layer_metrics(workload: str, result: dict) -> dict:
    t = result["totals"]
    qp = result.get("quasipure", {})
    values = {
        "linalg.calls": t.get("linalg.calls", 0),
        "linalg.self_ms": t.get("linalg.self_ms", 0.0),
        "cp_map.from_kraus_ms": t.get("cp_map.from_kraus.ms", 0.0),
        "cp_map.minimal_kraus_ms": t.get("cp_map.minimal_kraus.ms", 0.0),
        "cp_map.is_cp_calls": t.get("cp_map.is_cp.calls", 0),
        "stinespring.minimal_stinespring_ms": t.get("stinespring.minimal_stinespring.ms", 0.0),
        "stinespring.reducing_projection_ms": t.get("stinespring.reducing_projection.ms", 0.0),
        "quasipure.exact_pencil_k2_ms": t.get("quasipure.exact_pencil_k2.ms", 0.0),
        "quasipure.exact_pencil_k2_calls": t.get("quasipure.exact_pencil_k2.calls", 0),
        "quasipure.pencil_exact_p50_ms": result.get("pencil_p50", {}).get("exact", 0.0),
        "quasipure.pencil_float_p50_ms": result.get("pencil_p50", {}).get("float", 0.0),
        "quasipure.is_quasipure_self_ms": t.get("quasipure.is_quasipure.self_ms", 0.0),
        "quasipure.samples_used": qp.get("samples_used", 0),
        "quasipure.ms_per_sample": (t.get("quasipure.is_quasipure.self_ms", 0.0)
                                    / max(1, qp.get("samples_used", 0))),
        "quasipure.inconclusive": qp.get("inconclusive", 0),
        "quasipure.decided_ratio": qp.get("decided", 0) / result["attempted"],
        "completion.cp_completable_calls": t.get("completion.cp_completable.calls", 0),
        "completion.cp_completable_ms": t.get("completion.cp_completable.ms", 0.0),
        "completion.minimal_cp_completion_choi_ms":
            t.get("completion.minimal_cp_completion_choi.ms", 0.0),
        "completion.minimal_cp_completion_stinespring_ms":
            t.get("completion.minimal_cp_completion_stinespring.ms", 0.0),
        "completion.necessary_conditions_report_ms":
            t.get("completion.necessary_conditions_report.ms", 0.0),
        "ae_equiv.decompose_along_ms": t.get("ae_equiv.decompose_along.ms", 0.0),
        "ae_equiv.rigidity_check_ms": t.get("ae_equiv.rigidity_check.ms", 0.0),
        "ae_equiv.counterexample_construct_ms": t.get("ae_equiv.counterexample_construct.ms", 0.0),
        "ae_equiv.r_equivalent_calls": t.get("ae_equiv.r_equivalent.calls", 0),
        "serialize.decode_ms": t.get("serialize.decode.group_ms", 0.0),
        "serialize.encode_ms": t.get("serialize.encode.group_ms", 0.0),
        **{f"cli.{key}": value for key, value in result.get("cli", {}).items()},
    }
    return {f"{workload}.{name}": values[name] for name in PER_LAYER[workload]}


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "ms_per_sample")):
        return "ms"
    return "ratio" if name.endswith("_ratio") else "count"


def traced_run(seed: int) -> dict:
    correct, attempted, failed, metrics, overhead = True, 0, 0, {}, {}
    for workload in WORKLOADS:
        _, result = run_worker(workload, seed, "trace")
        for reason in result["wrong"]:
            print(f"{workload} (traced): wrong answer: {reason}", file=sys.stderr)
        correct = correct and not result["wrong"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update(layer_metrics(workload, result))
        overhead[workload] = {"untraced_s": result["untraced_s"], "traced_s": result["traced_s"]}
        print(f"{workload}: round {result['untraced_s']:.3f} s untraced, "
              f"{result['traced_s']:.3f} s traced "
              f"({100 * (result['traced_s'] / result['untraced_s'] - 1):+.1f}%)", file=sys.stderr)
    with open(os.path.join(OUT, "trace-summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "overhead": overhead, "metrics": metrics}, fh, indent=1)
    return report(correct, attempted, failed, metrics, {n: layer_unit(n) for n in metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cpmaps", "__init__.py")):
        print("run.py: no cpmaps sources under src/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args.seed)
        elif args.workload != "all":
            result = timed_run(args.workload, args.seed, args.seconds)
        else:
            results = {w: timed_run(w, args.seed, args.seconds) for w in WORKLOADS}
            for workload, res in results.items():
                print(workload, json.dumps(res))
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
