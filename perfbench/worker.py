"""One workload in its own process: set up, then time or trace it.

Run by ``run.py``; not meant to be started by hand.  The process prints
``READY`` once set-up is done (imports, input generation, one untimed
warm-up operation of every input class), then, unless ``--mode setup``,
one JSON line with its results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_op(op):
    """Run one operation; return ``(seconds, output, error)``."""
    start = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # the benchmark keeps going and counts it as failed
        out, err = None, exc
    return time.perf_counter() - start, out, err


def judge(op, out, err, tally: dict) -> bool:
    """Check one output; count failures and wrong answers.  True when decided."""
    if err is not None:
        key = f"{op.cls}: {type(err).__name__}"
        tally["failures"][key] = tally["failures"].get(key, 0) + 1
        return False
    try:
        return bool(op.check(out))
    except checks.CheckFailed as exc:
        tally["wrong"].append(f"{op.cls}: {exc}")
    except Exception as exc:  # an output of the wrong shape is a wrong answer too
        tally["wrong"].append(f"{op.cls}: unexpected output: {exc!r}")
    return False


def forget_exact_results() -> None:
    """Empty sympy's expression cache, if the program has loaded sympy.

    Rounds repeat the same inputs, and sympy memoizes the minors of the
    exact pencil path: without this, every round after the first reuses
    the first round's determinants and the exact path reads about four
    times cheaper than deciding a new map.  The benchmark calls nothing
    else in sympy.
    """
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        sympy.core.cache.clear_cache()


def warm_up(ops) -> None:
    """Run the first operation of each input class once, untimed."""
    seen = set()
    for op in ops:
        if op.cls not in seen:
            seen.add(op.cls)
            run_op(op)


def timed(ops, seconds: float, peak_rss_mb) -> dict:
    """Whole rounds of ``ops`` until the timed wall time reaches ``seconds``.

    Outputs are checked between rounds, outside the timed wall time, and
    every round starts from an empty sympy cache.  Between operations the
    reference task of ``calibrate`` runs for about 10% of their time, outside
    the timed wall time.  The mean unit time of each round gives the host's
    speed in that round, and the ``ref_`` metrics are the round and
    operation times scaled by it to the reference speed.
    """
    tally = {"failures": {}, "wrong": []}
    times, walls, slowdowns, decided = [], [], [], []
    sampler = calibrate.Sampler()
    calibrate.unit()
    while sum(walls) < seconds:
        forget_exact_results()
        results, paused = [], 0.0
        start = time.perf_counter()
        for op in ops:
            results.append(run_op(op))
            paused += sampler.keep_up(results[-1][0])
        walls.append(time.perf_counter() - start - paused)
        slowdowns.append(sampler.slowdown())
        times.append([r[0] for r in results])
        decided.append(sum(judge(op, out, err, tally) for op, (_, out, err) in zip(ops, results)))
    if len(set(decided)) != 1:
        tally["wrong"].append(f"decided count changed between rounds: {decided}")
    attempted = len(walls) * len(ops)
    ref_times = [t / slow for slow, ts in zip(slowdowns, times) for t in ts]
    raw = {"ops_per_s": attempted / sum(walls),
           "op_p50_ms": statistics.median(t for ts in times for t in ts) * 1e3,
           "slowdown": sum(slowdowns) / len(slowdowns)}
    return {
        "attempted": attempted,
        "failed": sum(tally["failures"].values()),
        "failures": tally["failures"],
        "wrong": tally["wrong"][:20],
        "round_walls": walls,
        "raw": raw,
        "metrics": {
            "ref_ops_per_s": attempted / sum(w / slow for w, slow in zip(walls, slowdowns)),
            "ref_op_p50_ms": statistics.median(ref_times) * 1e3,
            "decided": decided[0],
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def traced(ops, out_path: str) -> dict:
    """Two untraced rounds, then a traced one; per-layer metrics of the traced one.

    The second untraced round is the reference for the tracing overhead: the
    first round after the warm-up ran slower than later ones.
    """
    import spans

    for _ in range(2):
        forget_exact_results()
        start = time.perf_counter()
        for op in ops:
            run_op(op)
        untraced = time.perf_counter() - start

    recorder = spans.Recorder()
    spans.install(recorder)
    tally = {"failures": {}, "wrong": []}
    results = []
    forget_exact_results()
    start = time.perf_counter()
    for op in ops:
        recorder.tag = op.cls
        results.append(run_op(op))
    traced_wall = time.perf_counter() - start
    recorder.tag = None
    for op, (_, out, err) in zip(ops, results):
        judge(op, out, err, tally)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    verdicts = [out for _, out, err in results if err is None and hasattr(out, "samples_used")]

    def pencil_p50(entries: str) -> float:
        calls = spans.durations_ms(recorder.spans, "quasipure.exact_pencil_k2", entries)
        return statistics.median(calls) if calls else 0.0

    return {
        "attempted": len(ops),
        "failed": sum(tally["failures"].values()),
        "failures": tally["failures"],
        "wrong": tally["wrong"][:20],
        "untraced_s": untraced,
        "traced_s": traced_wall,
        "totals": spans.totals(recorder.spans),
        "pencil_p50": {"exact": pencil_p50("exact"), "float": pencil_p50("float")},
        "quasipure": {
            "samples_used": sum(v.samples_used for v in verdicts),
            "inconclusive": sum(v.status == "Inconclusive" for v in verdicts),
            "decided": sum(v.status in ("QuasiPure", "NotQuasiPure") for v in verdicts),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--out", help="directory for trace files and CLI documents")
    args = parser.parse_args(argv)

    if args.workload == "cli-cold":
        import cli_cold

        commands = cli_cold.ColdCommands(ROOT, args.out, args.seed)
        ops = commands.ops()
        peak = cli_cold.peak_child_rss_mb
    else:
        import cpmaps
        import workloads

        ops = workloads.LIBRARY[args.workload](cpmaps, args.seed)
        peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # noqa: E731
    warm_up(ops)
    print("READY", flush=True)
    if args.mode == "setup":
        result = None
    elif args.mode == "timed":
        result = timed(ops, args.seconds, peak)
    elif args.workload == "cli-cold":
        result = commands.traced()
    else:
        result = traced(ops, os.path.join(args.out, f"spans-{args.workload}.json"))
    if args.workload == "cli-cold":
        commands.close()
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
