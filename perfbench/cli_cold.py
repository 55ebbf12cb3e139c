"""The ``cli-cold`` workload: one fresh ``python -m cpmaps`` per operation.

The documents are written by the benchmark from seeded numpy inputs.  Each
operation checks the documented exit code, the JSON verdict against the
known answer (witnesses and completions against the same numpy checks as
the library workloads) and that every run of a command prints the same
bytes as its first run.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import checks as ck
import inputs as gen
import spans
from workloads import Op

WALL_LINE = re.compile(r"wall time ([0-9.]+) ms")


def peak_child_rss_mb() -> float:
    """Peak resident size of the largest child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _matrix(a) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


def _map_doc(factors=None, choi=None, d_in=None, d_out=None) -> dict:
    if factors is not None:
        d_in, d_out = factors[0].shape
        return {"d_in": d_in, "d_out": d_out, "kraus": [_matrix(k) for k in factors]}
    return {"d_in": d_in, "d_out": d_out, "choi": _matrix(choi)}


def _decode(doc) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in doc])


def _import_ms(stderr: str) -> dict:
    """Cumulative import time of numpy, sympy and cpmaps from ``-X importtime``."""
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in ("numpy", "sympy", "cpmaps") and parts[1].strip().isdigit():
            found[name] = int(parts[1]) / 1e3
    return found


class ColdCommands:
    def __init__(self, root: str, out_dir: str, seed: int):
        self.root = root
        self.docs = os.path.join(out_dir, f"cli-docs-{os.getpid()}")
        os.makedirs(self.docs, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.first_stdout = {}
        self.args = {}  # command-line arguments of each operation, by class
        self._ops = self._build(np.random.default_rng(seed))

    def close(self) -> None:
        shutil.rmtree(self.docs, ignore_errors=True)

    def ops(self) -> list:
        return self._ops

    def _write(self, name: str, doc) -> str:
        with open(os.path.join(self.docs, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return name

    def _launch(self, args, prefix=()):
        cmd = [sys.executable, *prefix, *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.docs, env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start

    def _op(self, cls: str, args: list, expect_code: int, judge) -> Op:
        def run():
            return self._launch(["-m", "cpmaps", *args])

        def check(out):
            code, stdout, stderr, _ = out
            ck.require(code == expect_code,
                       f"exit code {code}, expected {expect_code}: {stderr.strip()[-200:]}")
            first = self.first_stdout.setdefault(cls, stdout)
            ck.require(stdout == first, "stdout differs from the first run of the command")
            try:
                judge(json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                raise ck.CheckFailed(f"report is not the documented JSON: {exc!r}") from None
            return True

        self.args[cls] = args
        return Op(cls, run, check)

    def _build(self, rng) -> list:
        ops = []

        # analyze: a CP map, a Hermitian non-CP map, a trace-state map
        cp_factors = gen.random_factors(rng, 3, 4, 2)
        cp_choi = ck.choi_of(cp_factors)

        def judge_cp(rep):
            ck.require(rep["is_cp"] is True and rep["choi_rank"] == 2, "CP map misreported")
            spectrum = np.linalg.eigvalsh(cp_choi)
            ck.require(np.allclose(rep["choi_spectrum"], spectrum, atol=1e-9), "Choi spectrum")

        ops.append(self._op("analyze-cp", ["analyze", self._write("cp.json", _map_doc(cp_factors))],
                            0, judge_cp))
        u = gen.ginibre(rng, 12)
        u /= np.linalg.norm(u)
        bad_choi = cp_choi - (2.0 * float(np.real(u.conj() @ cp_choi @ u)) + 0.5) * np.outer(u, u.conj())

        def judge_noncp(rep):
            ck.require(rep["is_cp"] is False, "non-CP map reported CP")

        ops.append(self._op("analyze-noncp", ["analyze", self._write(
            "noncp.json", _map_doc(choi=bad_choi, d_in=3, d_out=4))], 0, judge_noncp))
        eb_factors, _ = gen.trace_state_factors(rng, 3, 4)

        def judge_eb(rep):
            ck.require(rep["is_entanglement_breaking_quasipure_form"] is True, "trace-state form missed")

        ops.append(self._op("analyze-eb", ["analyze", self._write("eb.json", _map_doc(eb_factors))],
                            0, judge_eb))

        # quasipure: Gaussian-integer quasi-pure pair, float pair with a witness
        qp = gen.quasipure_exact(rng, 4, 2)

        def judge_qp(rep):
            ck.require(rep["status"] == "QuasiPure", f"expected QuasiPure, got {rep['status']}")

        ops.append(self._op("quasipure-exact", ["quasipure", self._write("qp.json", _map_doc(qp))],
                            0, judge_qp))
        wit, _ = gen.pencil_witness(rng, 4, 2, exact=False)

        def judge_wit(rep):
            ck.require(rep["status"] == "NotQuasiPure", f"expected NotQuasiPure, got {rep['status']}")
            ck.check_witness(wit, np.array([complex(a, b) for a, b in rep["witness"]]))

        ops.append(self._op("quasipure-float", ["quasipure", self._write("wit.json", _map_doc(wit))],
                            1, judge_wit))

        # complete: feasible and infeasible data against a projection
        d_in, d_out = 3, 4
        phi = gen.random_factors(rng, d_in, d_out, 3)
        phi_choi = ck.choi_of(phi)
        r = gen.projection(rng, d_out, 2)
        r_file = self._write("r.json", {"matrix": _matrix(r)})

        def partial_doc(choi):
            blocks = gen.partial_blocks(choi, r, d_in, d_out)
            return {"d_in": d_in, "d_out": d_out,
                    "blocks": [[_matrix(b) for b in row] for row in blocks]}

        def judge_complete(rep):
            ck.require(rep["completable"] is True, "completable data reported infeasible")
            alpha = _decode(rep["completion"]["choi"])
            ck.check_completion(alpha, phi_choi, r, d_in, d_out)
            ck.require(rep["route_discrepancy"] <= 1e-8, "the two routes disagree")

        ops.append(self._op("complete-feasible", ["complete", self._write(
            "beta.json", partial_doc(phi_choi)), r_file], 0, judge_complete))

        def judge_infeasible(rep):
            ck.require(rep["completable"] is False, "infeasible data reported completable")

        bad = gen.infeasible_choi(rng, phi, r, d_in, d_out, "negative")
        ops.append(self._op("complete-infeasible", ["complete", self._write(
            "beta-bad.json", partial_doc(bad)), r_file], 1, judge_infeasible))

        # aeq: a quasi-pure trace-state map against another Kraus family of itself
        ts, v = gen.trace_state_factors(rng, 3, 4)
        phi_file = self._write("phi.json", _map_doc(ts))
        psi_file = self._write("psi.json", _map_doc(gen.remix(rng, ts)))
        rv_file = self._write("rv.json", {"matrix": _matrix(np.outer(v, v.conj()))})
        xi_file = self._write("xi.json", _map_doc(gen.random_factors(rng, 4, 2, 2)))

        def judge_aeq(rep):
            ck.require(rep["equivalent"] is True, "equivalent maps reported inequivalent")
            rig = rep["rigidity"]
            ck.require(rig.get("status") == "TheoremHolds", f"rigidity: {rig}")

        ops.append(self._op("aeq-r", ["aeq", phi_file, psi_file, "--r", rv_file], 0, judge_aeq))
        ops.append(self._op("aeq-xi", ["aeq", phi_file, psi_file, "--xi", xi_file], 0, judge_aeq))
        return ops

    def traced(self) -> dict:
        """Per command: a plain run, a ``-X importtime`` run and a traced run.

        The plain run gives the handler time (the CLI's ``wall time`` line)
        and the time outside it; the traced run goes through ``launch.py``,
        which installs the span recorder and calls ``cpmaps.cli.main``.
        """
        launcher = os.path.join(self.root, "perfbench", "launch.py")
        span_file = os.path.join(self.docs, "spans.json")
        wrong, totals = [], {}
        imports = {"numpy": 0.0, "sympy": 0.0, "cpmaps": 0.0}
        handler = outside = untraced = traced = 0.0
        groups = {"serialize.decode.group_ms": ("serialize.decode", "serialize.load"),
                  "serialize.encode.group_ms": ("serialize.encode", "serialize.dump")}
        for op in self._ops:
            args = self.args[op.cls]
            plain = self._launch(["-m", "cpmaps", *args])
            untraced += plain[3]
            match = WALL_LINE.search(plain[2])
            handler_ms = float(match.group(1)) if match else 0.0
            handler += handler_ms
            outside += plain[3] * 1e3 - handler_ms
            found = _import_ms(self._launch(["-m", "cpmaps", *args], ("-X", "importtime"))[2])
            imports["numpy"] += found.get("numpy", 0.0)
            imports["sympy"] += found.get("sympy", 0.0)
            # cpmaps' cumulative time includes the numpy import it triggers
            imports["cpmaps"] += found.get("cpmaps", 0.0) - found.get("numpy", 0.0)
            run = self._launch([launcher, span_file, *args])
            traced += run[3]
            for out in (plain, run):
                try:
                    op.check(out)
                except ck.CheckFailed as exc:
                    wrong.append(f"{op.cls}: {exc}")
            with open(span_file, encoding="utf-8") as fh:
                recorded = json.load(fh)
            per_run = spans.totals(recorded)
            for key, prefixes in groups.items():
                per_run[key] = spans.outermost_ms(recorded, lambda n: n.startswith(prefixes))
            for key, value in per_run.items():
                totals[key] = totals.get(key, 0.0) + value
        return {
            "attempted": len(self._ops),
            "failed": 0,
            "failures": {},
            "wrong": wrong,
            "untraced_s": untraced,
            "traced_s": traced,
            "totals": totals,
            "cli": {"handler_ms": handler, "outside_handler_ms": outside,
                    "import_numpy_ms": imports["numpy"], "import_sympy_ms": imports["sympy"],
                    "import_cpmaps_ms": imports["cpmaps"]},
        }
