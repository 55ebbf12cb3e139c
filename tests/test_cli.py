"""Command-line interface tests: documents, exit codes, report stability."""

import json
import tempfile
import unittest

import numpy as np
import pytest

from cpmaps import MalformedDocument, apply, maps_close, serialize
from cpmaps.gallery import flip_twirl_map, random_cp_map

from conftest import DATA, random_non_normal, run_cli


class SerializationTests(unittest.TestCase):

    def test_matrix_round_trip(self):
        m = np.array([[1.0, 2j], [-1.5, 0.25 + 0.75j]])
        doc = serialize.encode_matrix(m)
        self.assertTrue(np.array_equal(serialize.decode_matrix(doc), m))

    def test_map_round_trip_keeps_kraus_and_choi(self):
        phi = flip_twirl_map()
        doc = serialize.encode_map(phi)
        self.assertIn("kraus", doc)
        self.assertIn("choi", doc)
        back = serialize.decode_map(doc)
        self.assertTrue(maps_close(phi, back))
        self.assertEqual(len(back.kraus), 2)

    def test_map_document_without_kraus(self):
        phi = random_cp_map(2, 3, 2, seed=0)
        doc = serialize.encode_map(phi)
        del doc["kraus"]
        back = serialize.decode_map(doc)
        self.assertTrue(maps_close(phi, back))

    def test_inconsistent_document_rejected(self):
        phi = flip_twirl_map()
        doc = serialize.encode_map(phi)
        doc["choi"][0][0] = [5.0, 0.0]  # no longer matches the kraus data
        with self.assertRaises(MalformedDocument):
            serialize.decode_map(doc)

    def test_malformed_matrices_rejected(self):
        for bad in (
            [[1.0]],                        # entry is not an [re, im] pair
            [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],  # ragged rows
            [[[float("nan"), 0.0]]],        # non-finite
            [[[True, False]]],              # booleans, though bool is an int
            "nonsense",
        ):
            with self.assertRaises(MalformedDocument):
                serialize.decode_matrix(bad)

    def test_partial_map_round_trip(self):
        from cpmaps import PartialCpMap
        phi = flip_twirl_map()
        r = np.diag([1.0, 0.0])
        beta = PartialCpMap.from_map(phi, r)
        doc = serialize.encode_partial_map(beta)
        back = serialize.decode_partial_map(doc, r)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        self.assertTrue(np.allclose(back.evaluate(x), beta.evaluate(x)))


class ExitCodeTests(unittest.TestCase):

    def test_analyze_cp_map(self):
        code, out, err = run_cli("analyze", "eb_map.json")
        self.assertEqual(code, 0, err)
        report = json.loads(out)
        self.assertTrue(report["is_cp"])
        self.assertEqual(report["choi_rank"], 2)
        self.assertTrue(report["is_entanglement_breaking_quasipure_form"])

    def test_analyze_non_cp_map_still_succeeds(self):
        code, out, err = run_cli("analyze", "transpose_map.json")
        self.assertEqual(code, 0, err)  # the analysis itself succeeded
        report = json.loads(out)
        self.assertFalse(report["is_cp"])
        spectrum = [entry for entry in report["choi_spectrum"]]
        self.assertLess(min(spectrum), 0.0)

    def test_quasipure_verdict_exit_codes(self):
        code, _, err = run_cli("quasipure", "eb_map.json")
        self.assertEqual(code, 0, err)
        code, out, err = run_cli("quasipure", "special_map.json")
        self.assertEqual(code, 1, err)
        report = json.loads(out)
        self.assertEqual(report["status"], "NotQuasiPure")
        self.assertIsNotNone(report["witness"])

    def test_quasipure_inconclusive_exit_code(self):
        # quasi-pure by construction, but its 4 + 140 cells exceed the budget
        code, out, err = run_cli("quasipure", "polynomial_744_map.json",
                                 "--budget", "100")
        self.assertEqual(code, 3, err)
        report = json.loads(out)
        self.assertEqual(report["status"], "Inconclusive")
        self.assertFalse(report["is_proof"])
        self.assertLessEqual(report["samples_used"], report["budget"])

    def test_quasipure_proves_the_k3_map(self):
        code, out, err = run_cli("quasipure", "inconclusive_map.json")
        self.assertEqual(code, 0, err)
        report = json.loads(out)
        self.assertEqual(report["status"], "QuasiPure")
        self.assertEqual(report["method"], "SylvesterMatrix")
        self.assertTrue(report["is_proof"])

    def test_quasipure_rejects_non_cp_input(self):
        code, out, err = run_cli("quasipure", "transpose_map.json")
        self.assertEqual(code, 1, err)
        self.assertIn("NotCP", out + err)

    def test_missing_and_malformed_files_exit_2(self):
        code, _, err = run_cli("analyze", "no_such_file.json")
        self.assertEqual(code, 2, err)
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as handle:
            handle.write("{ not json")
            path = handle.name
        code, _, err = run_cli("analyze", path)
        self.assertEqual(code, 2, err)
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as handle:
            json.dump({"d_in": 2}, handle)
            path = handle.name
        code, _, err = run_cli("analyze", path)
        self.assertEqual(code, 2, err)

    def test_boolean_entries_exit_2(self):
        # JSON true and false are not numbers: no pure map is read from them
        doc = {"d_in": 1, "d_out": 1, "kraus": [[[[True, False]]]]}
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/bool_map.json"
            with open(path, "w") as handle:
                json.dump(doc, handle)
            code, out, err = run_cli("analyze", path)
        self.assertEqual(code, 2, err)
        self.assertEqual(out, "")
        self.assertIn("entries must be [re, im] number pairs", err)

    def test_complete_reports_both_routes(self):
        code, out, err = run_cli("complete", "special_partial.json",
                                 "e11_operator.json", "--route", "both")
        self.assertEqual(code, 0, err)
        report = json.loads(out)
        self.assertTrue(report["completable"])
        self.assertLess(report["route_discrepancy"], 1e-8)

    def test_complete_single_routes(self):
        beta = serialize.decode_partial_map(
            json.loads((DATA / "special_partial.json").read_text()),
            np.diag([1.0, 0.0]))
        choi = {}
        for route in ("choi", "stinespring"):
            code, out, err = run_cli("complete", "special_partial.json",
                                     "e11_operator.json", "--route", route)
            self.assertEqual(code, 0, err)
            report = json.loads(out)
            self.assertEqual(report["route"], route)
            self.assertTrue(report["completable"])
            self.assertNotIn("route_discrepancy", report)
            self.assertNotIn("violation", report)
            alpha = serialize.decode_map(report["completion"])
            for i in range(2):
                for j in range(2):
                    unit = np.zeros((2, 2))
                    unit[i, j] = 1.0
                    got = apply(alpha, unit) @ beta.r
                    self.assertLess(np.abs(got - beta.blocks[i][j]).max(),
                                    1e-9)
            choi[route] = alpha.choi
        self.assertLess(np.abs(choi["choi"] - choi["stinespring"]).max(),
                        1e-8)

    def test_complete_infeasible_reports_violation(self):
        code, out, err = run_cli("complete", "infeasible_partial.json",
                                 "e11_operator.json")
        self.assertEqual(code, 1, err)
        report = json.loads(out)
        self.assertFalse(report["completable"])
        self.assertNotIn("completion", report)
        # the known Choi column [beta(E_ij) R^+] split by P = I (x) P_R
        doc = json.loads((DATA / "infeasible_partial.json").read_text())
        r = np.diag([1.0, 0.0])
        column = np.block([[serialize.decode_matrix(b) @ np.linalg.pinv(r)
                            for b in row] for row in doc["blocks"]])
        p = np.kron(np.eye(2), r)
        a = p @ column
        a = (a + a.conj().T) / 2
        c = (np.eye(4) - p) @ column
        w, u = np.linalg.eigh(a + np.eye(4) - p)
        null = u[:, np.abs(w) < 1e-9]
        violation = report["violation"]
        self.assertAlmostEqual(violation["compression_min_eigenvalue"],
                               np.linalg.eigvalsh(a)[0], places=12)
        self.assertAlmostEqual(violation["kernel_leak"],
                               np.linalg.norm(c @ null, ord=2), places=12)
        self.assertLess(violation["compression_min_eigenvalue"], 0.0)
        self.assertGreater(violation["kernel_leak"], 0.0)

    def test_complete_report_holds_only_the_decision(self):
        # no sampled feasibility report and no seed: the exact decision,
        # with its two numbers when it fails, is the whole answer
        common = {"command", "tolerances", "route", "completable"}
        for beta_file, extra in [
                ("special_partial.json", {"completion", "route_discrepancy"}),
                ("infeasible_partial.json", {"violation"})]:
            _, out, err = run_cli("complete", beta_file, "e11_operator.json")
            self.assertEqual(set(json.loads(out)), common | extra, err)
        code, _, err = run_cli("complete", "special_partial.json",
                               "e11_operator.json", "--seed", "0")
        self.assertEqual(code, 2, err)

    def test_aeq_on_counterexample_pair(self):
        code, out, err = run_cli("aeq", "nqp_phi.json", "nqp_psi.json",
                                 "--r", "nqp_r.json")
        self.assertEqual(code, 0, err)
        report = json.loads(out)
        self.assertTrue(report["equivalent"])
        self.assertFalse(report["maps_equal"])
        self.assertEqual(report["rigidity"]["failed_hypothesis"],
                         "quasi-purity")

    def test_aeq_inequivalent_exit_1(self):
        code, out, err = run_cli("aeq", "special_map.json",
                                 "identity_map.json", "--r", "e11_operator.json")
        self.assertEqual(code, 1, err)
        self.assertFalse(json.loads(out)["equivalent"])

    def test_tolerance_flags_are_echoed(self):
        code, out, err = run_cli("quasipure", "eb_map.json",
                                 "--tol-eq", "1e-8", "--tol-rank", "1e-8",
                                 "--tol-psd", "1e-9")
        self.assertEqual(code, 0, err)
        tols = json.loads(out)["tolerances"]
        self.assertEqual(tols["eps_eq"], 1e-8)
        self.assertEqual(tols["eps_rank"], 1e-8)
        self.assertEqual(tols["eps_psd"], 1e-9)

    def test_out_of_range_tolerance_exits_2(self):
        code, _, err = run_cli("quasipure", "eb_map.json", "--tol-eq", "0.5")
        self.assertEqual(code, 2, err)


class ReportStabilityTests(unittest.TestCase):

    def test_reports_are_byte_identical_across_runs(self):
        # special_map is NotQuasiPure (exit 1); the nqp pair is equivalent
        # (exit 0).  A non-empty stdout rules out two failed launches.
        for args, expected_code in [
            (("quasipure", "special_map.json"), 1),
            (("aeq", "nqp_phi.json", "nqp_psi.json", "--r", "nqp_r.json"), 0),
        ]:
            first = run_cli(*args)
            second = run_cli(*args)
            for code, out, err in (first, second):
                self.assertEqual(code, expected_code, err)
                self.assertTrue(out, err)
            self.assertEqual(first[1], second[1])

    def test_golden_reports(self):
        for args, golden in [
            (("quasipure", "eb_map.json"), "golden_quasipure_eb.json"),
            (("quasipure", "special_map.json"),
             "golden_quasipure_special.json"),
            (("aeq", "nqp_phi.json", "nqp_psi.json", "--r", "nqp_r.json"),
             "golden_aeq_nonquasipure.json"),
        ]:
            _, out, err = run_cli(*args)
            expected = (DATA / golden).read_text()
            self.assertEqual(out, expected,
                             f"golden drift for {golden}\n{err}")

    def test_wall_time_goes_to_stderr_not_stdout(self):
        _, out, err = run_cli("quasipure", "eb_map.json")
        self.assertNotIn("wall time", out)
        self.assertIn("wall time", err)


class DemoTests(unittest.TestCase):

    def test_demo_list(self):
        code, out, err = run_cli("demo", "--list")
        self.assertEqual(code, 0, err)
        names = json.loads(out)["demos"]
        self.assertIn("eb-map-is-quasipure", names)
        self.assertIn("flip-twirl-forced-equality-at-e1", names)
        self.assertIn("diagonal-pair-counterexample", names)
        self.assertGreaterEqual(len(names), 7)

    def test_demo_runs_clean(self):
        code, out, err = run_cli("demo", "--seed", "0")
        self.assertEqual(code, 0, err)
        report = json.loads(out)
        self.assertTrue(report["all_passed"])
        self.assertTrue(all(row["passed"] for row in report["results"]))


@pytest.mark.parametrize("beta_file, route, expected_code", [
    ("special_partial.json", "choi", 0),
    ("special_partial.json", "stinespring", 0),
    ("special_partial.json", "both", 0),
    ("infeasible_partial.json", "both", 1),
])
def test_complete_splits_and_decides_once(monkeypatch, capsys, beta_file,
                                          route, expected_code):
    from cpmaps import cli, completion
    calls = {"_split_blocks": 0, "_decide": 0}
    for name in calls:
        original = getattr(completion, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(completion, name, counted)
    code = cli.main(["complete", str(DATA / beta_file),
                     str(DATA / "e11_operator.json"), "--route", route])
    assert code == expected_code, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["completable"] == (code == 0)
    assert calls == {"_split_blocks": 1, "_decide": 1}


def test_complete_accepts_a_non_normal_operator(tmp_path, capsys):
    # phi(.) R for a rank-2 R with ran R != ran R* is valid partial data
    from cpmaps import PartialCpMap, cli
    rng = np.random.default_rng(5)
    phi = random_cp_map(3, 4, 3, rng=rng)
    r = random_non_normal(rng, 4, 2)
    beta_path, r_path = tmp_path / "beta.json", tmp_path / "r.json"
    beta_path.write_text(json.dumps(
        serialize.encode_partial_map(PartialCpMap.from_map(phi, r))))
    r_path.write_text(json.dumps({"matrix": serialize.encode_matrix(r)}))
    code = cli.main(["complete", str(beta_path), str(r_path)])
    assert code == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out)
    assert report["completable"]
    assert report["route_discrepancy"] < 1e-12


def test_complete_reads_the_callers_eq_tolerance(tmp_path):
    # beta(E_12) gains 1e-7 E_11, which lies in M_2 . E_11 but leaves the
    # known compression Hermitian only to 1e-7: the default eps_eq = 1e-9
    # rejects the data, --tol-eq 1e-6 completes it by both routes
    doc = json.loads((DATA / "special_partial.json").read_text())
    doc["blocks"][0][1][0][0] = [1e-7, 0.0]
    path = tmp_path / "near_hermitian_partial.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("complete", str(path), "e11_operator.json")
    assert code == 1, err
    assert not json.loads(out)["completable"]
    code, out, err = run_cli("complete", str(path), "e11_operator.json",
                             "--tol-eq", "1e-6")
    assert code == 0, err
    report = json.loads(out)
    assert report["completable"]
    assert report["route_discrepancy"] < 1e-12


@pytest.mark.parametrize("context", [("--xi", "eb_map.json"),
                                     ("--r", "e11_operator.json")])
def test_aeq_computes_its_projection_once(monkeypatch, capsys, context):
    # with --xi the one range projection is the support projection's own
    from cpmaps import ae_equiv, cli, linalg
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(ae_equiv, "support_projection")
    counted(linalg, "range_projection")
    code = cli.main(["aeq", str(DATA / "eb_map.json"),
                     str(DATA / "eb_map.json"),
                     context[0], str(DATA / context[1])])
    assert code == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"]
    assert report["rigidity"]["applicable"]
    expected = {"--xi": ["support_projection", "range_projection"],
                "--r": ["range_projection"]}[context[0]]
    assert calls == expected


if __name__ == "__main__":
    unittest.main()
