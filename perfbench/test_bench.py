"""Self-tests of the benchmark's generators, checks and span arithmetic.

Run with ``python3 perfbench/test_bench.py``.  Nothing here imports
``cpmaps``: the generators must produce the answers they claim, and the
checks must reject wrong answers, by numpy alone.
"""

import sys
import unittest
from types import SimpleNamespace

import numpy as np

import calibrate
import checks as ck
import cli_cold
import inputs as gen
import spans


def minimal_completion_choi(choi, r, d_in):
    """Least PSD completion ``A + C + C* + C A^+ C*`` of the known Choi column."""
    p = np.kron(np.eye(d_in), ck.range_projection(r))
    n = p.shape[0]
    a = p @ choi @ p
    c = (np.eye(n) - p) @ choi @ p
    return a + c + c.conj().T + c @ np.linalg.pinv(a, rcond=1e-10, hermitian=True) @ c.conj().T


def columns(factors, h):
    return np.column_stack([k @ h for k in factors])


class GeneratorTests(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(7)

    def test_quasipure_constructions_have_full_rank_everywhere(self):
        cases = [gen.quasipure_float(self.rng, 6, 3, 2), gen.quasipure_exact(self.rng, 6, 3),
                 gen.quasipure_float(self.rng, 9, 3, 3, mix=gen.near_unitary),
                 gen.quasipure_float(self.rng, 8, 2, 4, mix=gen.near_unitary)]
        for factors in cases:
            m, k = factors[0].shape[1], len(factors)
            for _ in range(200):
                h = gen.ginibre(self.rng, m)
                s = np.linalg.svd(columns(factors, h), compute_uv=False)
                self.assertGreater(s[k - 1] / s[0], 1e-3)

    def test_exact_constructions_have_gaussian_integer_entries(self):
        factors = gen.quasipure_exact(self.rng, 5, 2)
        witness, _ = gen.pencil_witness(self.rng, 6, 3, exact=True)
        for k in factors + witness:
            self.assertTrue(np.array_equal(k, np.round(k.real) + 1j * np.round(k.imag)))

    def test_pencil_witness_is_interior(self):
        for exact in (True, False):
            factors, h0 = gen.pencil_witness(self.rng, 6, 3, exact)
            self.assertEqual(ck.rank(columns(factors, h0)), 1)
            for k in factors:  # both endpoints injective, so neither decides alone
                self.assertEqual(ck.rank(k), 3)
                self.assertGreater(np.linalg.norm(k @ h0), 1e-6)
            ck.check_witness(factors, h0)

    def test_planted_and_diagonal_witnesses(self):
        factors, h0 = gen.planted_witness(self.rng, 9, 3, 3)
        ck.check_witness(factors, h0)
        factors, h0 = gen.diagonal_pair(self.rng, 5)
        self.assertEqual(ck.rank(columns(factors, h0)), 1)

    def test_generic_refuses_generically_quasipure_shapes(self):
        with self.assertRaises(ValueError):
            gen.generic_factors(self.rng, 6, 2, 3)
        self.assertEqual(len(gen.generic_factors(self.rng, 4, 3, 3)), 3)

    def test_infeasible_data_breaks_the_completion_criterion(self):
        d_in, d_out = 4, 6
        factors = gen.random_factors(self.rng, d_in, d_out, 3)
        r = gen.rank_deficient_psd(self.rng, d_out, 3)
        p = np.kron(np.eye(d_in), ck.range_projection(r))
        bad = gen.infeasible_choi(self.rng, factors, r, d_in, d_out, "negative")
        self.assertLess(ck.min_eig(p @ bad @ p), -1e-3)
        leak = gen.infeasible_choi(self.rng, factors, r, d_in, d_out, "leak")
        a = p @ leak @ p
        c = (np.eye(d_in * d_out) - p) @ leak @ p
        self.assertTrue(ck.is_psd(a))
        w, u = np.linalg.eigh(a + np.eye(d_in * d_out) - p)
        kernel = u[:, w < 1e-9]  # ker A inside ran P
        self.assertGreater(np.linalg.norm(c @ kernel, ord=2), 1e-3)

    def test_trace_state_map_and_remix(self):
        factors, v = gen.trace_state_factors(self.rng, 3, 4)
        rho = sum(k @ np.outer(v, v.conj()) @ k.conj().T for k in factors)
        x = gen.ginibre(self.rng, (3, 3))
        choi = ck.choi_of(factors)
        value = np.einsum("ij,iajb->ab", x, choi.reshape(3, 4, 3, 4))
        expected = np.trace(rho @ x) * np.outer(v, v.conj())  # X -> trace(rho X) |v><v|
        self.assertLess(ck.max_abs(value - expected), 1e-9)
        ck.check_same(choi, ck.choi_of(gen.remix(self.rng, factors)), "Kraus families")


class CheckTests(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(11)

    def test_wrong_verdicts_are_rejected(self):
        qp = gen.quasipure_float(self.rng, 4, 2, 2)
        wit, h0 = gen.pencil_witness(self.rng, 4, 2, exact=False)
        verdict = SimpleNamespace
        self.assertTrue(ck.check_quasipurity("QuasiPure", qp, verdict(status="QuasiPure", method="m")))
        self.assertTrue(ck.check_quasipurity(
            "NotQuasiPure", wit, verdict(status="NotQuasiPure", method="m", witness=h0)))
        self.assertFalse(ck.check_quasipurity("QuasiPure", qp, verdict(status="Inconclusive", method="m")))
        with self.assertRaises(ck.CheckFailed):
            ck.check_quasipurity("NotQuasiPure", wit, verdict(status="QuasiPure", method="m"))
        with self.assertRaises(ck.CheckFailed):
            ck.check_quasipurity("QuasiPure", qp, verdict(status="NotQuasiPure", method="m",
                                                          witness=np.array([1.0, 0.0])))

    def test_corrupted_witness_is_rejected(self):
        wit, h0 = gen.pencil_witness(self.rng, 6, 3, exact=False)
        with self.assertRaises(ck.CheckFailed):
            ck.check_witness(wit, h0 + 1e-3 * gen.ginibre(self.rng, 3))
        with self.assertRaises(ck.CheckFailed):
            ck.check_witness(wit, None)

    def test_completion_checks(self):
        d_in, d_out = 3, 4
        factors = gen.random_factors(self.rng, d_in, d_out, 3)
        r = gen.rank_deficient_psd(self.rng, d_out, 2)
        phi = ck.choi_of(factors)
        alpha = minimal_completion_choi(phi, r, d_in)
        ck.check_completion(alpha, phi, r, d_in, d_out)
        # a CP excess that vanishes against R keeps the data but is not minimal
        q = np.kron(np.eye(d_in), np.eye(d_out) - ck.range_projection(r))
        g = gen.ginibre(self.rng, (d_in * d_out, d_in * d_out))
        excess = q @ g @ g.conj().T @ q
        self.assertLess(ck.max_abs(ck.right_masked(excess, r, d_in)), 1e-9)
        with self.assertRaisesRegex(ck.CheckFailed, "dominated"):
            ck.check_completion(alpha + excess, phi, r, d_in, d_out)
        with self.assertRaisesRegex(ck.CheckFailed, "misses"):
            ck.check_completion(0.5 * alpha, phi, r, d_in, d_out)
        # the remainder of phi after its minimal completion
        ck.check_decomposition(alpha, phi - alpha, phi, r, d_in)
        with self.assertRaises(ck.CheckFailed):
            ck.check_decomposition(0.5 * alpha, phi - 0.5 * alpha, phi, r, d_in)

    def test_counterexample_checks(self):
        factors, h0 = gen.diagonal_pair(self.rng, 3)
        phi = ck.choi_of(factors)
        r = np.outer(h0, h0.conj())
        with self.assertRaisesRegex(ck.CheckFailed, "equals phi"):
            ck.check_counterexample(phi, r, phi, 3, 3, h0)
        with self.assertRaises(ck.CheckFailed):
            ck.check_counterexample(2.0 * phi, r, phi, 3, 3, h0)


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_wrapped_children(self):
        recorded = [["a.f", 0.0, 10.0, -1, None], ["b.g", 1.0, 4.0, 0, None],
                    ["a.f", 5.0, 7.0, 0, None]]
        t = spans.totals(recorded)
        self.assertEqual(t["a.f.calls"], 2)
        self.assertAlmostEqual(t["a.f.ms"], 10e3)  # the inner call is not counted twice
        self.assertAlmostEqual(t["a.self_ms"], 7e3)
        self.assertAlmostEqual(t["b.self_ms"], 3e3)
        self.assertAlmostEqual(spans.outermost_ms(recorded, lambda n: n.startswith("b.")), 3e3)

    def test_recorder_nests_spans(self):
        recorder = spans.Recorder()
        inner = recorder.wrap("x.inner", lambda: 1)
        outer = recorder.wrap("y.outer", lambda: inner() + 1)
        self.assertEqual(outer(), 2)
        self.assertEqual([s[0] for s in recorder.spans], ["y.outer", "x.inner"])
        self.assertEqual(recorder.spans[1][3], 0)

    def test_importtime_parsing(self):
        stderr = ("import time: self [us] | cumulative | imported package\n"
                  "import time:       150 |     140000 |   numpy\n"
                  "import time:       900 |     190000 | cpmaps\n"
                  "import time:       100 |     300000 |     sympy\n")
        self.assertEqual(cli_cold._import_ms(stderr),
                         {"numpy": 140.0, "cpmaps": 190.0, "sympy": 300.0})


class CalibrationTests(unittest.TestCase):
    def test_sampler_keeps_its_share_and_splits_by_round(self):
        sampler = calibrate.Sampler()
        sampler.keep_up(0.4)
        first = list(sampler.units)
        self.assertGreaterEqual(sum(first), calibrate.SHARE * 0.4)
        self.assertLess(sum(first) - first[-1], calibrate.SHARE * 0.4)  # not a unit more
        slow = sampler.slowdown()
        self.assertAlmostEqual(slow, sum(first) / len(first) / calibrate.REFERENCE_S)
        # no work since: one fresh unit is run, never an old one reused
        sampler.slowdown()
        self.assertEqual(len(sampler.units), len(first) + 1)


if __name__ == "__main__":
    sys.exit(unittest.main())
