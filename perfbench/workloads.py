"""The fixed, seeded operation sequences of the library workloads.

A workload is a list of ``Op``: ``run`` calls the library on inputs made in
advance, ``check`` judges the output with the benchmark's own numpy code
(raising ``CheckFailed``) and returns whether the answer was decided.  One
round runs the list once, in order; every round repeats the same list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck
import inputs as gen

# Randomized-search budget for every ``search`` operation.  The witness maps
# need at most 37 samples; the quasi-pure maps spend all of it.
SEARCH_BUDGET = 48

# The rescaled ``pencil`` class is drawn from this fixed seed, never from
# ``--seed``: it fails the same way on every run.
RESCALED_SEED = 20240601
RESCALE = 1e-4


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _qp_op(cpmaps, cls: str, factors, expected: str, **kwargs) -> Op:
    phi = cpmaps.CpMap.from_kraus(factors)
    return Op(cls, lambda: cpmaps.is_quasipure(phi, **kwargs),
              lambda verdict: ck.check_quasipurity(expected, factors, verdict))


# ---------------------------------------------------------------------------
# pencil: k = 2, exact (Gaussian-integer) and interpolated (float) paths

PENCIL_FLOAT = ((4, 2, 9), (6, 3, 9), (8, 4, 4), (10, 5, 4), (12, 6, 2))
PENCIL_EXACT = ((4, 2, 6), (5, 2, 6), (6, 2, 6), (6, 3, 4))


def rescaled_inputs() -> list:
    """Valid CP maps scaled by ``RESCALE**2``, with their known answers.

    The witness map has the entry scale of ``gallery.random_cp_map(5, 3, 2)``
    (variance ``1 / (d_in d_out)``); the quasi-pure map has unitary mixing.
    """
    rng = np.random.default_rng(RESCALED_SEED)
    witness, _ = gen.pencil_witness(rng, 5, 3, exact=False)
    quasipure = gen.quasipure_float(rng, 6, 3, 2)
    return [("NotQuasiPure", [RESCALE * k / np.sqrt(15.0) for k in witness]),
            ("QuasiPure", [RESCALE * k for k in quasipure])]


def pencil(cpmaps, seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for entries, sizes in (("float", PENCIL_FLOAT), ("exact", PENCIL_EXACT)):
        exact = entries == "exact"
        for d_in, m, count in sizes:
            for _ in range(count):
                qp = (gen.quasipure_exact(rng, d_in, m) if exact
                      else gen.quasipure_float(rng, d_in, m, 2))
                ops.append(_qp_op(cpmaps, f"{entries}-qp-{d_in}x{m}", qp, "QuasiPure"))
                wit, _ = gen.pencil_witness(rng, d_in, m, exact)
                ops.append(_qp_op(cpmaps, f"{entries}-witness-{d_in}x{m}", wit, "NotQuasiPure"))
    for expected, factors in rescaled_inputs():
        ops.append(_qp_op(cpmaps, "rescaled-5x3" if expected == "NotQuasiPure"
                          else "rescaled-6x3", factors, expected))
    return ops


# ---------------------------------------------------------------------------
# search: k >= 3 with m >= 2 reduced columns

SEARCH_QUASIPURE = ((6, 2, 3, 32), (9, 3, 3, 32), (8, 2, 4, 32))
SEARCH_PLANTED = ((6, 2, 3, 4), (9, 3, 3, 4), (8, 2, 4, 4))
SEARCH_GENERIC = ((4, 3, 3, 4), (5, 4, 4, 4))


def search(cpmaps, seed: int) -> list:
    rng = np.random.default_rng(seed)
    kw = {"budget": SEARCH_BUDGET}
    ops = []
    for d_in, m, k, count in SEARCH_PLANTED:
        for _ in range(count):
            factors, _ = gen.planted_witness(rng, d_in, m, k)
            ops.append(_qp_op(cpmaps, f"planted-{d_in}x{m}x{k}", factors, "NotQuasiPure", **kw))
    for d_in, m, k, count in SEARCH_GENERIC:
        for _ in range(count):
            factors = gen.generic_factors(rng, d_in, m, k)
            ops.append(_qp_op(cpmaps, f"generic-{d_in}x{m}x{k}", factors, "NotQuasiPure", **kw))
    for d_in, m, k, count in SEARCH_QUASIPURE:
        for _ in range(count):
            factors = gen.quasipure_float(rng, d_in, m, k, mix=gen.near_unitary)
            ops.append(_qp_op(cpmaps, f"qp-{d_in}x{m}x{k}", factors, "QuasiPure", **kw))
    return ops


# ---------------------------------------------------------------------------
# complete: completion, decomposition, rigidity, counterexamples, infeasible data

# (d_in, d_out[, k], count); Choi matrices reach 96 x 96 and 100 x 100.  The
# 4 x 6 completions are the largest class and sit in the middle of the cost
# order, as many operations cheaper as dearer, so the median operation time
# is one of theirs.
COMPLETE_SIZES = ((3, 4, 3, 8), (4, 6, 4, 24), (6, 8, 5, 8), (8, 12, 6, 8))
RIGIDITY_SIZES = ((3, 4, 4), (6, 8, 8), (8, 12, 16))
DIAGONAL_SIZES = ((4, 4), (7, 8), (10, 8))
PLANTED_SIZES = ((4, 3, 3, 8), (6, 5, 3, 8))
INFEASIBLE_SIZES = ((4, 6, 3, 6), (8, 12, 5, 6))


def _partial(cpmaps, choi, r, d_in, d_out):
    return cpmaps.PartialCpMap(d_in=d_in, d_out=d_out, r=r,
                               blocks=gen.partial_blocks(choi, r, d_in, d_out))


def _completion_op(cpmaps, rng, d_in, d_out, k) -> list:
    factors = gen.random_factors(rng, d_in, d_out, k)
    r = gen.rank_deficient_psd(rng, d_out, d_out // 2)
    choi = ck.choi_of(factors)
    phi = cpmaps.CpMap.from_kraus(factors)
    beta = _partial(cpmaps, choi, r, d_in, d_out)

    def run():
        return (cpmaps.cp_completable(beta),
                cpmaps.minimal_cp_completion_choi(beta),
                cpmaps.minimal_cp_completion_stinespring(beta, phi))

    def check(out):
        feasible, via_choi, via_stine = out
        ck.require(feasible, "completable data reported infeasible")
        for alpha in (via_choi, via_stine):
            ck.check_completion(alpha.choi, choi, r, d_in, d_out)
        ck.check_same(via_choi.choi, via_stine.choi, "the two completion routes")
        return True

    def run_decompose():
        return cpmaps.decompose_along(phi, r)

    def check_decompose(out):
        ck.check_decomposition(out.alpha.choi, out.phi1.choi, choi, r, d_in)
        return True

    return [Op(f"complete-{d_in}x{d_out}", run, check),
            Op(f"decompose-{d_in}x{d_out}", run_decompose, check_decompose)]


def _rigidity_op(cpmaps, rng, d_in, d_out) -> Op:
    factors, v = gen.trace_state_factors(rng, d_in, d_out)
    other = gen.remix(rng, factors)
    phi = cpmaps.CpMap.from_kraus(factors)
    psi = cpmaps.CpMap.from_kraus(other)
    r = np.outer(v, v.conj())
    deviation = ck.max_abs(ck.choi_of(factors) - ck.choi_of(other))

    def check(verdict):
        ck.require(verdict.status == "TheoremHolds", f"rigidity gave {verdict.status}")
        ck.require(deviation <= ck.EQ_REL, f"the two Kraus families differ by {deviation:.2e}")
        return True

    return Op(f"rigidity-{d_in}x{d_out}", lambda: cpmaps.rigidity_check(phi, psi, r), check)


def _counterexample_op(cpmaps, cls, factors, h0) -> Op:
    phi = cpmaps.CpMap.from_kraus(factors)
    d_in, d_out = factors[0].shape
    choi = ck.choi_of(factors)

    def check(found):
        ck.require(found is not None, "no counterexample at a witness with room to twist")
        psi, r = found
        ck.check_counterexample(psi.choi, r, choi, d_in, d_out, h0)
        return True

    return Op(cls, lambda: cpmaps.counterexample_construct(phi, h0), check)


def _infeasible_op(cpmaps, rng, d_in, d_out, k, kind) -> Op:
    factors = gen.random_factors(rng, d_in, d_out, k)
    r = gen.rank_deficient_psd(rng, d_out, d_out // 2)
    beta = _partial(cpmaps, gen.infeasible_choi(rng, factors, r, d_in, d_out, kind),
                    r, d_in, d_out)

    def run():
        feasible = cpmaps.cp_completable(beta)
        try:
            cpmaps.minimal_cp_completion_choi(beta)
        except cpmaps.NotCompletable:
            return feasible, True
        return feasible, False

    def check(out):
        feasible, refused = out
        ck.require(not feasible, "infeasible data reported completable")
        ck.require(refused, "minimal completion of infeasible data did not raise NotCompletable")
        return True

    return Op(f"infeasible-{kind}-{d_in}x{d_out}", run, check)


def complete(cpmaps, seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for d_in, d_out, k, count in COMPLETE_SIZES:
        for _ in range(count):
            ops += _completion_op(cpmaps, rng, d_in, d_out, k)
    for d_in, d_out, count in RIGIDITY_SIZES:
        ops += [_rigidity_op(cpmaps, rng, d_in, d_out) for _ in range(count)]
    for d, count in DIAGONAL_SIZES:
        for _ in range(count):
            factors, h0 = gen.diagonal_pair(rng, d)
            ops.append(_counterexample_op(cpmaps, f"counterexample-diagonal-{d}", factors, h0))
    for d_in, m, k, count in PLANTED_SIZES:
        for _ in range(count):
            factors, h0 = gen.planted_witness(rng, d_in, m, k)
            ops.append(_counterexample_op(cpmaps, f"counterexample-planted-{d_in}x{m}",
                                          factors, h0))
    for d_in, d_out, k, count in INFEASIBLE_SIZES:
        for _ in range(count):
            for kind in ("negative", "leak"):
                ops.append(_infeasible_op(cpmaps, rng, d_in, d_out, k, kind))
    return ops


LIBRARY = {"pencil": pencil, "search": search, "complete": complete}
