"""Tests for context equivalence, decomposition, rigidity, counterexamples."""

import inspect

import numpy as np
import pytest

from cpmaps import (
    CpMap,
    PartialCpMap,
    DimensionMismatch,
    EquivalenceContext,
    HypothesisFailed,
    NotCP,
    WitnessInvalid,
    ZeroMap,
    ae_equal_rigidity,
    apply,
    counterexample_construct,
    decompose_along,
    dominates,
    forced_equality_scan,
    is_cp,
    is_quasipure,
    maps_close,
    minimal_cp_completion_choi,
    minimal_cp_completion_stinespring,
    minimal_kraus,
    r_equivalent,
    rigidity_check,
    support_projection,
)
from cpmaps import linalg, serialize
from cpmaps.gallery import (
    conjugation_map,
    diagonal_pair_map,
    flip_twirl_map,
    identity_map,
    planted_witness_map,
    random_cp_map,
    trace_state_map,
    transpose_map,
)

from conftest import (
    DATA,
    count_linalg_calls,
    counterexample_population,
    matrix_unit,
    polynomial_factors,
    random_non_normal,
    random_projection,
    random_psd,
    random_unit,
)


E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def state_map(vector):
    """The functional X -> <v, X v> as a CP map into the scalars."""
    col = np.asarray(vector, dtype=complex).reshape(-1, 1)
    return CpMap.from_kraus([col])


# ---------------------------------------------------------------------------
# support projections and contexts


def test_support_projection_of_vector_state():
    p = support_projection(state_map([1.0, 0.0]))
    assert np.allclose(p, E11)


def test_support_projection_of_faithful_state():
    xi = trace_state_map(np.eye(2) / 2.0, np.array([1.0], dtype=complex))
    assert np.allclose(support_projection(xi), np.eye(2))


def test_support_projection_of_state_map_is_state_support():
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = np.array([[0.7, 0.1], [0.1, 0.3]])
    xi = trace_state_map(rho, np.array([1.0, 0.0]))
    p = support_projection(xi)
    assert np.allclose(p, linalg.range_projection(rho), atol=1e-10)


def test_support_projection_properties():
    rng = np.random.default_rng(14)
    xi = random_cp_map(3, 2, 2, seed=14)
    p = support_projection(xi)
    d = xi.d_in
    # xi(P) = xi(I) and xi((I-P) Y (I-P)) = 0
    scale = max(np.abs(xi.choi).max(), 1.0)
    assert np.abs(apply(xi, p) - apply(xi, np.eye(d))).max() < 1e-9 * scale
    off = np.eye(d) - p
    for _ in range(5):
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.abs(apply(xi, off @ y @ off)).max() < 1e-9 * scale


def test_support_projection_gates():
    with pytest.raises(NotCP):
        support_projection(transpose_map(2))
    with pytest.raises(ZeroMap):
        support_projection(CpMap.zero(2, 2))


def test_support_projection_self_check_is_not_an_assert(monkeypatch):
    # factors of another state map give the wrong support: xi(P) != xi(I);
    # the check must raise a toolkit error, not an assert that -O strips
    xi = state_map([1.0, 0.0])
    other = state_map([0.0, 1.0])
    monkeypatch.setattr("cpmaps.ae_equiv.minimal_kraus",
                        lambda phi, tol: list(other.kraus))
    with pytest.raises(NotCP, match="internal error"):
        support_projection(xi)


def test_equivalence_context_validation():
    ctx = EquivalenceContext.from_operator(E11)
    assert np.allclose(ctx.projection(), E11)
    ctx = EquivalenceContext.from_reference_map(state_map([1.0, 0.0]))
    assert np.allclose(ctx.projection(), E11)
    with pytest.raises(ValueError):
        EquivalenceContext(r=E11, xi=state_map([1.0, 0.0]))
    with pytest.raises(ValueError):
        EquivalenceContext(r=None, xi=None)


# ---------------------------------------------------------------------------
# R-equivalence


def test_r_equivalent_reflexive_and_zero_context():
    phi = flip_twirl_map()
    assert r_equivalent(phi, phi, E11)
    assert r_equivalent(phi, identity_map(2), np.zeros((2, 2)))


def test_r_equivalent_accepts_context_or_operator_or_map():
    phi = flip_twirl_map()
    psi = identity_map(2)
    # phi and the identity agree after compression by nothing; with E22 the
    # extra sigma_x X sigma_x term shows up
    assert not r_equivalent(phi, psi, E22)
    assert not r_equivalent(phi, psi, EquivalenceContext.from_operator(E22))
    assert not r_equivalent(phi, psi, state_map([0.0, 1.0]))


def test_r_equivalent_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        r_equivalent(identity_map(2), identity_map(3), E11)
    with pytest.raises(DimensionMismatch):
        r_equivalent(identity_map(2), identity_map(2), np.eye(3))


def test_distinct_maps_can_be_equivalent():
    # the constructed counterexample pair agrees at R yet differs globally
    phi = diagonal_pair_map()
    witness = is_quasipure(phi).witness
    psi, r = counterexample_construct(phi, witness)
    assert r_equivalent(phi, psi, r)
    assert not maps_close(phi, psi)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_full_and_empty_context():
    phi = flip_twirl_map()
    full = decompose_along(phi, np.eye(2))
    assert maps_close(full.alpha, phi)
    assert full.phi1.is_zero()
    empty = decompose_along(phi, np.zeros((2, 2)))
    assert empty.alpha.is_zero()
    assert maps_close(empty.phi1, phi)


def test_decompose_flip_twirl_at_witness():
    phi = flip_twirl_map()
    h0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    r = np.outer(h0, h0.conj())
    dec = decompose_along(phi, r)
    assert maps_close(dec.alpha + dec.phi1, phi)
    assert is_cp(dec.alpha) and is_cp(dec.phi1)
    assert not dec.phi1.is_zero()  # the split is nontrivial at the witness
    assert r_equivalent(dec.alpha, phi, r)
    assert r_equivalent(dec.phi1, CpMap.zero(2, 2), r)
    assert dominates(phi, dec.alpha)


def test_decompose_rejects_non_cp():
    with pytest.raises(NotCP):
        decompose_along(transpose_map(2), E11)
    with pytest.raises(DimensionMismatch):
        decompose_along(flip_twirl_map(), np.eye(3))
    with pytest.raises(DimensionMismatch):
        decompose_along(flip_twirl_map(), np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        decompose_along(flip_twirl_map(), np.diag([1.0, np.nan]))


@pytest.mark.parametrize("kind", ["psd", "projection", "non-normal"])
@pytest.mark.parametrize("form", ["kraus", "choi"])
def test_decomposition_is_the_stinespring_completion_of_its_own_data(
        form, kind):
    rng = np.random.default_rng(90)
    phi = random_cp_map(3, 4, 3, rng=rng)
    if form == "choi":
        phi = CpMap.from_choi(phi.choi, 3, 4)
    r = {"psd": random_psd(rng, 4, rank=2),
         "projection": random_projection(rng, 4, 2),
         "non-normal": random_non_normal(rng, 4, 2)}[kind]
    dec = decompose_along(phi, r)
    want = minimal_cp_completion_stinespring(PartialCpMap.from_map(phi, r),
                                             phi)
    assert dec.alpha.choi.tobytes() == want.choi.tobytes()
    assert ([k.tobytes() for k in dec.alpha.kraus]
            == [k.tobytes() for k in want.kraus])
    assert dec.phi1.choi.tobytes() == (phi - want).choi.tobytes()


def test_decompose_along_a_non_normal_operator():
    # phi(.) R used to be refused as partial data of phi itself
    small = random_cp_map(3, 2, 2, seed=1)
    assert r_equivalent(decompose_along(small, [[0, 1], [0, 0]]).alpha,
                        small, [[0, 1], [0, 0]])
    # with more factors than d_in the split is proper; only ran R matters
    phi = random_cp_map(2, 3, 4, seed=1)
    r = np.zeros((3, 3))
    r[0, 2] = 1.0  # ran R = span(e_1), ran R* = span(e_3)
    dec = decompose_along(phi, r)
    zero = CpMap.zero(2, 3)
    assert not maps_close(dec.phi1, zero)
    assert r_equivalent(dec.alpha, phi, r)
    assert r_equivalent(dec.phi1, zero, r)
    assert is_cp(dec.phi1) and dominates(phi, dec.alpha)
    assert maps_close(dec.alpha,
                      decompose_along(phi, np.diag([1.0, 0.0, 0.0])).alpha)


def test_decomposition_component_is_shared_by_equivalent_maps():
    # all a.e.-equal completions decompose with the same alpha component
    rng = np.random.default_rng(88)
    for _ in range(6):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(2, 4))
        phi = random_cp_map(d1, d2, int(rng.integers(1, 4)), rng=rng)
        r = random_projection(rng, d2, int(rng.integers(1, d2)))
        dec = decompose_along(phi, r)
        scale = max(np.abs(phi.choi).max(), 1.0)
        off = np.eye(d2) - r
        bump = CpMap.from_kraus(
            [(rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2)))
             @ off])
        other = dec.alpha + bump
        dec2 = decompose_along(other, r)
        assert np.abs(dec2.alpha.choi - dec.alpha.choi).max() < 1e-8 * scale


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_theorem_holds_for_state_map():
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    verdict = rigidity_check(phi, phi, E11)
    assert verdict.status == "TheoremHolds"
    assert verdict.max_deviation <= 1e-8
    assert verdict.quasipurity.is_proof


def test_rigidity_hypothesis_gates():
    eb = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    with pytest.raises(HypothesisFailed) as info:
        rigidity_check(flip_twirl_map(), flip_twirl_map(), E11)
    assert info.value.hypothesis == "quasi-purity"
    with pytest.raises(HypothesisFailed) as info:
        rigidity_check(eb, 0.5 * eb, E11)
    assert info.value.hypothesis == "unit-values"
    with pytest.raises(HypothesisFailed) as info:
        rigidity_check(eb, eb, E22)  # phi(.)E22 vanishes identically
    assert info.value.hypothesis == "vanishes-on-r"
    other = trace_state_map(np.diag([2.0, 1.0]) / 3.0, np.array([1.0, 0.0]))
    with pytest.raises(HypothesisFailed) as info:
        rigidity_check(eb, other, E11)  # same unit, different action at R
    assert info.value.hypothesis == "r-equivalence"


def test_rigidity_projects_r_once(monkeypatch):
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    calls = []
    original = linalg.range_projection

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "range_projection", counted)
    assert rigidity_check(phi, phi, E11).status == "TheoremHolds"
    assert len(calls) == 1


def test_rigidity_forces_equality_through_completions():
    # psi := any CP completion of beta(X) = phi(X)R with matching unit must
    # equal phi itself; build psi independently through the completion module
    phi = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    from cpmaps import PartialCpMap, minimal_cp_completion_choi
    psi = minimal_cp_completion_choi(PartialCpMap.from_map(phi, E11))
    verdict = rigidity_check(phi, psi, E11)
    assert verdict.status == "TheoremHolds"
    assert maps_close(phi, psi)


def test_ae_equal_rigidity_identity_with_faithful_state():
    phi = identity_map(2)
    xi = trace_state_map(np.eye(2) / 2.0, np.array([1.0], dtype=complex))
    verdict = ae_equal_rigidity(phi, phi, xi)
    assert verdict.status == "TheoremHolds"


def test_ae_equal_rigidity_gates():
    eb = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    with pytest.raises(HypothesisFailed) as info:
        ae_equal_rigidity(eb, eb, CpMap.zero(2, 2))
    assert info.value.hypothesis == "reference-map"
    with pytest.raises(HypothesisFailed) as info:
        ae_equal_rigidity(eb, eb, state_map([0.0, 1.0]))
    assert info.value.hypothesis == "vanishes-on-r"
    with pytest.raises(DimensionMismatch):
        ae_equal_rigidity(eb, identity_map(3), state_map([1.0, 0.0]))


def test_ae_equal_rigidity_factorizes_a_choi_given_reference_once(
        monkeypatch):
    # the support projection's eigh decides that xi is CP and nonzero: no
    # separate eigvalsh of the same 6 x 6 Choi matrix
    phi = random_cp_map(6, 3, 2, seed=4)
    xi = CpMap.from_choi(random_cp_map(3, 2, 2).choi, 3, 2)
    calls = count_linalg_calls(monkeypatch, ["eigh", "eigvalsh"])
    verdict = ae_equal_rigidity(phi, phi, xi)
    assert verdict.status == "TheoremHolds"
    assert [c for c in calls if c[1] == (6, 6)] == [("eigh", (6, 6))]
    monkeypatch.undo()
    # a non-CP or zero reference map, or none, still fails the first gate
    eb = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    for bad in (transpose_map(2), CpMap.zero(2, 2),
                EquivalenceContext.from_operator(E11)):
        with pytest.raises(HypothesisFailed) as info:
            ae_equal_rigidity(eb, eb, bad)
        assert info.value.hypothesis == "reference-map"


# ---------------------------------------------------------------------------
# counterexample construction


def check_counterexample(phi, psi, r):
    """The five postconditions of a successful construction."""
    assert is_cp(psi)
    d = phi.d_in
    assert np.abs(apply(psi, np.eye(d)) - apply(phi, np.eye(d))).max() < 1e-9 \
        * max(np.abs(phi.choi).max(), 1.0)
    assert r_equivalent(phi, psi, r)
    assert np.abs(phi.choi - psi.choi).max() > 1e-6
    assert linalg.numerical_rank(r) == 1


def test_counterexample_on_diagonal_pair():
    phi = diagonal_pair_map()
    witness = is_quasipure(phi).witness
    out = counterexample_construct(phi, witness)
    assert out is not None
    psi, r = out
    check_counterexample(phi, psi, r)
    # R is the rank-one projection onto the witness
    assert np.allclose(r, np.outer(witness, witness.conj()), atol=1e-12)


def test_counterexample_determinism():
    phi = diagonal_pair_map()
    witness = is_quasipure(phi).witness
    a = counterexample_construct(phi, witness)
    b = counterexample_construct(phi, witness)
    assert np.array_equal(a[0].choi, b[0].choi)
    assert np.array_equal(a[1], b[1])


def test_counterexample_factorizes_the_map_once(monkeypatch):
    # the dilation's factors are the minimal Kraus family the rank test
    # reads: minimal_kraus runs once per construction
    from cpmaps import ae_equiv, stinespring
    calls = []
    original = stinespring.minimal_kraus

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (ae_equiv, stinespring):
        monkeypatch.setattr(module, "minimal_kraus", counted)
    for phi, witness in counterexample_population()[:6]:
        calls.clear()
        out = counterexample_construct(phi, witness)
        assert len(calls) == 1
        if out is not None:
            check_counterexample(phi, *out)


def test_counterexample_and_scan_form_no_remainder(monkeypatch):
    # both read alpha alone; decompose_along's remainder phi - alpha, a
    # Choi-sized subtraction, is never formed on their way
    def refuse(*args, **kwargs):
        raise AssertionError("a remainder phi - alpha was formed")

    pairs = counterexample_population()[:6]
    monkeypatch.setattr(CpMap, "__sub__", refuse)
    for phi, witness in pairs:
        out = counterexample_construct(phi, witness)
        assert out is not None
        assert not forced_equality_scan(phi, out[1])
    assert forced_equality_scan(flip_twirl_map(), E11)
    assert forced_equality_scan(random_cp_map(1, 3, 2, seed=0),
                                np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(AssertionError, match="remainder"):
        decompose_along(diagonal_pair_map(), np.diag([1.0, 0.0, 0.0]))


def test_counterexample_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("counterexample_construct drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    params = list(inspect.signature(counterexample_construct).parameters)
    assert params == ["phi", "witness", "tol"]
    phi = diagonal_pair_map()
    assert counterexample_construct(phi, is_quasipure(phi).witness) is not None
    assert counterexample_construct(flip_twirl_map(), np.array([1.0, 0.0])) \
        is None


def test_every_witness_carries_a_counterexample():
    # the paper's rigidity theorem made an if-and-only-if: at a quasi-purity
    # witness h0 of a map on M_d, d >= 2, the vector V h0 is not cyclic, so
    # phi is not the minimal completion of phi(.) |h0><h0| and the data
    # does not pin phi down
    flip = flip_twirl_map()
    pairs = counterexample_population() + [
        (flip, np.array([1.0, 1.0]) / np.sqrt(2.0))]
    for phi, h0 in pairs:
        out = counterexample_construct(phi, h0)
        assert out is not None
        check_counterexample(phi, *out)
        assert not forced_equality_scan(phi, np.outer(h0, h0.conj()))
    # the flip twirl's counterexample moves the map by half its entries
    psi, _ = counterexample_construct(*pairs[-1])
    assert np.isclose(np.abs(flip.choi - psi.choi).max(), 0.5)


def quasipure_maps(rng):
    """Proof-grade quasi-pure maps: trace-state, random and polynomial."""
    maps = [trace_state_map(random_psd(rng, d), random_unit(rng, m))
            for d, m in ((2, 2), (3, 2), (2, 3))]
    maps += [random_cp_map(6, 2, 2, rng=rng) for _ in range(3)]
    maps += [CpMap.from_kraus(polynomial_factors(rng, 6, 3, 2)),
             CpMap.from_kraus(polynomial_factors(rng, 5, 3, 3)),
             serialize.decode_map(
                 serialize.load_document(DATA / "polynomial_744_map.json"))]
    return maps


def test_quasipure_maps_are_rigid_at_every_r_they_see():
    # the other direction: for a proof-grade quasi-pure phi and any R with
    # phi(.) R != 0, R-equivalence and a matched unit force psi = phi
    rng = np.random.default_rng(2027)
    cases = 0
    for phi in quasipure_maps(rng):
        verdict = is_quasipure(phi)
        assert verdict.status == "QuasiPure" and verdict.is_proof
        d = phi.d_out
        for rank in range(1, d + 1):
            for r in (random_projection(rng, d, rank),
                      random_psd(rng, d, rank),
                      random_non_normal(rng, d, rank)):
                assert np.abs(phi.unit() @ r).max() > 1e-6
                assert forced_equality_scan(phi, r)
                cases += 1
    assert cases >= 60


def test_a_counterexample_exists_exactly_when_the_scan_says_so():
    rng = np.random.default_rng(31)
    flip = flip_twirl_map()
    pairs = [(flip, np.array([1.0, 0.0])), (flip, np.array([0.0, 1.0])),
             (flip, np.array([1.0, 1.0])), (flip, random_unit(rng, 2))]
    for phi, h0 in counterexample_population()[:12]:
        pairs += [(phi, h0), (phi, random_unit(rng, phi.d_out))]
    # on M_1 nothing moves; with more factors than d_in every h0 is a witness
    pairs += [(random_cp_map(1, 3, 2, rng=rng), random_unit(rng, 3)),
              (random_cp_map(2, 3, 3, rng=rng), random_unit(rng, 3)),
              (diagonal_pair_map(), random_unit(rng, 3))]
    found = 0
    for phi, h0 in pairs:
        h0 = np.asarray(h0, dtype=complex) / np.linalg.norm(h0)
        out = counterexample_construct(phi, h0)
        assert (out is None) == forced_equality_scan(
            phi, np.outer(h0, h0.conj()))
        found += out is not None
    assert 0 < found < len(pairs)


def reference_scan(phi, r):
    """The scan by its definition: ``d_in = 1``, or the minimal completion
    of ``phi(.) R``, by the Choi route, equals ``phi``."""
    return phi.d_in == 1 or maps_close(
        minimal_cp_completion_choi(PartialCpMap.from_map(phi, r)), phi)


def test_forced_equality_scan_agrees_with_the_minimal_completion():
    rng = np.random.default_rng(302)
    # X -> X_00 I: at R = E_00 the first candidate alpha + rho_0 is phi
    # itself, so only rho_1 moves it
    corner = CpMap.from_kraus([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)])
    maps = [corner, CpMap.zero(2, 3), CpMap.zero(1, 2), flip_twirl_map(),
            diagonal_pair_map(), identity_map(2),
            conjugation_map(rng.normal(size=(3, 2))),
            trace_state_map(random_psd(rng, 2), random_unit(rng, 3))]
    for d_in in range(1, 5):
        for d_out, k in ((2, 1), (2, 3), (3, 2)):
            maps.append(random_cp_map(d_in, d_out, k, rng=rng))
        if d_in > 1:
            maps.append(planted_witness_map(
                d_in, 3, 2, seed=int(rng.integers(1000)))[0])
    cases = forced = 0
    for phi in maps:
        d = phi.d_out
        # E_00 projects onto the planted maps' witness e1
        ops = [np.zeros((d, d)), np.eye(d), matrix_unit(d, 0, 0)]
        for rank in range(1, d + 1):
            ops += [random_projection(rng, d, rank),
                    random_non_normal(rng, d, rank)]
        for r in ops:
            got = forced_equality_scan(phi, r)
            assert got == reference_scan(phi, r), (phi, r)
            cases += 1
            forced += got
    assert 0 < forced < cases


def test_counterexample_gates():
    with pytest.raises(WitnessInvalid):
        counterexample_construct(identity_map(2), np.array([1.0, 0.0]))
    eb = trace_state_map(np.diag([1.0, 2.0]) / 3.0, np.array([1.0, 0.0]))
    with pytest.raises(WitnessInvalid):
        # phi(I) annihilates e2
        counterexample_construct(eb, np.array([0.0, 1.0]))
    with pytest.raises(WitnessInvalid):
        counterexample_construct(diagonal_pair_map(), np.zeros(3))


def test_forced_equality_scan():
    assert forced_equality_scan(flip_twirl_map(), E11)
    phi = diagonal_pair_map()
    witness = is_quasipure(phi).witness
    r = np.outer(witness, witness.conj())
    assert not forced_equality_scan(phi, r)
    # only ran R matters, so non-normal operators with those ranges agree
    assert forced_equality_scan(flip_twirl_map(), np.array([[0, 1], [0, 0]]))
    assert not forced_equality_scan(
        phi, np.outer(witness, witness.conj() + [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forced_equality_scan_on_a_one_dimensional_domain(seed):
    # on M_1 every CP psi is x -> x psi(1): a matched unit value is the map,
    # although the minimal completion of phi(.) R is smaller than phi
    phi = random_cp_map(1, 3, 2, seed=seed)
    r = np.diag([1.0, 0.0, 0.0])
    alpha = minimal_cp_completion_stinespring(PartialCpMap.from_map(phi, r),
                                              phi)
    assert not maps_close(alpha, phi)
    assert forced_equality_scan(phi, r)
    with pytest.raises(DimensionMismatch):
        forced_equality_scan(phi, np.eye(2))


def test_forced_equality_scan_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("forced_equality_scan drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    params = list(inspect.signature(forced_equality_scan).parameters)
    assert params == ["phi", "r", "tol"]
    assert forced_equality_scan(flip_twirl_map(), E11)
    assert not forced_equality_scan(diagonal_pair_map(), np.diag([1.0, 0, 0]))
