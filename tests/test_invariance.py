"""Quasi-purity is a property of the map, not of how it is written down.

Hypothesis draws small maps (``d_in <= 5``, ``d_out <= 3``, ``k <= 3``),
some with a witness planted at ``e_1``, and decides each one in five
forms: its Kraus factors, its Choi matrix, a unitary mixing of the family,
the factors ``U K_j V`` for unitaries ``U`` and ``V``, and the map scaled
by ``c`` in ``[1e-8, 1e8]``.  No two decided statuses may contradict, and
every witness, carried back to the original coordinates, passes the rank
window ``0 < rank [K_1 h | ... | K_k h] < k`` of the original map.
Quasi-pure Gaussian-integer maps, given by Kraus factors and by their Choi
matrix, must also agree on the method and the cells spent, and so must
planted witness maps with a square flattening ``T = [K_1 | ... | K_k]``,
given by Kraus factors, by their Choi matrix and by a unitary mixing of the
family: ``ker T`` moves with the family by ``U^T (x) I`` and keeps its
rank-one vectors, so the witness is read from it in every form.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpmaps import CpMap, is_quasipure, kraus_to_choi, linalg, minimal_kraus
from cpmaps.gallery import planted_witness_map
from cpmaps.quasipure import INCONCLUSIVE

from conftest import haar_unitary, pencil_witness, polynomial_factors

BUDGET = 300


def draw_factors(rng, d_in, d_out, k, planted):
    """``k`` complex Gaussian factors; when ``planted``, every factor sends
    ``e_1`` into one line, so ``e_1`` is a witness once ``k >= 2``."""
    factors = [rng.normal(size=(d_in, d_out))
               + 1j * rng.normal(size=(d_in, d_out)) for _ in range(k)]
    if planted:
        w = rng.normal(size=d_in) + 1j * rng.normal(size=d_in)
        for f in factors:
            f[:, 0] = complex(rng.normal(), rng.normal()) * w
    return factors


def five_forms(factors, rng, c):
    """``{form: (map, carry)}``; ``carry`` takes a witness of the form to
    one of the original map."""
    d_in, d_out = factors[0].shape
    phi = CpMap.from_kraus(factors)
    u, v, mix = (haar_unitary(rng, n) for n in (d_in, d_out, len(factors)))
    same = lambda h: h  # noqa: E731
    return {
        "kraus": (phi, same),
        "choi": (CpMap.from_choi(phi.choi, d_in, d_out), same),
        "mixed": (CpMap.from_kraus(
            [sum(m * f for m, f in zip(row, factors)) for row in mix]), same),
        # F'(h) = [U K_j V h] = U F(V h)
        "rotated": (CpMap.from_kraus([u @ f @ v for f in factors]),
                    lambda h: v @ h),
        "scaled": (c * phi, same),
    }


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d_in=st.integers(1, 5), d_out=st.integers(1, 3), k=st.integers(1, 3),
       planted=st.booleans(), log_c=st.floats(-8.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quasipurity_does_not_depend_on_the_form(d_in, d_out, k, planted,
                                                 log_c, seed):
    rng = np.random.default_rng(seed)
    factors = draw_factors(rng, d_in, d_out, k, planted)
    forms = five_forms(factors, rng, 10.0 ** log_c)
    verdicts = {name: (is_quasipure(phi, budget=BUDGET), carry)
                for name, (phi, carry) in forms.items()}
    decided = {v.status for v, _ in verdicts.values()
               if v.status != INCONCLUSIVE}
    assert len(decided) <= 1, {n: v.status for n, (v, _) in verdicts.items()}
    original = minimal_kraus(forms["kraus"][0])
    for name, (verdict, carry) in verdicts.items():
        if verdict.witness is None:
            continue
        h = carry(verdict.witness)
        rank = linalg.numerical_rank(np.column_stack([f @ h for f in original]))
        assert 0 < rank < len(original), name


def gaussian_integers(rng, shape):
    """Gaussian integers with real and imaginary parts in ``{-1, 0, 1}``."""
    return rng.integers(-1, 2, size=shape) + 1j * rng.integers(-1, 2, size=shape)


def invertible_gaussian_integers(rng, n):
    """An invertible ``n x n`` matrix of :func:`gaussian_integers`."""
    while True:
        a = gaussian_integers(rng, (n, n))
        if abs(np.linalg.det(a)) > 0.5:  # a nonzero Gaussian integer
            return a


@pytest.mark.parametrize("shape", [(4, 3, 2), (6, 3, 2), (5, 2, 3), (3, 2, 2)],
                         ids="polynomial-{0[0]}{0[1]}{0[2]}".format)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_gaussian_integer_map_is_decided_alike_from_kraus_and_choi(shape,
                                                                    seed):
    # quasi-pure maps with k = 2 or m = 2 and exactly representable entries
    # that step 1 does not prove (rank T = k + m - 1 < k m); (3, 2, 2) is an
    # injective pair.  The Kraus factors and the Choi matrix, whose minimal
    # factors are floating-point mixtures of them, take one route and spend
    # the same cells
    factors = polynomial_factors(np.random.default_rng(seed), *shape,
                                 draw=invertible_gaussian_integers)
    d_in, m, _ = shape
    forms = [CpMap.from_kraus(factors),
             CpMap.from_choi(kraus_to_choi(factors), d_in, m)]
    verdicts = [is_quasipure(phi) for phi in forms]
    assert {(v.status, v.method, v.samples_used) for v in verdicts} == {
        ("QuasiPure", "SylvesterMatrix", verdicts[0].samples_used)}
    assert verdicts[0].is_proof


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_a_square_flattening_witness_is_decided_alike_in_every_form(seed):
    # n = min(k, m) = 3 > 2 and T is 9 x 9: the witness comes from ker T
    # before any chart centre, whose coordinates would be the family's
    phi, h0 = planted_witness_map(9, 3, 3, seed=seed)
    mix = haar_unitary(np.random.default_rng(seed), 3)
    forms = [phi, CpMap.from_choi(phi.choi, 9, 3),
             CpMap.from_kraus([sum(u * f for u, f in zip(row, phi.kraus))
                               for row in mix])]
    verdicts = [is_quasipure(form) for form in forms]
    assert {(v.status, v.method, v.samples_used) for v in verdicts} == {
        ("NotQuasiPure", "ExactPencil", 0)}
    for v in verdicts:
        assert abs(np.vdot(h0, v.witness)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("make", [
    lambda seed: pencil_witness(np.random.default_rng(seed), 4, 2),
    lambda seed: pencil_witness(np.random.default_rng(seed), 6, 3),
    lambda seed: planted_witness_map(6, 2, 3, seed=seed)[0],
    lambda seed: planted_witness_map(8, 2, 4, seed=seed)[0],
], ids=["pencil-42", "pencil-63", "planted-623", "planted-824"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_a_tall_flattening_witness_is_decided_alike_in_every_form(make, seed):
    # whether step 1's sigma(T) vouches for the reduction depends on
    # sigma(T) alone, which the Choi form's minimal factors and a unitary
    # mixing of the family leave unchanged: every form takes one route
    phi = make(seed)
    mix = haar_unitary(np.random.default_rng(seed), len(phi.kraus))
    forms = [phi, CpMap.from_choi(phi.choi, phi.d_in, phi.d_out),
             CpMap.from_kraus([sum(u * f for u, f in zip(row, phi.kraus))
                               for row in mix])]
    verdicts = [is_quasipure(form) for form in forms]
    assert len({(v.status, v.method, v.samples_used) for v in verdicts}) == 1
    assert verdicts[0].status == "NotQuasiPure"
