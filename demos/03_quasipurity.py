"""Deciding quasi-purity: pencil, Sylvester-type matrix and witnesses.

A CP map with minimal Kraus family {K_1, ..., K_k} is quasi-pure when no
direction h makes the vectors K_1 h, ..., K_k h linearly dependent without
all vanishing.  A direction that does is a witness: it certifies that part
of the map can be split off.  When the smaller of k and the number of
directions is 2 the witness set is the root set of a matrix pencil; beyond
that the full rank of a Sylvester-type matrix proves quasi-purity, and its
kernel yields witnesses.  The
verdict is a fact about the map, so small random maps given by their Kraus
factors and by their Choi matrix get the same one.
"""

import numpy as np

from cpmaps import CpMap, is_quasipure, minimal_kraus
from cpmaps.gallery import (
    diagonal_pair_map,
    flip_twirl_map,
    identity_map,
    random_cp_map,
    trace_state_map,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)


def show(name, verdict):
    line = f"{name:34s} {verdict.status:14s} via {verdict.method}"
    if verdict.witness is not None:
        line += f"  witness {np.round(verdict.witness, 4)}"
    print(line)


# ---------------------------------------------------------------------------
# 1. A tour of verdicts.
# ---------------------------------------------------------------------------
print("verdicts:")
show("identity on M_3", is_quasipure(identity_map(3)))

rho = np.array([[0.6, 0.2], [0.2, 0.4]])
v = np.array([1.0, 1j]) / np.sqrt(2.0)
show("X -> trace(rho X)|v><v|", is_quasipure(trace_state_map(rho, v)))

show("flip twirl", is_quasipure(flip_twirl_map()))
show("diagonal pair (1,2,3)", is_quasipure(diagonal_pair_map()))

# ---------------------------------------------------------------------------
# 2. What the witness means.  For the flip twirl the factors are I and
#    sigma_x; at h = (1,1)/sqrt(2) both factors send h to the same vector,
#    so the family becomes dependent there without vanishing.
# ---------------------------------------------------------------------------
phi = flip_twirl_map()
w = is_quasipure(phi).witness
factors = minimal_kraus(phi)
images = np.column_stack([k @ w for k in factors])
print("\nimages K_j h at the flip-twirl witness (columns):")
print(images.real)
print("rank:", np.linalg.matrix_rank(images), "of k =", len(factors))

# ---------------------------------------------------------------------------
# 3. Proof-grade verdicts beyond the exact pencil.
# ---------------------------------------------------------------------------
print("\nis_proof on the verdicts above:")
for name, m in [("identity", identity_map(3)),
                ("flip twirl", flip_twirl_map()),
                ("diagonal pair", diagonal_pair_map())]:
    vd = is_quasipure(m)
    print(f"  {name:14s} {vd.status:14s} is_proof={vd.is_proof}")

# A larger random map: [K_1 | K_2 | K_3] has 4 rows for 6 columns, so some
# a (x) h is sent to zero.  With two directions left, the floating-point
# pencil over h finds no witness, and the full rank of the 12 x 12
# Sylvester-type matrix of the flattening turns that into a proof.
hard = random_cp_map(4, 2, 3, seed=5)
verdict = is_quasipure(hard)
print(f"\nrandom map M_4 -> M_2, k = 3:")
print(f"  {verdict.status} via {verdict.method} "
      f"({verdict.samples_used} cells), is_proof={verdict.is_proof}")

# ---------------------------------------------------------------------------
# 4. The same map given by its Choi matrix gets the same verdict.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(12)
agree = 0
for _ in range(10):
    m = random_cp_map(2, 2, int(rng.integers(1, 3)), rng=rng)
    as_choi = CpMap.from_choi(m.choi, m.d_in, m.d_out)
    if is_quasipure(m).status == is_quasipure(as_choi).status:
        agree += 1
print(f"\nKraus form vs Choi form on 10 random small maps: {agree}/10 agree")
print("\nQuasi-purity decisions and cross-checks complete.")
