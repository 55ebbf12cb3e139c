"""Rigidity of quasi-pure maps, and honest counterexamples without it.

Suppose two CP maps with the same unit values agree after compression by
an operator R: phi(X) R = psi(X) R for all X.  If phi is quasi-pure (and
the compressed data is not identically zero), the agreement is rigid --
psi must equal phi outright.  Drop quasi-purity and the conclusion fails:
at any witness direction one can build a genuinely different psi that
matches phi through R exactly.  This script checks the theorem on a
quasi-pure map, then constructs such a counterexample.
"""

import numpy as np

from cpmaps import (
    apply,
    counterexample_construct,
    decompose_along,
    forced_equality_scan,
    HypothesisFailed,
    is_quasipure,
    maps_close,
    minimal_cp_completion_choi,
    PartialCpMap,
    rigidity_check,
    r_equivalent,
    support_projection,
)
from cpmaps.gallery import diagonal_pair_map, flip_twirl_map, trace_state_map

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# ---------------------------------------------------------------------------
# 1. The rigidity theorem in action.
# ---------------------------------------------------------------------------
rho = np.diag([0.5, 0.5]).astype(complex)
v = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
phi = trace_state_map(rho, v)        # quasi-pure, M_2 -> M_3
r = np.diag([1.0, 0.0, 0.0]).astype(complex)

# Build psi from phi's compressed data alone, then compare.
psi = minimal_cp_completion_choi(PartialCpMap.from_map(phi, r))
verdict = rigidity_check(phi, psi, r)
print("rigidity verdict:", verdict.status)
print("max deviation between phi and psi:",
      f"{verdict.max_deviation:.2e}")
print("quasi-purity backing it:", verdict.quasipurity.status,
      "via", verdict.quasipurity.method)

# The hypotheses are genuinely checked: a non-quasi-pure phi is rejected.
try:
    rigidity_check(flip_twirl_map(), flip_twirl_map(),
                   np.diag([1.0, 0.0]))
except HypothesisFailed as exc:
    print("flip twirl rejected, failed hypothesis:", exc.hypothesis)

# ---------------------------------------------------------------------------
# 2. Decomposing along R: the part of the map that R sees.
# ---------------------------------------------------------------------------
phi_nqp = flip_twirl_map()
w = is_quasipure(phi_nqp).witness
r2 = np.outer(w, w.conj())
parts = decompose_along(phi_nqp, r2)
print("\nflip twirl split along R = |w><w|:")
print("  alpha + phi1 == phi:",
      maps_close(parts.alpha + parts.phi1, phi_nqp))
print("  alpha is nonzero:", not parts.alpha.is_zero(),
      " phi1 is nonzero:", not parts.phi1.is_zero())
print("  phi1 vanishes on R:",
      np.abs(apply(parts.phi1, np.eye(2)) @ r2).max() < 1e-9)

# ---------------------------------------------------------------------------
# 3. A counterexample where quasi-purity fails.
# ---------------------------------------------------------------------------
target = diagonal_pair_map()          # k = 2, not quasi-pure
witness = is_quasipure(target).witness
print("\ndiagonal pair witness:", np.round(witness, 4))

out = counterexample_construct(target, witness)
psi2, r3 = out
print("constructed psi and rank-1 R with:")
print("  same unit values:",
      np.abs(apply(psi2, np.eye(3)) - apply(target, np.eye(3))).max() < 1e-9)
print("  R-equivalent:", r_equivalent(target, psi2, r3))
print("  genuinely different:",
      f"max Choi deviation {np.abs(target.choi - psi2.choi).max():.3f}")

# ---------------------------------------------------------------------------
# 4. Every witness admits one, and at e1 the data pins the map.  The flip
#    twirl at its witness w has a counterexample too; compressed at e1,
#    which is no witness, every completion of its data is the map itself.
# ---------------------------------------------------------------------------
psi3, _ = counterexample_construct(phi_nqp, w)
print("\nflip twirl at its witness: max Choi deviation of psi",
      f"{np.abs(phi_nqp.choi - psi3.choi).max():.3f}")
e1 = np.array([1.0, 0.0])
print("flip twirl at e1: construction returns",
      counterexample_construct(flip_twirl_map(), e1))
print("minimal completion of phi(.) R is phi itself (forced equality):",
      forced_equality_scan(flip_twirl_map(), np.diag([1.0, 0.0])))

# ---------------------------------------------------------------------------
# 5. Support projections give the canonical compression for state-like maps.
# ---------------------------------------------------------------------------
xi = trace_state_map(np.diag([1.0, 0.0]).astype(complex),
                     np.array([0.0, 1.0]))
print("\nsupport projection of X -> trace(E11 X)|e2><e2|:")
print(support_projection(xi).real)

print("\nRigidity verified where it holds, refuted where it does not.")
