"""Replaying the rate bound as exact entropy accounting.

The telescoping argument: pair each output symbol with its input (the
systematic extension, which ledger_replay reads off the code itself), feed
it uniform messages, and track T_i = sum of restriction entropies over level
i's blocks.  Every decodable block B forfeits |lf(B)| * lg|sigma_in| bits of
"common information" between its parts, so T_i drops by at least
alpha * n * lg|sigma_in| per level (minus a credit for exempt blocks);
squeezing T_0 against T_ell yields the alphabet bound.  Here every
inequality is checked numerically, level by level.
"""

from treecodes import FiniteJoint, ledger_replay, trivial_code, verify_data_processing
from treecodes.partitions import chs_partition, eks_partition

print("the common-information inequality on a tiny joint:")
dist = FiniteJoint.from_weights(
    ("A", "B", "C"), {(a, (a, b), (a, c)): 1 for a in (0, 1) for b in (0, 1) for c in (0, 1)}
)
rep = verify_data_processing(dist)
print(f"  H(A) = {rep.h_a:.3f}, I(B:C) = {rep.i_bc:.3f}, margins "
      f"{rep.mi_margin:.2e} / {rep.sum_margin:.2e} -> ok = {rep.ok}")

print("\nledger replay: full-prefix code, depth 8, dyadic tower")
led, verdict = ledger_replay(trivial_code(8), eks_partition(3))
for i, t in enumerate(led.t):
    slack = "" if i == 0 else f"   (decrement slack {led.slacks[i - 1]:+.3f})"
    print(f"  T_{i} = {t:7.3f}{slack}")
print(f"  endpoint margins: T_ell - n = {led.t_ell_margin:+.3f}, "
      f"n lg|sigma'| - T_0 = {led.start_margin:+.3f}")
print(f"  derived bound lg|sigma| >= {led.derived_bound}; measured {led.measured_lg_sigma}")
print(f"  all inequalities hold: {verdict.passed}")

print("\ndeficient replay: quarter-split tower at depth 16 with an exempt block")
p, ledger = chs_partition(1, 4, 0)
led, verdict = ledger_replay(trivial_code(16), p, ledger)
print(f"  T = {[round(t, 3) for t in led.t]}, slack (with credit) = "
      f"{[round(s, 3) for s in led.slacks]}")
exempt = [bm for bm in led.block_margins if bm["exempt"]]
print(f"  exempt block margin (not asserted): {exempt[0]['margin']:+.3f}")
print(f"  derived deficient bound: lg|sigma| >= {led.derived_bound} "
      f"(deficiency D = {led.deficiency}); holds: {verdict.passed}")
