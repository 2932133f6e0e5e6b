"""Seeded random search for small tree codes, certified exactly.

Each trial samples a labeling with distinct sibling labels (a sibling
collision certifies distance zero outright), one depth at a time, until some
pair shows it cannot beat the best so far; a trial that never does has its
exact minimum divergent distance certified and becomes the new best.
Everything is keyed by a counter-based generator, so runs reproduce bit for
bit.
"""

from fractions import Fraction
from itertools import product

from treecodes import check_tree_distance, random_code_search
from treecodes.constructions import table_min_distance

print("depth 2, four output symbols: search vs. full enumeration")
result = random_code_search(2, 4, trials=200, seed=11)
print(f"  search best: {result.distance} (trial {result.trial})")

best = Fraction(0)
for labels in product(range(4), repeat=6):
    best = max(best, table_min_distance(2, labels))
print(f"  exhaustive optimum over all 4^6 labelings: {best}")
assert result.distance == best

best3 = Fraction(0)
for labels in product(range(3), repeat=6):
    best3 = max(best3, table_min_distance(2, labels))
print(f"  with only 3 symbols the optimum drops to {best3}: cross pairs need "
      "four pairwise-distinct continuations")

print("\ndepth 5, four symbols, 20000 seeded trials:")
result = random_code_search(5, 4, trials=20000, seed=42)
print(f"  best certified distance: {result.distance} (trial {result.trial})")
certificate = check_tree_distance(result.code, result.distance)
print(f"  re-certified at that threshold: {certificate.passed}")
print(f"  fails just above it: "
      f"{not check_tree_distance(result.code, result.distance + Fraction(1, 100)).passed}")
