"""The layered block-code tree code: certified short block codes stacked in a
right-shifted table, giving dyadic-window decodability.

Row 1 repeats each fresh bit; row i >= 2 encodes consecutive message blocks of
length 2^(i-2) with a block code and shifts the encodings right by one block,
so every column only looks backwards.  A disagreement therefore leaves a
certified fraction of disagreements inside each dyadic window after it.
"""

from fractions import Fraction

from treecodes import (
    audit_code,
    check_eks_condition,
    check_neighborhood_decoding,
    ecc_family,
    eks_code,
    eks_params,
    eks_partition,
    make_systematic,
)

delta = Fraction(1, 2)
family = ecc_family(delta, max_ell=4, seed=0)
print(f"block-code family at distance {delta}, one code per dyadic length "
      f"(shared cell width b = {family[0].b}):")
for c in family:
    print(f"  length {c.ell}: 2^{c.ell} codewords, certified distance {c.certified}")

params = eks_params(3, delta, seed=0)
code = eks_code(params)
print(f"\nlayered code at depth {params.n}: "
      f"output symbols pack {params.k + 1} rows of {params.b} bits")

x = (1, 0, 1, 1, 0, 0, 1, 0)
print(f"encode {x} -> {code.encode(x)}")

print("\nexhaustive certification:")
print(f"  dyadic-window condition: {check_eks_condition(code, delta, 3).passed}")
nd = check_neighborhood_decoding(code, eks_partition(3))
print(f"  per-block decodability: {nd.passed} "
      f"({sum(1 for e in nd.details['blocks'] if e['passed'])} blocks)")

report = audit_code(code, eks_partition(3))
print(f"\naudit against the rate bound: lg|sigma'| = {report.measured} "
      f">= {report.bound_value} -> satisfied = {report.satisfied}")

broken = eks_code(params, zero_rows=(4,))
v = check_eks_condition(broken, delta, 3)
print(f"\nzeroing the top row breaks scale 2^{v.witness['ell']}: "
      f"witness window {v.witness['window']} has {v.witness['measured']} "
      f"disagreements, needs {v.witness['required']}")

sys_code = make_systematic(code)
print(f"\nsystematic variant decodes the same blocks: "
      f"{check_neighborhood_decoding(sys_code, eks_partition(3)).passed}")
