"""Nilpotent-decomposition verdicts with verified witnesses.

A group has ND when every integral nilpotent stays integral after
projection by every central idempotent. One matrix component certifies a
positive verdict; an explicit (alpha, e) pair certifies a negative one.
The five worked negatives are re-verified from scratch here.
"""

from fractions import Fraction

from qgring import (build_named, curated_witness, is_sn, is_ssn, nd_verdict,
                    verify_witness)

print("Verdicts:")
for name in ["Q8", "Q12", "A4", "D12", "C3rC8", "Q8xC4", "Q8xC8", "A5"]:
    G = build_named(name)
    r = nd_verdict(G, budget=20000)
    print(f"  {name:<8} {r.verdict:<8} ({r.reason}; matrix_count={r.matrix_count}, "
          f"sn={is_sn(G)}, ssn={is_ssn(G)})")

print("\nCurated witnesses, re-verified exactly:")
for name, kwargs in [("D12", {}), ("Ex3.8", {}), ("BJ3", {"n": 3}),
                     ("BJ9", {}), ("A5", {})]:
    w = curated_witness(name, **kwargs)
    checks = verify_witness(w)
    print(f"  {name:<6} on {w.group.name:<10} {checks}")
    assert all(checks.values())

w = curated_witness("A5")
coeff = (w.alpha * w.e).coeff(w.group.element("(1,2)(3,4)"))
print(f"\nA5: coefficient of (1,2)(3,4) in alpha*e = {coeff} (exactly 1/2)")
assert coeff == Fraction(1, 2)
