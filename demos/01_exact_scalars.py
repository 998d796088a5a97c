"""Tour of the exact scalar subgroups of the real line.

Three kinds of subgroups containing 1 are available: cyclic grids (1/n)Z,
the full rationals Q, and quadratic lattices Z + Z*sqrt(d).  Every order
decision is exact; nothing here touches floating point.
"""

from fractions import Fraction

from ordalg.scalars import (
    QuadraticNumber,
    ScalarSubgroup,
    compare,
    grid_points,
    pick_strictly_between,
)

print("=== classification: cyclic or dense ===")
for text, H in [
    ("Z/4", ScalarSubgroup.cyclic(4)),
    ("Q", ScalarSubgroup.rationals()),
    ("Q[sqrt 2]", ScalarSubgroup.quadratic(2)),
]:
    print(f"  {text:10} -> {H.classify()}")

print()
print("=== exact order in Z + Z*sqrt(2) ===")
x = QuadraticNumber(Fraction(-1), Fraction(1), 2)  # sqrt(2) - 1
print(f"  sign(-1 + sqrt(2)) = {x.sign()}   (decided by comparing 1^2 with 2)")
print(f"  compare(3/4, 3/4)  = {compare(Fraction(3, 4), Fraction(3, 4)).name}")

print()
print("=== density witnesses: powers of sqrt(2) - 1 ===")
power = QuadraticNumber(Fraction(1), Fraction(0), 2)
for k in range(1, 6):
    power = power * x
    below = Fraction(1, 2**k)
    print(f"  (sqrt(2)-1)^{k} = {power}  < 1/{2**k}: {(power - below).sign() < 0}")

print()
print("=== deterministic elements strictly between ===")
Q = ScalarSubgroup.rationals()
print(f"  Q,   (0, 1)        -> {pick_strictly_between(Q, 0, 1)}  (smallest denominator)")
print(f"  Q,   (1/3, 1/2)    -> {pick_strictly_between(Q, Fraction(1,3), Fraction(1,2))}")
Z3 = ScalarSubgroup.cyclic(3)
print(f"  Z/3, (0, 1/2)      -> {pick_strictly_between(Z3, 0, Fraction(1,2))}")
S2 = ScalarSubgroup.quadratic(2)
t = pick_strictly_between(S2, S2.zero(), S2.one())
print(f"  Z+Z*sqrt(2), (0,1) -> {t}")

print()
print("=== witness grids of [0, 1] ===")
print(f"  Z/4:      {[str(p) for p in grid_points(ScalarSubgroup.cyclic(4))]}")
pts = grid_points(Q, max_den=4)
print(f"  Q (den<=4): {[str(p) for p in pts]}")
