"""Refinement tables: constructive solving, verification and the oracle.

Any positive instance a1 + a2 = b1 + b2 over a supported group splits into
a 2x2 table whose rows sum to the a's and whose columns sum to the b's.
The solver takes c11 = a1 ^ b1 on every group, dense scalar heads included.
"""

import random
from fractions import Fraction as F

from ordalg import groups as g
from ordalg.riesz import rdp_decompose, rdp_oracle_search, rdp_table_verify, rip_interpolate
from ordalg.sampling import sample_interval, sample_positive
from ordalg.scalars import ScalarSubgroup

LZ = g.Lex(g.ZZ, g.ZZ)


def show(desc, a1, a2, b1, b2, table):
    fmt = desc.format_element
    print(f"    {fmt(a1)} | {fmt(table.c11)}  {fmt(table.c12)}")
    print(f"    {fmt(a2)} | {fmt(table.c21)}  {fmt(table.c22)}")
    print(f"           | {fmt(b1)}  {fmt(b2)}")


print("=== a worked instance over Z lex Z ===")
a1, a2 = (F(3), F(7)), (F(0), F(4))
b1, b2 = (F(1), F(2)), (F(2), F(9))
table = rdp_decompose(LZ, a1, a2, b1, b2)
show(LZ, a1, a2, b1, b2, table)
print(f"  verification: {rdp_table_verify(LZ, a1, a2, b1, b2, table).ok}")
print(f"  oracle cross-check: {rdp_oracle_search(LZ, a1, a2, b1, b2, box=45).found}")

print()
print("=== equal heads: the meet keeps the head and the smaller tail ===")
a1, a2 = (F(1), F(2)), (F(0), F(3))
b1, b2 = (F(1), F(5)), (F(0), F(0))
table = rdp_decompose(LZ, a1, a2, b1, b2)
show(LZ, a1, a2, b1, b2, table)
print(f"  verification: {rdp_table_verify(LZ, a1, a2, b1, b2, table).ok}")

print()
print("=== dense heads: the same meet table, with no reduction ===")
LQ = g.Lex(g.QQ, g.IntVector(2))
rng = random.Random(7)
a1 = sample_positive(LQ, rng, 9)
a2 = sample_positive(LQ, rng, 9)
total = g.add(LQ, a1, a2)
b1 = sample_interval(LQ, total, rng, 9)
b2 = g.sub_left(LQ, b1, total)
table = rdp_decompose(LQ, a1, a2, b1, b2, level="rdp1")
show(LQ, a1, a2, b1, b2, table)
res = rdp_table_verify(LQ, a1, a2, b1, b2, table, level="rdp1")
print(f"  verification: {res.ok}, commuting side condition: {res.side_condition}")

print()
print("=== the non-commutative total order keeps disjoint off-diagonals ===")
AFF = g.AffineQ()
a1, a2 = (F(2), F(0)), (F(3), F(1))
b1 = (F(3), F(1))
b2 = g.sub_left(AFF, b1, g.add(AFF, a1, a2))
table = rdp_decompose(AFF, a1, a2, b1, b2, level="rdp2")
show(AFF, a1, a2, b1, b2, table)
res = rdp_table_verify(AFF, a1, a2, b1, b2, table, level="rdp2")
print(f"  verification: {res.ok}, disjointness side condition: {res.side_condition}")
print(f"  meet(c12, c21) = {AFF.format_element(AFF.meet(table.c12, table.c21))}")

print()
print("=== interpolation between two lower and two upper elements ===")
LQZ = g.Lex(g.QQ, g.ZZ)
c = rip_interpolate(LQZ, (F(0), F(5)), (F(0), F(7)), (F(1), F(-3)), (F(1), F(-9)))
print(f"  (0,5), (0,7) <= c <= (1,-3), (1,-9) with c = {LQZ.format_element(c)}")
