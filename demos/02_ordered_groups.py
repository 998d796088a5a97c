"""Descriptor-driven partially ordered groups.

Groups compose from scalar lines, integer lattices and a non-commutative
affine group via lexicographic and direct products.  All groups are written
additively, even the affine one.
"""

from fractions import Fraction as F

from ordalg import groups as g
from ordalg.scalars import ScalarSubgroup

Z, Q = g.ZZ, g.QQ
Z2 = g.IntVector(2)
AFF = g.AffineQ()

print("=== structural predicates ===")
for desc in (Z2, AFF, g.Lex(Z, Z), g.Lex(Q, AFF), g.Product(Z2, Z)):
    print(
        f"  {str(desc):14} abelian={desc.is_abelian()!s:5} "
        f"linear={desc.is_linearly_ordered()!s:5} lattice={desc.is_lattice()!s:5} "
        f"directed={desc.is_directed()}"
    )

print()
print("=== the affine group is not commutative ===")
x, y = (F(2), F(1)), (F(3), F(0))
print(f"  (2,1) + (3,0) = {g.add(AFF, x, y)}")
print(f"  (3,0) + (2,1) = {g.add(AFF, y, x)}")

print()
print("=== the lexicographic positive cone ===")
LZ = g.Lex(Z, Z)
for v in ((F(0), F(3)), (F(1), F(-5)), (F(0), F(-1))):
    print(f"  (Z lex Z) contains {v}: {g.positive_cone_member(LZ, v)}")
print("  heads decide first: (1, 5) <= (2, -100):", g.leq(LZ, (F(1), F(5)), (F(2), F(-100))))

print()
print("=== directedness witnesses ===")
print(f"  Z^2 meet of (1,5), (3,2): {g.lower_bound(Z2, [(1, 5), (3, 2)])}")
lb = g.lower_bound(LZ, [(F(0), F(4)), (F(1), F(-7))])
print(f"  Z lex Z below (0,4) and (1,-7): {LZ.format_element(lb)}")

print()
print("=== commutation probes below positive bounds ===")
res = g.com_check(Z2, (1, 1), (2, 0))
print(f"  Z^2:            {res.status}")
res = g.com_check(AFF, (F(2), F(0)), (F(2), F(1)))
print(f"  affine example: {res.status}, witness = {res.witness}")
res = g.com_check(LZ, (F(0), F(2)), (F(0), F(3)))
print(f"  finite lex interval: {res.status}")

print()
print("=== center membership ===")
print(f"  (1, 0) central in Aff: {AFF.center_member((F(1), F(0)))}")
print(f"  (2, 0) central in Aff: {AFF.center_member((F(2), F(0)))}")
