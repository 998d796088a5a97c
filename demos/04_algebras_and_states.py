"""Finite partial-addition algebras and intervals of ordered groups.

Finite tables are checked exhaustively against the four defining axioms;
unit intervals [0, u] of a unital group form the same kind of structure
with addition restricted below the unit.  States are exact rational
functionals; their polytope vertices come from exact vertex enumeration.
"""

from fractions import Fraction as F

from ordalg import groups as g
from ordalg.scalars import ScalarSubgroup
from ordalg.parsing import format_pea_file
from ordalg.pea import (
    IntervalPea,
    boolean_algebra,
    check_pea_axioms,
    cyclic_elements,
    finite_chain,
    ideals_enumerate,
    infinitesimals,
    is_symmetric,
)
from ordalg.states import states_finite

print("=== a three-element chain, as a file ===")
chain = finite_chain(2)
print("  " + format_pea_file(chain).replace("\n", "\n  ").rstrip())

print()
print("=== axiom checking with witnesses ===")
table = dict(chain.table)
del table[(1, 1)]  # drop a + a = 1
verdict = check_pea_axioms(3, 0, 2, table)
print(f"  dropping the midpoint sum: valid={verdict.valid}, {verdict.failure}")

print()
print("=== ideals, flags and radicals of the Boolean square ===")
B = boolean_algebra(2)
report = ideals_enumerate(B)
for info in report.ideals:
    flags = " ".join(n for n, v in (("maximal", info.maximal), ("normal", info.normal)) if v)
    print(f"  {set(info.members) or '{}'}  {flags}")
print(f"  radical: {set(report.radical)}")

print()
print("=== exact state polytopes ===")
for name, E in (("chain of 5", finite_chain(4)), ("Boolean 2^2", B), ("Boolean 2^3", boolean_algebra(3))):
    vertices = states_finite(E)
    print(f"  {name}: {len(vertices)} extremal state(s)")
    for s in vertices:
        print(f"    {[str(v) for v in s.values]}")

print()
print("=== interval algebras never enumerate their elements ===")
E = IntervalPea(g.Lex(g.QQ, g.ZZ), (F(1), F(0)))
x = (F(1, 3), F(5))
print(f"  over lex(Q, Z): lneg({x}) = {E.lneg(x)}, rneg({x}) = {E.rneg(x)}")
print(f"  infinitesimals: {infinitesimals(E)}; (0, 5) qualifies: {infinitesimals(E).contains((F(0), F(5)))}")

print()
print("=== cyclic elements solve n*x = unit exactly ===")
print(f"  order 3 in lex(Q, Z):        {[c.element for c in cyclic_elements(E, 3)]}")
H2 = ScalarSubgroup.quadratic(2)
EQ = IntervalPea(g.Lex(g.Scalar(H2), g.ZZ), (H2.one(), F(0)))
print(f"  order 2 over Z+Z*sqrt(2):    {cyclic_elements(EQ, 2)}  (1/2 is not in the lattice)")

print()
print("=== symmetry depends on the unit tail commuting ===")
AFF = g.AffineQ()
asym = IntervalPea(g.Lex(g.ZZ, AFF), (F(1), (F(2), F(0))))
sym = IntervalPea(g.Lex(g.ZZ, AFF), (F(1), (F(1), F(0))))
v = is_symmetric(asym)
print(f"  unit tail (2,0): symmetric={v.symmetric}, witness={v.witness}")
print(f"  unit tail (1,0): symmetric={is_symmetric(sym).symmetric}")
