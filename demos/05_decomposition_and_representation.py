"""Slice decompositions, perfectness and the representation isomorphism.

An algebra decomposes over a scalar subgroup H when it partitions into
slices indexed by [0,1] of H, compatibly with negation and addition.
Ordered decompositions with a central cyclic system pin the algebra down:
it is isomorphic to the canonical interval over Lex(Scalar(H), G), and the
map is verified here sample by sample.
"""

from fractions import Fraction as F

from ordalg import groups as g
from ordalg.decomp import (
    check_ordered,
    check_type_i,
    classify_perfect,
    decomposition_from_state,
    state_from_decomposition,
)
from ordalg.pea import finite_chain
from ordalg.represent import (
    GroupHom,
    PhiMap,
    build_lex_pea,
    difference_group,
    functor_map,
    make_shuffled,
    phi_represent,
    verify_isomorphism,
)
from ordalg.scalars import ScalarSubgroup
from ordalg.states import FirstCoordinateState, states_finite

HQ = ScalarSubgroup.rationals()
H4 = ScalarSubgroup.cyclic(4)

print("=== states and decompositions are two views of one thing ===")
chain = finite_chain(2)
s = states_finite(chain)[0]
D = decomposition_from_state(chain, s, ScalarSubgroup.cyclic(2))
print(f"  chain slices: {[(str(t), set(m)) for t, m in D.slices]}")
print(f"  back to the state: {[str(v) for v in state_from_decomposition(chain, D).values]}")

print()
print("=== the canonical slices of an interval are ordered and type I ===")
E = build_lex_pea(HQ, g.ZZ)
D = decomposition_from_state(E, FirstCoordinateState(E), HQ)
ordered = check_ordered(E, D)
type_i = check_type_i(E, D)
print(f"  ordered: {ordered.ordered}; slice additivity: {ordered.slice_additivity_ok}")
print(f"  unique maximal bottom slice: {type_i.e0_unique_maximal}")

print()
print("=== perfectness classification ===")
for label, E2, H in (
    ("lex(Q, Z^2), unit (1,(0,0))", build_lex_pea(HQ, g.IntVector(2)), HQ),
    ("lex(Q, Z),   unit (1,1)", build_lex_pea(HQ, g.ZZ, F(1)), HQ),
):
    report = classify_perfect(E2, H, seed=5)
    print(
        f"  {label}: perfect={report.is_h_perfect} strong_cyclic={report.strong_cyclic} "
        f"divisible={report.strong_one_divisible} strong={report.is_strong_h_perfect}"
    )
    if report.first_divisibility_failure:
        print(f"    first divisibility failure at n = {report.first_divisibility_failure}")

print()
print("=== the representation map on a re-encoded algebra ===")
shuffled, alpha = make_shuffled(H4, g.ZZ, ("translate", F(1)))
print(f"  shuffled unit: {shuffled.group.format_element(shuffled.unit)}")
phi = phi_represent(shuffled)
x = (F(1, 2), F(9))
print(f"  alpha({x}) = {alpha(x)};  phi(alpha({x})) = {phi(alpha(x))}")
report = verify_isomorphism(phi, shuffled, phi.target, samples=300, seed=5)
print(f"  {report.summary()}")
bad = PhiMap(shuffled, phi.target, corrupt=True)
corrupted = verify_isomorphism(bad, shuffled, phi.target, samples=300, seed=5)
print(f"  corrupted control: hom_failures={corrupted.homomorphism_failures}")

print()
print("=== the bottom slice generates a directed group of differences ===")
E3 = build_lex_pea(HQ, g.IntVector(2))
grid = [(HQ.zero(), (i, j)) for i in range(4) for j in range(4)]
dg, embed = difference_group(E3, grid)
p = dg.add(embed((HQ.zero(), (1, 0))), dg.neg(embed((HQ.zero(), (0, 2)))))
print(f"  [(1,0)] - [(0,2)] is positive: {dg.is_positive(p)} (it is (1, -2))")
print(f"  cancellation: {dg.add(p, dg.neg(p)) == dg.zero}")

print()
print("=== homomorphisms lift to the slices pointwise ===")
h = GroupHom(g.ZZ, g.ZZ, ("scale", 2))
lifted = functor_map(h, HQ)
print(f"  doubling lifts: (1/2, 3) -> {lifted((F(1, 2), F(3)))}")
print(f"  separation at (0, 1): identity gives (0, 1), doubling gives {lifted((F(0), F(1)))}")
