"""The exhaustive oracle with every candidate verified in full: the reference
for ``riesz.rdp_oracle_search``.

The walk over c11 and the four tests of the loop are the package's.  A
candidate that passes them goes through ``rdp_table_verify`` here, which
checks membership, positivity and all four sums again before the level's
side condition.  The package checks the side condition alone, because its
walk and loop already prove the rest, so both must return the same
``OracleResult`` on every input.
"""

from ordalg import groups as g
from ordalg.riesz import (
    DecompositionTable,
    OracleResult,
    _norm_level,
    check_instance,
    rdp_table_verify,
)


def verified_oracle_search(desc, a1, a2, b1, b2, level="rdp", box=20, from_zero=False):
    """``rdp_oracle_search``'s walk, with ``rdp_table_verify`` on each candidate.

    ``from_zero`` walks c11 over [0, min(a1, b1)] instead, the window without
    the lower bound b1 - a2, whose extra candidates all leave c22 negative.
    """
    lv = _norm_level(level)
    a1, a2, b1, b2 = check_instance(desc, a1, a2, b1, b2)
    lowers = [desc.zero()] if from_zero else [desc.zero(), g.sub_left(desc, a2, b1)]
    for c11 in desc.iter_bounded(lowers, [a1, b1], box):
        c12 = g.sub_left(desc, c11, a1)
        if not g.positive_cone_member(desc, c12):
            continue
        c21 = g.sub_left(desc, c11, b1)
        if not g.positive_cone_member(desc, c21):
            continue
        c22 = g.sub_left(desc, c21, a2)
        if not g.positive_cone_member(desc, c22):
            continue
        if g.add(desc, c12, c22) != b2:
            continue
        table = DecompositionTable(c11, c12, c21, c22, level=lv)
        if rdp_table_verify(desc, a1, a2, b1, b2, table, level=lv).ok:
            return OracleResult(True, table)
    return OracleResult(False, None)
