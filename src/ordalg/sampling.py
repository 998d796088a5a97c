"""Seeded random generation of group elements.

Sampled checks draw with an explicit ``random.Random`` instance so every
run is reproducible, and only through its public methods.  The rules for
each descriptor are methods of its class in :mod:`ordalg.groups`; the
scalar rules they build on are methods of the subgroup classes in
:mod:`ordalg.scalars`.  An interval draw is a plan: the descriptor's
``_interval_draw(hi, bound)`` fixes what depends only on hi and bound (the
head table or windows of a lex head, the widths of the tails) and returns
``draw(rng)``, which makes only the bounded integer draws.
``IntervalPea.sample`` builds the plan of each bound on first use, on a
unit checked once, and keeps it; ``sample_interval`` builds one per call.

The three functions only forward to those methods.  The module stays because
``perfbench`` counts the ``sampling`` layer by wrapping them: its tracer
looks the module up in ``sys.modules`` and raises ``KeyError`` without it.
It can go once the tracer counts leaf ops on the descriptor classes
(ROADMAP item 1).
"""

from __future__ import annotations


def sample_element(desc, rng, bound: int = 10):
    """A random element of the group, integer data bounded by ``bound``."""
    return desc.sample_element(rng, bound)


def sample_positive(desc, rng, bound: int = 10):
    """A random element of the positive cone."""
    return desc.sample_positive(rng, bound)


def sample_interval(desc, hi, rng, bound: int = 10):
    """A random element x with 0 <= x <= hi."""
    return desc.sample_interval(hi, rng, bound)
