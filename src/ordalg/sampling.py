"""Seeded random generation of group elements.

All sampled checks in the package draw from these helpers with an explicit
``random.Random`` instance so every run is reproducible.  The rules for each
descriptor are methods of its class in :mod:`ordalg.groups`; the scalar
rules they build on are methods of the subgroup classes in
:mod:`ordalg.scalars`.
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
