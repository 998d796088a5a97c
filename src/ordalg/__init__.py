"""ordalg: exact ordered-group and pseudo effect algebra toolkit."""

from .scalars import (
    Ordering,
    QuadraticNumber,
    ScalarSubgroup,
    classify,
    compare,
    pick_strictly_between,
)
from .groups import (
    AffineQ,
    GroupDescriptor,
    IntVector,
    Lex,
    Product,
    Scalar,
)

__all__ = [
    "Ordering",
    "QuadraticNumber",
    "ScalarSubgroup",
    "classify",
    "compare",
    "pick_strictly_between",
    "AffineQ",
    "GroupDescriptor",
    "IntVector",
    "Lex",
    "Product",
    "Scalar",
]
