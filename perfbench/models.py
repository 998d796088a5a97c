"""Independent reference arithmetic for the benchmark's answer checks.

Nothing here imports the package under test.  Group elements are handled in
a canonical form: Fractions for rational scalars, ``(a, b)`` Fraction pairs
for a + b*sqrt(2), int tuples for Z^k, ``(a, b)`` Fraction pairs for the
affine group, and 2-tuples for lexicographic and direct products.  The
workloads convert canonical values into the package's own value types only
when they hand inputs to it, and convert its answers back before checking.
"""

from __future__ import annotations

from fractions import Fraction


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class ScalarModel:
    """Z, Q or Z+Z*sqrt(2) as a linearly ordered group."""

    def __init__(self, kind: str):
        if kind not in ("Z", "Q", "Q2"):
            raise ValueError(kind)
        self.kind = kind

    def zero(self):
        return (Fraction(0), Fraction(0)) if self.kind == "Q2" else Fraction(0)

    def add(self, x, y):
        if self.kind == "Q2":
            return (x[0] + y[0], x[1] + y[1])
        return x + y

    def neg(self, x):
        if self.kind == "Q2":
            return (-x[0], -x[1])
        return -x

    def sign(self, x) -> int:
        if self.kind != "Q2":
            return _sign(x)
        a, b = x
        if a >= 0 and b >= 0:
            return int(a != 0 or b != 0)
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        bigger_a = _sign(a * a - 2 * b * b)
        return bigger_a if a > 0 else -bigger_a

    def is_pos(self, x) -> bool:
        return self.sign(x) >= 0

    def sample(self, rng, bound):
        if self.kind == "Z":
            return Fraction(rng.randint(-bound, bound))
        if self.kind == "Q":
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        return (Fraction(rng.randint(-bound, bound)), Fraction(rng.randint(-bound, bound)))

    def sample_pos(self, rng, bound, zero_share=0.0):
        if rng.random() < zero_share:
            return self.zero()
        x = self.sample(rng, bound)
        return x if self.is_pos(x) else self.neg(x)

    def canon(self, x):
        if self.kind == "Q2":
            if hasattr(x, "d"):
                return (Fraction(x.a), Fraction(x.b))
            return (Fraction(x), Fraction(0))
        if hasattr(x, "d"):
            if x.b != 0:
                raise TypeError(f"irrational value {x!r} in {self.kind}")
            return Fraction(x.a)
        return Fraction(x)


class VecModel:
    """Z^k with the componentwise order."""

    def __init__(self, k: int):
        self.k = k

    def zero(self):
        return (0,) * self.k

    def add(self, x, y):
        return tuple(u + v for u, v in zip(x, y))

    def neg(self, x):
        return tuple(-u for u in x)

    def is_pos(self, x) -> bool:
        return all(u >= 0 for u in x)

    def sample(self, rng, bound):
        return tuple(rng.randint(-bound, bound) for _ in range(self.k))

    def sample_pos(self, rng, bound, zero_share=0.0):
        return tuple(rng.randint(0, bound) for _ in range(self.k))

    def canon(self, x):
        if isinstance(x, int):
            x = (x,)
        return tuple(int(u) for u in x)


class AffModel:
    """Pairs (a, b), a > 0, with (a,b)+(c,e) = (a*c, a*e+b); cone a>1 or a=1, b>=0."""

    def zero(self):
        return (Fraction(1), Fraction(0))

    def add(self, x, y):
        (a, b), (c, e) = x, y
        return (a * c, a * e + b)

    def neg(self, x):
        a, b = x
        return (1 / a, -b / a)

    def is_pos(self, x) -> bool:
        a, b = x
        return a > 1 or (a == 1 and b >= 0)

    def sample(self, rng, bound):
        a = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        b = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        return (a, b)

    def sample_pos(self, rng, bound, zero_share=0.0):
        if rng.random() < zero_share:
            return self.zero()
        x = self.sample(rng, bound)
        return x if self.is_pos(x) else self.neg(x)

    def canon(self, x):
        return (Fraction(x[0]), Fraction(x[1]))


class LexModel:
    """Lexicographic product: the head decides unless it is zero."""

    def __init__(self, top, bottom):
        self.top, self.bottom = top, bottom

    def zero(self):
        return (self.top.zero(), self.bottom.zero())

    def add(self, x, y):
        return (self.top.add(x[0], y[0]), self.bottom.add(x[1], y[1]))

    def neg(self, x):
        return (self.top.neg(x[0]), self.bottom.neg(x[1]))

    def is_pos(self, x) -> bool:
        s = self.top.sign(x[0])
        return s > 0 or (s == 0 and self.bottom.is_pos(x[1]))

    def sample(self, rng, bound):
        return (self.top.sample(rng, bound), self.bottom.sample(rng, bound))

    def sample_pos(self, rng, bound, zero_share=0.25):
        head = self.top.sample_pos(rng, bound, zero_share)
        if self.top.sign(head) == 0:
            return (head, self.bottom.sample_pos(rng, bound))
        return (head, self.bottom.sample(rng, bound))

    def canon(self, x):
        return (self.top.canon(x[0]), self.bottom.canon(x[1]))


class ProdModel:
    """Direct product with the componentwise order."""

    def __init__(self, left, right):
        self.left, self.right = left, right

    def zero(self):
        return (self.left.zero(), self.right.zero())

    def add(self, x, y):
        return (self.left.add(x[0], y[0]), self.right.add(x[1], y[1]))

    def neg(self, x):
        return (self.left.neg(x[0]), self.right.neg(x[1]))

    def is_pos(self, x) -> bool:
        return self.left.is_pos(x[0]) and self.right.is_pos(x[1])

    def sample(self, rng, bound):
        return (self.left.sample(rng, bound), self.right.sample(rng, bound))

    def sample_pos(self, rng, bound, zero_share=0.25):
        return (
            self.left.sample_pos(rng, bound, zero_share),
            self.right.sample_pos(rng, bound, zero_share),
        )

    def canon(self, x):
        return (self.left.canon(x[0]), self.right.canon(x[1]))


def leq(model, x, y) -> bool:
    """x <= y, i.e. y - x lies in the positive cone."""
    return model.is_pos(model.add(y, model.neg(x)))


def instance_from_table(model, c11, c12, c21, c22):
    """The refinement instance a1 + a2 = b1 + b2 that the given table solves."""
    add = model.add
    return add(c11, c12), add(c21, c22), add(c11, c21), add(c12, c22)


def table_errors(model, inst, table):
    """Reasons a 2x2 table fails to refine the instance; empty when it is valid."""
    a1, a2, b1, b2 = inst
    c11, c12, c21, c22 = table
    errors = [f"c{n} not positive" for n, c in zip(("11", "12", "21", "22"), table)
              if not model.is_pos(c)]
    for name, got, want in (
        ("row 1", model.add(c11, c12), a1),
        ("row 2", model.add(c21, c22), a2),
        ("column 1", model.add(c11, c21), b1),
        ("column 2", model.add(c12, c22), b2),
    ):
        if got != want:
            errors.append(f"{name} sum")
    return errors


# ---------------------------------------------------------------------------
# finite algebras as plain tables


def chain_table(n):
    """The chain 0 < 1 < ... < n: (i, j) -> i + j when i + j <= n."""
    table = {(i, j): i + j for i in range(n + 1) for j in range(n + 1) if i + j <= n}
    return n + 1, 0, n, table


def boolean_table(k):
    """2^k as subsets of k atoms (bitmasks); disjoint sets add to their union."""
    size = 1 << k
    table = {(i, j): i | j for i in range(size) for j in range(size) if i & j == 0}
    return size, 0, size - 1, table


def hsum_table(k):
    """Horizontal sum of k copies of 2^2: 0, 1, then atoms 2+2i and 3+2i add to 1."""
    size = 2 + 2 * k
    table = {}
    for x in range(size):
        table[(0, x)] = x
        table[(x, 0)] = x
    for i in range(k):
        a, b = 2 + 2 * i, 3 + 2 * i
        table[(a, b)] = 1
        table[(b, a)] = 1
    return size, 0, 1, table


def relabel(structure, perm):
    """Rename element x to perm[x]."""
    size, zero, one, table = structure
    return size, perm[zero], perm[one], {(perm[i], perm[j]): perm[k] for (i, j), k in table.items()}


def format_table(structure) -> str:
    size, zero, one, table = structure
    lines = [f"pea n={size} zero={zero} one={one}"]
    lines += [f"add {i} {j} {k}" for (i, j), k in sorted(table.items())]
    return "\n".join(lines) + "\n"


def axiom_violated(axiom, structure, witness) -> bool:
    """Re-check that the cited axiom really fails at the cited witness."""
    size, zero, one, table = structure
    add = table.get
    if axiom == "PE1" and len(witness) == 3:
        a, b, c = witness
        ab, bc = add((a, b)), add((b, c))
        left = ab is not None and add((ab, c)) is not None
        right = bc is not None and add((a, bc)) is not None
        return left != right or (left and add((ab, c)) != add((a, bc)))
    if axiom == "PE2" and len(witness) == 1:
        (a,) = witness
        rights = [d for d in range(size) if add((a, d)) == one]
        lefts = [e for e in range(size) if add((e, a)) == one]
        return len(rights) != 1 or len(lefts) != 1
    if axiom == "PE3" and len(witness) == 2:
        a, b = witness
        s = add((a, b))
        if s is None:
            return False
        return not any(add((d, a)) == s for d in range(size)) or not any(
            add((b, e)) == s for e in range(size)
        )
    if axiom == "PE4" and len(witness) == 1:
        (a,) = witness
        return (add((a, one)) is not None or add((one, a)) is not None) and a != zero
    return False


def is_additive(structure, values) -> bool:
    """Whether element -> value is a state: s(0)=0, s(1)=1, s(a+b) = s(a)+s(b)."""
    size, zero, one, table = structure
    if values[zero] != 0 or values[one] != 1:
        return False
    return all(values[k] == values[i] + values[j] for (i, j), k in table.items())
