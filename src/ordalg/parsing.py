"""Text grammars for descriptors, elements, subgroups and algebra files.

Descriptor syntax:  Z | Z/n | Z^k | Q | Q[sqrt d] | Aff | lex(A, B) |
prod(A, B) | gamma(DESC, ELEMENT) for interval algebras.
Scalars print and parse as p/q or p/q + r/s*sqrt(d); composite elements are
nested tuples (x, y).  Finite algebras load from a line-based file:

    pea n=<size> zero=<id> one=<id>
    add <i> <j> <k>
"""

from __future__ import annotations

from fractions import Fraction

from . import groups as g
from .errors import ParseError
from .pea import FinitePea, IntervalPea, check_pea_axioms
from .scalars import QuadraticNumber, ScalarSubgroup


class _Tokens:
    SYMBOLS = "()[]^/,+-*"

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def location(self):
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return line, col

    def error(self, message):
        line, col = self.location()
        raise ParseError(message, line, col)

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in self.SYMBOLS:
            return ch
        if ch.isdigit():
            return "int"
        if ch.isalpha():
            return "name"
        self.error(f"unexpected character {ch!r}")

    def take_symbol(self, sym):
        if self.peek() != sym:
            self.error(f"expected {sym!r}")
        self.pos += 1

    def try_symbol(self, sym):
        if self.peek() == sym:
            self.pos += 1
            return True
        return False

    def take_int(self) -> int:
        if self.peek() != "int":
            self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        if self.peek() != "name":
            self.error("expected a name")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]

    def expect_end(self):
        if self.peek() is not None:
            self.error("trailing input")


# ---------------------------------------------------------------------------
# subgroups and descriptors


def parse_subgroup(text: str) -> ScalarSubgroup:
    toks = _Tokens(text)
    H = _subgroup(toks, toks.take_name())
    toks.expect_end()
    return H


def _subgroup(toks: _Tokens, name: str) -> ScalarSubgroup:
    """Z | Z/n | Q | Q[sqrt d], after its leading name."""
    if name == "Z":
        if toks.try_symbol("/"):
            return ScalarSubgroup.cyclic(toks.take_int())
        return ScalarSubgroup.cyclic(1)
    if name == "Q":
        if toks.try_symbol("["):
            if toks.take_name() != "sqrt":
                toks.error("expected sqrt in Q[sqrt d]")
            d = toks.take_int()
            toks.take_symbol("]")
            return ScalarSubgroup.quadratic(d)
        return ScalarSubgroup.rationals()
    toks.error(f"unknown subgroup {name!r}")


def parse_descriptor(text: str) -> g.GroupDescriptor:
    toks = _Tokens(text)
    desc = _descriptor(toks)
    toks.expect_end()
    return desc


def _descriptor(toks: _Tokens) -> g.GroupDescriptor:
    name = toks.take_name()
    if name == "Z" and toks.try_symbol("^"):
        return g.IntVector(toks.take_int())
    if name in ("Z", "Q"):
        return g.Scalar(_subgroup(toks, name))
    if name == "Aff":
        return g.AffineQ()
    if name in ("lex", "prod"):
        toks.take_symbol("(")
        left = _descriptor(toks)
        toks.take_symbol(",")
        right = _descriptor(toks)
        toks.take_symbol(")")
        if name == "lex":
            if not left.is_linearly_ordered():
                toks.error("lex head must be linearly ordered")
            return g.Lex(left, right)
        return g.Product(left, right)
    toks.error(f"{name!r} is not a descriptor name (Z, Q, Aff, lex, prod)")


def parse_interval_pea(text: str) -> IntervalPea:
    """gamma(DESC, UNIT)."""
    toks = _Tokens(text)
    name = toks.take_name()
    if name != "gamma":
        toks.error("expected gamma(DESC, UNIT)")
    toks.take_symbol("(")
    desc = _descriptor(toks)
    toks.take_symbol(",")
    value = _value(toks)
    toks.take_symbol(")")
    toks.expect_end()
    return IntervalPea(desc, desc.from_parsed(value))


# ---------------------------------------------------------------------------
# elements


def _rational(toks: _Tokens) -> Fraction:
    sign = 1
    if toks.try_symbol("-"):
        sign = -1
    elif toks.try_symbol("+"):
        pass
    num = toks.take_int()
    if toks.try_symbol("/"):
        den = toks.take_int()
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _scalar_term(toks: _Tokens):
    """rational [* sqrt(d)] or sqrt(d); returns (rational, d or None)."""
    if toks.peek() == "name":
        if toks.take_name() != "sqrt":
            toks.error("expected sqrt")
        toks.take_symbol("(")
        d = toks.take_int()
        toks.take_symbol(")")
        return Fraction(1), d
    q = _rational(toks)
    if toks.try_symbol("*"):
        if toks.take_name() != "sqrt":
            toks.error("expected sqrt after *")
        toks.take_symbol("(")
        d = toks.take_int()
        toks.take_symbol(")")
        return q, d
    return q, None


def _value(toks: _Tokens):
    """A value tree: scalar expression or tuple of value trees."""
    if toks.try_symbol("("):
        items = [_value(toks)]
        while toks.try_symbol(","):
            items.append(_value(toks))
        toks.take_symbol(")")
        if len(items) == 1:
            return items[0]
        return tuple(items)
    rat, d = _scalar_term(toks)
    if d is None:
        a, b = rat, None
    else:
        a, b = Fraction(0), (rat, d)
    while toks.peek() in ("+", "-"):
        negate = toks.peek() == "-"
        toks.pos += 1
        rat2, d2 = _scalar_term(toks)
        rat2 = -rat2 if negate else rat2
        if d2 is None:
            a += rat2
        else:
            if b is not None and b[1] != d2:
                toks.error("mixed radicands in one scalar")
            b = (rat2 if b is None else b[0] + rat2, d2)
    if b is None:
        return a
    return QuadraticNumber(a, b[0], b[1])


def parse_value(text: str):
    toks = _Tokens(text)
    value = _value(toks)
    toks.expect_end()
    return value


def parse_element(desc, text: str):
    return desc.from_parsed(parse_value(text))


# ---------------------------------------------------------------------------
# finite algebra files


def parse_pea_file(text: str):
    """Parse the line-based finite-algebra format; returns an AxiomVerdict."""
    size = zero = one = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "pea":
            fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
            try:
                size = int(fields["n"])
                zero = int(fields["zero"])
                one = int(fields["one"])
            except (KeyError, ValueError):
                raise ParseError("pea header needs n=, zero=, one=", lineno, 1)
        elif parts[0] == "add":
            if size is None:
                raise ParseError("add line before pea header", lineno, 1)
            if len(parts) != 4:
                raise ParseError("add lines read: add <i> <j> <k>", lineno, 1)
            try:
                i, j, k = (int(p) for p in parts[1:])
            except ValueError:
                raise ParseError("add arguments must be integers", lineno, 1)
            if not all(0 <= v < size for v in (i, j, k)):
                raise ParseError("add arguments out of range", lineno, 1)
            if (i, j) in table and table[(i, j)] != k:
                raise ParseError(f"conflicting sum for ({i}, {j})", lineno, 1)
            table[(i, j)] = k
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno, 1)
    if size is None:
        raise ParseError("missing pea header")
    return check_pea_axioms(size, zero, one, table)


def format_pea_file(E: FinitePea) -> str:
    lines = [f"pea n={E.size} zero={E.zero} one={E.one}"]
    for (i, j), k in sorted(E.table.items()):
        lines.append(f"add {i} {j} {k}")
    return "\n".join(lines) + "\n"
