"""Text grammars for descriptors, elements, subgroups and algebra files.

Descriptor syntax:  Z | Z/n | Z^k | Q | Q[sqrt d] | Aff | lex(A, B) |
prod(A, B) | gamma(DESC, ELEMENT) for interval algebras.
Scalars print and parse as p/q or p/q + r/s*sqrt(d); composite elements are
nested tuples (x, y).  Shuffle and homomorphism specs are NAME or NAME(ARG)
(``parse_spec``).  Finite algebras load from a line-based file:

    pea n=<size> zero=<id> one=<id>
    add <i> <j> <k>
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import groups as g
from .errors import ParseError
from .pea import MAX_FINITE_SIZE, FinitePea, IntervalPea, check_pea_axioms
from .scalars import QuadraticNumber, ScalarSubgroup


class _Tokens:
    SYMBOLS = "()[]^/,+-*"
    DIGITS = "0123456789"

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
        if ch in self.DIGITS:
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
        while self.pos < len(self.text) and self.text[self.pos] in self.DIGITS:
            self.pos += 1
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        if self.peek() != "name":
            self.error("expected a name")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]


def _whole(text: str, rule):
    """What rule reads from the tokens of text, which it must use up."""
    toks = _Tokens(text)
    result = rule(toks)
    if toks.peek() is not None:
        toks.error("trailing input")
    return result


def _items(toks: _Tokens, item):
    """item, then one more after each comma, as a list."""
    items = [item(toks)]
    while toks.try_symbol(","):
        items.append(item(toks))
    return items


# ---------------------------------------------------------------------------
# subgroups and descriptors


def parse_subgroup(text: str) -> ScalarSubgroup:
    return _whole(text, lambda toks: _subgroup(toks, toks.take_name()))


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
    return _whole(text, _descriptor)


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
    desc, value = _whole(text, _gamma)
    return IntervalPea(desc, desc.from_parsed(value))


def _gamma(toks: _Tokens):
    if toks.take_name() != "gamma":
        toks.error("expected gamma(DESC, UNIT)")
    toks.take_symbol("(")
    desc = _descriptor(toks)
    toks.take_symbol(",")
    value = _value(toks)
    toks.take_symbol(")")
    return desc, value


# ---------------------------------------------------------------------------
# elements


def _signed_int(toks: _Tokens) -> int:
    if toks.try_symbol("-"):
        return -toks.take_int()
    toks.try_symbol("+")
    return toks.take_int()


def _rational(toks: _Tokens) -> Fraction:
    num = _signed_int(toks)
    if toks.try_symbol("/"):
        toks._skip_ws()
        start = toks.pos
        den = toks.take_int()
        if den == 0:
            toks.pos = start
            toks.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _sqrt(toks: _Tokens, message: str) -> int:
    """sqrt(d), or message after a name other than sqrt; returns d."""
    if toks.take_name() != "sqrt":
        toks.error(message)
    toks.take_symbol("(")
    d = toks.take_int()
    toks.take_symbol(")")
    return d


def _scalar_term(toks: _Tokens):
    """rational [* sqrt(d)] or sqrt(d); returns (rational, d or None)."""
    if toks.peek() == "name":
        return Fraction(1), _sqrt(toks, "expected sqrt")
    q = _rational(toks)
    if toks.try_symbol("*"):
        return q, _sqrt(toks, "expected sqrt after *")
    return q, None


def _value(toks: _Tokens):
    """A value tree: scalar expression or tuple of value trees."""
    if toks.try_symbol("("):
        items = _items(toks, _value)
        toks.take_symbol(")")
        return items[0] if len(items) == 1 else tuple(items)
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
    return _whole(text, _value)


def parse_element(desc, text: str):
    return desc.from_parsed(parse_value(text))


# ---------------------------------------------------------------------------
# shuffle and homomorphism specs


def _element(toks: _Tokens, G):
    return G.from_parsed(_value(toks))


def _int_list(toks: _Tokens, G):
    return tuple(_items(toks, _signed_int))


def _one_int(toks: _Tokens, G):
    return _signed_int(toks)


# spec kind -> rule name -> what its parentheses hold, read given the tail G;
# None for a name without parentheses
_RULES = {
    "shuffle": {"identity": None, "permute": _int_list,
                "translate": _element, "conjugate": _element},
    "homomorphism": {"identity": None, "scale": _one_int, "permute": _int_list},
}


def parse_spec(kind: str, text: str, G: g.GroupDescriptor) -> tuple:
    """A "shuffle" or "homomorphism" spec on the tail G as the rule tuple of
    ``represent.make_shuffled`` and ``GroupHom``: NAME reads as (NAME,) and
    NAME(ARG) as (NAME, ARG), e.g. ``permute(1,0)`` as ("permute", (1, 0))."""
    return _whole(text, lambda toks: _rule(toks, kind, G))


def _rule(toks: _Tokens, kind: str, G):
    rules = _RULES[kind]
    toks._skip_ws()
    start = toks.pos
    name = toks.take_name()
    if name not in rules:
        toks.pos = start
        toks.error(f"{name!r} is not a {kind} name ({', '.join(rules)})")
    read = rules[name]
    if read is None:
        return (name,)
    toks.take_symbol("(")
    arg = read(toks, G)
    toks.take_symbol(")")
    return (name, arg)


# ---------------------------------------------------------------------------
# finite algebra files


_COMMENT = re.compile(r"#[^\n]*")
# the whitespace that starts a line, blank lines included
_LINE_START_SPACE = re.compile(r"^\s+", re.MULTILINE)
# the canonical numerals of the elements up to the size cap
_NUMERALS = tuple(str(v) for v in range(MAX_FINITE_SIZE))


class _Index(dict):
    """Element numerals -> their values in [0, size).  A canonical numeral is
    one lookup; any other token reads as int() reads it ("03", "+3", "1_0",
    non-ASCII digits), and one that names no element raises ValueError."""

    def __init__(self, size):
        super().__init__(zip(_NUMERALS, range(size)))
        self.size = size

    def __missing__(self, token):
        value = int(token)
        if not 0 <= value < self.size:
            raise ValueError(f"element {value} out of range")
        return value


def parse_pea_file(text: str):
    """Parse the line-based finite-algebra format; returns an AxiomVerdict.

    A line ends at "\\n" alone; any other whitespace, "\\r" included,
    separates tokens within a line, so CRLF files read alike.  "#" starts a
    comment, and blank lines are skipped.  (The CLI reads a table file as
    UTF-8 and skips a leading byte-order mark.)  A well-formed file is read
    in bulk; a rejected one is rescanned line by line to raise the
    ParseError that names its first bad line.
    """
    read = _read_bulk(text)
    if read is None:
        _read_lines(text)  # raises the ParseError of the first bad line
        raise AssertionError("the bulk read rejected a file that the line loop reads")
    return check_pea_axioms(*read)


def _read_bulk(text: str):
    """(size, zero, one, table) of a well-formed file, or None; the table
    lists its pairs in the order of their lines."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    tokens = text.split()
    records, rest = divmod(len(tokens), 4)
    if rest or not records or tokens[0] != "pea" or tokens[4::4].count("add") != records - 1:
        return None
    if not _one_record_a_line(text, records):
        text = _LINE_START_SPACE.sub("", text)
        if not _one_record_a_line(text, records):
            return None
    try:
        size, zero, one = _header(tokens[1:4])
        index = _Index(size).__getitem__
        I, J, K = (list(map(index, tokens[c::4])) for c in (5, 6, 7))
    except ValueError:
        return None
    del tokens  # freed before the table is built: together they would set the peak
    table = dict(zip(zip(I, J), K))
    if len(table) < len(K) and len(set(zip(I, J, K))) > len(table):
        return None  # a pair given two different sums
    return size, zero, one, table


def _one_record_a_line(text, records):
    # the text has one line per record (a final empty line aside) and every
    # line but the first starts with "add": the lines then start exactly at
    # the records' directives, which the caller has checked stand every
    # fourth token, so each line holds one record
    return text.count("\nadd") == text.count("\n") - text.endswith("\n") == records - 1


def _header(fields):
    """(n, zero, one) of the fields of a pea header; ValueError says what is wrong."""
    values = {}
    for field in fields:
        key, eq, value = field.partition("=")
        if not eq or key not in ("n", "zero", "one"):
            raise ValueError(f"pea header field {field!r} is not n=, zero= or one=")
        if key in values:
            raise ValueError(f"repeated pea header field {key!r}")
        values[key] = value
    try:
        return int(values["n"]), int(values["zero"]), int(values["one"])
    except (KeyError, ValueError):
        raise ValueError("pea header needs n=, zero=, one=") from None


def _read_lines(text: str):
    """(size, zero, one, table) of a file read one line at a time; raises the
    ParseError of its first bad line.  The reference for ``_read_bulk``."""
    size = None
    table = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        directive = parts[0]
        if directive == "add":
            if size is None:
                raise ParseError("add line before pea header", lineno, 1)
            if len(parts) != 4:
                raise ParseError("add lines read: add <i> <j> <k>", lineno, 1)
            try:
                i = int(parts[1])
                j = int(parts[2])
                k = int(parts[3])
            except ValueError:
                raise ParseError("add arguments must be integers", lineno, 1)
            if not (0 <= i < size and 0 <= j < size and 0 <= k < size):
                raise ParseError("add arguments out of range", lineno, 1)
            if table.setdefault((i, j), k) != k:
                raise ParseError(f"conflicting sum for ({i}, {j})", lineno, 1)
        elif directive == "pea":
            if size is not None:
                raise ParseError("second pea header", lineno, 1)
            try:
                size, zero, one = _header(parts[1:])
            except ValueError as exc:
                raise ParseError(str(exc), lineno, 1) from None
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno, 1)
    if size is None:
        raise ParseError("missing pea header")
    return size, zero, one, table


def format_pea_file(E: FinitePea) -> str:
    lines = [f"pea n={E.size} zero={E.zero} one={E.one}"]
    for (i, j), k in sorted(E.table.items()):
        lines.append(f"add {i} {j} {k}")
    return "\n".join(lines) + "\n"
