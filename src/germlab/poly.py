"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients,
together with the ordered variable list it lives over, a VarSet: names and
nothing else, so that a variable's position is all that says what it stands
for.  This representation is canonical: two polynomials over the same
variable list are equal iff their term maps are equal.  All arithmetic is
exact; nothing here ever rounds.

Two constructors keep that invariant.  The public ``MultiPoly(vars, terms)``
checks its input: every exponent must have one entry per variable, and every
coefficient is coerced to a Fraction (zeros dropped).  The private
``MultiPoly._trusted`` checks nothing: it takes a term map of Fractions that
is already well formed and holds no zero, and keeps that very dict.

Every other producer calls ``_trusted`` and so must not hand it a zero.
Only a sum can cancel, so the zero filter sits where terms are summed: in
the multiply-add behind ``+``, ``-`` and ``*``, and in ``scale(0)`` and
``constant(0)``.  The rest map each nonzero coefficient to one nonzero
coefficient under an injective exponent map, so no term collides and none
vanishes: negation, ``scale(c)`` for c != 0, the ``variable`` constructor
and ``divided_difference`` (below).

The engine's term-map kernel lives here, for Fraction and int coefficients
alike: the multiply-add ``_subtract_multiple``, ``clear_denominators`` and
the divided difference, the exact quotient (h[y_old -> y_new] - h) /
(y_new - y_old), computed term by term, never by polynomial division.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import Collection, Iterator, Mapping, Sequence

from .errors import InvalidInputError, PolySyntaxError, VariableMismatchError

Exponent = tuple[int, ...]

_ONE = Fraction(1)


class VarSet:
    """An ordered list of distinct variable names.

    Variable order is fixed at creation; every cross-polynomial operation
    requires identical VarSets.  What a variable stands for is its position:
    a germ lists its base variables x_1..x_{n-1} and then its corank
    variable, and a multiple point space appends y_1..y_k after the base.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise VariableMismatchError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {v: i for i, v in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet({list(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VariableMismatchError(f"unknown variable {name!r} (have {self.names})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[Exponent, Fraction | int]):
        clean: dict[Exponent, Fraction] = {}
        width = len(vars)
        for exp, coeff in terms.items():
            if len(exp) != width:
                raise VariableMismatchError(
                    f"exponent {exp} has length {len(exp)}, expected {width}"
                )
            c = Fraction(coeff)
            if c:
                clean[tuple(exp)] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, vars: VarSet, terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap ``terms`` without a check: the caller guarantees that it maps
        exponent tuples of the right width to nonzero Fractions and hands
        the dict over (nothing else keeps a reference to mutate it)."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "MultiPoly":
        return MultiPoly._trusted(vars, {})

    @staticmethod
    def constant(vars: VarSet, value) -> "MultiPoly":
        c = Fraction(value)
        return MultiPoly._trusted(vars, {(0,) * len(vars): c} if c else {})

    @staticmethod
    def variable(vars: VarSet, name: str) -> "MultiPoly":
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return MultiPoly._trusted(vars, {tuple(exp): _ONE})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable lists differ: {self.vars.names} vs {other.vars.names}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = _subtract_multiple(dict(self.terms), -1, other.terms, (0,) * len(self.vars))
        return MultiPoly._trusted(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = _subtract_multiple(dict(self.terms), 1, other.terms, (0,) * len(self.vars))
        return MultiPoly._trusted(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            _subtract_multiple(out, -c, other.terms, e)
        return MultiPoly._trusted(self.vars, out)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        if not c:
            return MultiPoly.zero(self.vars)
        return MultiPoly._trusted(self.vars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- substitution --------------------------------------------------------

    def substitute(
        self,
        bindings: Mapping[str, "MultiPoly"],
        target: VarSet | None = None,
    ) -> "MultiPoly":
        """Substitute polynomials for variables, landing in ``target``.

        Unbound variables must exist by name in the target VarSet.  All bound
        values must already live over the target.
        """
        target = target if target is not None else self.vars
        for name, val in bindings.items():
            self.vars.index(name)
            if val.vars != target:
                raise VariableMismatchError(
                    f"binding for {name!r} lives over {val.vars.names}, expected {target.names}"
                )
        images: list[MultiPoly] = []
        for name in self.vars.names:
            if name in bindings:
                images.append(bindings[name])
            else:
                images.append(MultiPoly.variable(target, name))
        result = MultiPoly.zero(target)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(target, c)
            for img, e in zip(images, exp):
                if e:
                    term = term * img**e
            result = result + term
        return result

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)!r})"


def divided_difference(h: MultiPoly, y_old: str, y_new: str) -> MultiPoly:
    """Exact (h[y_old -> y_new] - h) / (y_new - y_old); ``y_new`` must not occur in h."""
    i, j = h.vars.index(y_old), h.vars.index(y_new)
    if any(e[j] for e in h.terms):
        raise VariableMismatchError(f"variable {y_new} already occurs in the polynomial")
    return MultiPoly._trusted(h.vars, _divided_difference_terms(h.terms, i, j))


def _subtract_multiple(h: dict, a, g: Mapping[Exponent, Fraction | int], m: Exponent) -> dict:
    """h := h - a * x^m * g in place, for term maps of any coefficient type: a
    term that cancels is deleted, so h holds no zero if it held none."""
    for e, c in g.items():
        e = tuple(map(add, e, m))
        c = h.get(e, 0) - a * c
        if c:
            h[e] = c
        else:
            del h[e]
    return h


def clear_denominators(values: Collection[Fraction | int]) -> tuple[int, tuple[int, ...]]:
    """(D, (D * v for v in values)), D the lcm of the denominators: integers
    whose exact sums need one division at the end, not a Fraction per term."""
    den = lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def _divided_difference_terms(terms: Mapping[Exponent, Fraction | int], i: int, j: int) -> dict:
    """The divided difference of a term map from variable i to a variable j it lacks.

    Computed per term: a factor x_i^a maps to sum_{s+t=a-1} x_i^s x_j^t, so
    the quotient is exact by construction and no polynomial division
    happens.  An output exponent gives back its source term (a = s + t + 1,
    the other entries unchanged), so every output term receives exactly one
    coefficient, copied from its source: the kernel works on Fraction and
    integer coefficients alike, and scaling the input scales the output.
    """
    out = {}
    for exp, c in terms.items():
        if a := exp[i]:
            base = list(exp)
            for t in range(a):
                base[i] = t
                base[j] = a - 1 - t
                out[tuple(base)] = c
    return out


# ---------------------------------------------------------------------------
# Textual form.
#
# Grammar accepted by parse_poly (documented in the README):
#
#   expr    := ['+'|'-'] term (('+'|'-') term)*
#   term    := factor ('*' factor)*
#   factor  := primary ['^' INT]
#   primary := INT ['/' INT] | NAME | '(' expr ')'
#
# INT is a nonnegative decimal integer of ASCII digits, [0-9]+; '/' only
# forms rational literals. NAME is a declared variable. Whitespace is free.
# There is no implicit multiplication: write x1*y, not x1y.
#
# Outside polynomials, every input file has one line grammar (``records``):
# '#' starts a comment, blank lines are skipped, and a record is a directive
# and its whitespace-separated fields.  A declared variable is one NAME
# (parse_name), an integer field [+-]?[0-9]+ (parse_integer; a list of them
# parse_integer_fields), a rational field [+-]?[0-9]+(/[0-9]+)?
# (parse_rational).
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*^()/"


def _digits(text: str) -> bool:
    """Whether text is INT: one or more ASCII decimal digits, [0-9]+."""
    return text.isascii() and text.isdigit()


def _signed_digits(text: str) -> bool:
    """Whether text is an integer literal ``[+-]?[0-9]+``."""
    return _digits(text[1:] if text[:1] in ("+", "-") else text)


def parse_integer(text: str, what: str) -> int:
    """Read an integer literal ``[+-]?[0-9]+``; ``what`` names it in the error.

    ASCII digits only: no underscores, whitespace or other Unicode digits.
    """
    if not _signed_digits(text):
        raise InvalidInputError(f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise InvalidInputError(f"bad {what} {text!r}: too many digits") from None


def parse_rational(text: str) -> Fraction:
    """Read a rational literal ``[+-]?[0-9]+(/[0-9]+)?``.

    ASCII digits only: no decimals, exponents, underscores or other Unicode
    digits, so the work is linear in the length of the text.
    """
    num, slash, den = text.partition("/")
    if not _signed_digits(num) or (slash and not _digits(den)):
        raise InvalidInputError(f"bad rational literal {text!r}")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except ZeroDivisionError:
        raise InvalidInputError(f"bad rational literal {text!r}: zero denominator") from None
    except ValueError:  # more digits than int() converts
        raise InvalidInputError(f"bad rational literal {text!r}: too many digits") from None


# Integer literals joined by single spaces: one match checks a whole list.
_INTEGER_FIELDS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def parse_integer_fields(fields: Sequence[str], what: str) -> tuple[int, ...]:
    """Read whitespace-free integer literals ``[+-]?[0-9]+``; ``what`` names
    a bad one in the error, as in parse_integer.

    One grammar check covers the whole list; any other list is read field by
    field with parse_integer, so a bad field fails with its message.
    """
    if _INTEGER_FIELDS.fullmatch(" ".join(fields)):
        try:
            return tuple(map(int, fields))
        except ValueError:  # more digits than int() converts
            pass
    return tuple(parse_integer(f, what) for f in fields)


def content_lines(text: str) -> Iterator[str]:
    """The lines of text without ``#`` comments and surrounding whitespace,
    blank ones skipped."""
    for raw in text.splitlines():
        if line := raw.partition("#")[0].strip():
            yield line


def records(
    text: str, where: str, fields: Mapping[str, int | None], once: Collection[str] = (),
    required: Collection[str] = (),
) -> Iterator[tuple[str, list[str], str]]:
    """Yield (directive, fields, line) per record of a ``where`` file.

    ``fields`` gives each directive's exact field count (None: any count),
    ``once`` the directives that may not repeat and ``required`` those that
    must appear, checked once the records run out.  An unknown directive, a
    wrong count, a repeat and a missing directive are input errors that name
    the directive.
    """
    seen: set[str] = set()
    for line in content_lines(text):
        directive, *values = line.split()
        if directive not in fields:
            raise InvalidInputError(f"unknown {where} directive {directive!r}")
        count = fields[directive]
        if count is not None and count != len(values):
            raise InvalidInputError(f"bad {directive} line {line!r}: expected {count} field(s)")
        if directive in once and directive in seen:
            raise InvalidInputError(f"repeated {where} directive {directive!r}")
        seen.add(directive)
        yield directive, values, line
    check_directives(seen, where, required, allowed=fields)


def check_directives(present: Collection[str], where: str, required: Collection[str],
                     allowed: Collection[str]):
    """Refuse a ``where`` file that lacks a ``required`` directive or holds one
    neither required nor ``allowed``: an input error that names it."""
    for directive in required:
        if directive not in present:
            raise InvalidInputError(f"missing {where} directive {directive!r}")
    for directive in present:
        if directive not in required and directive not in allowed:
            raise InvalidInputError(f"unexpected {where} directive {directive!r}")


def json_text(payload) -> str:
    """The JSON rendering of every report: two-space indent, final newline."""
    return json.dumps(payload, indent=2) + "\n"


def csv_text(rows) -> str:
    """The CSV rendering of every table, by csv.writer: a field that holds a
    comma, such as a partition label, is quoted."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def parse_name(text: str, what: str) -> str:
    """Check that text is one NAME token, a name a polynomial can mention."""
    try:
        tokens = _tokenize(text)
    except PolySyntaxError:
        tokens = []
    if [tok[:2] for tok in tokens] != [("NAME", text), ("END", "")]:
        raise InvalidInputError(f"bad {what} {text!r}")
    return text


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if _digits(ch):
            start = i
            while i < n and _digits(text[i]):
                i += 1
            tokens.append(("INT", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("NAME", text[start:i], start))
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, vars: VarSet):
        self.text = text
        self.vars = vars
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    @staticmethod
    def integer(tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            raise PolySyntaxError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None

    def parse(self) -> MultiPoly:
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise PolySyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def expr(self) -> MultiPoly:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        poly = self.term().scale(sign)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while self.peek()[0] == "*":
            self.take()
            poly = poly * self.factor()
        return poly

    def factor(self) -> MultiPoly:
        poly = self.primary()
        if self.peek()[0] == "^":
            self.take()
            poly = poly ** self.integer(self.expect("INT"))
        return poly

    def primary(self) -> MultiPoly:
        tok = self.take()
        kind, value, pos = tok
        if kind == "INT":
            num = self.integer(tok)
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.expect("INT")
                den = self.integer(den_tok)
                if den == 0:
                    raise PolySyntaxError("zero denominator", den_tok[2])
                return MultiPoly.constant(self.vars, Fraction(num, den))
            return MultiPoly.constant(self.vars, num)
        if kind == "NAME":
            if value not in self.vars:
                raise PolySyntaxError(f"unknown variable {value!r}", pos)
            return MultiPoly.variable(self.vars, value)
        if kind == "(":
            poly = self.expr()
            self.expect(")")
            return poly
        raise PolySyntaxError(f"expected a value, found {value or 'end of input'!r}", pos)


def parse_poly(text: str, vars: VarSet) -> MultiPoly:
    """Parse text in the documented grammar into a canonical MultiPoly."""
    return _Parser(text, vars).parse()


def format_poly(p: MultiPoly) -> str:
    """Deterministic rendering: descending total degree, then exponent order.

    Output re-parses to the same polynomial (round-trip canonical form).
    """
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    chunks: list[str] = []
    for exp, c in items:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(p.vars.names, exp)
            if e
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
