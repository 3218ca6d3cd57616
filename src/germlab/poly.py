"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients,
together with the ordered variable list it lives over.  This representation
is canonical: two polynomials over the same variable list are equal iff their
term maps are equal.  All arithmetic is exact; nothing here ever rounds.

Two constructors keep that invariant.  The public ``MultiPoly(vars, terms)``
checks its input: every exponent must have one entry per variable, and every
coefficient is coerced to a Fraction (zeros dropped).  The private
``MultiPoly._trusted`` checks nothing: it takes a term map of Fractions that
is already well formed and holds no zero, and keeps that very dict.

Every other producer calls ``_trusted`` and so must not hand it a zero.
Only a sum can cancel, so the zero filter sits where terms are summed:
``+``, ``-`` and ``*``, plus ``scale(0)`` and ``constant(0)``.  The rest map each
nonzero coefficient to one nonzero coefficient under an injective exponent
map, so no term collides and none vanishes: negation, ``scale(c)`` for
c != 0, a monomial's power, ``derivative`` (a factor exp[i] > 0), the
``variable`` constructor and ``divided_difference`` (below).

The one domain-specific primitive is ``divided_difference``: the exact
quotient (h[y_old -> y_new] - h) / (y_new - y_old), computed term by term
(never by polynomial division); its term-map kernel builds the equations of
the multiple point spaces.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .errors import InvalidInputError, PolySyntaxError, VariableMismatchError

Exponent = tuple[int, ...]

ROLE_BASE = "base"
ROLE_CORANK = "corank"
ROLE_AUX = "aux"
_ROLES = (ROLE_BASE, ROLE_CORANK, ROLE_AUX)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class VarSet:
    """An ordered list of distinct variable names, each tagged with a role.

    Roles are ``base`` (x-type coordinates), ``corank`` (y-type), and ``aux``
    (anything else).  Variable order is fixed at creation; every
    cross-polynomial operation requires identical VarSets.
    """

    __slots__ = ("names", "roles", "_index")

    def __init__(self, names: Sequence[str], roles: Sequence[str] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise VariableMismatchError(f"duplicate variable names in {names}")
        if roles is None:
            roles = (ROLE_AUX,) * len(names)
        roles = tuple(roles)
        if len(roles) != len(names):
            raise VariableMismatchError("roles and names must have equal length")
        for r in roles:
            if r not in _ROLES:
                raise VariableMismatchError(f"unknown variable role {r!r}")
        self.names = names
        self.roles = roles
        self._index = {v: i for i, v in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.names == other.names and self.roles == other.roles

    def __hash__(self) -> int:
        return hash((self.names, self.roles))

    def __repr__(self) -> str:
        return f"VarSet({list(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VariableMismatchError(f"unknown variable {name!r} (have {self.names})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(v for v, r in zip(self.names, self.roles) if r == ROLE_BASE)

    @property
    def corank_names(self) -> tuple[str, ...]:
        return tuple(v for v, r in zip(self.names, self.roles) if r == ROLE_CORANK)


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

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), _ZERO)

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable lists differ: {self.vars.names} vs {other.vars.names}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp not in out:
                out[exp] = c
            elif s := out[exp] + c:
                out[exp] = s
            else:
                del out[exp]
        return MultiPoly._trusted(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp not in out:
                out[exp] = -c
            elif s := out[exp] - c:
                out[exp] = s
            else:
                del out[exp]
        return MultiPoly._trusted(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                out[exp] = out[exp] + c1 * c2 if exp in out else c1 * c2
        # A term that cancels may be summed into again, so filter at the end.
        return MultiPoly._trusted(self.vars, {e: c for e, c in out.items() if c})

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        if not c:
            return MultiPoly.zero(self.vars)
        return MultiPoly._trusted(self.vars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:  # a monomial: scale its exponent, power its coefficient
            ((exp, c),) = self.terms.items()
            return MultiPoly._trusted(self.vars, {tuple(e * n for e in exp): c**n})
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

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``name``."""
        i = self.vars.index(name)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                out[tuple(e)] = c * exp[i]
        return MultiPoly._trusted(self.vars, out)

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
    return MultiPoly._trusted(h.vars, _divided_difference_terms(h.terms, i, j))


def _divided_difference_terms(terms: Mapping[Exponent, Fraction | int], i: int, j: int) -> dict:
    """The divided difference of a term map from variable i to variable j.

    Computed per term: a factor x_i^a maps to sum_{s+t=a-1} x_i^s x_j^t, so
    the quotient is exact by construction and no polynomial division
    happens.  An output exponent gives back its source term (a = s + t + 1,
    the other entries unchanged), so every output term receives exactly one
    coefficient, copied from its source: the kernel works on Fraction and
    integer coefficients alike, and scaling the input scales the output.
    """
    out = {}
    for exp, c in terms.items():
        if exp[j]:
            raise VariableMismatchError(f"variable {j} already occurs in the polynomial")
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
# Outside polynomials, an integer field is [+-]?[0-9]+ (parse_integer) and a
# rational literal is one whitespace-free field [+-]?[0-9]+(/[0-9]+)?
# (parse_rational); germ, character-table, fixed-point and conservation
# files read their numbers with these two.
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


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


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
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag)] + factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
