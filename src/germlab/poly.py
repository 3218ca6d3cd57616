"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients,
together with the ordered variable list it lives over.  This representation
is canonical: two polynomials over the same variable list are equal iff their
term maps are equal.  All arithmetic is exact; nothing here ever rounds.

The one domain-specific primitive is ``divided_difference``: the exact
quotient (h[y_old -> y_new] - h) / (y_new - y_old), computed term by term
(never by polynomial division), which is the building block of multiple
point space equations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import PolySyntaxError, VariableMismatchError

Exponent = tuple[int, ...]

ROLE_BASE = "base"
ROLE_CORANK = "corank"
ROLE_AUX = "aux"
_ROLES = (ROLE_BASE, ROLE_CORANK, ROLE_AUX)


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

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def constant(vars: VarSet, value) -> "MultiPoly":
        return MultiPoly(vars, {(0,) * len(vars): Fraction(value)})

    @staticmethod
    def variable(vars: VarSet, name: str) -> "MultiPoly":
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return MultiPoly(vars, {tuple(exp): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def linear_part(self) -> list[Fraction]:
        """Coefficient vector of the degree-1 terms, one slot per variable."""
        out = [Fraction(0)] * len(self.vars)
        for exp, c in self.terms.items():
            if sum(exp) == 1:
                out[exp.index(1)] = c
        return out

    def total_degree(self) -> int:
        """Max total degree among terms; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def involves(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

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
            out[exp] = out.get(exp, Fraction(0)) + c
        return MultiPoly(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) - c
        return MultiPoly(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

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

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``name``."""
        i = self.vars.index(name)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                e = tuple(e)
                out[e] = out.get(e, Fraction(0)) + c * exp[i]
        return MultiPoly(self.vars, out)

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

    def extend(self, target: VarSet) -> "MultiPoly":
        """Reinterpret over a larger VarSet containing all current names."""
        mapping = [target.index(v) for v in self.vars.names]
        width = len(target)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = [0] * width
            for src, dst in enumerate(mapping):
                e[dst] = exp[src]
            out[tuple(e)] = c
        return MultiPoly(target, out)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)!r})"


def divided_difference(h: MultiPoly, y_old: str, y_new: str) -> MultiPoly:
    """Exact divided difference (h[y_old -> y_new] - h) / (y_new - y_old).

    ``y_new`` must not occur in h.  Computed per term: a factor y_old^a maps
    to sum_{i+j=a-1} y_old^i y_new^j, so the quotient is exact by
    construction and no polynomial division happens.
    """
    i = h.vars.index(y_old)
    j = h.vars.index(y_new)
    if h.involves(y_new):
        raise VariableMismatchError(f"{y_new!r} already occurs in the polynomial")
    out: dict[Exponent, Fraction] = {}
    for exp, c in h.terms.items():
        a = exp[i]
        if a == 0:
            continue
        base = list(exp)
        base[i] = 0
        for t in range(a):
            e = list(base)
            e[i] = t
            e[j] = a - 1 - t
            e = tuple(e)
            out[e] = out.get(e, Fraction(0)) + c
    return MultiPoly(h.vars, out)


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
# INT is a nonnegative decimal integer; '/' only forms rational literals.
# NAME is a declared variable. Whitespace is free. There is no implicit
# multiplication: write x1*y, not x1y.
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*^()/"


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
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
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
            tok = self.expect("INT")
            poly = poly ** int(tok[1])
        return poly

    def primary(self) -> MultiPoly:
        tok = self.take()
        kind, value, pos = tok
        if kind == "INT":
            num = int(value)
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.expect("INT")
                den = int(den_tok[1])
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
