"""Standard bases in the local ring at the origin.

Everything here works with the negative-degree reverse-lexicographic order:
lower total degree is larger, ties broken reverse-lexicographically, so the
constant monomial 1 is the maximum.  Under this order the leading ideal of a
standard basis determines membership, Krull dimension and the quotient
vector-space dimension of the *local* ring O/I, which is what the Milnor
number machinery needs (globally (x - x^2) has colength 2; locally it is the
maximal ideal and the colength is 1).

The normal form is Mora's tangent-cone reduction with the ecart-minimizing
selection rule; the basis completion is Buchberger's loop over Mora normal
forms, with the critical pairs in a heap keyed by the local order of their
lcm.  The Krull dimension of the leading ideal is the number of variables
minus a minimum hitting set of the leading-monomial supports, found by
branch and bound.  The colength walks the staircase (the monomials outside
the leading ideal) depth first from 1, raising only variables at or after
the last one raised, so it visits each standard monomial once and never the
rest of its bounding box.  A hard step budget, charged by reductions, pairs,
search nodes and standard monomials alike, separates "gave up" from every
mathematical verdict.

The normal form is fraction-free: the remainder and its reducers are
primitive integer term maps, reduced by pseudo-division.  A LocalIdeal holds
its generators as such maps too, built once, or handed over with one
denominator each by ``multipoint`` and the Le-Greuel chain, whose MultiPolys
are then built only when asked for.  Inside the basis completion every
element is held as a reducer (leading monomial, ecart, integer term map),
computed once when it joins, and S-polynomials are formed on those maps.
The ideal keeps its minimal reducers: the leading ideal, and every fact
derived from it, is read straight from them, and the basis becomes
MultiPolys only when a caller asks for it.  A reduction step is charged
1 + terms * bits // 256 units, where terms is the size of the remainder and
bits the bit length of its largest integer coefficient.

The sections of the Le-Greuel chain are built here too, on the same maps:
``le_greuel_sections`` extends the maximal minors of the Jacobian matrix by
one row per generator, one multiply-add of integer maps per (column subset,
column), and charges each term product to the pass's budget.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, repeat
from math import gcd, lcm as _int_lcm
from operator import add, itemgetter, le, sub
from typing import Collection, Iterable, Iterator, Sequence

from .errors import InvalidInputError, ResourceLimitError, VariableMismatchError
from .poly import Exponent, MultiPoly, VarSet, format_poly, parse_poly

DEFAULT_STEP_BUDGET = 1_000_000

INFINITE = float("inf")


def order_key(exp: Exponent):
    """Sort key realizing the local order: larger key = more leading.

    Key is (-total degree, reversed negated exponents); tuple comparison then
    gives: lower degree wins, ties fall to reverse-lex.  The constant
    monomial 1 has the maximal key.
    """
    return (-sum(exp), tuple(-e for e in reversed(exp)))


def monomial_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def monomial_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def monomial_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def monomial_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


class _Budget:
    """Mutable work counter shared across one logical computation.

    A unit is one elementary reduction on small data; steps on polynomials
    with huge coefficients are charged proportionally more, so the budget
    bounds actual work, not just iteration count.
    """

    __slots__ = ("limit", "steps")

    def __init__(self, limit: int):
        self.limit = limit
        self.steps = 0

    def tick(self, what: str, cost: int = 1):
        self.steps += cost
        if self.steps > self.limit:
            raise ResourceLimitError(f"step budget exceeded during {what}", self.limit)


_reversed = itemgetter(slice(None, None, -1))


def _lead(terms: Collection[Exponent]) -> tuple[Exponent, int]:
    """Leading monomial and ecart of a term map's exponents.

    The leading monomial is the reverse-lexicographic minimum among the
    exponents of least total degree (the same monomial as
    max(terms, key=order_key)); the ecart is the top degree minus that one.
    """
    degs = list(map(sum, terms))
    low = min(degs)
    lm = min(compress(terms, map(low.__eq__, degs)), key=_reversed)
    return lm, max(degs) - low


# Inside the normal form a polynomial is an integer term map: exponent tuple
# to nonzero int, a nonzero rational multiple of the MultiPoly it stands for.


def _integer_terms(p: MultiPoly) -> dict[Exponent, int]:
    """p scaled to coprime integer coefficients."""
    den = _int_lcm(*(c.denominator for c in p.terms.values()))
    return _primitive({e: c.numerator * (den // c.denominator) for e, c in p.terms.items()})


def _coeff_bits(h: dict[Exponent, int]) -> int:
    """Bit size of the largest coefficient."""
    return max(map(int.bit_length, h.values()))


def _primitive(h: dict[Exponent, int]) -> dict[Exponent, int]:
    """Divide out the content (the gcd of the coefficients).

    Pseudo-division multiplies the remainder by a cofactor at every step, so
    coefficient sizes grow with the chain unless the content is divided out;
    gcd cost on huge integers, not step count, is what blows up otherwise.
    Scaling by a unit changes no leading monomial and no verdict.
    """
    g = gcd(*h.values())
    return h if g == 1 else {e: c // g for e, c in h.items()}


def _subtract_multiple(
    h: dict[Exponent, int], a: int, g: dict[Exponent, int], m: Exponent
) -> dict[Exponent, int]:
    """h := h - a * x^m * g, in place."""
    for e, c in g.items():
        e = tuple(map(add, e, m))
        c = h.get(e, 0) - a * c
        if c:
            h[e] = c
        else:
            del h[e]
    return h


def _derivative(h: dict[Exponent, int], i: int) -> dict[Exponent, int]:
    """The partial derivative of an integer term map in variable i."""
    out = {}
    for e, c in h.items():
        if a := e[i]:
            out[e[:i] + (a - 1,) + e[i + 1 :]] = a * c
    return out


def _extend_minors(
    minors: dict[tuple[int, ...], dict[Exponent, int]],
    row: Sequence[dict[Exponent, int]],
    budget: _Budget,
) -> dict[tuple[int, ...], dict[Exponent, int]]:
    """The maximal minors of a matrix with one more row, from those before it.

    ``minors`` maps each s-subset of columns, in lexicographic order, to the
    minor of the s rows so far on those columns (the constant map 1 on ()
    before the first row).  The result maps each (s + 1)-subset to the minor
    with ``row`` appended, by Laplace expansion along that last row.  The
    work is one multiply-add of integer maps per (subset, column), and each
    product of an entry with a minor is charged its term count product.
    """
    s = len(next(iter(minors)))
    out = {}
    for cols in combinations(range(len(row)), s + 1):
        acc: dict[Exponent, int] = {}
        for idx, col in enumerate(cols):
            entry = row[col]
            sub = minors[cols[:idx] + cols[idx + 1 :]]
            if not entry or not sub:
                continue
            budget.tick("maximal minors", len(entry) * len(sub))
            # acc += (-1)^(s + idx) * entry * sub, as a subtraction.
            sign = 1 if (s + idx) % 2 else -1
            for e, c in entry.items():
                _subtract_multiple(acc, sign * c, sub, e)
        out[cols] = acc
    return out


def _entry(h: dict[Exponent, int]) -> tuple[Exponent, int, dict[Exponent, int]]:
    """A reducer: the leading monomial, ecart and primitive integer term map h."""
    return (*_lead(h), h)


def _reduce(
    h: dict[Exponent, int], reducers: Sequence[tuple], budget: _Budget
) -> dict[Exponent, int]:
    """Mora's loop on the integer term map h against a copy of the reducers.

    When the best (ecart-minimal) divisor has strictly larger ecart than the
    current remainder, the remainder itself joins the reducer set; that
    recruitment is what makes the loop terminate in a local order, and
    recruited reducers are only ever applied with multipliers in the maximal
    ideal, so the result differs from h by a unit times an ideal member.

    A step cancels the leading term of h against g by pseudo-division,
    h := (lc g / d) * h - (lc h / d) * m * g with d = gcd(lc h, lc g).  This
    is the division over Q times a nonzero integer, and scaling by a unit
    changes no leading monomial, no ecart and no choice of reducer, so the
    steps are those of the division over Q.
    """
    reducers = list(reducers)
    while h:
        bits = _coeff_bits(h)
        if bits > 128:
            # Content removal only once coefficients actually grow; on tame
            # inputs the gcd would just be overhead.
            h = _primitive(h)
            bits = _coeff_bits(h)
        lm_h, ecart_h = _lead(h)
        chosen = None
        for reducer in reducers:  # the first of least ecart
            if monomial_divides(reducer[0], lm_h) and (chosen is None or reducer[1] < chosen[1]):
                chosen = reducer
        if chosen is None:
            break
        lm_g, ecart_g, g = chosen
        if ecart_g > ecart_h:
            reducers.append((lm_h, ecart_h, h))
        budget.tick("normal form", 1 + (len(h) * bits) // 256)
        d = gcd(h[lm_h], g[lm_g])
        a, b = h[lm_h] // d, g[lm_g] // d
        # A new map either way: h may have just become a reducer.
        h = dict(h) if b == 1 else {e: b * c for e, c in h.items()}
        _subtract_multiple(h, a, g, monomial_sub(lm_h, lm_g))
    return h


def mora_normal_form(p: MultiPoly, reducers: Sequence[tuple], budget: _Budget) -> MultiPoly:
    """Weak normal form of p against reducers (Mora's algorithm).

    The reducers are (leading monomial, ecart, primitive integer term map)
    triples, as ``standard_basis`` returns them.  Returns 0 iff p is in the
    local ideal when they are a *standard* basis.  Fraction-free: p becomes
    a primitive integer term map, so the remainder returned is the one over
    Q times a nonzero rational, with integer coefficients.
    """
    if p.is_zero():
        return p
    return MultiPoly(p.vars, _reduce(_integer_terms(p), reducers, budget))


def _spoly(first: tuple, second: tuple, lcm: Exponent) -> dict[Exponent, int]:
    """The S-polynomial of two reducers f, g, fraction-free:
    (lc g / d) * (lcm / lm f) * f - (lc f / d) * (lcm / lm g) * g with
    d = gcd(lc f, lc g)."""
    (lm_f, _, f), (lm_g, _, g) = first, second
    d = gcd(f[lm_f], g[lm_g])
    a, b = g[lm_g] // d, f[lm_f] // d
    mf = monomial_sub(lcm, lm_f)
    h = {tuple(map(add, e, mf)): a * c for e, c in f.items()}
    return _subtract_multiple(h, b, g, monomial_sub(lcm, lm_g))


def standard_basis(
    generators: Sequence[dict[Exponent, int]], budget_limit: int = DEFAULT_STEP_BUDGET
) -> list[tuple[Exponent, int, dict[Exponent, int]]]:
    """The minimal standard basis of the local ideal, as reducers.

    The generators are primitive integer term maps.  Deterministic:
    generators enter in input order and the pair queue is processed by
    descending lcm in the local order (lowest degree first), with index
    pairs breaking ties.  Heap entries are (deg lcm, reversed lcm, i, j,
    lcm), whose ascending order is exactly that processing order.

    The basis is held as reducers (leading monomial, ecart, primitive
    integer term map), each computed once when its element joins.  The
    minimal ones are returned most leading first, each map scaled to a
    positive leading coefficient, so that it is the integer term map of the
    monic basis element (``monic_basis``).
    """
    budget = _Budget(budget_limit)
    basis: list[tuple] = []
    pairs: list[tuple[int, Exponent, int, int, Exponent]] = []

    def add(h: dict[Exponent, int]):
        entry = _entry(_primitive(h))
        lm_h = entry[0]
        k = len(basis)
        for t, (lm_t, _, _) in enumerate(basis):
            lcm = monomial_lcm(lm_t, lm_h)
            if lcm != monomial_mul(lm_t, lm_h):  # product criterion: skip coprime pairs
                heapq.heappush(pairs, (sum(lcm), lcm[::-1], t, k, lcm))
        basis.append(entry)

    for g in generators:
        # Interreduce on intake: redundant generators vanish before they can
        # spawn quadratically many pairs.
        h = _reduce(g, basis, budget)
        if h:
            add(h)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        budget.tick("standard basis")
        h = _spoly(basis[i], basis[j], lcm)
        if h:
            h = _reduce(_primitive(h), basis, budget)
            if h:
                add(h)
    return [
        (lm, ecart, h if h[lm] > 0 else {e: -c for e, c in h.items()})
        for lm, ecart, h in _minimalize(basis)
    ]


def monic_basis(reducers: Iterable[tuple], vars: VarSet) -> list[MultiPoly]:
    """The monic MultiPolys of a standard basis held as reducers."""
    return [
        MultiPoly._trusted(vars, {e: Fraction(c, h[lm]) for e, c in h.items()})
        for lm, _, h in reducers
    ]


def _minimalize(basis: list[tuple]) -> list[tuple]:
    """Drop reducers whose leading monomial is divisible by another's."""
    keep: list[tuple] = []
    for entry in sorted(basis, key=lambda entry: order_key(entry[0]), reverse=True):
        if not any(monomial_divides(kept[0], entry[0]) for kept in keep):
            keep.append(entry)
    return keep


def _monomial_ideal_dimension(lms: Sequence[Exponent], nvars: int, budget: _Budget) -> int:
    """Krull dimension of k[x]/(lms): nvars minus the size of a minimum set
    of variables meeting every generator's support (the complement of a
    largest subset containing no support).

    Branch and bound over the minimal supports: branch on the variables of
    the smallest support not yet hit, prune at the best size found so far.
    Every search node is charged to the budget.
    """
    supports = {frozenset(i for i, e in enumerate(lm) if e) for lm in lms}
    if frozenset() in supports:  # a constant generator: unit ideal
        return -1
    minimal = sorted(
        (tuple(sorted(s)) for s in supports if not any(t < s for t in supports)),
        key=lambda s: (len(s), s),
    )
    best = len(minimal)  # one variable from each support always hits them all

    def search(size: int, unhit: list[tuple[int, ...]]):
        nonlocal best
        budget.tick("Krull dimension")
        if not unhit:
            best = size
        elif size + 1 < best:
            for v in unhit[0]:
                search(size + 1, [s for s in unhit if v not in s])

    search(0, minimal)
    return nvars - best


class LocalIdeal:
    """An ideal in the local ring at the origin, with cached derived facts.

    Zero generators are dropped at construction.  The generators' primitive
    integer term maps, the minimal reducers of the standard basis and the
    facts computed from its leading ideal (unit containment, Krull
    dimension, quotient dimension) are cached on first use; instances are
    immutable afterwards, so sharing across threads or workers is safe.
    """

    def __init__(
        self,
        generators: Iterable[MultiPoly],
        ambient: VarSet,
        budget: int = DEFAULT_STEP_BUDGET,
    ):
        gens = []
        for g in generators:
            if g.vars != ambient:
                raise VariableMismatchError("generator does not live over the ambient VarSet")
            if not g.is_zero():
                gens.append(g)
        self.generators: tuple[MultiPoly, ...] = tuple(gens)
        self.ambient = ambient
        self.budget = budget

    @classmethod
    def _from_terms(cls, maps: Sequence[dict[Exponent, int]], ambient: VarSet, budget: int,
                    dens: Sequence[int] | None = None) -> "LocalIdeal":
        """The ideal of the polynomials h / d over ``ambient``, for integer
        term maps h and positive integers d (all 1 when ``dens`` is None),
        empty maps dropped.  Its ``_terms`` are the maps' primitive parts;
        its MultiPoly generators are built only if asked for."""
        ideal = cls.__new__(cls)
        ideal._scaled = maps, dens
        ideal._terms = tuple(_primitive(h) for h in maps if h)
        ideal.ambient = ambient
        ideal.budget = budget
        return ideal

    # An ideal built by __init__ sets `generators` and derives `_terms`;
    # one built by _from_terms sets `_terms` and derives `generators`.
    @cached_property
    def _terms(self) -> tuple[dict[Exponent, int], ...]:
        return tuple(map(_integer_terms, self.generators))

    @cached_property
    def generators(self) -> tuple[MultiPoly, ...]:
        maps, dens = self._scaled
        return tuple(
            MultiPoly._trusted(self.ambient, {e: Fraction(c, d) for e, c in h.items()})
            for h, d in zip(maps, dens or repeat(1))
            if h
        )

    def __repr__(self) -> str:
        return f"LocalIdeal({[format_poly(g) for g in self.generators]})"

    @cached_property
    def _reducers(self) -> list[tuple[Exponent, int, dict[Exponent, int]]]:
        return standard_basis(self._terms, self.budget)

    def standard_basis(self) -> "LocalIdeal":
        """The cached standard basis, monic, as the generators of a new ideal."""
        return LocalIdeal(monic_basis(self._reducers, self.ambient), self.ambient, self.budget)

    @cached_property
    def leading_monomials(self) -> tuple[Exponent, ...]:
        return tuple(lm for lm, _, _ in self._reducers)

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        """Mora normal form against the standard basis; 0 iff p is a member."""
        if p.vars != self.ambient:
            raise VariableMismatchError("polynomial does not live over the ambient VarSet")
        return mora_normal_form(p, self._reducers, _Budget(self.budget))

    def contains(self, p: MultiPoly) -> bool:
        return self.normal_form(p).is_zero()

    def contains_unit(self) -> bool:
        """True iff the ideal is the whole local ring (empty germ)."""
        return any(sum(lm) == 0 for lm in self.leading_monomials)

    def krull_dimension(self) -> int:
        """Dimension of the leading ideal; -1 for the unit ideal."""
        if self.contains_unit():
            return -1
        return _monomial_ideal_dimension(
            self.leading_monomials, len(self.ambient), _Budget(self.budget)
        )

    def quotient_dimension(self) -> int | float:
        """dim_Q of O/I when finite, else INFINITE (iff Krull dimension > 0).

        The finite count walks the staircase, the monomials outside the
        leading ideal, depth first from 1.  Raising only variables at or
        after the last one raised reaches a monomial only from the one with
        its last occurring variable lowered by one, so each standard monomial
        is visited, and charged one unit, exactly once.
        """
        if self.contains_unit():
            return 0
        if self.krull_dimension() > 0:
            return INFINITE
        lms = self.leading_monomials
        nvars = len(self.ambient)
        budget = _Budget(self.budget)
        count = 0
        stack: list[tuple[Exponent, int]] = [((0,) * nvars, 0)]
        while stack:
            mono, last = stack.pop()
            budget.tick("staircase enumeration")
            count += 1
            for i in range(last, nvars):
                up = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                if not any(monomial_divides(lm, up) for lm in lms):
                    stack.append((up, i))
        return count

    def serialize(self) -> str:
        """One generator per line, in the polynomial text grammar."""
        header = "vars " + " ".join(self.ambient.names)
        return "\n".join([header] + [format_poly(g) for g in self.generators]) + "\n"


def le_greuel_sections(
    maps: Sequence[dict[Exponent, int]], ambient: VarSet, budget: int
) -> Iterator[LocalIdeal]:
    """The ideals (g_1..g_{i-1}) + maximal minors of Jac(g_1..g_i), i = 1, 2, ...

    The generators g_i come as primitive integer term maps.  Built lazily, so
    a caller that stops at a failed step computes no later minors.  Step i
    extends the minors of steps 1..i-1 by the Jacobian row of g_i.  The
    minor expansion of the whole pass is charged to one budget of
    ``budget`` units, and every section runs under a budget of its own.
    """
    nvars = len(ambient)
    steps = _Budget(budget)
    minors: dict[tuple[int, ...], dict[Exponent, int]] = {(): {(0,) * nvars: 1}}
    for i, h in enumerate(maps):
        minors = _extend_minors(minors, [_derivative(h, v) for v in range(nvars)], steps)
        yield LocalIdeal._from_terms([*maps[:i], *minors.values()], ambient, budget)


def ideal_from_text(text: str, budget: int = DEFAULT_STEP_BUDGET) -> LocalIdeal:
    """Inverse of LocalIdeal.serialize: a `vars` header then one generator per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars"):
        raise InvalidInputError("ideal text must start with a 'vars' header line")
    names = lines[0].split()[1:]
    if not names:
        raise InvalidInputError("'vars' header declares no variables")
    vs = VarSet(names)
    gens = [parse_poly(ln, vs) for ln in lines[1:]]
    return LocalIdeal(gens, vs, budget=budget)
