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
lcm.  Leading monomials are computed once per polynomial and carried along.
The Krull dimension of the leading ideal is the number of variables minus a
minimum hitting set of the leading-monomial supports, found by branch and
bound.  A hard step budget, charged by reductions, pairs and search nodes
alike, separates "gave up" from every mathematical verdict.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

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
    return all(x <= y for x, y in zip(a, b))


def monomial_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


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


def _coeff_bits(p: MultiPoly) -> int:
    """Bit size of the largest coefficient (numerator plus denominator)."""
    bits = 0
    for c in p.terms.values():
        n = c.numerator.bit_length() + c.denominator.bit_length()
        if n > bits:
            bits = n
    return bits


def leading_monomial(p: MultiPoly) -> Exponent:
    # The same monomial as max(p.terms, key=order_key), with a cheaper key.
    return min(p.terms, key=lambda e: (sum(e), e[::-1]))


def leading_coeff(p: MultiPoly) -> Fraction:
    return p.terms[leading_monomial(p)]


def ecart(p: MultiPoly) -> int:
    """Total degree spread: deg(p) minus deg of the leading monomial."""
    return p.total_degree() - sum(leading_monomial(p))


def _monic(p: MultiPoly) -> MultiPoly:
    c = leading_coeff(p)
    return p if c == 1 else p.scale(Fraction(1) / c)


def _primitive(p: MultiPoly) -> MultiPoly:
    """Scale to coprime integer coefficients.

    Reduction chains over Q square coefficient sizes unless the content is
    divided out; gcd cost on huge integers, not step count, is what blows up
    otherwise.  Scaling by a unit changes no leading monomial and no verdict.
    """
    if not p.terms:
        return p
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
    scale = Fraction(den_lcm, num_gcd)
    return p if scale == 1 else p.scale(scale)


def _reduce_once(h: MultiPoly, g: MultiPoly, lm_h: Exponent, lm_g: Exponent) -> MultiPoly:
    """Cancel the leading term lm_h of h against g (lm_g = LM(g) divides lm_h)."""
    factor_exp = monomial_sub(lm_h, lm_g)
    coeff = h.terms[lm_h] / g.terms[lm_g]
    mono = MultiPoly(h.vars, {factor_exp: coeff})
    return h - mono * g


def mora_normal_form(p: MultiPoly, basis: Sequence[MultiPoly], budget: _Budget) -> MultiPoly:
    """Weak normal form of p against basis (Mora's algorithm).

    Returns 0 iff p is in the local ideal generated by a *standard* basis.
    When the best (ecart-minimal) divisor has strictly larger ecart than the
    current remainder, the remainder itself joins the reducer set; that
    recruitment is what makes the loop terminate in a local order, and
    recruited reducers are only ever applied with multipliers in the maximal
    ideal, so the result differs from p by a unit times an ideal member.
    """
    if p.is_zero():
        return p
    reducers = [(leading_monomial(g), ecart(g), g) for g in basis]
    h = p
    while not h.is_zero():
        bits = _coeff_bits(h)
        if bits > 128:
            # Content removal only once coefficients actually grow; on tame
            # inputs the gcd would just be overhead.
            h = _primitive(h)
            bits = _coeff_bits(h)
        lm_h = leading_monomial(h)
        chosen = None
        chosen_rank = None
        for idx, (lm_g, ecart_g, g) in enumerate(reducers):
            if monomial_divides(lm_g, lm_h):
                rank = (ecart_g, idx)
                if chosen_rank is None or rank < chosen_rank:
                    chosen, chosen_lm, chosen_rank = g, lm_g, rank
        if chosen is None:
            return h
        ecart_h = h.total_degree() - sum(lm_h)
        if chosen_rank[0] > ecart_h:
            reducers.append((lm_h, ecart_h, h))
        budget.tick("normal form", 1 + (len(h.terms) * bits) // 256)
        h = _reduce_once(h, chosen, lm_h, chosen_lm)
    return h


def _spoly(
    f: MultiPoly, g: MultiPoly, lm_f: Exponent, lm_g: Exponent, lcm: Exponent
) -> MultiPoly:
    mf = MultiPoly(f.vars, {monomial_sub(lcm, lm_f): Fraction(1) / f.terms[lm_f]})
    mg = MultiPoly(g.vars, {monomial_sub(lcm, lm_g): Fraction(1) / g.terms[lm_g]})
    return mf * f - mg * g


def standard_basis(
    generators: Sequence[MultiPoly], budget_limit: int = DEFAULT_STEP_BUDGET
) -> list[MultiPoly]:
    """Compute a minimal monic standard basis of the local ideal.

    Deterministic: generators enter in input order and the pair queue is
    processed by descending lcm in the local order (lowest degree first),
    with index pairs breaking ties.  Heap entries are
    (deg lcm, reversed lcm, i, j, lcm), whose ascending order is exactly
    that processing order.
    """
    budget = _Budget(budget_limit)
    basis: list[MultiPoly] = []
    lms: list[Exponent] = []
    pairs: list[tuple[int, Exponent, int, int, Exponent]] = []

    def add(h: MultiPoly):
        lm_h = leading_monomial(h)
        k = len(basis)
        for t, lm_t in enumerate(lms):
            lcm = monomial_lcm(lm_t, lm_h)
            if lcm != monomial_mul(lm_t, lm_h):  # product criterion: skip coprime pairs
                heapq.heappush(pairs, (sum(lcm), lcm[::-1], t, k, lcm))
        basis.append(h)
        lms.append(lm_h)

    for g in generators:
        if g.is_zero():
            continue
        # Interreduce on intake: redundant generators vanish before they can
        # spawn quadratically many pairs.
        g = _primitive(g) if _coeff_bits(g) > 128 else g
        h = mora_normal_form(g, basis, budget) if basis else g
        if not h.is_zero():
            add(h)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        budget.tick("standard basis")
        h = mora_normal_form(_spoly(basis[i], basis[j], lms[i], lms[j], lcm), basis, budget)
        if not h.is_zero():
            add(h)
    return [_monic(g) for g in _minimalize(basis)]


def _minimalize(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Drop elements whose leading monomial is divisible by another's."""
    keep: list[MultiPoly] = []
    for g in sorted(basis, key=lambda g: order_key(leading_monomial(g)), reverse=True):
        lm = leading_monomial(g)
        if not any(monomial_divides(leading_monomial(h), lm) for h in keep):
            keep.append(g)
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

    Zero generators are dropped at construction.  The standard basis and the
    facts computed from its leading ideal (unit containment, Krull dimension,
    quotient dimension) are cached on first use; instances are immutable
    afterwards, so sharing across threads or workers is safe.
    """

    def __init__(
        self,
        generators: Iterable[MultiPoly],
        ambient: VarSet,
        budget: int = DEFAULT_STEP_BUDGET,
        _is_std: bool = False,
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
        self._is_std = _is_std

    def __repr__(self) -> str:
        return f"LocalIdeal({[format_poly(g) for g in self.generators]})"

    @cached_property
    def _std(self) -> list[MultiPoly]:
        if self._is_std:
            return list(self.generators)
        return standard_basis(self.generators, self.budget)

    def standard_basis(self) -> "LocalIdeal":
        """The cached standard basis, wrapped as an ideal of its own."""
        return LocalIdeal(self._std, self.ambient, self.budget, _is_std=True)

    @cached_property
    def leading_monomials(self) -> tuple[Exponent, ...]:
        return tuple(leading_monomial(g) for g in self._std)

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        """Mora normal form against the standard basis; 0 iff p is a member."""
        if p.vars != self.ambient:
            raise VariableMismatchError("polynomial does not live over the ambient VarSet")
        return mora_normal_form(p, self._std, _Budget(self.budget))

    def contains(self, p: MultiPoly) -> bool:
        return self.normal_form(p).is_zero()

    def contains_unit(self) -> bool:
        """True iff the ideal is the whole local ring (empty germ)."""
        return any(sum(lm) == 0 for lm in self.leading_monomials)

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def krull_dimension(self) -> int:
        """Dimension of the leading ideal; -1 for the unit ideal."""
        if self.contains_unit():
            return -1
        return _monomial_ideal_dimension(
            self.leading_monomials, len(self.ambient), _Budget(self.budget)
        )

    def quotient_dimension(self) -> int | float:
        """dim_Q of O/I when finite, else INFINITE (iff Krull dimension > 0)."""
        if self.contains_unit():
            return 0
        if self.krull_dimension() > 0:
            return INFINITE
        lms = self.leading_monomials
        nvars = len(self.ambient)
        if nvars == 0:
            return 1
        # Krull dimension <= 0 guarantees a pure power of every variable.
        bounds = []
        for i in range(nvars):
            pure = [lm[i] for lm in lms if all(e == 0 for j, e in enumerate(lm) if j != i)]
            bounds.append(min(pure))
        budget = _Budget(self.budget)
        count = 0
        boxes: list[tuple[int, ...]] = [()]
        for i in range(nvars):
            nxt = []
            for prefix in boxes:
                for e in range(bounds[i]):
                    budget.tick("staircase enumeration")
                    nxt.append(prefix + (e,))
            boxes = nxt
        for mono in boxes:
            if not any(monomial_divides(lm, mono) for lm in lms):
                count += 1
        return count

    def serialize(self) -> str:
        """One generator per line, in the polynomial text grammar."""
        header = "vars " + " ".join(self.ambient.names)
        return "\n".join([header] + [format_poly(g) for g in self.generators]) + "\n"


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
