"""The Fraction-coefficient Mora normal form and standard basis.

This is the engine the integer kernel in ``germlab.localalg`` replaced, kept
as the reference the tests compare it against: the remainder and the
reducers stay MultiPolys over Q, each step divides by the reducer's leading
coefficient, and content is removed over Q once coefficients exceed 128 bits
(numerator plus denominator).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Sequence

from germlab.localalg import (
    DEFAULT_STEP_BUDGET,
    _Budget,
    _lead,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_sub,
    order_key,
)
from germlab.poly import Exponent, MultiPoly


def leading_monomial(p: MultiPoly) -> Exponent:
    """The leading monomial of p in the local order."""
    return _lead(p.terms)[0]


def total_degree(p: MultiPoly) -> int:
    """Max total degree among terms; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def ecart(p: MultiPoly) -> int:
    return total_degree(p) - sum(leading_monomial(p))


def coeff_bits(p: MultiPoly) -> int:
    bits = 0
    for c in p.terms.values():
        n = c.numerator.bit_length() + c.denominator.bit_length()
        if n > bits:
            bits = n
    return bits


def monic(p: MultiPoly) -> MultiPoly:
    c = p.terms[leading_monomial(p)]
    return p if c == 1 else p.scale(Fraction(1) / c)


def primitive(p: MultiPoly) -> MultiPoly:
    if not p.terms:
        return p
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
    scale = Fraction(den_lcm, num_gcd)
    return p if scale == 1 else p.scale(scale)


def reduce_once(h: MultiPoly, g: MultiPoly, lm_h: Exponent, lm_g: Exponent) -> MultiPoly:
    factor_exp = monomial_sub(lm_h, lm_g)
    coeff = h.terms[lm_h] / g.terms[lm_g]
    mono = MultiPoly(h.vars, {factor_exp: coeff})
    return h - mono * g


def mora_normal_form(p: MultiPoly, basis: Sequence[MultiPoly], budget: _Budget) -> MultiPoly:
    if p.is_zero():
        return p
    reducers = [(leading_monomial(g), ecart(g), g) for g in basis]
    h = p
    while not h.is_zero():
        bits = coeff_bits(h)
        if bits > 128:
            h = primitive(h)
            bits = coeff_bits(h)
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
        ecart_h = total_degree(h) - sum(lm_h)
        if chosen_rank[0] > ecart_h:
            reducers.append((lm_h, ecart_h, h))
        budget.tick("normal form", 1 + (len(h.terms) * bits) // 256)
        h = reduce_once(h, chosen, lm_h, chosen_lm)
    return h


def spoly(f: MultiPoly, g: MultiPoly, lm_f: Exponent, lm_g: Exponent, lcm: Exponent) -> MultiPoly:
    mf = MultiPoly(f.vars, {monomial_sub(lcm, lm_f): Fraction(1) / f.terms[lm_f]})
    mg = MultiPoly(g.vars, {monomial_sub(lcm, lm_g): Fraction(1) / g.terms[lm_g]})
    return mf * f - mg * g


def standard_basis(
    generators: Sequence[MultiPoly], budget_limit: int = DEFAULT_STEP_BUDGET
) -> list[MultiPoly]:
    budget = _Budget(budget_limit)
    basis: list[MultiPoly] = []
    lms: list[Exponent] = []
    pairs: list = []

    def add(h: MultiPoly):
        lm_h = leading_monomial(h)
        k = len(basis)
        for t, lm_t in enumerate(lms):
            lcm = monomial_lcm(lm_t, lm_h)
            if lcm != monomial_mul(lm_t, lm_h):
                heapq.heappush(pairs, (sum(lcm), lcm[::-1], t, k, lcm))
        basis.append(h)
        lms.append(lm_h)

    for g in generators:
        if g.is_zero():
            continue
        g = primitive(g) if coeff_bits(g) > 128 else g
        h = mora_normal_form(g, basis, budget) if basis else g
        if not h.is_zero():
            add(h)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        budget.tick("standard basis")
        h = mora_normal_form(spoly(basis[i], basis[j], lms[i], lms[j], lcm), basis, budget)
        if not h.is_zero():
            add(h)
    keep: list[MultiPoly] = []
    for g in sorted(basis, key=lambda g: order_key(leading_monomial(g)), reverse=True):
        lm = leading_monomial(g)
        if not any(monomial_divides(leading_monomial(h), lm) for h in keep):
            keep.append(g)
    return [monic(g) for g in keep]
