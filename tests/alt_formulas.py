"""The two fixed-point formulas germlab evaluated mu_k^Alt by before it read
the sign isotype, kept as references the tests compare ``mu_alt_dk`` with.

  (A)  (1/k!) [ sum_{d^s >= 0} mu(D^k(f)^s)
                - sum_{d^s < 0} (-1)^(d^s) beta_0(D^k(f)^s) ]

  (B)  (1/k!) [ sum_{d^s >= 0 even} mu^{+0}(D^k(f)^s)
                + sum_{d^s > 0 odd} mu^{-0}(D^k(f)^s) ]

with sums over group elements, realized class-wise via class sizes.  B - A
is (1/k!) sum_s (-1)^(d^s) beta_0(D^k(f)^s) whatever the Milnor numbers are,
so the two agree whenever all cells of one k agree on being empty.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from germlab.multipoint import GermAnalysis
from germlab.symrep import class_size, partitions


def mu_alt_formula_a(analysis: GermAnalysis, k: int) -> Fraction:
    """Alternating number via Milnor numbers and beta_0 corrections."""
    acc = Fraction(0)
    for shape in partitions(k):
        sp = analysis.cell(k, shape)
        md = sp.milnor
        size = class_size(shape)
        if sp.expected_dim >= 0:
            acc += size * md.mu
        else:
            sign = -1 if sp.expected_dim % 2 else 1
            acc -= size * sign * md.beta0
    return acc / factorial(k)


def mu_alt_formula_b(analysis: GermAnalysis, k: int) -> Fraction:
    """Alternating number via positive/negative Milnor characteristics."""
    acc = Fraction(0)
    for shape in partitions(k):
        sp = analysis.cell(k, shape)
        md = sp.milnor
        size = class_size(shape)
        if sp.expected_dim >= 0 and sp.expected_dim % 2 == 0:
            acc += size * md.mu_plus0
        elif sp.expected_dim > 0 and sp.expected_dim % 2 == 1:
            acc += size * md.mu_minus0
    return acc / factorial(k)
