"""The divided-difference table and fixed-locus map over Fraction MultiPolys.

This is how ``germlab.multipoint`` built the equations of D^k(f) and
D^k(f)^sigma before it kept them as integer term maps, kept as the
reference the tests compare those maps against: every entry carries the
germ's own Fraction coefficients, and the fixed-locus map sums Fractions
where images collide.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, pairwise

from germlab.poly import ROLE_BASE, ROLE_CORANK, MultiPoly, VarSet, divided_difference
from germlab.symrep import Partition


def _ambient(g, corank_names) -> VarSet:
    return VarSet(
        g.base_names + tuple(corank_names),
        (ROLE_BASE,) * len(g.base_names) + (ROLE_CORANK,) * len(corank_names),
    )


def fraction_table(g, k: int) -> tuple[VarSet, list[list[MultiPoly]]]:
    """The ambient (x, y_1..y_k) and the rows of levels j = 2..k."""
    y = [f"{g.corank_name}{i}" for i in range(1, k + 1)]
    amb = _ambient(g, y)
    pad = (0,) * (k - 1)
    current = [
        MultiPoly._trusted(amb, {e + pad: c for e, c in h.terms.items()}) for h in g.components
    ]
    rows = []
    for j in range(2, k + 1):
        current = [divided_difference(q, y[j - 2], y[j - 1]) for q in current]
        rows.append(current)
    return amb, rows


def full_generators(g, k: int) -> tuple[VarSet, list[MultiPoly]]:
    """The nonzero generators of D^k(f), level by level."""
    amb, rows = fraction_table(g, k)
    return amb, [q for row in rows for q in row if not q.is_zero()]


def fixed_generators(g, k: int, shape: Partition) -> tuple[VarSet, list[MultiPoly]]:
    """The nonzero generators of D^k(f)^sigma for the canonical sigma: each
    cycle's consecutive block of y-exponents sums to one z-exponent."""
    _, rows = fraction_table(g, k)
    target = _ambient(g, [f"z{i}" for i in range(1, shape.cycle_count + 1)])
    nb = len(g.base_names)
    blocks = list(pairwise(accumulate(shape.parts, initial=nb)))
    gens = []
    for row in rows:
        for q in row:
            terms: dict[tuple[int, ...], Fraction] = {}
            for e, c in q.terms.items():
                image = e[:nb] + tuple(sum(e[a:b]) for a, b in blocks)
                terms[image] = terms.get(image, 0) + c
            gen = MultiPoly._trusted(target, {e: c for e, c in terms.items() if c})
            if not gen.is_zero():
                gens.append(gen)
    return target, gens
