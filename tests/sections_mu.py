"""Milnor numbers of an ICIS by coordinate hyperplane sections.

A second route to the Milnor number of a positive dimensional ICIS
X = V(g_1..g_r) of codimension c in C^N, kept as the reference the tests
compare the Le-Greuel chain in ``germlab.icis`` against.  It never forms a
chain along the generators.  The Le-Greuel formula with the coordinate x_j
in place of a next generator reads

    mu(X) + mu(X ∩ {x_j = 0}) = dim_Q O / (I + c x c minors of Jac(g) without column j),

where X ∩ {x_j = 0} is the ICIS cut by the g|_{x_j=0} in the other N - 1
coordinates.  The route recurses on that section down to dimension 0, where
mu = colength - 1.  At each level it takes the hyperplanes from the last
coordinate down, until one gives finite colengths all the way.

The c x c minors of the Jacobian matrix of all r generators generate, modulo
I, the same ideal as those of any c generators of I (Cauchy-Binet, both ways
round), so no generator is chosen.  The minors are the Fraction expansion of
``fraction_minors``; only the colengths come from ``LocalIdeal``.
"""

from __future__ import annotations

from itertools import combinations

from germlab import INFINITE, LocalIdeal
from germlab.poly import MultiPoly, VarSet

from fraction_minors import maximal_minors


def derivative(p: MultiPoly, name: str) -> MultiPoly:
    """The formal partial derivative of p in the variable ``name``."""
    i = p.vars.index(name)
    return MultiPoly(
        p.vars, {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.terms.items() if e[i]}
    )


def _restrict(p: MultiPoly, j: int, vs: VarSet) -> MultiPoly:
    """p with x_j := 0, over vs, the variables without x_j."""
    return MultiPoly(vs, {e[:j] + e[j + 1 :]: c for e, c in p.terms.items() if not e[j]})


def sections_mu(gens: list[MultiPoly], vs: VarSet, dim: int) -> int | None:
    """mu of the ICIS of dimension dim >= 0 cut by gens over vs, or None when
    no sequence of coordinate hyperplanes gives finite colengths."""
    ideal = LocalIdeal(gens, vs)
    gens = list(ideal.generators)
    if dim == 0:
        q = ideal.quotient_dimension()
        return None if q == INFINITE else q - 1
    codim = len(vs) - dim
    jacobian = [[derivative(g, v) for v in vs.names] for g in gens]
    for j in reversed(range(len(vs))):
        rows = [row[:j] + row[j + 1 :] for row in jacobian]
        minors = [m for sub in combinations(rows, codim) for m in maximal_minors(list(sub), vs)]
        q = LocalIdeal(gens + minors, vs).quotient_dimension()
        if q == INFINITE:
            continue
        names = vs.names[:j] + vs.names[j + 1 :]
        section = VarSet(names)
        mu_section = sections_mu([_restrict(g, j, section) for g in gens], section, dim - 1)
        if mu_section is not None:
            return q - mu_section
    return None
