"""The linear elimination by a sum over powers of the substituted polynomial.

This is how ``germlab.icis._eliminate_linear`` substituted x_j := -r/c
before it evaluated by Horner's rule, kept as the reference the tests
compare the Horner evaluation against: a map h of x_j-degree D becomes
c^D * h(x_j := -r/c), the sum of c^(D - a) * h_a * (-r)^a over its
x_j-degree parts h_a, with the powers (-r)^a built once per round and one
product of h_a with each power.  It picks the same generators in the same
order and charges its term products to the ideal's ledger as it did.
"""

from __future__ import annotations

from operator import itemgetter

from germlab.localalg import LocalIdeal, _primitive
from germlab.poly import Exponent, VarSet, _subtract_multiple


def eliminate_by_powers(ideal: LocalIdeal) -> LocalIdeal:
    """The ideal with every generator c * x_j + r, x_j in no term of r,
    taken off, as ``_eliminate_linear`` computed it by powers of -r."""
    maps = list(ideal._terms)
    nvars = len(ideal.ambient)
    budget = ideal._ledger
    gone = []
    while True:
        pick = None
        for i, h in enumerate(maps):
            if pick is None or len(h) < len(maps[pick[0]]):
                for e in h:
                    if sum(e) == 1 and sum(f[e.index(1)] for f in h) == 1:
                        pick = i, e.index(1)
                        break
        if pick is None:
            break
        i, j = pick
        g = maps.pop(i)
        unit = (0,) * j + (1,) + (0,) * (nvars - 1 - j)
        c = g[unit]
        r = {e: a for e, a in g.items() if e != unit}
        powers = [{(0,) * nvars: 1}]  # (-r)^a
        rest = []
        for h in maps:
            if not any(e[j] for e in h):
                rest.append(h)
                continue
            parts: dict[int, dict[Exponent, int]] = {}
            for e, a in h.items():
                parts.setdefault(e[j], {})[e[:j] + (0,) + e[j + 1 :]] = a
            top = max(parts)
            while len(powers) <= top:
                budget.tick("linear elimination", len(powers[-1]) * len(r))
                power: dict[Exponent, int] = {}
                for e, a in powers[-1].items():
                    _subtract_multiple(power, a, r, e)
                powers.append(power)
            acc: dict[Exponent, int] = {}
            for a, part in parts.items():
                budget.tick("linear elimination", len(part) * len(powers[a]))
                scale = c ** (top - a)
                for e, b in part.items():
                    _subtract_multiple(acc, -scale * b, powers[a], e)
            if acc:
                rest.append(_primitive(acc))
        maps = rest
        gone.append(j)
    if not gone:
        return ideal
    keep = [k for k in range(nvars) if k not in gone]
    project = itemgetter(*keep) if len(keep) > 1 else lambda e: tuple(e[k] for k in keep)
    maps = [dict(zip(map(project, h), h.values())) for h in maps]
    return LocalIdeal._from_terms(maps, VarSet(project(ideal.ambient.names)), ideal._ledger)
