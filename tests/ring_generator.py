"""The strongly contractible germ generator built with ring operations.

This is the construction ``germlab.multipoint.generate_sc_germ`` replaced,
kept as the reference the tests compare it against: every component is
assembled from ``MultiPoly.variable`` by ``*``, ``**`` and ``+``, so its
term map and term order are those of the ring operations, not of exponent
tuples written by hand.
"""

from __future__ import annotations

from germlab.multipoint import GermSpec, kappa
from germlab.poly import MultiPoly, VarSet


def ring_sc_germ(n: int, p: int) -> GermSpec:
    """The germ ``generate_sc_germ(n, p, self_check=False)`` should emit,
    for feasible (n, p)."""
    kap = kappa(n, p)
    m = p - n + 1
    vs_names = tuple(f"x{i}" for i in range(1, n)) + ("y",)
    vs = VarSet(vs_names)
    y = MultiPoly.variable(vs, "y")

    def x(t: int) -> MultiPoly:
        return MultiPoly.variable(vs, f"x{t}")

    comps: list[MultiPoly] = []
    if kap == 1:
        comps = [y**2, y**3] + [x(t) * y for t in range(1, n)]
        if n > 1:
            a, i = 2, 1
            while len(comps) < m:
                comps.append(x(i) ** a * y)
                i += 1
                if i == n:
                    i, a = 1, a + 1
        else:
            power = 4
            while len(comps) < m:
                comps.append(y**power)
                power += 1
    else:
        scheduled = m * (kap - 1)
        for i in range(1, m + 1):
            h = y ** (kap + i)
            for j in range(2, kap + 1):
                t = (i - 1) * (kap - 1) + (j - 1)
                h = h + x(t) * y ** (j - 1)
            comps.append(h)
        for t in range(scheduled + 1, n):
            c = t - scheduled - 1
            comps[c] = comps[c] + x(t) * y**kap
    return GermSpec(n, p, vs_names[:-1], "y", tuple(comps))
