"""Random invertible recombinations of a generating set.

A recombination generates the same ideal, so the Milnor number of an ICIS
does not change; tests feed these to the Le-Greuel chain as other
presentations of one ideal.
"""

from __future__ import annotations

import random

from germlab.poly import MultiPoly


def _random_recombination(gens: list[MultiPoly], rng: random.Random) -> list[MultiPoly]:
    """Apply a random invertible (unit lower-triangular after shuffle) mix."""
    order = list(range(len(gens)))
    rng.shuffle(order)
    shuffled = [gens[i] for i in order]
    mixed = []
    for i, g in enumerate(shuffled):
        acc = g
        for j in range(i):
            c = rng.randint(-3, 3)
            if c:
                acc = acc + shuffled[j].scale(c)
        mixed.append(acc)
    return mixed
