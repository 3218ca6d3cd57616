"""The characters of S_k from permutation modules on tabloids.

phi_lam(sigma) counts row assignments of {1..k} with row sizes lam fixed by
sigma.  Irreducible characters fall out by projecting away previously built
ones in an order refining dominance; no rim hooks are involved, so this
oracle is independent of ``character_table_symmetric``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from germlab import Partition, class_size, partitions


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _tabloids(lam: tuple[int, ...], k: int):
    rows = []
    for idx, size in enumerate(lam):
        rows.extend([idx] * size)
    return set(itertools.permutations(rows, k))


def _fixed_tabloid_count(lam, perm, tabs) -> int:
    return sum(1 for t in tabs if all(t[perm[i]] == t[i] for i in range(len(perm))))


def brute_force_table(k: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    perms = list(itertools.permutations(range(k)))
    classes = [p.parts for p in partitions(k)]
    reps = {}
    for perm in perms:
        reps.setdefault(_cycle_type(perm), perm)
    sizes = {c: class_size(Partition(c)) for c in classes}
    order = factorial(k)

    def inner(f, g):
        return sum(sizes[c] * f[c] * g[c] for c in classes) / order

    phi = {}
    for lam in classes:
        tabs = _tabloids(lam, k)
        phi[lam] = {c: Fraction(_fixed_tabloid_count(lam, reps[c], tabs)) for c in classes}
    chars: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for lam in classes:  # descending order refines dominance
        psi = dict(phi[lam])
        for mu, chi in chars.items():
            coeff = inner(psi, chi)
            for c in classes:
                psi[c] -= coeff * chi[c]
        assert inner(psi, psi) == 1, f"projection failed for {lam}"
        chars[lam] = psi
    return chars
