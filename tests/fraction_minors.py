"""The Fraction maximal minors of a polynomial matrix.

This is the expansion the Le-Greuel chain in ``germlab.icis`` used before
``germlab.localalg._extend_minors`` extended integer-map minors row by row,
kept as the reference the tests compare it against, and as the
determinant of the Sylvester-resultant route to plane-curve images: every
prefix of rows is rebuilt from MultiPoly products and sums.
"""

from __future__ import annotations

from itertools import combinations

from germlab.poly import MultiPoly, VarSet


def maximal_minors(rows: list[list[MultiPoly]], ambient: VarSet) -> list[MultiPoly]:
    """All r x r minors of an r x N polynomial matrix, column subsets in
    lexicographic order.

    Laplace expansion along rows with memoization over column subsets: the
    minor for (row prefix of length s, column set S) is reused by every
    superset, so the work is one polynomial multiply-add per (subset, column)
    rather than a factorial blowup.
    """
    r = len(rows)
    n = len(rows[0]) if rows else 0
    zero = MultiPoly.zero(ambient)
    current: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.constant(ambient, 1)}
    for s in range(r):
        row_sign = -1 if s % 2 else 1
        nxt: dict[tuple[int, ...], MultiPoly] = {}
        for cols in combinations(range(n), s + 1):
            acc = zero
            for idx, col in enumerate(cols):
                entry = rows[s][col]
                if entry.is_zero():
                    continue
                sub = current[cols[:idx] + cols[idx + 1 :]]
                if sub.is_zero():
                    continue
                term = entry * sub
                acc = acc + term if (idx % 2 == 0) else acc - term
            nxt[cols] = acc if row_sign == 1 else -acc
        current = nxt
    return [current[cols] for cols in sorted(current)]
