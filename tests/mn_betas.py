"""The beta-number Murnaghan-Nakayama recursion, one entry at a time.

This is how ``character_table_symmetric`` computed each character value
before it built whole columns on the abacus, kept as the reference the tests
compare the columns against: a memoised recursion per (shape, class) that
removes rim hooks largest cycle first through sorted lists of beta numbers.

For a shape with m rows, beta_i = lambda_i + m - i gives m distinct
non-negative integers.  Removing a rim hook of length L is replacing some
beta by beta - L, provided that value is fresh and non-negative; the hook
height is the number of betas strictly between the old and new value.
"""

from __future__ import annotations

from functools import lru_cache


def betas(shape: tuple[int, ...]) -> tuple[int, ...]:
    m = len(shape)
    return tuple(shape[i] + m - 1 - i for i in range(m))


def shape_from_betas(values: list[int]) -> tuple[int, ...]:
    values = sorted(values, reverse=True)
    m = len(values)
    shape = tuple(b - (m - 1 - i) for i, b in enumerate(values))
    return tuple(x for x in shape if x > 0)


@lru_cache(maxsize=None)
def mn_char(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Character of `shape` at cycle type `cycles`, cycles consumed largest first."""
    if not cycles:
        return 1 if not shape else 0
    length, rest = cycles[0], cycles[1:]
    current = betas(shape)
    present = set(current)
    total = 0
    for b in current:
        nb = b - length
        if nb < 0 or nb in present:
            continue
        height = sum(1 for other in current if nb < other < b)
        new = [nb if x == b else x for x in current]
        total += (-1) ** height * mn_char(shape_from_betas(new), rest)
    return total
