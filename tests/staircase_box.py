"""The bounding-box colength count of a zero-dimensional monomial ideal.

This is the count ``LocalIdeal.quotient_dimension`` used before it walked
the staircase, kept as the reference the tests compare the walk against:
read the least pure power of each variable, enumerate every monomial of the
box below those powers, and count the ones no generator divides.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Sequence

from germlab.localalg import monomial_divides
from germlab.poly import Exponent


def box_bounds(lms: Sequence[Exponent], nvars: int) -> list[int]:
    """The least pure power of each variable; one must exist for every one."""
    bounds = []
    for i in range(nvars):
        pure = [lm[i] for lm in lms if all(e == 0 for j, e in enumerate(lm) if j != i)]
        bounds.append(min(pure))
    return bounds


def box_size(lms: Sequence[Exponent], nvars: int) -> int:
    return prod(box_bounds(lms, nvars))


def box_count(lms: Sequence[Exponent], nvars: int) -> int:
    """dim k[x]/(lms), by testing every monomial of the bounding box."""
    boxes = product(*(range(b) for b in box_bounds(lms, nvars)))
    return sum(1 for mono in boxes if not any(monomial_divides(lm, mono) for lm in lms))
