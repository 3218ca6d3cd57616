"""Symmetric-group combinatorics and exact character tables.

Partitions of k double as cycle shapes (conjugacy classes) and as labels of
the irreducible characters of S_k.  Character values are exact integers from
the Murnaghan-Nakayama rule, on partitions and rim-hook columns built once
per process, and stay plain ints; these tables are exact by construction and
the test suite, not the run time, checks them.  A generic CharacterTable
container holds tables of other finite groups with one integer per class,
loaded from a small text format and validated against the orthogonality
relations on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import factorial
from operator import lshift, mul
from typing import Iterable, Sequence

from .errors import InconsistentDataError, InvalidInputError
from .poly import parse_integer, parse_integer_fields, records

MAX_SYMMETRIC_K = 12


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; also a cycle shape of S_k."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise InvalidInputError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InvalidInputError(f"partition parts must be weakly decreasing: {self.parts}")

    @property
    def k(self) -> int:
        return sum(self.parts)

    @property
    def cycle_count(self) -> int:
        return len(self.parts)

    def alpha(self) -> dict[int, int]:
        """Multiplicity vector: alpha[i] = number of parts equal to i."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def label(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@cache
def partitions(k: int) -> tuple[Partition, ...]:
    """All partitions of k, largest-part-first lexicographic (deterministic)."""
    if k < 1:
        raise InvalidInputError("partitions(k) needs k >= 1")
    if k > MAX_SYMMETRIC_K:
        raise InvalidInputError(f"k = {k} exceeds the supported bound {MAX_SYMMETRIC_K}")

    def gen(remaining: int, cap: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(k, k))


def class_size(lam: Partition) -> int:
    """Number of permutations of cycle shape lam: k! / prod_i i^alpha_i alpha_i!."""
    z = 1
    for i, a in lam.alpha().items():
        z *= i**a * factorial(a)
    return factorial(lam.k) // z


def sign_of_class(lam: Partition) -> int:
    """Sign of any permutation with this cycle shape: (-1)^(k - #cycles)."""
    return -1 if (lam.k - lam.cycle_count) % 2 else 1


# -- Murnaghan-Nakayama by columns ---------------------------------------------
#
# A partition lambda_1 >= ... >= lambda_m is an abacus: the bitmask with one
# bead at each beta number lambda_i + m - i.  A zero-length row shifts the
# mask left and sets bit 0, so the canonical mask has no trailing set bits
# (the empty partition is 0).  Adding a rim hook of length L moves a bead
# from b to an empty b + L; its height is the number of beads in between.
#
# By Murnaghan-Nakayama, chi^lambda(cycles) is the sum of (-1)^height
# chi^mu(rest) over the hooks of length L that grow mu into lambda, for any
# one cycle L of cycles and rest the others.  _column(cycles), every
# chi^lambda(cycles) at once, removes the longest, L = cycles[0]: it extends
# the column of cycles[1:] by every such hook, each mask padded with L
# zero-length rows first.  So the recursion starts from the smallest S_m
# (for S_12, 154 columns and 8152 hook moves; 272 and 24026 removing the
# shortest cycle).  Suffixes of partitions are partitions: the _column
# cache holds one column per partition it reaches, built once per process.


def _abacus(parts: tuple[int, ...]) -> int:
    m = len(parts)
    return sum(1 << (p + m - 1 - i) for i, p in enumerate(parts))


@cache
def _column(cycles: tuple[int, ...]) -> dict[int, int]:
    """{abacus mask of lambda: chi^lambda(cycles)} for the lambda of sum(cycles)
    that the hooks of cycles[0], the longest cycle, reach from the column of
    cycles[1:]; every lambda missing has value 0."""
    if not cycles:
        return {0: 1}
    length = cycles[0]
    column = {}
    for mask, value in _column(cycles[1:]).items():
        beads = (mask << length) | ((1 << length) - 1)
        movable = beads & ~(beads >> length)  # beads at b with b + length empty
        while movable:
            bead = movable & -movable
            movable ^= bead
            grown = beads ^ bead ^ (bead << length)
            grown >>= (grown ^ (grown + 1)).bit_length() - 1
            height = (beads & (bead << length) - (bead << 1)).bit_count()
            column[grown] = column.get(grown, 0) + (-value if height & 1 else value)
    return column


def _check_shape(rows: Sequence[Sequence[int]], width: int):
    if any(len(r) != width for r in rows):
        raise InconsistentDataError("ragged character table")
    if len(rows) != width:
        raise InconsistentDataError(f"{len(rows)} irreducibles for {width} classes")


def _rows_orthogonal(order: int, sizes: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """Whether sum_k sizes_k r_ik r_jk == order [i == j] for all rows i, j,
    in O(c^2) integer operations.

    The c x c identity H == E holds iff H v == E v for v = (1, t, t^2, ...)
    with t = 2^b above every |H_ij - E_ij|: a nonzero row of H - E cannot
    vanish at v, since its lowest nonzero entry would be a multiple of t.
    H v is computed as X (S (X^T v)), X the integer rows and S the class
    sizes.  Positive sizes bound |H_ij| by max H_ii (Cauchy-Schwarz); any
    other size answers False.
    """
    if min(sizes, default=1) <= 0:
        return False
    squares = [sum(map(mul, sizes, map(mul, row, row))) for row in rows]
    b = (max(squares, default=0) + abs(order)).bit_length()
    powers = range(0, b * len(rows), b)  # v_j = t^j = 1 << powers[j]
    columns = [sum(map(lshift, col, powers)) for col in zip(*rows)]
    weighted = tuple(map(mul, sizes, columns))  # S X^T v
    return all(sum(map(mul, row, weighted)) == order << powers[i]
               for i, row in enumerate(rows))


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters indexed by conjugacy class, all values exact.

    validate() enforces class sizes summing to group_order, one irreducible
    per class, int values, row orthogonality and positive degrees; every
    table read from text runs it.
    For symmetric groups the labels are partition strings.  A character
    value is a sum of roots of unity, so a rational one is an integer: the
    values are ints, and character conjugation is the identity here.
    """

    group_order: int
    class_labels: tuple[str, ...]
    class_sizes: tuple[int, ...]
    irrep_labels: tuple[str, ...]
    values: tuple[tuple[int, ...], ...]  # rows: irreps, columns: classes
    identity_index: int = 0

    def degree(self, row: int) -> int:
        return self.values[row][self.identity_index]

    def irrep_index(self, label: str) -> int:
        try:
            return self.irrep_labels.index(label)
        except ValueError:
            raise InvalidInputError(f"unknown irreducible {label!r}") from None

    def row(self, label: str) -> tuple[int, ...]:
        return self.values[self.irrep_index(label)]

    def validate(self):
        if sum(self.class_sizes) != self.group_order:
            raise InconsistentDataError("class sizes do not sum to the group order")
        rows = self.values
        _check_shape(rows, len(self.class_labels))
        if others := [v for row in rows for v in row if type(v) is not int]:
            raise InconsistentDataError(f"character value {others[0]} is not an integer",
                                        value=others[0])
        # All pairs at once; pair by pair only to name the first that fails.
        suspects = () if _rows_orthogonal(self.group_order, self.class_sizes, rows) else rows
        for i, row in enumerate(suspects):
            weighted = tuple(map(mul, self.class_sizes, row))
            for j in range(i, len(rows)):
                acc = sum(map(mul, weighted, rows[j]))
                if acc != (self.group_order if i == j else 0):
                    raise InconsistentDataError(
                        f"row orthogonality fails for irreducibles {i} and {j}", value=acc
                    )
        for i in range(len(rows)):
            if self.degree(i) <= 0:
                raise InconsistentDataError("non-positive degree in character table")

    def to_text(self) -> str:
        lines = [f"group_order {self.group_order}"]
        for label, size in zip(self.class_labels, self.class_sizes):
            lines.append(f"class {label} {size}")
        for label, row in zip(self.irrep_labels, self.values):
            lines.append(f"irrep {label} " + " ".join(map(str, row)))
        return "\n".join(lines) + "\n"


@cache
def character_table_symmetric(k: int) -> CharacterTable:
    """The exact character table of S_k, classes and irreps both by partition.

    Both axes follow the deterministic partition order.  Rows are found by
    label (``irrep_index``): the trivial character is the row of (k), the
    sign character the row of (1^k).  Built once per k and process; the
    table is frozen, so every caller shares it.
    """
    if not 1 <= k <= MAX_SYMMETRIC_K:
        raise InvalidInputError(f"symmetric character tables support 1 <= k <= {MAX_SYMMETRIC_K}")
    parts = partitions(k)
    labels = tuple(p.label() for p in parts)
    sizes = tuple(class_size(p) for p in parts)
    masks = [_abacus(irrep.parts) for irrep in parts]
    # One column per class, looked up at every mask; zip transposes to rows.
    values = tuple(zip(*(map(_column(cls.parts).get, masks, repeat(0)) for cls in parts)))
    identity_index = next(i for i, p in enumerate(parts) if p.parts == (1,) * k)
    return CharacterTable(
        group_order=factorial(k),
        class_labels=labels,
        class_sizes=sizes,
        irrep_labels=labels,
        values=values,
        identity_index=identity_index,
    )


def _add(entries: dict, label: str, value, kind: str):
    if label in entries:
        raise InvalidInputError(f"repeated {kind} label {label!r}")
    entries[label] = value


_TABLE_FIELDS = {"group_order": 1, "class": 2, "irrep": None}


def table_from_text(text: str) -> CharacterTable:
    """Load a generic character-table file.

    Format: exactly one `group_order N` line, then `class <label> <size>`
    lines, then `irrep <label> <value per class...>` lines, in the record
    grammar of ``poly.records``.  Class labels and irreducible labels must
    each be unique and class sizes positive.  Each value is an integer
    literal (``poly.parse_integer_fields``).  The identity class is
    the one of size 1 on which every irreducible is positive; the count of
    irreducibles (one per class) and orthogonality are validated and
    inconsistent tables are rejected.
    """
    order = None
    sizes: dict[str, int] = {}
    rows: dict[str, tuple[int, ...]] = {}
    lines = records(text, "character-table", _TABLE_FIELDS, once=("group_order",),
                    required=("group_order", "class", "irrep"))
    for key, fields, line in lines:
        if key == "group_order":
            order = parse_integer(fields[0], "group order")
        elif key == "class":
            size = parse_integer(fields[1], "class size")
            if size <= 0:
                raise InvalidInputError(f"class size must be positive: {line!r}")
            _add(sizes, fields[0], size, "class")
        elif len(fields) < 2:
            raise InvalidInputError(f"bad irrep line: {line!r}")
        else:
            _add(rows, fields[0], parse_integer_fields(fields[1:], "character value"),
                 "irreducible")
    values = tuple(rows.values())
    _check_shape(values, len(sizes))
    identity_candidates = [
        j for j, size in enumerate(sizes.values()) if size == 1 and all(r[j] > 0 for r in values)
    ]
    if not identity_candidates:
        raise InconsistentDataError("no class qualifies as the identity class")
    table = CharacterTable(group_order=order, class_labels=tuple(sizes),
                           class_sizes=tuple(sizes.values()), irrep_labels=tuple(rows),
                           values=values, identity_index=identity_candidates[0])
    table.validate()
    return table
