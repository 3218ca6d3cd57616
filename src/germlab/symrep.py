"""Symmetric-group combinatorics and exact character tables.

Partitions of k double as cycle shapes (conjugacy classes) and as labels of
the irreducible characters of S_k.  Character values are computed by the
Murnaghan-Nakayama rule and are exact integers.  A generic CharacterTable
container holds tables of other finite groups with rational values, loaded
from a small text format and validated against the orthogonality relations
on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable

from .errors import InconsistentDataError, InvalidInputError

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

    def __iter__(self):
        return iter(self.parts)


def partitions(k: int, bound: int = MAX_SYMMETRIC_K) -> list[Partition]:
    """All partitions of k, largest-part-first lexicographic (deterministic)."""
    if k < 1:
        raise InvalidInputError("partitions(k) needs k >= 1")
    if k > bound:
        raise InvalidInputError(f"k = {k} exceeds the supported bound {bound}")

    def gen(remaining: int, cap: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in gen(k, k)]


def class_size(lam: Partition) -> int:
    """Number of permutations of cycle shape lam: k! / prod_i i^alpha_i alpha_i!."""
    z = 1
    for i, a in lam.alpha().items():
        z *= i**a * factorial(a)
    return factorial(lam.k) // z


def sign_of_class(lam: Partition) -> int:
    """Sign of any permutation with this cycle shape: (-1)^(k - #cycles)."""
    return -1 if (lam.k - lam.cycle_count) % 2 else 1


# -- Murnaghan-Nakayama ------------------------------------------------------
#
# Rim hooks are manipulated through beta numbers: for a shape with m rows,
# beta_i = lambda_i + m - i gives m distinct non-negative integers.  Removing
# a rim hook of length L is replacing some beta by beta - L, provided that
# value is fresh and non-negative; the hook height is the number of betas
# strictly between the old and new value.


def _betas(shape: tuple[int, ...]) -> tuple[int, ...]:
    m = len(shape)
    return tuple(shape[i] + m - 1 - i for i in range(m))


def _shape_from_betas(betas: list[int]) -> tuple[int, ...]:
    betas = sorted(betas, reverse=True)
    m = len(betas)
    shape = tuple(b - (m - 1 - i) for i, b in enumerate(betas))
    return tuple(x for x in shape if x > 0)


@lru_cache(maxsize=None)
def _mn_char(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion: character of `shape` at cycle type `cycles`.

    Cycles are consumed largest-first (any fixed order is valid)."""
    if not cycles:
        return 1 if not shape else 0
    length, rest = cycles[0], cycles[1:]
    betas = _betas(shape)
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - length
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in betas if nb < other < b)
        new = [nb if x == b else x for x in betas]
        total += (-1) ** height * _mn_char(_shape_from_betas(new), rest)
    return total


def character_value(irrep: Partition, cls: Partition) -> int:
    """chi_irrep(cls) for S_k, by Murnaghan-Nakayama."""
    if irrep.k != cls.k:
        raise InvalidInputError("irreducible label and class must partition the same k")
    return _mn_char(irrep.parts, cls.parts)


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters indexed by conjugacy class, all values exact.

    class_sizes sum to group_order; row orthogonality and degree positivity
    are enforced by validate(), which runs on every load of a generic table.
    For symmetric groups the labels are partition strings and the values are
    integers; generic tables admit rational values.  Values are real
    rationals throughout, so character conjugation is the identity here.
    """

    group_order: int
    class_labels: tuple[str, ...]
    class_sizes: tuple[int, ...]
    irrep_labels: tuple[str, ...]
    values: tuple[tuple[Fraction, ...], ...]  # rows: irreps, columns: classes
    identity_index: int = 0
    trivial_index: int | None = None
    sign_index: int | None = None

    def degree(self, row: int) -> Fraction:
        return self.values[row][self.identity_index]

    def row(self, label: str) -> tuple[Fraction, ...]:
        return self.values[self.irrep_labels.index(label)]

    def validate(self):
        if sum(self.class_sizes) != self.group_order:
            raise InconsistentDataError("class sizes do not sum to the group order")
        if any(len(r) != len(self.class_labels) for r in self.values):
            raise InconsistentDataError("ragged character table")
        n = len(self.irrep_labels)
        for i in range(n):
            for j in range(i, n):
                acc = Fraction(0)
                for size, a, b in zip(self.class_sizes, self.values[i], self.values[j]):
                    acc += size * a * b
                expected = self.group_order if i == j else 0
                if acc != expected:
                    raise InconsistentDataError(
                        f"row orthogonality fails for irreducibles {i} and {j}", value=acc
                    )
        for i in range(n):
            if self.degree(i) <= 0:
                raise InconsistentDataError("non-positive degree in character table")

    def to_text(self) -> str:
        lines = [f"group_order {self.group_order}"]
        for label, size in zip(self.class_labels, self.class_sizes):
            lines.append(f"class {label} {size}")
        for label, row in zip(self.irrep_labels, self.values):
            vals = " ".join(str(v.numerator) if v.denominator == 1 else str(v) for v in row)
            lines.append(f"irrep {label} {vals}")
        return "\n".join(lines) + "\n"


def character_table_symmetric(k: int) -> CharacterTable:
    """The exact character table of S_k, classes and irreps both by partition.

    Both axes follow the deterministic partition order; the trivial character
    is the row of (k) and the sign character the row of (1^k).
    """
    if not 1 <= k <= MAX_SYMMETRIC_K:
        raise InvalidInputError(f"symmetric character tables support 1 <= k <= {MAX_SYMMETRIC_K}")
    parts = partitions(k)
    labels = tuple(p.label() for p in parts)
    sizes = tuple(class_size(p) for p in parts)
    values = tuple(
        tuple(Fraction(character_value(irrep, cls)) for cls in parts) for irrep in parts
    )
    identity_index = next(i for i, p in enumerate(parts) if p.parts == (1,) * k)
    trivial_index = next(i for i, p in enumerate(parts) if p.parts == (k,))
    table = CharacterTable(
        group_order=factorial(k),
        class_labels=labels,
        class_sizes=sizes,
        irrep_labels=labels,
        values=values,
        identity_index=identity_index,
        trivial_index=trivial_index,
        sign_index=identity_index,
    )
    table.validate()
    return table


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad rational literal {text!r}") from exc


def table_from_text(text: str) -> CharacterTable:
    """Load a generic character-table file.

    Format: one `group_order N` line, then `class <label> <size>` lines, then
    `irrep <label> <value per class...>` lines.  Blank lines and `#` comments
    are ignored.  The identity class is the one of size 1 on which every
    irreducible is positive; orthogonality is validated and inconsistent
    tables are rejected.
    """
    order = None
    class_labels: list[str] = []
    class_sizes: list[int] = []
    irrep_labels: list[str] = []
    rows: list[tuple[Fraction, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        key = fields[0]
        if key == "group_order":
            order = int(fields[1])
        elif key == "class":
            if len(fields) != 3:
                raise InvalidInputError(f"bad class line: {line!r}")
            class_labels.append(fields[1])
            class_sizes.append(int(fields[2]))
        elif key == "irrep":
            if len(fields) < 3:
                raise InvalidInputError(f"bad irrep line: {line!r}")
            irrep_labels.append(fields[1])
            rows.append(tuple(_parse_fraction(v) for v in fields[2:]))
        else:
            raise InvalidInputError(f"unknown directive {key!r} in character table")
    if order is None or not class_labels or not irrep_labels:
        raise InvalidInputError("character table needs group_order, classes and irreps")
    identity_candidates = [
        j for j, size in enumerate(class_sizes) if size == 1 and all(row[j] > 0 for row in rows)
    ]
    if not identity_candidates:
        raise InconsistentDataError("no class qualifies as the identity class")
    table = CharacterTable(
        group_order=order,
        class_labels=tuple(class_labels),
        class_sizes=tuple(class_sizes),
        irrep_labels=tuple(irrep_labels),
        values=tuple(rows),
        identity_index=identity_candidates[0],
    )
    table.validate()
    return table
