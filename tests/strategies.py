"""Hypothesis strategies for character tables with rational entries.

Shared by the symrep and isotype tests, which compare the integer kernels
against the plain Fraction loops on the same tables.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from germlab import CharacterTable, character_table_symmetric

rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
nonzero_rationals = rationals.filter(bool)


@st.composite
def scaled_symmetric_tables(draw) -> CharacterTable:
    """The table of S_k (k <= 7) with each row times a nonzero rational; the
    factors 1 and -1 are drawn often, so valid tables and tables that fail
    only the degree check both occur."""
    table = character_table_symmetric(draw(st.integers(1, 7)))
    factors = st.one_of(st.just(Fraction(1)), st.just(Fraction(-1)), nonzero_rationals)
    values = tuple(
        tuple(v * q for v in row)
        for row, q in zip(table.values, draw(st.lists(factors, min_size=len(table.values),
                                                      max_size=len(table.values))))
    )
    return replace(table, values=values)


@st.composite
def perturbed_symmetric_tables(draw) -> CharacterTable:
    """The table of S_k (k <= 7) with one entry moved by a nonzero rational."""
    table = character_table_symmetric(draw(st.integers(1, 7)))
    n, m = len(table.irrep_labels), len(table.class_labels)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    delta = draw(nonzero_rationals)
    values = [list(row) for row in table.values]
    values[i][j] += delta
    return replace(table, values=tuple(tuple(row) for row in values))


@st.composite
def generic_rational_tables(draw) -> CharacterTable:
    """Small tables with arbitrary rational entries and class sizes; the group
    order is the size sum or, sometimes, an arbitrary positive integer."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    order = draw(st.one_of(st.just(sum(sizes)), st.integers(1, 20)))
    rows = draw(st.lists(st.lists(rationals, min_size=m, max_size=m).map(tuple),
                         min_size=n, max_size=n))
    return CharacterTable(
        group_order=order,
        class_labels=tuple(f"c{j}" for j in range(m)),
        class_sizes=tuple(sizes),
        irrep_labels=tuple(f"t{i}" for i in range(n)),
        values=tuple(rows),
        identity_index=draw(st.integers(0, m - 1)),
    )


rational_tables = st.one_of(
    scaled_symmetric_tables(), perturbed_symmetric_tables(), generic_rational_tables()
)
