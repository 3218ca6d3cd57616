"""Hypothesis strategies for character tables with integer entries.

Shared by the symrep and isotype tests, which compare the integer kernels
against the plain Fraction loops on the same tables.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from germlab import CharacterTable, character_table_symmetric

nonzero_integers = st.integers(-7, 7).filter(bool)


@st.composite
def scaled_symmetric_tables(draw) -> CharacterTable:
    """The table of S_k (k <= 7) with each row times a nonzero integer; the
    factors 1 and -1 are drawn often, so valid tables and tables that fail
    only the degree check both occur."""
    table = character_table_symmetric(draw(st.integers(1, 7)))
    factors = st.one_of(st.just(1), st.just(-1), nonzero_integers)
    values = tuple(
        tuple(v * q for v in row)
        for row, q in zip(table.values, draw(st.lists(factors, min_size=len(table.values),
                                                      max_size=len(table.values))))
    )
    return replace(table, values=values)


@st.composite
def perturbed_symmetric_tables(draw) -> CharacterTable:
    """The table of S_k (k <= 7) with one entry moved by a nonzero integer."""
    table = character_table_symmetric(draw(st.integers(1, 7)))
    n, m = len(table.irrep_labels), len(table.class_labels)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    values = [list(row) for row in table.values]
    values[i][j] += draw(nonzero_integers)
    return replace(table, values=tuple(tuple(row) for row in values))


@st.composite
def generic_integer_tables(draw) -> CharacterTable:
    """Small tables with arbitrary integer entries and class sizes; the group
    order is the size sum or, sometimes, an arbitrary positive integer."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    order = draw(st.one_of(st.just(sum(sizes)), st.integers(1, 20)))
    rows = draw(st.lists(st.lists(st.integers(-7, 7), min_size=m, max_size=m).map(tuple),
                         min_size=n, max_size=n))
    return CharacterTable(
        group_order=order,
        class_labels=tuple(f"c{j}" for j in range(m)),
        class_sizes=tuple(sizes),
        irrep_labels=tuple(f"t{i}" for i in range(n)),
        values=tuple(rows),
        identity_index=draw(st.integers(0, m - 1)),
    )


integer_tables = st.one_of(
    scaled_symmetric_tables(), perturbed_symmetric_tables(), generic_integer_tables()
)
