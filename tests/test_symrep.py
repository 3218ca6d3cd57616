"""Partitions, class data, and character tables, against brute-force oracles."""

from __future__ import annotations

import itertools
import re
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mn_betas import mn_char
from strategies import integer_tables
from tabloid_table import brute_force_table

from germlab import (
    CharacterTable,
    InconsistentDataError,
    InvalidInputError,
    Partition,
    character_table_symmetric,
    class_size,
    partitions,
    sign_of_class,
    table_from_text,
)
from germlab import multipoint as mp
from germlab import symrep
from germlab.poly import parse_integer, parse_integer_fields, parse_rational


class TestPartitions:
    def test_k2(self):
        assert [p.parts for p in partitions(2)] == [(2,), (1, 1)]

    def test_k3(self):
        assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]

    def test_k5_count(self):
        assert len(partitions(5)) == 7

    def test_bound(self):
        with pytest.raises(Exception):
            partitions(13)

    def test_built_once_per_k(self):
        first = partitions(7)
        assert isinstance(first, tuple)
        assert partitions(7) is first

    @pytest.mark.parametrize("k", [0, 13])
    def test_out_of_range_is_an_input_error(self, k):
        with pytest.raises(InvalidInputError):
            partitions(k)


class TestClassData:
    def test_identity_class_size(self):
        for k in range(1, 7):
            assert class_size(Partition((1,) * k)) == 1

    def test_transposition_class_in_s3(self):
        assert class_size(Partition((2, 1))) == 3

    def test_three_cycles_in_s3(self):
        assert class_size(Partition((3,))) == 2

    def test_sizes_sum_to_group_order(self):
        for k in range(1, 9):
            assert sum(class_size(p) for p in partitions(k)) == factorial(k)

    def test_signs(self):
        assert sign_of_class(Partition((1, 1, 1, 1))) == 1
        assert sign_of_class(Partition((2, 1))) == -1
        assert sign_of_class(Partition((3,))) == 1


class TestCharacterTable:
    def test_s2_rows(self):
        t = character_table_symmetric(2)
        assert t.row("(2)") == (Fraction(1), Fraction(1))
        # classes in table order: (2), (1,1)
        assert t.row("(1,1)") == (Fraction(-1), Fraction(1))

    def test_standard_representation_row_of_s3(self):
        t = character_table_symmetric(3)
        row = t.row("(2,1)")
        by_class = dict(zip(t.class_labels, row))
        assert by_class["(1,1,1)"] == 2
        assert by_class["(2,1)"] == 0
        assert by_class["(3)"] == -1

    def test_sign_row_of_s4_matches_sign_of_class(self):
        t = character_table_symmetric(4)
        row = dict(zip(t.class_labels, t.row("(1,1,1,1)")))
        for cls in partitions(4):
            assert row[cls.label()] == sign_of_class(cls)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_orthogonality_and_degree_sum(self, k):
        t = character_table_symmetric(k)
        t.validate()  # row orthogonality, exact
        n = len(t.irrep_labels)
        # column orthogonality
        for a in range(n):
            for b in range(a, n):
                acc = sum(t.values[i][a] * t.values[i][b] for i in range(n))
                if a == b:
                    assert acc == t.group_order / t.class_sizes[a]
                else:
                    assert acc == 0
        assert sum(int(t.degree(i)) ** 2 for i in range(n)) == factorial(k)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_generated_table_validates(self, k):
        # character_table_symmetric does not validate at run time; this does.
        character_table_symmetric(k).validate()

    def test_s12_from_a_cleared_column_cache(self):
        symrep._column.cache_clear()
        character_table_symmetric.cache_clear()
        cold = character_table_symmetric(12)
        symrep._column.cache_clear()
        character_table_symmetric.cache_clear()
        for k in range(1, 12):
            character_table_symmetric(k)
        assert character_table_symmetric(12) == cold

    def test_columns_reached_by_removing_the_longest_cycle_first(self):
        # A deterministic work counter for the recursion order: removing the
        # longest cycle first reaches 154 columns for S_12 (272 removing the
        # shortest), and 263 for S_9..S_12 built in turn (272).
        def columns_after(ks):
            symrep._column.cache_clear()
            character_table_symmetric.cache_clear()
            for k in ks:
                character_table_symmetric(k)
            return symrep._column.cache_info().currsize

        assert columns_after([12]) == 154
        assert columns_after(range(9, 13)) == 263

    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_brute_force_oracle(self, k):
        oracle = brute_force_table(k)
        t = character_table_symmetric(k)
        for lam, chi in oracle.items():
            row = dict(zip(t.class_labels, t.row(Partition(lam).label())))
            for cls, value in chi.items():
                assert row[Partition(cls).label()] == value

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_the_beta_number_reference(self, k):
        t = character_table_symmetric(k)
        parts = partitions(k)
        assert t.values == tuple(
            tuple(Fraction(mn_char(irrep.parts, cls.parts)) for cls in parts) for irrep in parts
        )

    def test_supported_bound(self):
        table = character_table_symmetric(12)
        assert len(table.irrep_labels) == 77
        with pytest.raises(Exception):
            character_table_symmetric(13)

    def test_trivial_and_sign_distinguished(self):
        # Found by label: the row of (k) is all ones, the row of (1^k) is the
        # sign of each class.
        for k in range(1, symrep.MAX_SYMMETRIC_K + 1):
            t = character_table_symmetric(k)
            assert t.row(f"({k})") == (1,) * len(t.class_labels)
            sign = t.row(Partition((1,) * k).label())
            assert sign == tuple(sign_of_class(cls) for cls in partitions(k))


class TestParityLemma:
    def test_sign_equals_dimension_parity(self):
        # (-1)^(d_k - d_k^sigma) = sgn(sigma) across all shapes and dimension
        # pairs n < p <= 2n, n <= 10, k <= 8.
        for k in range(2, 9):
            for shape in partitions(k):
                sign = sign_of_class(shape)
                for n in range(2, 11):
                    for p in range(n + 1, 2 * n + 1):
                        d_k = mp.expected_dim(n, p, k)
                        d_sigma = mp.expected_dim_sigma(n, p, k, shape)
                        assert (-1) ** (d_k - d_sigma) == sign


class TestGenericTableIO:
    def test_round_trip(self):
        t = character_table_symmetric(3)
        again = table_from_text(t.to_text())
        assert again.values == t.values
        assert again.class_labels == t.class_labels
        assert again.identity_index == t.identity_index

    def test_inconsistent_table_rejected(self):
        bad = """
group_order 2
class id 1
class swap 1
irrep triv 1 1
irrep other 1 1
"""
        with pytest.raises(InconsistentDataError):
            table_from_text(bad)

    def test_missing_irreducible_rejected(self):
        # Accepted before: S_3 without (2,1) passes row orthogonality, and
        # the isotype of (2,1) was silently dropped.
        t = character_table_symmetric(3)
        short = replace(t, irrep_labels=("(3)", "(1,1,1)"), values=(t.values[0], t.values[2]))
        message = "2 irreducibles for 3 classes"
        with pytest.raises(InconsistentDataError, match=re.escape(message)):
            short.validate()
        with pytest.raises(InconsistentDataError, match=re.escape(message)):
            table_from_text(short.to_text())

    def test_duplicate_class_label_rejected(self):
        # Accepted before: one irreducible was lost and the datum of the
        # repeated class counted twice.
        with pytest.raises(InvalidInputError, match="repeated class label 'a'"):
            table_from_text("group_order 2\nclass a 1\nclass a 1\nirrep t 1 1\nirrep u 1 -1\n")

    def test_duplicate_irrep_label_rejected(self):
        with pytest.raises(InvalidInputError, match="repeated irreducible label 't'"):
            table_from_text("group_order 2\nclass a 1\nclass b 1\nirrep t 1 1\nirrep t 1 -1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "group_order abc\nclass a 1\nirrep t 1\n",
            "group_order\nclass a 1\nirrep t 1\n",
            "group_order 1\nclass a x\nirrep t 1\n",
            "group_order 1\nclass a 0\nirrep t 1\n",
            "group_order 1\nclass a 1\nirrep t 1/0\n",
        ],
        ids=["order-not-a-number", "order-missing", "size-not-a-number", "size-zero", "zero-den"],
    )
    def test_bad_numbers_and_missing_fields_are_input_errors(self, text):
        with pytest.raises(InvalidInputError):
            table_from_text(text)

    def test_short_row_is_ragged_not_an_index_error(self):
        with pytest.raises(InconsistentDataError, match="ragged"):
            table_from_text("group_order 2\nclass a 1\nclass b 1\nirrep t 1 1\nirrep u 1\n")

    def test_unknown_irreducible_is_an_input_error(self):
        with pytest.raises(InvalidInputError, match="unknown irreducible"):
            character_table_symmetric(3).row("(4)")


def swapped_s4_labels():
    t = character_table_symmetric(4)
    labels = list(t.irrep_labels)
    labels[0], labels[-1] = labels[-1], labels[0]
    return replace(t, irrep_labels=tuple(labels))


def permuted_s4_rows():
    t = character_table_symmetric(4)
    return replace(t, irrep_labels=t.irrep_labels[::-1], values=t.values[::-1])


class TestNearSymmetricTables:
    """An S_4 table with one value, size, label or row order changed is
    validated on load and gets the verdict it always had."""

    @pytest.fixture()
    def validate_calls(self, monkeypatch):
        calls = []
        original = CharacterTable.validate

        def spy(table):
            calls.append(table)
            original(table)

        monkeypatch.setattr(CharacterTable, "validate", spy)
        return calls

    @pytest.mark.parametrize(
        "old, new, message, value",
        [
            ("irrep (3,1) -1 0 -1 1 3\n", "irrep (3,1) -1 0 -1 2 3\n",
             "row orthogonality fails for irreducibles 0 and 1", 6),
            ("class (2,2) 3\n", "class (2,2) 4\n",
             "class sizes do not sum to the group order", None),
        ],
        ids=["one-value", "one-class-size"],
    )
    def test_a_changed_s4_table_is_validated_and_refused(self, validate_calls, old, new,
                                                         message, value):
        text = character_table_symmetric(4).to_text()
        assert old in text
        with pytest.raises(InconsistentDataError) as exc:
            table_from_text(text.replace(old, new))
        assert (type(exc.value), str(exc.value), exc.value.value) == (
            InconsistentDataError, message, value)
        assert len(validate_calls) == 1

    @pytest.mark.parametrize("variant", [swapped_s4_labels, permuted_s4_rows],
                             ids=["two-labels-swapped", "rows-permuted"])
    def test_a_reordered_s4_table_is_validated_and_accepted(self, validate_calls, variant):
        table = variant()
        assert table != character_table_symmetric(4)
        again = table_from_text(table.to_text())
        assert again == table
        assert validate_calls == [again]


def rows_orthogonal(table: CharacterTable) -> bool:
    return symrep._rows_orthogonal(table.group_order, table.class_sizes, table.values)


def pairs_hold(table: CharacterTable) -> bool:
    """Row orthogonality summed pair by pair, in exact arithmetic."""
    n = len(table.values)
    return all(
        sum(size * a * b for size, a, b in zip(table.class_sizes, table.values[i],
                                                table.values[j]))
        == (table.group_order if i == j else 0)
        for i in range(n) for j in range(n)
    )


class TestRowsOrthogonal:
    """The O(c^2) evaluation at powers of t decides row orthogonality exactly
    as the pairwise sums do."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_generated_tables_pass_both_checks(self, k):
        t = character_table_symmetric(k)
        assert rows_orthogonal(t)
        assert pairs_hold(t)

    @settings(max_examples=400, deadline=None)
    @given(integer_tables)
    def test_matches_the_pairwise_check(self, table):
        if sum(table.class_sizes) == table.group_order:
            assert rows_orthogonal(table) == pairs_hold(table)

    @pytest.mark.parametrize("delta", [1, -1, 24])
    def test_every_single_entry_change_of_s4_fails(self, delta):
        t = character_table_symmetric(4)
        for i, j in itertools.product(range(5), repeat=2):
            values = [list(row) for row in t.values]
            values[i][j] += delta
            assert not rows_orthogonal(replace(t, values=tuple(map(tuple, values))))

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (1, 3)])
    def test_every_small_two_class_table(self, sizes):
        # Every integer table with entries in -3..3, orthogonal or not.
        for entries in itertools.product(range(-3, 4), repeat=4):
            t = CharacterTable(group_order=sum(sizes), class_labels=("a", "b"),
                               class_sizes=sizes, irrep_labels=("x", "y"),
                               values=(entries[:2], entries[2:]))
            assert rows_orthogonal(t) == pairs_hold(t), entries

    def test_a_non_positive_size_leaves_the_decision_to_the_pairs(self):
        # Cauchy-Schwarz needs positive sizes; with (3, -1) the evaluation
        # declines and the pairwise sums refuse the first failing pair.
        t = CharacterTable(group_order=2, class_labels=("a", "b"), class_sizes=(3, -1),
                           irrep_labels=("x", "y"), values=((1, 1), (1, 2)))
        assert not rows_orthogonal(t)
        assert verdict(CharacterTable.validate, t) == (
            "row orthogonality fails for irreducibles 0 and 1", 1, int)


# -- integer kernel against the Fraction loop ---------------------------------


def fraction_validate(table: CharacterTable):
    """Row orthogonality with one Fraction multiply-add per (pair, class):
    the reference for the integer kernel in CharacterTable.validate."""
    if sum(table.class_sizes) != table.group_order:
        raise InconsistentDataError("class sizes do not sum to the group order")
    if any(len(r) != len(table.class_labels) for r in table.values):
        raise InconsistentDataError("ragged character table")
    n = len(table.irrep_labels)
    if n != len(table.class_labels):
        raise InconsistentDataError(f"{n} irreducibles for {len(table.class_labels)} classes")
    for row in table.values:
        for v in row:
            if type(v) is not int:
                raise InconsistentDataError(f"character value {v} is not an integer", value=v)
    for i in range(n):
        for j in range(i, n):
            acc = Fraction(0)
            for size, a, b in zip(table.class_sizes, table.values[i], table.values[j]):
                acc += size * a * b
            expected = table.group_order if i == j else 0
            if acc != expected:
                # Every value is an int, so the sum is an integer.
                assert acc.denominator == 1
                raise InconsistentDataError(
                    f"row orthogonality fails for irreducibles {i} and {j}", value=int(acc)
                )
    for i in range(n):
        if table.degree(i) <= 0:
            raise InconsistentDataError("non-positive degree in character table")


def verdict(check, table):
    try:
        check(table)
    except InconsistentDataError as exc:
        return str(exc), exc.value, type(exc.value)
    return None


def halved_s3():
    t = character_table_symmetric(3)
    return replace(t, values=tuple(tuple(Fraction(v, 2) for v in row) for row in t.values))


def third_added_in_s5():
    t = character_table_symmetric(5)
    values = [list(row) for row in t.values]
    values[2][3] += Fraction(1, 3)
    return replace(t, values=tuple(map(tuple, values)))


def fractions_in_s2():
    return replace(
        character_table_symmetric(2),
        values=((Fraction(1, 2), Fraction(-1, 3)), (Fraction(4), Fraction(-2, 4))),
    )


def integral_fraction_in_s2():
    return replace(character_table_symmetric(2), values=((1, 1), (Fraction(-1), 1)))


class TestIntegerKernel:
    @settings(max_examples=400, deadline=None)
    @given(integer_tables)
    def test_validate_matches_fraction_reference(self, table):
        assert verdict(CharacterTable.validate, table) == verdict(fraction_validate, table)

    @pytest.mark.parametrize("build, i, j", [
        (halved_s3, 0, 0),
        (third_added_in_s5, 2, 3),
        (fractions_in_s2, 0, 0),
        (integral_fraction_in_s2, 1, 0),
    ], ids=["halved", "third-added", "fractions", "integral-fraction"])
    def test_a_value_that_is_no_int_is_refused(self, build, i, j):
        # A character value is a sum of roots of unity, so a rational one is
        # an integer; a table holding a Fraction is no finite group's, even
        # when the Fraction is integral.  The first one, values[i][j], is named.
        table = build()
        value = table.values[i][j]
        expected = (f"character value {value} is not an integer", value, Fraction)
        assert verdict(CharacterTable.validate, table) == expected
        assert verdict(fraction_validate, table) == expected


class TestIntegerValues:
    """S_k values stay ints from Murnaghan-Nakayama through a text round trip;
    a field written a/b is an input error."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_generated_values_are_ints(self, k):
        t = character_table_symmetric(k)
        assert all(type(v) is int for row in t.values for v in row)
        assert type(t.degree(0)) is int

    @pytest.mark.parametrize("k", range(1, 13))
    def test_text_round_trip_keeps_ints(self, k):
        t = character_table_symmetric(k)
        again = table_from_text(t.to_text())
        assert again == t
        assert all(type(v) is int for row in again.values for v in row)

    @pytest.mark.parametrize(
        "field",
        ["-2/2", "+3/-3", "1/2", "-1/3", "0/7"],
        ids=["minus-one", "bad-denominator", "half", "third", "zero"],
    )
    def test_a_rational_field_is_an_input_error(self, field):
        # The (2,1) row of S_3 is "-1 0 2"; its first entry is rewritten.
        # Even "-2/2" and "0/7", which equal integers, are refused: a value
        # is one integer literal.
        t = character_table_symmetric(3)
        text = t.to_text().replace("irrep (2,1) -1 0 2\n", f"irrep (2,1) {field} 0 2\n")
        assert text != t.to_text()
        with pytest.raises(InvalidInputError) as exc:
            table_from_text(text)
        assert str(exc.value) == f"bad character value {field!r}"


REJECTED = "rejected"

# Each literal with what the grammar [+-]?[0-9]+(/[0-9]+)? makes of it.
LITERALS = {
    "1": Fraction(1), "+5": Fraction(5), "-0": Fraction(0), "007": Fraction(7),
    "0/5": Fraction(0), "-3/6": Fraction(-1, 2), "+12/8": Fraction(3, 2),
    "1/0": REJECTED, "-0/00": REJECTED, "1_0": REJECTED, "_1": REJECTED, "1__0": REJECTED,
    "1.5": REJECTED, "1e3": REJECTED, "1e20000000": REJECTED, "0e600010": REJECTED,
    "\u0661\u0662": REJECTED, "\u00b2": REJECTED, "": REJECTED, "+": REJECTED, "-": REJECTED,
    "--1": REJECTED, "0x10": REJECTED, "1/-2": REJECTED, "1/+2": REJECTED, "1/2/3": REJECTED,
    " 1": REJECTED, "1\n": REJECTED, "inf": REJECTED, "nan": REJECTED,
}


def grammar_reference(text: str):
    """The documented grammar, spelled as a regular expression."""
    if not re.fullmatch("[+-]?[0-9]+(/[0-9]+)?", text):
        return REJECTED
    num, _, den = text.partition("/")
    return REJECTED if den and int(den) == 0 else Fraction(int(num), int(den or 1))


class TestRationalLiterals:
    @staticmethod
    def outcome(text):
        try:
            return parse_rational(text)
        except InvalidInputError:
            return REJECTED

    @pytest.mark.parametrize("text", LITERALS)
    def test_pinned_literals_match_fraction(self, text):
        # The grammar accepts a subset of what Fraction parses, with Fraction's value.
        assert self.outcome(text) == grammar_reference(text) == LITERALS[text]
        if LITERALS[text] is not REJECTED:
            assert LITERALS[text] == Fraction(text)

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789+-/._e \u0661\u00b2\n", max_size=8))
    def test_accepts_exactly_the_grammar(self, text):
        assert self.outcome(text) == grammar_reference(text)

    def test_too_many_digits_is_an_input_error(self):
        # int() converts at most 4300 digits; the literal is rejected, not a traceback.
        assert self.outcome("1" * 5000) == REJECTED
        assert self.outcome("7" * 400) == Fraction(int("7" * 400))


def fields_outcome(read, fields):
    """The values with their types, or the message of the InvalidInputError."""
    try:
        values = read(fields)
    except InvalidInputError as exc:
        return str(exc)
    return values, tuple(map(type, values))


def fields_reference(fields):
    """Field by field, as parse_integer reads each."""
    return tuple(parse_integer(f, "character value") for f in fields)


def read_fields(fields):
    return parse_integer_fields(fields, "character value")


class TestIntegerFields:
    @settings(max_examples=300)
    @given(st.lists(st.text(alphabet="0123456789+-/._e \u0661\u00b2", max_size=5),
                    min_size=1, max_size=4))
    def test_reads_each_field_like_parse_integer(self, fields):
        assert fields_outcome(read_fields, fields) == fields_outcome(fields_reference, fields)

    @pytest.mark.parametrize("bad", ["1" * 5000, "1/0", "1/2", "1.5", "1_0", "\u0661"],
                             ids=["too-many-digits", "zero-denominator", "half", "decimal",
                                  "underscore", "arabic-indic"])
    def test_a_bad_field_among_integers_fails_like_parse_integer(self, bad):
        with pytest.raises(InvalidInputError) as exc:
            parse_integer(bad, "character value")
        fields = ["1", "-2", bad, "+3"]
        assert fields_outcome(read_fields, fields) == str(exc.value)
