"""Character linear system and the isotype formulas."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import integer_tables

from germlab import (
    EulerOnly,
    IcisDatum,
    InconsistentDataError,
    SingleDim,
    character_table_symmetric,
    check_conservation,
    evaluate_class_function,
    mu_tau,
    solve_character_system,
    tau_betti_single_dim,
    tau_characteristic,
)
from germlab.errors import GermlabError, IncompleteDataError, InvalidInputError
from germlab.isotype import fixed_point_data_from_text

T2 = character_table_symmetric(2)
ALT2 = "(1,1)"
TRIV2 = "(2)"


class TestSolve:
    def test_sphere_with_reflection(self):
        x = solve_character_system(T2, {"(1,1)": 2, "(2)": 0})
        assert x == {TRIV2: 1, ALT2: 1}

    def test_trivial_action(self):
        x = solve_character_system(T2, {"(1,1)": 2, "(2)": 2})
        assert x == {TRIV2: 2, ALT2: 0}

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_regular_representation_gives_degrees(self, k):
        t = character_table_symmetric(k)
        b = {label: 0 for label in t.class_labels}
        b[t.class_labels[t.identity_index]] = t.group_order
        x = solve_character_system(t, b)
        for i, label in enumerate(t.irrep_labels):
            assert x[label] == t.degree(i)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_round_trip_on_random_class_functions(self, k):
        t = character_table_symmetric(k)
        rng = random.Random(20 + k)
        for _ in range(100):
            x = {label: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for label in t.irrep_labels}
            b = evaluate_class_function(t, x)
            assert solve_character_system(t, b) == x


class TestTauCharacteristic:
    def test_sphere_reflection_alternating(self):
        data = {"(1,1)": EulerOnly(2), "(2)": EulerOnly(0)}
        assert tau_characteristic(T2, data, ALT2) == 1

    def test_trivial_rep_on_trivial_action_returns_euler(self):
        data = {"(1,1)": EulerOnly(2), "(2)": EulerOnly(2)}
        assert tau_characteristic(T2, data, TRIV2) == 2

    def test_trivial_rep_is_size_weighted_average(self):
        t = character_table_symmetric(3)
        data = {lbl: EulerOnly(v) for lbl, v in zip(t.class_labels, (3, 1, 7))}
        expected = Fraction(
            sum(size * d.euler for size, d in zip(t.class_sizes, data.values())),
            t.group_order,
        )
        assert tau_characteristic(t, data, "(3)") == expected


class TestTauBetti:
    def test_sphere_reflection(self):
        data = {"(1,1)": SingleDim(2, 1), "(2)": SingleDim(1, 1)}
        assert tau_betti_single_dim(T2, data, ALT2, 2) == 1

    def test_trivial_action_kills_alternating_part(self):
        data = {"(1,1)": SingleDim(2, 1), "(2)": SingleDim(2, 1)}
        assert tau_betti_single_dim(T2, data, ALT2, 2) == 0

    def test_zero_data(self):
        data = {"(1,1)": SingleDim(2, 0), "(2)": SingleDim(1, 0)}
        assert tau_betti_single_dim(T2, data, ALT2, 2) == 0

    def test_nonintegral_flagged_with_value(self):
        data = {"(1,1)": SingleDim(2, 1), "(2)": SingleDim(1, 2)}
        with pytest.raises(InconsistentDataError) as err:
            tau_betti_single_dim(T2, data, ALT2, 2)
        assert err.value.value == Fraction(3, 2)

    def test_constant_connected_component_data_is_trivial_isotype(self):
        # Feeding b = 1 on every class to the solver recovers the inner
        # products <chi_T | chi_tau>: 1 for the trivial character, 0 otherwise.
        for k in (2, 3, 4):
            t = character_table_symmetric(k)
            x = solve_character_system(t, {lbl: 1 for lbl in t.class_labels})
            for label in t.irrep_labels:
                assert x[label] == (1 if label == f"({k})" else 0)


class TestMuTau:
    def test_curve_with_swap_action(self):
        for k in (1, 2, 3):
            data = {"(1,1)": IcisDatum(1, k), "(2)": IcisDatum(0, k)}
            assert mu_tau(T2, data, ALT2, 1) == k

    def test_all_zero(self):
        data = {"(1,1)": IcisDatum(1, 0), "(2)": IcisDatum(0, 0)}
        for tau in (ALT2, TRIV2):
            assert mu_tau(T2, data, tau, 1) == 0

    def test_negative_supplied_dimension_with_point_datum(self):
        # mu even makes the value non-integral; the exact value rides along.
        for mu, ok in ((3, True), (4, False)):
            data = {"(1,1)": IcisDatum(1, mu), "(2)": IcisDatum(-1, -1)}
            if ok:
                assert mu_tau(T2, data, ALT2, 1) == Fraction(mu + 1, 2)
            else:
                with pytest.raises(InconsistentDataError) as err:
                    mu_tau(T2, data, ALT2, 1)
                assert err.value.value == Fraction(mu + 1, 2)

    def test_free_orbit_rule(self):
        # Empty fixed loci for every nonidentity class: mu^tau is
        # degree(tau) * mu / k!.
        t = character_table_symmetric(3)
        mu = 12
        data = {lbl: IcisDatum(0, 0) for lbl in t.class_labels}
        data["(1,1,1)"] = IcisDatum(2, mu)
        for i, label in enumerate(t.irrep_labels):
            assert mu_tau(t, data, label, 2) == Fraction(int(t.degree(i)) * mu, 6)


@st.composite
def symmetric_signed_data(draw):
    """S_2..S_6, a top dimension d and per-class (dim, value) integers; the
    identity class has dimension d unless a coin says otherwise."""
    table = character_table_symmetric(draw(st.integers(2, 6)))
    m = len(table.class_labels)
    dims = draw(st.lists(st.integers(-1, 3), min_size=m, max_size=m))
    values = draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))
    d = draw(st.integers(0, 3))
    if draw(st.booleans()):
        dims[table.identity_index] = d
    return table, list(zip(table.class_labels, dims, values)), d


def outcome(call):
    """The value returned, or the class of the error raised with the value
    it carries."""
    try:
        return call()
    except GermlabError as exc:
        return type(exc), getattr(exc, "value", None)


class TestOneSignedSum:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_signed_data())
    def test_single_dim_and_icis_data_agree(self, case):
        # beta_d^tau and mu^tau are one formula on (dim, value) data.
        table, rows, d = case
        single = {label: SingleDim(dim, v) for label, dim, v in rows}
        icis = {label: IcisDatum(dim, v) for label, dim, v in rows}
        for tau in table.irrep_labels:
            assert outcome(lambda: tau_betti_single_dim(table, single, tau, d)) == outcome(
                lambda: mu_tau(table, icis, tau, d)
            )


class TestConservation:
    def test_morsified_cusp(self):
        # mu = 2 splitting into two nodes with no residual homology.
        verdict = check_conservation(2, 0, [1, 1], 1)
        assert verdict.holds and verdict.semicontinuity_ok

    def test_identity_family(self):
        verdict = check_conservation(5, 0, [5], 1)
        assert verdict.holds

    def test_fabricated_violation(self):
        verdict = check_conservation(2, 0, [1], 1)
        assert not verdict.holds
        assert verdict.difference == 1

    def test_zero_dimensional_variant(self):
        # mu(X_0) = beta_0(X_t) + sum local - beta_0(X_0).
        verdict = check_conservation(2, None, [0], 0, beta0_tau_xt=3, beta0_tau_x0=1)
        assert verdict.holds

    def test_zero_dimensional_requires_beta0_terms(self):
        with pytest.raises(IncompleteDataError):
            check_conservation(2, 0, [0], 0)

    @pytest.mark.parametrize("term", ["beta0_tau_xt", "beta0_tau_x0"])
    def test_positive_dimension_refuses_beta0_terms(self, term):
        # Each term was dropped without a word: the verdict was that of the
        # morsified cusp without it.
        with pytest.raises(InvalidInputError, match=f"d = 1 conservation takes no {term} term"):
            check_conservation(2, 0, [1, 1], 1, **{term: 5})

    def test_zero_dimension_refuses_the_top_betti_term(self):
        # It was dropped without a word: any value gave the verdict above.
        with pytest.raises(InvalidInputError, match="d = 0 conservation takes no betti_tau_xt"):
            check_conservation(2, 7, [0], 0, beta0_tau_xt=3, beta0_tau_x0=1)

    def test_positive_dimension_requires_the_top_betti_term(self):
        with pytest.raises(IncompleteDataError, match="d = 1 conservation needs the betti_tau_xt"):
            check_conservation(2, None, [1, 1], 1)

    def test_semicontinuity_flag(self):
        verdict = check_conservation(2, -1, [3], 1)
        assert not verdict.semicontinuity_ok


class TestFixedPointFiles:
    def test_euler_file(self):
        f = fixed_point_data_from_text(
            "# sphere with reflection\nclass (1,1) euler 2\nclass (2) euler 0\n"
        )
        assert f.kind == "euler"
        assert tau_characteristic(T2, f.data, ALT2) == 1

    def test_single_dim_file_with_top_dim(self):
        f = fixed_point_data_from_text(
            "top_dim 2\nclass (1,1) single 2 1\nclass (2) single 1 1\n"
        )
        assert f.top_dim == 2
        assert tau_betti_single_dim(T2, f.data, ALT2, 2) == 1

    def test_mixed_kinds_rejected(self):
        with pytest.raises(Exception):
            fixed_point_data_from_text(
                "class (1,1) euler 2\nclass (2) single 1 1\n"
            )

    def test_bad_records_are_input_errors(self):
        for text in ("class a euler x\n", "top_dim x\nclass a euler 1\n", "top_dim\n",
                     "class a single 1 y\n", "class a euler 1 2\n"):
            with pytest.raises(InvalidInputError):
                fixed_point_data_from_text(text)

    def test_repeated_class_record_rejected(self):
        with pytest.raises(InvalidInputError, match="repeated"):
            fixed_point_data_from_text("class a euler 1\nclass a euler 2\n")


# -- integer class sums against the Fraction loops -----------------------------
#
# The loops below are the per-term Fraction code the integer helper replaced,
# kept as the reference.


def fraction_solve(table, b):
    out = {}
    for label, row in zip(table.irrep_labels, table.values):
        acc = Fraction(0)
        for cls, size, chi in zip(table.class_labels, table.class_sizes, row):
            acc += size * chi * Fraction(b[cls])
        out[label] = acc / table.group_order
    return out


def fraction_evaluate(table, x):
    out = {}
    for j, cls in enumerate(table.class_labels):
        acc = Fraction(0)
        for label, row in zip(table.irrep_labels, table.values):
            acc += row[j] * Fraction(x[label])
        out[cls] = acc
    return out


def fraction_class_sum(table, tau, values):
    """(1/|G|) sum size * chi_tau * value: tau_characteristic's loop, and that
    of tau_betti_single_dim and mu_tau on the signed values."""
    acc = Fraction(0)
    for size, chi, value in zip(table.class_sizes, table.row(tau), values):
        acc += size * chi * value
    return acc / table.group_order


def exact(call):
    """The int returned, or the exact value carried by InconsistentDataError."""
    try:
        value = call()
    except InconsistentDataError as exc:
        assert type(exc.value) is Fraction
        return exc.value
    assert type(value) is int
    return value


numbers = st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30),
                                                    st.integers(1, 8)))


@st.composite
def tables_with_data(draw):
    table = draw(integer_tables)
    m, n = len(table.class_labels), len(table.irrep_labels)
    by_class = dict(zip(table.class_labels, draw(st.lists(numbers, min_size=m, max_size=m))))
    by_irrep = dict(zip(table.irrep_labels, draw(st.lists(numbers, min_size=n, max_size=n))))
    ints = draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))
    dims = draw(st.lists(st.integers(-1, 3), min_size=m, max_size=m))
    d = draw(st.integers(0, 3))
    dims[table.identity_index] = d
    return table, by_class, by_irrep, ints, dims, d


class TestIntegerClassSums:
    @settings(max_examples=300, deadline=None)
    @given(tables_with_data())
    def test_same_fractions_as_the_reference_loops(self, case):
        table, by_class, by_irrep, ints, dims, d = case
        labels = table.class_labels
        solved = solve_character_system(table, by_class)
        evaluated = evaluate_class_function(table, by_irrep)
        assert solved == fraction_solve(table, by_class)
        assert evaluated == fraction_evaluate(table, by_irrep)
        assert {type(v) for v in [*solved.values(), *evaluated.values()]} == {Fraction}
        signs = [-1 if (d - dim) % 2 else 1 for dim in dims]
        euler = {c: EulerOnly(v) for c, v in zip(labels, ints)}
        single = {c: SingleDim(dim, v) for c, dim, v in zip(labels, dims, ints)}
        icis = {c: IcisDatum(dim, v) for c, dim, v in zip(labels, dims, ints)}
        for tau in table.irrep_labels:
            plain = fraction_class_sum(table, tau, ints)
            signed = fraction_class_sum(table, tau, [s * v for s, v in zip(signs, ints)])
            chi = tau_characteristic(table, euler, tau)
            assert chi == plain and type(chi) is Fraction
            assert exact(lambda: tau_betti_single_dim(table, single, tau, d)) == signed
            assert exact(lambda: mu_tau(table, icis, tau, d)) == signed

    @pytest.mark.parametrize("k", [9, 10])
    def test_integer_data_on_symmetric_tables(self, k):
        t = character_table_symmetric(k)
        rng = random.Random(k)
        b = {label: rng.randint(-50, 50) for label in t.class_labels}
        assert solve_character_system(t, b) == fraction_solve(t, b)
        euler = {label: EulerOnly(v) for label, v in b.items()}
        for tau in t.irrep_labels:
            assert tau_characteristic(t, euler, tau) == fraction_class_sum(
                t, tau, list(b.values())
            )
