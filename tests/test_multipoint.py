"""Multiple point spaces, germ analysis, and the contractible-germ generator."""

from __future__ import annotations

import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import (
    InvalidInputError,
    MultiPoly,
    Partition,
    VarSet,
    VarietyClass,
    divided_difference,
    expected_dim,
    expected_dim_sigma,
    fixed_locus_equations,
    generate_sc_germ,
    germ,
    germ_from_text,
    kappa,
    multiple_point_equations,
    parse_poly,
    partitions,
    prop_disg_check,
    sc_dimension_feasible,
    sc_feasibility_report,
)
from germlab import multipoint as mp
from germlab.icis import EMPTY, NOT_ICIS
from germlab.localalg import _integer_terms
from germlab.multipoint import InfeasibleDimensionsError, divided_difference_table
from germlab.poly import ROLE_BASE, ROLE_CORANK

from fraction_table import fixed_generators, full_generators
from ring_generator import ring_sc_germ

CONTRACTIBLE_5_8 = ["y^3+x1*y", "y^4+x2*y", "y^5+x3*y", "x4*y+x1*y^2"]
STABLE_3_5 = ["y^3+x1*y", "y^4+x2*y", "x2*y+y^2"]


class TestExpectedDims:
    def test_values_at_5_8(self):
        assert expected_dim(5, 8, 2) == 2
        assert expected_dim(5, 8, 3) == -1
        assert expected_dim_sigma(5, 8, 2, Partition((2,))) == 1

    def test_kappa(self):
        assert kappa(5, 6) == 6
        assert kappa(2, 3) == 3
        assert kappa(5, 8) == 2

    def test_sigma_dim_bounded_by_full_dim(self):
        for k in range(2, 7):
            for shape in partitions(k):
                for n, p in [(4, 6), (5, 8), (7, 9)]:
                    full = expected_dim(n, p, k)
                    fixed = expected_dim_sigma(n, p, k, shape)
                    assert fixed <= full
                    assert (fixed == full) == (shape.parts == (1,) * k)


class TestEquations:
    def test_double_point_equations_of_5_8_verbatim(self):
        g = germ(5, 8, CONTRACTIBLE_5_8)
        I = multiple_point_equations(g, 2)
        vs = I.ambient
        expected = [
            "x1 + y1^2 + y1*y2 + y2^2",
            "x2 + y1^3 + y1^2*y2 + y1*y2^2 + y2^3",
            "x3 + y1^4 + y1^3*y2 + y1^2*y2^2 + y1*y2^3 + y2^4",
            "x4 + x1*(y1 + y2)",
        ]
        assert list(I.generators) == [parse_poly(t, vs) for t in expected]

    def test_triple_point_equations_add_four_more(self):
        g = germ(5, 8, CONTRACTIBLE_5_8)
        I = multiple_point_equations(g, 3)
        vs = I.ambient
        new = [
            "y1 + y2 + y3",
            "y1^2 + y1*y2 + y1*y3 + y2^2 + y2*y3 + y3^2",
            "y1^3 + y1^2*y2 + y1^2*y3 + y1*y2^2 + y1*y2*y3 + y1*y3^2"
            " + y2^3 + y2^2*y3 + y2*y3^2 + y3^3",
            "x1",
        ]
        assert len(I.generators) == 8
        assert list(I.generators)[4:] == [parse_poly(t, vs) for t in new]

    def test_double_point_equations_of_3_5_verbatim(self):
        g = germ(3, 5, STABLE_3_5)
        I = multiple_point_equations(g, 2)
        vs = I.ambient
        expected = [
            "x1 + y1^2 + y1*y2 + y2^2",
            "x2 + y1^3 + y1^2*y2 + y1*y2^2 + y2^3",
            "x2 + y1 + y2",
        ]
        assert list(I.generators) == [parse_poly(t, vs) for t in expected]
        # the next level contains a unit, so no triple points exist
        assert multiple_point_equations(g, 3).contains_unit()

    def test_crosscap_double_points(self):
        g = germ(2, 3, ["y^2", "x1*y"])
        I = multiple_point_equations(g, 2)
        vs = I.ambient
        assert list(I.generators) == [parse_poly("y1 + y2", vs), parse_poly("x1", vs)]

    def test_equation_count_is_m_times_levels(self):
        for n, p, comps in [(5, 8, CONTRACTIBLE_5_8), (3, 5, STABLE_3_5)]:
            g = germ(n, p, comps)
            for k in (2, 3):
                _, _, rows = divided_difference_table(g, k)
                assert sum(len(r) for r in rows) == (p - n + 1) * (k - 1)

    def test_practical_bound(self):
        g = germ(5, 8, CONTRACTIBLE_5_8)
        with pytest.raises(InvalidInputError):
            multiple_point_equations(g, 4)  # kappa + 1 = 3


class TestFixedLoci:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_family_diagonal_locus(self, k):
        g = germ(2, 3, ["y^2", f"y^3+x1^{k + 1}*y"])
        I = fixed_locus_equations(g, 2, Partition((2,)))
        vs = I.ambient
        assert list(I.generators) == [
            parse_poly("2*z1", vs),
            parse_poly(f"3*z1^2 + x1^{k + 1}", vs),
        ]
        assert I.quotient_dimension() == k + 1

    def test_identity_shape_matches_full_equations(self):
        g = germ(3, 5, STABLE_3_5)
        full = multiple_point_equations(g, 2)
        fixed = fixed_locus_equations(g, 2, Partition((1, 1)))
        assert [p.terms for p in full.generators] == [p.terms for p in fixed.generators]

    def test_diagonal_locus_of_5_8_contains_origin(self):
        g = germ(5, 8, CONTRACTIBLE_5_8)
        I = fixed_locus_equations(g, 2, Partition((2,)))
        assert not I.contains_unit()
        assert all(gen.constant_term() == 0 for gen in I.generators)


def _reference_table(g, k):
    """The divided-difference table with y -> y1 done by polynomial substitution."""
    y = tuple(f"{g.corank_name}{i}" for i in range(1, k + 1))
    amb = VarSet(g.base_names + y, (ROLE_BASE,) * len(g.base_names) + (ROLE_CORANK,) * k)
    current = [
        h.substitute({g.corank_name: MultiPoly.variable(amb, y[0])}, target=amb)
        for h in g.components
    ]
    rows = []
    for j in range(1, k):
        current = [divided_difference(q, y[j - 1], y[j]) for q in current]
        rows.append(current)
    return rows, amb


def _reference_fixed_locus(g, k, shape):
    """Fixed-locus generators by substituting y_i -> z_{cycle(i)} into the table."""
    rows, _ = _reference_table(g, k)
    z = tuple(f"z{i}" for i in range(1, shape.cycle_count + 1))
    target = VarSet(g.base_names + z, (ROLE_BASE,) * len(g.base_names) + (ROLE_CORANK,) * len(z))
    cycle = [c for c, length in enumerate(shape.parts) for _ in range(length)]
    bindings = {
        f"{g.corank_name}{i + 1}": MultiPoly.variable(target, z[cycle[i]]) for i in range(k)
    }
    return [q.substitute(bindings, target=target) for row in rows for q in row], target


def _term_maps(gens):
    return [q.terms for q in gens if not q.is_zero()]


@st.composite
def small_germs(draw, coefficients=st.integers(-3, 3), scales=st.just(1)):
    """Germs with n <= 4, p <= 7 and components of degree <= 5, each
    component's coefficients drawn from ``coefficients`` and then multiplied
    by one factor drawn from ``scales``."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(n + 1, 7))
    base = tuple(f"x{i}" for i in range(1, n))
    vs = VarSet(base + ("y",), (ROLE_BASE,) * (n - 1) + (ROLE_CORANK,))

    def monomial():
        left = draw(st.integers(1, 5))
        exp = []
        for _ in base:
            e = draw(st.integers(0, left))
            exp.append(e)
            left -= e
        return tuple(exp) + (left,)

    comps = []
    for _ in range(p - n + 1):
        size = draw(st.integers(0, 4))
        scale = draw(scales)
        comps.append(MultiPoly(vs, {monomial(): scale * draw(coefficients) for _ in range(size)}))
    return mp.GermSpec(n, p, base, "y", tuple(comps))


# Rational coefficients, and components whose coefficients share a factor.
rational_germs = small_germs(
    st.fractions(-3, 3, max_denominator=4),
    st.sampled_from([1, 2, 6, Fraction(1, 3), Fraction(5, 4), Fraction(-7, 2)]),
)


class TestEquationsAgainstSubstitution:
    @settings(max_examples=60, deadline=None)
    @given(small_germs())
    def test_fixed_loci_and_cells_match_substitution(self, g):
        kap = kappa(g.n, g.p)
        for k in range(2, kap + 1):
            for shape in partitions(k):
                gens, target = _reference_fixed_locus(g, k, shape)
                I = fixed_locus_equations(g, k, shape)
                assert I.ambient == target
                assert _term_maps(I.generators) == _term_maps(gens)
        # Only the cell ideals are under test here, so classification is stubbed.
        verdict = VarietyClass(NOT_ICIS)
        with mock.patch.object(mp.icis, "classify", lambda ideal, e_dim, seed: verdict):
            an = mp.analyze_germ(g)
        assert len(an.cells) == sum(len(partitions(k)) for k in range(2, kap + 1)) + 1
        for (k, parts), cell in an.cells.items():
            rows, amb = _reference_table(g, k)
            if parts == (1,) * k:
                gens, target = [q for row in rows for q in row], amb
            else:
                gens, target = _reference_fixed_locus(g, k, Partition(parts))
            assert cell.ideal.ambient == target
            assert _term_maps(cell.ideal.generators) == _term_maps(gens)


def assert_matches_fraction_table(ideal, target, gens):
    """The cell's integer term maps and its generators against the Fraction
    reference, dict order included."""
    assert ideal.ambient == target
    assert [list(h.items()) for h in ideal._terms] == [
        list(_integer_terms(q).items()) for q in gens
    ]
    assert [list(q.terms.items()) for q in ideal.generators] == [
        list(q.terms.items()) for q in gens
    ]


class TestIntegerTable:
    """The integer divided-difference table against the Fraction one."""

    @settings(max_examples=80, deadline=None)
    @given(rational_germs)
    def test_cells_and_builders_match_the_fraction_table(self, g):
        kap = kappa(g.n, g.p)
        verdict = VarietyClass(NOT_ICIS)
        with mock.patch.object(mp.icis, "classify", lambda ideal, e_dim, seed: verdict):
            an = mp.analyze_germ(g)
        for (k, parts), cell in an.cells.items():
            if parts == (1,) * k:
                assert_matches_fraction_table(cell.ideal, *full_generators(g, k))
            else:
                assert_matches_fraction_table(
                    cell.ideal, *fixed_generators(g, k, Partition(parts))
                )
        for k in range(2, kap + 2):
            assert_matches_fraction_table(
                multiple_point_equations(g, k), *full_generators(g, k)
            )
            for shape in partitions(k):
                assert_matches_fraction_table(
                    fixed_locus_equations(g, k, shape), *fixed_generators(g, k, shape)
                )

    def test_entries_keep_their_component_scale(self):
        # 1/2*y^2 has scale 2 and 2*y^3 + 4*x1^2*y scale 1; the level-2 maps
        # are y1 + y2 and 2*y1^2 + 2*y1*y2 + 2*y2^2 + 4*x1^2, whose
        # primitive part halves the second.
        g = germ(2, 3, ["1/2*y^2", "2*y^3 + 4*x1^2*y"])
        amb, scales, rows = divided_difference_table(g, 2)
        assert scales == [2, 1]
        assert rows == [[{(0, 1, 0): 1, (0, 0, 1): 1},
                         {(0, 0, 2): 2, (0, 1, 1): 2, (0, 2, 0): 2, (2, 0, 0): 4}]]
        I = multiple_point_equations(g, 2)
        assert I._terms[1] == {(0, 0, 2): 1, (0, 1, 1): 1, (0, 2, 0): 1, (2, 0, 0): 2}
        assert list(I.generators) == [
            parse_poly(t, amb) for t in ("1/2*y1 + 1/2*y2", "2*y1^2 + 2*y1*y2 + 2*y2^2 + 4*x1^2")
        ]


class TestAnalyze:
    def test_contractible_5_8(self, corpus):
        v = corpus["contractible_5_8"].verdict
        assert v.strongly_contractible and v.a_finite and not v.stable
        assert v.kappa == 2 and v.d_of_f == 2

    def test_stable_3_5(self, corpus):
        an = corpus["stable_3_5"]
        assert an.verdict.stable
        assert an.full_space(3).classification.kind == EMPTY

    def test_s1_family_member(self, corpus):
        v = corpus["s1"].verdict
        assert v.a_finite and not v.stable and not v.strongly_contractible

    def test_not_a_finite_detected(self, not_a_finite_analysis):
        assert not not_a_finite_analysis.verdict.a_finite

    def test_nesting_on_corpus(self, corpus):
        for an in corpus.values():
            nonempty = {1: True}
            for k in range(2, an.kappa + 2):
                nonempty[k] = an.full_space(k).nonempty
            for k in range(2, an.kappa + 2):
                if nonempty[k]:
                    assert nonempty[k - 1]

    def test_sigma_stability_of_ideals(self, corpus):
        # Permuting the y variables of any generator stays in the ideal.
        import itertools

        for name in ("s2", "stable_3_5", "squared_4_6"):
            an = corpus[name]
            for k in range(2, an.kappa + 1):
                I = an.full_space(k).ideal
                vs = I.ambient
                ys = [v for v in vs.names if v.startswith("y")]
                for perm in itertools.permutations(ys):
                    mapping = {
                        src: MultiPoly.variable(vs, dst) for src, dst in zip(ys, perm)
                    }
                    for gen in I.generators:
                        assert I.normal_form(gen.substitute(mapping)).is_zero()

    def test_mono_germ_fixed_loci_contain_origin_when_nonempty(self, corpus):
        for an in corpus.values():
            for sp in an.cells.values():
                if an.full_space(sp.k).nonempty:
                    assert not sp.ideal.contains_unit()


class TestFeasibility:
    def test_known_pairs(self):
        assert sc_dimension_feasible(5, 8)
        assert not sc_dimension_feasible(3, 5)

    def test_excluded_families(self):
        for n in range(2, 51):
            assert not sc_dimension_feasible(n, n + 1)
            if n + 1 < 2 * n - 1:
                assert not sc_dimension_feasible(n, 2 * n - 1)
            assert not sc_dimension_feasible(n, 2 * n)

    def test_report_fields(self):
        rep = sc_feasibility_report(5, 8)
        assert rep["feasible"] and rep["margin"] == 0 and rep["kappa"] == 2

    def test_coarse_obstruction(self):
        assert not prop_disg_check(5, 8)
        assert not prop_disg_check(5, 9)
        assert prop_disg_check(6, 9)

    def test_coarse_obstruction_weaker_than_infeasibility(self):
        for n in range(1, 25):
            for p in range(n + 1, 51):
                if prop_disg_check(n, p):
                    assert not sc_dimension_feasible(n, p)


class TestGenerator:
    def test_5_8_passes_self_check(self):
        g = generate_sc_germ(5, 8)
        assert g.n == 5 and g.p == 8

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleDimensionsError):
            generate_sc_germ(3, 5)

    def test_7_11_arithmetic_and_self_check(self):
        assert 11 - (11 // 4) * 5 >= 0
        g = generate_sc_germ(7, 11)
        an = mp.analyze_germ(g)
        assert an.verdict.strongly_contractible

    def test_every_feasible_pair_up_to_20_40_passes_self_check(self):
        # Covers every pair with two or more leftover base variables at
        # kappa >= 2 in this range, from (9, 14) up to (20, 36), and the
        # kappa = 4 germ (19, 24) with 18 base variables.
        pairs = [
            (n, p) for n in range(1, 21) for p in range(n + 1, 41) if sc_dimension_feasible(n, p)
        ]
        assert len(pairs) == 465 and (19, 24) in pairs
        for n, p in pairs:
            g = generate_sc_germ(n, p)  # raises unless re-analysis is strongly contractible
            assert (g.n, g.p) == (n, p)

    def test_matches_the_ring_operation_construction(self):
        # Same term maps in the same dict order, hence the same serialized
        # germ, for every feasible pair up to (20, 60).
        pairs = [
            (n, p) for n in range(1, 21) for p in range(n + 1, 61) if sc_dimension_feasible(n, p)
        ]
        for n, p in pairs:
            got = generate_sc_germ(n, p, self_check=False)
            want = ring_sc_germ(n, p)
            assert [list(h.terms.items()) for h in got.components] == [
                list(h.terms.items()) for h in want.components
            ], (n, p)
            assert got.serialize() == want.serialize(), (n, p)

    def test_leftover_base_variables_land_on_distinct_components(self):
        # (9, 14): kappa = 2, six components, x1..x6 scheduled, x7 and x8 left over.
        g = generate_sc_germ(9, 14, self_check=False)
        owners = [
            [i for i, c in enumerate(g.components) if any(e[c.vars.index(x)] for e in c.terms)]
            for x in ("x7", "x8")
        ]
        assert owners == [[0], [1]]


class TestGermFiles:
    def test_variable_roles(self):
        g = germ(3, 5, STABLE_3_5)
        assert g.varset.base_names == ("x1", "x2")
        assert g.varset.corank_names == ("y",)
        amb = multiple_point_equations(g, 2).ambient
        assert amb.corank_names == ("y1", "y2")

    def test_round_trip(self):
        g = germ(3, 5, STABLE_3_5)
        again = germ_from_text(g.serialize())
        assert again == g

    def test_bad_directive(self):
        with pytest.raises(InvalidInputError):
            germ_from_text("n 2\np 3\nwhatever y\ncomponent y^2\ncomponent x1*y\n")

    def test_component_count_enforced(self):
        with pytest.raises(InvalidInputError):
            germ(2, 3, ["y^2"])

    def test_unanalyzable_dimensions_refused_before_names_are_built(self):
        # kappa + 1 = 3 * 10^6 + 2 is far beyond the supported multiplicity
        # bound; building the 3 * 10^6 - 1 base names would take seconds.
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="multiplicity bound"):
            germ(3 * 10**6, 3 * 10**6 + 1, ["y^2", "y^3"])
        assert time.perf_counter() - start < 0.5

    def test_origin_condition_enforced(self):
        with pytest.raises(InvalidInputError):
            germ(2, 3, ["y^2", "1 + x1*y"])
