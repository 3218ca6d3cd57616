"""Multiple point spaces, germ analysis, and the contractible-germ generator."""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, lcm
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
    format_poly,
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
from germlab import localalg
from germlab import multipoint as mp
from germlab.errors import ResourceLimitError
from germlab.icis import EMPTY, NOT_ICIS
from germlab.localalg import _integer_terms
from germlab.multipoint import InfeasibleDimensionsError, divided_difference_table
from germlab.poly import _divided_difference_terms

from conftest import CORPUS_SPECS, NOT_A_FINITE_SPEC
from fraction_table import fixed_generators, full_generators
from ring_generator import ring_sc_germ
from test_invariants import LADDER, mond_germs
from test_localalg import normal_form

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

    def test_kappa_is_exact_beyond_float_precision(self):
        # p / (p - n) in floats rounds 33333333333333333.33 down to ...32.
        assert kappa(10**17 - 3, 10**17) == 33333333333333333
        # 30000000000000001 / 10000000000000001 rounds up to 3.0 in floats.
        rep = sc_feasibility_report(2 * 10**16, 3 * 10**16 + 1)
        assert rep["kappa"] == 2 and rep["feasible"] is True

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
        assert all((0,) * len(gen.vars) not in gen.terms for gen in I.generators)

    @pytest.mark.parametrize(
        "k, parts, message",
        [
            (3, (2,), "cycle shape (2,) is not a partition of 3"),
            (1, (1,), "multiple point spaces start at k = 2"),
            (4, (3, 1), "k = 4 exceeds the practical bound kappa + 1 = 3"),
        ],
        ids=["shape-of-another-k", "k-below-2", "k-above-kappa-plus-1"],
    )
    def test_refusals(self, k, parts, message):
        g = germ(5, 8, CONTRACTIBLE_5_8)  # kappa = 2
        with pytest.raises(InvalidInputError) as exc:
            fixed_locus_equations(g, k, Partition(parts))
        assert str(exc.value) == message


def _spread_widths() -> list[tuple[int, ...]]:
    """The block widths of every canonical shape with k <= 8 among y_1..y_j,
    for every level j = 2..k."""
    out = set()
    for k in range(2, 9):
        for shape in partitions(k):
            starts = [sum(shape.parts[:i]) for i in range(len(shape.parts))]
            for j in range(2, k + 1):
                out.add(tuple(min(a + w, j) - a for a, w in zip(starts, shape.parts) if a < j))
    return sorted(out)


def _collapsed_h(m: int, widths: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """h_m(y_1..y_j) built by divided differences of y_1^(m+j-1), in the
    table's term order, with consecutive blocks of ``widths`` collapsed:
    counts summed, first occurrence kept."""
    j = sum(widths)
    terms = {(m + j - 1,) + (0,) * (j - 1): 1}
    for i in range(j - 1):
        terms = _divided_difference_terms(terms, i, i + 1)
    starts = [sum(widths[:i]) for i in range(len(widths) + 1)]
    out: dict[tuple[int, ...], int] = {}
    for e, c in terms.items():
        s = tuple(sum(e[a:b]) for a, b in zip(starts, starts[1:]))
        out[s] = out.get(s, 0) + c
    return list(out.items())


class TestSpread:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_spread_widths()), st.integers(0, 12))
    def test_spread_is_the_collapsed_complete_symmetric_polynomial(self, widths, m):
        spread = mp._spread(m, widths)
        j = sum(widths)
        assert sum(c for _, c in spread) == comb(m + j - 1, j - 1)
        assert [s for s, _ in spread] == sorted(s for s, _ in spread)
        assert list(spread) == _collapsed_h(m, widths)


def _reference_table(g, k):
    """The divided-difference table with y -> y1 done by polynomial substitution."""
    y = tuple(f"{g.corank_name}{i}" for i in range(1, k + 1))
    amb = VarSet(g.base_names + y)
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
    target = VarSet(g.base_names + z)
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
    vs = VarSet(base + ("y",))

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
        with mock.patch.object(mp.icis, "classify", lambda ideal, e_dim: verdict):
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
        with mock.patch.object(mp.icis, "classify", lambda ideal, e_dim: verdict):
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

    @pytest.mark.parametrize("source", ["ladder", "mond"])
    def test_fixed_cells_of_the_benchmark_germs_match_the_fraction_table(self, source):
        # These germs reach y^23, past the degree 5 of the random germs.
        if source == "ladder":
            germs = [germ_from_text(path.read_text()) for path in sorted(LADDER.glob("*.germ"))]
        else:
            germs = [germ(2, 3, comps) for _, _, comps in mond_germs()]
        assert len(germs) == {"ladder": 4, "mond": 53}[source]
        for g in germs:
            for k in range(2, kappa(g.n, g.p) + 1):
                for shape in partitions(k):
                    if shape.parts == (1,) * k:
                        continue
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


class TestGermState:
    """The germ's integer state against the parser and the Fraction scales."""

    @settings(max_examples=80, deadline=None)
    @given(rational_germs)
    def test_state_matches_the_parsed_polynomials(self, g):
        texts = [format_poly(h) for h in g.components]
        again = germ(g.n, g.p, texts)
        want = [parse_poly(t, g.varset) for t in texts]
        assert [list(h.terms.items()) for h in again.components] == [
            list(h.terms.items()) for h in want
        ]
        _, scales, _ = divided_difference_table(again, 2)
        assert scales == [lcm(*(c.denominator for c in h.terms.values())) for h in want]
        read = germ_from_text(g.serialize())
        assert read == g == again and hash(read) == hash(g) == hash(again)
        assert repr(read) == repr(g)

    @settings(max_examples=40, deadline=None)
    @given(rational_germs, st.fractions(1, 3).filter(bool))
    def test_constructor_checks_are_kept(self, g, constant):
        names = g.base_names + (g.corank_name,)
        other = VarSet(names[:-1] + ("z",))
        first, *rest = g.components
        with pytest.raises(InvalidInputError, match="does not live over"):
            mp.GermSpec(g.n, g.p, g.base_names, g.corank_name,
                        (MultiPoly(other, first.terms), *rest))
        shifted = first + MultiPoly.constant(g.varset, constant)
        with pytest.raises(InvalidInputError, match="vanish at the origin"):
            mp.GermSpec(g.n, g.p, g.base_names, g.corank_name, (shifted, *rest))

    def test_equality_follows_the_polynomials(self):
        g = germ(2, 3, ["1/2*y^2", "y^3 + 3/4*x1^3*y"])
        assert g.components[0] == parse_poly("1/2*y^2", g.varset)
        # The same integer map with another denominator is another germ.
        assert g != germ(2, 3, ["y^2", "y^3 + 3/4*x1^3*y"])
        assert g != germ(2, 3, ["1/2*y^2", "y^3 + 3/2*x1^3*y"])
        assert g == germ(2, 3, ["1/2*y^2", "3/4*y*x1^3 + y^3"])
        assert repr(g) == ("GermSpec(n=2, p=3, base_names=('x1',), corank_name='y', "
                           "components=['1/2*y^2', '3/4*x1^3*y + y^3'])")
        with pytest.raises(AttributeError):
            g.n = 3


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

    def test_each_multiple_point_space_lies_over_the_last(self, corpus, not_a_finite_analysis):
        # D^k is cut out by the rows of table k, and the rows of levels 2..k
        # of table k + 1 are those rows with y_{k+1}^0 appended, so the
        # ideal of D^k lifts into that of D^{k+1}: an empty D^k forces an
        # empty D^{k+1}.  A not_icis cell is a nonempty locus here.
        analyses = [*corpus.values(), not_a_finite_analysis]
        analyses += [mp.analyze_germ(germ(2, 3, comps)) for _, _, comps in mond_germs()]
        levels = empties = 0
        for an in analyses:
            for k in range(2, an.kappa + 1):
                levels += 1
                _, scales, rows = divided_difference_table(an.germ, k)
                gens = [{e: Fraction(c, d) for e, c in q.items()}
                        for row in rows for q, d in zip(row, scales) if q]
                assert [g.terms for g in an.full_space(k).ideal.generators] == gens
                lifted = [[{e + (0,): c for e, c in q.items()} for q in row] for row in rows]
                assert divided_difference_table(an.germ, k + 1)[2][:-1] == lifted
                if an.full_space(k).classification.is_empty:
                    assert an.full_space(k + 1).classification.is_empty
                    empties += 1
        # Empty at k <= kappa: immersion's D^2 and D^3, the not-A-finite
        # germ's D^4, and D^3 of the crosscap, s1..s4 and 46 Mond germs.
        assert (levels, empties) == (130, 54)

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
                        assert normal_form(I, gen.substitute(mapping)).is_zero()

    def test_each_ideal_searches_its_krull_dimension_once(self):
        # classify and then milnor_icis ask a zero-dimensional cell for its
        # Krull dimension; the branch and bound runs on the first request.
        calls = []
        search = localalg._monomial_ideal_dimension

        def spy(lms, nvars, budget):
            calls.append(tuple(lms))
            return search(lms, nvars, budget)

        with mock.patch.object(localalg, "_monomial_ideal_dimension", spy):
            mp.analyze_germ(germ(*CORPUS_SPECS["s2"]))
        assert len(calls) == len(set(calls)) == 3

    def test_mono_germ_fixed_loci_contain_origin_when_nonempty(self, corpus):
        for an in corpus.values():
            for sp in an.cells.values():
                if an.full_space(sp.k).nonempty:
                    assert not sp.ideal.contains_unit()


def _ledger_germs() -> dict[str, mp.GermSpec]:
    """The conftest corpus, the not-A-finite germ and Mond's H_5."""
    out = {name: germ(n, p, comps) for name, (n, p, comps) in CORPUS_SPECS.items()}
    for n, p in [(6, 10), (7, 11)]:
        out[f"generated_{n}_{p}"] = generate_sc_germ(n, p, self_check=False)
    out["not_a_finite"] = germ(*NOT_A_FINITE_SPEC)
    (h5,) = [comps for name, _, comps in mond_germs() if name == "H_5"]
    out["H_5"] = germ(2, 3, h5)
    return out


LEDGER_GERMS = _ledger_germs()


class TestRunLedger:
    """One ledger per analysis: the budget bounds the work of the whole run."""

    @pytest.mark.parametrize("name", LEDGER_GERMS)
    def test_the_budget_bounds_the_whole_analysis(self, name):
        g = LEDGER_GERMS[name]
        an = mp.analyze_germ(g)
        (ledger,) = {cell.ideal._ledger for cell in an.cells.values()}
        total = ledger.steps
        assert mp.analyze_germ(g, budget=total).verdict == an.verdict
        # crosscap, immersion and stable_3_5 are decided by exact criteria.
        if total:
            with pytest.raises(ResourceLimitError):
                mp.analyze_germ(g, budget=total - 1)

    # The deterministic work counter on the benchmark's inputs.  A check
    # that only skips work whose outcome is already known (such as the
    # support masks of the standard basis) moves none of these totals.
    @pytest.mark.parametrize("name,total", [
        ("sc_11_15", 39), ("sc_13_18", 41), ("sc_15_21", 43), ("sc_16_22", 44),
    ])
    def test_ladder_totals(self, name, total):
        assert run_total(germ_from_text((LADDER / f"{name}.germ").read_text())) == total

    def test_mond_totals(self):
        totals = {name: run_total(germ(2, 3, comps)) for name, _, comps in mond_germs()}
        assert len(totals) == 53
        assert (totals["H_5"], totals["H_8"], sum(totals.values())) == (664, 2572, 8400)

    def test_sc_sweep_total(self):
        # Every feasible (n, p) with n <= 10 and p <= 60, as generated.
        pairs = [(n, p) for n in range(1, 11) for p in range(n + 1, 61)
                 if sc_dimension_feasible(n, p)]
        assert len(pairs) == 502
        assert sum(run_total(generate_sc_germ(n, p, self_check=False)) for n, p in pairs) == 2948


def run_total(g: mp.GermSpec) -> int:
    """The units the analysis of g charges to its one ledger."""
    (ledger,) = {cell.ideal._ledger for cell in mp.analyze_germ(g).cells.values()}
    return ledger.steps


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

    def test_margin_and_equation_count_agree(self):
        # p - kappa (p-n+1) >= 0 is (p-n+1)(kappa-1) <= n-1 rearranged; the
        # report shows both forms.
        for p in range(2, 201):
            for n in range(1, p):
                rep = sc_feasibility_report(n, p)
                assert rep["feasible"] == (rep["equations_for_d_kappa"] <= rep["base_variables"])

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

    def test_unsupported_multiplicity_is_refused_before_the_germ_is_built(self):
        # (155, 168) is feasible with kappa = 12: the self-check would
        # analyze D^13, so the germ is refused before it is built.
        assert sc_dimension_feasible(155, 168) and kappa(155, 168) == 12
        with mock.patch.object(mp.GermSpec, "_from_terms", side_effect=AssertionError("built")):
            with pytest.raises(InvalidInputError, match="kappa \\+ 1 = 13 exceeds"):
                generate_sc_germ(155, 168)
        # Without the self-check the germ is still built.
        assert len(generate_sc_germ(155, 168, self_check=False).components) == 14

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
            assert got == want and hash(got) == hash(want), (n, p)

    def test_kappa_1_pads_to_exactly_m_monomials(self):
        # p >= 2n + 1, so m = p - n + 1 exceeds the n + 1 monomials y^2, y^3,
        # x_t*y (two when n = 1) that every kappa = 1 germ starts with.
        pairs = [(n, p) for n in range(1, 21) for p in range(2 * n + 1, 61)]
        assert all(kappa(n, p) == 1 for n, p in pairs)
        for n, p in pairs:
            g = generate_sc_germ(n, p, self_check=False)
            assert [len(h.terms) for h in g.components] == [1] * (p - n + 1)
            assert len({next(iter(h.terms)) for h in g.components}) == p - n + 1

    def test_leftover_base_variables_land_on_distinct_components(self):
        # (9, 14): kappa = 2, six components, x1..x6 scheduled, x7 and x8 left over.
        g = generate_sc_germ(9, 14, self_check=False)
        owners = [
            [i for i, c in enumerate(g.components) if any(e[c.vars.index(x)] for e in c.terms)]
            for x in ("x7", "x8")
        ]
        assert owners == [[0], [1]]


class TestGermFiles:
    def test_variable_names(self):
        # The base variables come first and the corank variable last; D^2
        # keeps the base and appends y1, y2.
        g = germ(3, 5, STABLE_3_5)
        assert g.varset.names == ("x1", "x2", "y")
        amb = multiple_point_equations(g, 2).ambient
        assert amb.names == ("x1", "x2", "y1", "y2")

    def test_round_trip(self):
        g = germ(3, 5, STABLE_3_5)
        again = germ_from_text(g.serialize())
        assert again == g

    def test_bad_directive(self):
        with pytest.raises(InvalidInputError):
            germ_from_text("n 2\np 3\nwhatever y\ncomponent y^2\ncomponent x1*y\n")

    @pytest.mark.parametrize("base, corank", [
        (["1"], "y"), (["x-1"], "y"), (["x1"], "y z"), (["x1"], "2y"), (["x1"], ""),
    ])
    def test_declared_names_are_polynomial_names(self, base, corank):
        # `base 1` used to declare a variable no component could mention.
        with pytest.raises(InvalidInputError, match="bad variable"):
            germ(2, 3, ["y^2", "y^3"], base=base, corank=corank)

    def test_file_names_are_polynomial_names(self):
        with pytest.raises(InvalidInputError, match="bad variable '1'"):
            germ_from_text("n 2\np 3\nbase 1\ncomponent y^2\ncomponent y^3\n")

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
