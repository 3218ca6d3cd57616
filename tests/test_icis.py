"""Variety classification and Milnor numbers."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germlab import (
    InvalidInputError,
    LocalIdeal,
    NotIcisError,
    ResourceLimitError,
    VarSet,
    classify,
    milnor_hypersurface,
    milnor_icis,
    mu_image,
    parse_poly,
)
from germlab import icis
from germlab import multipoint as mp
from germlab.icis import (
    EMPTY,
    FINITE_COLENGTH,
    FULL_LINEAR_RANK,
    ICIS,
    IMPLICIT_FUNCTION,
    ISOLATED_POINTS,
    NOT_ICIS,
    SMOOTH,
    UNIT_CONSTANT_TERM,
    _eliminate_linear,
    _split_lone_variables,
    jacobian_rank_at_origin,
)
from germlab.localalg import _Budget, _extend_minors, _integer_terms
from germlab.poly import MultiPoly
import random

from fraction_minors import maximal_minors
from power_elimination import eliminate_by_powers
from recombination import _random_recombination
from sections_mu import derivative, sections_mu
from test_invariants import mond_germs


def ideal(var_names, gens, **kw):
    vs = VarSet(tuple(var_names))
    return LocalIdeal([parse_poly(g, vs) for g in gens], vs, **kw)


def poly(text, var_names):
    return parse_poly(text, VarSet(tuple(var_names)))


CONTRACTIBLE_5_8 = ["y^3+x1*y", "y^4+x2*y", "y^5+x3*y", "x4*y+x1*y^2"]
STABLE_3_5 = ["y^3+x1*y", "y^4+x2*y", "x2*y+y^2"]


class TestClassify:
    def test_smooth_double_point_space(self):
        g = mp.germ(5, 8, CONTRACTIBLE_5_8)
        cls = classify(mp.multiple_point_equations(g, 2), 2)
        assert cls.kind == SMOOTH and cls.dim == 2

    def test_isolated_triple_points_at_negative_expected_dim(self):
        g = mp.germ(5, 8, CONTRACTIBLE_5_8)
        cls = classify(mp.multiple_point_equations(g, 3), -1)
        assert cls.kind == ISOLATED_POINTS

    def test_empty_triple_point_space(self):
        g = mp.germ(3, 5, STABLE_3_5)
        I = mp.multiple_point_equations(g, 3)
        assert I.contains_unit()
        assert classify(I, -1).kind == EMPTY

    def test_expected_dim_beyond_ambient_rejected(self):
        from germlab import InconsistentDataError

        I = ideal(["x", "y"], ["x"])
        with pytest.raises(InconsistentDataError):
            classify(I, 3)

    def test_dimension_mismatch_is_not_icis(self):
        # Two equations in C^3 expected to cut a surface, but they share a factor.
        I = ideal(["x", "y", "z"], ["x*y", "x*z"])
        assert classify(I, 1).kind == NOT_ICIS


nonzero_small = st.sampled_from((-3, -2, -1, 1, 2, 3))


def monomials(n, low, high):
    """Exponents in n variables of total degree low..high, built directly:
    draw the degree, then which variable each factor is."""
    return st.integers(low, high).flatmap(
        lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
    ).map(lambda factors: tuple(factors.count(i) for i in range(n)))


@st.composite
def criterion_ideals(draw):
    """An ideal in at most 4 variables and an expected dimension in -2..n,
    often n minus the rank of the linear parts.

    Each generator is a linear form plus terms of degree 2 and 3, one in ten
    with a constant term.  The linear forms are combinations of at most n
    drawn rows, so that full rank, rank equal to the number of generators
    and rank below it (dependent linear parts) all occur often."""
    n = draw(st.integers(1, 4))
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    rows = draw(st.lists(st.lists(nonzero_small, min_size=n, max_size=n), max_size=n))
    higher = monomials(n, 2, 3)
    unit = st.sampled_from([False] * 9 + [True])
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {e: draw(nonzero_small) for e in draw(st.lists(higher, min_size=1, max_size=3))}
        mix = [draw(st.integers(-2, 2)) for _ in rows]
        for i in range(n):
            terms[tuple(int(j == i) for j in range(n))] = sum(m * r[i] for m, r in zip(mix, rows))
        if draw(unit):
            terms[(0,) * n] = draw(nonzero_small)
        gens.append(MultiPoly(vs, terms))
    rank = jacobian_rank_at_origin(list(map(_integer_terms, gens)), n)
    e = draw(st.one_of(st.just(n - rank), st.integers(-2, n)))
    return LocalIdeal(gens, vs, budget=20_000), e


class TestExactCriteria:
    """The verdicts classify reaches before any standard basis."""

    def test_extra_generator_at_full_codimension_rank_is_not_smooth(self):
        # (x, y^2) at expected dimension 1: rank 1 = codimension, but two
        # generators cut the fat point, so the implicit function theorem
        # does not apply and the basis route finds dimension 0.
        cls = classify(ideal(["x", "y"], ["x", "y^2"]), 1)
        assert (cls.kind, cls.dim) == (NOT_ICIS, 0)

    @pytest.mark.parametrize(
        "gens, e, kind, dim, evidence",
        [
            (["x + y^2", "1 + x"], 1, EMPTY, None, UNIT_CONSTANT_TERM),
            (["x + y^2", "y - x^3"], -1, ISOLATED_POINTS, 0, FULL_LINEAR_RANK),
            (["x + y^2", "y - x^3"], 0, SMOOTH, 0, FULL_LINEAR_RANK),
            (["x + y^2", "y - x^3"], 1, NOT_ICIS, 0, "dimension 0 != expected 1"),
            (["x + y^2"], 1, SMOOTH, 1, IMPLICIT_FUNCTION),
            ([], 2, SMOOTH, 2, "zero ideal"),
            ([], 1, NOT_ICIS, 2, "zero ideal of wrong dimension"),
        ],
    )
    def test_decided_without_a_standard_basis(self, gens, e, kind, dim, evidence):
        I = ideal(["x", "y"], gens)
        cls = classify(I, e)
        assert (cls.kind, cls.dim) == (kind, dim) and evidence in cls.evidence
        assert "_reducers" not in vars(I)  # the cached basis was never built

    @given(criterion_ideals())
    @settings(max_examples=300, deadline=None)
    def test_criteria_agree_with_the_standard_basis(self, drawn):
        I, e = drawn
        try:
            cls = classify(I, e)
        except ResourceLimitError:
            assume(False)
        try:
            if cls.evidence == UNIT_CONSTANT_TERM:
                assert cls.kind == EMPTY and I.contains_unit()
            elif FULL_LINEAR_RANK in cls.evidence:
                assert I.quotient_dimension() == 1
                expected = ISOLATED_POINTS if e < 0 else SMOOTH if e == 0 else NOT_ICIS
                assert cls.kind == expected
            elif cls.evidence == IMPLICIT_FUNCTION:
                assert cls.kind == SMOOTH and I.krull_dimension() == e
                assert not I.contains_unit()
            else:
                return
        except ResourceLimitError:
            assume(False)


@st.composite
def with_a_fresh_variable(draw):
    """An ideal of criterion_ideals with its expected dimension, and the same
    germ cut out one dimension up: a fresh variable z at a drawn position,
    the generator c * z at a drawn place among the others, and each other
    generator plus z times up to two drawn terms of degree 0 to 2."""
    I, e = draw(criterion_ideals())
    n = len(I.ambient)
    at = draw(st.integers(0, n))
    vs = VarSet(I.ambient.names[:at] + ("z",) + I.ambient.names[at:])
    gens = []
    for g in I.generators:
        terms = {exp[:at] + (0,) + exp[at:]: c for exp, c in g.terms.items()}
        for exp in draw(st.lists(monomials(n + 1, 0, 2), max_size=2)):
            exp = exp[:at] + (exp[at] + 1,) + exp[at + 1 :]
            terms[exp] = terms.get(exp, 0) + draw(nonzero_small)
        gens.append(MultiPoly(vs, terms))
    z = MultiPoly(vs, {tuple(int(i == at) for i in range(n + 1)): draw(nonzero_small)})
    gens.insert(draw(st.integers(0, len(gens))), z)
    return I, LocalIdeal(gens, vs, budget=I.budget), e


class TestLoneVariableSplit:
    """classify splits off lone-variable generators c * x_j before any basis."""

    @given(with_a_fresh_variable())
    @settings(max_examples=200, deadline=None)
    def test_a_fresh_split_variable_changes_no_verdict(self, drawn):
        I, J, e = drawn
        try:
            expected = classify(I, e)
        except ResourceLimitError:
            assume(False)
        assert classify(J, e) == expected

    @pytest.mark.parametrize(
        "gens, e, names, split, rest, verdict",
        [
            # a coefficient other than 1
            (["3*x2", "x1^2 + x2*x3 + x3^3"], 1, ["x1", "x3"], 1, ["x1^2 + x3^3"], (ICIS, 1, 2)),
            (["1/2*x2", "x1^2 + x2*x3 + x3^3"], 1, ["x1", "x3"], 1, ["x1^2 + x3^3"], (ICIS, 1, 2)),
            # a repeated lone variable, split once
            (["x2", "x1^2 + x3^2 + x1*x2", "-2*x2"], 1, ["x1", "x3"], 1, ["x1^2 + x3^2"],
             (ICIS, 1, 1)),
            # x2 := 0 leaves the new lone generator x1
            (["x1 + x2*x3", "x2", "x1^2 + x3^3"], 0, ["x3"], 2, ["x3^3"], (ICIS, 0, 2)),
            # x2 := 0 empties a generator
            (["x2", "x2*x3 + x2^2", "x1^2 + x3^2"], 1, ["x1", "x3"], 1, ["x1^2 + x3^2"],
             (ICIS, 1, 1)),
            # every variable split off, the last after a substitution
            (["x1", "x3 + x2^2", "x2"], -1, [], 3, [], (ISOLATED_POINTS, 0, None)),
        ],
        ids=["coefficient-3", "coefficient-1/2", "repeated", "new-lone", "emptied", "all-split"],
    )
    def test_edge_cases(self, gens, e, names, split, rest, verdict):
        I = ideal(["x1", "x2", "x3"], gens)
        reduced, s = _split_lone_variables(I)
        assert (s, reduced.ambient) == (split, VarSet(tuple(names)))
        assert reduced._terms == ideal(names, rest)._terms
        cls = classify(I, e)
        assert (cls.kind, cls.dim, cls.mu) == verdict
        # The ideal itself, all generators in all variables, agrees.
        assert I.krull_dimension() == cls.dim
        if cls.kind == ICIS:
            assert milnor_icis(I, e) == cls.mu

    def test_without_a_lone_generator_the_ideal_is_its_own(self):
        I = ideal(["x", "y"], ["x + y^2", "x*y"])
        assert _split_lone_variables(I) == (I, 0)

    def test_sc_double_point_cell_builds_no_basis_of_its_own(self):
        # At kappa = 1 the D^2 cell is x_1..x_4 (lone), the divided
        # differences of y^2 and y^3, and padding x_i^a that x_i := 0
        # empties: its bases are those of two generators in (y1, y2).
        cell = mp.analyze_germ(mp.generate_sc_germ(5, 12, self_check=False)).cells[(2, (1, 1))]
        verdict = cell.classification
        assert (verdict.kind, verdict.evidence) == (ISOLATED_POINTS, FINITE_COLENGTH)
        assert "_reducers" not in vars(cell.ideal)
        reduced, s = _split_lone_variables(cell.ideal)
        assert (s, len(reduced.ambient), len(reduced._terms)) == (4, 2, 2)


@st.composite
def with_an_eliminable_variable(draw):
    """An ideal of criterion_ideals with its expected dimension, and the same
    germ over one more coordinate: a fresh variable z at a drawn position,
    the generator g = c * z + r at a drawn place among the others, for r one
    to three drawn terms of degree 1 to 3 without z, and each other
    generator plus g times up to two drawn terms of degree 0 to 2 in all
    n + 1 variables, so z enters them too."""
    I, e = draw(criterion_ideals())
    n = len(I.ambient)
    at = draw(st.integers(0, n))
    vs = VarSet(I.ambient.names[:at] + ("z",) + I.ambient.names[at:])

    def lift(exp):
        return exp[:at] + (0,) + exp[at:]

    exps = draw(st.lists(monomials(n, 1, 3), min_size=1, max_size=3))
    terms = {lift(exp): draw(nonzero_small) for exp in exps}
    terms[tuple(int(i == at) for i in range(n + 1))] = draw(nonzero_small)
    g = MultiPoly(vs, terms)
    gens = []
    for h in I.generators:
        exps = draw(st.lists(monomials(n + 1, 0, 2), max_size=2))
        m = MultiPoly(vs, {exp: draw(nonzero_small) for exp in exps})
        gens.append(MultiPoly(vs, {lift(exp): c for exp, c in h.terms.items()}) + m * g)
    gens.insert(draw(st.integers(0, len(gens))), g)
    return I, LocalIdeal(gens, vs, budget=I.budget), e


@st.composite
def two_round_eliminations(draw):
    """Generators in x0..x(n-1), n = 3 or 4, from which the elimination takes
    at least two: g1 = c1 * x0 + r1 and g2 = c2 * x1 + r2, for c1, c2 not
    +-1 and prime to the coefficients of r, r1 two to four terms of degree 2
    or 3 without x0 and x1, r2 two to four of degree 2 or 3 without x1, and
    one to three more generators of up to four terms, each x0^a * x1^b times
    a monomial of degree 0 to 2 in the others, a + b <= 6, of degree >= 2.
    No term of degree 1 but the two units is ever built, so g1 and g2 stay
    eliminable whichever goes first."""
    n = draw(st.integers(3, 4))
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    units = st.sampled_from((-5, -4, -3, -2, 2, 3, 4, 5))

    gens = []
    for j, free in ((0, range(2, n)), (1, [0, *range(2, n)])):
        r = {}
        for exp in draw(st.lists(monomials(len(free), 2, 3), min_size=2, max_size=4, unique=True)):
            e = [0] * n
            for i, a in zip(free, exp):
                e[i] = a
            r[tuple(e)] = draw(nonzero_small)
        c = draw(units)
        assume(gcd(c, *r.values()) == 1)
        r[tuple(int(i == j) for i in range(n))] = c
        gens.append(MultiPoly(vs, r))
    for _ in range(draw(st.integers(1, 3))):
        h = {}
        for _ in range(draw(st.integers(1, 4))):
            a = draw(st.integers(0, 6))
            b = draw(st.integers(0, 6 - a))
            rest = draw(monomials(n - 2, max(0, 2 - a - b), 2))
            h[(a, b) + rest] = draw(nonzero_small)
        gens.append(MultiPoly(vs, h))
    return draw(st.permutations(gens)), vs


class TestLinearElimination:
    """classify eliminates every generator c * x_j + r, x_j in no term of r,
    before the Krull dimension and the Milnor chain."""

    @given(with_an_eliminable_variable())
    @settings(max_examples=200, deadline=None)
    def test_an_eliminable_fresh_variable_changes_no_verdict(self, drawn):
        I, J, e = drawn
        try:
            expected = classify(I, e)
            got = classify(J, e)
        except ResourceLimitError:
            assume(False)
        assert (got.kind, got.dim, got.mu) == (expected.kind, expected.dim, expected.mu)

    @pytest.mark.parametrize(
        "names, gens, e, kept, rest, verdict",
        [
            # y1 := -(y2 + y3 + y4)
            (["y1", "y2", "y3", "y4"], ["y1 + y2 + y3 + y4", "y1*y2 + y3*y4"], 2,
             ["y2", "y3", "y4"], ["-y2^2 - y2*y3 - y2*y4 + y3*y4"], (ICIS, 2, 1)),
            # x := -y^2/3 into a map of x-degree 2, scaled by 3^2
            (["x", "y", "z"], ["3*x + y^2", "x^2 + x*y + z^3"], 1,
             ["y", "z"], ["y^4 - 3*y^3 + 9*z^3"], (ICIS, 1, 4)),
            # x*z + y^2*z is z times the eliminated generator
            (["x", "y", "z"], ["x + y^2", "x*z + y^2*z", "z^2 + y^3"], 1,
             ["y", "z"], ["z^2 + y^3"], (ICIS, 1, 2)),
            # x := -y^2 leaves z + w^2, which takes z off next
            (["x", "y", "z", "w"], ["x + y^2", "z + x*z + y^2*z + w^2", "z^2 + w^3 + y^3"], 1,
             ["y", "w"], ["w^4 + w^3 + y^3"], (ICIS, 1, 4)),
        ],
        ids=["multi-term-r", "coefficient-3", "emptied", "two-rounds"],
    )
    def test_edge_cases(self, names, gens, e, kept, rest, verdict):
        I = ideal(names, gens)
        reduced = _eliminate_linear(I)
        assert reduced.ambient == VarSet(tuple(kept))
        assert reduced._terms == ideal(kept, rest)._terms
        cls = classify(I, e)
        assert (cls.kind, cls.dim, cls.mu) == verdict
        # The ideal itself, all generators in all variables, agrees.
        assert I.krull_dimension() == cls.dim
        assert milnor_icis(I, e) == cls.mu

    def test_without_an_eliminable_generator_the_ideal_is_its_own(self):
        I = ideal(["x", "y"], ["x + x*y + y^2", "x^2 + y^3"])
        assert _eliminate_linear(I) is I

    def test_substitution_is_charged_to_the_budget(self):
        I = ideal(["x", "y", "z"], ["3*x + y^2", "x^2 + x*y + z^3"], budget=1)
        with pytest.raises(ResourceLimitError, match="linear elimination"):
            _eliminate_linear(I)
        with pytest.raises(ResourceLimitError, match="linear elimination"):
            classify(I, 1)

    @given(two_round_eliminations())
    @settings(max_examples=100, deadline=None)
    def test_horner_gives_the_sum_over_powers_of_r(self, drawn):
        gens, vs = drawn
        got = _eliminate_linear(LocalIdeal(gens, vs, budget=10**9))
        want = eliminate_by_powers(LocalIdeal(gens, vs, budget=10**9))
        assert len(got.ambient) <= len(vs) - 2
        assert got.ambient == want.ambient
        assert got._terms == want._terms

    def test_horner_on_every_ideal_of_the_mond_list(self):
        seen = []
        eliminate = icis._eliminate_linear

        def spy(ideal):
            seen.append((ideal._terms, ideal.ambient))
            return eliminate(ideal)

        with mock.patch.object(icis, "_eliminate_linear", spy):
            for _, _, comps in mond_germs():
                mp.analyze_germ(mp.germ(2, 3, comps))
        taken = 0
        for maps, ambient in seen:
            got = _eliminate_linear(LocalIdeal._from_terms(maps, ambient, _Budget(10**9)))
            want = eliminate_by_powers(LocalIdeal._from_terms(maps, ambient, _Budget(10**9)))
            assert (got.ambient, got._terms) == (want.ambient, want._terms)
            taken += len(ambient) - len(got.ambient)
        # 113 ideals reach the elimination, which takes 74 variables off them.
        assert (len(seen), taken) == (113, 74)

    def test_each_horner_step_is_charged_before_it_is_built(self):
        # x := -(y^2 + y*z)/3 into x^2 + x*y + z^3: the first step takes
        # acc = 1 (the x^2 part) to acc * (-r) + 3 * y, charged 1 * 2 + 1 = 3
        # units; the second takes acc = 3*y - y^2 - y*z to 9 * z^3 - acc * r,
        # charged 3 * 2 + 1 = 7.
        gens = ["3*x + y^2 + y*z", "x^2 + x*y + z^3"]
        calls = []
        kernel = icis._subtract_multiple

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        with mock.patch.object(icis, "_subtract_multiple", spy):
            for budget, built in ((2, 0), (9, 1)):
                calls.clear()
                I = ideal(["x", "y", "z"], gens, budget=budget)
                with pytest.raises(ResourceLimitError, match="linear elimination"):
                    _eliminate_linear(I)
                assert len(calls) == built
            I = ideal(["x", "y", "z"], gens, budget=10)
            assert _eliminate_linear(I)._terms == ideal(
                ["y", "z"], ["9*z^3 - 3*y^3 - 3*y^2*z + y^4 + 2*y^3*z + y^2*z^2"]
            )._terms
            assert I._ledger.steps == 10

    def test_mond_double_point_curve_is_a_plane_curve(self):
        # H_5 = (x, y^3, x*y + y^14): D^2 is (y1^2 + y1*y2 + y2^2,
        # x1 + h_13(y1, y2)) in 3 variables; x1 occurs once, so the chain
        # runs on the plane curve, and the cell's own ideal builds no basis.
        g = mp.germ(2, 3, ["y^3", "x1*y + y^14"])
        cell = mp.analyze_germ(g).cells[(2, (1, 1))]
        verdict = cell.classification
        assert (verdict.kind, verdict.dim, verdict.mu) == (ICIS, 1, 1)
        assert "_reducers" not in vars(cell.ideal)
        reduced = _eliminate_linear(cell.ideal)
        assert reduced.ambient.names == ("y1", "y2")
        assert reduced._terms == ideal(["y1", "y2"], ["y1^2 + y1*y2 + y2^2"])._terms


@st.composite
def overdetermined_ideals(draw):
    """An ideal with no constant term and more generators than its at most 4
    variables, and an expected dimension in -3..-1.

    Each generator has one to three terms of degree 1 to 3, so shared
    factors, and with them positive-dimensional heads and ideals, are
    common."""
    n = draw(st.integers(1, 4))
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    gens = []
    for _ in range(draw(st.integers(n + 1, n + 3))):
        exps = draw(st.lists(monomials(n, 1, 3), min_size=1, max_size=3))
        gens.append(MultiPoly(vs, {e: draw(nonzero_small) for e in exps}))
    return LocalIdeal(gens, vs, budget=20_000), draw(st.integers(-3, -1))


class TestFirstGenerators:
    """At negative expected dimension, the first n generators may decide."""

    def test_head_decides_without_the_full_basis(self):
        I = ideal(["x", "y"], ["x^2", "y^2", "x*y"])
        cls = classify(I, -1)
        assert (cls.kind, cls.dim, cls.evidence) == (ISOLATED_POINTS, 0, FINITE_COLENGTH)
        assert "_reducers" not in vars(I)  # the full ideal's basis was never built

    def test_positive_dimensional_head_falls_back_to_the_full_ideal(self):
        # (x^2, x*y) is the y-axis with an embedded point; y^3 cuts it down.
        I = ideal(["x", "y"], ["x^2", "x*y", "y^3"])
        assert ideal(["x", "y"], ["x^2", "x*y"]).krull_dimension() == 1
        cls = classify(I, -1)
        assert (cls.kind, cls.dim, cls.evidence) == (ISOLATED_POINTS, 0, FINITE_COLENGTH)
        assert "_reducers" in vars(I)

    def test_positive_dimensional_ideal_is_not_icis(self):
        cls = classify(ideal(["x", "y"], ["x^2", "x*y", "x^3"]), -1)
        assert (cls.kind, cls.dim) == (NOT_ICIS, 1)

    @given(overdetermined_ideals())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_full_krull_dimension(self, drawn):
        I, e = drawn
        try:
            cls = classify(I, e)
            actual = LocalIdeal(I.generators, I.ambient, budget=I.budget).krull_dimension()
        except ResourceLimitError:
            assume(False)
        expected = (ISOLATED_POINTS, 0) if actual == 0 else (NOT_ICIS, actual)
        assert (cls.kind, cls.dim) == expected


def _fraction_rank(rows):
    """Reference: Gaussian elimination over Q."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestJacobianRank:
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=6)),
                    min_size=n,
                    max_size=n,
                ),
                max_size=6,
            ).map(lambda rows: (n, rows))
        )
    )
    @settings(max_examples=300)
    def test_matches_fraction_gaussian_elimination(self, n_rows):
        n, rows = n_rows
        vs = VarSet(tuple(f"x{i}" for i in range(n)))
        eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        # The linear parts, with a constant and a quadratic term that the
        # rank must ignore.
        other = {(0,) * n: 1, (2,) + (0,) * (n - 1): 1}
        gens = [MultiPoly(vs, {**dict(zip(eye, row)), **other}) for row in rows]
        assert jacobian_rank_at_origin(list(map(_integer_terms, gens)), n) == _fraction_rank(rows)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=n, max_size=n),
                max_size=7,
            ).map(lambda rows: (n, rows))
        )
    )
    @settings(max_examples=300)
    def test_sparse_rows_match_fraction_gaussian_elimination(self, n_rows):
        # Mostly zero entries, so that many rows have a zero under a pivot.
        n, rows = n_rows
        eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        maps = [{u: a for u, a in zip(eye, row) if a} for row in rows]
        assert jacobian_rank_at_origin(maps, n) == _fraction_rank(rows)

    def test_zero_entries_under_a_pivot(self):
        # The second and fourth rows have a zero under the first pivot and
        # are left alone by its step; the fourth is twice the second, and
        # the third is independent only through its z entry: rank 3.
        vs = VarSet(("x", "y", "z"))
        gens = [parse_poly(t, vs) for t in ("2*x + y", "3*y + z", "4*x + 2*y + 5*z", "6*y + 2*z")]
        assert jacobian_rank_at_origin(list(map(_integer_terms, gens)), 3) == 3

    def test_rank_deficient_column_and_rational_row(self):
        # The second column has no pivot after the first step, and the third
        # row is scaled to integers first: rank 2 over Q.
        vs = VarSet(("x", "y", "z"))
        gens = [parse_poly(t, vs) for t in ("2*x + 3*y + z", "4*x + 6*y + 5*z", "2/3*x + y + 4*z")]
        assert jacobian_rank_at_origin(list(map(_integer_terms, gens)), 3) == 2


class TestHypersurfaceMilnor:
    def test_node(self):
        assert milnor_hypersurface(poly("x^2 + y^2", ["x", "y"])) == 1

    def test_cubic(self):
        assert milnor_hypersurface(poly("x^3 + y^3", ["x", "y"])) == 4

    def test_smooth(self):
        assert milnor_hypersurface(poly("x", ["x", "y"])) == 0

    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_two_variable_grid(self, a, b):
        g = poly(f"x^{a + 1} + y^{b + 1}", ["x", "y"])
        assert milnor_hypersurface(g) == a * b

    def test_non_isolated_rejected(self):
        with pytest.raises(NotIcisError):
            milnor_hypersurface(poly("x^2*y", ["x", "y"]))


class TestHypersurfaceMilnorIsTheChain:
    """milnor_hypersurface is the one-step Le-Greuel chain; its value is
    the colength of the Jacobian ideal, and its errors keep their types."""

    @pytest.mark.parametrize("text", [
        "x^2 + y^2", "x^3 + y^3", "x^2*y + y^4", "x^3 + x*y^3 + z^2", "x^5 - y^2 + x*y*z + z^3",
        "x^4 + y^4 + x^2*y^2", "x",
    ])
    def test_matches_the_jacobian_colength(self, text):
        names = ["x", "y", "z"] if "z" in text else ["x", "y"]
        g = poly(text, names)
        jacobian = LocalIdeal([derivative(g, v) for v in names], g.vars)
        assert milnor_hypersurface(g) == jacobian.quotient_dimension()

    @pytest.mark.parametrize("k", range(1, 6))
    def test_one_variable(self, k):
        assert milnor_hypersurface(poly(f"x^{k + 1} + x^{k + 3}", ["x"])) == k

    @pytest.mark.parametrize("text, error", [
        ("1 + x^2 + y^2", InvalidInputError),  # off the origin: the unit ideal
        ("-2", InvalidInputError),
        ("x^2", NotIcisError),  # singular along the y-axis
        ("x^2*y", NotIcisError),
        ("0", NotIcisError),  # the zero polynomial
    ])
    def test_exception_types(self, text, error):
        with pytest.raises(error):
            milnor_hypersurface(poly(text, ["x", "y"]))


class TestIcisMilnor:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_plane_curve_after_diagonal_substitution(self, k):
        # (y1 + y2, y1^2 + y1*y2 + y2^2 + x^{k+1}) reduces to the A_k curve.
        I = ideal(["x", "y1", "y2"], ["y1 + y2", f"y1^2 + y1*y2 + y2^2 + x^{k + 1}"])
        assert milnor_icis(I, 1) == k

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_dimensional(self, k):
        I = ideal(["x", "y1"], ["y1", f"x^{k + 1}"])
        assert milnor_icis(I, 0) == k

    def test_smooth_member(self):
        I = ideal(["x1", "x2", "x3"], ["x1"])
        assert milnor_icis(I, 2) == 0

    def test_chain_failure_after_retries_reports_not_icis(self):
        # Both generators share the factor x, so the section of either at
        # step 1 has infinite colength and the chain fails there.
        I = ideal(["x", "y", "z"], ["x*y", "x*z"])
        with pytest.raises(NotIcisError):
            milnor_icis(I, 1)

    def test_four_concurrent_lines(self):
        # x^2+y^2+z^2 = xy = 0 is four pairwise transverse lines through the
        # origin: delta = 4 (three constant matchings plus one linear-order
        # defect across the branches), r = 4, so mu = 2*delta - r + 1 = 5.
        I = ideal(["x", "y", "z"], ["x^2 + y^2 + z^2", "x*y"])
        assert milnor_icis(I, 1) == 5

    @pytest.mark.parametrize("order", [1, -1], ids=["given", "reversed"])
    def test_chain_starts_with_the_first_generator_that_works(self, order):
        # Four lines through the origin: (0, +-i, 1) in x = 0, (1, 0, 0) and
        # (1, 0, -1) in y = 0, so mu = 5.  Step 1 on xy has infinite colength
        # (its critical locus is the z-axis), so in either order the chain
        # starts with the quadric.  Every coordinate plane holds a branch, so
        # no coordinate section reaches this mu.
        I = ideal(["x", "y", "z"], ["x*y", "y^2 + z^2 + x*z"][::order])
        assert milnor_icis(I, 1) == 5
        verdict = classify(I, 1)
        assert (verdict.kind, verdict.dim, verdict.mu) == (ICIS, 1, 5)
        assert sections_mu(list(I.generators), I.ambient, 1) is None

    @pytest.mark.parametrize("order", [1, -1], ids=["given", "reversed"])
    def test_redundant_generator_is_dropped(self, order):
        # The first generator is a multiple of the cusp y^2 - x^3 (mu 2).
        I = ideal(["x", "y"], ["(y^2 - x^3)*(y - x^5)", "y^2 - x^3"][::order])
        assert milnor_icis(I, 1) == 2

    def test_more_minimal_generators_than_the_codimension(self):
        # The three coordinate axes: a curve whose ideal needs three
        # generators, so not a complete intersection.
        I = ideal(["x", "y", "z"], ["x*y", "x*z", "y*z"])
        assert I.krull_dimension() == 1
        with pytest.raises(NotIcisError, match="3 generators cannot cut a codimension 2"):
            milnor_icis(I, 1)

    def test_quartic_quintic_germ(self):
        # (y^4 + x1*y + x2*y^2, y^5 + x3*y): in generator order, chain step 4
        # of its D^4 (1,1,1,1) curve has infinite colength, and the next
        # remaining generator gives a finite one.
        g = mp.germ(4, 5, ["y^4 + x1*y + x2*y^2", "y^5 + x3*y"])
        analysis = mp.analyze_germ(g)
        verdict = analysis.cells[(4, (1, 1, 1, 1))].classification
        assert (verdict.kind, verdict.dim, verdict.mu) == (ICIS, 1, 13)
        assert mu_image(analysis) == 6

    def test_chain_runs_under_the_ideal_budget(self):
        # The same curve computes mu = 3 under the default budget (see the
        # CLI milnor test); its chain ideals inherit budget 1 and run out.
        I = ideal(["x", "y1", "y2"], ["y1 + y2", "y1^2 + y1*y2 + y2^2 + x^4"], budget=1)
        with pytest.raises(ResourceLimitError):
            milnor_icis(I, 1)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_chain_independence_under_recombination(self, seed):
        base = [
            ("squared-d2", ["x1", "x2", "x3", "y1", "y2"], [
                "x1^2 + y1^2 + y1*y2 + y2^2",
                "x2 + y1^3 + y1^2*y2 + y1*y2^2 + y2^3",
                "x3 + y1^4 + y1^3*y2 + y1^2*y2^2 + y1*y2^3 + y2^4",
            ], 2, 1),
            ("s3-d2", ["x", "y1", "y2"], ["y1 + y2", "y1^2 + y1*y2 + y2^2 + x^4"], 1, 3),
        ]
        rng = random.Random(seed)
        for _name, names, gens, dim, expected in base:
            I = ideal(names, gens)
            assert milnor_icis(I, dim) == expected
            mixed = _random_recombination(list(I.generators), rng)
            J = LocalIdeal(mixed, I.ambient)
            assert milnor_icis(J, dim) == expected


@st.composite
def polynomial_matrices(draw):
    """r <= 3 rows over N <= 4 variables (r <= N) of polynomials with up to
    three terms of degree <= 2 and small rational coefficients; an entry with
    no terms, the zero polynomial, is drawn often."""
    n = draw(st.integers(1, 4))
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    entries = st.dictionaries(monomials(n, 0, 2), coeffs, max_size=3).map(lambda d: MultiPoly(vs, d))
    r = draw(st.integers(1, min(3, n)))
    return vs, draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))


def is_rational_multiple(h: dict, p: MultiPoly) -> bool:
    """Whether the integer term map h is a nonzero rational multiple of p
    (both empty when p is zero)."""
    if h.keys() != p.terms.keys():
        return False
    return len({Fraction(c) / p.terms[e] for e, c in h.items()}) <= 1


class TestChainMinors:
    """The chain's integer minors, extended row by row."""

    @given(polynomial_matrices(), st.lists(st.integers(-3, 3).filter(bool), min_size=3))
    @settings(max_examples=200, deadline=None)
    def test_minors_match_the_fraction_expansion_after_every_row(self, drawn, units):
        # Each row enters as integers times a row-wide nonzero factor, as a
        # Jacobian row of a generator's integer term map does.
        vs, rows = drawn
        n = len(vs)
        minors = {(): {(0,) * n: 1}}
        for s, (row, unit) in enumerate(zip(rows, units), start=1):
            den = lcm(*(c.denominator for p in row for c in p.terms.values()))
            scaled = [{e: int(c * den * unit) for e, c in p.terms.items()} for p in row]
            minors = _extend_minors(minors, scaled, _Budget(10**6))
            assert list(minors) == list(combinations(range(n), s))
            reference = maximal_minors(rows[:s], vs)
            for h, p in zip(minors.values(), reference, strict=True):
                assert is_rational_multiple(h, p)

    def test_minor_expansion_is_charged_to_the_budget(self):
        # Mond's H_5 (x, y^3, x*y + y^14), double point curve: the first
        # generator's section has infinite colength, so step 1 takes the
        # second.  The chain that computes mu charges 109 units to the
        # ideal's ledger, 87 of them to the minors of both candidates and
        # both steps, while no standard basis needs more than 26.
        g = mp.germ(2, 3, ["y^3", "x1*y + y^14"])
        assert milnor_icis(mp.multiple_point_equations(g, 2, budget=109), 1) == 1
        with pytest.raises(ResourceLimitError):
            milnor_icis(mp.multiple_point_equations(g, 2, budget=108), 1)
        I = mp.multiple_point_equations(g, 2, budget=50)
        with pytest.raises(ResourceLimitError, match="maximal minors"):
            milnor_icis(I, 1)


def milnor_fields(md):
    return md.mu, md.beta0, md.mu_plus0, md.mu_minus0, md.mu_tilde


class TestMilnorData:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_curve_data(self, k):
        I = ideal(["x", "y1", "y2"], ["y1 + y2", f"y1^2 + y1*y2 + y2^2 + x^{k + 1}"])
        md = classify(I, 1).milnor
        assert milnor_fields(md) == (k, 1, k + 1, k - 1, k)

    def test_empty_is_all_zero(self):
        I = ideal(["x"], ["1 + x"])
        assert milnor_fields(classify(I, 0).milnor) == (0, 0, 0, 0, 0)

    def test_isolated_points_have_mu_tilde_minus_one(self):
        I = ideal(["x", "y"], ["x", "y^2"])
        md = classify(I, -1).milnor
        assert md.mu_tilde == -1 and md.beta0 == 1

    def test_zero_dim_point_count_is_mu_plus0(self):
        # Fiber point count of a fat point equals the quotient dimension.
        for k in (1, 2, 3):
            I = ideal(["x", "y1"], ["y1", f"x^{k + 1}"])
            md = classify(I, 0).milnor
            assert md.mu_plus0 == I.quotient_dimension() == k + 1

    def test_mu_tilde_needs_the_kind(self):
        # A smooth locus and isolated points share (mu, beta0) = (0, 1), but
        # the isotype formulas consume mu~ = 0 for the one and -1 for the other.
        smooth = classify(ideal(["x", "y"], ["x"]), 1)
        points = classify(ideal(["x", "y"], ["x", "y"]), -1)
        assert (smooth.kind, points.kind) == (SMOOTH, ISOLATED_POINTS)
        assert milnor_fields(smooth.milnor) == (0, 1, 1, -1, 0)
        assert milnor_fields(points.milnor) == (0, 1, 1, -1, -1)

    def test_not_icis_has_no_milnor_data(self):
        cls = classify(ideal(["x", "y"], ["x*y"]), 0)
        assert cls.kind == NOT_ICIS and cls.milnor is None


class TestSmoothMuConsistency:
    def test_mu_zero_iff_smooth_on_analyzed_spaces(self, corpus):
        # Cross-check the Jacobian-rank verdict against the chain output on
        # every nonempty analyzed space of non-negative expected dimension.
        seen = 0
        for analysis in corpus.values():
            for sp in analysis.cells.values():
                cls = sp.classification
                if sp.expected_dim < 0 or not cls.nonempty:
                    continue
                seen += 1
                if cls.kind == SMOOTH:
                    assert milnor_icis(sp.ideal, sp.expected_dim) == 0
                elif cls.kind == ICIS:
                    assert cls.mu and cls.mu > 0
        assert seen > 10
