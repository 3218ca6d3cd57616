"""Variety classification and Milnor numbers."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germlab import (
    LocalIdeal,
    NotIcisError,
    ResourceLimitError,
    VarSet,
    classify,
    milnor_hypersurface,
    milnor_icis,
    parse_poly,
)
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
    _random_recombination,
    jacobian_rank_at_origin,
)
from germlab.localalg import _Budget, _extend_minors, _integer_terms
from germlab.poly import MultiPoly
import random

from fraction_minors import maximal_minors


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
        # Every linear recombination of (xy, xz) keeps the common factor x,
        # so every chain start has infinite colength and the retries must
        # exhaust and fail.
        I = ideal(["x", "y", "z"], ["x*y", "x*z"])
        with pytest.raises(NotIcisError):
            milnor_icis(I, 1)

    def test_four_concurrent_lines(self):
        # x^2+y^2+z^2 = xy = 0 is four pairwise transverse lines through the
        # origin: delta = 4 (three constant matchings plus one linear-order
        # defect across the branches), r = 4, so mu = 2*delta - r + 1 = 5.
        I = ideal(["x", "y", "z"], ["x^2 + y^2 + z^2", "x*y"])
        assert milnor_icis(I, 1) == 5

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
        # Mond's H_5 (x, y^3, x*y + y^14), double point curve: the chain in
        # generator order fails at step 1, and the recombined pass that
        # computes mu charges 473 units to its minors, while no standard
        # basis of either pass needs more than 26.
        g = mp.germ(2, 3, ["y^3", "x1*y + y^14"])
        assert milnor_icis(mp.multiple_point_equations(g, 2), 1) == 1
        I = mp.multiple_point_equations(g, 2, budget=100)
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
