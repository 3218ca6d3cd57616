"""Local standard bases: order, Mora reduction, derived ideal facts."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from germlab import (
    INFINITE,
    InvalidInputError,
    LocalIdeal,
    MultiPoly,
    ResourceLimitError,
    VarSet,
    ideal_from_text,
    parse_poly,
)
from germlab.localalg import (
    DEFAULT_STEP_BUDGET,
    _Budget,
    _integer_terms,
    _monomial_ideal_dimension,
    mora_normal_form,
    order_key,
)
from germlab import localalg
from germlab import multipoint as mp
from germlab.poly import format_poly

import fraction_mora
from fraction_mora import leading_monomial, monomial_mul
from staircase_box import box_count, box_size

DATA = Path(__file__).resolve().parent / "data"

# The (16,22) germ emitted by `germlab sc-generate 16 22` (kappa = 3).
SC_16_22 = """\
n 16
p 22
base x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15
corank y
component x15*y^3 + y^4 + x2*y^2 + x1*y
component y^5 + x4*y^2 + x3*y
component y^6 + x6*y^2 + x5*y
component y^7 + x8*y^2 + x7*y
component y^8 + x10*y^2 + x9*y
component y^9 + x12*y^2 + x11*y
component y^10 + x14*y^2 + x13*y
"""

# (number of variables, a list of up to 10 exponent vectors)
monomial_sets = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=10).map(lambda lms: (n, lms))
)


# Up to 4 variables, up to 3 generators of up to 4 terms with exponents <= 3
# and small rational coefficients; then one more polynomial to reduce.
@st.composite
def small_ideals(draw):
    n = draw(st.integers(1, 4))
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=4).map(lambda d: MultiPoly(vs, d))
    return draw(st.lists(polys, min_size=1, max_size=3)), draw(polys)


# Shaped like the heads of the kappa-3 ladder's D^4 cells: 6 to 20
# variables, up to 6 generators, each a linear or quadratic leading part
# plus up to 3 terms of degree 2 to 4, all sparse.  Most leading monomials
# are then coprime and most reducers have a variable the remainder lacks, so
# the support masks decide most pairs and divisibility tests; then one more
# sparse polynomial to reduce.
@st.composite
def ladder_head_ideals(draw):
    n = draw(st.integers(6, 20))
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)

    def monomial(degree):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
        return tuple(idx.count(i) for i in range(n))

    def sparse(lead_degrees):
        mons = [monomial(draw(lead_degrees))]
        mons += [monomial(draw(st.integers(2, 4))) for _ in range(draw(st.integers(0, 3)))]
        return MultiPoly(vs, {m: draw(coeffs) for m in mons})

    gens = [sparse(st.sampled_from((1, 1, 2))) for _ in range(draw(st.integers(1, 6)))]
    return gens, sparse(st.integers(1, 4))


# The reference's budget; an example it cannot finish is skipped.  The
# integer kernel takes the same steps but charges each by its own coefficient
# bits, so it runs under KERNEL_BUDGET.
REFERENCE_BUDGET = 20_000
KERNEL_BUDGET = 5 * REFERENCE_BUDGET


def reference(compute, *args):
    try:
        return compute(*args)
    except ResourceLimitError:
        assume(False)


def reducers(basis):
    """MultiPolys as the reducers mora_normal_form takes."""
    return [localalg._entry(_integer_terms(g)) for g in basis]


def monic_standard_basis(gens, budget=DEFAULT_STEP_BUDGET):
    """The standard basis of MultiPoly generators, as monic MultiPolys."""
    return list(LocalIdeal(gens, gens[0].vars, budget).standard_basis().generators)


def normal_form(ideal, p):
    """Mora normal form of p against the ideal's standard basis; 0 iff p is
    a member."""
    return mora_normal_form(p, ideal._reducers, _Budget(ideal.budget))


def ideal(var_names, gens, **kw):
    vs = VarSet(tuple(var_names))
    return LocalIdeal([parse_poly(g, vs) for g in gens], vs, **kw)


class TestOrder:
    def test_constant_monomial_is_maximal(self):
        one = (0, 0, 0)
        for exp in [(1, 0, 0), (0, 2, 0), (3, 1, 4)]:
            assert order_key(one) > order_key(exp)

    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    )
    @settings(max_examples=120)
    def test_multiplicative_compatibility(self, a, b, m):
        if order_key(a) > order_key(b):
            assert order_key(monomial_mul(m, a)) > order_key(monomial_mul(m, b))

    @given(monomial_sets, st.lists(st.integers(-5, 5).filter(bool), min_size=10, max_size=10))
    @settings(max_examples=200)
    def test_leading_monomial_is_order_key_maximum(self, n_and_lms, coeffs):
        n, lms = n_and_lms
        assume(lms)
        p = MultiPoly(VarSet(tuple(f"x{i}" for i in range(n))), dict(zip(lms, coeffs)))
        assert leading_monomial(p) == max(p.terms, key=order_key)


@st.composite
def exponent_pairs(draw):
    """Two sparse exponents in 1 to 70 variables; half the time the first
    divides the second."""
    n = draw(st.integers(1, 70))

    def exponent():
        # Counted from the last variable, which a fixed-width mask would lose.
        variables = st.integers(0, n - 1).map(lambda k: n - 1 - k)
        support = draw(st.sets(variables, max_size=min(n, 6)))
        return tuple(draw(st.integers(1, 3)) if i in support else 0 for i in range(n))

    a, b = exponent(), exponent()
    return a, monomial_mul(a, b) if draw(st.booleans()) else b


class TestSupportMasks:
    """A support mask only answers what the supports already decide, at any
    number of variables."""

    @given(exponent_pairs())
    @example(((0,) * 69 + (1,), (1,) + (0,) * 68 + (1,)))  # x69 divides x0*x69
    @settings(max_examples=300)
    def test_masks_decide_divisibility_and_coprimality(self, pair):
        a, b = pair
        mask_a, mask_b = localalg._mask(a), localalg._mask(b)
        assert mask_a == sum(1 << i for i, e in enumerate(a) if e)
        if localalg.monomial_divides(a, b):
            assert not mask_a & ~mask_b
        assert (not mask_a & mask_b) == (localalg.monomial_lcm(a, b) == monomial_mul(a, b))


class TestStandardBasis:
    def test_local_unit_absorbs_higher_terms(self):
        # x - x^2 = x(1 - x): locally the ideal is (x).
        I = ideal(["x"], ["x - x^2"])
        assert I.leading_monomials == ((1,),)
        assert I.quotient_dimension() == 1
        assert not I.contains_unit()

    def test_scaled_maximal_ideal(self):
        I = ideal(["x", "y"], ["2*x", "2*y"])
        assert sorted(I.leading_monomials) == [(0, 1), (1, 0)]
        assert I.quotient_dimension() == 1

    def test_unit_generator(self):
        I = ideal(["x"], ["1 + x"])
        assert I.contains_unit()
        assert I.krull_dimension() == -1
        assert I.quotient_dimension() == 0

    @given(small_ideals())
    @settings(max_examples=200, deadline=None)
    def test_contains_unit_reads_constant_terms(self, drawn):
        # A generator with a nonzero constant term is a unit; otherwise every
        # generator lies in m.  No standard basis is needed, and none is built.
        gens, _ = drawn
        I = LocalIdeal(gens, gens[0].vars, budget=KERNEL_BUDGET)
        unit = I.contains_unit()
        assert "_reducers" not in vars(I)
        lms = reference(lambda: I.leading_monomials)
        assert unit == any(sum(lm) == 0 for lm in lms)

    def test_basis_soundness_original_generators_reduce_to_zero(self):
        gens = ["y1 + y2", "y1^2 + y1*y2 + y2^2 + x^3", "x*y1 - y2^3"]
        I = ideal(["x", "y1", "y2"], gens)
        std = I.standard_basis()
        vs = I.ambient
        for g in gens:
            assert normal_form(std, parse_poly(g, vs)).is_zero()

    def test_mutual_reduction_of_permuted_bases(self):
        gens = [
            "y1 + y2",
            "y1^2 + y1*y2 + y2^2 + x^3",
            "x*y1 - y2^3",
        ]
        forward = ideal(["x", "y1", "y2"], gens).standard_basis()
        backward = ideal(["x", "y1", "y2"], list(reversed(gens))).standard_basis()
        for g in forward.generators:
            assert normal_form(backward, g).is_zero()
        for g in backward.generators:
            assert normal_form(forward, g).is_zero()

    def test_golden_basis_of_16_22_triple_point_ideal(self):
        I = mp.multiple_point_equations(mp.germ_from_text(SC_16_22), 3)
        golden = [
            line
            for line in (DATA / "sc_16_22_d3_standard_basis.txt").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert [format_poly(g) for g in monic_standard_basis(I.generators)] == golden

    def test_golden_basis_that_depends_on_pair_order(self):
        # Reducing pairs of equal lcm degree in lex rather than reverse-lex
        # order of the lcm yields a different last element, so this pins
        # the queue order (captured before the heap queue was introduced).
        I = ideal(
            ["x", "y", "z"],
            [
                "2*x*y^3*z^2 + 3*x*y*z^2 + y*z^3",
                "2*y*z^2 + 8*x^2*y + 4*x*y*z^2",
                "5*x*y^3*z + 5*y^3*z^3",
            ],
        )
        assert [format_poly(g) for g in monic_standard_basis(I.generators)] == [
            "1/2*x*y*z^2 + x^2*y + 1/4*y*z^2",
            "2/3*x*y^3*z^2 + x*y*z^2 + 1/3*y*z^3",
            "y^3*z^3 + x*y^3*z",
            "-24/13*x^2*y^3*z^2 + 8/13*x*y^3*z^3 + 18/13*x*y*z^4 + y*z^4",
            "-2*x*y^3*z^3 + y^3*z^3",
        ]

    def test_idempotent(self):
        I = ideal(["x", "y1", "y2"], ["y1 + y2", "y1^2 + y1*y2 + y2^2 + x^3"])
        std = I.standard_basis()
        again = std.standard_basis()
        assert again is not std
        assert [str(g) for g in std.generators] == [str(g) for g in again.generators]


def same_standard_basis(gens):
    expected = reference(fraction_mora.standard_basis, gens, REFERENCE_BUDGET)
    got = monic_standard_basis(gens, KERNEL_BUDGET)
    assert [format_poly(g) for g in got] == [format_poly(g) for g in expected]
    assert got == expected


def same_normal_forms(gens, p):
    # Against the raw generators (recruitment at work) and against the
    # standard basis (membership), the latter both as given and as the
    # ideal's own reducers: the same verdict, and a remainder that is the
    # reference's times a nonzero rational, with integer coefficients.
    std = reference(fraction_mora.standard_basis, gens, REFERENCE_BUDGET)
    I = LocalIdeal(gens, gens[0].vars, budget=KERNEL_BUDGET)
    for basis, reduce in (
        (gens, lambda q: mora_normal_form(q, reducers(gens), _Budget(KERNEL_BUDGET))),
        (std, lambda q: mora_normal_form(q, reducers(std), _Budget(KERNEL_BUDGET))),
        (std, lambda q: normal_form(I, q)),
    ):
        for q in (p, *gens):
            expected = reference(
                fraction_mora.mora_normal_form, q, basis, _Budget(REFERENCE_BUDGET)
            )
            got = reduce(q)
            assert got.is_zero() == expected.is_zero()
            if not got.is_zero():
                assert fraction_mora.monic(got) == fraction_mora.monic(expected)
                assert all(c.denominator == 1 for c in got.terms.values())


class TestFractionReference:
    """The integer kernel against the Fraction engine it replaced, which
    tests every exponent and builds every lcm."""

    @given(small_ideals())
    @settings(max_examples=200, deadline=None)
    def test_standard_bases_match(self, drawn):
        same_standard_basis(drawn[0])

    @given(small_ideals())
    @settings(max_examples=200, deadline=None)
    def test_normal_forms_match(self, drawn):
        same_normal_forms(*drawn)

    @given(ladder_head_ideals())
    @settings(max_examples=100, deadline=None)
    def test_standard_bases_match_on_sparse_ideals(self, drawn):
        same_standard_basis(drawn[0])

    @given(ladder_head_ideals())
    @settings(max_examples=100, deadline=None)
    def test_normal_forms_match_on_sparse_ideals(self, drawn):
        same_normal_forms(*drawn)

    def test_pseudo_division_divides_by_the_gcd_of_leading_coefficients(self):
        # d = gcd(2, 4) = 2: h := (4/2) h - (2/2) g.  Multiplying by 4 and 2
        # instead would return 12*y^2 - 2*z^2.
        vs = VarSet(("x", "y", "z"))
        nf = mora_normal_form(
            parse_poly("2*x + 3*y^2", vs), reducers([parse_poly("4*x + z^2", vs)]), _Budget(100)
        )
        assert nf == parse_poly("6*y^2 - z^2", vs)


class TestConstruction:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_nonzero_generators_and_their_integer_maps_are_kept(self, data):
        # Every ideal has one state, integer maps with a denominator each:
        # the MultiPolys read back from it are the nonzero inputs.
        gens, p = data.draw(small_ideals())
        vs = p.vars
        zeros = [MultiPoly.zero(vs), p - p]
        mixed = data.draw(st.permutations(gens + zeros[: data.draw(st.integers(0, 2))]))
        I = LocalIdeal(mixed, vs)
        nonzero = [g for g in mixed if not g.is_zero()]
        assert I.generators == tuple(nonzero)
        assert all(type(c) is Fraction for g in I.generators for c in g.terms.values())
        assert I._terms == tuple(map(_integer_terms, nonzero))


class TestNormalForm:
    def test_membership(self):
        I = ideal(["x", "y"], ["x"])
        assert normal_form(I, parse_poly("x^2", I.ambient)).is_zero()

    def test_non_membership(self):
        I = ideal(["x", "y"], ["x"])
        nf = normal_form(I, parse_poly("y", I.ambient))
        assert nf == parse_poly("y", I.ambient)

    def test_crosscap_double_point_ideal_is_swap_stable(self):
        g = mp.germ(2, 3, ["y^2", "x1*y"])
        I = mp.multiple_point_equations(g, 2)
        vs = I.ambient
        swap = {"y1": MultiPoly.variable(vs, "y2"), "y2": MultiPoly.variable(vs, "y1")}
        for gen in I.generators:
            assert normal_form(I, gen.substitute(swap)).is_zero()


def _krull_by_subsets(lms, nvars):
    """Oracle: the largest variable subset containing no support."""
    supports = [{i for i, e in enumerate(lm) if e} for lm in lms]
    if any(not s for s in supports):
        return -1
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            if not any(s <= set(subset) for s in supports):
                return size


class TestDimensions:
    @given(monomial_sets)
    @settings(max_examples=300)
    def test_hitting_set_dimension_matches_subset_enumeration(self, n_and_lms):
        n, lms = n_and_lms
        assert _monomial_ideal_dimension(lms, n, _Budget(10**6)) == _krull_by_subsets(lms, n)

    def test_krull_dimension_of_double_point_space(self):
        g = mp.germ(5, 8, ["y^3+x1*y", "y^4+x2*y", "y^5+x3*y", "x4*y+x1*y^2"])
        I = mp.multiple_point_equations(g, 2)
        assert I.krull_dimension() == 2

    def test_krull_unit_ideal(self):
        assert ideal(["x", "y"], ["1 + x"]).krull_dimension() == -1

    def test_krull_zero_ideal(self):
        vs = VarSet(("x", "y", "z"))
        assert LocalIdeal([], vs).krull_dimension() == 3

    def test_quotient_dim_jacobian_of_cubic(self):
        # Jacobian ideal of x^3 + y^3: staircase {1, x, y, xy}.
        I = ideal(["x", "y"], ["3*x^2", "3*y^2"])
        assert I.quotient_dimension() == 4

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_quotient_dim_line_plus_power(self, k):
        I = ideal(["x", "y1"], ["y1", f"x^{k + 1}"])
        assert I.quotient_dimension() == k + 1

    def test_quotient_dim_zero_ideal_infinite(self):
        vs = VarSet(("x",))
        assert LocalIdeal([], vs).quotient_dimension() == INFINITE

    def test_quotient_dim_no_variables(self):
        # The zero ideal of the ring of constants: the staircase is {1}.
        assert LocalIdeal([], VarSet(())).quotient_dimension() == 1

    def test_finite_quotient_iff_krull_nonpositive(self):
        cases = [
            ideal(["x", "y"], ["x"]),
            ideal(["x", "y"], ["x", "y^2"]),
            ideal(["x", "y"], ["1 + y"]),
            ideal(["x", "y"], ["x*y"]),
        ]
        for I in cases:
            finite = I.quotient_dimension() != INFINITE
            assert finite == (I.krull_dimension() <= 0)


# (number of variables <= 4, monomials containing a pure power of each)
zero_dimensional_monomial_sets = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, 5), min_size=n, max_size=n),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=8),
    )
)


class TestStaircaseWalk:
    @given(zero_dimensional_monomial_sets)
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_the_box_count(self, drawn):
        n, powers, extra = drawn
        pure = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(powers)]
        lms = pure + [e for e in extra if any(e)]
        vs = VarSet(tuple(f"x{i}" for i in range(n)))
        charges = []

        class Recording(_Budget):
            def tick(self, what: str, cost: int = 1):
                if what == "staircase enumeration":
                    charges.append(cost)
                super().tick(what, cost)

        # The ideal opens its ledger when it is built.
        with mock.patch.object(localalg, "_Budget", Recording):
            I = LocalIdeal([MultiPoly(vs, {e: 1}) for e in lms], vs)
        count = I.quotient_dimension()
        assert count == box_count(lms, n)
        assert sum(charges) == count <= box_size(lms, n)

    def test_charge_is_one_unit_per_standard_monomial(self):
        # Staircase {1, x, y, xy} of (x^2, y^2): its four units and the two
        # nodes of the Krull-dimension search before it fit a budget of six
        # (TestBudget shows a budget of three running out).
        I = ideal(["x", "y"], ["x^2", "y^2"], budget=6)
        assert I.quotient_dimension() == 4


class TestBudget:
    def test_budget_exhaustion_is_distinct(self):
        I = ideal(["x", "y"], ["x^2", "y^2"], budget=3)
        with pytest.raises(ResourceLimitError) as err:
            I.quotient_dimension()
        assert err.value.steps == 3


    def test_budget_bounds_krull_search(self):
        # Disjoint leading monomials: no pair survives the product criterion,
        # so the hitting-set search is the first work charged.
        names = [f"x{i}" for i in range(1, 17)]
        gens = [f"x{i}*x{i + 1}" for i in range(1, 17, 2)]
        assert ideal(names, gens).krull_dimension() == 8
        with pytest.raises(ResourceLimitError) as err:
            ideal(names, gens, budget=5).krull_dimension()
        assert "Krull" in str(err.value)


class TestSerialization:
    def test_header_with_a_comment(self):
        # `vars x y   # plane` used to declare the variables '#' and 'plane'.
        I = ideal_from_text("# the cusp\nvars x y   # plane\n\nx^3 + y^3  # D4\n")
        assert I.ambient.names == ("x", "y")
        assert [str(g) for g in I.generators] == ["x^3 + y^3"]

    @pytest.mark.parametrize("text, message", [
        ("vars x 1\nx^2\n", "bad variable '1'"),
        ("vars x y^2\nx^2\n", "bad variable 'y^2'"),
        ("varsity x y\nx^2\n", "'vars' header"),
        ("vars\nx^2\n", "declares no variables"),
        ("", "'vars' header"),
    ])
    def test_bad_headers_are_input_errors(self, text, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ideal_from_text(text)

    def test_round_trip(self):
        I = ideal(["x", "y"], ["x^2 - y", "y^3"])
        again = ideal_from_text(I.serialize())
        assert [str(g) for g in again.generators] == [str(g) for g in I.generators]
        assert again.ambient.names == I.ambient.names
