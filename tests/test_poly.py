"""Polynomial layer: parsing, arithmetic, divided differences."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import (
    MultiPoly,
    PolySyntaxError,
    VariableMismatchError,
    VarSet,
    divided_difference,
    format_poly,
    parse_poly,
)
from germlab import multipoint as mp
from germlab.localalg import DEFAULT_STEP_BUDGET
from germlab.poly import ROLE_BASE, ROLE_CORANK
from germlab.symrep import Partition, partitions

V5 = VarSet(("x1", "x2", "x3", "x4", "y"))
V3 = VarSet(("x1", "y1", "y2"))


def P(text, vs=V5):
    return parse_poly(text, vs)


class TestParse:
    def test_paper_style_polynomial(self):
        p = P("y^3+x1*y")
        assert p.terms == {
            (0, 0, 0, 0, 3): Fraction(1),
            (1, 0, 0, 0, 1): Fraction(1),
        }

    def test_zero(self):
        assert P("0").is_zero()
        assert P("0").terms == {}

    def test_double_caret_errors_at_offset_2(self):
        with pytest.raises(PolySyntaxError) as err:
            P("y^^2")
        assert err.value.position == 2

    def test_unknown_variable(self):
        with pytest.raises(PolySyntaxError):
            P("y + w")

    def test_rational_literals_and_parens(self):
        p = P("3/2*(x1 - 2)^2")
        assert p.terms[(2, 0, 0, 0, 0)] == Fraction(3, 2)
        assert p.terms[(0, 0, 0, 0, 0)] == Fraction(6)
        assert p.terms[(1, 0, 0, 0, 0)] == Fraction(-6)

    def test_unary_minus(self):
        assert P("-y + y").is_zero()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PolySyntaxError):
            P("x1 x2")

    @pytest.mark.parametrize("text, offset", [("y^\u00b2", 2), ("\u0661*y", 0), ("2\u00b2", 1)])
    def test_only_ascii_digits_form_integers(self, text, offset):
        with pytest.raises(PolySyntaxError) as err:
            P(text)
        assert err.value.position == offset

    def test_integer_with_too_many_digits_is_a_syntax_error(self):
        # int() converts at most 4300 digits.
        with pytest.raises(PolySyntaxError) as err:
            P("y + " + "1" * 5000)
        assert err.value.position == 4
        assert P("y + " + "1" * 400).constant_term() == int("1" * 400)


class TestArith:
    def test_substitute_at_origin(self):
        vs = VarSet(("x1", "y1"))
        p = parse_poly("x1 + y1^2", vs)
        assert p.substitute({"y1": MultiPoly.zero(vs)}) == parse_poly("x1", vs)

    def test_derivative_power_rule(self):
        assert P("y^3 + x1*y").derivative("y") == P("3*y^2 + x1")

    def test_product_matches_divided_difference_reconstruction(self):
        # (y2 - y1) * (x1 + y1^2 + y1*y2 + y2^2) telescopes between the two levels.
        vs = VarSet(("x1", "y1", "y2"))
        lhs = parse_poly("y2 - y1", vs) * parse_poly("x1 + y1^2 + y1*y2 + y2^2", vs)
        assert lhs == parse_poly("(y2^3 + x1*y2) - (y1^3 + x1*y1)", vs)

    def test_variable_mismatch_raises(self):
        with pytest.raises(VariableMismatchError):
            P("y") + parse_poly("y1", V3)

    def test_zero_coefficients_never_stored(self):
        p = P("y - y + x1")
        assert all(c != 0 for c in p.terms.values())


class TestConstructors:
    def test_public_constructor_rejects_exponents_of_the_wrong_width(self):
        with pytest.raises(VariableMismatchError):
            MultiPoly(V3, {(1, 0): 1})
        with pytest.raises(VariableMismatchError):
            MultiPoly(V3, {(0, 0, 0): 1, (1, 0, 0, 0): 2})

    def test_public_constructor_coerces_to_fractions_and_drops_zeros(self):
        p = MultiPoly(V3, {(1, 0, 0): 2, (0, 1, 0): 0, (0, 0, 1): Fraction(1, 3)})
        assert p.terms == {(1, 0, 0): Fraction(2), (0, 0, 1): Fraction(1, 3)}
        assert all(type(c) is Fraction for c in p.terms.values())


class TestDividedDifference:
    def test_cubic_component(self):
        h = parse_poly("y1^3 + x1*y1", V3)
        assert divided_difference(h, "y1", "y2") == parse_poly(
            "x1 + y1^2 + y1*y2 + y2^2", V3
        )

    def test_mixed_component(self):
        vs = VarSet(("x1", "x4", "y1", "y2"))
        h = parse_poly("x4*y1 + x1*y1^2", vs)
        assert divided_difference(h, "y1", "y2") == parse_poly(
            "x4 + x1*(y1 + y2)", vs
        )

    def test_constant_maps_to_zero(self):
        assert divided_difference(parse_poly("5", V3), "y1", "y2").is_zero()

    def test_iteration_reaches_linear_level(self):
        vs = VarSet(("x1", "y1", "y2", "y3"))
        level2 = parse_poly("x1 + y1^2 + y1*y2 + y2^2", vs)
        assert divided_difference(level2, "y2", "y3") == parse_poly(
            "y1 + y2 + y3", vs
        )

    def test_fresh_variable_required(self):
        with pytest.raises(VariableMismatchError):
            divided_difference(parse_poly("y1*y2", V3), "y1", "y2")


# -- properties ---------------------------------------------------------------

_coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)
_exps2 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.just(0))
_polys = st.dictionaries(_exps2, _coeffs, max_size=6).map(
    lambda d: MultiPoly(V3, d)
)


@given(_polys)
@settings(max_examples=60)
def test_print_parse_round_trip(p):
    assert parse_poly(format_poly(p), V3) == p


@given(_polys)
@settings(max_examples=60)
def test_reconstruction_identity(p):
    # (y_new - y_old) * dd(h) + h == h[y_old -> y_new], exactly.
    dd = divided_difference(p, "y1", "y2")
    lhs = parse_poly("y2 - y1", V3) * dd + p
    rhs = p.substitute({"y1": MultiPoly.variable(V3, "y2")})
    assert lhs == rhs


def _permute(p, mapping, vs):
    return p.substitute({src: MultiPoly.variable(vs, dst) for src, dst in mapping.items()})


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), _coeffs, max_size=5))
@settings(max_examples=60)
def test_iterated_differences_stay_symmetric(d):
    # Divided differences of a one-y-variable component are symmetric in the
    # y-variables introduced so far, at every level.
    vs = VarSet(("x1", "y1", "y2", "y3"))
    h = MultiPoly(vs, {(a, b, 0, 0): c for (a, b), c in d.items()})
    level2 = divided_difference(h, "y1", "y2")
    assert _permute(level2, {"y1": "y2", "y2": "y1"}, vs) == level2
    level3 = divided_difference(level2, "y2", "y3")
    for mapping in (
        {"y1": "y2", "y2": "y1"},
        {"y1": "y2", "y2": "y3", "y3": "y1"},
        {"y2": "y3", "y3": "y2"},
    ):
        assert _permute(level3, mapping, vs) == level3


def _nonzero_fractions(p: MultiPoly) -> bool:
    return all(type(c) is Fraction and c != 0 for c in p.terms.values())


_GERM_VARS = VarSet(("x1", "y"), (ROLE_BASE, ROLE_CORANK))


def _cell_generators(p: MultiPoly, q: MultiPoly) -> list[MultiPoly]:
    """Every D^k and D^k(f)^sigma generator of the (2, 3) germ (x1, p, q),
    with y1 read as y and constant terms dropped."""
    comps = tuple(
        MultiPoly(_GERM_VARS, {(a, b): c for (a, b, _), c in h.terms.items() if a or b})
        for h in (p, q)
    )
    g = mp.GermSpec(2, 3, ("x1",), "y", comps)
    gens: list[MultiPoly] = []
    for k in range(2, mp.kappa(2, 3) + 2):
        gens += mp.multiple_point_equations(g, k).generators
        for shape in partitions(k):
            gens += mp.fixed_locus_equations(g, k, shape).generators
    return gens


@given(_polys, _polys, _coeffs)
@settings(max_examples=100)
def test_ring_operations_hold_only_nonzero_fractions(p, q, c):
    # q - q, p + (-p) and scaling by 0 cancel every term: the trusted
    # constructor behind the ring operations must drop what cancels.
    results = [
        p + q, p - q, q - q, p + (-p), -p, p * q, p * (q - q), p.scale(c), p.scale(0),
        p.scale(int(c)), p.derivative("x1"), p.derivative("y2"),
        divided_difference(p, "y1", "y2"),
        MultiPoly.zero(V3), MultiPoly.constant(V3, c), MultiPoly.constant(V3, 0),
        MultiPoly.constant(V3, int(c)), MultiPoly.variable(V3, "y1"),
    ]
    for r in results:
        assert r.vars == V3
        assert _nonzero_fractions(r)
    assert (q - q).is_zero() and (p + (-p)).is_zero() and p.scale(0).is_zero()
    assert MultiPoly.zero(V3).is_zero() and MultiPoly.constant(V3, 0).is_zero()
    assert MultiPoly.constant(V3, c).constant_term() == c
    assert MultiPoly.variable(V3, "y1") == parse_poly("y1", V3)
    assert type(p.constant_term()) is Fraction
    for gen in _cell_generators(p, q):
        assert _nonzero_fractions(gen)


def test_fixed_locus_map_drops_the_terms_it_cancels():
    # Under the swap y1, y2 -> z1 the hand-made row (x1 + y1^2 - y2^2, y1 - y2)
    # sums to (x1, 0): the collision sum must drop what cancels.
    g = mp.germ(2, 3, ["y^2", "x1*y"])
    amb = VarSet(("x1", "y1", "y2"), (ROLE_BASE, ROLE_CORANK, ROLE_CORANK))
    row = [parse_poly("x1 + y1^2 - y2^2", amb), parse_poly("y1 - y2", amb)]
    table = (amb, [1, 1], [[{e: int(c) for e, c in p.terms.items()} for p in row]])
    ideal = mp._fixed_ideal(g, table, Partition((2,)), DEFAULT_STEP_BUDGET)
    assert [gen.terms for gen in ideal.generators] == [{(1, 0): 1}]
    assert all(_nonzero_fractions(gen) for gen in ideal.generators)


def _repeated_product(p: MultiPoly, n: int) -> MultiPoly:
    out = MultiPoly.constant(p.vars, 1)
    for _ in range(n):
        out = out * p
    return out


_monomials = st.builds(lambda e, c: MultiPoly(V3, {e: c}), _exps2, _coeffs.filter(bool))


@pytest.mark.parametrize("polys", [_monomials, _polys], ids=["monomial", "polynomial"])
@settings(max_examples=100)
@given(data=st.data())
def test_power_equals_repeated_product(polys, data):
    p, n = data.draw(polys), data.draw(st.integers(0, 7))
    got = p**n
    assert got == _repeated_product(p, n)
    assert _nonzero_fractions(got)
