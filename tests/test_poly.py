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

    def test_extension_into_larger_variable_set(self):
        small = VarSet(("x1", "y"))
        big = VarSet(("x1", "x2", "y"))
        p = parse_poly("y^2 + x1", small)
        assert p.extend(big) == parse_poly("y^2 + x1", big)


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
