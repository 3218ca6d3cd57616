"""Polynomial layer: parsing, arithmetic, divided differences."""

from __future__ import annotations

import operator
import re
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
from germlab.errors import InvalidInputError
from germlab.poly import parse_name, records
from germlab.symrep import Partition, partitions

from sections_mu import derivative

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
        assert P("y + " + "1" * 400).terms[(0, 0, 0, 0, 0)] == int("1" * 400)


class TestRecords:
    FIELDS = {"n": 1, "pair": 2, "list": None}

    def read(self, text):
        return list(records(text, "test", self.FIELDS, once=("n",)))

    def test_comments_blank_lines_and_whitespace(self):
        text = "# head\n\n  n 2  # two\npair\ta  b\nlist\nlist x y z#w\n"
        assert self.read(text) == [
            ("n", ["2"], "n 2"), ("pair", ["a", "b"], "pair\ta  b"), ("list", [], "list"),
            ("list", ["x", "y", "z"], "list x y z"),
        ]

    @pytest.mark.parametrize("text, message", [
        ("m 1\n", "unknown test directive 'm'"),
        ("nn 1\n", "unknown test directive 'nn'"),
        ("n\n", "bad n line 'n': expected 1 field(s)"),
        ("pair a b c\n", "bad pair line 'pair a b c': expected 2 field(s)"),
        ("n 1\nlist\nn 1\n", "repeated test directive 'n'"),
    ])
    def test_errors_name_the_directive(self, text, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            self.read(text)

    def test_required_directives_are_checked_once_the_records_run_out(self):
        def keys(text, seen):
            for key, _, _ in records(text, "test", self.FIELDS, required=("n", "list")):
                seen.append(key)

        seen = []
        keys("list\nn 1\nlist\n", seen)
        assert seen == ["list", "n", "list"]
        # Every record is yielded before a missing directive is reported, and
        # an error in a record comes before it.
        seen = []
        with pytest.raises(InvalidInputError, match=re.escape("missing test directive 'list'")):
            keys("n 1\npair a b\n", seen)
        assert seen == ["n", "pair"]
        with pytest.raises(InvalidInputError, match=re.escape("missing test directive 'n'")):
            keys("# only a comment\n", [])
        with pytest.raises(InvalidInputError, match=re.escape("unknown test directive 'm'")):
            keys("m 1\n", [])

    @pytest.mark.parametrize("name", ["x", "x1", "_", "y_2", "\u00e9"])
    def test_names(self, name):
        assert parse_name(name, "variable") == name

    @pytest.mark.parametrize("name", ["", "1", "x-1", "x 1", "x^2", "#", "x$", "(x)", "x1/2"])
    def test_non_names(self, name):
        with pytest.raises(InvalidInputError, match="bad variable"):
            parse_name(name, "variable")


class TestArith:
    def test_substitute_at_origin(self):
        vs = VarSet(("x1", "y1"))
        p = parse_poly("x1 + y1^2", vs)
        assert p.substitute({"y1": MultiPoly.zero(vs)}) == parse_poly("x1", vs)

    def test_derivative_power_rule(self):
        # The test-side reference derivative of the Jacobian checks.
        assert derivative(P("y^3 + x1*y"), "y") == P("3*y^2 + x1")

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

    @pytest.mark.parametrize("text", ["y1*y2", "y1 + y2", "x1 + y2^3", "y1^2 + x1*y2"])
    def test_fresh_variable_required(self, text):
        # The terms y2, y2^3 and x1*y2 hold no y1, so the kernel would map
        # them to nothing; divided_difference checks every term first.
        with pytest.raises(VariableMismatchError, match="variable y2 already occurs"):
            divided_difference(parse_poly(text, V3), "y1", "y2")


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


_GERM_VARS = VarSet(("x1", "y"))


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
        p.scale(int(c)),
        divided_difference(p, "y1", "y2"),
        MultiPoly.zero(V3), MultiPoly.constant(V3, c), MultiPoly.constant(V3, 0),
        MultiPoly.constant(V3, int(c)), MultiPoly.variable(V3, "y1"),
    ]
    for r in results:
        assert r.vars == V3
        assert _nonzero_fractions(r)
    assert (q - q).is_zero() and (p + (-p)).is_zero() and p.scale(0).is_zero()
    assert MultiPoly.zero(V3).is_zero() and MultiPoly.constant(V3, 0).is_zero()
    assert MultiPoly.constant(V3, c).terms.get((0, 0, 0), 0) == c
    assert MultiPoly.variable(V3, "y1") == parse_poly("y1", V3)
    for gen in _cell_generators(p, q):
        assert _nonzero_fractions(gen)


def _fraction_dict_reference(p: MultiPoly, op: str, q: MultiPoly) -> dict:
    """p op q for op in + - *, on plain dicts of Fractions, zeros dropped."""
    out: dict = {}
    if op == "*":
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    else:
        out = dict(p.terms)
        for e, c in q.terms.items():
            out[e] = out.get(e, Fraction(0)) + (c if op == "+" else -c)
    return {e: c for e, c in out.items() if c}


# Exponents 0..2 and few coefficient values: terms collide and cancel often.
_colliding_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
    st.sampled_from([Fraction(-1), Fraction(1), Fraction(1, 2), Fraction(-2, 3)]),
    max_size=5,
).map(lambda d: MultiPoly(V3, d))


@given(st.one_of(_polys, _colliding_polys), st.one_of(_polys, _colliding_polys))
@settings(max_examples=200)
def test_ring_operations_match_a_fraction_dict_reference(p, q):
    # Against -p, + cancels every term and - doubles each.
    for op, apply in (("+", operator.add), ("-", operator.sub), ("*", operator.mul)):
        for rhs in (q, -p):
            got = apply(p, rhs)
            assert got.terms == _fraction_dict_reference(p, op, rhs)
            assert _nonzero_fractions(got)


@pytest.mark.parametrize(
    "k, parts, expected",
    [
        # Level 2 of y^5 is h_4(y1, y2), whose 5 terms collapse onto z1^4.
        (2, (2,), ["z1", "x1 + 5*z1^4"]),
        # Level 3 of y^5 is h_3(y1, y2, y3): 10 terms onto z1^3 ...
        (3, (3,), ["z1", "x1 + 5*z1^4", "1/2", "10*z1^3"]),
        # ... or onto the spreads of 3 over the blocks (y1, y2), (y3),
        # z1^s * z2^(3-s) with multiplicity s + 1.
        (3, (2, 1), ["z1", "x1 + 5*z1^4", "1/2",
                     "z2^3 + 2*z1*z2^2 + 3*z1^2*z2 + 4*z1^3"]),
    ],
    ids=["k2-(2)", "k3-(3)", "k3-(2,1)"],
)
def test_fixed_locus_generators_by_hand(k, parts, expected):
    # The germ (1/2*y^2, x1*y + y^5): the x1*y term stops at level 2, and
    # the 1/2 of the first component halves its coefficients.
    g = mp.germ(2, 3, ["1/2*y^2", "x1*y + y^5"])
    ideal = mp.fixed_locus_equations(g, k, Partition(parts))
    vs = VarSet(("x1",) + tuple(f"z{i}" for i in range(1, len(parts) + 1)))
    assert ideal.ambient == vs
    assert [gen.terms for gen in ideal.generators] == [parse_poly(t, vs).terms for t in expected]
    assert all(_nonzero_fractions(gen) for gen in ideal.generators)


def _repeated_product(p: MultiPoly, n: int) -> MultiPoly:
    out = MultiPoly.constant(p.vars, 1)
    for _ in range(n):
        out = out * p
    return out


_monomials = st.builds(lambda e, c: MultiPoly(V3, {e: c}), _exps2, _coeffs.filter(bool))


@pytest.mark.parametrize("polys", [_monomials, _polys], ids=["monomial", "polynomial"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_power_equals_repeated_product(polys, data):
    p, n = data.draw(polys), data.draw(st.integers(0, 7))
    got = p**n
    assert got == _repeated_product(p, n)
    assert _nonzero_fractions(got)
