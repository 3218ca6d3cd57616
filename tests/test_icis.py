"""Variety classification and Milnor numbers."""

from __future__ import annotations

import pytest

from germlab import (
    LocalIdeal,
    MilnorData,
    NotIcisError,
    ResourceLimitError,
    VarSet,
    classify,
    milnor_data,
    milnor_hypersurface,
    milnor_icis,
    parse_poly,
)
from germlab import multipoint as mp
from germlab.icis import EMPTY, ICIS, ISOLATED_POINTS, NOT_ICIS, SMOOTH, _random_recombination
import random


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


class TestMilnorData:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_curve_data(self, k):
        I = ideal(["x", "y1", "y2"], ["y1 + y2", f"y1^2 + y1*y2 + y2^2 + x^{k + 1}"])
        md = milnor_data(I, 1)
        assert md == MilnorData(mu=k, beta0=1, mu_plus0=k + 1, mu_minus0=k - 1, mu_tilde=k)

    def test_empty_is_all_zero(self):
        I = ideal(["x"], ["1 + x"])
        assert milnor_data(I, 0) == MilnorData(0, 0, 0, 0, 0)

    def test_isolated_points_have_mu_tilde_minus_one(self):
        I = ideal(["x", "y"], ["x", "y^2"])
        md = milnor_data(I, -1)
        assert md.mu_tilde == -1 and md.beta0 == 1

    def test_zero_dim_point_count_is_mu_plus0(self):
        # Fiber point count of a fat point equals the quotient dimension.
        for k in (1, 2, 3):
            I = ideal(["x", "y1"], ["y1", f"x^{k + 1}"])
            md = milnor_data(I, 0)
            assert md.mu_plus0 == I.quotient_dimension() == k + 1


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
