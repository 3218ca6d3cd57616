"""Alternating numbers, image invariants, tables, conservation checkers."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from germlab import (
    IncompleteDataError,
    NotAFiniteError,
    NotIcisError,
    build_report,
    check_mu_conservation,
    icss_layout,
    icss_table,
    mu_alt_dk,
    mu_image,
    mu_k_tau,
    no_unexpected_deformations,
    nu_image,
)
from germlab import invariants as inv
from germlab import multipoint as mp
from germlab.icis import ICIS, ISOLATED_POINTS, _chain_mu, milnor_hypersurface
from germlab.invariants import mu_alt_formula_a, mu_alt_formula_b
from germlab.poly import MultiPoly, VarSet

from conftest import CORPUS_SPECS, NOT_A_FINITE_SPEC
from fraction_minors import maximal_minors
from fraction_mora import total_degree

DATA = Path(__file__).resolve().parent / "data"
MOND_LIST = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "mond.txt"


def mond_germs() -> list[tuple[str, int, list[str]]]:
    """(name, A_e-codimension, components) for each line of Mond's list."""
    out = []
    for line in MOND_LIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, codim, rest = line.split(None, 2)
            out.append((name, int(codim), [h.strip() for h in rest.split(";")]))
    return out


class TestMuAlt:
    @pytest.mark.parametrize("name,k,expected", [
        ("s1", 2, 1),
        ("s2", 2, 2),
        ("s3", 2, 3),
        ("s4", 2, 4),
        ("contractible_5_8", 2, 0),
        ("crosscap", 2, 0),
        ("squared_4_6", 2, 1),
        ("squared_4_6", 3, 2),
        ("triple_4_6", 2, 0),
        ("triple_4_6", 3, 1),
        ("fold_2_4", 2, 1),
    ])
    def test_values(self, corpus, name, k, expected):
        assert mu_alt_dk(corpus[name], k) == expected

    def test_both_formulas_agree_corpus_wide(self, corpus):
        checked = 0
        for an in corpus.values():
            if not an.verdict.a_finite:
                continue
            for k in range(2, an.kappa + 1):
                assert mu_alt_formula_a(an, k) == mu_alt_formula_b(an, k)
                checked += 1
        assert checked >= 10

    def test_s_family_cross_formula_decomposition(self, corpus):
        # (1/2)(k + k) on one side, (1/2)((k-1) + (k+1)) on the other.
        for k, name in [(1, "s1"), (2, "s2"), (3, "s3"), (4, "s4")]:
            an = corpus[name]
            full = an.cell(2, (1, 1)).milnor
            diag = an.cell(2, (2,)).milnor
            assert (full.mu + diag.mu) == 2 * k
            assert (full.mu_minus0 + diag.mu_plus0) == 2 * k
            assert mu_alt_dk(an, 2) == k

    def test_positive_iff_singular(self, corpus):
        for an in corpus.values():
            if not an.verdict.a_finite:
                continue
            for k in range(2, an.kappa + 1):
                sp = an.full_space(k)
                if not sp.nonempty or sp.expected_dim < 0:
                    continue
                singular = sp.classification.kind == ICIS
                assert (mu_alt_dk(an, k) > 0) == singular

    def test_not_a_finite_refused(self, not_a_finite_analysis):
        with pytest.raises(NotAFiniteError):
            mu_alt_dk(not_a_finite_analysis, 2)


class TestSingularityEquivalences:
    def test_cellwise_equivalences(self, corpus):
        # For nonempty D^k with d_k >= 0: D^k singular iff every nonempty
        # sigma-space of non-negative expected dimension is singular, iff some
        # is, iff every later nonempty D^{k+j} with d >= 0 is singular; and a
        # nonempty sigma-space at negative expected dimension forces it all.
        for an in corpus.values():
            if not an.verdict.a_finite:
                continue
            for k in range(2, an.kappa + 1):
                full = an.full_space(k)
                if not full.nonempty or full.expected_dim < 0:
                    continue
                sigma_cells = [sp for (kk, _), sp in an.cells.items() if kk == k]
                nonneg = [sp for sp in sigma_cells if sp.expected_dim >= 0 and sp.nonempty]
                negative = [sp for sp in sigma_cells if sp.expected_dim < 0 and sp.nonempty]
                singular = full.classification.kind == ICIS
                every = all(sp.classification.kind == ICIS for sp in nonneg)
                some = any(sp.classification.kind == ICIS for sp in nonneg)
                assert singular == every == some
                if negative:
                    assert singular
                later = [
                    an.full_space(j)
                    for j in range(k, an.kappa + 1)
                    if an.full_space(j).nonempty and an.full_space(j).expected_dim >= 0
                ]
                assert singular == all(sp.classification.kind == ICIS for sp in later)


class TestMuTauPipeline:
    def test_alt_label_reproduces_mu_alt(self, corpus):
        for name in ("s2", "squared_4_6", "contractible_5_8"):
            an = corpus[name]
            for k in range(2, an.kappa + 1):
                alt = "(" + ",".join(["1"] * k) + ")"
                assert mu_k_tau(an, k, alt) == mu_alt_dk(an, k)

    def test_trivial_isotype_of_family_curve_vanishes(self, corpus):
        assert mu_k_tau(corpus["s2"], 2, "(2)") == 0

    def test_degree_weighted_decomposition_recovers_full_mu(self, corpus):
        # Summing degree(tau) * mu_k^tau over all irreducibles rebuilds the
        # plain Milnor number of D^k: the isotypes partition the vanishing
        # homology.
        from germlab import character_table_symmetric

        for name in ("s3", "squared_4_6", "fold_2_4"):
            an = corpus[name]
            for k in range(2, an.verdict.d_of_f + 1):
                table = character_table_symmetric(k)
                total = sum(
                    int(table.degree(i)) * mu_k_tau(an, k, label)
                    for i, label in enumerate(table.irrep_labels)
                )
                assert total == an.full_space(k).milnor.mu


class TestImageInvariants:
    @pytest.mark.parametrize("name,mu_i,nu_i", [
        ("s1", 1, 1),
        ("s2", 2, 2),
        ("s3", 3, 3),
        ("s4", 4, 4),
        ("crosscap", 0, 0),
        ("immersion", 0, 0),
        ("stable_3_5", 0, 0),
        ("contractible_5_8", 0, 0),
        ("degenerate_2_5", 0, 0),
        ("triple_4_6", 1, -1),
        ("fold_2_4", 1, 1),
    ])
    def test_values(self, corpus, name, mu_i, nu_i):
        an = corpus[name]
        assert mu_image(an) == mu_i
        assert nu_image(an) == nu_i

    def test_signed_invariants_frozen_on_reference_germ(self, corpus):
        # Freezes the sign conventions of nu_I: the reference germ has image
        # homology ranks (beta_2, beta_3) = (2, 1), so mu_I = 3 and nu_I = -1.
        an = corpus["squared_4_6"]
        assert mu_image(an) == 3
        assert nu_image(an) == -1

    def test_criterion_2_germ_cells_match_the_hand_derivation(self, corpus):
        # (y^3+x1^2 y, y^4+x2 y, y^5+x3 y): D^2 is the A1 surface
        # x1^2 + y1^2 + y1 y2 + y2^2, D^2^(2) the A1 curve 3z^2 + x1^2, and
        # D^3 has colength 12, 2 free S_3-orbits of 6 points, so mu_3^Alt = 2.
        an = corpus["squared_4_6"]
        for shape in ((1, 1), (2,)):
            cls = an.cell(2, shape).classification
            assert (cls.kind, cls.milnor.mu) == (ICIS, 1), shape
        d3 = an.full_space(3)
        assert d3.classification.dim == 0
        assert d3.ideal.quotient_dimension() == 12
        for shape in ((3,), (2, 1)):
            assert an.cell(3, shape).classification.kind == ISOLATED_POINTS, shape
        assert mu_alt_formula_a(an, 3) == mu_alt_formula_b(an, 3) == 2

    def test_zero_mu_image_iff_stable_or_contractible(self, corpus):
        for name, an in corpus.items():
            if not an.verdict.a_finite:
                continue
            v = an.verdict
            assert (mu_image(an) == 0) == (v.stable or v.strongly_contractible), name

    def test_not_a_finite_refused(self, not_a_finite_analysis):
        with pytest.raises(NotAFiniteError):
            mu_image(not_a_finite_analysis)


class TestMondList:
    # Mond's simple germs (C^2, 0) -> (C^3, 0) are quasi-homogeneous, so
    # mu_I = A_e-codim (Mond, Proc. LMS 50, 1985), and the image of a stable
    # perturbation is a wedge of mu_I 2-spheres, so nu_I = mu_I.
    @pytest.mark.parametrize("codim,comps", [
        pytest.param(codim, comps, id=name) for name, codim, comps in mond_germs()
    ])
    def test_image_milnor_number_is_the_codimension(self, codim, comps):
        rep = build_report(mp.analyze_germ(mp.germ(2, 3, comps)))
        assert rep.mu_i == codim
        assert rep.nu_i == rep.mu_i
        assert rep.icss.image_betti == {2: rep.mu_i}

    def test_list_is_complete(self):
        assert len(mond_germs()) == 53

    def test_every_cell_keeps_its_milnor_number(self):
        # The sums above would not see a chain step that moved mu between
        # cells; the pinned table holds every cell's kind and mu.
        got = []
        for name, _, comps in mond_germs():
            for (k, parts), cell in mp.analyze_germ(mp.germ(2, 3, comps)).cells.items():
                mu = cell.classification.mu
                got.append(f"{name} {k} {','.join(map(str, parts))} "
                           f"{cell.classification.kind} {'-' if mu is None else mu}")
        pinned = (DATA / "mond_cell_mu.txt").read_text().splitlines()
        assert got == [line for line in pinned if not line.startswith("#")]


def _first_chain_pass_fails(cell) -> bool:
    """Whether milnor_icis had to recombine the cell's polynomials: its
    generator count is not the codimension, or the chain along its integer
    term maps fails."""
    ideal = cell.ideal
    if len(ideal._terms) != len(ideal.ambient) - cell.expected_dim:
        return True
    try:
        _chain_mu(ideal._terms, ideal)
    except NotIcisError:
        return True
    return False


class TestLazyGenerators:
    def test_only_a_chain_retry_builds_the_fraction_polynomials(self):
        # Cells keep their equations as integer term maps; a cell's Fraction
        # MultiPolys are built only when the chain retries on recombinations
        # of them.  Fresh analyses, so that no other test has asked for them.
        specs = [*CORPUS_SPECS.values(), NOT_A_FINITE_SPEC]
        specs += [(2, 3, comps) for _, _, comps in mond_germs()]
        germs = [mp.germ(n, p, comps) for n, p, comps in specs]
        germs += [mp.generate_sc_germ(n, p, self_check=False) for n, p in [(6, 10), (7, 11)]]
        built = 0
        for g in germs:
            analysis = mp.analyze_germ(g)
            build_report(analysis, tau="(1,1)")
            for cell in analysis.cells.values():
                if "generators" in vars(cell.ideal):
                    built += 1
                    assert _first_chain_pass_fails(cell)
        assert 0 < built < 20


_UV = VarSet(("u", "v"))


def _image_equation(g: mp.GermSpec) -> MultiPoly:
    """F(u, v) = Res_y(f1(y) - u, f2(y) - v) of a (1, 2) germ, as the one
    maximal minor of the Sylvester matrix."""
    zero = MultiPoly.zero(_UV)

    def shifted_rows(f: MultiPoly, var: str, count: int) -> list[list[MultiPoly]]:
        deg = total_degree(f)
        coeffs = [MultiPoly.constant(_UV, f.terms.get((d,), 0)) for d in range(deg, -1, -1)]
        coeffs[-1] = coeffs[-1] - MultiPoly.variable(_UV, var)
        return [[zero] * i + coeffs + [zero] * (count - 1 - i) for i in range(count)]

    f1, f2 = g.components
    rows = shifted_rows(f1, "u", total_degree(f2)) + shifted_rows(f2, "v", total_degree(f1))
    (minor,) = maximal_minors(rows, _UV)
    return minor


class TestPlaneCurveImages:
    # The image of a (1, 2) mono-germ is a plane curve with one branch, so
    # mu(image) = 2 delta (Milnor) and mu_I = delta (Mond): the Jacobian
    # colength of the resultant checks mu_I without any multiple point space.
    @pytest.mark.parametrize("f1,f2,mu_i", [
        ("y^2", "y^3", 1),
        ("y^2", "y^5", 2),
        ("y^3", "y^4", 3),
        ("y^3", "y^5", 4),
    ])
    def test_milnor_number_of_the_resultant_is_twice_mu_image(self, f1, f2, mu_i):
        g = mp.germ(1, 2, [f1, f2])
        assert mu_image(mp.analyze_germ(g)) == mu_i
        assert milnor_hypersurface(_image_equation(g)) == 2 * mu_i


class TestIcssTable:
    def test_layout_5_6(self):
        layout = icss_layout(5, 6)
        positions = {(c.r, c.q) for c in layout.cells}
        assert positions == {(1, 5), (2, 4), (3, 3), (4, 2), (5, 1), (6, 0)}

    def test_layout_7_9(self):
        layout = icss_layout(7, 9)
        positions = {(c.r, c.q) for c in layout.cells}
        assert positions == {(1, 6), (2, 4), (3, 2), (4, 0)}

    def test_stable_germ_has_no_entries(self, corpus):
        table = icss_table(corpus["stable_3_5"])
        assert table.entries == ()

    def test_placement_satisfies_degree_identity(self, corpus):
        for an in corpus.values():
            if not an.verdict.a_finite:
                continue
            table = icss_table(an)
            for cell in table.cells[:-1]:  # the final cell is the branch top term
                d_k = mp.expected_dim(an.germ.n, an.germ.p, cell.k)
                assert cell.q + cell.r == d_k + cell.k

    def test_image_betti_from_shift(self, corpus):
        table = icss_table(corpus["squared_4_6"])
        assert table.image_betti == {3: 1, 2: 2}
        table = icss_table(corpus["s3"])
        assert table.image_betti == {2: 3}
        # Mond's H_2: mu_2^Alt and mu_3^Alt both land in degree 2 and add up.
        an = mp.analyze_germ(mp.germ(2, 3, ["y^3", "x1*y + y^5"]))
        assert build_report(an).mu_alt == {2: 1, 3: 1}
        assert icss_table(an).image_betti == {2: 2}

    def test_renderings(self, corpus):
        table = icss_table(corpus["s2"])
        text = table.to_text()
        assert "2" in text and "q\\r" in text
        csv_lines = table.to_csv().splitlines()
        assert csv_lines[0] == "r,q,k,value"
        assert "1,2,2,2" in csv_lines  # mu_2^Alt = 2 at (r, q) = (1, 2)


class TestNoUnexpected:
    def test_integer_ratio_family(self, corpus):
        assert no_unexpected_deformations(corpus["s1"])  # (2,3): ratio 3

    def test_contractible_5_8_has_unexpected_potential(self, corpus):
        assert not no_unexpected_deformations(corpus["contractible_5_8"])

    def test_empty_triple_points(self, corpus):
        assert no_unexpected_deformations(corpus["stable_3_5"])


class TestMuConservationChecker:
    def test_identity_perturbation(self, corpus):
        an = corpus["s2"]
        verdict = check_mu_conservation(
            2, 3, mu_image(an), nu_image(an), {}, [mu_image(an)], [nu_image(an)]
        )
        assert verdict.holds

    def test_unexpected_homology_cancellation(self):
        # A (3, 5) fixture: one instability with local mu_I = 1 produced by
        # branch combinatorics, cancelled by one rank of degree-2 homology of
        # the perturbed image; the correction term is 0 and must be supplied.
        verdict = check_mu_conservation(
            3, 5, 0, 0, {2: 1}, [1], [1], delta=0
        )
        assert verdict.holds

    def test_missing_correction_term_refused(self):
        with pytest.raises(IncompleteDataError):
            check_mu_conservation(3, 5, 0, 0, {2: 1}, [1], [1])

    def test_fabricated_violation(self):
        verdict = check_mu_conservation(2, 3, 2, 2, {}, [1], [1])
        assert not verdict.holds
        assert verdict.mu_residual == 1


class TestReport:
    def test_full_report_round_trip_fields(self, corpus):
        rep = build_report(corpus["contractible_5_8"])
        d = rep.as_dict()
        assert d["strongly_contractible"] is True
        assert d["mu_image"] == 0
        assert d["kappa"] == 2 and d["d"] == 2
        assert any(
            sp["k"] == 2 and sp["sigma"] == [2] and sp["expected_dim"] == 1
            for sp in d["spaces"]
        )
        assert "E-infinity" in rep.to_text() or "e-infinity" in rep.to_text().lower()

    def test_each_alternating_number_is_evaluated_once(self, corpus, monkeypatch):
        calls = []
        for name in ("mu_alt_formula_a", "mu_alt_formula_b"):
            def counted(analysis, k, name=name, real=getattr(inv, name)):
                calls.append((name, k))
                return real(analysis, k)
            monkeypatch.setattr(inv, name, counted)
        an = corpus["squared_4_6"]  # d(f) = 3
        rep = build_report(an)
        assert (rep.mu_alt, rep.mu_i, rep.nu_i) == ({2: 1, 3: 2}, 3, -1)
        assert sorted(calls) == [
            ("mu_alt_formula_a", 2), ("mu_alt_formula_a", 3),
            ("mu_alt_formula_b", 2), ("mu_alt_formula_b", 3),
        ]

    def test_partial_report_for_not_a_finite(self, not_a_finite_analysis):
        rep = build_report(not_a_finite_analysis)
        d = rep.as_dict()
        assert d["a_finite"] is False
        assert d["mu_image"] is None and d["mu_alt"] is None

    def test_corpus_reports_match_their_golden_digests(self, corpus, not_a_finite_analysis):
        # One sha256 per germ over its JSON report (`germlab analyze` output).
        analyses = {**corpus, "not_a_finite": not_a_finite_analysis}
        got = {
            name: hashlib.sha256(build_report(a).to_json().encode()).hexdigest()
            for name, a in analyses.items()
        }
        lines = (DATA / "corpus_report_digests.txt").read_text().splitlines()
        golden = dict(line.split() for line in lines if line and not line.startswith("#"))
        assert got == golden
