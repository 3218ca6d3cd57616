"""Alternating numbers, image invariants, tables, conservation checkers."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from germlab import (
    IncompleteDataError,
    InconsistentDataError,
    InvalidInputError,
    NotAFiniteError,
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
from germlab import cli
from germlab import invariants as inv
from germlab import multipoint as mp
from germlab.icis import (
    FINITE_COLENGTH,
    ICIS,
    ISOLATED_POINTS,
    NOT_ICIS,
    SMOOTH,
    milnor_hypersurface,
)
from germlab.poly import MultiPoly, VarSet

from alt_formulas import mu_alt_formula_a, mu_alt_formula_b
from conftest import CORPUS_SPECS, NOT_A_FINITE_SPEC
from fraction_minors import maximal_minors
from fraction_mora import total_degree
from sections_mu import sections_mu

DATA = Path(__file__).resolve().parent / "data"
MOND_LIST = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "mond.txt"
LADDER = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "ladder"


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
        # The reference formulas A and B against the sign isotype, on the
        # corpus and Mond's list.  B - A is a signed sum of beta_0 values
        # alone, zero when the cells of one k are all empty or all not.
        analyses = [*corpus.values()]
        analyses += [mp.analyze_germ(mp.germ(2, 3, comps)) for _, _, comps in mond_germs()]
        checked = 0
        for an in analyses:
            if not an.verdict.a_finite:
                continue
            for k in range(2, an.kappa + 1):
                assert mu_alt_formula_a(an, k) == mu_alt_formula_b(an, k) == mu_alt_dk(an, k)
                cells = [sp for (kk, _), sp in an.cells.items() if kk == k]
                assert len({sp.classification.is_empty for sp in cells}) == 1
                checked += 1
        assert checked == 127  # 21 levels of the corpus, 106 of Mond's list

    def test_every_cell_of_an_a_finite_germ_has_milnor_data(self, corpus, not_a_finite_analysis):
        # mu_k_tau reads sp.milnor of every cell k <= kappa unguarded: an
        # A-finite verdict means no such cell is not_icis.
        analyses = [*corpus.values(), not_a_finite_analysis]
        analyses += [mp.analyze_germ(mp.germ(2, 3, comps)) for _, _, comps in mond_germs()]
        cells = 0
        for an in analyses:
            if an.verdict.a_finite:
                for (k, _), sp in an.cells.items():
                    if k <= an.kappa:
                        assert sp.milnor is not None
                        cells += 1
        assert cells == 315
        assert any(sp.milnor is None for sp in not_a_finite_analysis.cells.values())

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

    def test_a_sign_isotype_off_the_integers_is_inconsistent(
        self, corpus, monkeypatch, tmp_path, capsys
    ):
        # The s2 germ with mu = 3 instead of 2 on its D^2 (2) cell: the sign
        # isotype (1/2)(2 + 3) is no integer, so no honest action has it.
        an = corpus["s2"]
        cell = an.cell(2, (2,))
        wrong = replace(cell, classification=replace(cell.classification, mu=3))
        bad = mp.GermAnalysis(an.germ, an.kappa, {**an.cells, (2, (2,)): wrong})
        with pytest.raises(InconsistentDataError) as err:
            mu_alt_dk(bad, 2)
        assert err.value.value == Fraction(5, 2)
        monkeypatch.setattr(mp, "analyze_germ", lambda g, budget: bad)
        path = tmp_path / "s2.germ"
        path.write_text(an.germ.serialize())
        assert cli.main(["analyze", str(path)]) == cli.EXIT_INCONSISTENT
        assert capsys.readouterr().err == (
            "error: mu^(1,1) is 5/2, not a non-negative integer: inconsistent input\n"
        )


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
        # s2 has an empty D^3, which takes the early return.
        for name in ("s2", "squared_4_6", "contractible_5_8"):
            an = corpus[name]
            for k in range(2, an.kappa + 1):
                alt = "(" + ",".join(["1"] * k) + ")"
                values = mu_k_tau(an, k, alt), mu_alt_dk(an, k)
                assert values[0] == values[1]
                assert [type(v) for v in values] == [int, int]

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

    @pytest.mark.parametrize(
        "n, p, comps, stable, mu_i",
        [
            # versal unfoldings of the cusp and of (y^2, y^5): stable
            (2, 3, ["y^2", "y^3 + x1*y"], True, 0),
            (3, 4, ["y^2", "y^5 + x1*y + x2*y^3"], True, 0),
            # their A-finite parents
            (1, 2, ["y^2", "y^3"], False, 1),
            (1, 2, ["y^2", "y^5"], False, 2),
            # Mond's B_2, an unfolding of (y^2, y^5) that is not versal
            (2, 3, ["y^2", "y^5 + x1^2*y"], False, 2),
        ],
        ids=["cusp-versal", "y5-versal", "cusp", "y5", "b2-not-versal"],
    )
    def test_versal_unfoldings_are_stable(self, n, p, comps, stable, mu_i):
        an = mp.analyze_germ(mp.germ(n, p, comps))
        assert an.verdict.a_finite
        assert (an.verdict.stable, mu_image(an)) == (stable, mu_i)

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


class TestCellBases:
    def test_every_cell_basis_matches_its_golden_digest(self, corpus, not_a_finite_analysis):
        # Only two bases are pinned term by term (test_localalg); this pins
        # the monic standard basis of every cell of the corpus, the
        # not-A-finite germ and Mond's list.
        analyses = [*corpus.items(), ("not_a_finite", not_a_finite_analysis)]
        analyses += [(name, mp.analyze_germ(mp.germ(2, 3, comps)))
                     for name, _, comps in mond_germs()]
        got = []
        for name, analysis in analyses:
            for (k, parts), cell in analysis.cells.items():
                basis = cell.ideal.standard_basis().serialize()
                got.append(f"{name} {k} {','.join(map(str, parts))} "
                           f"{hashlib.sha256(basis.encode()).hexdigest()}")
        pinned = (DATA / "cell_standard_basis_digests.txt").read_text().splitlines()
        assert got == [line for line in pinned if not line.startswith("#")]


class TestSectionsRoute:
    def test_coordinate_sections_match_the_chain(self, corpus, not_a_finite_analysis):
        # Every positive dimensional ICIS cell of the corpus, Mond's list,
        # the kappa-3 ladder and a (4, 5) germ: mu by coordinate hyperplane
        # sections, which forms no chain along the generators, equals the
        # Le-Greuel chain's.
        germs = [mp.germ(2, 3, comps) for _, _, comps in mond_germs()]
        germs += [mp.germ_from_text(path.read_text()) for path in sorted(LADDER.glob("*.germ"))]
        germs.append(mp.germ(4, 5, ["y^4 + x1*y + x2*y^2", "y^5 + x3*y"]))
        analyses = [*corpus.values(), not_a_finite_analysis, *map(mp.analyze_germ, germs)]
        checked = 0
        for analysis in analyses:
            for cell in analysis.cells.values():
                verdict = cell.classification
                if verdict.kind == ICIS and verdict.dim > 0:
                    gens, ambient = list(cell.ideal.generators), cell.ideal.ambient
                    assert sections_mu(gens, ambient, verdict.dim) == verdict.mu
                    checked += 1
        assert checked == 62


class TestFiniteColengthVerdict:
    @staticmethod
    def analyses(corpus, not_a_finite_analysis):
        germs = [mp.germ(2, 3, comps) for _, _, comps in mond_germs()]
        return [*corpus.values(), not_a_finite_analysis, *map(mp.analyze_germ, germs)]

    def test_cells_of_finite_colength_have_dimension_zero(self, corpus, not_a_finite_analysis):
        # Every cell classified as isolated points by a finite colength at the
        # origin, which is read off a reduced ideal: the Krull dimension of
        # the cell's own full ideal is 0.
        analyses = self.analyses(corpus, not_a_finite_analysis)
        checked = 0
        for analysis in analyses:
            for cell in analysis.cells.values():
                verdict = cell.classification
                if (verdict.kind, verdict.evidence) == (ISOLATED_POINTS, FINITE_COLENGTH):
                    assert cell.ideal.krull_dimension() == 0
                    checked += 1
        assert checked == 14

    def test_every_verdict_dimension_is_the_full_ideal_dimension(
        self, corpus, not_a_finite_analysis
    ):
        # Whichever head step decided a verdict (a constant term, the linear
        # rank, a split, an elimination, a square sub-ideal or the basis),
        # the dimension it reports is the Krull dimension of the cell's own
        # full ideal.
        kinds = Counter()
        for analysis in self.analyses(corpus, not_a_finite_analysis):
            for cell in analysis.cells.values():
                verdict = cell.classification
                if verdict.dim is not None:
                    assert cell.ideal.krull_dimension() == verdict.dim, verdict
                    kinds[verdict.kind] += 1
        assert kinds == {SMOOTH: 12, ICIS: 126, ISOLATED_POINTS: 23, NOT_ICIS: 5}


class TestLazyGenerators:
    def test_no_analysis_builds_the_fraction_polynomials(self):
        # Cells keep their equations as integer term maps from the table to
        # the Le-Greuel chain, so no cell's Fraction MultiPolys are built.
        # Fresh analyses, so that no other test has asked for them.
        specs = [*CORPUS_SPECS.values(), NOT_A_FINITE_SPEC]
        specs += [(2, 3, comps) for _, _, comps in mond_germs()]
        germs = [mp.germ(n, p, comps) for n, p, comps in specs]
        germs += [mp.generate_sc_germ(n, p, self_check=False) for n, p in [(6, 10), (7, 11)]]
        built = 0
        for g in germs:
            analysis = mp.analyze_germ(g)
            build_report(analysis, tau="(1,1)")
            built += sum("generators" in vars(cell.ideal) for cell in analysis.cells.values())
        assert built == 0


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

    def test_layout_text_marks_each_alternating_number(self):
        # A layout has no values yet: each cell shows the mu_k^Alt it holds.
        assert icss_layout(2, 3).to_text() == (
            "  2 |        .   m2^Alt        .        .\n"
            "  1 |        .        .   m3^Alt        .\n"
            "  0 |        .        .        .   m4^Alt\n"
            "    +------------------------------------\n"
            "q\\r |        0        1        2        3\n"
        )

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

    def test_delta_refused_when_the_ratio_is_an_integer(self):
        # p/(p-n) = 2: the identity has no correction term; a delta 5 was
        # dropped without a word and the check said "holds".
        with pytest.raises(InvalidInputError, match="p/.p-n. = 2 conservation takes no delta"):
            check_mu_conservation(2, 4, 0, 0, {}, [], [], delta=5)

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
        # One sign-isotype sum per k = 2..d(f), and one more per k whose S_k
        # table has the --tau label.
        calls = []

        def counted(table, data, tau, d, real=inv.mu_tau):
            calls.append((table.group_order, tau))
            return real(table, data, tau, d)

        monkeypatch.setattr(inv, "mu_tau", counted)
        an = corpus["squared_4_6"]  # d(f) = 3
        rep = build_report(an)
        assert (rep.mu_alt, rep.mu_i, rep.nu_i) == ({2: 1, 3: 2}, 3, -1)
        assert calls == [(2, "(1,1)"), (6, "(1,1,1)")]
        calls.clear()
        build_report(an, tau="(2,1)")  # a label of S_3 only
        assert calls == [(2, "(1,1)"), (6, "(1,1,1)"), (6, "(2,1)")]

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

    def test_sc_reports_match_their_golden_digests(self):
        # One sha256 per report, JSON and text, for every feasible (n, p)
        # with n <= 10 and n < p <= 60: the germs of the sc_sweep benchmark.
        def digest(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()

        got = []
        for n in range(1, 11):
            for p in range(n + 1, 61):
                if mp.sc_dimension_feasible(n, p):
                    g = mp.generate_sc_germ(n, p, self_check=False)
                    report = build_report(mp.analyze_germ(g))
                    got.append(f"{n} {p} {digest(report.to_json())} {digest(report.to_text())}")
        lines = (DATA / "sc_report_digests.txt").read_text().splitlines()
        assert got == [line for line in lines if line and not line.startswith("#")]
