"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact; runtime bounds are asserted per criterion.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

from germlab import (
    LocalIdeal,
    VarSet,
    character_table_symmetric,
    check_conservation,
    check_mu_conservation,
    generate_sc_germ,
    mu_image,
    nu_image,
    parse_poly,
    partitions,
    sc_dimension_feasible,
    sign_of_class,
)
from germlab import invariants as inv
from germlab import isotype
from germlab import multipoint as mp
from germlab.icis import EMPTY, ICIS, ISOLATED_POINTS, SMOOTH, milnor_hypersurface, milnor_icis

from alt_formulas import mu_alt_formula_a, mu_alt_formula_b
from recombination import _random_recombination
from tabloid_table import brute_force_table


def _criterion(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE CRITERION {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed {suffix}"


def test_criterion_01_reference_germ_classifications():
    t0 = time.time()
    contractible = mp.analyze_germ(
        mp.germ(5, 8, ["y^3+x1*y", "y^4+x2*y", "y^5+x3*y", "x4*y+x1*y^2"])
    )
    ok = contractible.verdict.strongly_contractible
    d2 = contractible.cell(2, (1, 1))
    ok &= d2.classification.kind == SMOOTH and d2.classification.dim == 2
    d3 = contractible.full_space(3)
    ok &= d3.expected_dim == -1 and d3.classification.kind == ISOLATED_POINTS
    diag = contractible.cell(2, (2,))
    ok &= diag.expected_dim == 1 and diag.classification.kind == SMOOTH
    stable = mp.analyze_germ(mp.germ(3, 5, ["y^3+x1*y", "y^4+x2*y", "x2*y+y^2"]))
    ok &= stable.verdict.stable
    ok &= stable.full_space(3).classification.kind == EMPTY
    elapsed = time.time() - t0
    ok &= elapsed < 20  # two germs, < 10 s each
    _criterion(1, "reference germ classifications", ok, f"{elapsed:.2f}s")


def test_criterion_02_quartic_family_image_invariants():
    t0 = time.time()
    analysis = mp.analyze_germ(mp.germ(4, 6, ["y^3+x1^2*y", "y^4+x2*y", "y^5+x3*y"]))
    mu_i = mu_image(analysis)
    nu_i = nu_image(analysis)
    elapsed = time.time() - t0
    ok = mu_i == 4 and nu_i == 0 and elapsed < 60
    _criterion(
        2,
        "(y^3+x1^2 y, y^4+x2 y, y^5+x3 y) image invariants = (4, 0)",
        ok,
        f"computed mu_I = {mu_i}, nu_I = {nu_i} in {elapsed:.2f}s",
    )


def test_criterion_03_feasibility_frontier():
    t0 = time.time()
    ok = True
    for n in range(1, 60):
        for p in range(n + 1, 61):
            kap = p // (p - n)
            expected = p - kap * (p - n + 1) >= 0
            ok &= sc_dimension_feasible(n, p) == expected
        for p in (n + 1, 2 * n - 1, 2 * n):
            if n < p <= 60:
                ok &= not sc_dimension_feasible(n, p)
    elapsed = time.time() - t0
    ok &= elapsed < 1
    _criterion(3, "feasibility frontier up to 60", ok, f"{elapsed:.2f}s")


def test_criterion_04_generator_soundness():
    t0 = time.time()
    ok = True
    count = 0
    for n in range(1, 9):
        for p in range(n + 1, 61):
            if not sc_dimension_feasible(n, p):
                continue
            g = generate_sc_germ(n, p, self_check=False)
            analysis = mp.analyze_germ(g)
            ok &= analysis.verdict.strongly_contractible
            ok &= not analysis.verdict.stable
            ok &= mu_image(analysis) == 0
            count += 1
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _criterion(4, "generated germs re-analyze strongly contractible", ok,
               f"{count} dimension pairs in {elapsed:.1f}s")


def test_criterion_05_family_oracle(corpus):
    ok = True
    for k, name in [(1, "s1"), (2, "s2"), (3, "s3"), (4, "s4")]:
        analysis = corpus[name]
        full = analysis.cell(2, (1, 1))
        diag = analysis.cell(2, (2,))
        ok &= full.milnor.mu == k
        ok &= diag.milnor.mu == k
        ok &= diag.ideal.quotient_dimension() == k + 1
        ok &= mu_alt_formula_a(analysis, 2) == mu_alt_formula_b(analysis, 2) == k
        ok &= mu_image(analysis) == k
    _criterion(5, "curve family matches the staircase oracle", ok)


def test_criterion_06_isotype_suite():
    t2 = character_table_symmetric(2)
    reflection = {"(1,1)": isotype.SingleDim(2, 1), "(2)": isotype.SingleDim(1, 1)}
    trivial = {"(1,1)": isotype.SingleDim(2, 1), "(2)": isotype.SingleDim(2, 1)}
    ok = isotype.tau_betti_single_dim(t2, reflection, "(1,1)", 2) == 1
    ok &= isotype.tau_betti_single_dim(t2, trivial, "(1,1)", 2) == 0
    for k in range(1, 9):
        table = character_table_symmetric(k)
        table.validate()  # exact row orthogonality
        rows = table.values
        nrows = len(rows)
        for a in range(nrows):
            for b in range(a, nrows):
                acc = sum(rows[i][a] * rows[i][b] for i in range(nrows))
                expected = Fraction(table.group_order, table.class_sizes[a]) if a == b else 0
                ok &= acc == expected
        ok &= sum(int(table.degree(i)) ** 2 for i in range(nrows)) == factorial(k)
    for k in range(1, 6):
        table = character_table_symmetric(k)
        for lam, chi in brute_force_table(k).items():
            row = dict(zip(table.class_labels, table.values[table.irrep_labels.index(
                "(" + ",".join(map(str, lam)) + ")")]))
            for cls, value in chi.items():
                ok &= row["(" + ",".join(map(str, cls)) + ")"] == value
    _criterion(6, "isotype and character-table suite", ok)


def test_criterion_07_parity():
    ok = True
    for k in range(2, 9):
        for shape in partitions(k):
            sign = sign_of_class(shape)
            for n in range(2, 11):
                for p in range(n + 1, 2 * n + 1):
                    diff = mp.expected_dim(n, p, k) - mp.expected_dim_sigma(n, p, k, shape)
                    ok &= (-1) ** diff == sign
    _criterion(7, "dimension parity equals the class sign", ok)


def test_criterion_08_formula_agreement(corpus):
    germs_checked = 0
    ok = True
    for analysis in corpus.values():
        if not analysis.verdict.a_finite:
            continue
        for k in range(2, analysis.kappa + 1):
            ok &= mu_alt_formula_a(analysis, k) == mu_alt_formula_b(analysis, k)
        germs_checked += 1
    ok &= germs_checked >= 10
    _criterion(8, "both alternating formulas agree", ok, f"{germs_checked} germs")


def test_criterion_09_milnor_kernel():
    ok = True
    for a in range(1, 6):
        for b in range(1, 6):
            vs = VarSet(("x", "y"))
            ok &= milnor_hypersurface(parse_poly(f"x^{a + 1} + y^{b + 1}", vs)) == a * b
    sentinel = VarSet(("x",))
    ok &= LocalIdeal([parse_poly("x - x^2", sentinel)], sentinel).quotient_dimension() == 1
    chains = [
        (["x", "y1", "y2"], ["y1 + y2", "y1^2 + y1*y2 + y2^2 + x^3"], 1, 2),
        (["x", "y1", "y2"], ["y1 + y2", "y1^2 + y1*y2 + y2^2 + x^5"], 1, 4),
        (["x1", "x2", "x3", "y1", "y2"], [
            "x1^2 + y1^2 + y1*y2 + y2^2",
            "x2 + y1^3 + y1^2*y2 + y1*y2^2 + y2^3",
            "x3 + y1^4 + y1^3*y2 + y1^2*y2^2 + y1*y2^3 + y2^4",
        ], 2, 1),
    ]
    for names, gens, dim, expected in chains:
        vs = VarSet(tuple(names))
        ideal = LocalIdeal([parse_poly(g, vs) for g in gens], vs)
        ok &= milnor_icis(ideal, dim) == expected
        for seed in range(1, 6):
            mixed = _random_recombination(list(ideal.generators), random.Random(seed))
            ok &= milnor_icis(LocalIdeal(mixed, vs), dim) == expected
    _criterion(9, "Milnor kernel: grid, local sentinel, chain independence", ok)


def test_criterion_10_theorem_level_properties(corpus):
    ok = True
    for name, analysis in corpus.items():
        if not analysis.verdict.a_finite:
            continue
        verdict = analysis.verdict
        mu_i = mu_image(analysis)
        ok &= (mu_i == 0) == (verdict.stable or verdict.strongly_contractible)
        nonempty = {1: True}
        for k in range(2, analysis.kappa + 2):
            nonempty[k] = analysis.full_space(k).nonempty
            if nonempty[k]:
                ok &= nonempty[k - 1]
        for k in range(2, analysis.kappa + 1):
            full = analysis.full_space(k)
            if not full.nonempty or full.expected_dim < 0:
                continue
            cells = [sp for (kk, _), sp in analysis.cells.items() if kk == k]
            nonneg = [sp for sp in cells if sp.expected_dim >= 0 and sp.nonempty]
            neg = [sp for sp in cells if sp.expected_dim < 0 and sp.nonempty]
            singular = full.classification.kind == ICIS
            ok &= singular == all(sp.classification.kind == ICIS for sp in nonneg)
            ok &= singular == any(sp.classification.kind == ICIS for sp in nonneg)
            later = [
                analysis.full_space(j)
                for j in range(k, analysis.kappa + 1)
                if analysis.full_space(j).nonempty
                and analysis.full_space(j).expected_dim >= 0
            ]
            ok &= singular == all(sp.classification.kind == ICIS for sp in later)
            if neg:
                ok &= singular
    # Deformation-level claims are covered by the data-driven checkers.
    ok &= check_conservation(2, 0, [1, 1], 1).holds
    ok &= check_mu_conservation(3, 5, 0, 0, {2: 1}, [1], [1], delta=0).holds
    _criterion(10, "stability, image triviality, and nesting theorems", ok)
