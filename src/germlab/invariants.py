"""Alternating Milnor numbers, image invariants, and the table layer.

The k-th alternating number is computed by two different formulas and the
results are required to agree exactly:

  (A)  (1/k!) [ sum_{d^s >= 0} mu(D^k(f)^s)
                - sum_{d^s < 0} (-1)^(d^s) beta_0(D^k(f)^s) ]

  (B)  (1/k!) [ sum_{d^s >= 0 even} mu^{+0}(D^k(f)^s)
                + sum_{d^s > 0 odd} mu^{-0}(D^k(f)^s) ]

with sums over group elements, realized class-wise via class sizes.  Their
agreement is a theorem, so a mismatch is reported as an internal
inconsistency rather than absorbed.

The image invariants sum the alternating numbers; the E-infinity table
places each one at column k-1 and row d_k+1 (top term at column d(f),
row 0), which after the degree shift puts the rank mu_k^Alt into homology
degree d_k + k - 1 of a stable perturbation's image.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .errors import (
    IncompleteDataError,
    InconsistentDataError,
    InvalidInputError,
    NotAFiniteError,
)
from .icis import EMPTY, ISOLATED_POINTS
from .isotype import IcisDatum, mu_tau
from .multipoint import GermAnalysis, MultiPointSpace, expected_dim, kappa
from .symrep import CharacterTable, character_table_symmetric, class_size, partitions


def _require_a_finite(analysis: GermAnalysis):
    if not analysis.verdict.a_finite:
        raise NotAFiniteError(
            "invariants are defined for A-finite germs only; analysis says otherwise"
        )


def _cell_numbers(sp: MultiPointSpace) -> tuple[int, int, int, int, int]:
    """(mu, beta0, mu_plus0, mu_minus0, mu_tilde) for a classified cell."""
    if sp.milnor is None:
        raise NotAFiniteError(f"cell (k={sp.k}, {sp.shape.parts}) is not an ICIS")
    md = sp.milnor
    return md.mu, md.beta0, md.mu_plus0, md.mu_minus0, md.mu_tilde


def mu_alt_formula_a(analysis: GermAnalysis, k: int) -> Fraction:
    """Alternating number via Milnor numbers and beta_0 corrections."""
    acc = Fraction(0)
    for shape in partitions(k):
        sp = analysis.cell(k, shape)
        mu, beta0, *_ = _cell_numbers(sp)
        size = class_size(shape)
        if sp.expected_dim >= 0:
            acc += size * mu
        else:
            sign = -1 if sp.expected_dim % 2 else 1
            acc -= size * sign * beta0
    return acc / Fraction(_factorial(k))


def mu_alt_formula_b(analysis: GermAnalysis, k: int) -> Fraction:
    """Alternating number via positive/negative Milnor characteristics."""
    acc = Fraction(0)
    for shape in partitions(k):
        sp = analysis.cell(k, shape)
        _, _, mu_plus0, mu_minus0, _ = _cell_numbers(sp)
        size = class_size(shape)
        if sp.expected_dim >= 0 and sp.expected_dim % 2 == 0:
            acc += size * mu_plus0
        elif sp.expected_dim > 0 and sp.expected_dim % 2 == 1:
            acc += size * mu_minus0
    return acc / Fraction(_factorial(k))


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def mu_alt_dk(analysis: GermAnalysis, k: int) -> int:
    """mu^Alt(D^k(f)), evaluated both ways; disagreement is a bug signal."""
    _require_a_finite(analysis)
    if not 2 <= k <= analysis.kappa:
        raise InvalidInputError(f"k = {k} outside 2..kappa = {analysis.kappa}")
    a = mu_alt_formula_a(analysis, k)
    b = mu_alt_formula_b(analysis, k)
    if a != b:
        raise InconsistentDataError(
            f"the two alternating-number formulas disagree at k = {k}: {a} vs {b}",
            value=(a, b),
        )
    if a.denominator != 1 or a < 0:
        raise InconsistentDataError(
            f"alternating number at k = {k} is {a}, not a non-negative integer", value=a
        )
    return int(a)


def mu_k_tau(
    analysis: GermAnalysis,
    k: int,
    tau: str,
    table: CharacterTable | None = None,
) -> Fraction:
    """tau-isotype Milnor number of D^k(f) through the character solver.

    Feeds the per-class data (actual dimension, extended Milnor number) of
    the analysis table into the isotype formula; tau is an irreducible label
    of the S_k table, e.g. "(1,1)" for the sign character of S_2.
    """
    _require_a_finite(analysis)
    if not 2 <= k <= analysis.kappa:
        raise InvalidInputError(f"k = {k} outside 2..kappa = {analysis.kappa}")
    if analysis.full_space(k).classification.is_empty:
        return Fraction(0)
    table = table if table is not None else character_table_symmetric(k)
    data: dict[str, IcisDatum] = {}
    for shape in partitions(k):
        sp = analysis.cell(k, shape)
        dim = 0 if sp.classification.kind in (EMPTY, ISOLATED_POINTS) else sp.expected_dim
        data[shape.label()] = IcisDatum(dim=dim, mu_tilde=sp.milnor.mu_tilde)
    d_k = analysis.full_space(k).expected_dim
    return mu_tau(table, data, tau, d_k)


def mu_k_tau_number(
    analysis: GermAnalysis,
    k: int,
    tau: str,
    branch_count: int = 1,
) -> Fraction:
    """Full case split of the k-th tau-Milnor number for s branches.

    k <= d(f): the isotype value; k = d(f)+1 with s > d(f): the binomial
    C(s-1, d(f)) independently of tau; otherwise 0.
    """
    d = analysis.verdict.d_of_f
    if 2 <= k <= d:
        return mu_k_tau(analysis, k, tau)
    if k == d + 1 and branch_count > d:
        return Fraction(mu_top_term(branch_count, d))
    return Fraction(0)


def mu_top_term(s: int, d: int) -> int:
    """Contribution of branch combinatorics: C(s-1, d) when s > d, else 0."""
    if s < 1:
        raise InvalidInputError("branch count must be >= 1")
    if d < 0:
        raise InvalidInputError("d must be >= 0")
    return comb(s - 1, d) if s > d else 0


def is_degenerate(n: int, p: int) -> bool:
    """Degenerate dimension pairs: d_2 < 0, i.e. p > 2n."""
    return expected_dim(n, p, 2) < 0


def mu_image(analysis: GermAnalysis) -> int:
    """Image Milnor number: sum of the alternating numbers plus the top term.

    Degenerate mono-germs (p > 2n) have mu_I = 0 by the degenerate rule.
    """
    _require_a_finite(analysis)
    g = analysis.germ
    if is_degenerate(g.n, g.p):
        return 0
    d = analysis.verdict.d_of_f
    total = sum(mu_alt_dk(analysis, k) for k in range(2, d + 1))
    return total + mu_top_term(1, d)


def nu_image(analysis: GermAnalysis) -> int:
    """Image vanishing characteristic, with the sign conventions pinned by tests."""
    _require_a_finite(analysis)
    g = analysis.germ
    if is_degenerate(g.n, g.p):
        return 0
    d2 = expected_dim(g.n, g.p, 2)
    d = analysis.verdict.d_of_f
    lead = -1 if (d2 + 1) % 2 else 1
    acc = 0
    for k in range(2, d + 1):
        d_k = expected_dim(g.n, g.p, k)
        sign = -1 if (d_k + k - 1) % 2 else 1
        acc += sign * mu_alt_dk(analysis, k)
    top_sign = -1 if (d + d2) % 2 else 1
    return lead * acc + top_sign * mu_top_term(1, d)


def no_unexpected_deformations(analysis: GermAnalysis) -> bool:
    """True when no deformation can carry unexpected homology: every space at
    negative expected dimension is empty, or p/(p-n) is an integer."""
    g = analysis.germ
    if g.p % (g.p - g.n) == 0:
        return True
    top = analysis.full_space(analysis.kappa + 1)
    return top.classification.is_empty


# -- E-infinity table ----------------------------------------------------------


@dataclass(frozen=True)
class IcssCell:
    r: int
    q: int
    k: int
    value: int | None  # None in a layout without germ data

    def as_dict(self) -> dict:
        return {"r": self.r, "q": self.q, "k": self.k, "value": self.value}


@dataclass(frozen=True)
class IcssTable:
    n: int
    p: int
    kappa: int
    cells: tuple[IcssCell, ...]  # full layout, top cell last
    image_betti: dict[int, int] | None

    @property
    def entries(self) -> tuple[IcssCell, ...]:
        return tuple(c for c in self.cells if c.value)

    def to_text(self) -> str:
        max_r = max((c.r for c in self.cells), default=0)
        max_q = max((c.q for c in self.cells), default=0)
        grid = {(c.r, c.q): c for c in self.cells}
        width = 8
        lines = []
        for q in range(max_q, -1, -1):
            row = [f"{q:>3} |"]
            for r in range(0, max_r + 1):
                cell = grid.get((r, q))
                if cell is None:
                    row.append(".".rjust(width))
                elif cell.value is None:
                    row.append(f"m{cell.k}^Alt".rjust(width))
                else:
                    row.append(str(cell.value).rjust(width))
            lines.append(" ".join(row))
        lines.append("    +" + "-" * ((width + 1) * (max_r + 1)))
        lines.append("q\\r |" + "".join(str(r).rjust(width + 1) for r in range(max_r + 1)))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "q", "k", "value"])
        for c in self.cells:
            writer.writerow([c.r, c.q, c.k, "" if c.value is None else c.value])
        return buf.getvalue()


def icss_layout(n: int, p: int) -> IcssTable:
    """Possibly non-zero positions for the dimension pair, without values."""
    kap = kappa(n, p)
    cells = [
        IcssCell(k - 1, expected_dim(n, p, k) + 1, k, None)
        for k in range(2, kap + 1)
        if expected_dim(n, p, k) >= 0
    ]
    cells.append(IcssCell(kap, 0, kap + 1, None))
    return IcssTable(n, p, kap, tuple(cells), None)


def icss_table(analysis: GermAnalysis) -> IcssTable:
    """E-infinity entries for an analyzed A-finite germ.

    mu_k^Alt sits at (r, q) = (k-1, d_k+1); the branch top term would sit at
    (d(f), 0) and is zero for mono-germs.  Image Betti numbers follow the
    degree shift: beta_{d_k+k-1}(image of a stable perturbation) = mu_k^Alt.
    """
    _require_a_finite(analysis)
    g = analysis.germ
    kap = analysis.kappa
    d = analysis.verdict.d_of_f
    cells = []
    betti: dict[int, int] = {}
    for k in range(2, kap + 1):
        d_k = expected_dim(g.n, g.p, k)
        if d_k < 0:
            continue
        value = mu_alt_dk(analysis, k) if k <= d else 0
        cells.append(IcssCell(k - 1, d_k + 1, k, value))
        if value:
            betti[d_k + k - 1] = value
    top = mu_top_term(1, d)
    cells.append(IcssCell(d, 0, d + 1, top))
    if top:
        betti[d - 1] = betti.get(d - 1, 0) + top
    return IcssTable(g.n, g.p, kap, tuple(cells), betti)


# -- conservation of the image invariants --------------------------------------


@dataclass(frozen=True)
class MuConservationVerdict:
    holds: bool
    mu_residual: int
    nu_residual: int


def check_mu_conservation(
    n: int,
    p: int,
    mu_i: int,
    nu_i: int,
    betti_im_ft: Mapping[int, int],
    local_mu: Sequence[int],
    local_nu: Sequence[int],
    delta: int | None = None,
) -> MuConservationVerdict:
    """Conservation of mu_I and nu_I under a perturbation, from supplied data.

    betti_im_ft maps positive homology degrees of the perturbed image to
    ranks; local_mu / local_nu list the image invariants of the surviving
    instabilities.  When p/(p-n) is not an integer the degree-kappa rank is
    unexpected homology and is subtracted, with the correction term delta
    required when d_kappa = 1 (it cannot be derived from the other inputs;
    refusing is the only honest option).
    """
    if not 1 <= n < p:
        raise InvalidInputError(f"need 1 <= n < p, got ({n}, {p})")
    kap = kappa(n, p)
    d2 = expected_dim(n, p, 2)
    integral_ratio = p % (p - n) == 0
    if any(i <= 0 for i in betti_im_ft):
        raise InvalidInputError("perturbed-image Betti data uses positive degrees only")
    sum_mu_side = sum(v for i, v in betti_im_ft.items() if i != kap)
    beta_kappa = betti_im_ft.get(kap, 0)

    def signed(i: int) -> int:
        return -1 if (i + d2 + 1) % 2 else 1

    nu_side = sum(signed(i) * v for i, v in betti_im_ft.items() if i != kap)
    if integral_ratio:
        mu_rhs = sum_mu_side + sum(local_mu)
        nu_rhs = nu_side + sum(local_nu)
    else:
        if expected_dim(n, p, kap) == 1 and delta is None:
            raise IncompleteDataError(
                "d_kappa = 1: the alternating correction term must be supplied"
            )
        d = delta if delta is not None else 0
        mu_rhs = sum_mu_side + sum(local_mu) - beta_kappa + d
        nu_rhs = nu_side + sum(local_nu) - signed(kap) * (beta_kappa - d)
    mu_res = mu_i - mu_rhs
    nu_res = nu_i - nu_rhs
    return MuConservationVerdict(mu_res == 0 and nu_res == 0, mu_res, nu_res)


# -- report assembly ------------------------------------------------------------


@dataclass
class InvariantReport:
    analysis: GermAnalysis
    mu_alt: dict[int, int] | None
    mu_i: int | None
    nu_i: int | None
    degenerate: bool
    icss: IcssTable | None
    no_unexpected: bool
    tau: str | None = None
    mu_tau_values: dict[int, Fraction] | None = None

    def as_dict(self) -> dict:
        g = self.analysis.germ
        v = self.analysis.verdict
        spaces = [
            sp.as_dict()
            for (_, _), sp in sorted(
                self.analysis.cells.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
        ]
        return {
            "n": g.n,
            "p": g.p,
            "components": [str(h) for h in g.components],
            "kappa": v.kappa,
            "d": v.d_of_f,
            "s": 1,
            "stable": v.stable,
            "a_finite": v.a_finite,
            "strongly_contractible": v.strongly_contractible,
            "degenerate": self.degenerate,
            "no_unexpected_deformations": self.no_unexpected,
            "mu_alt": None
            if self.mu_alt is None
            else {str(k): val for k, val in sorted(self.mu_alt.items())},
            "mu_image": self.mu_i,
            "nu_image": self.nu_i,
            "mu_top_term": mu_top_term(1, v.d_of_f),
            "icss": None if self.icss is None else [c.as_dict() for c in self.icss.cells],
            "image_betti": None
            if self.icss is None or self.icss.image_betti is None
            else {str(i): b for i, b in sorted(self.icss.image_betti.items())},
            "tau": self.tau,
            "mu_tau": None
            if self.mu_tau_values is None
            else {
                str(k): (str(v) if v.denominator > 1 else int(v))
                for k, v in sorted(self.mu_tau_values.items())
            },
            "spaces": spaces,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        d = self.as_dict()
        lines = [
            f"germ (C^{d['n']}, 0) -> (C^{d['p']}, 0)",
            "components: " + "; ".join(d["components"]),
            f"kappa = {d['kappa']}   d(f) = {d['d']}   s = 1",
            f"stable = {d['stable']}   a_finite = {d['a_finite']}   "
            f"strongly_contractible = {d['strongly_contractible']}",
            f"degenerate = {d['degenerate']}   "
            f"no_unexpected_deformations = {d['no_unexpected_deformations']}",
        ]
        if d["mu_alt"] is not None:
            alts = "  ".join(f"mu_{k}^Alt = {v}" for k, v in d["mu_alt"].items())
            lines.append(alts if alts else "no alternating numbers (d(f) < 2)")
            if d["mu_tau"] is not None:
                taus = "  ".join(f"mu_{k}^{d['tau']} = {v}" for k, v in d["mu_tau"].items())
                lines.append(taus if taus else f"no {d['tau']}-isotype numbers")
            lines.append(f"mu_I = {d['mu_image']}   nu_I = {d['nu_image']}")
        else:
            lines.append("invariants unavailable: germ is not A-finite")
        lines.append("spaces:")
        for sp in d["spaces"]:
            extra = ""
            if "mu" in sp:
                extra = f"  mu = {sp['mu']}  mu~ = {sp['mu_tilde']}"
            lines.append(
                f"  D^{sp['k']} sigma = {tuple(sp['sigma'])}  expected_dim = "
                f"{sp['expected_dim']}  ->  {sp['kind']}{extra}"
            )
        if self.icss is not None:
            lines.append("E-infinity table:")
            lines.append(self.icss.to_text().rstrip("\n"))
        return "\n".join(lines) + "\n"


def build_report(analysis: GermAnalysis, tau: str | None = None) -> InvariantReport:
    """Assemble every invariant this module derives from one analysis.

    When tau names an irreducible of S_k (a partition label such as "(2,1)";
    the label is resolved against each S_k table that actually has it), the
    report also carries the per-k tau-isotype numbers.
    """
    g = analysis.germ
    degenerate = is_degenerate(g.n, g.p)
    if not analysis.verdict.a_finite:
        return InvariantReport(
            analysis, None, None, None, degenerate, None,
            no_unexpected_deformations(analysis),
        )
    d = analysis.verdict.d_of_f
    mu_alt = {k: mu_alt_dk(analysis, k) for k in range(2, d + 1)}
    mu_tau_values = None
    if tau is not None:
        mu_tau_values = {}
        for k in range(2, d + 1):
            table = character_table_symmetric(k)
            if tau in table.irrep_labels:
                mu_tau_values[k] = mu_k_tau(analysis, k, tau, table=table)
    return InvariantReport(
        analysis,
        mu_alt,
        mu_image(analysis),
        nu_image(analysis),
        degenerate,
        icss_table(analysis),
        no_unexpected_deformations(analysis),
        tau=tau,
        mu_tau_values=mu_tau_values,
    )
