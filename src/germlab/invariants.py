"""Alternating Milnor numbers, image invariants, and the table layer.

The k-th alternating number mu_k^Alt is the sign isotype of the S_k action
on D^k(f): mu_tau at the sign label (1,...,1), fed with the class-wise
dimension and extended Milnor number of each cell D^k(f)^s,

  (1/k!) sum_s sign(s) (-1)^(d_k - dim^s) mu~(D^k(f)^s).

Since d_k - d^s = k - #cycles(s), (-1)^(d_k - d^s) = sign(s): an ICIS or
smooth cell (dim^s = d^s) enters with its mu and sign +1, and a cell of
isolated points (d^s < 0, fed as dim 0 and mu~ = -beta_0) enters with
-(-1)^(d^s) beta_0.  That is the fixed-point formula
(1/k!) [ sum_{d^s >= 0} mu - sum_{d^s < 0} (-1)^(d^s) beta_0 ], evaluated
once; a value that is not a non-negative integer is an internal
inconsistency.

Every image invariant is read from one dict {k: mu_k^Alt}, k = 2..d(f):
mu_I is its sum and nu_I its signed sum.  The E-infinity table places
mu_k^Alt at column k-1 and row d_k+1, which after the degree shift puts it
into homology degree d_k + k - 1 of a stable perturbation's image; numbers
that share a degree add up there.  The top cell (column d(f), row 0) holds
the branch term C(s-1, d(f)) of a multi-germ, which is 0 for the s = 1
mono-germs analyzed here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import IncompleteDataError, InvalidInputError, NotAFiniteError
from .icis import EMPTY, ISOLATED_POINTS
from .isotype import IcisDatum, mu_tau
from .multipoint import GermAnalysis, expected_dim, kappa
from .poly import csv_text, json_text
from .symrep import Partition, character_table_symmetric, partitions


def _require_a_finite(analysis: GermAnalysis):
    if not analysis.verdict.a_finite:
        raise NotAFiniteError(
            "invariants are defined for A-finite germs only; analysis says otherwise"
        )


def mu_alt_dk(analysis: GermAnalysis, k: int) -> int:
    """mu^Alt(D^k(f)), the sign isotype of the S_k action on D^k(f)."""
    return mu_k_tau(analysis, k, Partition((1,) * k).label())


def mu_k_tau(analysis: GermAnalysis, k: int, tau: str) -> int:
    """tau-isotype Milnor number of D^k(f) through the character solver.

    Feeds the per-class data (actual dimension, extended Milnor number) of
    the analysis table into the isotype formula; tau is an irreducible label
    of the S_k table, e.g. "(1,1)" for the sign character of S_2.
    """
    _require_a_finite(analysis)
    if not 2 <= k <= analysis.kappa:
        raise InvalidInputError(f"k = {k} outside 2..kappa = {analysis.kappa}")
    if analysis.full_space(k).classification.is_empty:
        return 0
    data: dict[str, IcisDatum] = {}
    for shape in partitions(k):
        sp = analysis.cell(k, shape)
        dim = 0 if sp.classification.kind in (EMPTY, ISOLATED_POINTS) else sp.expected_dim
        data[shape.label()] = IcisDatum(dim=dim, mu_tilde=sp.milnor.mu_tilde)
    d_k = analysis.full_space(k).expected_dim
    return mu_tau(character_table_symmetric(k), data, tau, d_k)


def is_degenerate(n: int, p: int) -> bool:
    """Degenerate dimension pairs: d_2 < 0, i.e. p > 2n."""
    return expected_dim(n, p, 2) < 0


def _alternating_numbers(analysis: GermAnalysis) -> dict[int, int]:
    """{k: mu_k^Alt} for k = 2..d(f); empty when d(f) = 1, as for p > 2n."""
    _require_a_finite(analysis)
    return {k: mu_alt_dk(analysis, k) for k in range(2, analysis.verdict.d_of_f + 1)}


def _homology_degree(n: int, p: int, k: int) -> int:
    """Degree d_k + k - 1 that mu_k^Alt contributes to in the image."""
    return expected_dim(n, p, k) + k - 1


def _degree_sign(n: int, p: int, i: int) -> int:
    """Sign of homology degree i in nu_I: + in degree d_2 + 1, alternating."""
    return -1 if (i + expected_dim(n, p, 2) + 1) % 2 else 1


def _nu(n: int, p: int, mu_alt: Mapping[int, int]) -> int:
    return sum(_degree_sign(n, p, _homology_degree(n, p, k)) * v for k, v in mu_alt.items())


def mu_image(analysis: GermAnalysis) -> int:
    """Image Milnor number: the sum of the alternating numbers."""
    return sum(_alternating_numbers(analysis).values())


def nu_image(analysis: GermAnalysis) -> int:
    """Image vanishing characteristic: the alternating numbers summed with the
    sign of their homology degree, the sign conventions pinned by tests."""
    g = analysis.germ
    return _nu(g.n, g.p, _alternating_numbers(analysis))


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
        return csv_text([
            ["r", "q", "k", "value"],
            *([c.r, c.q, c.k, "" if c.value is None else c.value] for c in self.cells),
        ])

    def as_dict(self) -> dict:
        return {
            "cells": [c.as_dict() for c in self.cells],
            "entries": [c.as_dict() for c in self.entries],
            "image_betti": None
            if self.image_betti is None
            else {str(i): b for i, b in sorted(self.image_betti.items())},
        }


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
    degree shift: beta_i(image of a stable perturbation) is the sum of the
    mu_k^Alt with d_k + k - 1 = i.
    """
    return _icss(analysis, _alternating_numbers(analysis))


def _icss(analysis: GermAnalysis, mu_alt: Mapping[int, int]) -> IcssTable:
    n, p = analysis.germ.n, analysis.germ.p
    layout = icss_layout(n, p)
    d = analysis.verdict.d_of_f
    cells = [replace(c, value=mu_alt.get(c.k, 0)) for c in layout.cells[:-1]]
    cells.append(IcssCell(d, 0, d + 1, 0))
    betti: dict[int, int] = {}
    for k, value in mu_alt.items():
        if value:
            i = _homology_degree(n, p, k)
            betti[i] = betti.get(i, 0) + value
    return IcssTable(n, p, layout.kappa, tuple(cells), betti)


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
    refusing is the only honest option).  When p/(p-n) is an integer the
    identity has no correction term, and a delta is refused.
    """
    kap = kappa(n, p)
    integral_ratio = p % (p - n) == 0
    if any(i <= 0 for i in betti_im_ft):
        raise InvalidInputError("perturbed-image Betti data uses positive degrees only")
    if integral_ratio and delta is not None:
        raise InvalidInputError(f"p/(p-n) = {p // (p - n)} conservation takes no delta term")
    sum_mu_side = sum(v for i, v in betti_im_ft.items() if i != kap)
    beta_kappa = betti_im_ft.get(kap, 0)
    nu_side = sum(_degree_sign(n, p, i) * v for i, v in betti_im_ft.items() if i != kap)
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
        nu_rhs = nu_side + sum(local_nu) - _degree_sign(n, p, kap) * (beta_kappa - d)
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
    mu_tau_values: dict[int, int] | None = None

    def as_dict(self) -> dict:
        g = self.analysis.germ
        v = self.analysis.verdict
        icss = None if self.icss is None else self.icss.as_dict()
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
            "mu_top_term": 0,
            "icss": None if icss is None else icss["cells"],
            "image_betti": None if icss is None else icss["image_betti"],
            "tau": self.tau,
            "mu_tau": None
            if self.mu_tau_values is None
            else {str(k): v for k, v in sorted(self.mu_tau_values.items())},
            "spaces": spaces,
        }

    def to_json(self) -> str:
        return json_text(self.as_dict())

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
    mu_alt = _alternating_numbers(analysis)
    mu_tau_values = None
    if tau is not None:
        mu_tau_values = {}
        for k in mu_alt:
            if tau in character_table_symmetric(k).irrep_labels:
                mu_tau_values[k] = mu_k_tau(analysis, k, tau)
    return InvariantReport(
        analysis,
        mu_alt,
        sum(mu_alt.values()),
        _nu(g.n, g.p, mu_alt),
        degenerate,
        _icss(analysis, mu_alt),
        no_unexpected_deformations(analysis),
        tau=tau,
        mu_tau_values=mu_tau_values,
    )
