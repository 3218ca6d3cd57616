"""Multiple point spaces of corank-one mono-germs.

A germ is stored in the normal form (x, h_1(x,y), ..., h_m(x,y)) with
m = p - n + 1.  The k-th multiple point space lives in (x, y_1..y_k) and is
cut out by the iterated divided differences of the components: level j
contributes the divided difference of level j-1 in a fresh variable y_j, for
j = 2..k.  The germ holds each component as an integer term map and one
denominator, so one table of these differences, on those maps, is built per
k with no rational arithmetic, and D^k(f) is read off it.  The fixed locus
of a cycle shape is the image of D^k(f) under the monomial map
y_i -> z_{cycle(i)} for the canonical permutation, whose cycles occupy
consecutive positions in decreasing length order (all choices give
isomorphic loci).  Level j of a term c*x^b*y^a is c*x^b*h_{a-j+1}(y_1..y_j),
h_m the complete homogeneous symmetric polynomial, so the fixed locus is
written from the germ's terms in closed form, with no table.

The analyzer classifies every (k, shape) cell against its expected dimension
and derives the Marar-Mond style verdicts: stability, A-finiteness, strong
contractibility, and d(f).  For A-finite germs, a nonempty space of
non-negative expected dimension has a nonempty smoothing and isolated points
at negative expected dimension vanish in it, so d(f) is read off germ-side
as max{k <= kappa : D^k nonempty}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, pairwise
from math import comb
from typing import Sequence

from . import icis
from .errors import (
    InconsistentDataError,
    InfeasibleDimensionsError,
    InvalidInputError,
    ResourceLimitError,
)
from .icis import (
    EMPTY,
    ICIS,
    ISOLATED_POINTS,
    SMOOTH,
    MilnorData,
    VarietyClass,
)
from .localalg import DEFAULT_STEP_BUDGET, LocalIdeal, _Budget
from .poly import (
    Exponent,
    MultiPoly,
    VarSet,
    _divided_difference_terms,
    clear_denominators,
    divided_difference,  # not called here; perfbench/tracer.py patches this name
    format_poly,
    parse_integer,
    parse_name,
    parse_poly,
    records,
)
from .symrep import MAX_SYMMETRIC_K, Partition, partitions


class GermSpec:
    """A corank-one mono-germ (x, h_1(x,y), .., h_m(x,y)) from (C^n,0) to (C^p,0).

    Its one state, set at construction, is each component h_i as an integer
    term map and the lcm d_i of its coefficient denominators, h_i = map / d_i,
    which ``divided_difference_table`` reads as it is; the MultiPoly
    components are built from that state on first use.  The state of a
    polynomial is unique, so germs compare and hash by their dimensions,
    variable names and component polynomials.  A germ is immutable.
    """

    def __init__(self, n: int, p: int, base_names: Sequence[str], corank_name: str,
                 components: Sequence[MultiPoly]):
        _check_dims(n, p)
        if len(base_names) != n - 1:
            raise InvalidInputError("base variable count must be n - 1")
        _check_component_count(len(components), n, p)
        vs = VarSet(tuple(base_names) + (corank_name,))
        origin = (0,) * len(vs)
        maps, dens = [], []
        for h in components:
            if h.vars != vs:
                raise InvalidInputError("component does not live over the germ variables")
            if origin in h.terms:
                raise InvalidInputError("components must vanish at the origin")
            den, ints = clear_denominators(h.terms.values())
            maps.append(dict(zip(h.terms, ints)))
            dens.append(den)
        self._init_state(n, p, base_names, corank_name, maps, dens)

    @classmethod
    def _from_terms(cls, n: int, p: int, base_names: Sequence[str], corank_name: str,
                    maps: Sequence[dict[Exponent, int]]) -> "GermSpec":
        """The germ whose components are the integer term maps ``maps``,
        with no check: the caller guarantees what the constructor checks and
        that every coefficient is a nonzero int."""
        return cls.__new__(cls)._init_state(n, p, base_names, corank_name, maps, [1] * len(maps))

    def _init_state(self, n: int, p: int, base_names: Sequence[str], corank_name: str,
                    maps: Sequence[dict[Exponent, int]], dens: Sequence[int]) -> "GermSpec":
        vars(self).update(n=n, p=p, base_names=tuple(base_names), corank_name=corank_name,
                          _scaled=(tuple(maps), tuple(dens)))
        return self

    def __setattr__(self, *_):
        raise AttributeError("GermSpec is immutable")

    def _key(self) -> tuple:
        maps, dens = self._scaled
        return (self.n, self.p, self.base_names, self.corank_name,
                tuple(frozenset(h.items()) for h in maps), dens)

    def __eq__(self, other) -> bool:
        return isinstance(other, GermSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"GermSpec(n={self.n}, p={self.p}, base_names={self.base_names!r}, "
                f"corank_name={self.corank_name!r}, "
                f"components={[format_poly(h) for h in self.components]!r})")

    @cached_property
    def varset(self) -> VarSet:
        return VarSet(self.base_names + (self.corank_name,))

    @cached_property
    def components(self) -> tuple[MultiPoly, ...]:
        maps, dens = self._scaled
        vs = self.varset
        return tuple(
            MultiPoly._trusted(vs, {e: Fraction(c, d) for e, c in h.items()})
            for h, d in zip(maps, dens)
        )

    def serialize(self) -> str:
        lines = [f"n {self.n}", f"p {self.p}"]
        if self.base_names:
            lines.append("base " + " ".join(self.base_names))
        lines.append(f"corank {self.corank_name}")
        lines.extend(f"component {format_poly(h)}" for h in self.components)
        return "\n".join(lines) + "\n"


def germ(n: int, p: int, components: Sequence[str], base: Sequence[str] | None = None,
         corank: str = "y") -> GermSpec:
    """Convenience constructor parsing component polynomials from text; it
    refuses what analyze_germ would before building the n - 1 base names,
    and declared names that are not names of the polynomial grammar."""
    _check_dims(n, p)
    _check_component_count(len(components), n, p)
    _check_multiplicity_bound(n, p)
    base_names = tuple(base) if base is not None else tuple(f"x{i}" for i in range(1, n))
    for name in (*base_names, corank):
        parse_name(name, "variable")
    vs = VarSet(base_names + (corank,))
    comps = tuple(parse_poly(text, vs) for text in components)
    return GermSpec(n, p, base_names, corank, comps)


_GERM_FIELDS = {"n": 1, "p": 1, "base": None, "corank": 1, "component": None}


def germ_from_text(text: str) -> GermSpec:
    """Parse the germ file format: n, p, optional base/corank lines (each at
    most once), components."""
    given: dict[str, list[str]] = {}
    components: list[str] = []
    lines = records(text, "germ-file", _GERM_FIELDS, once=("n", "p", "base", "corank"),
                    required=("n", "p", "component"))
    for key, fields, line in lines:
        if key == "component":
            components.append(line[len(key):].strip())
        else:
            given[key] = fields
    n, p = (parse_integer(given[key][0], key) for key in ("n", "p"))
    (corank,) = given.get("corank", ["y"])
    return germ(n, p, components, base=given.get("base"), corank=corank)


# -- expected dimensions ------------------------------------------------------


def kappa(n: int, p: int) -> int:
    """Largest multiplicity with non-negative expected dimension: floor(p/(p-n)),
    in integer arithmetic."""
    _check_dims(n, p)
    return p // (p - n)


def expected_dim(n: int, p: int, k: int) -> int:
    """d_k = p - k(p - n)."""
    _check_dims(n, p)
    if k < 1:
        raise InvalidInputError("multiplicity k must be >= 1")
    return p - k * (p - n)


def expected_dim_sigma(n: int, p: int, k: int, shape: Partition) -> int:
    """d_k^sigma = p - k(p - n) - k + (number of cycles of sigma)."""
    if shape.k != k:
        raise InvalidInputError(f"cycle shape {shape.parts} is not a partition of {k}")
    return expected_dim(n, p, k) - k + shape.cycle_count


def _check_dims(n: int, p: int):
    if not 1 <= n < p:
        raise InvalidInputError(f"need 1 <= n < p, got ({n}, {p})")


def _check_component_count(count: int, n: int, p: int):
    if count != p - n + 1:
        raise InvalidInputError(f"component count {count} != p - n + 1 = {p - n + 1}")


def _check_multiplicity_bound(n: int, p: int) -> int:
    """kappa, once kappa + 1 is known to be a supported multiplicity."""
    kap = kappa(n, p)
    if kap + 1 > MAX_SYMMETRIC_K:
        raise InvalidInputError(
            f"kappa + 1 = {kap + 1} exceeds the supported multiplicity bound"
        )
    return kap


# -- equations ---------------------------------------------------------------


def _ambient(g: GermSpec, ys: Sequence[str]) -> VarSet:
    """The base variables of g, then ``ys``."""
    for nm in ys:
        if nm in g.base_names:
            raise InvalidInputError(f"variable clash: {nm} is already a base variable")
    return VarSet(g.base_names + tuple(ys))


def _check_level(g: GermSpec, k: int):
    if k < 2:
        raise InvalidInputError("multiple point spaces start at k = 2")
    if k > kappa(g.n, g.p) + 1:
        raise InvalidInputError(
            f"k = {k} exceeds the practical bound kappa + 1 = {kappa(g.n, g.p) + 1}"
        )


def divided_difference_table(g: GermSpec, k: int) -> tuple[VarSet, list[int], list[list[dict]]]:
    """The ambient (x, y_1..y_k), the component scales and the rows of levels
    j = 2..k, whose entries are the m iterated differences as integer term maps.

    Level 2 is (h_i(y_2) - h_i(y_1)) / (y_2 - y_1); level j divides out
    (y_j - y_{j-1}) from the previous level.  The germ holds each component
    h_i scaled to integers by the lcm d_i of its coefficient denominators,
    the scale, and a divided difference copies coefficients, so entry i of
    every row is d_i times the difference of h_i.  Entries can be empty
    (components of low y-degree exhaust).
    """
    _check_level(g, k)
    amb = _ambient(g, [f"{g.corank_name}{i}" for i in range(1, k + 1)])
    maps, scales = g._scaled
    # The germ's corank variable is last and y1 is the ambient's first corank
    # variable, so lifting y -> y1 pads every exponent with zeros.
    pad = (0,) * (k - 1)
    current = [{e + pad: c for e, c in h.items()} for h in maps]
    rows = []
    for i in range(len(g.base_names), len(amb) - 1):
        current = [_divided_difference_terms(q, i, i + 1) for q in current]
        rows.append(current)
    return amb, list(scales), rows


def _full_ideal(table, ledger: _Budget) -> LocalIdeal:
    """D^k(f) in (x, y_1..y_k) from the table of k, charging ``ledger``."""
    amb, scales, rows = table
    maps = [q for row in rows for q in row]
    return LocalIdeal._from_terms(maps, amb, ledger, scales * len(rows))


@cache
def _spread(m: int, widths: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The image of h_m under collapsing consecutive blocks of ``widths``
    variables: each spread s of m over the blocks, in ascending lex order,
    with its multiplicity prod C(s_l + w_l - 1, w_l - 1), the number of
    monomials of degree s_l in w_l variables over the blocks."""
    w, rest = widths[0], widths[1:]
    if not rest:
        return (((m,), comb(m + w - 1, w - 1)),)
    return tuple(
        ((t, *s), comb(t + w - 1, w - 1) * c)
        for t in range(m + 1)
        for s, c in _spread(m - t, rest)
    )


def _fixed_ideal(g: GermSpec, shape: Partition, ledger: _Budget) -> LocalIdeal:
    """D^k(f)^sigma in (x, z_1..z_c) for the canonical sigma, charging ``ledger``.

    Level j of a term c*x^b*y^a is c*x^b*h_{a-j+1}(y_1..y_j), and the blocks
    of sigma's cycles among y_1..y_j collapse h_m onto its spreads s.
    Distinct terms give distinct (x^b, |s|) and every coefficient is a
    nonzero multiple of c, so nothing collides or cancels.  The lex-least
    preimage of z^s holds each block's mass in the block's last y, so the
    table's order of first occurrence is lex on s: the maps are the collapsed
    table's, dict order included, each keeping its component's scale.
    """
    maps, scales = g._scaled
    nb, cycles = len(g.base_names), shape.cycle_count
    target = _ambient(g, [f"z{i}" for i in range(1, cycles + 1)])
    starts = list(accumulate(shape.parts, initial=0))
    out = []
    for j in range(2, shape.k + 1):
        widths = tuple(min(b, j) - a for a, b in pairwise(starts) if a < j)
        pad = (0,) * (cycles - len(widths))
        for h in maps:
            terms: dict[Exponent, int] = {}
            for e, c in h.items():
                if (m := e[nb] - j + 1) >= 0:
                    x = e[:nb]
                    for s, mult in _spread(m, widths):
                        terms[x + s + pad] = c * mult
            out.append(terms)
    return LocalIdeal._from_terms(out, target, ledger, scales * (shape.k - 1))


def multiple_point_equations(
    g: GermSpec, k: int, budget: int = DEFAULT_STEP_BUDGET
) -> LocalIdeal:
    """The ideal of D^k(f) in (x, y_1..y_k): all levels' divided differences,
    with a ledger of ``budget`` steps of its own."""
    return _full_ideal(divided_difference_table(g, k), _Budget(budget))


def fixed_locus_equations(
    g: GermSpec, k: int, shape: Partition, budget: int = DEFAULT_STEP_BUDGET
) -> LocalIdeal:
    """Equations of D^k(f)^sigma in (x, z_1..z_c) for the canonical sigma,
    with a ledger of ``budget`` steps of its own."""
    if shape.k != k:
        raise InvalidInputError(f"cycle shape {shape.parts} is not a partition of {k}")
    _check_level(g, k)
    return _fixed_ideal(g, shape, _Budget(budget))


# -- analysis ----------------------------------------------------------------


@dataclass(frozen=True)
class MultiPointSpace:
    """One (k, cycle shape) cell of the analysis table."""

    k: int
    shape: Partition
    expected_dim: int
    ideal: LocalIdeal
    classification: VarietyClass

    @property
    def nonempty(self) -> bool:
        return self.classification.nonempty

    @property
    def milnor(self) -> MilnorData | None:
        return self.classification.milnor

    def as_dict(self) -> dict:
        out = {
            "k": self.k,
            "sigma": list(self.shape.parts),
            "expected_dim": self.expected_dim,
            "kind": self.classification.kind,
            "dim": self.classification.dim,
            "evidence": self.classification.evidence,
        }
        md = self.milnor
        if md is not None:
            out.update(
                mu=md.mu,
                beta0=md.beta0,
                mu_plus0=md.mu_plus0,
                mu_minus0=md.mu_minus0,
                mu_tilde=md.mu_tilde,
            )
        return out


@dataclass(frozen=True)
class GermVerdict:
    stable: bool
    a_finite: bool
    strongly_contractible: bool
    d_of_f: int
    kappa: int


@dataclass
class GermAnalysis:
    """Full per-(k, sigma) table plus the derived verdicts."""

    germ: GermSpec
    kappa: int
    cells: dict[tuple[int, tuple[int, ...]], MultiPointSpace]
    verdict: GermVerdict = field(init=False)

    def cell(self, k: int, shape: Partition | tuple[int, ...]) -> MultiPointSpace:
        parts = shape.parts if isinstance(shape, Partition) else tuple(shape)
        return self.cells[(k, parts)]

    def full_space(self, k: int) -> MultiPointSpace:
        return self.cell(k, (1,) * k)

    def __post_init__(self):
        self.verdict = self._verdict()

    def _verdict(self) -> GermVerdict:
        kap = self.kappa
        top = self.full_space(kap + 1)
        full = {k: self.full_space(k) for k in range(2, kap + 1)}
        stable = top.classification.is_empty and all(
            sp.classification.kind in (SMOOTH, EMPTY) for sp in full.values()
        )
        a_finite = top.classification.kind in (EMPTY, ISOLATED_POINTS)
        for sp in self.cells.values():
            if sp.k > kap:
                continue
            if sp.expected_dim >= 0:
                if sp.classification.kind not in (EMPTY, SMOOTH, ICIS):
                    a_finite = False
            else:
                if sp.classification.kind not in (EMPTY, ISOLATED_POINTS):
                    a_finite = False
        strongly_contractible = (
            a_finite
            and not stable
            and all(sp.classification.kind == SMOOTH for sp in full.values())
            and top.nonempty
        )
        d_of_f = 1
        for k in range(2, kap + 1):
            if not full[k].classification.is_empty:
                d_of_f = k
        return GermVerdict(stable, a_finite, strongly_contractible, d_of_f, kap)


def analyze_germ(g: GermSpec, budget: int = DEFAULT_STEP_BUDGET) -> GermAnalysis:
    """Classify every D^k(f)^sigma for k = 2..kappa and D^{kappa+1}(f).

    Every cell's ideal charges one ledger of ``budget`` steps, so the budget
    bounds the work of the whole analysis.  A ResourceLimitError names the
    cell it stopped in.
    """
    kap = _check_multiplicity_bound(g.n, g.p)
    ledger = _Budget(budget)
    cells: dict[tuple[int, tuple[int, ...]], MultiPointSpace] = {}
    for k in range(2, kap + 2):
        shapes = partitions(k) if k <= kap else [Partition((1,) * k)]
        table = divided_difference_table(g, k)
        for shape in shapes:
            if shape.parts == (1,) * k:
                ideal = _full_ideal(table, ledger)
            else:
                ideal = _fixed_ideal(g, shape, ledger)
            e_dim = expected_dim_sigma(g.n, g.p, k, shape)
            try:
                classification = icis.classify(ideal, e_dim)
            except ResourceLimitError as exc:
                where = f"{exc.reason} in D^{k} {shape.label()}"
                raise ResourceLimitError(where, exc.steps) from exc
            cells[(k, shape.parts)] = MultiPointSpace(
                k=k,
                shape=shape,
                expected_dim=e_dim,
                ideal=ideal,
                classification=classification,
            )
    return GermAnalysis(germ=g, kappa=kap, cells=cells)


# -- strongly contractible germs ----------------------------------------------


def sc_dimension_feasible(n: int, p: int) -> bool:
    """Whether strongly contractible mono-germs of corank one exist in (n, p).

    Criterion: p - floor(p/(p-n)) * (p-n+1) >= 0, which rearranges to the
    equation count (p-n+1)(kappa-1) <= n-1 that sc_feasibility_report shows.
    """
    return p - kappa(n, p) * (p - n + 1) >= 0


def sc_feasibility_report(n: int, p: int) -> dict:
    """Witness arithmetic behind the feasibility verdict."""
    kap = kappa(n, p)
    return {
        "n": n,
        "p": p,
        "kappa": kap,
        "d_kappa": expected_dim(n, p, kap),
        "margin": p - kap * (p - n + 1),
        "equations_for_d_kappa": (p - n + 1) * (kap - 1),
        "base_variables": n - 1,
        "feasible": sc_dimension_feasible(n, p),
        "coarse_obstruction": prop_disg_check(n, p),
    }


def prop_disg_check(n: int, p: int) -> bool:
    """Coarse necessary condition: True means d_kappa - kappa + 1 < 0, so no
    strongly contractible germ can exist (weaker than infeasibility)."""
    _check_dims(n, p)
    kap = kappa(n, p)
    return expected_dim(n, p, kap) - kap + 1 < 0


def generate_sc_germ(
    n: int,
    p: int,
    budget: int = DEFAULT_STEP_BUDGET,
    self_check: bool = True,
) -> GermSpec:
    """Emit a strongly contractible germ in feasible dimensions.

    For kappa >= 2 the components are y^(kappa+i) plus one scheduled monomial
    x_t * y^(j-1) per level j = 2..kappa, giving every divided difference of
    every level an independent linear term; leftover base variables are
    attached as x_t * y^kappa, one per component, so that level kappa + 1
    pins each of them (on a shared component it would pin only their sum).
    For kappa = 1 (p > 2n) the components pin everything at the double
    point level while keeping D^2 nonempty.  The output is re-analyzed, under
    one ledger of ``budget`` steps, and must pass the strong-contractibility
    check; that self-check is part of the contract, so with it a kappa + 1
    above the supported multiplicity bound is refused before the germ is
    built.

    The monomials of a component are distinct and have coefficient 1, so
    its integer term map, the germ's state, is written directly from
    exponent tuples, with no ring arithmetic, in the order the sum of its
    monomials would list them.
    """
    if not sc_dimension_feasible(n, p):
        raise InfeasibleDimensionsError(
            f"no strongly contractible mono-germs of corank one in ({n}, {p})"
        )
    kap = _check_multiplicity_bound(n, p) if self_check else kappa(n, p)
    m = p - n + 1
    base_names = tuple(f"x{i}" for i in range(1, n))

    def mono(y_deg: int, t: int = 0, a: int = 1) -> Exponent:
        """The exponent of x_t^a * y^y_deg; t = 0 leaves out the x factor."""
        exp = [0] * n
        exp[-1] = y_deg
        if t:
            exp[t - 1] = a
        return tuple(exp)

    if kap == 1:
        used = [mono(2), mono(3)] + [mono(1, t) for t in range(1, n)]
        if n > 1:
            # Cheap pinned padding: x_i^a * y divides out to x_i^a at the
            # double point level, which is already in the ideal.
            a, i = 2, 1
            while len(used) < m:
                used.append(mono(1, i, a))
                i += 1
                if i == n:
                    i, a = 1, a + 1
        else:
            power = 4
            while len(used) < m:
                used.append(mono(power))
                power += 1
        supports = [[e] for e in used]
    else:
        supports = [
            [mono(kap + i)]
            + [mono(j - 1, (i - 1) * (kap - 1) + (j - 1)) for j in range(2, kap + 1)]
            for i in range(1, m + 1)
        ]
        scheduled = m * (kap - 1)
        for t in range(scheduled + 1, n):
            supports[t - scheduled - 1].append(mono(kap, t))  # leftover <= m, by feasibility
    maps = [dict.fromkeys(exps, 1) for exps in supports]
    spec = GermSpec._from_terms(n, p, base_names, "y", maps)
    if self_check:
        analysis = analyze_germ(spec, budget=budget)
        if not analysis.verdict.strongly_contractible:
            raise InconsistentDataError(
                f"generated germ for ({n}, {p}) failed its strong-contractibility self-check"
            )
    return spec
