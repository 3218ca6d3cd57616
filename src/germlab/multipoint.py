"""Multiple point spaces of corank-one mono-germs.

A germ is stored in the normal form (x, h_1(x,y), ..., h_m(x,y)) with
m = p - n + 1.  The k-th multiple point space lives in (x, y_1..y_k) and is
cut out by the iterated divided differences of the components: level j
contributes the divided difference of level j-1 in a fresh variable y_j, for
j = 2..k.  One table of these differences, integer term maps of components
scaled once to integer coefficients, is built per k, and every cell of that
k is read off it.  The fixed locus of a cycle shape is the image of the
table under the monomial map y_i -> z_{cycle(i)} for the canonical
permutation, whose cycles occupy consecutive positions in decreasing length
order (all choices give isomorphic loci): each cycle's block of y-exponents
sums to one z-exponent.

The analyzer classifies every (k, shape) cell against its expected dimension
and derives the Marar-Mond style verdicts: stability, A-finiteness, strong
contractibility, and d(f).  For A-finite germs, a nonempty space of
non-negative expected dimension has a nonempty smoothing and isolated points
at negative expected dimension vanish in it, so d(f) is read off germ-side
as max{k <= kappa : D^k nonempty}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, pairwise
from math import floor, lcm
from typing import Sequence

from . import icis
from .errors import InconsistentDataError, InvalidInputError
from .icis import (
    EMPTY,
    ICIS,
    ISOLATED_POINTS,
    SMOOTH,
    DEFAULT_SEED,
    MilnorData,
    VarietyClass,
)
from .localalg import DEFAULT_STEP_BUDGET, LocalIdeal
from .poly import (
    _ONE,
    ROLE_BASE,
    ROLE_CORANK,
    Exponent,
    MultiPoly,
    VarSet,
    _divided_difference_terms,
    divided_difference,  # not called here; perfbench/tracer.py patches this name
    format_poly,
    parse_integer,
    parse_poly,
)
from .symrep import MAX_SYMMETRIC_K, Partition, partitions


class InfeasibleDimensionsError(InvalidInputError):
    """Strongly contractible germs do not exist in the requested dimensions."""


@dataclass(frozen=True)
class GermSpec:
    """A corank-one mono-germ (x, h_1(x,y), .., h_m(x,y)) from (C^n,0) to (C^p,0)."""

    n: int
    p: int
    base_names: tuple[str, ...]
    corank_name: str
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        _check_dims(self.n, self.p)
        if len(self.base_names) != self.n - 1:
            raise InvalidInputError("base variable count must be n - 1")
        _check_component_count(len(self.components), self.n, self.p)
        vs = self.varset
        origin = (0,) * len(vs)
        for h in self.components:
            if h.vars != vs:
                raise InvalidInputError("component does not live over the germ variables")
            if origin in h.terms:
                raise InvalidInputError("components must vanish at the origin")

    @cached_property
    def varset(self) -> VarSet:
        return VarSet(
            self.base_names + (self.corank_name,),
            (ROLE_BASE,) * len(self.base_names) + (ROLE_CORANK,),
        )

    @property
    def m(self) -> int:
        return self.p - self.n + 1

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
    refuses what analyze_germ would before building the n - 1 base names."""
    _check_dims(n, p)
    _check_component_count(len(components), n, p)
    _check_multiplicity_bound(n, p)
    base_names = tuple(base) if base is not None else tuple(f"x{i}" for i in range(1, n))
    vs = VarSet(base_names + (corank,), (ROLE_BASE,) * len(base_names) + (ROLE_CORANK,))
    comps = tuple(parse_poly(text, vs) for text in components)
    return GermSpec(n, p, base_names, corank, comps)


def germ_from_text(text: str) -> GermSpec:
    """Parse the germ file format: n, p, optional base/corank lines, components."""
    n = p = None
    base: list[str] | None = None
    corank = "y"
    comp_texts: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "n":
            n = parse_integer(rest, "n")
        elif key == "p":
            p = parse_integer(rest, "p")
        elif key == "base":
            base = rest.split()
        elif key == "corank":
            corank = rest
        elif key == "component":
            comp_texts.append(rest)
        else:
            raise InvalidInputError(f"unknown germ-file directive {key!r}")
    if n is None or p is None:
        raise InvalidInputError("germ file must declare n and p")
    if not comp_texts:
        raise InvalidInputError("germ file declares no components")
    return germ(n, p, comp_texts, base=base, corank=corank)


# -- expected dimensions ------------------------------------------------------


def kappa(n: int, p: int) -> int:
    """Largest multiplicity with non-negative expected dimension: floor(p/(p-n))."""
    _check_dims(n, p)
    return floor(p / (p - n))


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


def _ambient(g: GermSpec, corank_names: Sequence[str]) -> VarSet:
    for nm in corank_names:
        if nm in g.base_names:
            raise InvalidInputError(f"variable clash: {nm} is already a base variable")
    return VarSet(
        g.base_names + tuple(corank_names),
        (ROLE_BASE,) * len(g.base_names) + (ROLE_CORANK,) * len(corank_names),
    )


def divided_difference_table(g: GermSpec, k: int) -> tuple[VarSet, list[int], list[list[dict]]]:
    """The ambient (x, y_1..y_k), the component scales and the rows of levels
    j = 2..k, whose entries are the m iterated differences as integer term maps.

    Level 2 is (h_i(y_2) - h_i(y_1)) / (y_2 - y_1); level j divides out
    (y_j - y_{j-1}) from the previous level.  Each component h_i is scaled
    to integers once, by the lcm d_i of its coefficient denominators, and a
    divided difference copies coefficients, so entry i of every row is d_i
    times the difference of h_i.  Entries can be empty (components of low
    y-degree exhaust).
    """
    if k < 2:
        raise InvalidInputError("multiple point spaces start at k = 2")
    if k > kappa(g.n, g.p) + 1:
        raise InvalidInputError(
            f"k = {k} exceeds the practical bound kappa + 1 = {kappa(g.n, g.p) + 1}"
        )
    amb = _ambient(g, [f"{g.corank_name}{i}" for i in range(1, k + 1)])
    scales = [lcm(*(c.denominator for c in h.terms.values())) for h in g.components]
    # The germ's corank variable is last and y1 is the ambient's first corank
    # variable, so lifting y -> y1 pads every exponent with zeros.
    pad = (0,) * (k - 1)
    current = [
        {e + pad: c.numerator * (d // c.denominator) for e, c in h.terms.items()}
        for h, d in zip(g.components, scales)
    ]
    rows = []
    for i in range(len(g.base_names), len(amb) - 1):
        current = [_divided_difference_terms(q, i, i + 1) for q in current]
        rows.append(current)
    return amb, scales, rows


def _full_ideal(table, budget: int) -> LocalIdeal:
    """D^k(f) in (x, y_1..y_k) from the table of k."""
    amb, scales, rows = table
    maps = [q for row in rows for q in row]
    return LocalIdeal._from_terms(maps, amb, budget, scales * len(rows))


def _fixed_ideal(g: GermSpec, table, shape: Partition, budget: int) -> LocalIdeal:
    """D^k(f)^sigma in (x, z_1..z_c) from the table of k, for the canonical sigma.

    Its cycles occupy consecutive y positions, so y_i -> z_{cycle(i)} sums
    each cycle's block of y-exponents; integer coefficients add where images
    collide, and every equation keeps its component's scale.
    """
    _, scales, rows = table
    target = _ambient(g, [f"z{i}" for i in range(1, shape.cycle_count + 1)])
    nb = len(g.base_names)
    blocks = [slice(a, b) for a, b in pairwise(accumulate(shape.parts, initial=nb))]
    maps = []
    for row in rows:
        for q in row:
            terms: dict[Exponent, int] = {}
            for e, c in q.items():
                image = e[:nb] + tuple(map(sum, map(e.__getitem__, blocks)))
                terms[image] = terms.get(image, 0) + c
            maps.append({e: c for e, c in terms.items() if c})
    return LocalIdeal._from_terms(maps, target, budget, scales * len(rows))


def multiple_point_equations(
    g: GermSpec, k: int, budget: int = DEFAULT_STEP_BUDGET
) -> LocalIdeal:
    """The ideal of D^k(f) in (x, y_1..y_k): all levels' divided differences."""
    return _full_ideal(divided_difference_table(g, k), budget)


def fixed_locus_equations(
    g: GermSpec, k: int, shape: Partition, budget: int = DEFAULT_STEP_BUDGET
) -> LocalIdeal:
    """Equations of D^k(f)^sigma in (x, z_1..z_c) for the canonical sigma."""
    if shape.k != k:
        raise InvalidInputError(f"cycle shape {shape.parts} is not a partition of {k}")
    return _fixed_ideal(g, divided_difference_table(g, k), shape, budget)


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
        # Nesting sanity: a nonempty D^{k+1} under an empty D^k is impossible.
        # A not_icis cell is still a nonempty locus, so only EMPTY counts here.
        previous_nonempty = True
        for k in range(2, kap + 2):
            nonempty = not self.full_space(k).classification.is_empty
            if nonempty and not previous_nonempty:
                raise InconsistentDataError(
                    f"nesting violated: D^{k} nonempty while D^{k - 1} is empty"
                )
            previous_nonempty = nonempty
        return GermVerdict(stable, a_finite, strongly_contractible, d_of_f, kap)


def analyze_germ(
    g: GermSpec,
    budget: int = DEFAULT_STEP_BUDGET,
    seed: int = DEFAULT_SEED,
) -> GermAnalysis:
    """Classify every D^k(f)^sigma for k = 2..kappa and D^{kappa+1}(f)."""
    kap = _check_multiplicity_bound(g.n, g.p)
    cells: dict[tuple[int, tuple[int, ...]], MultiPointSpace] = {}
    for k in range(2, kap + 2):
        shapes = partitions(k) if k <= kap else [Partition((1,) * k)]
        table = divided_difference_table(g, k)
        for shape in shapes:
            if shape.parts == (1,) * k:
                ideal = _full_ideal(table, budget)
            else:
                ideal = _fixed_ideal(g, table, shape, budget)
            e_dim = expected_dim_sigma(g.n, g.p, k, shape)
            cells[(k, shape.parts)] = MultiPointSpace(
                k=k,
                shape=shape,
                expected_dim=e_dim,
                ideal=ideal,
                classification=icis.classify(ideal, e_dim, seed=seed),
            )
    return GermAnalysis(germ=g, kappa=kap, cells=cells)


# -- strongly contractible germs ----------------------------------------------


def sc_dimension_feasible(n: int, p: int) -> bool:
    """Whether strongly contractible mono-germs of corank one exist in (n, p).

    Criterion: p - floor(p/(p-n)) * (p-n+1) >= 0, cross-checked against the
    equivalent equation-count form (p-n+1)(kappa-1) <= n-1.
    """
    _check_dims(n, p)
    kap = kappa(n, p)
    primary = p - kap * (p - n + 1) >= 0
    by_equations = (p - n + 1) * (kap - 1) <= n - 1
    if primary != by_equations:
        raise InconsistentDataError(
            f"feasibility cross-check failed at ({n}, {p})", value=(primary, by_equations)
        )
    return primary


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
    seed: int = DEFAULT_SEED,
    self_check: bool = True,
) -> GermSpec:
    """Emit a strongly contractible germ in feasible dimensions.

    For kappa >= 2 the components are y^(kappa+i) plus one scheduled monomial
    x_t * y^(j-1) per level j = 2..kappa, giving every divided difference of
    every level an independent linear term; leftover base variables are
    attached as x_t * y^kappa, one per component, so that level kappa + 1
    pins each of them (on a shared component it would pin only their sum).
    For kappa = 1 (p > 2n) the components pin everything at the double
    point level while keeping D^2 nonempty.  The output is re-analyzed and must
    pass the strong-contractibility check; that self-check is part of the
    contract.

    The monomials of a component are distinct and have coefficient 1, so
    its term map is written directly from exponent tuples, with no ring
    arithmetic, in the order the sum of its monomials would list them.
    """
    if not sc_dimension_feasible(n, p):
        raise InfeasibleDimensionsError(
            f"no strongly contractible mono-germs of corank one in ({n}, {p})"
        )
    kap = kappa(n, p)
    m = p - n + 1
    vs_names = tuple(f"x{i}" for i in range(1, n)) + ("y",)
    vs = VarSet(vs_names, (ROLE_BASE,) * (n - 1) + (ROLE_CORANK,))

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
        if len(used) != m:
            raise InconsistentDataError("degenerate generator produced a bad component count")
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
    comps = [MultiPoly._trusted(vs, dict.fromkeys(exps, _ONE)) for exps in supports]
    spec = GermSpec(n, p, vs_names[:-1], "y", tuple(comps))
    if self_check:
        analysis = analyze_germ(spec, budget=budget, seed=seed)
        if not analysis.verdict.strongly_contractible:
            raise InconsistentDataError(
                f"generated germ for ({n}, {p}) failed its strong-contractibility self-check"
            )
    return spec
