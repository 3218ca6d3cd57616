"""Classification of germ varieties at the origin and their Milnor numbers.

A locus handed to this module comes as a LocalIdeal plus the dimension it is
*expected* to have.  The verdicts are:

  empty            the ideal contains a unit
  smooth           nonempty, Jacobian rank at the origin equals the codimension
  icis             nonempty complete intersection with finite Milnor number
  isolated_points  expected dimension < 0 and the locus is the base point
  not_icis         anything else (dimension mismatch, chain failure)

classify decides in this order, with e the expected dimension, n the number
of ambient variables and r the rank of the generators' linear parts; the
split and steps 1 to 4 are exact and build no standard basis:

  1. zero ideal       smooth when e = n, else not_icis
  2. constant term    a generator with a nonzero constant term is a unit
                      (``LocalIdeal.contains_unit``): empty
     split            every lone-variable generator c*x_j comes off: since
                      (x_j) + J = (x_j) + J|_{x_j=0}, O/I is O'/I' for O' the
                      local ring of the other coordinates and I' the other
                      generators with x_j := 0, repeated until no lone
                      generator is left.  With s variables split off,
                      r = s + the rank of I'.  Step 5 and the elimination
                      read I' in its n' = n - s variables (I itself when
                      s = 0); steps 3, 4 and 7 compare r with the cell's own
                      n and generator count
  3. r = n            the linear parts span m/m^2, so the ideal is the maximal
                      ideal (Nakayama): isolated_points when e < 0, smooth
                      when e = 0, not_icis (dimension 0) when e > 0
  4. r = n - e = number of generators
                      smooth, by the implicit function theorem (without the
                      generator count this is unsound: (x, y^2) in C^2 has
                      r = 1 = n - 1 and is a fat point)
  5. first n' generators
                      when e < 0 and I' has more generators than its
                      n' variables, the standard basis of J = (g_1..g_n') of
                      I' alone: dimension 0 gives isolated_points, since
                      J <= I' <= m' (step 2) gives 0 <= dim O'/I' <= dim O'/J;
                      otherwise on to the elimination
     elimination      every generator g = c*x_j + r of I' with x_j in no term
                      of r comes off: since (g) + J = (g) + J|_{x_j := -r/c},
                      O'/I' is O''/I'' for O'' the local ring of the other
                      coordinates and I'' the other generators with x_j
                      substituted, repeated until no such generator is left;
                      the split is its case r = 0.  Its substitutions are
                      charged to the ideal's ledger.  Steps 6 and 8 read I''
  6. Krull dimension  from the standard basis of I'', equal to that of I:
                      isolated_points or not_icis when e < 0, not_icis when
                      it differs from e
  7. r = n - e        smooth, now that the dimension is e
  8. Milnor number    of I'', the same germ: icis, or not_icis when the chain
                      fails

Milnor numbers: positive dimensional complete intersections by the
telescoping chain

    mu(X_i) + mu(X_{i-1}) = dim_Q O / ((g_1..g_{i-1}) + maximal minors of Jac(g_1..g_i))

and zero-dimensional ones by (colength - 1), which counts the generic fiber
minus the base point.  For a hypersurface the chain is its one step, the
Jacobian-ideal colength; ``milnor_hypersurface`` runs exactly that chain and
builds no Jacobian ideal of its own.  The chain runs on the primitive
integer term maps of an irredundant generating set: every generator in the
ideal of the others is dropped first, and a complete intersection keeps
exactly codim of them (Nakayama).  Step i extends the maximal minors of
steps 1..i-1 by the Jacobian row of the first remaining generator whose
section has finite colength, so the generators keep their given order
whenever that order works; one multiply-add of integer maps per (column
subset, column).  When no remaining generator gives a finite colength the
chain fails at that step.

Every ideal this module derives from a locus (the split, the head of step 5,
the eliminated ideal, the chain's sections) charges the locus's ledger, and
so do the minors, substitutions and redundancy checks: no computation opens
a budget of its own, and the ledger's limit bounds the work of them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import eq, itemgetter
from typing import Sequence

from .errors import InconsistentDataError, InvalidInputError, NotIcisError
from .localalg import (
    DEFAULT_STEP_BUDGET,
    INFINITE,
    LocalIdeal,
    _Budget,
    _derivative,
    _extend_minors,
    _primitive,
    _reduce,
    standard_basis,
)
from .poly import Exponent, MultiPoly, VarSet, _subtract_multiple

EMPTY = "empty"
SMOOTH = "smooth"
ICIS = "icis"
ISOLATED_POINTS = "isolated_points"
NOT_ICIS = "not_icis"

# Evidence of the verdicts decided before any standard basis.
UNIT_CONSTANT_TERM = "unit constant term"
FULL_LINEAR_RANK = "linear part of full rank"
IMPLICIT_FUNCTION = "implicit function theorem"
# Evidence of isolated points found by a standard basis.
FINITE_COLENGTH = "finite colength at origin"


@dataclass(frozen=True)
class VarietyClass:
    """Verdict for one locus: what it is, its data, and which test decided."""

    kind: str
    dim: int | None = None
    mu: int | None = None
    evidence: str = ""

    @property
    def is_empty(self) -> bool:
        return self.kind == EMPTY

    @property
    def nonempty(self) -> bool:
        return self.kind in (SMOOTH, ICIS, ISOLATED_POINTS)

    @property
    def milnor(self) -> MilnorData | None:
        """The Milnor data of this verdict; None for a not_icis locus."""
        if self.kind == NOT_ICIS:
            return None
        if self.kind == EMPTY:
            return MilnorData(0, 0, 0)
        if self.kind == ISOLATED_POINTS:
            return MilnorData(0, 1, -1)
        return MilnorData(self.mu, 1, self.mu)


@dataclass(frozen=True)
class MilnorData:
    """Milnor number together with its signed and extended companions.

    beta0 follows the mono-germ convention: 1 for a nonempty locus at the
    origin, 0 for an empty one.  mu_tilde is -beta0 for isolated points and
    mu otherwise, which is the value the isotype formulas consume; it needs
    the kind, since a smooth locus and isolated points share (mu, beta0) =
    (0, 1).
    """

    mu: int
    beta0: int
    mu_tilde: int

    @property
    def mu_plus0(self) -> int:
        return self.mu + self.beta0

    @property
    def mu_minus0(self) -> int:
        return self.mu - self.beta0


def jacobian_rank_at_origin(maps: Sequence[dict[Exponent, int]], nvars: int) -> int:
    """Rank over Q of the linear parts of integer term maps, by fraction-free elimination.

    The row of a map is its coefficients at the nvars unit exponents, looked
    up directly (zero rows, most generators of a multiple point space, are
    skipped).  A pivot step rebuilds only the rows below the pivot with a
    nonzero entry f in its column, as p * row - f * pivot row divided by its
    content, so every entry stays an integer of the size of the input; a row
    with a zero there already has the shape the step makes and is left alone.
    """
    units = [(0,) * i + (1,) + (0,) * (nvars - 1 - i) for i in range(nvars)]
    rows = [[h.get(u, 0) for u in units] for h in maps if not h.keys().isdisjoint(units)]
    rank = 0
    for col in range(nvars):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for r in range(rank + 1, len(rows)):
            if f := rows[r][col]:
                row = [p * a - f * b for a, b in zip(rows[r], pr)]
                g = gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
    return rank


def _split_lone_variables(ideal: LocalIdeal) -> tuple[LocalIdeal, int]:
    """I' and s: the ideal I with the s variables of its lone-variable
    generators split off.

    A lone-variable generator is one term c * x_j of degree 1.  It puts x_j
    in I, and (x_j) + J = (x_j) + J|_{x_j=0}, so O/I is O'/I' for O' the
    local ring of the other coordinates and I' the other generators with
    x_j := 0: the same Krull dimension and Milnor number, and a Jacobian
    rank s lower.  A substitution can leave a new lone generator (x1 + x2*x3
    beside x2), so the split repeats until none is left; the generators it
    empties are dropped.  Without a lone generator the ideal itself comes
    back, with s = 0.
    """
    maps = ideal._terms
    coords = range(len(ideal.ambient))  # the kept coordinates, as indices of the ambient
    while lone := {e.index(1) for h in maps if len(h) == 1 for e in h if sum(e) == 1}:
        keep = [i for i in range(len(coords)) if i not in lone]
        project = itemgetter(*keep) if len(keep) > 1 else lambda e: tuple(e[i] for i in keep)
        # x_j := 0 for the lone j, over the kept coordinates: a term survives
        # iff its projection keeps its degree.  One-term maps, most of a
        # multiple point space, skip the iterator chain.
        rest = []
        for h in maps:
            if len(h) == 1:
                ((e, c),) = h.items()
                if sum(k := project(e)) == sum(e):
                    rest.append({k: c})
            else:
                keys = list(map(project, h))
                h = dict(compress(zip(keys, h.values()), map(eq, map(sum, keys), map(sum, h))))
                if h:
                    rest.append(h)
        maps = rest
        coords = [coords[i] for i in keep]
    split = len(ideal.ambient) - len(coords)
    if not split:
        return ideal, 0
    ambient = VarSet([ideal.ambient.names[i] for i in coords])
    return LocalIdeal._from_terms(maps, ambient, ideal._ledger), split


def _eliminate_linear(ideal: LocalIdeal) -> LocalIdeal:
    """I' over fewer coordinates: every generator g = c * x_j + r, with x_j
    in no term of r, taken off the ideal I.

    Since (g) + J = (g) + J|_{x_j := -r/c}, O/I is O'/I' for O' the local
    ring of the other coordinates: the same Krull dimension and Milnor
    number.  Each round takes the first such g of fewest terms (its first
    such x_j), drops it and substitutes into the others on integer term
    maps: a map h of x_j-degree D becomes c^D * h(x_j := -r/c), the sum of
    c^(D - a) * h_a * (-r)^a over its x_j-degree parts h_a.  Generators the
    substitution empties are dropped.  Every term product is charged to the
    ideal's ledger, which the result shares.  The maps are projected to the
    kept coordinates once, at the end; without such a generator the ideal
    itself comes back.
    """
    maps = list(ideal._terms)
    nvars = len(ideal.ambient)
    budget = ideal._ledger
    gone = []
    while True:
        pick = None
        for i, h in enumerate(maps):
            if pick is None or len(h) < len(maps[pick[0]]):
                for e in h:
                    if sum(e) == 1 and sum(f[e.index(1)] for f in h) == 1:
                        pick = i, e.index(1)
                        break
        if pick is None:
            break
        i, j = pick
        g = maps.pop(i)
        unit = (0,) * j + (1,) + (0,) * (nvars - 1 - j)
        c = g[unit]
        r = {e: a for e, a in g.items() if e != unit}
        powers = [{(0,) * nvars: 1}]  # (-r)^a
        rest = []
        for h in maps:
            if not any(e[j] for e in h):
                rest.append(h)
                continue
            parts: dict[int, dict[Exponent, int]] = {}
            for e, a in h.items():
                parts.setdefault(e[j], {})[e[:j] + (0,) + e[j + 1 :]] = a
            top = max(parts)
            while len(powers) <= top:
                budget.tick("linear elimination", len(powers[-1]) * len(r))
                power: dict[Exponent, int] = {}
                for e, a in powers[-1].items():
                    _subtract_multiple(power, a, r, e)
                powers.append(power)
            acc: dict[Exponent, int] = {}
            for a, part in parts.items():
                budget.tick("linear elimination", len(part) * len(powers[a]))
                scale = c ** (top - a)
                for e, b in part.items():
                    _subtract_multiple(acc, -scale * b, powers[a], e)
            if acc:
                rest.append(_primitive(acc))
        maps = rest
        gone.append(j)
    if not gone:
        return ideal
    keep = [k for k in range(nvars) if k not in gone]
    project = itemgetter(*keep) if len(keep) > 1 else lambda e: tuple(e[k] for k in keep)
    maps = [dict(zip(map(project, h), h.values())) for h in maps]
    return LocalIdeal._from_terms(maps, VarSet(project(ideal.ambient.names)), ideal._ledger)


def milnor_hypersurface(g: MultiPoly, budget: int = DEFAULT_STEP_BUDGET) -> int:
    """mu of an isolated hypersurface singularity: the one-step Le-Greuel
    chain, whose step is the colength of the Jacobian ideal.

    Off the origin (a nonzero constant term) raises InvalidInputError;
    a non-isolated singularity, the zero polynomial included, NotIcisError.
    """
    return milnor_icis(LocalIdeal([g], g.vars, budget=budget), len(g.vars) - 1)


def _irredundant(maps: Sequence[dict[Exponent, int]], budget: _Budget) -> list[dict[Exponent, int]]:
    """The generators left after dropping, in order, each that lies in the
    ideal of the others kept so far and of all after it.

    Membership is a zero remainder of ``_reduce`` against the standard basis
    of those others, both charged to ``budget``.  Each generator kept is
    outside the ideal of the rest, so the set is irredundant, and in a local
    ring an irredundant generating set is minimal (Nakayama): it has mu(I)
    elements, which is the codimension exactly when the ideal is a complete
    intersection.
    """
    kept, i = list(maps), 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        if _reduce(kept[i], standard_basis(others, budget), budget):
            i += 1
        else:
            kept = others
    return kept


def milnor_icis(ideal: LocalIdeal, dim: int) -> int:
    """Milnor number of an ICIS of the stated dimension.

    dim == 0 reduces to colength minus one (fiber point count minus the base
    point).  dim > 0 runs the Le-Greuel chain on the integer term maps of an
    irredundant generating set, which must have codim elements.  Step i
    extends the maximal minors of steps 1..i-1 by the Jacobian row of the
    first remaining generator whose section has finite colength; when no
    remaining generator has one, the chain fails at step i.  The minor
    expansion of every candidate, the redundancy checks and every section's
    standard basis and colength are charged to the ideal's ledger.  The unit
    ideal, the caller's input, raises InvalidInputError.
    """
    if dim < 0:
        raise InconsistentDataError("milnor_icis needs a non-negative dimension")
    if ideal.contains_unit():
        raise InvalidInputError("the unit ideal defines the empty germ: no Milnor number")
    if dim == 0:
        q = ideal.quotient_dimension()
        if q is INFINITE:
            raise NotIcisError("expected dimension 0 but colength is infinite")
        return q - 1
    ambient, ledger = ideal.ambient, ideal._ledger
    nvars = len(ambient)
    codim = nvars - dim
    rest = list(ideal._terms)
    if len(rest) > codim:
        rest = _irredundant(rest, ledger)
    if len(rest) != codim:
        raise NotIcisError(
            f"{len(rest)} generators cannot cut a codimension {codim} complete intersection"
        )
    minors: dict[tuple[int, ...], dict[Exponent, int]] = {(): {(0,) * nvars: 1}}
    chain: list[dict[Exponent, int]] = []
    mu = 0
    for i in range(1, codim + 1):
        for j, h in enumerate(rest):
            extended = _extend_minors(minors, [_derivative(h, v) for v in range(nvars)], ledger)
            section = LocalIdeal._from_terms([*chain, *extended.values()], ambient, ledger)
            q = section.quotient_dimension()
            if q is not INFINITE:
                break
        else:
            raise NotIcisError(f"chain step {i} has infinite colength")
        chain.append(rest.pop(j))
        minors = extended
        mu = q - mu
        if mu < 0:
            raise NotIcisError(f"chain step {i} produced a negative Milnor number")
    return mu


def classify(ideal: LocalIdeal, expected_dim: int) -> VarietyClass:
    """Marar-Mond style verdict for one locus against its expected dimension."""
    n_amb = len(ideal.ambient)
    if expected_dim > n_amb:
        raise InconsistentDataError(
            f"expected dimension {expected_dim} exceeds ambient dimension {n_amb}"
        )
    maps = ideal._terms
    if not maps:
        if expected_dim == n_amb:
            return VarietyClass(SMOOTH, dim=n_amb, mu=0, evidence="zero ideal")
        return VarietyClass(NOT_ICIS, dim=n_amb, evidence="zero ideal of wrong dimension")
    if ideal.contains_unit():
        return VarietyClass(EMPTY, evidence=UNIT_CONSTANT_TERM)
    # Every generator now vanishes at the origin.  Step 5 runs on the ideal
    # with its lone-variable generators split off, steps 6 and 8 on that
    # ideal with its linear variables eliminated; steps 3, 4 and 7 compare
    # against the cell's own n and generator count.
    reduced, split = _split_lone_variables(ideal)
    n_red, rest = len(reduced.ambient), reduced._terms
    rank = split + jacobian_rank_at_origin(rest, n_red)
    if rank == n_amb:
        # The linear parts span m/m^2, so the ideal is m (Nakayama): the
        # reduced point, of dimension 0.
        if expected_dim < 0:
            return VarietyClass(ISOLATED_POINTS, dim=0, evidence=FULL_LINEAR_RANK)
        if expected_dim == 0:
            return VarietyClass(SMOOTH, dim=0, mu=0, evidence=FULL_LINEAR_RANK)
        evidence = f"dimension 0 != expected {expected_dim} ({FULL_LINEAR_RANK})"
        return VarietyClass(NOT_ICIS, dim=0, evidence=evidence)
    if rank == n_amb - expected_dim == len(maps):
        # Implicit function theorem: codim generators with independent
        # linear parts cut out a smooth germ of the expected dimension.
        return VarietyClass(SMOOTH, dim=expected_dim, mu=0, evidence=IMPLICIT_FUNCTION)
    if expected_dim < 0 and len(rest) > n_red:
        # J = (g_1..g_n) lies in the ideal, which lies in m, so
        # 0 <= dim O/I <= dim O/J: a zero-dimensional head settles the cell.
        head = LocalIdeal._from_terms(rest[:n_red], reduced.ambient, reduced._ledger)
        if head.krull_dimension() == 0:
            return VarietyClass(ISOLATED_POINTS, dim=0, evidence=FINITE_COLENGTH)
    reduced = _eliminate_linear(reduced)
    actual = reduced.krull_dimension()
    if expected_dim < 0:
        if actual <= 0:
            return VarietyClass(ISOLATED_POINTS, dim=0, evidence=FINITE_COLENGTH)
        return VarietyClass(
            NOT_ICIS, dim=actual, evidence=f"dimension {actual} at negative expected dimension"
        )
    if actual != expected_dim:
        return VarietyClass(
            NOT_ICIS, dim=actual, evidence=f"dimension {actual} != expected {expected_dim}"
        )
    if rank == n_amb - expected_dim:
        return VarietyClass(SMOOTH, dim=expected_dim, mu=0, evidence="jacobian rank at origin")
    try:
        mu = milnor_icis(reduced, expected_dim)
    except NotIcisError as exc:
        return VarietyClass(NOT_ICIS, dim=actual, evidence=str(exc))
    if mu == 0:
        # mu = 0 forces smoothness; the rank test must have seen it.
        raise InconsistentDataError(
            "Milnor number 0 on a locus the Jacobian rank test called singular", value=mu
        )
    return VarietyClass(ICIS, dim=expected_dim, mu=mu, evidence="le-greuel chain")

