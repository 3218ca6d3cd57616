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
first three tests are exact and build no standard basis:

  1. zero ideal       smooth when e = n, else not_icis
  2. constant term    a generator with a nonzero constant term is a unit: empty
  3. r = n            the linear parts span m/m^2, so the ideal is the maximal
                      ideal (Nakayama): isolated_points when e < 0, smooth
                      when e = 0, not_icis (dimension 0) when e > 0
  4. r = n - e = number of generators
                      smooth, by the implicit function theorem (without the
                      generator count this is unsound: (x, y^2) in C^2 has
                      r = 1 = n - 1 and is a fat point)
  5. first n generators
                      when e < 0 and there are more than n generators, the
                      standard basis of J = (g_1..g_n) alone: dimension 0
                      gives isolated_points, since J <= I <= m (step 2) gives
                      0 <= dim O/I <= dim O/J; otherwise on to step 6
  6. Krull dimension  from the standard basis: isolated_points or not_icis
                      when e < 0, not_icis when it differs from e
  7. r = n - e        smooth, now that the dimension is e
  8. Milnor number    icis, or not_icis when the chain fails

Milnor numbers: hypersurfaces by the Jacobian-ideal colength, positive
dimensional complete intersections by the telescoping chain

    mu(X_i) + mu(X_{i-1}) = dim_Q O / ((g_1..g_{i-1}) + maximal minors of Jac(g_1..g_i))

and zero-dimensional ones by (colength - 1), which counts the generic fiber
minus the base point.  The sections come from localalg.le_greuel_sections,
which runs on primitive integer term maps: step i extends the maximal minors
of steps 1..i-1 by the Jacobian row of g_i, one multiply-add of integer maps
per (column subset, column), charged to the ideal's budget.  When a chain
step degenerates (infinite intermediate colength) the generators are
re-mixed by seeded invertible linear recombinations and the chain is
retried; genericity is what the chain needs, and randomization with exact
verification is sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .errors import InconsistentDataError, NotIcisError
from .localalg import DEFAULT_STEP_BUDGET, INFINITE, LocalIdeal, le_greuel_sections
from .poly import MultiPoly

DEFAULT_SEED = 290797
CHAIN_RETRIES = 8

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


def jacobian_rank_at_origin(generators: Sequence[MultiPoly]) -> int:
    """Rank over Q of the stacked linear parts, by fraction-free elimination.

    Each generator's degree-one terms, scaled to integers, give its row
    (zero rows, most generators of a multiple point space, are skipped),
    then Bareiss elimination keeps every entry an integer: after a pivot
    step the new entries are 2 x 2 determinants divided exactly by the
    previous pivot.
    """
    ncols = len(generators[0].vars) if generators else 0
    rows = []
    for g in generators:
        linear = [(e, c) for e, c in g.terms.items() if sum(e) == 1]
        if linear:
            den = lcm(*(c.denominator for _, c in linear))
            row = [0] * ncols
            for e, c in linear:
                row[e.index(1)] = c.numerator * (den // c.denominator)
            rows.append(row)
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row[col]
            rows[r] = [(p * a - f * b) // prev for a, b in zip(row, pr)]
        prev = p
        rank += 1
    return rank


def milnor_hypersurface(g: MultiPoly, budget: int = DEFAULT_STEP_BUDGET) -> int:
    """mu of an isolated hypersurface singularity: colength of the Jacobian ideal."""
    if g.constant_term():
        raise InconsistentDataError("hypersurface does not pass through the origin")
    jac = [g.derivative(v) for v in g.vars.names]
    q = LocalIdeal(jac, g.vars, budget=budget).quotient_dimension()
    if q == INFINITE:
        raise NotIcisError("non-isolated singularity: Jacobian ideal has infinite colength")
    return int(q)


def _chain_mu(gens: Sequence[MultiPoly], ideal: LocalIdeal) -> int:
    """One Le-Greuel telescoping pass along the generators as given."""
    sections = le_greuel_sections(gens, ideal.ambient, ideal.budget)
    mu_prev = 0
    for i, section in enumerate(sections, start=1):
        q = section.quotient_dimension()
        if q == INFINITE:
            raise NotIcisError(f"chain step {i} has infinite colength")
        mu_i = int(q) - mu_prev
        if mu_i < 0:
            raise NotIcisError(f"chain step {i} produced a negative Milnor number")
        mu_prev = mu_i
    return mu_prev


def milnor_icis(ideal: LocalIdeal, dim: int, seed: int = DEFAULT_SEED) -> int:
    """Milnor number of an ICIS of the stated dimension.

    dim == 0 reduces to colength minus one (fiber point count minus the base
    point).  dim > 0 runs the Le-Greuel chain in generator order, retrying
    with up to CHAIN_RETRIES seeded invertible recombinations on failure.
    Every ideal of the chain runs under the budget of ``ideal``.
    """
    if dim < 0:
        raise InconsistentDataError("milnor_icis needs a non-negative dimension")
    if ideal.contains_unit():
        raise InconsistentDataError("empty germ has no Milnor number")
    if dim == 0:
        q = ideal.quotient_dimension()
        if q == INFINITE:
            raise NotIcisError("expected dimension 0 but colength is infinite")
        return int(q) - 1
    gens = list(ideal.generators)
    codim = len(ideal.ambient) - dim
    if len(gens) != codim:
        gens = _recombine_to_codim(gens, codim, ideal, random.Random(seed))
    try:
        return _chain_mu(gens, ideal)
    except NotIcisError:
        pass
    rng = random.Random(seed)
    for _ in range(CHAIN_RETRIES):
        mixed = _random_recombination(gens, rng)
        try:
            return _chain_mu(mixed, ideal)
        except NotIcisError:
            continue
    raise NotIcisError(
        f"Le-Greuel chain failed after {CHAIN_RETRIES} randomized retries"
    )


def _random_recombination(gens: list[MultiPoly], rng: random.Random) -> list[MultiPoly]:
    """Apply a random invertible (unit lower-triangular after shuffle) mix."""
    order = list(range(len(gens)))
    rng.shuffle(order)
    shuffled = [gens[i] for i in order]
    mixed = []
    for i, g in enumerate(shuffled):
        acc = g
        for j in range(i):
            c = rng.randint(-3, 3)
            if c:
                acc = acc + shuffled[j].scale(c)
        mixed.append(acc)
    return mixed


def _recombine_to_codim(
    gens: list[MultiPoly], codim: int, ideal: LocalIdeal, rng: random.Random
) -> list[MultiPoly]:
    """Reduce an oversized generating set to codim generic combinations.

    A complete intersection ideal is generated by codim elements; generic
    combinations of any generating set work.  The candidate set is verified
    to generate the same ideal by mutual normal-form reduction before use.
    """
    if len(gens) < codim:
        raise NotIcisError(
            f"{len(gens)} generators cannot cut a codimension {codim} complete intersection"
        )
    for _ in range(CHAIN_RETRIES):
        candidate = []
        for _i in range(codim):
            acc = MultiPoly.zero(ideal.ambient)
            for g in gens:
                c = rng.randint(-4, 4)
                if c:
                    acc = acc + g.scale(c)
            candidate.append(acc)
        cand_ideal = LocalIdeal(candidate, ideal.ambient, budget=ideal.budget)
        if all(cand_ideal.contains(g) for g in gens) and all(
            ideal.contains(c) for c in candidate
        ):
            return candidate
    raise NotIcisError("could not reduce the generating set to codimension size")


def classify(ideal: LocalIdeal, expected_dim: int, seed: int = DEFAULT_SEED) -> VarietyClass:
    """Marar-Mond style verdict for one locus against its expected dimension."""
    n_amb = len(ideal.ambient)
    if expected_dim > n_amb:
        raise InconsistentDataError(
            f"expected dimension {expected_dim} exceeds ambient dimension {n_amb}"
        )
    if not ideal.generators:
        if expected_dim == n_amb:
            return VarietyClass(SMOOTH, dim=n_amb, mu=0, evidence="zero ideal")
        return VarietyClass(NOT_ICIS, dim=n_amb, evidence="zero ideal of wrong dimension")
    gens = ideal.generators
    origin = (0,) * n_amb
    if any(origin in g.terms for g in gens):
        return VarietyClass(EMPTY, evidence=UNIT_CONSTANT_TERM)
    # Every generator now vanishes at the origin.
    rank = jacobian_rank_at_origin(gens)
    if rank == n_amb:
        # The linear parts span m/m^2, so the ideal is m (Nakayama): the
        # reduced point, of dimension 0.
        if expected_dim < 0:
            return VarietyClass(ISOLATED_POINTS, dim=0, evidence=FULL_LINEAR_RANK)
        if expected_dim == 0:
            return VarietyClass(SMOOTH, dim=0, mu=0, evidence=FULL_LINEAR_RANK)
        evidence = f"dimension 0 != expected {expected_dim} ({FULL_LINEAR_RANK})"
        return VarietyClass(NOT_ICIS, dim=0, evidence=evidence)
    if rank == n_amb - expected_dim == len(gens):
        # Implicit function theorem: codim generators with independent
        # linear parts cut out a smooth germ of the expected dimension.
        return VarietyClass(SMOOTH, dim=expected_dim, mu=0, evidence=IMPLICIT_FUNCTION)
    if expected_dim < 0 and len(gens) > n_amb:
        # J = (g_1..g_n) lies in the ideal, which lies in m, so
        # 0 <= dim O/I <= dim O/J: a zero-dimensional head settles the cell.
        head = LocalIdeal(gens[:n_amb], ideal.ambient, budget=ideal.budget)
        if head.krull_dimension() == 0:
            return VarietyClass(ISOLATED_POINTS, dim=0, evidence=FINITE_COLENGTH)
    actual = ideal.krull_dimension()
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
        mu = milnor_icis(ideal, expected_dim, seed=seed)
    except NotIcisError as exc:
        return VarietyClass(NOT_ICIS, dim=actual, evidence=str(exc))
    if mu == 0:
        # mu = 0 forces smoothness; the rank test must have seen it.
        raise InconsistentDataError(
            "Milnor number 0 on a locus the Jacobian rank test called singular", value=mu
        )
    return VarietyClass(ICIS, dim=expected_dim, mu=mu, evidence="le-greuel chain")

