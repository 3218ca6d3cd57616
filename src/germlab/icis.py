"""Classification of germ varieties at the origin and their Milnor numbers.

A locus handed to this module comes as a LocalIdeal plus the dimension it is
*expected* to have.  The verdicts are:

  empty            the ideal contains a unit
  smooth           nonempty, Jacobian rank at the origin equals the codimension
  icis             nonempty complete intersection with finite Milnor number
  isolated_points  expected dimension < 0 and the locus is the base point
  not_icis         anything else (dimension mismatch, chain failure)

Milnor numbers: hypersurfaces by the Jacobian-ideal colength, positive
dimensional complete intersections by the telescoping chain

    mu(X_i) + mu(X_{i-1}) = dim_Q O / ((g_1..g_{i-1}) + maximal minors of Jac(g_1..g_i))

and zero-dimensional ones by (colength - 1), which counts the generic fiber
minus the base point.  When a chain step degenerates (infinite intermediate
colength) the generators are re-mixed by seeded invertible linear
recombinations and the chain is retried; genericity is what the chain needs,
and randomization with exact verification is sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import InconsistentDataError, NotIcisError
from .localalg import DEFAULT_STEP_BUDGET, INFINITE, LocalIdeal
from .poly import MultiPoly, VarSet

DEFAULT_SEED = 290797
CHAIN_RETRIES = 8

EMPTY = "empty"
SMOOTH = "smooth"
ICIS = "icis"
ISOLATED_POINTS = "isolated_points"
NOT_ICIS = "not_icis"


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


@dataclass(frozen=True)
class MilnorData:
    """Milnor number together with its signed and extended companions.

    beta0 follows the mono-germ convention: 1 for a nonempty locus at the
    origin, 0 for an empty one.  mu_tilde is mu for an ICIS and -beta0
    otherwise, which is the value the isotype formulas consume.
    """

    mu: int
    beta0: int
    mu_plus0: int
    mu_minus0: int
    mu_tilde: int

    @staticmethod
    def for_empty() -> "MilnorData":
        return MilnorData(0, 0, 0, 0, 0)

    @staticmethod
    def for_icis(mu: int) -> "MilnorData":
        return MilnorData(mu, 1, mu + 1, mu - 1, mu)

    @staticmethod
    def for_isolated_points() -> "MilnorData":
        return MilnorData(0, 1, 1, -1, -1)


def jacobian_rank_at_origin(generators: Sequence[MultiPoly]) -> int:
    """Rank over Q of the stacked linear parts, by exact Gaussian elimination."""
    rows = [g.linear_part() for g in generators]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows]
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = Fraction(1) / pr[col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank


def _maximal_minors(rows: list[list[MultiPoly]], ambient: VarSet) -> list[MultiPoly]:
    """All r x r minors of an r x N polynomial matrix.

    Laplace expansion along rows with memoization over column subsets: the
    minor for (row prefix of length s, column set S) is reused by every
    superset, so the work is one polynomial multiply-add per (subset, column)
    rather than a factorial blowup.
    """
    r = len(rows)
    n = len(rows[0]) if rows else 0
    zero = MultiPoly.zero(ambient)
    current: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.constant(ambient, 1)}
    for s in range(r):
        row_sign = -1 if s % 2 else 1
        nxt: dict[tuple[int, ...], MultiPoly] = {}
        for cols in combinations(range(n), s + 1):
            acc = zero
            for idx, col in enumerate(cols):
                entry = rows[s][col]
                if entry.is_zero():
                    continue
                sub = current[cols[:idx] + cols[idx + 1 :]]
                if sub.is_zero():
                    continue
                term = entry * sub
                acc = acc + term if (idx % 2 == 0) else acc - term
            nxt[cols] = acc if row_sign == 1 else -acc
        current = nxt
    return [current[cols] for cols in sorted(current)]


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
    ambient = ideal.ambient
    mu_prev = 0
    jac_rows: list[list[MultiPoly]] = []
    for i, g in enumerate(gens, start=1):
        jac_rows.append([g.derivative(v) for v in ambient.names])
        minors = _maximal_minors(jac_rows, ambient)
        section = list(gens[: i - 1]) + minors
        q = LocalIdeal(section, ambient, budget=ideal.budget).quotient_dimension()
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
    if ideal.is_zero_ideal():
        if expected_dim == n_amb:
            return VarietyClass(SMOOTH, dim=n_amb, mu=0, evidence="zero ideal")
        return VarietyClass(NOT_ICIS, dim=n_amb, evidence="zero ideal of wrong dimension")
    if ideal.contains_unit():
        return VarietyClass(EMPTY, evidence="unit in standard basis")
    actual = ideal.krull_dimension()
    if expected_dim < 0:
        if actual <= 0:
            return VarietyClass(ISOLATED_POINTS, dim=0, evidence="finite colength at origin")
        return VarietyClass(
            NOT_ICIS, dim=actual, evidence=f"dimension {actual} at negative expected dimension"
        )
    if actual != expected_dim:
        return VarietyClass(
            NOT_ICIS, dim=actual, evidence=f"dimension {actual} != expected {expected_dim}"
        )
    rank = jacobian_rank_at_origin(ideal.generators)
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


def milnor_data(
    ideal: LocalIdeal, expected_dim: int, classification: VarietyClass | None = None
) -> MilnorData:
    """MilnorData for a locus already known not to be not_icis."""
    cls = classification if classification is not None else classify(ideal, expected_dim)
    if cls.kind == NOT_ICIS:
        raise NotIcisError(f"milnor_data on a not_icis locus ({cls.evidence})")
    if cls.kind == EMPTY:
        return MilnorData.for_empty()
    if cls.kind == ISOLATED_POINTS:
        return MilnorData.for_isolated_points()
    return MilnorData.for_icis(cls.mu or 0)
