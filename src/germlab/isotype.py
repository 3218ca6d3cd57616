"""Character linear system and isotype formulas.

Inputs are keyed by conjugacy class, which makes constancy on classes true
by construction; per-element input is rejected by design (there is no way to
express it).  The signed sums (mu_tau, tau_betti_single_dim) must be
non-negative integers for honest group actions, so integrality is a
*validation signal*: they return the int they were checked to be, or raise
InconsistentDataError carrying the exact offending rational rather than
rounding.  tau_characteristic, solve_character_system and
evaluate_class_function return exact rationals, unvalidated: Euler data need
not give integers.

Character values here are integers (one per class), so complex conjugation
in the formulas is the identity; tables with other values are out of scope
and rejected at load time by the table parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .errors import IncompleteDataError, InconsistentDataError, InvalidInputError
from .poly import check_directives, parse_integer, records
from .symrep import CharacterTable


@dataclass(frozen=True)
class EulerOnly:
    """Per-class fixed-point datum: just the Euler characteristic."""

    euler: int


@dataclass(frozen=True)
class SingleDim:
    """Per-class datum when fixed loci have reduced homology in one dimension."""

    dim: int
    betti: int


@dataclass(frozen=True)
class IcisDatum:
    """Per-class datum for the tau-Milnor formula.

    dim is the dimension entering the sign (-1)^(d - dim); for an ICIS fixed
    locus it is its dimension, for a fixed locus that degenerated to isolated
    points feed its actual dimension 0 and mu_tilde = -beta0.  The field is a
    plain integer so callers exploring the formula may feed negative expected
    dimensions directly.
    """

    dim: int
    mu_tilde: int


HOLDS = "holds"


@dataclass(frozen=True)
class ConservationVerdict:
    status: str  # "holds" or "violated"
    difference: Fraction = Fraction(0)
    semicontinuity_ok: bool = True

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _check_classes(table: CharacterTable, data: Mapping[str, object]):
    known = set(table.class_labels)
    for label in data:
        if label not in known:
            raise InvalidInputError(f"datum for unknown class {label!r}")
    for label in table.class_labels:
        if label not in data:
            raise InvalidInputError(f"missing datum for class {label!r}")


def _class_sum(table: CharacterTable, i: int, values: Sequence[Fraction | int]) -> Fraction:
    """(1/|G|) sum_classes size * chi_i * value, values in class order."""
    return Fraction(sum(map(mul, map(mul, table.class_sizes, table.values[i]), values)),
                    table.group_order)


def solve_character_system(
    table: CharacterTable, b: Mapping[str, Fraction | int]
) -> dict[str, Fraction]:
    """Solve sum_tau chi_tau(sigma) x_tau = b_sigma for the x_tau.

    The solution is x_tau = (1/|G|) sum_classes size * chi_tau * b; systems
    keyed by class are always solvable, and substituting back reproduces b
    exactly (see evaluate_class_function).
    """
    _check_classes(table, b)
    values = [b[cls] for cls in table.class_labels]
    return {label: _class_sum(table, i, values) for i, label in enumerate(table.irrep_labels)}


def evaluate_class_function(
    table: CharacterTable, x: Mapping[str, Fraction | int]
) -> dict[str, Fraction]:
    """Forward evaluation b_sigma = sum_tau chi_tau(sigma) x_tau per class."""
    values = [x[label] for label in table.irrep_labels]
    return {cls: Fraction(sum(map(mul, column, values)))
            for cls, column in zip(table.class_labels, zip(*table.values))}


def tau_characteristic(
    table: CharacterTable, data: Mapping[str, EulerOnly], tau: str
) -> Fraction:
    """chi_tau(M) = (1/|G|) sum size * chi_tau * chi_Top(M^sigma)."""
    _check_classes(table, data)
    i = table.irrep_index(tau)
    return _class_sum(table, i, [data[cls].euler for cls in table.class_labels])


def _signed_sum(table: CharacterTable, data: Mapping[str, object], tau: str, d: int,
                field: str, quantity: str) -> int:
    """(1/|G|) sum size * (-1)^(d - datum.dim) * chi_tau * datum.<field>.

    The identity class's datum must have dimension d.  The result must be a
    non-negative integer for data coming from an honest action, and is
    returned as that int; otherwise InconsistentDataError names the quantity
    and carries the exact value.
    """
    _check_classes(table, data)
    if data[table.class_labels[table.identity_index]].dim != d:
        raise InvalidInputError("identity-class dimension must equal the top dimension d")
    i = table.irrep_index(tau)
    values = []
    for cls in table.class_labels:
        datum = data[cls]
        value = getattr(datum, field)
        values.append(-value if (d - datum.dim) % 2 else value)
    value = _class_sum(table, i, values)
    if value.denominator != 1 or value < 0:
        raise InconsistentDataError(
            f"{quantity} is {value}, not a non-negative integer: inconsistent input",
            value=value,
        )
    return value.numerator


def tau_betti_single_dim(
    table: CharacterTable,
    data: Mapping[str, SingleDim],
    tau: str,
    d: int,
) -> int:
    """Top tau-Betti number when every fixed locus has one homology dimension.

    beta_d^tau(M) = (1/|G|) sum size * (-1)^(d - d^sigma) * chi_tau * beta.
    """
    return _signed_sum(table, data, tau, d, "betti", f"beta_{d}^{tau}")


def mu_tau(
    table: CharacterTable,
    data: Mapping[str, IcisDatum],
    tau: str,
    d: int,
) -> int:
    """tau-Milnor number from per-class (dimension, extended-mu) data.

    mu^tau = (1/|G|) sum size * (-1)^(d - dim) * chi_tau * mu_tilde.
    """
    return _signed_sum(table, data, tau, d, "mu_tilde", f"mu^{tau}")


def check_conservation(
    mu_tau_x0: Fraction | int,
    betti_tau_xt: Fraction | int | None,
    local_mu_taus: Sequence[Fraction | int],
    d: int,
    beta0_tau_xt: Fraction | int | None = None,
    beta0_tau_x0: Fraction | int | None = None,
) -> ConservationVerdict:
    """Conservation of the tau-Milnor number along a family, from user data.

    d > 0:  mu^tau(X_0) = beta_d^tau(X_t) + sum_x mu^tau(X_t; x)
    d == 0: mu^tau(X_0) = beta_0^tau(X_t) + sum_x mu^tau(X_t; x) - beta_0^tau(X_0)

    Each form requires its own terms and refuses the other's: betti_tau_xt
    (beta_d^tau(X_t)) when d > 0, the beta_0^tau terms when d == 0.  Also
    reports upper semi-continuity: mu^tau(X_0) >= mu^tau(X_t; x) for each x.
    """
    if d < 0:
        raise InvalidInputError("family dimension must be >= 0")
    left = Fraction(mu_tau_x0)
    local = sum(Fraction(v) for v in local_mu_taus)
    terms = {"beta0_tau_xt": beta0_tau_xt, "beta0_tau_x0": beta0_tau_x0,
             "betti_tau_xt": betti_tau_xt}
    needed = ("beta0_tau_xt", "beta0_tau_x0") if d == 0 else ("betti_tau_xt",)
    for name, term in terms.items():
        if name in needed and term is None:
            raise IncompleteDataError(f"d = {d} conservation needs the {name} term")
        if name not in needed and term is not None:
            raise InvalidInputError(f"d = {d} conservation takes no {name} term")
    if d == 0:
        right = Fraction(beta0_tau_xt) + local - Fraction(beta0_tau_x0)
    else:
        right = Fraction(betti_tau_xt) + local
    semicontinuous = all(Fraction(v) <= left for v in local_mu_taus)
    if left == right:
        return ConservationVerdict(HOLDS, semicontinuity_ok=semicontinuous)
    return ConservationVerdict("violated", difference=left - right, semicontinuity_ok=semicontinuous)


# -- fixed-point data files --------------------------------------------------
#
# Records in the grammar of poly.records:   class <label> euler <chi>
#                                           class <label> single <dim> <betti>
#                                           class <label> icis <dim> <mu_tilde>
# plus, for single and icis data only, one  top_dim <d>
# record.  Mixing kinds in one file is rejected.


@dataclass(frozen=True)
class FixedPointFile:
    kind: str  # "euler" | "single" | "icis"
    data: dict[str, object]
    top_dim: int | None

    def value(self, table: CharacterTable, tau: str) -> Fraction | int:
        """The isotype number of tau that this kind of data determines:
        chi_tau (euler), beta_d^tau (single) or mu^tau (icis), d = top_dim."""
        formula = globals()[_KINDS[self.kind][2]]  # looked up at each call
        dims = () if self.top_dim is None else (self.top_dim,)
        return formula(table, self.data, tau, *dims)


# Per kind: the fields after `class` (the label, the kind and the numbers),
# their datum, the formula of FixedPointFile.value and the other directives
# the file needs, which are all it may hold.
_KINDS = {
    "euler": (3, EulerOnly, "tau_characteristic", ()),
    "single": (4, SingleDim, "tau_betti_single_dim", ("top_dim",)),
    "icis": (4, IcisDatum, "mu_tau", ("top_dim",)),
}


def _record_ints(fields: Sequence[str], line: str) -> list[int]:
    return [parse_integer(f, f"integer in fixed-point record {line!r}:") for f in fields]


def fixed_point_data_from_text(text: str) -> FixedPointFile:
    kind: str | None = None
    data: dict[str, object] = {}
    top_dim: int | None = None
    lines = records(text, "fixed-point", {"top_dim": 1, "class": None}, once=("top_dim",),
                    required=("class",))
    for key, fields, line in lines:
        if key == "top_dim":
            (top_dim,) = _record_ints(fields, line)
            continue
        if len(fields) < 2:
            raise InvalidInputError(f"bad fixed-point record: {line!r}")
        label, this_kind = fields[0], fields[1]
        if kind not in (None, this_kind):
            raise InvalidInputError("mixed record kinds in one fixed-point file")
        kind = this_kind
        if this_kind not in _KINDS:
            raise InvalidInputError(f"unknown fixed-point record kind {this_kind!r}")
        width, record, _, _ = _KINDS[this_kind]
        if len(fields) != width:
            raise InvalidInputError(f"bad {this_kind} record: {line!r}")
        if label in data:
            raise InvalidInputError(f"repeated fixed-point record for class {label!r}")
        data[label] = record(*_record_ints(fields[2:], line))
    present = () if top_dim is None else ("top_dim",)
    check_directives(present, f"{kind} fixed-point", _KINDS[kind][3], allowed=())
    return FixedPointFile(kind, data, top_dim)
