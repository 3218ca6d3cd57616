"""Shared exception types.

Every error that callers are expected to catch lives here, so that the CLI
can map exception classes to exit codes without importing half the package.
"""

from __future__ import annotations


class GermlabError(Exception):
    """Base class for all package errors."""


class PolySyntaxError(GermlabError):
    """Raised by the polynomial parser; carries the 0-based input offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class VariableMismatchError(GermlabError):
    """Operands or bindings do not live over compatible variable sets."""


# The work budget of a run, and the --budget-steps default.
DEFAULT_STEP_BUDGET = 1_000_000


class ResourceLimitError(GermlabError):
    """A run exceeded its step budget.

    Deliberately distinct from any mathematical verdict: catching this means
    "gave up", never "false".  ``reason`` is the message without the
    budget, so a caller can add where the run stopped.
    """

    def __init__(self, message: str, steps: int):
        super().__init__(f"{message} (budget {steps} exhausted)")
        self.reason = message
        self.steps = steps


class NotIcisError(GermlabError):
    """A locus expected to be an ICIS is not one (or could not be certified)."""


class NotAFiniteError(GermlabError):
    """Invariants were requested for a germ whose analysis is not A-finite."""


class InconsistentDataError(GermlabError):
    """Input data or derived values violate a structural identity.

    Carries the offending exact value when there is one, so tests and callers
    can inspect it instead of re-deriving.
    """

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class InvalidInputError(GermlabError):
    """Malformed file, missing field, or out-of-range argument."""


class IncompleteDataError(InvalidInputError):
    """A checker needs a datum the caller must supply; guessing would be wrong."""


class InfeasibleDimensionsError(InvalidInputError):
    """Strongly contractible germs do not exist in the requested dimensions."""
