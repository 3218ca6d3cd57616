"""germlab: exact local computer algebra for corank-one map germs.

Layers, bottom to top: poly (exact sparse polynomials and divided
differences), localalg (standard bases in the local ring), icis
(classification and Milnor numbers), symrep / isotype (character tables and
isotype formulas), multipoint (multiple point spaces and germ analysis),
invariants (alternating and image Milnor numbers, tables, checkers), cli.
Only errors is imported with the package: every other name below, and every
submodule, is imported on its first access (PEP 562), so a command loads
only the modules it uses.
"""

import importlib

from .errors import (
    DEFAULT_STEP_BUDGET,
    GermlabError,
    IncompleteDataError,
    InconsistentDataError,
    InfeasibleDimensionsError,
    InvalidInputError,
    NotAFiniteError,
    NotIcisError,
    PolySyntaxError,
    ResourceLimitError,
    VariableMismatchError,
)

# Each module loaded on first use, with the names the package re-exports from it.
_LAZY = {
    "poly": ("MultiPoly", "VarSet", "divided_difference", "format_poly", "parse_poly"),
    "localalg": ("INFINITE", "LocalIdeal", "ideal_from_text"),
    "icis": ("MilnorData", "VarietyClass", "classify", "milnor_hypersurface", "milnor_icis"),
    "symrep": ("CharacterTable", "Partition", "character_table_symmetric", "class_size",
               "partitions", "sign_of_class", "table_from_text"),
    "isotype": ("ConservationVerdict", "EulerOnly", "IcisDatum", "SingleDim",
                "check_conservation", "evaluate_class_function", "mu_tau",
                "solve_character_system", "tau_betti_single_dim", "tau_characteristic"),
    "multipoint": ("GermAnalysis", "GermSpec", "analyze_germ", "expected_dim",
                   "expected_dim_sigma", "fixed_locus_equations", "generate_sc_germ", "germ",
                   "germ_from_text", "kappa", "multiple_point_equations", "prop_disg_check",
                   "sc_dimension_feasible", "sc_feasibility_report"),
    "invariants": ("IcssTable", "InvariantReport", "build_report", "check_mu_conservation",
                   "icss_layout", "icss_table", "mu_alt_dk", "mu_image", "mu_k_tau",
                   "no_unexpected_deformations", "nu_image"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = (*_LAZY, "cli")

# The names imported from errors above, each capitalized, then the lazy ones.
__all__ = [name for name in globals() if name[0].isupper()] + list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
