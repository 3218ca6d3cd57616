"""germlab: exact local computer algebra for corank-one map germs.

Layers, bottom to top: poly (exact sparse polynomials and divided
differences), localalg (standard bases in the local ring), icis
(classification and Milnor numbers), symrep / isotype (character tables and
isotype formulas), multipoint (multiple point spaces and germ analysis),
invariants (alternating and image Milnor numbers, tables, checkers), cli.
"""

from .errors import (
    GermlabError,
    IncompleteDataError,
    InconsistentDataError,
    InvalidInputError,
    NotAFiniteError,
    NotIcisError,
    PolySyntaxError,
    ResourceLimitError,
    VariableMismatchError,
)
from .poly import MultiPoly, VarSet, divided_difference, format_poly, parse_poly
from .localalg import DEFAULT_STEP_BUDGET, INFINITE, LocalIdeal, ideal_from_text
from .icis import MilnorData, VarietyClass, classify, milnor_hypersurface, milnor_icis
from .symrep import (
    CharacterTable,
    Partition,
    character_table_symmetric,
    class_size,
    partitions,
    sign_of_class,
    table_from_text,
)
from .isotype import (
    ConservationVerdict,
    EulerOnly,
    IcisDatum,
    SingleDim,
    check_conservation,
    evaluate_class_function,
    mu_tau,
    solve_character_system,
    tau_betti_single_dim,
    tau_characteristic,
)
from .multipoint import (
    GermAnalysis,
    GermSpec,
    InfeasibleDimensionsError,
    analyze_germ,
    expected_dim,
    expected_dim_sigma,
    fixed_locus_equations,
    generate_sc_germ,
    germ,
    germ_from_text,
    kappa,
    multiple_point_equations,
    prop_disg_check,
    sc_dimension_feasible,
    sc_feasibility_report,
)
from .invariants import (
    IcssTable,
    InvariantReport,
    build_report,
    check_mu_conservation,
    icss_layout,
    icss_table,
    mu_alt_dk,
    mu_image,
    mu_k_tau,
    no_unexpected_deformations,
    nu_image,
)

__version__ = "0.1.0"
