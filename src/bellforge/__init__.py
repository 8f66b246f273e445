"""Werner-state source operators and Bell-functional optimization toolkit."""

from __future__ import annotations

__version__ = "0.1.0"

from .linalg import (
    TensorOperator,
    eigenvalues,
    frobenius_distance,
    identity,
    kron,
    load_operator,
    operator_from_text,
    operator_norm,
    operator_to_text,
    partial_trace,
    reorder_factors,
    save_operator,
    trace,
)
from .states import (
    ALL_PERMUTATIONS_3,
    DensityOperator,
    Permutation3,
    antisym_projector,
    antisymmetrizer3,
    density_deficits,
    dso_general,
    dso_two_qubit,
    flip,
    permutation_operator,
    singlet,
    werner,
)
from .extensions import (
    FeasibilityResult,
    InfeasibilityCertificate,
    MarginalPattern,
    dykstra_find_extension,
    pattern_right2,
    pattern_sym3,
    verify_marginals,
)
from .bell import (
    Observable,
    OptimizationResult,
    SeeSawConfig,
    chsh_value,
    correlation,
    horodecki_chsh_oracle,
    original_bell_gap,
    seesaw_chsh,
    seesaw_original_bell,
)

__all__ = [
    "__version__",
    # linalg
    "TensorOperator",
    "identity",
    "kron",
    "trace",
    "frobenius_distance",
    "partial_trace",
    "reorder_factors",
    "eigenvalues",
    "operator_norm",
    "operator_to_text",
    "operator_from_text",
    "save_operator",
    "load_operator",
    # states
    "DensityOperator",
    "Permutation3",
    "ALL_PERMUTATIONS_3",
    "density_deficits",
    "flip",
    "antisym_projector",
    "permutation_operator",
    "antisymmetrizer3",
    "werner",
    "singlet",
    "dso_two_qubit",
    "dso_general",
    # extensions
    "MarginalPattern",
    "InfeasibilityCertificate",
    "FeasibilityResult",
    "verify_marginals",
    "pattern_sym3",
    "pattern_right2",
    "dykstra_find_extension",
    # bell
    "Observable",
    "SeeSawConfig",
    "OptimizationResult",
    "correlation",
    "original_bell_gap",
    "chsh_value",
    "seesaw_original_bell",
    "seesaw_chsh",
    "horodecki_chsh_oracle",
]
