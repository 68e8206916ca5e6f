"""Min-max fair PCA on the Stiefel manifold.

Finds an orthonormal basis maximizing the smallest per-group retained
variance by alternating Riemannian gradient descent in the basis with
projected gradient ascent in the group weights, plus a Riemannian
subgradient baseline, dataset tooling, and diagnostics.
"""

from .arpgda import (
    ARPGDAParams,
    REPORT_SCHEMA,
    SolveResult,
    recommended_params,
    solve_arpgda,
    stationarity_measure,
)
from .baselines import RSGParams, compare_cell, iterations_to_reach, solve_rsg
from .data import (
    dataset_csv_text,
    describe,
    gen_synthetic_blocks,
    gen_synthetic_gaussian,
    load_csv_grouped,
    preprocess,
)
from .exceptions import (
    DataError,
    DegenerateProblemError,
    DiagnosticUnavailableError,
    DimensionError,
    NumericalError,
)
from .problem import (
    GroupedDataset,
    SmoothnessConstants,
    dist_to_subgradient,
    evaluate,
    smoothness_constants,
)
from .simplex import (
    uniform_weights,
    validate_weights,
)
from .stiefel import (
    load_point,
    point_csv_text,
    random_stiefel,
    validate_stiefel,
)

__version__ = "0.1.0"

__all__ = [
    "ARPGDAParams",
    "DataError",
    "DegenerateProblemError",
    "DiagnosticUnavailableError",
    "DimensionError",
    "GroupedDataset",
    "NumericalError",
    "REPORT_SCHEMA",
    "RSGParams",
    "SmoothnessConstants",
    "SolveResult",
    "compare_cell",
    "dataset_csv_text",
    "describe",
    "dist_to_subgradient",
    "evaluate",
    "gen_synthetic_blocks",
    "gen_synthetic_gaussian",
    "iterations_to_reach",
    "load_csv_grouped",
    "load_point",
    "point_csv_text",
    "preprocess",
    "random_stiefel",
    "recommended_params",
    "smoothness_constants",
    "solve_arpgda",
    "solve_rsg",
    "stationarity_measure",
    "uniform_weights",
    "validate_stiefel",
    "validate_weights",
]
