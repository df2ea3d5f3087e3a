"""Multi-region capacity-expansion scenarios with factor attribution."""

from .factorize import (
    FactorDecomposition,
    MetricTable,
    difference_of_interest,
    extract_storage_metrics,
    shared_interactions_totals,
)
from .harmonize import (
    FactorState,
    ReferenceShares,
    apply_factor_state,
    derive_reference_shares,
    enumerate_subset_states,
    isolate_country,
)
from .lp import CsrMatrix, LinearProgram, assemble
from .model import (
    Country,
    ExogenousCapacity,
    GridFactorError,
    Interconnector,
    PowerSystemSpec,
    Technology,
    TimeSeriesSet,
    annuity,
    validate,
)
from .mps import write_mps
from .residual import (
    ResidualEvent,
    ResidualSeries,
    peak_coincidence,
    peak_hour_cross_section,
    peak_residual_hour,
    positive_events,
    residual_series,
)
from .serialize import read_system, write_system
from .solve import SolveOptions, SolveResult, verify_certificate
from .sweep import RunManifest, VERSION, compare_interconnection, resume, run_sweep
from .synth import synthesize_system

__version__ = VERSION

__all__ = [
    "Country",
    "CsrMatrix",
    "ExogenousCapacity",
    "FactorDecomposition",
    "FactorState",
    "GridFactorError",
    "Interconnector",
    "LinearProgram",
    "MetricTable",
    "PowerSystemSpec",
    "ReferenceShares",
    "ResidualEvent",
    "ResidualSeries",
    "RunManifest",
    "SolveOptions",
    "SolveResult",
    "Technology",
    "TimeSeriesSet",
    "annuity",
    "apply_factor_state",
    "assemble",
    "compare_interconnection",
    "derive_reference_shares",
    "difference_of_interest",
    "enumerate_subset_states",
    "extract_storage_metrics",
    "isolate_country",
    "peak_coincidence",
    "peak_hour_cross_section",
    "peak_residual_hour",
    "positive_events",
    "read_system",
    "residual_series",
    "resume",
    "run_sweep",
    "shared_interactions_totals",
    "synthesize_system",
    "validate",
    "verify_certificate",
    "write_mps",
    "write_system",
]
