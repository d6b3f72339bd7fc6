"""Decision-curve analytics for binary risk prediction models.

Net benefit, PPV curves, threshold-calibration diagnostics, feasible
PPV bounds, pairwise model comparison, and percentile bootstrap bands,
with the algebraic identities that connect them verified at runtime.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationSummary,
    nb_decomposition,
    nb_gap_treat_all,
    nb_via_calibration,
    prevalence_identity_residual,
    threshold_calibration,
)
from .comparison import (
    ComparisonVerdict,
    compare_curve,
    compare_models,
    ppv_superiority_reference,
)
from .curves import (
    DEFAULT_GRID,
    CurvePoint,
    SyntheticSpec,
    ThresholdGrid,
    decision_curve,
    generate_synthetic,
)
from .equivalences import (
    DefaultsVerdict,
    PpvInterval,
    ppv_bounds_given_nb,
    ppv_from_nb,
    treat_all_reference_ppv,
    treat_none_reference,
    verdict_vs_defaults,
)
from .errors import (
    DataError,
    InfeasibleNetBenefitError,
    IngestionError,
    RouteDisagreementError,
    ThresholdError,
    UndefinedAtThresholdError,
    UsageError,
)
from .metrics import (
    PredictionSet,
    SweepCounts,
    ThresholdConfusion,
    classify_at_threshold,
    net_benefit,
    net_benefit_treat_all,
    net_benefit_treat_none,
    ppv,
    sweep_counts,
)
from .reader import IngestionSpec, file_digest, ingest
from .report import ComparisonSection, ModelCurve, ReportDocument, emit_report, parse_report
from .resampling import BandSpec, CurveBand, bootstrap_bands
from .svg import render_svg

__all__ = [
    "__version__",
    "BandSpec",
    "CalibrationSummary",
    "ComparisonSection",
    "ComparisonVerdict",
    "CurveBand",
    "CurvePoint",
    "DataError",
    "DEFAULT_GRID",
    "DefaultsVerdict",
    "InfeasibleNetBenefitError",
    "IngestionError",
    "IngestionSpec",
    "ModelCurve",
    "PpvInterval",
    "PredictionSet",
    "ReportDocument",
    "RouteDisagreementError",
    "SweepCounts",
    "SyntheticSpec",
    "ThresholdConfusion",
    "ThresholdError",
    "ThresholdGrid",
    "UndefinedAtThresholdError",
    "UsageError",
    "bootstrap_bands",
    "classify_at_threshold",
    "compare_curve",
    "compare_models",
    "decision_curve",
    "emit_report",
    "file_digest",
    "generate_synthetic",
    "ingest",
    "nb_decomposition",
    "nb_gap_treat_all",
    "nb_via_calibration",
    "net_benefit",
    "net_benefit_treat_all",
    "net_benefit_treat_none",
    "parse_report",
    "ppv",
    "ppv_bounds_given_nb",
    "ppv_from_nb",
    "ppv_superiority_reference",
    "prevalence_identity_residual",
    "render_svg",
    "sweep_counts",
    "threshold_calibration",
    "treat_all_reference_ppv",
    "treat_none_reference",
    "verdict_vs_defaults",
]
