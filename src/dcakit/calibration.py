"""Threshold-specific calibration diagnostics and net-benefit decompositions.

Splitting a cohort at the decision threshold yields observed event rates
and mean predictions above and below the cut. Net benefit factors
exactly through these quantities, which is what makes the diagnostics
actionable: a model loses to treat-none when the selected group's event
rate falls below t, and loses to treat-all when the spared group's event
rate reaches t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UndefinedAtThresholdError
from .metrics import PredictionSet, ThresholdConfusion, ppv, sweep_counts

__all__ = [
    "CalibrationSummary",
    "calibration_from_counts",
    "threshold_calibration",
    "nb_via_calibration",
    "nb_gap_treat_all",
    "nb_decomposition",
    "prevalence_identity_residual",
]


@dataclass(frozen=True)
class CalibrationSummary:
    """Group diagnostics at one threshold.

    Fields tied to an empty group are None (absent), never NaN: the
    above-group fields when s_t == 0 and the below-group fields when
    s_t == 1. ``delta_t`` is the selected-set calibration error
    y_above - p_above; ``enrichment`` and ``calibration_term`` are the
    two addends whose sum is net benefit.
    """

    t: float
    s_t: float
    y_above: float | None
    y_below: float | None
    p_above: float | None
    p_below: float | None
    delta_t: float | None
    enrichment: float | None
    calibration_term: float | None


def calibration_from_counts(
    c: ThresholdConfusion, risk_sum_above: float, risk_sum_below: float
) -> CalibrationSummary:
    """Group diagnostics from the counts at ``c.t`` and the risk sums of the
    records classified positive (above) and negative (below)."""
    t = c.t
    n_above = c.tp + c.fp
    n_below = c.n - n_above
    s_t = c.s_t

    y_above = p_above = delta_t = enrichment = calibration_term = None
    if n_above > 0:
        y_above = ppv(c)
        p_above = risk_sum_above / n_above
        delta_t = y_above - p_above
        multiplier = s_t / (1.0 - t)
        enrichment = multiplier * (p_above - t)
        calibration_term = multiplier * delta_t

    y_below = p_below = None
    if n_below > 0:
        y_below = c.fn / n_below
        p_below = risk_sum_below / n_below

    return CalibrationSummary(
        t=t,
        s_t=s_t,
        y_above=y_above,
        y_below=y_below,
        p_above=p_above,
        p_below=p_below,
        delta_t=delta_t,
        enrichment=enrichment,
        calibration_term=calibration_term,
    )


def threshold_calibration(data: PredictionSet, t: float) -> CalibrationSummary:
    """Observed event rates and mean predictions above and below ``t``."""
    sweep = sweep_counts(data, [t])
    return calibration_from_counts(sweep.confusions()[0], float(sweep.risk_sum_above[0]),
                                   float(sweep.risk_sum_below[0]))


def nb_via_calibration(s: CalibrationSummary) -> float:
    """Net benefit written as s_t/(1-t) times the calibration surplus y_above - t."""
    if s.y_above is None:
        raise UndefinedAtThresholdError(
            f"no subjects at or above t={s.t!r}; net benefit surplus undefined"
        )
    return s.s_t / (1.0 - s.t) * (s.y_above - s.t)


def nb_gap_treat_all(s: CalibrationSummary) -> float:
    """Net-benefit margin over treat-all: (1-s_t)/(1-t) times (t - y_below)."""
    if s.y_below is None:
        raise UndefinedAtThresholdError(
            f"no subjects below t={s.t!r}; treat-all margin undefined"
        )
    return (1.0 - s.s_t) / (1.0 - s.t) * (s.t - s.y_below)


def nb_decomposition(s: CalibrationSummary) -> tuple[float, float]:
    """Split net benefit into its enrichment and calibration addends."""
    if s.enrichment is None or s.calibration_term is None:
        raise UndefinedAtThresholdError(
            f"no subjects at or above t={s.t!r}; decomposition undefined"
        )
    return s.enrichment, s.calibration_term


def prevalence_identity_residual(s: CalibrationSummary, prevalence: float) -> float:
    """Residual of prevalence = s_t*y_above + (1-s_t)*y_below.

    Zero (to rounding) for every count-derived summary; a non-zero
    residual flags a summary that was edited after the fact.
    """
    if s.y_above is None or s.y_below is None:
        raise UndefinedAtThresholdError(
            f"prevalence identity needs both groups non-empty at t={s.t!r}"
        )
    return prevalence - (s.s_t * s.y_above + (1.0 - s.s_t) * s.y_below)
