"""Threshold-specific calibration diagnostics and net-benefit decompositions.

Splitting a cohort at the decision threshold yields observed event rates
and mean predictions above and below the cut. Net benefit factors
exactly through these quantities, which is what makes the diagnostics
actionable: a model loses to treat-none when the selected group's event
rate falls below t, and loses to treat-all when the spared group's event
rate reaches t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedAtThresholdError
from .metrics import (ABOVE, BELOW, PredictionSet, ThresholdConfusion, column_rows, divide_where,
                      group_masks, ppv_counts, sweep_counts)

__all__ = [
    "CalibrationSummary",
    "calibration_columns",
    "threshold_calibration",
    "nb_via_calibration",
    "nb_gap_treat_all",
    "nb_decomposition",
    "prevalence_identity_residual",
]


@dataclass(frozen=True)
class CalibrationSummary:
    """Group diagnostics at one threshold.

    Each field tied to a group names it in its metadata (ABOVE or BELOW)
    and is None (absent), never NaN, where that group is empty: the
    above-group fields when s_t == 0 and the below-group fields when
    s_t == 1. ``delta_t`` is the selected-set calibration error
    y_above - p_above; ``enrichment`` and ``calibration_term`` are the
    two addends whose sum is net benefit.

    From ``calibration_columns`` every field is a column instead, one
    entry per threshold, NaN where its group is empty; the identity
    functions below work on such columns restricted to the rows where
    their groups are non-empty.
    """

    t: float
    s_t: float
    y_above: float | None = field(metadata=ABOVE)
    y_below: float | None = field(metadata=BELOW)
    p_above: float | None = field(metadata=ABOVE)
    p_below: float | None = field(metadata=BELOW)
    delta_t: float | None = field(metadata=ABOVE)
    enrichment: float | None = field(metadata=ABOVE)
    calibration_term: float | None = field(metadata=ABOVE)


def calibration_columns(c: ThresholdConfusion, risk_sum_above,
                        risk_sum_below) -> CalibrationSummary:
    """Group diagnostics at every threshold of ``c`` from its counts and the
    risk sums of the records classified positive (above) and negative
    (below), as a CalibrationSummary of columns."""
    t, tp, fp, fn = (np.atleast_1d(v) for v in (c.t, c.tp, c.fp, c.fn))
    n_above = tp + fp
    n_below = c.n - n_above
    above, below = group_masks(c)
    s_t = n_above / c.n

    y_above = ppv_counts(tp, n_above, empty=np.nan)
    p_above = divide_where(np.atleast_1d(risk_sum_above), n_above, above)
    delta_t = y_above - p_above
    multiplier = s_t / (1.0 - t)
    return CalibrationSummary(
        t=t,
        s_t=s_t,
        y_above=y_above,
        y_below=divide_where(fn, n_below, below),
        p_above=p_above,
        p_below=divide_where(np.atleast_1d(risk_sum_below), n_below, below),
        delta_t=delta_t,
        enrichment=multiplier * (p_above - t),
        calibration_term=multiplier * delta_t,
    )


def threshold_calibration(data: PredictionSet, t: float) -> CalibrationSummary:
    """Observed event rates and mean predictions above and below ``t``."""
    sweep = sweep_counts(data, [t])
    c = sweep.confusion()
    above, below = group_masks(c)
    columns = calibration_columns(c, sweep.risk_sum_above, sweep.risk_sum_below)
    return column_rows(CalibrationSummary, columns, above=above, below=below)[0]


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
