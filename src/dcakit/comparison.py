"""Two-model superiority at a threshold, decided through three routes.

The direct net-benefit comparison, the PPV-versus-reference comparison
and the calibration-margin comparison are algebraically equivalent;
all three are evaluated in exact integer arithmetic and cross-checked
on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ThresholdGrid
from .errors import RouteDisagreementError, UndefinedAtThresholdError, UsageError
from .metrics import (
    PredictionSet,
    ThresholdConfusion,
    check_threshold,
    classify_at_threshold,
    net_benefit,
    ppv,
    reproducer,
    sweep_counts,
)

__all__ = [
    "ComparisonVerdict",
    "compare_curve",
    "compare_models",
    "decide_superiority",
    "ppv_superiority_reference",
]

WINNER_MODEL1 = "model1"
WINNER_MODEL2 = "model2"
WINNER_TIE = "tie"

# Count-derived net benefits closer than this are reported as a tie.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ComparisonVerdict:
    """Pairwise verdict at one threshold.

    Margin fields are None when the corresponding group is empty;
    ``ppv_superiority_ref`` is None (and ``ppv_route_available`` False)
    when model 1 classifies nobody positive, in which case the verdict
    rests on the direct net-benefit route alone.
    """

    t: float
    nb1: float
    nb2: float
    winner: str
    ppv1: float
    ppv_superiority_ref: float | None
    ppv_route_available: bool
    margin_above_1: float | None
    margin_above_2: float | None
    margin_below_1: float | None
    margin_below_2: float | None


def ppv_superiority_reference(nb2: float, positives1: int, n: int, t: float) -> float:
    """PPV level model 1 must exceed at ``t`` to beat a rival with net benefit ``nb2``."""
    t = check_threshold(t)
    if positives1 <= 0:
        raise UndefinedAtThresholdError(
            "PPV superiority reference undefined when model 1 has no positives"
        )
    return t + (1.0 - t) * n * nb2 / positives1


def _margin_above(c: ThresholdConfusion) -> float | None:
    positives = c.tp + c.fp
    if positives == 0:
        return None
    return c.s_t * (c.tp / positives - c.t)


def _margin_below(c: ThresholdConfusion) -> float | None:
    negatives = c.tn + c.fn
    if negatives == 0:
        return None
    return (1.0 - c.s_t) * (c.t - c.fn / negatives)


def _check_same_cohort(d1: PredictionSet, d2: PredictionSet) -> None:
    if d1.n != d2.n:
        raise UsageError(f"cohort sizes differ: {d1.n} vs {d2.n}")
    if not np.array_equal(d1.outcomes, d2.outcomes):
        raise UsageError("models must score the same cohort: outcome vectors differ")


def decide_superiority(c1: ThresholdConfusion, c2: ThresholdConfusion) -> ComparisonVerdict:
    """Decide which of two models wins at a shared threshold from their counts.

    The counts must come from the same cohort at the same threshold.
    Every route that is defined must agree on the strict ordering;
    disagreement raises RouteDisagreementError.
    """
    if (c1.t, c1.n, c1.n1) != (c2.t, c2.n, c2.n1):
        raise UsageError("confusions must share the threshold and the cohort")
    t = c1.t
    nb1 = net_benefit(c1)
    nb2 = net_benefit(c2)
    num, den = t.as_integer_ratio()
    pos1, pos2 = c1.tp + c1.fp, c2.tp + c2.fp
    neg1, neg2 = c1.tn + c1.fn, c2.tn + c2.fn

    def sign(a: int, b: int) -> int:
        return (a > b) - (a < b)

    # Route 1: direct net benefit, scaled to integers.
    direct = sign(c1.tp * (den - num) - c1.fp * num, c2.tp * (den - num) - c2.fp * num)
    routes = [("net benefit", direct)]

    # Route 2: model 1's PPV against the reference built from nb2.
    if pos1 > 0:
        routes.append(
            ("ppv reference", sign(c1.tp * den - pos1 * num,
                                   c2.tp * (den - num) - c2.fp * num))
        )

    # Route 3: above- and below-threshold calibration margins.
    if pos1 > 0 and pos2 > 0:
        routes.append(
            ("above margin", sign(c1.tp * den - pos1 * num, c2.tp * den - pos2 * num))
        )
    if neg1 > 0 and neg2 > 0:
        routes.append(
            ("below margin", sign(num * neg1 - c1.fn * den, num * neg2 - c2.fn * den))
        )

    if len({s for _, s in routes}) > 1:
        detail = ", ".join(f"{name}: {s:+d}" for name, s in routes)
        raise RouteDisagreementError(
            f"superiority routes disagree at t={t!r} ({detail}; {reproducer(c1, c2)})"
        )

    if abs(nb1 - nb2) <= TIE_TOLERANCE or direct == 0:
        winner = WINNER_TIE
    else:
        winner = WINNER_MODEL1 if direct > 0 else WINNER_MODEL2

    return ComparisonVerdict(
        t=t,
        nb1=nb1,
        nb2=nb2,
        winner=winner,
        ppv1=ppv(c1),
        ppv_superiority_ref=(
            ppv_superiority_reference(nb2, pos1, c1.n, t) if pos1 > 0 else None
        ),
        ppv_route_available=pos1 > 0,
        margin_above_1=_margin_above(c1),
        margin_above_2=_margin_above(c2),
        margin_below_1=_margin_below(c1),
        margin_below_2=_margin_below(c2),
    )


def compare_models(d1: PredictionSet, d2: PredictionSet, t: float) -> ComparisonVerdict:
    """Compare two models scoring the same cohort at threshold ``t``.

    Requires identical outcome vectors (same subjects, same order).
    """
    t = check_threshold(t)
    _check_same_cohort(d1, d2)
    return decide_superiority(classify_at_threshold(d1, t), classify_at_threshold(d2, t))


def compare_curve(d1: PredictionSet, d2: PredictionSet,
                  grid: ThresholdGrid) -> list[ComparisonVerdict]:
    """compare_models at every grid threshold, in grid order.

    The outcome vectors are checked once and each model is counted in one
    pass (sweep_counts); every threshold still runs all routes.
    """
    _check_same_cohort(d1, d2)
    sweep1, sweep2 = sweep_counts(d1, grid.points), sweep_counts(d2, grid.points)
    return [decide_superiority(c1, c2)
            for c1, c2 in zip(sweep1.confusions(), sweep2.confusions())]
