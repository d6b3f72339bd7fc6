"""Two-model superiority at a threshold, decided through three routes.

The direct net-benefit comparison, the PPV-versus-reference comparison
and the calibration-margin comparison are algebraically equivalent;
all three are evaluated in exact integer arithmetic and cross-checked
on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import ThresholdGrid
from .errors import UndefinedAtThresholdError, UsageError
from .metrics import (
    PredictionSet,
    ThresholdConfusion,
    check_routes,
    check_threshold,
    classify_at_threshold,
    column_rows,
    divide_where,
    first_failure,
    group_masks,
    net_benefit_counts,
    ppv_counts,
    sweep_counts,
)

__all__ = [
    "ComparisonVerdict",
    "compare_curve",
    "compare_models",
    "ppv_superiority_reference",
    "superiority_columns",
    "superiority_route",
]

WINNER_MODEL1 = "model1"
WINNER_MODEL2 = "model2"
WINNER_TIE = "tie"

# Count-derived net benefits closer than this are reported as a tie.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ComparisonVerdict:
    """Pairwise verdict at one threshold.

    A field tied to a group names it in its metadata, the above or below
    group of model 1 or 2, and is None when that group is empty;
    ``ppv_superiority_ref`` is None (and ``ppv_route_available`` False)
    when model 1 classifies nobody positive, in which case the verdict
    rests on the direct net-benefit route alone. From
    ``superiority_columns`` every field is a column, one entry per
    threshold, with NaN where a field's group is empty.
    """

    t: float
    nb1: float
    nb2: float
    winner: str
    ppv1: float
    ppv_superiority_ref: float | None = field(metadata={"group": "above1"})
    ppv_route_available: bool
    margin_above_1: float | None = field(metadata={"group": "above1"})
    margin_above_2: float | None = field(metadata={"group": "above2"})
    margin_below_1: float | None = field(metadata={"group": "below1"})
    margin_below_2: float | None = field(metadata={"group": "below2"})


def ppv_superiority_reference(nb2, positives1, n: int, t):
    """PPV level model 1 must exceed at ``t`` to beat a rival with net benefit
    ``nb2``. Elementwise on arrays."""
    t = check_threshold(t)
    if first_failure(positives1, positives1 > 0) is not None:
        raise UndefinedAtThresholdError(
            "PPV superiority reference undefined when model 1 has no positives"
        )
    return t + (1.0 - t) * n * nb2 / positives1


def _check_same_cohort(d1: PredictionSet, d2: PredictionSet) -> None:
    if d1.n != d2.n:
        raise UsageError(f"cohort sizes differ: {d1.n} vs {d2.n}")
    if not np.array_equal(d1.outcomes, d2.outcomes):
        raise UsageError("models must score the same cohort: outcome vectors differ")


def superiority_route(t: float, cells1: tuple[int, int, int, int],
                      cells2: tuple[int, int, int, int]) -> int:
    """The sign of nb1 - nb2 at one threshold from each model's (tp, fp, tn, fn),
    through every defined route, in exact integers.

    Every route that is defined must agree on the strict ordering;
    disagreement raises RouteDisagreementError.
    """
    tp1, fp1, tn1, fn1 = cells1
    tp2, fp2, tn2, fn2 = cells2
    num, den = t.as_integer_ratio()
    pos1, pos2 = tp1 + fp1, tp2 + fp2
    neg1, neg2 = tn1 + fn1, tn2 + fn2

    def sign(a: int, b: int) -> int:
        return (a > b) - (a < b)

    # Route 1: direct net benefit, scaled to integers.
    direct = sign(tp1 * (den - num) - fp1 * num, tp2 * (den - num) - fp2 * num)
    routes = [("net benefit", direct)]

    # Route 2: model 1's PPV against the reference built from nb2.
    if pos1 > 0:
        routes.append(
            ("ppv reference", sign(tp1 * den - pos1 * num, tp2 * (den - num) - fp2 * num))
        )

    # Route 3: above- and below-threshold calibration margins.
    if pos1 > 0 and pos2 > 0:
        routes.append(("above margin", sign(tp1 * den - pos1 * num, tp2 * den - pos2 * num)))
    if neg1 > 0 and neg2 > 0:
        routes.append(("below margin", sign(num * neg1 - fn1 * den, num * neg2 - fn2 * den)))

    check_routes("superiority", routes, t, cells1, cells2)
    return direct


def superiority_columns(c1: ThresholdConfusion, c2: ThresholdConfusion) -> ComparisonVerdict:
    """Which of two models wins at every threshold of their counts, as a
    ComparisonVerdict of columns: superiority_route decides each threshold,
    and the float fields are computed a column at a time.

    The counts must come from the same cohort at the same thresholds.
    """
    t, tp1, fp1, tn1, fn1 = (np.atleast_1d(v) for v in (c1.t, c1.tp, c1.fp, c1.tn, c1.fn))
    t2, tp2, fp2, tn2, fn2 = (np.atleast_1d(v) for v in (c2.t, c2.tp, c2.fp, c2.tn, c2.fn))
    if c1.n != c2.n or not (np.array_equal(t, t2) and np.array_equal(tp1 + fn1, tp2 + fn2)):
        raise UsageError("confusions must share the threshold and the cohort")
    n = c1.n
    direct = np.array([
        superiority_route(*cells) for cells in zip(
            t.tolist(),
            zip(tp1.tolist(), fp1.tolist(), tn1.tolist(), fn1.tolist()),
            zip(tp2.tolist(), fp2.tolist(), tn2.tolist(), fn2.tolist()))
    ], dtype=np.int64)
    nb1 = net_benefit_counts(tp1, fp1, n, t)
    nb2 = net_benefit_counts(tp2, fp2, n, t)
    tie = (np.abs(nb1 - nb2) <= TIE_TOLERANCE) | (direct == 0)
    winner = np.where(tie, WINNER_TIE, np.where(direct > 0, WINNER_MODEL1, WINNER_MODEL2))

    (above1, below1), (above2, below2) = group_masks(c1), group_masks(c2)
    pos1, pos2 = tp1 + fp1, tp2 + fp2
    s_t1, s_t2 = pos1 / n, pos2 / n
    ppv_superiority_ref = np.full(t.shape, np.nan)
    ppv_superiority_ref[above1] = ppv_superiority_reference(nb2[above1], pos1[above1], n,
                                                            t[above1])
    # Each margin is NaN where its group is empty: the PPV or the below-group
    # rate it scales is NaN there.
    return ComparisonVerdict(
        t=t,
        nb1=nb1,
        nb2=nb2,
        winner=winner,
        ppv1=ppv_counts(tp1, pos1),
        ppv_superiority_ref=ppv_superiority_ref,
        ppv_route_available=above1,
        margin_above_1=s_t1 * (ppv_counts(tp1, pos1, empty=np.nan) - t),
        margin_above_2=s_t2 * (ppv_counts(tp2, pos2, empty=np.nan) - t),
        margin_below_1=(1.0 - s_t1) * (t - divide_where(fn1, tn1 + fn1, below1)),
        margin_below_2=(1.0 - s_t2) * (t - divide_where(fn2, tn2 + fn2, below2)),
    )


def superiority_rows(c1: ThresholdConfusion, c2: ThresholdConfusion,
                     columns: ComparisonVerdict) -> list[ComparisonVerdict]:
    """One ComparisonVerdict per threshold from superiority_columns, with
    the fields of an empty group None."""
    (above1, below1), (above2, below2) = group_masks(c1), group_masks(c2)
    return column_rows(ComparisonVerdict, columns, above1=above1, below1=below1,
                       above2=above2, below2=below2)


def compare_models(d1: PredictionSet, d2: PredictionSet, t: float) -> ComparisonVerdict:
    """Compare two models scoring the same cohort at threshold ``t``.

    Requires identical outcome vectors (same subjects, same order). Every
    route that is defined must agree on the strict ordering; disagreement
    raises RouteDisagreementError.
    """
    t = check_threshold(t)
    _check_same_cohort(d1, d2)
    c1, c2 = classify_at_threshold(d1, t), classify_at_threshold(d2, t)
    return superiority_rows(c1, c2, superiority_columns(c1, c2))[0]


def compare_curve(d1: PredictionSet, d2: PredictionSet,
                  grid: ThresholdGrid) -> list[ComparisonVerdict]:
    """compare_models at every grid threshold, in grid order.

    The outcome vectors are checked once, each model is counted in one
    pass (sweep_counts), and superiority_columns runs every route at every
    threshold.
    """
    _check_same_cohort(d1, d2)
    c1 = sweep_counts(d1, grid.points).confusion()
    c2 = sweep_counts(d2, grid.points).confusion()
    return superiority_rows(c1, c2, superiority_columns(c1, c2))
