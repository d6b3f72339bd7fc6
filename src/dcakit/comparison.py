"""Two-model superiority at a threshold, decided by one exact sign.

The direct net-benefit comparison, model 1's PPV against the reference
built from model 2's net benefit, and the above- and below-group
calibration margins are algebraically equivalent: for two models of one
cohort they are one integer once scaled by n times the threshold's
denominator. metrics.net_benefit_order computes that sign exactly; the
report carries the PPV reference and the margins as the paper reads
them. The comparisons with treat-none and treat-all go through the same
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .curves import ThresholdGrid
from .errors import UndefinedAtThresholdError, UsageError
from .metrics import (
    PredictionSet,
    ThresholdConfusion,
    check_threshold,
    classify_at_threshold,  # noqa: F401  bench/workloads.py traces it by name
    column_rows,
    divide_where,
    first_failure,
    group_masks,
    net_benefit_counts,
    net_benefit_order,
    ppv_counts,
    sweep_counts,
)

__all__ = [
    "ComparisonVerdict",
    "compare_columns",
    "compare_curve",
    "compare_models",
    "default_losses",
    "loss_runs",
    "ppv_superiority_reference",
    "superiority_columns",
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
    when model 1 classifies nobody positive, so the verdict has no PPV
    reading there. From ``superiority_columns`` every field is a column,
    one entry per threshold, with NaN where a field's group is empty.
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


def superiority_columns(c1: ThresholdConfusion, c2: ThresholdConfusion) -> ComparisonVerdict:
    """Which of two models wins at every threshold of their counts, as a
    ComparisonVerdict of columns, NaN in a field whose group is empty:
    net_benefit_order decides each threshold, and the float fields are
    computed a column at a time.

    The counts must come from the same cohort at the same thresholds.
    """
    t, tp1, fp1, tn1, fn1 = (np.atleast_1d(v) for v in (c1.t, c1.tp, c1.fp, c1.tn, c1.fn))
    t2, tp2, fp2, tn2, fn2 = (np.atleast_1d(v) for v in (c2.t, c2.tp, c2.fp, c2.tn, c2.fn))
    if c1.n != c2.n or not (np.array_equal(t, t2) and np.array_equal(tp1 + fn1, tp2 + fn2)):
        raise UsageError("confusions must share the threshold and the cohort")
    n = c1.n
    direct = net_benefit_order(t, (tp1, fp1), (tp2, fp2))
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


def default_losses(c: ThresholdConfusion) -> tuple[np.ndarray, np.ndarray]:
    """Per threshold of ``c``, whether the model loses to treat-none and
    whether it loses to treat-all: superiority_columns against each
    default's counts, so a tie is decided as compare decides it. Treat-none
    has (tp, fp, tn, fn) = (0, 0, n0, n1), and treat-all (n1, n0, 0, 0)."""
    t, n1 = np.atleast_1d(c.t), np.atleast_1d(c.tp + c.fn)
    n0, zero = c.n - n1, np.zeros_like(n1)
    treat_none = ThresholdConfusion(t, zero, zero, n0, n1, c.n)
    treat_all = ThresholdConfusion(t, n1, n0, zero, zero, c.n)
    return tuple(superiority_columns(c, d).winner == WINNER_MODEL2 for d in (treat_none, treat_all))


def loss_runs(t, loses) -> list[list[float]]:
    """The thresholds of ``t`` where ``loses`` (one of default_losses'
    columns) holds, one list per run of consecutive grid points, in grid
    order: the runs need not be adjacent."""
    pairs = zip(np.asarray(t).tolist(), np.asarray(loses).tolist())
    return [[x for x, _ in run] for lost, run in groupby(pairs, key=itemgetter(1)) if lost]


def compare_models(d1: PredictionSet, d2: PredictionSet, t: float) -> ComparisonVerdict:
    """Compare two models scoring the same cohort at threshold ``t``.

    Requires identical outcome vectors (same subjects, same order). Each
    model's counts are checked as sweep_counts checks them, and a failure
    raises RouteDisagreementError; net_benefit_order decides the winner.
    """
    t = check_threshold(t)
    _check_same_cohort(d1, d2)
    c1, c2 = sweep_counts(d1, [t]), sweep_counts(d2, [t])
    return column_rows(ComparisonVerdict, superiority_columns(c1, c2))[0]


def compare_columns(d1: PredictionSet, d2: PredictionSet,
                    grid: ThresholdGrid) -> ComparisonVerdict:
    """compare_models at every grid threshold, as columns. The outcome
    vectors are checked once, and sweep_counts counts and checks each
    model at every threshold; superiority_columns decides each exactly."""
    _check_same_cohort(d1, d2)
    return superiority_columns(sweep_counts(d1, grid.points), sweep_counts(d2, grid.points))


def compare_curve(d1: PredictionSet, d2: PredictionSet,
                  grid: ThresholdGrid) -> list[ComparisonVerdict]:
    """compare_models at every grid threshold, in grid order: compare_columns'
    rows, with the fields of an empty group None."""
    return column_rows(ComparisonVerdict, compare_columns(d1, d2, grid))
