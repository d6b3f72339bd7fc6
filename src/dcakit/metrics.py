"""Confusion counting and net-benefit style metrics.

Counts are the source of truth: every rate is a double computed from
exact integer counts. A ThresholdConfusion holds the counts at one
threshold, or columns of them, one entry per threshold of a sweep; the
rate functions here are elementwise, so one formula serves both. All
operations are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import DataError, RouteDisagreementError, ThresholdError

__all__ = [
    "ABOVE",
    "BELOW",
    "PredictionSet",
    "SweepCounts",
    "ThresholdConfusion",
    "check_threshold",
    "classify_at_threshold",
    "column_rows",
    "confusion_cells",
    "divide_where",
    "first_failure",
    "group_masks",
    "reproducer",
    "sweep_counts",
    "sweep_keys",
    "tally_keys",
    "net_benefit",
    "net_benefit_counts",
    "net_benefit_order",
    "net_benefit_treat_all",
    "net_benefit_treat_none",
    "ppv",
    "ppv_counts",
]


def first_failure(values, ok):
    """The first of ``values`` where ``ok`` is False, or None when it holds
    everywhere. ``values`` and ``ok`` are a scalar and a bool, or arrays of
    one shape, so a validation reads the same for one threshold and a sweep."""
    if isinstance(ok, np.ndarray):
        return None if ok.all() else np.ravel(values)[np.argmin(ok)].item()
    return None if ok else values


def check_threshold(t):
    """Validate a decision threshold, or an array of them; the weight t/(1-t)
    degenerates at 0 and 1."""
    t = np.asarray(t, dtype=np.float64) if isinstance(t, np.ndarray) and t.ndim else float(t)
    bad = first_failure(t, (t > 0.0) & (t < 1.0))
    if bad is not None:
        raise ThresholdError(f"threshold must lie strictly inside (0, 1), got {bad!r}")
    return t


def _is_binary(outcomes: np.ndarray) -> np.ndarray:
    """Where ``outcomes`` equals 0 or 1, as ``np.isin(outcomes, (0, 1))``
    decides, without its temporaries. Text equals no number; it is not
    compared, because numpy 1.24 answers ``text == 0`` with one scalar."""
    if outcomes.dtype.kind in "SU":
        return np.zeros(outcomes.shape, dtype=bool)
    return (outcomes == 0) | (outcomes == 1)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """A named, ordered set of paired (risk, outcome) records.

    Arrays are copied and frozen on construction; ``n1``, ``n0`` and
    ``prevalence`` are derived from the outcome counts.
    """

    risks: np.ndarray
    outcomes: np.ndarray
    name: str = "model"

    def __post_init__(self):
        risks = np.asarray(self.risks, dtype=np.float64).copy()
        outcomes = np.asarray(self.outcomes)
        if risks.ndim != 1 or outcomes.ndim != 1:
            raise DataError("risks and outcomes must be one-dimensional")
        if risks.shape != outcomes.shape:
            raise DataError(
                f"length mismatch: {risks.shape[0]} risks vs {outcomes.shape[0]} outcomes"
            )
        if risks.shape[0] < 1:
            raise DataError("a prediction set needs at least one record")
        bad = np.flatnonzero(~((risks >= 0.0) & (risks <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise DataError(f"risk out of [0, 1] at position {i}: {risks[i]!r}")
        binary = _is_binary(outcomes)
        if not binary.all():
            i = int(np.argmin(binary))
            raise DataError(f"outcome must be 0 or 1 at position {i}: {outcomes[i]!r}")
        outcomes = outcomes.astype(np.int64)  # the one copy
        risks.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "risks", risks)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def n(self) -> int:
        return int(self.risks.shape[0])

    @property
    def n1(self) -> int:
        return int(np.count_nonzero(self.outcomes))

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def prevalence(self) -> float:
        return self.n1 / self.n


@dataclass(frozen=True)
class ThresholdConfusion:
    """Confusion counts at one threshold; ties (risk == t) count as positive.

    From ``SweepCounts.confusion`` the fields t, tp, fp, tn and fn are
    columns instead, one entry per threshold, and the properties are
    columns too; ``n`` is shared.
    """

    t: float
    tp: int
    fp: int
    tn: int
    fn: int
    n: int

    def __post_init__(self):
        check_threshold(self.t)
        for field in ("tp", "fp", "tn", "fn"):
            count = getattr(self, field)
            if first_failure(count, count >= 0) is not None:
                raise DataError(f"{field} must be non-negative")
        total = self.tp + self.fp + self.tn + self.fn
        if first_failure(total, total == self.n) is not None:
            raise DataError("confusion counts must sum to n")

    @property
    def s_t(self) -> float:
        """Selection rate: fraction classified positive."""
        return (self.tp + self.fp) / self.n

    @property
    def n1(self) -> int:
        return self.tp + self.fn

    @property
    def n0(self) -> int:
        return self.fp + self.tn

    @property
    def prevalence(self) -> float:
        return self.n1 / self.n


def reproducer(t: float, *cells: tuple[int, int, int, int]) -> str:
    """Exact inputs of a threshold decision, for invariant-failure messages:
    t as an integer ratio, then the counts of each model from its
    (tp, fp, tn, fn) cells. The cells are not validated, so the message
    can show counts no classification produces."""
    num, den = float(t).as_integer_ratio()
    label = "model{} " if len(cells) > 1 else ""
    counts = ", ".join(
        f"{label.format(i)}tp={tp} fp={fp} n1={tp + fn} n0={fp + tn}"
        for i, (tp, fp, tn, fn) in enumerate(cells, 1)
    )
    return f"reproduce with t={num}/{den}, {counts}"


def confusion_cells(c: ThresholdConfusion) -> list[tuple[int, int, int, int]]:
    """(tp, fp, tn, fn) at each threshold of ``c``, as Python ints."""
    return list(zip(*(np.atleast_1d(v).tolist() for v in (c.tp, c.fp, c.tn, c.fn))))


def net_benefit_order(label: str, t: np.ndarray, cells1: list, cells2: list) -> np.ndarray:
    """The sign of nb1 - nb2 at every threshold of ``t``, from each side's
    (tp, fp, tn, fn) cells there, decided through every route in exact
    integers. Treat-none and treat-all are sides like any model: the one
    that selects nobody and the one that selects everybody.

    A float threshold is a dyadic rational num/den, so every comparison
    scaled by n*den is exact in Python ints (den up to 2**60 overflows
    int64). The routes, each checked where its groups are defined:

    * net benefit, always;
    * side 1's PPV against the level that matches nb2, where side 1
      selects anyone;
    * the above-group margins s_t*(ppv - t), where either side's above
      group is non-empty;
    * the below-group margins (1 - s_t)*(t - y_below), where either side's
      below group is non-empty.

    An empty group's scaled margin is exactly 0. At the first threshold
    where the routes disagree, RouteDisagreementError lists every route's
    sign and the reproducer of both sides; that would be an implementation
    bug, or counts that no classification produces.
    """
    order = []
    for tj, side1, side2 in zip(t.tolist(), cells1, cells2):
        (tp1, fp1, tn1, fn1), (tp2, fp2, tn2, fn2) = side1, side2
        num, den = tj.as_integer_ratio()
        pos1, pos2 = tp1 + fp1, tp2 + fp2
        neg1, neg2 = tn1 + fn1, tn2 + fn2
        # Each side's net benefit and margins, scaled by n*den.
        nb1, nb2 = tp1 * (den - num) - fp1 * num, tp2 * (den - num) - fp2 * num
        above1, above2 = tp1 * den - pos1 * num, tp2 * den - pos2 * num
        below1, below2 = num * neg1 - fn1 * den, num * neg2 - fn2 * den
        routes = [("net benefit", nb1 - nb2)]
        if pos1 > 0:
            # tp1 against pos1 times the PPV that matches nb2.
            routes.append(("ppv reference", above1 - nb2))
        if pos1 > 0 or pos2 > 0:
            routes.append(("above margin", above1 - above2))
        if neg1 > 0 or neg2 > 0:
            routes.append(("below margin", below1 - below2))
        signs = [(diff > 0) - (diff < 0) for _, diff in routes]
        if len(set(signs)) > 1:
            detail = ", ".join(f"{name}: {sign}" for (name, _), sign in zip(routes, signs))
            raise RouteDisagreementError(f"{label} routes disagree at t={tj!r} "
                                         f"({detail}; {reproducer(tj, side1, side2)})")
        order.append(signs[0])
    return np.array(order, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SweepCounts:
    """Counts at every threshold of a non-decreasing sequence, from one pass.

    ``tp`` and ``fp`` are int64 arrays; ``risk_sum_above[j]`` sums the risks
    classified positive at ``thresholds[j]`` and ``risk_sum_below[j]`` the
    rest.
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    risk_sum_above: np.ndarray
    risk_sum_below: np.ndarray
    n: int
    n1: int

    def confusion(self) -> ThresholdConfusion:
        """The counts at every threshold, as one ThresholdConfusion of columns."""
        n0 = self.n - self.n1
        return ThresholdConfusion(t=self.thresholds, tp=self.tp, fp=self.fp, tn=n0 - self.fp,
                                  fn=self.n1 - self.tp, n=self.n)


def _check_thresholds(thresholds) -> np.ndarray:
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim != 1:
        raise DataError("thresholds must be one-dimensional")
    check_threshold(thresholds)
    if np.any(thresholds[1:] < thresholds[:-1]):
        raise DataError("thresholds must be non-decreasing")
    return thresholds


def _keys(data: PredictionSet, thresholds: np.ndarray) -> np.ndarray:
    keys = np.searchsorted(thresholds, data.risks, side="right")
    keys *= 2
    keys += data.outcomes
    return keys


def sweep_keys(data: PredictionSet, thresholds) -> np.ndarray:
    """Per-record key ``cut*2 + outcome``, where ``cut`` counts the thresholds
    at or below the record's risk: the record is positive at threshold j
    exactly when j < cut, so ties (risk == t) count positive."""
    return _keys(data, _check_thresholds(thresholds))


def tally_keys(keys: np.ndarray, n_thresholds: int) -> tuple[np.ndarray, np.ndarray]:
    """tp and fp per threshold from the keys of sweep_keys, by one bincount."""
    by_cut = np.bincount(keys, minlength=2 * (n_thresholds + 1)).reshape(-1, 2)
    at_or_above = np.cumsum(by_cut[::-1], axis=0)[::-1]
    return at_or_above[1:, 1], at_or_above[1:, 0]


def sweep_counts(data: PredictionSet, thresholds) -> SweepCounts:
    """Counts and risk sums at every threshold in O(n log G + G).

    The counts are exact; the risk sums agree with a direct masked sum up
    to rounding.
    """
    thresholds = _check_thresholds(thresholds)
    keys = _keys(data, thresholds)
    tp, fp = tally_keys(keys, len(thresholds))
    risk_by_cut = np.bincount(
        keys, weights=data.risks, minlength=2 * (len(thresholds) + 1)
    ).reshape(-1, 2).sum(axis=1)
    # Suffix and prefix sums: neither is derived from the other by subtraction.
    above = np.cumsum(risk_by_cut[::-1])[::-1][1:]
    below = np.cumsum(risk_by_cut)[:-1]
    return SweepCounts(thresholds=thresholds, tp=tp, fp=fp, risk_sum_above=above,
                       risk_sum_below=below, n=data.n, n1=data.n1)


def classify_at_threshold(data: PredictionSet, t: float) -> ThresholdConfusion:
    """Split ``data`` at threshold ``t``; risk >= t classifies positive.
    A one-point sweep_counts, so the tie rule has one definition."""
    return column_rows(ThresholdConfusion, sweep_counts(data, [t]).confusion())[0]


def group_masks(c: ThresholdConfusion) -> tuple[np.ndarray, np.ndarray]:
    """Per threshold of ``c``, whether anyone is classified positive (the
    above group is non-empty) and whether anyone is not (the below group)."""
    positives = np.atleast_1d(c.tp + c.fp)
    return positives > 0, positives < c.n


def divide_where(num, den, where: np.ndarray, empty: float = np.nan) -> np.ndarray:
    """``num / den`` elementwise on the rows where ``where`` holds and
    ``empty`` on the rest, which are never divided."""
    return np.divide(num, den, out=np.full(where.shape, empty), where=where)


# Metadata of a group-tied field, one that is None where its group is empty:
# the records classified positive (above) or negative (below) at a threshold.
ABOVE = {"group": "above"}
BELOW = {"group": "below"}


def column_rows(cls, columns, **groups: np.ndarray) -> list:
    """One ``cls`` instance per row of ``columns``, an instance of the
    dataclass ``cls`` whose fields are arrays with one entry per threshold,
    or scalars every row shares. A group-tied field, one whose metadata
    names a group, is None on the rows where that group's mask in
    ``groups`` is False: the group is empty there."""
    values = []
    for f in fields(cls):
        column = getattr(columns, f.name)
        if not isinstance(column, np.ndarray):
            values.append(repeat(column))
        elif "group" in f.metadata:
            cells = column.astype(object)
            cells[~groups[f.metadata["group"]]] = None
            values.append(cells.tolist())
        else:
            values.append(column.tolist())
    return list(map(cls, *values))


def net_benefit_counts(tp, fp, n, t):
    """True-positive fraction minus false-positive fraction weighted by
    t/(1-t); elementwise on arrays of counts and thresholds."""
    return tp / n - (fp / n) * (t / (1.0 - t))


def net_benefit(c: ThresholdConfusion) -> float:
    """Net benefit at ``c``'s threshold, from its counts."""
    return net_benefit_counts(c.tp, c.fp, c.n, c.t)


def net_benefit_treat_all(prevalence, t):
    """Net benefit of intervening on everyone; equals (prevalence - t)/(1 - t).
    Elementwise on arrays of prevalences and thresholds."""
    t = check_threshold(t)
    bad = first_failure(prevalence, (prevalence >= 0.0) & (prevalence <= 1.0))
    if bad is not None:
        raise DataError(f"prevalence must lie in [0, 1], got {bad!r}")
    return prevalence - (1.0 - prevalence) * (t / (1.0 - t))


def net_benefit_treat_none() -> float:
    """Net benefit of intervening on no one: exactly zero at every threshold."""
    return 0.0


def ppv_counts(tp: np.ndarray, positives: np.ndarray, empty: float = 0.0) -> np.ndarray:
    """Positive predictive value per threshold, ``empty`` where nobody is
    classified positive."""
    return divide_where(tp, positives, positives > 0, empty)


def ppv(c: ThresholdConfusion) -> float:
    """Positive predictive value; defined as 0 when nobody is classified positive.
    A column for a ThresholdConfusion of columns."""
    values = ppv_counts(np.atleast_1d(c.tp), np.atleast_1d(c.tp + c.fp))
    return values if isinstance(c.tp, np.ndarray) else values.item()
