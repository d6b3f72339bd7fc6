"""Confusion counting and net-benefit style metrics at a single threshold.

Counts are the source of truth: every rate is a double computed from
exact integer counts. All operations are pure functions of immutable
inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, RouteDisagreementError, ThresholdError

__all__ = [
    "PredictionSet",
    "SweepCounts",
    "ThresholdConfusion",
    "check_routes",
    "check_threshold",
    "classify_at_threshold",
    "reproducer",
    "sweep_counts",
    "sweep_keys",
    "tally_keys",
    "net_benefit",
    "net_benefit_treat_all",
    "net_benefit_treat_none",
    "ppv",
]


def check_threshold(t: float) -> float:
    """Validate a decision threshold; the weight t/(1-t) degenerates at 0 and 1."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ThresholdError(f"threshold must lie strictly inside (0, 1), got {t!r}")
    return t


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
        outcomes = np.asarray(self.outcomes).copy()
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
        if not np.isin(outcomes, (0, 1)).all():
            i = int(np.flatnonzero(~np.isin(outcomes, (0, 1)))[0])
            raise DataError(f"outcome must be 0 or 1 at position {i}: {outcomes[i]!r}")
        outcomes = outcomes.astype(np.int64)
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
    """Confusion counts at one threshold; ties (risk == t) count as positive."""

    t: float
    tp: int
    fp: int
    tn: int
    fn: int
    n: int

    def __post_init__(self):
        check_threshold(self.t)
        for field in ("tp", "fp", "tn", "fn"):
            if getattr(self, field) < 0:
                raise DataError(f"{field} must be non-negative")
        if self.tp + self.fp + self.tn + self.fn != self.n:
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


def reproducer(*confusions: ThresholdConfusion) -> str:
    """Exact inputs of a threshold decision: t as an integer ratio, then the
    counts of each model, for invariant-failure messages."""
    num, den = confusions[0].t.as_integer_ratio()
    label = "model{} " if len(confusions) > 1 else ""
    counts = ", ".join(
        f"{label.format(i)}tp={c.tp} fp={c.fp} n1={c.n1} n0={c.n0}"
        for i, c in enumerate(confusions, 1)
    )
    return f"reproduce with t={num}/{den}, {counts}"


def check_routes(label: str, routes: list, *confusions: ThresholdConfusion) -> None:
    """Raise RouteDisagreementError, listing every (name, value) route and the
    reproducer of ``confusions``, unless all routes give the same value."""
    first = routes[0][1]
    for _, value in routes:
        if value != first:
            detail = ", ".join(f"{name}: {value!r}" for name, value in routes)
            raise RouteDisagreementError(f"{label} routes disagree at t={confusions[0].t!r} "
                                         f"({detail}; {reproducer(*confusions)})")


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

    def confusions(self) -> list[ThresholdConfusion]:
        """One ThresholdConfusion per threshold, with Python-int counts."""
        n0 = self.n - self.n1
        return [
            ThresholdConfusion(t=t, tp=tp, fp=fp, tn=n0 - fp, fn=self.n1 - tp, n=self.n)
            for t, tp, fp in zip(self.thresholds.tolist(), self.tp.tolist(),
                                 self.fp.tolist())
        ]


def _check_thresholds(thresholds) -> np.ndarray:
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim != 1:
        raise DataError("thresholds must be one-dimensional")
    outside = np.flatnonzero(~((thresholds > 0.0) & (thresholds < 1.0)))
    if outside.size:
        check_threshold(thresholds[outside[0]])
    if np.any(thresholds[1:] < thresholds[:-1]):
        raise DataError("thresholds must be non-decreasing")
    return thresholds


def sweep_keys(data: PredictionSet, thresholds) -> np.ndarray:
    """Per-record key ``cut*2 + outcome``, where ``cut`` counts the thresholds
    at or below the record's risk: the record is positive at threshold j
    exactly when j < cut, so ties (risk == t) count positive."""
    keys = np.searchsorted(_check_thresholds(thresholds), data.risks, side="right")
    keys *= 2
    keys += data.outcomes
    return keys


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
    keys = sweep_keys(data, thresholds)
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
    return sweep_counts(data, [t]).confusions()[0]


def net_benefit(c: ThresholdConfusion) -> float:
    """True-positive fraction minus false-positive fraction weighted by t/(1-t)."""
    return c.tp / c.n - (c.fp / c.n) * (c.t / (1.0 - c.t))


def net_benefit_treat_all(prevalence: float, t: float) -> float:
    """Net benefit of intervening on everyone; equals (prevalence - t)/(1 - t)."""
    t = check_threshold(t)
    if not 0.0 <= prevalence <= 1.0:
        raise DataError(f"prevalence must lie in [0, 1], got {prevalence!r}")
    return prevalence - (1.0 - prevalence) * (t / (1.0 - t))


def net_benefit_treat_none() -> float:
    """Net benefit of intervening on no one: exactly zero at every threshold."""
    return 0.0


def ppv(c: ThresholdConfusion) -> float:
    """Positive predictive value; defined as 0 when nobody is classified positive."""
    positives = c.tp + c.fp
    return c.tp / positives if positives > 0 else 0.0
