"""Confusion counting and net-benefit style metrics.

Counts are the source of truth: every rate is a double computed from
exact integer counts. A ThresholdConfusion holds the counts at one
threshold, or columns of them, one entry per threshold of a sweep; the
rate functions here are elementwise, so one formula serves both. All
operations are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
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
    "divide_where",
    "first_failure",
    "group_masks",
    "reproducer",
    "sweep_counts",
    "sweep_keys",
    "tally_counts",
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


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: itself if it already is
    one that owns its data, so nothing else can write to it, else a copy."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """A named, ordered set of paired (risk, outcome) records.

    Arrays are copied and frozen on construction, except a float64 risk
    array or an int64 outcome array that is already frozen and owns its
    data: it is kept as is, so sets that score one cohort share its
    outcomes and ingest's arrays are not copied. ``n1``, the number of
    events, is counted once, at construction; ``n0`` and ``prevalence``
    are derived from it.
    """

    risks: np.ndarray
    outcomes: np.ndarray
    name: str = "model"

    def __post_init__(self):
        risks = _frozen(self.risks, np.float64)
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
        object.__setattr__(self, "risks", risks)
        object.__setattr__(self, "outcomes", _frozen(outcomes, np.int64))
        # Not a field: fields, repr and equality stay the records and the name.
        object.__setattr__(self, "_n1", int(np.count_nonzero(outcomes)))

    @property
    def n(self) -> int:
        return int(self.risks.shape[0])

    @property
    def n1(self) -> int:
        return self._n1

    @property
    def n0(self) -> int:
        return self.n - self._n1

    @property
    def prevalence(self) -> float:
        return self._n1 / self.n


@dataclass(frozen=True)
class ThresholdConfusion:
    """Confusion counts at one threshold; ties (risk == t) count as positive.

    In a SweepCounts the fields t, tp, fp, tn and fn are columns instead,
    one entry per threshold, and the properties are columns too; ``n`` is
    shared. Such columns can be neither compared with ``==`` nor hashed.
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


def reproducer(t: float, tp: int, fp: int, tn: int, fn: int) -> str:
    """Exact inputs of a threshold decision, for invariant-failure messages:
    t as an integer ratio, then the counts. They are not validated, so the
    message can show counts no classification produces."""
    num, den = float(t).as_integer_ratio()
    return f"reproduce with t={num}/{den}, tp={tp} fp={fp} n1={tp + fn} n0={fp + tn}"


MAX_COUNT = 1 << 30  # counts net_benefit_order decides exactly in int64


def net_benefit_order(t: np.ndarray, side1: tuple, side2: tuple) -> np.ndarray:
    """The sign of nb1 - nb2 at every threshold of ``t``, in exact integers,
    from each side's (tp, fp) counts, columns or scalars. Both sides count
    the same n records; treat-none is the side (0, 0) and treat-all the
    side (n1, n0).

    A threshold in (0, 1) is M / 2**K with M < 2**53 and K >= 53, so the
    sign is that of dtp*2**K - dsel*M, with dsel = dtp + dfp: the sign of
    dtp - Q, where Q = floor(dsel*M / 2**K), and negative where they are
    equal and the remainder is not zero. Q is computed exactly in int64
    with M split at bit 26, which holds while |dsel| < 2**32: every count
    must be below MAX_COUNT, or DataError.
    """
    counts = [np.asarray(v, dtype=np.int64) for v in (*side1, *side2)]
    if any((np.abs(v) >= MAX_COUNT).any() for v in counts):
        raise DataError(f"a count is beyond the exact verdict's limit of {MAX_COUNT}")
    tp1, fp1, tp2, fp2 = counts
    tp = tp1 - tp2
    sel = tp + (fp1 - fp2)
    mantissa, exponent = np.frexp(t)
    m = (mantissa * float(1 << 53)).astype(np.int64)
    shift = np.minimum(27 - exponent.astype(np.int64), 62)  # K - 26, capped: |C| < 2**60
    low = sel * (m & ((1 << 26) - 1))
    c = sel * (m >> 26) + (low >> 26)  # floor(dsel*M / 2**26)
    q = c >> shift
    exact = ((low & ((1 << 26) - 1)) == 0) & ((c & ((1 << shift) - 1)) == 0)
    order = np.sign(tp - q)
    order[(order == 0) & ~exact] = -1
    return order


@dataclass(frozen=True, eq=False)
class SweepCounts(ThresholdConfusion):
    """Counts at every threshold of a non-decreasing sequence ``t``, as a
    ThresholdConfusion of columns, with the risk sums of its two groups.

    ``tp`` and ``fp`` come from one pass of the sweep's keys; ``fn`` and
    ``tn``, the events and non-events below each threshold, from one sort
    of the records, and sweep_counts checks that they add up to the
    record set's ``n1`` and ``n0``. All four are int64 arrays.
    ``risk_sum_above[j]`` sums the risks classified positive at ``t[j]``
    and ``risk_sum_below[j]`` the rest.
    """

    risk_sum_above: np.ndarray
    risk_sum_below: np.ndarray


def _check_thresholds(thresholds) -> np.ndarray:
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim != 1:
        raise DataError("thresholds must be one-dimensional")
    check_threshold(thresholds)
    if np.any(thresholds[1:] < thresholds[:-1]):
        raise DataError("thresholds must be non-decreasing")
    return thresholds


_PLACE_BLOCK = 1 << 16  # records placed at a time, so temporaries stay small


def _keys(data: PredictionSet, thresholds: np.ndarray) -> np.ndarray:
    """Each record's ``cut*2 + outcome``, cut as ``searchsorted(side="right")``
    gives it: guessed as if the thresholds were evenly spaced, moved by at
    most one, and proved by ``t[cut-1] <= risk < t[cut]`` (t padded by -inf
    and +inf). Records the proof rejects are binary searched."""
    size = len(thresholds)
    lo, hi = (thresholds[0].item(), thresholds[-1].item()) if size else (0.0, 0.0)
    scale = (size - 1) / (hi - lo) if hi > lo else 0.0
    scale = scale if math.isfinite(scale) else 0.0  # a span so tiny the step overflows
    padded = np.concatenate(([-np.inf], thresholds, [np.inf]))
    keys = np.empty(data.n, dtype=np.int64)
    for start in range(0, data.n, _PLACE_BLOCK):
        block = slice(start, start + _PLACE_BLOCK)
        risks = data.risks[block]
        # |risk - lo| <= 1, so the guess is finite before it is clipped into range.
        guess = risks - lo
        guess *= scale
        guess += 1.0
        np.floor(guess, out=guess)
        np.clip(guess, 0.0, size, out=guess)
        cut = guess.astype(np.int64)
        # A record that moves neither way is proved by these two comparisons;
        # one that moves has its new bounds compared again.
        down = risks < padded[cut]
        up = risks >= padded[cut + 1]
        cut -= down
        cut += up
        moved = np.flatnonzero(down | up)
        if moved.size:
            at, risk = cut[moved], risks[moved]
            wrong = moved[(risk < padded[at]) | (risk >= padded[at + 1])]
            cut[wrong] = np.searchsorted(thresholds, risks[wrong], side="right")
        cut *= 2
        cut += data.outcomes[block]
        keys[block] = cut
    return keys


def sweep_keys(data: PredictionSet, thresholds) -> np.ndarray:
    """Per-record key ``cut*2 + outcome``, where ``cut`` counts the thresholds
    at or below the record's risk: the record is positive at threshold j
    exactly when j < cut, so ties (risk == t) count positive."""
    return _keys(data, _check_thresholds(thresholds))


def tally_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tp and fp per threshold along the last axis of bincounts of sweep_keys' keys."""
    by_cut = counts.reshape(*counts.shape[:-1], -1, 2)
    at_or_above = np.cumsum(by_cut[..., ::-1, :], axis=-2)[..., ::-1, :]
    return at_or_above[..., 1:, 1], at_or_above[..., 1:, 0]


def _count_below(data: PredictionSet, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fn and tn at every threshold, the events and the non-events with risk
    < t: the tie rule stated from the other side, by code that shares nothing
    with the sweep's keys. One sort orders the keys ``outcome << 62 |
    bits(risk)``: the bits of a risk in [0, 1], its sign bit cleared so that
    -0.0 reads as 0.0, order as it does and lie below 2**62."""
    keys = data.outcomes << 62
    keys |= data.risks.view(np.int64)
    keys &= (1 << 63) - 1
    keys.sort()
    bits = thresholds.view(np.int64)
    events = keys.searchsorted(1 << 62)  # where the events' run starts
    return keys.searchsorted(bits | (1 << 62)) - events, keys.searchsorted(bits)


def sweep_counts(data: PredictionSet, thresholds) -> SweepCounts:
    """Counts and risk sums at every threshold in O(n log n + G).

    The counts are exact, and each threshold's are counted twice: tp + fn
    must be n1 and fp + tn must be n0, or RouteDisagreementError names the
    first threshold where they are not. The risk sums agree with a direct
    masked sum up to rounding. The SweepCounts is a ThresholdConfusion of
    columns, validated as any is, which every column kernel takes as is.
    """
    thresholds = _check_thresholds(thresholds)
    # Counted before the keys exist, so the two counts' arrays are never
    # live together.
    fn, tn = _count_below(data, thresholds)
    keys = _keys(data, thresholds)
    size = 2 * (len(thresholds) + 1)
    tp, fp = tally_counts(np.bincount(keys, minlength=size))
    risk_by_cut = np.bincount(keys, weights=data.risks, minlength=size).reshape(-1, 2).sum(axis=1)
    n1, n0 = data.n1, data.n0
    bad = first_failure(np.arange(len(thresholds)), (tp + fn == n1) & (fp + tn == n0))
    if bad is not None:
        t = thresholds[bad].item()
        num, den = t.as_integer_ratio()
        raise RouteDisagreementError(
            f"sweep and sort counts disagree at t={t!r} (reproduce with t={num}/{den}, "
            f"sweep tp={tp[bad]} fp={fp[bad]}, sort fn={fn[bad]} tn={tn[bad]}, n1={n1} n0={n0})")
    # Suffix and prefix sums: neither is derived from the other by subtraction.
    above = np.cumsum(risk_by_cut[::-1])[::-1][1:]
    below = np.cumsum(risk_by_cut)[:-1]
    return SweepCounts(t=thresholds, tp=tp, fp=fp, tn=tn, fn=fn, n=data.n, risk_sum_above=above,
                       risk_sum_below=below)


def classify_at_threshold(data: PredictionSet, t: float) -> ThresholdConfusion:
    """Split ``data`` at threshold ``t``; risk >= t classifies positive.
    A one-point sweep_counts, so the tie rule has one definition."""
    return column_rows(ThresholdConfusion, sweep_counts(data, [t]))[0]


def group_masks(c: ThresholdConfusion) -> tuple[np.ndarray, np.ndarray]:
    """Per threshold of ``c``, whether anyone is classified positive (the
    above group is non-empty) and whether anyone is not (the below group)."""
    positives = np.atleast_1d(c.tp + c.fp)
    return positives > 0, positives < c.n


def divide_where(num, den, where: np.ndarray, empty: float = np.nan) -> np.ndarray:
    """``num / den`` elementwise on the rows where ``where`` holds and
    ``empty`` on the rest, which are never divided."""
    return np.divide(num, den, out=np.full(where.shape, empty), where=where)


# Metadata of a group-tied field, one that is NaN in columns and None in rows
# where its group is empty: the records classified positive (above) or
# negative (below) at a threshold.
ABOVE = {"group": "above"}
BELOW = {"group": "below"}


def _cells(f, column):
    if is_dataclass(column):
        return column_rows(type(column), column)
    if not isinstance(column, np.ndarray):
        return repeat(column)
    cells = column.tolist()
    if "group" in f.metadata:
        for i in np.flatnonzero(np.isnan(column)).tolist():
            cells[i] = None
    return cells


def column_rows(cls, columns) -> list:
    """One ``cls`` instance per row of ``columns``, an instance of the
    dataclass ``cls`` whose fields are arrays with one entry per threshold,
    scalars every row shares, or nested dataclasses of such columns. A
    group-tied field, one whose metadata names a group, is NaN in
    ``columns`` where its group is empty, and None in those rows."""
    return list(map(cls, *(_cells(f, getattr(columns, f.name)) for f in fields(cls))))


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
