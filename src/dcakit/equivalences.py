"""The bridge between net benefit and PPV.

Strict verdicts against the treat-none and treat-all defaults are
computed from net-benefit comparisons, from PPV reference values and, for
treat-all, from the below-group event rate. Every route is evaluated in
exact integer arithmetic (a float threshold is a dyadic rational, so
``t.as_integer_ratio()`` makes every strict comparison exact); float
rounding can otherwise flip a boundary case such as ppv == t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InfeasibleNetBenefitError, UndefinedAtThresholdError
from .metrics import (
    PredictionSet,
    ThresholdConfusion,
    check_routes,
    check_threshold,
    classify_at_threshold,
    column_rows,
    first_failure,
    group_masks,
    net_benefit_counts,
    net_benefit_treat_all,
    ppv_counts,
)

__all__ = [
    "DefaultsVerdict",
    "PpvInterval",
    "ppv_from_nb",
    "treat_none_reference",
    "treat_all_reference_ppv",
    "default_routes",
    "defaults_columns",
    "decide_defaults",
    "verdict_vs_defaults",
    "ppv_bounds_given_nb",
]

KIND_POSITIVE = "positive_nb"
KIND_ZERO = "zero_nb_two_point"
KIND_NEGATIVE = "negative_nb"

_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class DefaultsVerdict:
    """Strict comparison of one model against treat-none and treat-all at t.

    ``beats_none`` and ``beats_all`` are count-exact; boundary equality
    maps to "does not beat". ``ppv_all_ref`` is None when nobody is
    classified positive (the reference is undefined there). From
    ``defaults_columns`` every field is a column, one entry per threshold,
    and ``ppv_all_ref`` is NaN where nobody is classified positive.
    """

    t: float
    beats_none: bool
    beats_all: bool
    nb: float
    nb_all: float
    ppv: float
    ppv_none_ref: float
    ppv_all_ref: float | None
    s_t: float


@dataclass(frozen=True)
class PpvInterval:
    """Feasible PPV range implied by a net benefit value.

    ``kind == "zero_nb_two_point"`` encodes the two-point set
    {0, t}: only the endpoints are feasible, not the interior.
    """

    t: float
    nb: float
    lower: float
    upper: float
    kind: str

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise DataError(
                f"invalid interval: lower={self.lower!r} upper={self.upper!r}"
            )
        if self.kind not in (KIND_POSITIVE, KIND_ZERO, KIND_NEGATIVE):
            raise DataError(f"unknown interval kind {self.kind!r}")

    def contains(self, value: float, tol: float = 0.0) -> bool:
        """Feasibility of a PPV value; for the zero-NB kind only {0, t} qualify."""
        if self.kind == KIND_ZERO:
            return min(abs(value - 0.0), abs(value - self.t)) <= tol
        return self.lower - tol <= value <= self.upper + tol


def ppv_from_nb(nb, positives, n: int, t):
    """Reconstruct PPV from net benefit and the number classified positive.

    Elementwise on arrays of nb, positives and t; an array of positives
    holds only the rows where somebody is positive, since the zero-positive
    convention (PPV 0) is a scalar branch.
    """
    t = check_threshold(t)
    if n < 1:
        raise DataError("n must be at least 1")
    bad = first_failure(positives, (positives >= 0) & (positives <= n))
    if bad is not None:
        raise DataError(f"positives must lie in [0, n], got {bad!r}")
    if not isinstance(positives, np.ndarray) and positives == 0:
        return 0.0
    return (n * nb / positives) * (1.0 - t) + t


def treat_none_reference(t):
    """PPV reference for beating treat-none: the main diagonal."""
    return check_threshold(t)


def treat_all_reference_ppv(prevalence, s_t, t):
    """PPV reference for beating treat-all: (prevalence - t)/s_t + t.

    A reference value, not a probability: it may leave [0, 1]. Undefined
    when the selection rate is zero; curve emitters skip such points.
    Elementwise on arrays.
    """
    t = check_threshold(t)
    bad = first_failure(s_t, s_t > 0.0)
    if bad is not None:
        raise UndefinedAtThresholdError(
            f"treat-all PPV reference undefined with selection rate {bad!r}"
        )
    return (prevalence - t) / s_t + t


def default_routes(t: float, tp: int, fp: int, tn: int, fn: int, n: int) -> tuple[bool, bool]:
    """(beats_none, beats_all) at one threshold, through every route, in exact
    integers (Python ints: t = num/den with den up to 2**60 overflows int64).

    Treat-none: net benefit, and PPV against t; the PPV is the above-group
    event rate, so that is also the above-group route. Treat-all: net
    benefit, PPV against the treat-all reference, and the below-group event
    rate against t, each where its group is non-empty. Disagreement raises
    RouteDisagreementError; that would be an implementation bug.
    """
    positives = tp + fp
    negatives = n - positives
    num, den = t.as_integer_ratio()

    # nb has the sign of tp*(den-num) - fp*num, and nb_all the analogue.
    nb_scaled = tp * (den - num) - fp * num
    beats_none = nb_scaled > 0
    beats_all = nb_scaled > (tp + fn) * (den - num) - (fp + tn) * num
    cells = (tp, fp, tn, fn)
    check_routes("treat-none", [
        ("net benefit", beats_none),
        ("ppv", positives > 0 and tp * den > positives * num),
    ], t, cells)
    all_routes = [("net benefit", beats_all)]
    if positives > 0:
        all_routes.append(("ppv reference", tp * den + n * num > (tp + fn) * den + positives * num))
    if negatives > 0:
        all_routes.append(("below-group rate", fn * den < num * negatives))
    check_routes("treat-all", all_routes, t, cells)
    return beats_none, beats_all


def defaults_columns(c: ThresholdConfusion) -> DefaultsVerdict:
    """Both default comparisons at every threshold of ``c``, as a
    DefaultsVerdict of columns: default_routes decides each threshold, and
    the float fields are computed a column at a time."""
    t, tp, fp, tn, fn = (np.atleast_1d(v) for v in (c.t, c.tp, c.fp, c.tn, c.fn))
    n = c.n
    beats = [default_routes(*cells, n) for cells in
             zip(t.tolist(), tp.tolist(), fp.tolist(), tn.tolist(), fn.tolist())]
    beats_none, beats_all = np.array(beats, dtype=bool).reshape(-1, 2).T
    positives = tp + fp
    s_t = positives / n
    prevalence = (tp + fn) / n
    above = group_masks(c)[0]
    ppv_all_ref = np.full(t.shape, np.nan)
    ppv_all_ref[above] = treat_all_reference_ppv(prevalence[above], s_t[above], t[above])
    return DefaultsVerdict(
        t=t,
        beats_none=beats_none,
        beats_all=beats_all,
        nb=net_benefit_counts(tp, fp, n, t),
        nb_all=net_benefit_treat_all(prevalence, t),
        ppv=ppv_counts(tp, positives),
        ppv_none_ref=treat_none_reference(t),
        ppv_all_ref=ppv_all_ref,
        s_t=s_t,
    )


def decide_defaults(c: ThresholdConfusion) -> DefaultsVerdict:
    """Decide both default comparisons from the counts, through every route
    (default_routes): defaults_columns at one threshold."""
    columns = defaults_columns(c)
    return column_rows(DefaultsVerdict, columns, {"ppv_all_ref": group_masks(c)[0]})[0]


def verdict_vs_defaults(data: PredictionSet, t: float) -> DefaultsVerdict:
    """Classify at ``t``, then decide both default comparisons via every route."""
    return decide_defaults(classify_at_threshold(data, t))


def ppv_bounds_given_nb(nb: float, prevalence: float, t: float) -> PpvInterval:
    """Sharp feasible PPV range given net benefit, prevalence and threshold.

    With event fraction pinned, the true-positive fraction lives in
    [0, prevalence] and the false-positive fraction in [0, 1 - prevalence].
    Along the fixed-nb line PPV is monotone in the selection rate, so the
    extremes sit where one of the two caps binds:

    * every event selected       -> selection rate nb + (prevalence - nb)/t
    * every non-event selected   -> selection rate nb + (1 - prevalence)/(1 - t)

    For nb > 0 the bound away from 1 is the larger of the two cap PPVs;
    for nb < 0 it is the smaller. nb == 0 collapses to the two-point
    set {0, t}.
    """
    t = check_threshold(t)
    if not 0.0 <= prevalence <= 1.0:
        raise DataError(f"prevalence must lie in [0, 1], got {prevalence!r}")
    nb_max = prevalence
    nb_min = -(1.0 - prevalence) * (t / (1.0 - t))
    if nb > nb_max + _FEASIBILITY_SLACK or nb < nb_min - _FEASIBILITY_SLACK:
        raise InfeasibleNetBenefitError(
            f"net benefit {nb!r} unattainable at prevalence {prevalence!r}, t={t!r} "
            f"(feasible range [{nb_min!r}, {nb_max!r}])"
        )
    if nb == 0.0:
        return PpvInterval(t=t, nb=nb, lower=0.0, upper=t, kind=KIND_ZERO)

    nb_eff = min(max(nb, nb_min), nb_max)
    if nb_eff == 0.0:
        # Slack-band input at a degenerate prevalence (0 or 1) snaps to
        # the only feasible net benefit, 0, and its two-point set.
        return PpvInterval(t=t, nb=nb, lower=0.0, upper=t, kind=KIND_ZERO)
    s_all_events = nb_eff + (prevalence - nb_eff) / t
    s_all_nonevents = nb_eff + (1.0 - prevalence) / (1.0 - t)
    ppv_cap_events = nb_eff * (1.0 - t) / s_all_events + t
    ppv_cap_nonevents = nb_eff * (1.0 - t) / s_all_nonevents + t

    if nb > 0.0:
        lower = max(ppv_cap_events, ppv_cap_nonevents)
        upper = 1.0
        kind = KIND_POSITIVE
    else:
        lower = 0.0
        upper = min(ppv_cap_events, ppv_cap_nonevents)
        kind = KIND_NEGATIVE
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, lower), 1.0)
    return PpvInterval(t=t, nb=nb, lower=lower, upper=upper, kind=kind)
