"""The bridge between net benefit and PPV.

Treat-none and treat-all are models: the one that selects nobody and the
one that selects everybody. Strict verdicts against them are decided like
any pairwise comparison, by metrics.net_benefit_order's exact sign of the
net-benefit difference; float rounding could otherwise flip a boundary
case such as ppv == t. The verdict against treat-none reads ppv > t. The
one against treat-all reads ppv > (prevalence - t)/s_t + t in the
selected group, or y_below < t in the spared one. Each reading is the
same sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InfeasibleNetBenefitError, UndefinedAtThresholdError
from .metrics import (
    ABOVE,
    PredictionSet,
    ThresholdConfusion,
    check_threshold,
    classify_at_threshold,  # noqa: F401  bench/workloads.py traces it by name
    column_rows,
    first_failure,
    group_masks,
    net_benefit_counts,
    net_benefit_order,
    net_benefit_treat_all,
    ppv_counts,
    sweep_counts,
)

__all__ = [
    "DefaultsVerdict",
    "PpvInterval",
    "ppv_from_nb",
    "treat_none_reference",
    "treat_all_reference_ppv",
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
    maps to "does not beat". ``ppv_all_ref``, tied to the above group, is
    None when nobody is classified positive (the reference is undefined
    there). From ``defaults_columns`` every field is a column, one entry
    per threshold, and ``ppv_all_ref`` is NaN there instead.
    """

    t: float
    beats_none: bool
    beats_all: bool
    nb: float
    nb_all: float
    ppv: float
    ppv_none_ref: float
    ppv_all_ref: float | None = field(metadata=ABOVE)
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


def defaults_columns(c: ThresholdConfusion) -> DefaultsVerdict:
    """Both default comparisons at every threshold of ``c``, as a
    DefaultsVerdict of columns: net_benefit_order decides each against the
    default's (tp, fp), and the float fields are computed a column at a time.

    Treat-none is the model that selects nobody, (0, 0), and treat-all the
    one that selects everybody, (n1, n - n1).
    """
    t, tp, fp, fn = (np.atleast_1d(v) for v in (c.t, c.tp, c.fp, c.fn))
    n = c.n
    n1 = tp + fn
    beats_none = net_benefit_order(t, (tp, fp), (0, 0)) > 0
    beats_all = net_benefit_order(t, (tp, fp), (n1, n - n1)) > 0
    positives = tp + fp
    s_t = positives / n
    prevalence = n1 / n
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
    """Decide both default comparisons from the counts, by the exact sign of
    net_benefit_order: defaults_columns at one threshold."""
    return column_rows(DefaultsVerdict, defaults_columns(c))[0]


def verdict_vs_defaults(data: PredictionSet, t: float) -> DefaultsVerdict:
    """Count at ``t`` by a one-point sweep_counts, which checks its counts,
    then decide both default comparisons by their exact sign."""
    return decide_defaults(sweep_counts(data, [t]).confusion())


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
    odds = t / (1.0 - t)
    nb_min = -(1.0 - prevalence) * odds
    # A net benefit from counts carries the rounding of its odds-weighted
    # term, so the slack below the floor grows with the odds (t near 1).
    floor_slack = _FEASIBILITY_SLACK * max(1.0, odds)
    # Fails closed: a NaN nb is outside every range.
    if not nb_min - floor_slack <= nb <= nb_max + _FEASIBILITY_SLACK:
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
