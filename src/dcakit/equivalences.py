"""The bridge between net benefit and PPV.

Strict verdicts against the treat-none and treat-all defaults are
computed twice, once from net-benefit comparisons and once from PPV
reference values. Both routes are evaluated in exact integer arithmetic
(a float threshold is a dyadic rational, so ``t.as_integer_ratio()``
makes every strict comparison exact); float rounding can otherwise flip
a boundary case such as ppv == t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DataError,
    InfeasibleNetBenefitError,
    RouteDisagreementError,
    UndefinedAtThresholdError,
)
from .metrics import (
    PredictionSet,
    ThresholdConfusion,
    check_threshold,
    classify_at_threshold,
    net_benefit,
    net_benefit_treat_all,
    ppv,
    reproducer,
)

__all__ = [
    "DefaultsVerdict",
    "PpvInterval",
    "ppv_from_nb",
    "treat_none_reference",
    "treat_all_reference_ppv",
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
    classified positive (the reference is undefined there).
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


def ppv_from_nb(nb: float, positives: int, n: int, t: float) -> float:
    """Reconstruct PPV from net benefit and the number classified positive."""
    t = check_threshold(t)
    if n < 1:
        raise DataError("n must be at least 1")
    if not 0 <= positives <= n:
        raise DataError(f"positives must lie in [0, n], got {positives!r}")
    if positives == 0:
        return 0.0
    return (n * nb / positives) * (1.0 - t) + t


def treat_none_reference(t: float) -> float:
    """PPV reference for beating treat-none: the main diagonal."""
    return check_threshold(t)


def treat_all_reference_ppv(prevalence: float, s_t: float, t: float) -> float:
    """PPV reference for beating treat-all: (prevalence - t)/s_t + t.

    A reference value, not a probability: it may leave [0, 1]. Undefined
    when the selection rate is zero; curve emitters skip such points.
    """
    t = check_threshold(t)
    if s_t <= 0.0:
        raise UndefinedAtThresholdError(
            f"treat-all PPV reference undefined with selection rate {s_t!r}"
        )
    return (prevalence - t) / s_t + t


def decide_defaults(c: ThresholdConfusion) -> DefaultsVerdict:
    """Decide both default comparisons from the counts, via both routes.

    Raises RouteDisagreementError if the net-benefit route and the PPV
    route ever disagree; that would be an implementation bug.
    """
    t = c.t
    positives = c.tp + c.fp
    num, den = t.as_integer_ratio()

    # Route 1: strict net-benefit comparisons. nb has the sign of
    # tp*(den-num) - fp*num, and nb_all the sign-scaled analogue.
    nb_scaled = c.tp * (den - num) - c.fp * num
    nb_all_scaled = c.n1 * (den - num) - c.n0 * num
    none_by_nb = nb_scaled > 0
    all_by_nb = nb_scaled > nb_all_scaled

    # Route 2: PPV against the reference values, rearranged integers.
    none_by_ppv = positives > 0 and c.tp * den > positives * num
    all_by_ppv = None
    if positives > 0:
        all_by_ppv = c.tp * den + c.n * num > c.n1 * den + positives * num

    if none_by_nb != none_by_ppv:
        raise RouteDisagreementError(
            f"treat-none verdict differs between NB and PPV routes at t={t!r} "
            f"({reproducer(c)})"
        )
    if all_by_ppv is not None and all_by_nb != all_by_ppv:
        raise RouteDisagreementError(
            f"treat-all verdict differs between NB and PPV routes at t={t!r} "
            f"({reproducer(c)})"
        )

    return DefaultsVerdict(
        t=t,
        beats_none=none_by_nb,
        beats_all=all_by_nb,
        nb=net_benefit(c),
        nb_all=net_benefit_treat_all(c.prevalence, t),
        ppv=ppv(c),
        ppv_none_ref=t,
        ppv_all_ref=(
            treat_all_reference_ppv(c.prevalence, c.s_t, t) if positives > 0 else None
        ),
        s_t=c.s_t,
    )


def verdict_vs_defaults(data: PredictionSet, t: float) -> DefaultsVerdict:
    """Classify at ``t``, then decide both default comparisons via both routes."""
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
