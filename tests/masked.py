"""Masked counting and per-point formulas: the reference dcakit is tested against.

Every count and risk sum here comes from a boolean mask over the records
at one threshold, so it shares no code with sweep_keys, tally_keys or
sweep_counts, which dcakit counts through everywhere. The float fields
of a verdict, a calibration summary and a pairwise verdict are computed
here one threshold at a time, with Python floats, in the order of
operations dcakit's column kernels must reproduce bit for bit; the
win/lose verdicts come from exact rationals, not from dcakit's integer
routes.
"""

from fractions import Fraction

import numpy as np

from dcakit import CalibrationSummary, ComparisonVerdict, DefaultsVerdict, ThresholdConfusion
from dcakit.comparison import TIE_TOLERANCE


def masked_confusion(data, t):
    """Counts at ``t``; risk >= t classifies positive."""
    t = float(t)
    positive = data.risks >= t
    tp = int(np.count_nonzero(positive & (data.outcomes == 1)))
    fp = int(np.count_nonzero(positive)) - tp
    return ThresholdConfusion(t=t, tp=tp, fp=fp, tn=data.n0 - fp, fn=data.n1 - tp, n=data.n)


def masked_risk_sums(data, t):
    """Sums of the risks classified positive and negative at ``t``."""
    positive = data.risks >= t
    return float(data.risks[positive].sum()), float(data.risks[~positive].sum())


def _net_benefit(c):
    return c.tp / c.n - (c.fp / c.n) * (c.t / (1.0 - c.t))


def _ppv(c):
    positives = c.tp + c.fp
    return c.tp / positives if positives > 0 else 0.0


def _exact_nb(c):
    t = Fraction(c.t)
    return Fraction(c.tp, c.n) - Fraction(c.fp, c.n) * t / (1 - t)


def reference_calibration(c, risk_sum_above, risk_sum_below):
    """Group diagnostics from the counts at ``c.t`` and the two risk sums."""
    t = c.t
    n_above = c.tp + c.fp
    n_below = c.n - n_above
    s_t = c.s_t
    y_above = p_above = delta_t = enrichment = calibration_term = None
    if n_above > 0:
        y_above = _ppv(c)
        p_above = risk_sum_above / n_above
        delta_t = y_above - p_above
        multiplier = s_t / (1.0 - t)
        enrichment = multiplier * (p_above - t)
        calibration_term = multiplier * delta_t
    y_below = p_below = None
    if n_below > 0:
        y_below = c.fn / n_below
        p_below = risk_sum_below / n_below
    return CalibrationSummary(t=t, s_t=s_t, y_above=y_above, y_below=y_below,
                              p_above=p_above, p_below=p_below, delta_t=delta_t,
                              enrichment=enrichment, calibration_term=calibration_term)


def masked_calibration(data, t):
    """threshold_calibration from the masked counts and risk sums."""
    return reference_calibration(masked_confusion(data, t), *masked_risk_sums(data, t))


def reference_verdict(c):
    """decide_defaults at one threshold: exact-rational verdicts, scalar floats."""
    t = c.t
    prevalence = c.n1 / c.n
    exact_nb = _exact_nb(c)
    exact_t = Fraction(t)
    exact_nb_all = Fraction(c.n1, c.n) - Fraction(c.n0, c.n) * exact_t / (1 - exact_t)
    positives = c.tp + c.fp
    return DefaultsVerdict(
        t=t,
        beats_none=exact_nb > 0,
        beats_all=exact_nb > exact_nb_all,
        nb=_net_benefit(c),
        nb_all=prevalence - (1.0 - prevalence) * (t / (1.0 - t)),
        ppv=_ppv(c),
        ppv_none_ref=t,
        ppv_all_ref=(prevalence - t) / c.s_t + t if positives > 0 else None,
        s_t=c.s_t,
    )


def _margin_above(c):
    if c.tp + c.fp == 0:
        return None
    return c.s_t * (_ppv(c) - c.t)


def _margin_below(c):
    negatives = c.tn + c.fn
    if negatives == 0:
        return None
    return (1.0 - c.s_t) * (c.t - c.fn / negatives)


def reference_superiority(c1, c2):
    """decide_superiority at one threshold: exact-rational winner, scalar floats."""
    t = c1.t
    nb1, nb2 = _net_benefit(c1), _net_benefit(c2)
    gap = _exact_nb(c1) - _exact_nb(c2)
    pos1 = c1.tp + c1.fp
    if abs(nb1 - nb2) <= TIE_TOLERANCE or gap == 0:
        winner = "tie"
    else:
        winner = "model1" if gap > 0 else "model2"
    return ComparisonVerdict(
        t=t,
        nb1=nb1,
        nb2=nb2,
        winner=winner,
        ppv1=_ppv(c1),
        ppv_superiority_ref=t + (1.0 - t) * c1.n * nb2 / pos1 if pos1 > 0 else None,
        ppv_route_available=pos1 > 0,
        margin_above_1=_margin_above(c1),
        margin_above_2=_margin_above(c2),
        margin_below_1=_margin_below(c1),
        margin_below_2=_margin_below(c2),
    )
