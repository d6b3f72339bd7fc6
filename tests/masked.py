"""Masked counting: the reference the threshold sweep is tested against.

Every count and risk sum here comes from a boolean mask over the records
at one threshold, so it shares no code with sweep_keys, tally_keys or
sweep_counts, which dcakit counts through everywhere.
"""

import numpy as np

from dcakit import ThresholdConfusion
from dcakit.calibration import calibration_from_counts


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


def masked_calibration(data, t):
    """threshold_calibration from the masked counts and risk sums."""
    return calibration_from_counts(masked_confusion(data, t), *masked_risk_sums(data, t))
