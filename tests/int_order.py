"""The exact verdict one threshold at a time in Python ints: the reference
``dcakit.metrics.net_benefit_order``'s int64 column kernel must equal.

A float threshold is a dyadic rational num/den, so n*den*(nb1 - nb2) is
the integer (tp1 - tp2)*(den - num) - (fp1 - fp2)*num, exact in Python
ints at any count; its sign is the verdict.
"""

import numpy as np


def int_order(t, side1, side2):
    """The sign of nb1 - nb2 at every threshold of ``t`` from each side's
    (tp, fp) counts, columns or scalars, as an int64 array."""
    t = np.asarray(t, dtype=np.float64)
    counts = (np.broadcast_to(np.asarray(v, dtype=np.int64), t.shape).tolist()
              for v in (*side1, *side2))
    order = []
    for tj, tp1, fp1, tp2, fp2 in zip(t.tolist(), *counts):
        num, den = tj.as_integer_ratio()
        diff = (tp1 - tp2) * (den - num) - (fp1 - fp2) * num
        order.append((diff > 0) - (diff < 0))
    return np.array(order, dtype=np.int64)
