"""Percentile bootstrap bands for net-benefit and PPV curves.

Replicate i draws its indices from a PCG64 generator seeded with
SeedSequence(seed).spawn(...)[i], so bands are reproducible and
independent of any execution order: replicates run in contiguous
blocks, one thread per usable CPU, and replicate i writes only row i of
the pools. Quantiles use the nearest-rank rule: the value at rank
ceil(q * m) among m sorted replicate values, with q taken exactly from
the level's decimal text.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .curves import ThresholdGrid
from .errors import DataError
from .metrics import PredictionSet, sweep_keys, tally_keys

__all__ = ["BandSpec", "CurveBand", "bootstrap_bands"]

# Resource caps, checked before any replicate seed or pool is made: each
# spawned seed costs about half a kilobyte, and the nb and ppv pools hold
# replicates x thresholds doubles each.
MAX_REPLICATES = 100_000
MAX_BAND_CELLS = 10_000_000


@dataclass(frozen=True)
class BandSpec:
    """Bootstrap configuration: replicate count, seed, level, method."""

    replicates: int = 1000
    seed: int = 0
    level: float = 0.95
    method: str = "percentile"

    def __post_init__(self):
        if self.replicates < 1:
            raise DataError(f"replicates must be at least 1, got {self.replicates!r}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed!r}")
        if not 0.0 < self.level < 1.0:
            raise DataError(f"level must lie in (0, 1), got {self.level!r}")
        if self.method != "percentile":
            raise DataError(f"unsupported bootstrap method {self.method!r}")


@dataclass(frozen=True)
class CurveBand:
    """Per-threshold quantile bands.

    PPV pools exclude replicates whose selection rate is zero at that
    threshold (their conventional PPV of 0 would distort the band);
    ``ppv_replicates`` records how many replicates remained. When none
    remain the PPV band entries are None.
    """

    spec: BandSpec
    thresholds: tuple[float, ...]
    nb_lower: tuple[float, ...]
    nb_upper: tuple[float, ...]
    ppv_lower: tuple[float | None, ...]
    ppv_upper: tuple[float | None, ...]
    ppv_replicates: tuple[int, ...]


def _nearest_rank(sorted_values: np.ndarray, q) -> float:
    """The value at rank ceil(q * m) of m sorted values, for an exact Fraction q."""
    m = len(sorted_values)
    rank = min(max(math.ceil(q * m), 1), m)
    return float(sorted_values[rank - 1])


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def bootstrap_bands(data: PredictionSet, grid: ThresholdGrid, spec: BandSpec) -> CurveBand:
    """Resample records with replacement and band the per-threshold curves."""
    if data.n < 2:
        raise DataError("bootstrap needs at least 2 records")
    thresholds = np.asarray(grid.points)
    n_grid = len(thresholds)
    if spec.replicates > MAX_REPLICATES:
        raise DataError(f"{spec.replicates} replicates exceed the cap of {MAX_REPLICATES}")
    if spec.replicates * n_grid > MAX_BAND_CELLS:
        raise DataError(
            f"{spec.replicates} replicates x {n_grid} thresholds exceed the band "
            f"pool cap of {MAX_BAND_CELLS} values"
        )
    weight = thresholds / (1.0 - thresholds)
    keys = sweep_keys(data, thresholds)
    n = data.n

    nb_pool = np.empty((spec.replicates, n_grid))
    ppv_pool = np.full((spec.replicates, n_grid), np.nan)
    children = np.random.SeedSequence(spec.seed).spawn(spec.replicates)

    def run_block(start: int, stop: int) -> None:
        # The draw, gather and bincount run in numpy with the GIL released.
        for i in range(start, stop):
            rng = np.random.Generator(np.random.PCG64(children[i]))
            idx = rng.integers(0, n, size=n)
            tp, fp = tally_keys(keys[idx], n_grid)
            positives = tp + fp
            nb_pool[i] = tp / n - (fp / n) * weight
            selected = positives > 0
            ppv_pool[i, selected] = tp[selected] / positives[selected]

    # Imported here, so that importing the CLI loads neither module.
    from concurrent.futures import ThreadPoolExecutor
    from fractions import Fraction

    workers = min(_worker_count(), spec.replicates)
    bounds = [spec.replicates * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = [pool.submit(run_block, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for block in blocks:
            block.result()

    q_lo = (1 - Fraction(repr(spec.level))) / 2
    q_hi = 1 - q_lo
    nb_lower, nb_upper = [], []
    ppv_lower, ppv_upper, ppv_used = [], [], []
    for j in range(n_grid):
        nb_sorted = np.sort(nb_pool[:, j])
        nb_lower.append(_nearest_rank(nb_sorted, q_lo))
        nb_upper.append(_nearest_rank(nb_sorted, q_hi))
        col = ppv_pool[:, j]
        col = np.sort(col[~np.isnan(col)])
        ppv_used.append(len(col))
        if len(col):
            ppv_lower.append(_nearest_rank(col, q_lo))
            ppv_upper.append(_nearest_rank(col, q_hi))
        else:
            ppv_lower.append(None)
            ppv_upper.append(None)

    return CurveBand(
        spec=spec,
        thresholds=tuple(float(t) for t in grid.points),
        nb_lower=tuple(nb_lower),
        nb_upper=tuple(nb_upper),
        ppv_lower=tuple(ppv_lower),
        ppv_upper=tuple(ppv_upper),
        ppv_replicates=tuple(ppv_used),
    )
