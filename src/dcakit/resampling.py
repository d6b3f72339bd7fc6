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
from .metrics import PredictionSet, net_benefit_counts, ppv_counts, sweep_keys, tally_keys

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


def _nearest_rank(pool: np.ndarray, counts: list, q) -> tuple:
    """Per column j of ``pool``, sorted, the value at rank ceil(q * m) of its
    first m = counts[j] values, for an exact Fraction q; None where m is 0."""
    return tuple(float(pool[min(max(math.ceil(q * m), 1), m) - 1, j]) if m else None
                 for j, m in enumerate(counts))


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
    # Gathered in the smallest type holding 2 * n_grid + 1 (uint8 on the default grid).
    keys = sweep_keys(data, thresholds).astype(np.min_scalar_type(2 * n_grid + 1))
    n = data.n

    nb_pool = np.empty((spec.replicates, n_grid))
    ppv_pool = np.empty((spec.replicates, n_grid))
    children = np.random.SeedSequence(spec.seed).spawn(spec.replicates)

    def run_block(start: int, stop: int) -> None:
        # The draw, gather and bincount run in numpy with the GIL released.
        for i in range(start, stop):
            rng = np.random.Generator(np.random.PCG64(children[i]))
            idx = rng.integers(0, n, size=n)
            tp, fp = tally_keys(keys[idx], n_grid)
            nb_pool[i] = net_benefit_counts(tp, fp, n, thresholds)
            # NaN where nobody is selected: such replicates leave the PPV pool.
            ppv_pool[i] = ppv_counts(tp, tp + fp, empty=np.nan)

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
    nb_pool.sort(axis=0)
    ppv_pool.sort(axis=0)  # NaN, a replicate out of the PPV pool, sorts last
    nb_used = [spec.replicates] * n_grid
    ppv_used = np.count_nonzero(~np.isnan(ppv_pool), axis=0).tolist()

    return CurveBand(
        spec=spec,
        thresholds=tuple(float(t) for t in grid.points),
        nb_lower=_nearest_rank(nb_pool, nb_used, q_lo),
        nb_upper=_nearest_rank(nb_pool, nb_used, q_hi),
        ppv_lower=_nearest_rank(ppv_pool, ppv_used, q_lo),
        ppv_upper=_nearest_rank(ppv_pool, ppv_used, q_hi),
        ppv_replicates=tuple(ppv_used),
    )
