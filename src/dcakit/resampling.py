"""Percentile bootstrap bands for net-benefit and PPV curves.

Replicate i draws its indices from a PCG64 generator seeded with
SeedSequence(seed).spawn(...)[i], then only gathers the sweep's record
keys and counts them into its row of a block. Blocks of at most 64
replicates and 2**16 counts run on one thread per usable CPU; each
tallies its rows in one pass and writes only them into the pools, so the
bands do not depend on execution order. Quantiles use the nearest-rank
rule: the value at rank ceil(q * m) among m sorted replicate values,
with q taken exactly from the level's decimal text.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .curves import ThresholdGrid
from .errors import DataError
from .metrics import PredictionSet, net_benefit_counts, ppv_counts, sweep_keys, tally_counts

__all__ = ["BandSpec", "CurveBand", "bootstrap_bands", "check_band_caps"]

# Resource caps, checked before any input is read or any pool is made: the
# nb and ppv pools hold replicates x thresholds doubles each.
MAX_REPLICATES = 100_000
MAX_BAND_CELLS = 10_000_000

# At most this many replicates and counts per block, so no temporary grows with replicates.
_BLOCK_REPLICATES, _BLOCK_COUNTS = 64, 1 << 16


def _integer(name: str, value) -> int:
    """``value`` as a Python int; DataError unless it is an integer other than a bool."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DataError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BandSpec:
    """Bootstrap configuration: replicate count, seed, level, method."""

    replicates: int = 1000
    seed: int = 0
    level: float = 0.95
    method: str = "percentile"

    def __post_init__(self):
        # Stored as Python int and float, as the report writer and the seeding expect.
        object.__setattr__(self, "replicates", _integer("replicates", self.replicates))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        level = self.level
        if not (isinstance(level, numbers.Real) and 0 < level < 1 and 0.0 < float(level) < 1.0):
            raise DataError(f"level must be a real number in (0, 1), got {level!r}")
        object.__setattr__(self, "level", float(level))
        if self.replicates < 1:
            raise DataError(f"replicates must be at least 1, got {self.replicates!r}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed!r}")
        if self.method != "percentile":
            raise DataError(f"unsupported bootstrap method {self.method!r}")


@dataclass(frozen=True)
class CurveBand:
    """Per-threshold quantile bands.

    PPV pools exclude replicates whose selection rate is zero at that
    threshold (their conventional PPV of 0 would distort the band);
    ``ppv_replicates`` records how many replicates remained. When none
    remain the PPV band entries are None: they are tied to that pool, as
    a report field is to its group.
    """

    spec: BandSpec
    thresholds: tuple[float, ...]
    nb_lower: tuple[float, ...]
    nb_upper: tuple[float, ...]
    ppv_lower: tuple[float | None, ...] = field(metadata={"group": "ppv_pool"})
    ppv_upper: tuple[float | None, ...] = field(metadata={"group": "ppv_pool"})
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


def check_band_caps(spec: BandSpec, grid: ThresholdGrid) -> None:
    """Refuse a bootstrap past the replicate or pool cap, before any input
    is read or any pool is made."""
    if spec.replicates > MAX_REPLICATES:
        raise DataError(f"{spec.replicates} replicates exceed the cap of {MAX_REPLICATES}")
    if spec.replicates * len(grid.points) > MAX_BAND_CELLS:
        raise DataError(
            f"{spec.replicates} replicates x {len(grid.points)} thresholds exceed the band "
            f"pool cap of {MAX_BAND_CELLS} values"
        )


def bootstrap_bands(data: PredictionSet, grid: ThresholdGrid, spec: BandSpec) -> CurveBand:
    """Resample records with replacement and band the per-threshold curves."""
    if data.n < 2:
        raise DataError("bootstrap needs at least 2 records")
    check_band_caps(spec, grid)
    thresholds = np.asarray(grid.points)
    n_grid, n = len(thresholds), data.n
    nb_pool, ppv_pool = np.empty((2, spec.replicates, n_grid))
    # Gathered in the smallest type holding 2 * n_grid + 1 (uint8 on the default grid).
    keys = sweep_keys(data, thresholds).astype(np.min_scalar_type(2 * n_grid + 1))
    size = 2 * (n_grid + 1)
    rows = max(1, min(_BLOCK_REPLICATES, _BLOCK_COUNTS // size))

    def run_block(start: int) -> np.ndarray:
        stop = min(start + rows, spec.replicates)
        counts = np.empty((stop - start, size), dtype=np.intp)
        # Numpy releases the GIL here; seed i is SeedSequence(seed).spawn(...)[i], made alone.
        for i in range(start, stop):
            rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
            counts[i - start] = np.bincount(keys[rng.integers(0, n, size=n)], minlength=size)
        tp, fp = tally_counts(counts)
        nb_pool[start:stop] = net_benefit_counts(tp, fp, n, thresholds)
        # NaN where nobody is selected: such replicates leave the PPV pool.
        ppv_pool[start:stop] = ppv_counts(tp, tp + fp, empty=np.nan)
        return np.count_nonzero(tp + fp, axis=0)

    # Imported here, so that importing the CLI loads neither module.
    from concurrent.futures import ThreadPoolExecutor
    from fractions import Fraction

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        # Each block returns its PPV pool sizes; reading them re-raises its exception.
        ppv_used = sum(pool.map(run_block, range(0, spec.replicates, rows))).tolist()

    q_lo = (1 - Fraction(repr(spec.level))) / 2
    q_hi = 1 - q_lo
    nb_pool.sort(axis=0)
    ppv_pool.sort(axis=0)  # NaN, a replicate out of the PPV pool, sorts last
    nb_used = [spec.replicates] * n_grid

    return CurveBand(
        spec=spec,
        thresholds=tuple(float(t) for t in grid.points),
        nb_lower=_nearest_rank(nb_pool, nb_used, q_lo),
        nb_upper=_nearest_rank(nb_pool, nb_used, q_hi),
        ppv_lower=_nearest_rank(ppv_pool, ppv_used, q_lo),
        ppv_upper=_nearest_rank(ppv_pool, ppv_used, q_hi),
        ppv_replicates=tuple(ppv_used),
    )
