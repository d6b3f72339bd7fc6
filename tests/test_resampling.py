import itertools
import math
import os
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dcakit import (
    DEFAULT_GRID,
    BandSpec,
    CurveBand,
    DataError,
    ModelCurve,
    PredictionSet,
    ReportDocument,
    ThresholdGrid,
    bootstrap_bands,
    decision_curve,
    emit_report,
)
from dcakit import resampling
from dcakit.cli import cli_main
from dcakit.curves import curve_columns
from dcakit.metrics import sweep_keys, tally_counts
from dcakit.resampling import MAX_BAND_CELLS, MAX_REPLICATES
from masked import masked_confusion

FINE_GRID = ThresholdGrid(0.001, 0.999, 0.001)
# 1,999 thresholds, 4,000 counts per replicate: the 2**16-count limit makes
# blocks of 16 replicates, not 64.
BLOCK_GRID = ThresholdGrid(0.0005, 0.9995, 0.0005)


def grid_tally(data, grid):
    """tp and fp per threshold of ``grid``, tallied from one bincount of the sweep keys."""
    keys = sweep_keys(data, grid.points)
    return tally_counts(np.bincount(keys, minlength=2 * len(grid.points) + 2))


def reference_pools(data, grid, spec):
    """Slow reference: per replicate, gather cut indices and outcomes and
    count events and non-events with two boolean-masked bincounts. Returns
    each threshold's nb values and its PPV values where anyone is selected."""
    thresholds = np.asarray(grid.points)
    n_grid, n = len(thresholds), data.n
    cuts = np.searchsorted(thresholds, data.risks, side="right")
    nb_pool, ppv_pool = [], []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.replicates):
        idx = np.random.Generator(np.random.PCG64(child)).integers(0, n, size=n)
        rep_cuts, events = cuts[idx], data.outcomes[idx] == 1
        by_cut_1 = np.bincount(rep_cuts[events], minlength=n_grid + 1)
        by_cut_0 = np.bincount(rep_cuts[~events], minlength=n_grid + 1)
        tp = by_cut_1.sum() - np.cumsum(by_cut_1)[:n_grid]
        fp = by_cut_0.sum() - np.cumsum(by_cut_0)[:n_grid]
        nb_pool.append(tp / n - (fp / n) * (thresholds / (1.0 - thresholds)))
        positives = tp + fp
        ppv_pool.append([tp[j] / positives[j] if positives[j] else None
                         for j in range(n_grid)])
    nb_cols = [[float(row[j]) for row in nb_pool] for j in range(n_grid)]
    ppv_cols = [[row[j] for row in ppv_pool if row[j] is not None] for j in range(n_grid)]
    return nb_cols, ppv_cols


def reference_bands(data, grid, spec):
    """Nearest-rank bands over reference_pools, with q exact from the level's text."""
    def rank(values, q):
        values = sorted(values)
        return float(values[min(max(math.ceil(q * len(values)), 1), len(values)) - 1])

    nb_cols, ppv_cols = reference_pools(data, grid, spec)
    q_lo = (1 - Fraction(repr(spec.level))) / 2
    return CurveBand(
        spec=spec,
        thresholds=tuple(grid.points),
        nb_lower=tuple(rank(col, q_lo) for col in nb_cols),
        nb_upper=tuple(rank(col, 1 - q_lo) for col in nb_cols),
        ppv_lower=tuple(rank(col, q_lo) if col else None for col in ppv_cols),
        ppv_upper=tuple(rank(col, 1 - q_lo) if col else None for col in ppv_cols),
        ppv_replicates=tuple(len(col) for col in ppv_cols),
    )


def seeded_cohort(n, decimals, seed=2024):
    """beta(2,5) risks rounded to the grid's resolution, Bernoulli outcomes."""
    rng = np.random.default_rng(seed)
    risks = np.round(rng.beta(2, 5, n), decimals)
    return PredictionSet(risks=risks, outcomes=(rng.random(n) < risks).astype(int))


class TestBandSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(replicates=0), dict(seed=-1), dict(level=0.0), dict(level=1.0),
         dict(method="bca")],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DataError):
            BandSpec(**kwargs)

    def test_defaults(self):
        spec = BandSpec()
        assert (spec.replicates, spec.level, spec.method) == (1000, 0.95, "percentile")

    @pytest.mark.parametrize(
        "kwargs",
        [dict(replicates=10.0), dict(replicates=True), dict(replicates="5"),
         dict(replicates=None), dict(seed=1.5), dict(seed=False), dict(seed=np.True_),
         dict(seed=np.float64(2)), dict(level="0.9"), dict(level=None),
         dict(level=complex(0.9)), dict(level=math.nan), dict(level=10**400),
         dict(level=Fraction(1, 10**400))],
        ids=lambda kwargs: "-".join(f"{k}={type(v).__name__}" for k, v in kwargs.items()),
    )
    def test_refuses_what_it_cannot_use(self, kwargs):
        with pytest.raises(DataError):
            BandSpec(**kwargs)

    def test_normalizes_integers_and_reals(self):
        spec = BandSpec(replicates=np.int64(5), seed=np.uint8(3), level=Fraction(9, 10))
        assert spec == BandSpec(replicates=5, seed=3, level=0.9)
        assert [type(v) for v in (spec.replicates, spec.seed, spec.level)] == [int, int, float]
        assert type(BandSpec(level=np.float32(0.5)).level) is float

    def test_numpy_integer_spec_reports_as_written(self, d0):
        grid = ThresholdGrid(0.1, 0.5, 0.1)

        def report(spec):
            doc = ReportDocument(
                metadata={"tool": "dcakit", "options": {}},
                models=(ModelCurve(name=d0.name, points=curve_columns(d0, grid)),),
                bands={d0.name: bootstrap_bands(d0, grid, spec)},
            )
            return emit_report(doc, "json")

        assert report(BandSpec(replicates=np.int64(5), seed=np.int64(2))) == report(
            BandSpec(replicates=5, seed=2))


class TestGridCounts:
    def test_matches_classify_per_threshold(self, d0):
        grid = ThresholdGrid(0.05, 0.95, 0.05)
        tp, fp = grid_tally(d0, grid)
        for j, t in enumerate(grid.points):
            c = masked_confusion(d0, t)
            assert (tp[j], fp[j]) == (c.tp, c.fp)

    def test_random_data(self):
        rng = np.random.default_rng(7)
        data = PredictionSet(
            risks=rng.random(300), outcomes=(rng.random(300) < 0.3).astype(int)
        )
        grid = ThresholdGrid(0.01, 0.99, 0.01)
        tp, fp = grid_tally(data, grid)
        for j, t in enumerate(grid.points):
            c = masked_confusion(data, t)
            assert (tp[j], fp[j]) == (c.tp, c.fp)


class TestBootstrapBands:
    def test_single_replicate_degenerates(self, d0):
        band = bootstrap_bands(d0, ThresholdGrid(0.2, 0.4, 0.1),
                               BandSpec(replicates=1, seed=0))
        assert band.nb_lower == band.nb_upper
        assert band.ppv_lower == band.ppv_upper

    def test_constant_dataset_zero_width(self):
        data = PredictionSet(risks=np.full(20, 0.3), outcomes=np.ones(20, dtype=int))
        band = bootstrap_bands(data, ThresholdGrid(0.1, 0.5, 0.1),
                               BandSpec(replicates=200, seed=1))
        assert band.nb_lower == band.nb_upper
        assert band.ppv_lower == band.ppv_upper

    def test_d0_regression_band(self, d0):
        # Frozen output of the seeded procedure; also brackets the point
        # estimate nb = 0.1 at t = 0.5.
        band = bootstrap_bands(d0, ThresholdGrid(0.5, 0.5, 0.01),
                               BandSpec(replicates=2000, seed=42, level=0.95))
        assert band.nb_lower == (-0.30000000000000004,)
        assert band.nb_upper == (0.5,)
        assert band.ppv_lower == (0.0,)
        assert band.ppv_upper == (1.0,)
        assert band.ppv_replicates == (1997,)
        assert band.nb_lower[0] <= 0.1 <= band.nb_upper[0]

    def test_deterministic(self, d0):
        grid = ThresholdGrid(0.1, 0.5, 0.1)
        spec = BandSpec(replicates=300, seed=9)
        assert bootstrap_bands(d0, grid, spec) == bootstrap_bands(d0, grid, spec)

    def test_level_nesting(self, d0):
        grid = ThresholdGrid(0.05, 0.5, 0.05)
        narrow = bootstrap_bands(d0, grid, BandSpec(replicates=500, seed=3, level=0.90))
        wide = bootstrap_bands(d0, grid, BandSpec(replicates=500, seed=3, level=0.95))
        for j in range(len(grid.points)):
            assert wide.nb_lower[j] <= narrow.nb_lower[j]
            assert narrow.nb_upper[j] <= wide.nb_upper[j]

    def test_lower_never_exceeds_upper(self, d0):
        band = bootstrap_bands(d0, ThresholdGrid(0.05, 0.95, 0.05),
                               BandSpec(replicates=400, seed=5))
        for lo, hi in zip(band.nb_lower, band.nb_upper):
            assert lo <= hi
        for lo, hi in zip(band.ppv_lower, band.ppv_upper):
            if lo is not None:
                assert lo <= hi

    def test_ppv_exclusion_recorded(self):
        # With one high-risk record, many resamples omit it and select
        # nobody at high thresholds; those replicates leave the PPV pool.
        data = PredictionSet(
            risks=np.array([0.9] + [0.1] * 19),
            outcomes=np.array([1] + [0] * 19),
        )
        band = bootstrap_bands(data, ThresholdGrid(0.8, 0.8, 0.1),
                               BandSpec(replicates=500, seed=11))
        assert band.ppv_replicates[0] < 500
        assert band.ppv_replicates[0] > 0

    def test_empty_ppv_pool_yields_absent_band(self):
        # No record can ever reach t = 0.8, so every replicate is excluded.
        data = PredictionSet(
            risks=np.array([0.1, 0.2, 0.3, 0.15]), outcomes=np.array([0, 1, 0, 1])
        )
        band = bootstrap_bands(data, ThresholdGrid(0.8, 0.8, 0.1),
                               BandSpec(replicates=100, seed=2))
        assert band.ppv_replicates == (0,)
        assert band.ppv_lower == (None,)
        assert band.ppv_upper == (None,)
        # The nb pool is never excluded: nb is 0 with nobody selected.
        assert band.nb_lower == (0.0,)
        assert band.nb_upper == (0.0,)

    def test_requires_two_records(self):
        data = PredictionSet(risks=np.array([0.5]), outcomes=np.array([1]))
        with pytest.raises(DataError):
            bootstrap_bands(data, ThresholdGrid(0.5, 0.5, 0.1), BandSpec(replicates=10))

    def test_band_thresholds_align_with_curve(self, d0):
        grid = ThresholdGrid(0.1, 0.3, 0.1)
        band = bootstrap_bands(d0, grid, BandSpec(replicates=50, seed=1))
        points = decision_curve(d0, grid)
        assert band.thresholds == tuple(p.t for p in points)


class TestBandsMatchReference:
    @pytest.mark.parametrize("grid,decimals", [(DEFAULT_GRID, 2), (FINE_GRID, 3)],
                             ids=["default", "fine"])
    def test_seeded_cohort(self, grid, decimals):
        # Risks rounded to the grid's resolution put many records exactly on
        # (or one rounding away from) a threshold.
        data = seeded_cohort(300, decimals)
        spec = BandSpec(replicates=120, seed=17, level=0.9)
        assert bootstrap_bands(data, grid, spec) == reference_bands(data, grid, spec)

    def test_ties_at_fifteen_hundredths(self):
        # The default grid's 15th point is exactly float("0.15"), so the twelve
        # risks of 0.15 tie it and count positive; both counts must agree.
        risks = np.array([0.15] * 12 + [0.14, 0.16, 0.5, 0.05])
        outcomes = np.array([1, 0] * 6 + [0, 1, 1, 0])
        data = PredictionSet(risks=risks, outcomes=outcomes)
        spec = BandSpec(replicates=300, seed=4)
        assert bootstrap_bands(data, DEFAULT_GRID, spec) == reference_bands(
            data, DEFAULT_GRID, spec)
        c = masked_confusion(data, DEFAULT_GRID.points[14])
        assert c.tp + c.fp == 14

    def test_rank_follows_the_level_as_written(self):
        # q = (1 - 0.949999999999)/2 = 0.0250000000005 exactly, so the lower
        # band of 1000 replicates is rank ceil(q * 1000) = 26, not 25.
        data = seeded_cohort(1000, 17)
        grid = ThresholdGrid(0.1, 0.3, 0.1)
        spec = BandSpec(replicates=1000, seed=8, level=0.949999999999)
        band = bootstrap_bands(data, grid, spec)
        assert band == reference_bands(data, grid, spec)
        cols = [sorted(col) for col in reference_pools(data, grid, spec)[0]]
        assert band.nb_lower == tuple(col[25] for col in cols)
        assert band.nb_upper == tuple(col[974] for col in cols)
        assert any(col[24] < col[25] for col in cols)


class TestWorkerThreads:
    """Replicates run in blocks on _worker_count() threads; the bands must
    not depend on how many."""

    SPEC = BandSpec(replicates=40, seed=23, level=0.9)

    @pytest.mark.parametrize("workers", [1, 2, 3, 41],
                             ids=["one", "two", "three", "more-than-replicates"])
    def test_any_worker_count_gives_the_reference(self, workers, monkeypatch):
        monkeypatch.setattr(resampling, "_worker_count", lambda: workers)
        data = seeded_cohort(300, 2)
        assert bootstrap_bands(data, DEFAULT_GRID, self.SPEC) == reference_bands(
            data, DEFAULT_GRID, self.SPEC)

    def test_worker_count_is_usable_cpus(self, monkeypatch):
        assert 1 <= resampling._worker_count() <= (os.cpu_count() or 1)
        monkeypatch.delattr(resampling.os, "sched_getaffinity", raising=False)
        assert resampling._worker_count() == (os.cpu_count() or 1)

    def test_oversubscribed_threads_under_fast_switching(self, monkeypatch):
        # 8 threads on few CPUs, switching every microsecond: a row lost or
        # written to the wrong replicate would change some band.
        monkeypatch.setattr(resampling, "_worker_count", lambda: 8)
        data = seeded_cohort(200, 2)
        spec = BandSpec(replicates=400, seed=31)
        expected = reference_bands(data, DEFAULT_GRID, spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline, runs = time.monotonic() + 3.0, 0
            while runs < 20 and (runs == 0 or time.monotonic() < deadline):
                assert bootstrap_bands(data, DEFAULT_GRID, spec) == expected
                runs += 1
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        calls = itertools.count()

        def failing_tally(counts):
            if next(calls) == 17:
                raise RuntimeError("the 18th tally failed")
            return tally_counts(counts)

        monkeypatch.setattr(resampling, "_worker_count", lambda: 3)
        monkeypatch.setattr(resampling, "_BLOCK_REPLICATES", 2)  # 20 blocks, one tally each
        monkeypatch.setattr(resampling, "tally_counts", failing_tally)
        with pytest.raises(RuntimeError, match="the 18th tally failed"):
            bootstrap_bands(seeded_cohort(50, 2), DEFAULT_GRID, self.SPEC)


class TestBlockLayout:
    """Blocks hold at most 64 replicates and 2**16 counts; the bands must not
    depend on where the blocks split the replicates, nor on the thread count."""

    @pytest.mark.parametrize("grid,rows", [(DEFAULT_GRID, 64), (BLOCK_GRID, 16)],
                             ids=["default", "2000-points"])
    @pytest.mark.parametrize("replicates", [1, 63, 64, 65, 129])
    def test_any_block_split_gives_the_reference(self, grid, rows, replicates, monkeypatch):
        data = seeded_cohort(300, 4)
        spec = BandSpec(replicates=replicates, seed=29, level=0.9)
        expected = reference_bands(data, grid, spec)
        for workers in (1, 3):
            tallied = []

            def recording_tally(counts):
                tallied.append(len(counts))
                return tally_counts(counts)

            monkeypatch.setattr(resampling, "_worker_count", lambda: workers)
            monkeypatch.setattr(resampling, "tally_counts", recording_tally)
            assert bootstrap_bands(data, grid, spec) == expected
            whole, rest = divmod(replicates, rows)
            assert sorted(tallied) == sorted([rows] * whole + [rest] * (rest > 0))


class TestBlockMemory:
    """What bootstrap_bands holds besides its two pools of replicates x
    thresholds doubles is bounded per worker and does not grow with the
    replicate count."""

    N = 20_000
    # Before any block runs, the sweep places the records: about 41 bytes a
    # record here, where all 20,000 are placed at once.
    SWEEP_BYTES = 48 * N
    # Per worker: the drawn indices, or bincount's intp copy of the gathered
    # keys, and the gathered keys (about 10 bytes a record), plus the block's
    # count matrix and its tally and net-benefit temporaries, each at most
    # 2**16 eight-byte values (about 4 of them).
    WORKER_BYTES = 16 * N + 6 * 8 * 2**16
    # Only the executor's futures, one per block and about 2 KB each, grow
    # with the replicates. A count matrix of all 640 replicates would add
    # 0.47 MB on the default grid and 18 MB on BLOCK_GRID.
    SAME_BYTES = 256 * 1024

    def traced_extra(self, data, grid, replicates):
        spec = BandSpec(replicates=replicates, seed=3)
        bootstrap_bands(data, grid, spec)  # imports and first-call caches, untraced
        tracemalloc.start()
        try:
            bootstrap_bands(data, grid, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - 2 * replicates * len(grid.points) * 8

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, BLOCK_GRID], ids=["default", "2000-points"])
    def test_bounded_per_worker_and_flat_in_replicates(self, grid, monkeypatch):
        data = seeded_cohort(self.N, 17)
        for workers in (1, 2):
            monkeypatch.setattr(resampling, "_worker_count", lambda: workers)
            few, many = (self.traced_extra(data, grid, r) for r in (64, 640))
            bound = self.SWEEP_BYTES + workers * self.WORKER_BYTES
            assert few <= bound and many <= bound, (few, many, bound)
            if workers == 1:  # with more, how far the blocks overlap varies
                assert abs(many - few) <= self.SAME_BYTES, (few, many)


class TestResourceCaps:
    @pytest.fixture
    def no_pools(self, monkeypatch):
        # A missing cap would spawn seeds and allocate the pools; fail at once.
        def refuse(*args, **kwargs):
            raise AssertionError("bootstrap allocated past the cap")

        monkeypatch.setattr(resampling.np.random, "SeedSequence", refuse)
        monkeypatch.setattr(resampling.np, "empty", refuse)
        monkeypatch.setattr(resampling.np, "full", refuse)

    def test_replicate_cap(self, d0, no_pools):
        with pytest.raises(DataError, match=str(MAX_REPLICATES)):
            bootstrap_bands(d0, ThresholdGrid(0.5, 0.5, 0.1),
                            BandSpec(replicates=MAX_REPLICATES + 1))

    def test_pool_cap(self, d0, no_pools):
        replicates = MAX_BAND_CELLS // len(FINE_GRID.points) + 1
        assert replicates <= MAX_REPLICATES
        with pytest.raises(DataError, match=str(MAX_BAND_CELLS)):
            bootstrap_bands(d0, FINE_GRID, BandSpec(replicates=replicates))

    def test_cli_exits_2(self, d0_csv_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bootstrap spawned seeds past the cap")

        monkeypatch.setattr(resampling.np.random, "SeedSequence", refuse)
        code = cli_main(["bootstrap", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1", "--grid", "0.5:0.5:0.1",
                         "--replicates", str(MAX_REPLICATES + 1)])
        assert code == 2
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,replicates,cap", [
        ("0.5:0.5:0.1", MAX_REPLICATES + 1, MAX_REPLICATES),
        ("0.0005:0.9995:0.0005", MAX_BAND_CELLS // 1999 + 1, MAX_BAND_CELLS),
    ], ids=["replicates", "pool"])
    def test_cli_refuses_before_reading_the_input(self, grid, replicates, cap, capsys):
        code = cli_main(["bootstrap", "--input", "/nonexistent/data.csv", "--outcome", "y",
                         "--models", "m1", "--grid", grid, "--replicates", str(replicates)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cap of {cap}" in err and "cannot read" not in err
