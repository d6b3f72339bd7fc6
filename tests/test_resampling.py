import math

import numpy as np
import pytest

from dcakit import (
    DEFAULT_GRID,
    BandSpec,
    CurveBand,
    DataError,
    PredictionSet,
    ThresholdGrid,
    bootstrap_bands,
    classify_at_threshold,
    decision_curve,
)
from dcakit import resampling
from dcakit.cli import cli_main
from dcakit.metrics import sweep_keys, tally_keys
from dcakit.resampling import MAX_BAND_CELLS, MAX_REPLICATES

FINE_GRID = ThresholdGrid(0.001, 0.999, 0.001)


def reference_bands(data, grid, spec):
    """Slow reference: per replicate, gather cut indices and outcomes and
    count events and non-events with two boolean-masked bincounts."""
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

    def rank(values, q):
        values = sorted(values)
        return float(values[min(max(math.ceil(q * len(values) - 1e-9), 1), len(values)) - 1])

    q_lo = (1.0 - spec.level) / 2.0
    nb_cols = [[float(row[j]) for row in nb_pool] for j in range(n_grid)]
    ppv_cols = [[row[j] for row in ppv_pool if row[j] is not None] for j in range(n_grid)]
    return CurveBand(
        spec=spec,
        thresholds=tuple(grid.points),
        nb_lower=tuple(rank(col, q_lo) for col in nb_cols),
        nb_upper=tuple(rank(col, 1.0 - q_lo) for col in nb_cols),
        ppv_lower=tuple(rank(col, q_lo) if col else None for col in ppv_cols),
        ppv_upper=tuple(rank(col, 1.0 - q_lo) if col else None for col in ppv_cols),
        ppv_replicates=tuple(len(col) for col in ppv_cols),
    )


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


class TestGridCounts:
    def test_matches_classify_per_threshold(self, d0):
        grid = ThresholdGrid(0.05, 0.95, 0.05)
        tp, fp = tally_keys(sweep_keys(d0, grid.points), len(grid.points))
        for j, t in enumerate(grid.points):
            c = classify_at_threshold(d0, t)
            assert (tp[j], fp[j]) == (c.tp, c.fp)

    def test_random_data(self):
        rng = np.random.default_rng(7)
        data = PredictionSet(
            risks=rng.random(300), outcomes=(rng.random(300) < 0.3).astype(int)
        )
        grid = ThresholdGrid(0.01, 0.99, 0.01)
        tp, fp = tally_keys(sweep_keys(data, grid.points), len(grid.points))
        for j, t in enumerate(grid.points):
            c = classify_at_threshold(data, t)
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
        rng = np.random.default_rng(2024)
        risks = np.round(rng.beta(2, 5, 300), decimals)
        data = PredictionSet(risks=risks, outcomes=(rng.random(300) < risks).astype(int))
        spec = BandSpec(replicates=120, seed=17, level=0.9)
        assert bootstrap_bands(data, grid, spec) == reference_bands(data, grid, spec)

    def test_ties_at_fifteen_hundredths(self):
        # The default grid's 15th point is 0.15000000000000002, so a risk of
        # exactly 0.15 falls below it; both counts must agree on that.
        risks = np.array([0.15] * 12 + [0.14, 0.16, 0.5, 0.05])
        outcomes = np.array([1, 0] * 6 + [0, 1, 1, 0])
        data = PredictionSet(risks=risks, outcomes=outcomes)
        spec = BandSpec(replicates=300, seed=4)
        assert bootstrap_bands(data, DEFAULT_GRID, spec) == reference_bands(
            data, DEFAULT_GRID, spec)
        c = classify_at_threshold(data, DEFAULT_GRID.points[14])
        assert c.tp + c.fp == 2


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
