import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcakit import (
    DEFAULT_GRID,
    DataError,
    PredictionSet,
    SyntheticSpec,
    ThresholdGrid,
    UsageError,
    decision_curve,
    generate_synthetic,
    net_benefit,
    sweep_counts,
    verdict_vs_defaults,
)
from masked import masked_confusion

TOL = 1e-12

records = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=1, max_size=30
)


def make_set(recs):
    risks, outcomes = zip(*recs)
    return PredictionSet(risks=np.array(risks), outcomes=np.array(outcomes))


class TestThresholdGrid:
    def test_default_grid(self):
        points = DEFAULT_GRID.points
        assert len(points) == 50
        assert points[0] == 0.01
        assert points[-1] == pytest.approx(0.50, abs=1e-12)

    def test_single_point(self):
        grid = ThresholdGrid(0.5, 0.5, 0.01)
        assert grid.points == (0.5,)

    def test_points_stay_within_bounds(self):
        grid = ThresholdGrid(0.05, 0.35, 0.1)
        assert all(0.05 <= t <= 0.35 for t in grid.points)
        assert len(grid.points) == 4

    @pytest.mark.parametrize(
        "lo,hi,step",
        [(0.0, 0.5, 0.01), (0.5, 1.0, 0.01), (0.6, 0.5, 0.01), (0.1, 0.5, 0.0),
         (0.1, 0.5, -0.1), (0.1, 0.5, float("inf")), (0.1, 0.5, float("nan"))],
    )
    def test_invalid_grids(self, lo, hi, step):
        with pytest.raises(DataError):
            ThresholdGrid(lo, hi, step)

    @pytest.mark.parametrize(
        "grid, places",
        [(DEFAULT_GRID, 2), (ThresholdGrid.from_string("0.001:0.999:0.001"), 3)],
    )
    def test_points_are_their_decimals_and_ties_count_positive(self, grid, places):
        first = round(grid.lo * 10**places)
        texts = [f"0.{k:0{places}d}" for k in range(first, first + len(grid.points))]
        assert grid.points == tuple(float(text) for text in texts)
        assert grid.points[-1] == grid.hi
        # One record at each decimal risk: at the j-th threshold the records
        # from j on tie or exceed it, so all of them count positive.
        risks = np.array([float(text) for text in texts])
        data = PredictionSet(risks=risks, outcomes=np.ones(len(risks), dtype=int))
        expected = len(risks) - np.arange(len(risks))
        assert sweep_counts(data, grid.points).tp.tolist() == expected.tolist()
        for j, t in enumerate(grid.points):
            assert masked_confusion(data, t).tp == expected[j]

    def test_from_string(self):
        grid = ThresholdGrid.from_string("0.05:0.25:0.05")
        assert grid.points == pytest.approx((0.05, 0.1, 0.15, 0.2, 0.25), abs=1e-12)

    @pytest.mark.parametrize("text, decimals", [("0.01:0.50:0.01", 2), ("0.1:0.9:0.1", 1),
                                                ("0.005:0.2:0.005", 3), ("0.1:0.5:0.025", 3),
                                                ("1e-05:0.5:0.01", 5)])
    def test_decimals_are_those_lo_and_step_are_written_with(self, text, decimals):
        grid = ThresholdGrid.from_string(text)
        assert grid.decimals == decimals
        assert len({f"{t:.{decimals}f}" for t in grid.points}) == len(grid.points)

    @pytest.mark.parametrize("text", ["0.1:0.5", "a:b:c", "0.1-0.5-0.1", ""])
    def test_from_string_rejects_malformed(self, text):
        with pytest.raises(UsageError):
            ThresholdGrid.from_string(text)


class TestDecisionCurve:
    def test_d0_single_point(self, d0):
        (point,) = decision_curve(d0, ThresholdGrid(0.5, 0.5, 0.01))
        assert point.nb_model == pytest.approx(0.1, abs=TOL)
        assert point.nb_all == pytest.approx(-0.2, abs=TOL)
        assert point.nb_none == 0.0
        assert point.ppv == pytest.approx(0.6, abs=TOL)
        assert point.ppv_all_ref == pytest.approx(0.3, abs=TOL)
        assert point.calibration.y_above == pytest.approx(0.6, abs=TOL)

    def test_full_selection_region(self, d0):
        grid = ThresholdGrid(0.01, 0.04, 0.01)
        points = decision_curve(d0, grid)
        treat_all_counts = masked_confusion(d0, 0.01)
        for point in points:
            assert point.s_t == 1.0
            assert point.ppv == pytest.approx(d0.prevalence, abs=TOL)
        assert points[0].nb_model == pytest.approx(net_benefit(treat_all_counts), abs=TOL)

    def test_empty_selection_region(self, d0):
        (point,) = decision_curve(d0, ThresholdGrid(0.95, 0.95, 0.01))
        assert point.nb_model == 0.0
        assert point.ppv == 0.0
        assert point.ppv_all_ref is None
        assert point.calibration.y_above is None

    def test_grid_order_preserved(self, d0):
        points = decision_curve(d0, DEFAULT_GRID)
        assert [p.t for p in points] == list(DEFAULT_GRID.points)

    def test_selection_rate_non_increasing(self, d0):
        points = decision_curve(d0, DEFAULT_GRID)
        rates = [p.s_t for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    @given(recs=records)
    @settings(max_examples=50, deadline=None)
    def test_identities_hold_on_random_data(self, recs):
        # decision_curve re-verifies every identity per point and raises
        # RouteDisagreementError on any failure.
        data = make_set(recs)
        points = decision_curve(data, ThresholdGrid(0.05, 0.95, 0.05))
        assert len(points) == 19
        rates = [p.s_t for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_ppv_curve_shares_points(self, d0):
        # The PPV curve and its two reference curves are fields of the
        # decision-curve points; each matches the per-threshold verdict.
        for point in decision_curve(d0, DEFAULT_GRID):
            verdict = verdict_vs_defaults(d0, point.t)
            assert (point.ppv, point.ppv_none_ref, point.ppv_all_ref) == (
                verdict.ppv, point.t, verdict.ppv_all_ref)

    def test_random_predictor_ppv_near_prevalence(self):
        rng = np.random.default_rng(20260811)
        n = 10_000
        outcomes = (rng.random(n) < 0.35).astype(int)
        risks = rng.random(n)  # independent of outcomes
        data = PredictionSet(risks=risks, outcomes=outcomes, name="noise")
        prevalence = data.prevalence
        for point in decision_curve(data, DEFAULT_GRID):
            assert point.ppv == pytest.approx(prevalence, abs=0.05)


class TestSyntheticGenerator:
    def test_zero_shift_is_identity(self):
        truth, reported = generate_synthetic(SyntheticSpec(n=500, seed=3))
        assert np.array_equal(truth.risks, reported.risks)
        assert np.array_equal(truth.outcomes, reported.outcomes)

    def test_positive_shift_raises_every_risk(self):
        spec = SyntheticSpec(n=2000, seed=11, distribution="beta", logit_shift=1.0)
        truth, reported = generate_synthetic(spec)
        assert np.all(reported.risks > truth.risks)

    def test_negative_shift_lowers_every_risk(self):
        spec = SyntheticSpec(n=2000, seed=11, distribution="beta", logit_shift=-1.0)
        truth, reported = generate_synthetic(spec)
        assert np.all(reported.risks < truth.risks)

    def test_outcomes_shared_between_truth_and_reported(self):
        spec = SyntheticSpec(n=1000, seed=5, logit_shift=0.7)
        truth, reported = generate_synthetic(spec)
        assert np.array_equal(truth.outcomes, reported.outcomes)

    def test_bit_for_bit_reproducibility(self):
        spec = SyntheticSpec(n=1000, seed=42, distribution="beta", logit_shift=0.5)
        first = generate_synthetic(spec)
        second = generate_synthetic(spec)
        for a, b in zip(first, second):
            assert np.array_equal(a.risks, b.risks)
            assert np.array_equal(a.outcomes, b.outcomes)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(n=100, seed=1))[0]
        b = generate_synthetic(SyntheticSpec(n=100, seed=2))[0]
        assert not np.array_equal(a.risks, b.risks)

    def test_beta_mean_matches_distribution(self):
        spec = SyntheticSpec(n=50_000, seed=9, distribution="beta", beta_a=2, beta_b=5)
        truth, _ = generate_synthetic(spec)
        assert truth.risks.mean() == pytest.approx(2 / 7, abs=0.01)
        assert truth.prevalence == pytest.approx(2 / 7, abs=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=0, seed=1), dict(n=10, seed=-1), dict(n=10, seed=1, distribution="gamma"),
         dict(n=10, seed=1, distribution="beta", beta_a=0.0)],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(DataError):
            SyntheticSpec(**kwargs)
