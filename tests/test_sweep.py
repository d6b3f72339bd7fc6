"""The threshold sweep against masked counting.

Every count in dcakit comes from sweep_counts: decision_curve and
compare_curve sweep the whole grid, and classify_at_threshold,
threshold_calibration, verdict_vs_defaults and compare_models are
one-point sweeps. The reference is tests/masked.py, which counts each
threshold with boolean masks and shares no code with the sweep.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcakit import (
    DEFAULT_GRID,
    DataError,
    PredictionSet,
    RouteDisagreementError,
    ThresholdError,
    ThresholdGrid,
    classify_at_threshold,
    compare_curve,
    compare_models,
    decision_curve,
    sweep_counts,
    threshold_calibration,
    verdict_vs_defaults,
)
from dcakit import ThresholdConfusion, comparison, curves, equivalences, metrics
from dcakit.cli import cli_main
from dcakit.curves import IDENTITY_TOL, MAX_GRID_POINTS
from dcakit.equivalences import decide_defaults
from dcakit.metrics import column_rows
from masked import (masked_calibration, masked_confusion, masked_risk_sums, reference_superiority,
                    reference_verdict)

FINE_GRID = ThresholdGrid(0.001, 0.999, 0.001)
GRIDS = (DEFAULT_GRID, FINE_GRID)

# Reproducer of d0 at t = 0.5: (tp, fp, tn, fn) = (3, 2, 4, 1).
D0_T_HALF = "t=1/2"
D0_COUNTS = "tp=3 fp=2 n1=4 n0=6"


def pair(risks1, risks2, outcomes):
    outcomes = np.array(outcomes)
    return (PredictionSet(risks=np.array(risks1, dtype=float), outcomes=outcomes, name="m1"),
            PredictionSet(risks=np.array(risks2, dtype=float), outcomes=outcomes, name="m2"))


def assert_close(a, b, tol):
    assert (a is None) == (b is None)
    if a is not None:
        assert abs(a - b) <= tol


def assert_calibration_close(got, want):
    """Counted fields equal; fields from risk sums equal up to summation order."""
    assert (got.t, got.s_t, got.y_above, got.y_below) == (
        want.t, want.s_t, want.y_above, want.y_below)
    assert_close(got.p_above, want.p_above, IDENTITY_TOL)
    assert_close(got.p_below, want.p_below, IDENTITY_TOL)
    # These three scale the p_above rounding by at most s_t/(1-t).
    tol = IDENTITY_TOL * max(1.0, got.t / (1.0 - got.t))
    for name in ("delta_t", "enrichment", "calibration_term"):
        assert_close(getattr(got, name), getattr(want, name), tol)


def assert_matches_oracle(grid, d1, d2):
    """The column path against the per-point reference, bit for bit: counts
    and every float field equal; the risk-sum fields up to summation order."""
    confusions = column_rows(ThresholdConfusion, sweep_counts(d1, grid.points).confusion())
    for t, c, point in zip(grid.points, confusions, decision_curve(d1, grid), strict=True):
        masked = masked_confusion(d1, t)
        assert c == masked
        verdict = reference_verdict(masked)
        assert decide_defaults(c) == verdict
        assert (point.t, point.nb_model, point.nb_all, point.s_t, point.ppv,
                point.ppv_none_ref, point.ppv_all_ref) == (
            t, verdict.nb, verdict.nb_all, verdict.s_t, verdict.ppv,
            verdict.ppv_none_ref, verdict.ppv_all_ref)
        assert_calibration_close(point.calibration, masked_calibration(d1, t))

    assert compare_curve(d1, d2, grid) == [
        reference_superiority(masked_confusion(d1, t), masked_confusion(d2, t))
        for t in grid.points]


@st.composite
def cohorts(draw):
    grid = draw(st.sampled_from(GRIDS))
    n = draw(st.integers(1, 25))
    risk = (st.sampled_from(grid.points) | st.sampled_from([0.0, 1.0])
            | st.floats(0.0, 1.0))
    outcome = draw(st.sampled_from([st.integers(0, 1), st.just(0), st.just(1)]))
    outcomes = draw(st.lists(outcome, min_size=n, max_size=n))
    risks1 = draw(st.lists(risk, min_size=n, max_size=n))
    risks2 = draw(st.lists(risk, min_size=n, max_size=n))
    return (grid, *pair(risks1, risks2, outcomes))


class TestKernelMatchesOracle:
    @given(cohort=cohorts())
    @settings(max_examples=40, deadline=None)
    def test_random_cohorts(self, cohort):
        assert_matches_oracle(*cohort)

    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "fine"])
    @pytest.mark.parametrize(
        "risks1,risks2,outcomes",
        [
            ([0.15], [0.5], [1]),  # n = 1, risks on grid points
            ([0.0, 1.0, 0.5, 0.01], [1.0, 0.0, 0.02, 0.5], [1, 0, 0, 1]),
            ([0.01, 0.15, 0.3, 0.5], [0.07, 0.07, 0.49, 0.5], [1, 1, 1, 1]),
            ([0.01, 0.15, 0.3, 0.5], [0.07, 0.07, 0.49, 0.5], [0, 0, 0, 0]),
            ([0.9, 0.8, 0.7, 0.6, 0.55, 0.4, 0.3, 0.2, 0.1, 0.05],
             [0.9, 0.8, 0.7, 0.3, 0.55, 0.4, 0.6, 0.2, 0.1, 0.05],
             [1, 1, 0, 1, 0, 1, 0, 0, 0, 0]),
        ],
        ids=["n1", "endpoints", "all-events", "no-events", "d0"],
    )
    def test_named_cohorts(self, grid, risks1, risks2, outcomes):
        assert_matches_oracle(grid, *pair(risks1, risks2, outcomes))

    def test_every_grid_point_tie_counts_positive(self):
        # One event scored exactly at each threshold: the sweep must see
        # j+1 records at or above grid point j, as classify does.
        points = np.asarray(FINE_GRID.points)
        data = PredictionSet(risks=points[::-1], outcomes=np.ones(len(points), dtype=int))
        sweep = sweep_counts(data, points)
        assert sweep.tp.tolist() == list(range(len(points), 0, -1))
        assert sweep.fp.tolist() == [0] * len(points)


class TestSweepCounts:
    def test_risk_sums_split_the_records(self, d0):
        sweep = sweep_counts(d0, [0.1, 0.5, 0.5, 0.9])
        assert sweep.risk_sum_above.tolist() == pytest.approx([4.55, 3.55, 3.55, 0.9])
        assert sweep.risk_sum_below.tolist() == pytest.approx([0.05, 1.05, 1.05, 3.7])
        assert (sweep.n, sweep.n1) == (10, 4)

    def test_below_sum_is_a_prefix_sum(self):
        # total - above would round 0.9 + 1e-20 - 0.9 to zero.
        data = PredictionSet(risks=np.array([0.9, 1e-20]), outcomes=np.array([1, 0]))
        assert sweep_counts(data, [0.5]).risk_sum_below.tolist() == [1e-20]

    @pytest.mark.parametrize("bad", [[0.0], [1.0], [0.2, float("nan")], [-0.1, 0.5]])
    def test_rejects_thresholds_outside_unit_interval(self, d0, bad):
        with pytest.raises(ThresholdError):
            sweep_counts(d0, bad)

    def test_rejects_decreasing_thresholds(self, d0):
        with pytest.raises(DataError, match="non-decreasing"):
            sweep_counts(d0, [0.2, 0.1])

    def test_rejects_two_dimensional_thresholds(self, d0):
        with pytest.raises(DataError):
            sweep_counts(d0, [[0.2, 0.3]])

    def test_validates_thresholds_once(self, d0, monkeypatch):
        calls = []
        real = metrics._check_thresholds

        def counted(thresholds):
            calls.append(thresholds)
            return real(thresholds)

        monkeypatch.setattr(metrics, "_check_thresholds", counted)
        sweep_counts(d0, FINE_GRID.points)
        assert len(calls) == 1


# The single-threshold entry points, each as a function of (data, t).
ONE_POINT = {
    "classify_at_threshold": classify_at_threshold,
    "threshold_calibration": threshold_calibration,
    "verdict_vs_defaults": verdict_vs_defaults,
    "compare_models": lambda data, t: compare_models(data, data, t),
}


@st.composite
def one_point_cases(draw):
    _, d1, d2 = draw(cohorts())
    tied = [r for r in d1.risks.tolist() if 0.0 < r < 1.0]
    t = draw((st.sampled_from(tied) if tied else st.nothing())
             | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return d1, d2, t


class TestOnePointPath:
    @pytest.mark.parametrize("name", ONE_POINT)
    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.5, float("nan")], ids=repr)
    def test_rejects_thresholds_outside_unit_interval(self, d0, name, t):
        message = f"threshold must lie strictly inside (0, 1), got {t!r}"
        with pytest.raises(ThresholdError, match=re.escape(message) + "$"):
            ONE_POINT[name](d0, t)

    def test_tie_at_fifteen_hundredths_counts_positive(self):
        data = PredictionSet(risks=np.array([0.15, 0.1]), outcomes=np.array([1, 0]))
        c = classify_at_threshold(data, 0.15)
        assert (c.tp, c.fp) == (1, 0)
        summary = threshold_calibration(data, 0.15)
        assert (summary.s_t, summary.y_above) == (0.5, 1.0)
        verdict = verdict_vs_defaults(data, 0.15)
        assert (verdict.s_t, verdict.ppv) == (0.5, 1.0)
        assert compare_models(data, data, 0.15).ppv1 == 1.0

    @given(case=one_point_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_masked_counts(self, case):
        d1, d2, t = case
        c = masked_confusion(d1, t)
        assert classify_at_threshold(d1, t) == c
        sweep = sweep_counts(d1, [t])
        above, below = masked_risk_sums(d1, t)
        assert abs(sweep.risk_sum_above[0] - above) <= IDENTITY_TOL
        assert abs(sweep.risk_sum_below[0] - below) <= IDENTITY_TOL
        assert_calibration_close(threshold_calibration(d1, t), masked_calibration(d1, t))
        assert verdict_vs_defaults(d1, t) == reference_verdict(c)
        assert compare_models(d1, d2, t) == reference_superiority(c, masked_confusion(d2, t))


def _tamper(c, **fields):
    # Counts no real classification can produce; the routes then disagree.
    for name, value in fields.items():
        object.__setattr__(c, name, value)
    return c


class TestReproducers:
    def test_verdict_route_disagreement(self, d0, monkeypatch):
        def classify(data, t):
            return _tamper(classify_at_threshold(data, t), n=5)

        monkeypatch.setattr(equivalences, "classify_at_threshold", classify)
        with pytest.raises(RouteDisagreementError) as info:
            verdict_vs_defaults(d0, 0.5)
        # Treat-all takes the tampered n, (n1, n - n1, 0, 0); only the
        # below margin reads d0's own tn + fn.
        assert str(info.value) == (
            "treat-all routes disagree at t=0.5 (net benefit: -1, ppv reference: -1, "
            f"above margin: -1, below margin: 1; reproduce with {D0_T_HALF}, "
            f"model1 {D0_COUNTS}, model2 tp=4 fp=1 n1=4 n0=1)")

    def test_below_group_route_disagreement(self, monkeypatch):
        # Nobody is selected, so net benefit and the below margins alone
        # decide treat-none; a tampered n moves only treat-none's below
        # margin, through its cells (0, 0, n - n1, n1).
        data = PredictionSet(risks=np.full(10, 0.1), outcomes=np.array([1] * 4 + [0] * 6))

        def classify(data, t):
            return _tamper(classify_at_threshold(data, t), n=7)

        monkeypatch.setattr(equivalences, "classify_at_threshold", classify)
        with pytest.raises(RouteDisagreementError) as info:
            verdict_vs_defaults(data, 0.5)
        assert str(info.value) == (
            "treat-none routes disagree at t=0.5 (net benefit: 0, below margin: 1; "
            f"reproduce with {D0_T_HALF}, model1 tp=0 fp=0 n1=4 n0=6, "
            "model2 tp=0 fp=0 n1=4 n0=3)")

    def test_treat_none_below_margin_disagreement(self, d0, monkeypatch):
        # tn 4 -> 2 shrinks d0's below group; treat-none's below margin, a
        # route the treat-none verdict gains from the shared kernel, sees it.
        def classify(data, t):
            return _tamper(classify_at_threshold(data, t), tn=2)

        monkeypatch.setattr(equivalences, "classify_at_threshold", classify)
        with pytest.raises(RouteDisagreementError) as info:
            verdict_vs_defaults(d0, 0.5)
        assert str(info.value) == (
            "treat-none routes disagree at t=0.5 (net benefit: 1, ppv reference: 1, "
            f"above margin: 1, below margin: -1; reproduce with {D0_T_HALF}, "
            "model1 tp=3 fp=2 n1=4 n0=4, model2 tp=0 fp=0 n1=4 n0=6)")

    def test_one_sided_below_margin_disagreement(self, d0, monkeypatch):
        # Model 2 selects everyone, so only model 1 has a below group; its
        # margin is still checked against model 2's exact 0.
        everyone = PredictionSet(risks=np.ones(d0.n), outcomes=d0.outcomes, name="all")

        def classify(data, t):
            c = classify_at_threshold(data, t)
            return _tamper(c, tn=0) if data is d0 else c

        monkeypatch.setattr(comparison, "classify_at_threshold", classify)
        with pytest.raises(RouteDisagreementError) as info:
            compare_models(d0, everyone, 0.5)
        assert str(info.value) == (
            "superiority routes disagree at t=0.5 (net benefit: 1, ppv reference: 1, "
            f"above margin: 1, below margin: -1; reproduce with {D0_T_HALF}, "
            "model1 tp=3 fp=2 n1=4 n0=2, model2 tp=4 fp=6 n1=4 n0=6)")

    def test_compare_route_disagreement(self, d0, d0_degraded, monkeypatch):
        def classify(data, t):
            c = classify_at_threshold(data, t)
            return _tamper(c, tn=0) if data is d0 else c

        monkeypatch.setattr(comparison, "classify_at_threshold", classify)
        with pytest.raises(RouteDisagreementError) as info:
            compare_models(d0, d0_degraded, 0.5)
        message = str(info.value)
        assert "below margin: -1" in message
        assert f"{D0_T_HALF}, model1 tp=3 fp=2 n1=4 n0=2" in message
        assert "model2 tp=2 fp=3 n1=4 n0=6" in message

    def test_point_identity_violation(self, d0, monkeypatch):
        # The identity check's input: the calibration columns.
        real = curves.calibration_columns

        def skewed(c, above, below):
            summary = real(c, above, below)
            return dataclasses.replace(summary, y_below=summary.y_below + 0.1)

        monkeypatch.setattr(curves, "calibration_columns", skewed)
        with pytest.raises(RouteDisagreementError) as info:
            decision_curve(d0, ThresholdGrid(0.5, 0.5, 0.1))
        message = str(info.value)
        assert "treat-all margin vs below-group rate" in message
        assert f"{D0_T_HALF}, {D0_COUNTS}" in message


class TestColumnChecks:
    """Every route and every identity runs at every threshold of a grid."""

    @pytest.mark.parametrize("path,field,label,counts", [
        # Nobody is selected at t = 0.999. Six extra false negatives turn
        # d0's below margin against treat-none's, which takes n1 = tp + fn;
        # six extra true negatives turn model 1's below margin against
        # model 2's. Net benefit reads 0 on both sides. Each id names the
        # path, the tampered field and the tampered side's counts.
        pytest.param("curves", "fn", "treat-none",
                     "model1 tp=0 fp=0 n1=10 n0=6, model2 tp=0 fp=0 n1=10 n0=0",
                     id="curves-fn-tp=0 fp=0 n1=10 n0=6"),
        pytest.param("compare", "tn", "superiority",
                     "model1 tp=0 fp=0 n1=4 n0=12, model2 tp=0 fp=0 n1=4 n0=6",
                     id="compare-tn-model1 tp=0 fp=0 n1=4 n0=12"),
    ])
    def test_tampered_count_at_last_threshold(self, d0, d0_degraded, path, field, label, counts,
                                              monkeypatch):
        module, kernel = {"curves": (curves, "defaults_columns"),
                          "compare": (comparison, "superiority_columns")}[path]
        real = getattr(module, kernel)

        def tampered(c, *rest):
            column = getattr(c, field).copy()
            column[-1] += 6
            object.__setattr__(c, field, column)
            return real(c, *rest)

        monkeypatch.setattr(module, kernel, tampered)
        with pytest.raises(RouteDisagreementError) as info:
            if path == "curves":
                decision_curve(d0, FINE_GRID)
            else:
                compare_curve(d0, d0_degraded, FINE_GRID)
        last = FINE_GRID.points[-1]
        num, den = last.as_integer_ratio()
        assert str(info.value) == (
            f"{label} routes disagree at t={last!r} (net benefit: 0, below margin: 1; "
            f"reproduce with t={num}/{den}, {counts})")

    def test_nan_risk_sum_fails_closed(self, d0, monkeypatch):
        # abs(nan) > tol is False: a NaN residual must still count as a
        # violation, not pass every check and reach the report.
        real = curves.sweep_counts

        def poisoned(data, thresholds):
            sweep = real(data, thresholds)
            return dataclasses.replace(sweep,
                                       risk_sum_above=np.full_like(sweep.risk_sum_above, np.nan))

        monkeypatch.setattr(curves, "sweep_counts", poisoned)
        with pytest.raises(RouteDisagreementError) as info:
            decision_curve(d0, ThresholdGrid(0.5, 0.5, 0.1))
        message = str(info.value)
        assert "enrichment + calibration term closure" in message
        assert f"{D0_T_HALF}, {D0_COUNTS}" in message


class TestGridCap:
    @pytest.fixture
    def no_points(self, monkeypatch):
        # A missing cap would build the point list; fail at once instead.
        def refuse(*args):
            raise AssertionError("grid points built past the cap")

        monkeypatch.setattr(curves, "_grid_points", refuse)

    @pytest.mark.parametrize("step", [1e-5, 1e-12, 5e-324])
    def test_oversized_grid_is_refused(self, no_points, step):
        with pytest.raises(DataError, match=str(MAX_GRID_POINTS)):
            ThresholdGrid(0.001, 0.999, step)

    def test_cli_exits_2(self, no_points, d0_csv_path, capsys):
        code = cli_main(["curves", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1", "--grid", "0.001:0.999:0.00000001"])
        assert code == 2
        assert "thresholds" in capsys.readouterr().err

    def test_largest_grid_is_built(self):
        assert len(ThresholdGrid(0.0001, 0.9999, 0.0001).points) == 9999
