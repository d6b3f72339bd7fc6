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
from dcakit import ThresholdConfusion, curves, metrics
from dcakit.cli import cli_main
from dcakit.curves import IDENTITY_TOL, MAX_GRID_POINTS
from dcakit.equivalences import decide_defaults
from dcakit.metrics import column_rows, tally_counts
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
    confusions = column_rows(ThresholdConfusion, sweep_counts(d1, grid.points))
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
        assert (sweep.n, sweep.n1.tolist()) == (10, [4] * 4)

    def test_is_a_threshold_confusion_of_columns(self, d0):
        sweep = sweep_counts(d0, FINE_GRID.points)
        assert isinstance(sweep, ThresholdConfusion)
        assert sweep.t.tolist() == list(FINE_GRID.points)
        assert sweep.n1.tolist() == [d0.n1] * len(FINE_GRID.points)
        with pytest.raises(TypeError, match="unhashable"):
            hash(sweep)

    def test_counts_that_do_not_add_up_are_refused(self, d0):
        # Validated as any ThresholdConfusion is, when it is built.
        sweep = sweep_counts(d0, [0.1, 0.5])
        with pytest.raises(DataError, match="must sum to n"):
            dataclasses.replace(sweep, fn=sweep.fn + 1)

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

    @given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from(GRIDS))
    @settings(max_examples=20, deadline=None)
    def test_sorted_count_matches_masked(self, seed, grid):
        # Risks exactly at every grid point and one ulp either side of it.
        rng = np.random.default_rng(seed)
        points = np.asarray(grid.points)
        risks = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                                rng.random(50), [0.0, 1.0]])
        rng.shuffle(risks)
        data = PredictionSet(risks=risks, outcomes=(rng.random(risks.size) < rng.random()) * 1)
        sweep = sweep_counts(data, points)
        masked = [masked_confusion(data, t) for t in grid.points]
        assert sweep.fn.tolist() == [c.fn for c in masked]
        assert sweep.tn.tolist() == [c.tn for c in masked]

    @given(data=st.data(), grid=st.sampled_from(GRIDS))
    @settings(max_examples=100, deadline=None)
    def test_one_sort_count_matches_masked(self, data, grid):
        # Signed zeros, 1.0, subnormals, grid points and any risk in [0, 1].
        special = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 2.2250738585072e-308])
        risk = special | st.sampled_from(grid.points) | st.floats(0.0, 1.0)
        risks = np.array(data.draw(st.lists(risk, min_size=1, max_size=30)))
        outcomes = np.array(data.draw(st.lists(st.integers(0, 1), min_size=risks.size,
                                               max_size=risks.size)))
        thresholds = np.asarray(grid.points)
        fn, tn = metrics._count_below(PredictionSet(risks=risks, outcomes=outcomes), thresholds)
        for counted, outcome in ((fn, 1), (tn, 0)):
            assert counted.tolist() == [np.count_nonzero(risks[outcomes == outcome] < t)
                                        for t in thresholds.tolist()]

    def test_negative_zero_counts_below_every_threshold(self):
        # Read with its sign bit, an event's -0.0 would sort before every non-event.
        data = PredictionSet(risks=np.array([-0.0, 0.3, 0.6, -0.0, 0.2]),
                             outcomes=np.array([1, 0, 1, 0, 1]))
        sweep = sweep_counts(data, [0.1, 0.5])
        assert (sweep.fn.tolist(), sweep.tn.tolist()) == ([1, 2], [1, 2])
        assert (sweep.tp.tolist(), sweep.fp.tolist()) == ([2, 1], [1, 0])

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


def _left_keys(data, thresholds):
    # The sweep's keys with ties counted negative: risk > t selects.
    return np.searchsorted(thresholds, data.risks, side="left") * 2 + data.outcomes


def _right_sort(data, thresholds):
    # The sorted count with ties counted below: risk <= t is spared.
    return [np.searchsorted(np.sort(data.risks[data.outcomes == k]), thresholds, side="right")
            for k in (1, 0)]


def _swapped_sort(data, thresholds):
    # The sorted count with the classes swapped: fn and tn trade places.
    return [np.searchsorted(np.sort(data.risks[data.outcomes == k]), thresholds, side="left")
            for k in (0, 1)]


def _flipped_tally(counts):
    # The tally fed the counts of the opposite outcomes: tp and fp trade places.
    return tally_counts(counts.reshape(-1, 2)[:, ::-1].ravel())


def count_check(t, tp, fp, fn, tn, n1=4, n0=6):
    """The count check's message at ``t``; the defaults are d0's classes."""
    num, den = t.as_integer_ratio()
    return (f"sweep and sort counts disagree at t={t!r} (reproduce with t={num}/{den}, "
            f"sweep tp={tp} fp={fp}, sort fn={fn} tn={tn}, n1={n1} n0={n0})")


# d0 at its tied risk 0.55, a non-event, with ties counted negative by the
# sweep: the sweep misses it and the sort does not count it below.
D0_TIE_LEFT = count_check(0.55, tp=3, fp=1, fn=1, tn=4)

# Every path that counts through sweep_counts, as a function of d0 and d0_degraded;
# the grid paths hold d0's tied risk 0.55 between two clean thresholds.
TIE_GRID = ThresholdGrid(0.5, 0.6, 0.05)
COUNTED_PATHS = {
    "decision_curve": lambda d0, _: decision_curve(d0, TIE_GRID),
    "compare_curve": lambda d0, other: compare_curve(d0, other, TIE_GRID),
    "classify_at_threshold": lambda d0, _: classify_at_threshold(d0, 0.55),
    "threshold_calibration": lambda d0, _: threshold_calibration(d0, 0.55),
    "verdict_vs_defaults": lambda d0, _: verdict_vs_defaults(d0, 0.55),
    "compare_models": lambda d0, other: compare_models(d0, other, 0.55),
}


class TestReproducers:
    """A count that goes wrong is caught by the other count."""

    @pytest.mark.parametrize("path", COUNTED_PATHS)
    def test_tie_rule_mutation_fails_every_path(self, d0, d0_degraded, path, monkeypatch):
        monkeypatch.setattr(metrics, "_keys", _left_keys)
        with pytest.raises(RouteDisagreementError) as info:
            COUNTED_PATHS[path](d0, d0_degraded)
        assert str(info.value) == D0_TIE_LEFT

    def test_cli_curves_exits_3(self, d0_csv_path, monkeypatch, capsys):
        monkeypatch.setattr(metrics, "_keys", _left_keys)
        code = cli_main(["curves", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1", "--grid", "0.5:0.6:0.05"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"dcakit: internal invariant violation: {D0_TIE_LEFT}\n")

    def test_verdict_route_disagreement(self, d0, monkeypatch):
        monkeypatch.setattr(metrics, "tally_counts", _flipped_tally)
        with pytest.raises(RouteDisagreementError) as info:
            verdict_vs_defaults(d0, 0.5)
        assert str(info.value) == count_check(0.5, tp=2, fp=3, fn=1, tn=4)

    def test_below_group_route_disagreement(self, d0, monkeypatch):
        # The sorted count of the below group is the one that goes wrong.
        monkeypatch.setattr(metrics, "_count_below", _right_sort)
        with pytest.raises(RouteDisagreementError) as info:
            classify_at_threshold(d0, 0.55)
        assert str(info.value) == count_check(0.55, tp=3, fp=2, fn=1, tn=5)

    def test_treat_none_below_margin_disagreement(self, d0, monkeypatch):
        # The below group's rate, which the margins read, from swapped classes.
        monkeypatch.setattr(metrics, "_count_below", _swapped_sort)
        with pytest.raises(RouteDisagreementError) as info:
            verdict_vs_defaults(d0, 0.5)
        assert str(info.value) == count_check(0.5, tp=3, fp=2, fn=4, tn=1)

    def test_one_sided_below_margin_disagreement(self, d0, monkeypatch):
        # Model 2 selects everyone and has no tie, so only model 1's counts
        # disagree; the check names them.
        everyone = PredictionSet(risks=np.ones(d0.n), outcomes=d0.outcomes, name="all")
        assert classify_at_threshold(everyone, 0.55) == masked_confusion(everyone, 0.55)
        monkeypatch.setattr(metrics, "_keys", _left_keys)
        with pytest.raises(RouteDisagreementError) as info:
            compare_models(d0, everyone, 0.55)
        assert str(info.value) == D0_TIE_LEFT

    def test_compare_route_disagreement(self, d0, d0_degraded, monkeypatch):
        monkeypatch.setattr(metrics, "tally_counts", _flipped_tally)
        with pytest.raises(RouteDisagreementError) as info:
            compare_models(d0_degraded, d0, 0.5)
        assert str(info.value) == count_check(0.5, tp=3, fp=2, fn=2, tn=3)

    def test_point_identity_violation(self, d0, monkeypatch):
        # The identity check's input: the calibration columns.
        real = curves.calibration_columns

        def skewed(c):
            summary = real(c)
            return dataclasses.replace(summary, y_below=summary.y_below + 0.1)

        monkeypatch.setattr(curves, "calibration_columns", skewed)
        with pytest.raises(RouteDisagreementError) as info:
            decision_curve(d0, ThresholdGrid(0.5, 0.5, 0.1))
        message = str(info.value)
        assert "treat-all margin vs below-group rate" in message
        assert f"{D0_T_HALF}, {D0_COUNTS}" in message


class TestColumnChecks:
    """The count check and every identity run at every threshold of a grid."""

    @pytest.mark.parametrize("path,field,counts", [
        # Nobody is selected at t = 0.999, so the sweep gives tp = fp = 0,
        # and six extra below-group records are counted at that threshold
        # alone. Each id names the path, the tampered sort count and the
        # sums tp + fn and fp + tn that the check compares with n1 and n0.
        pytest.param("curves", "fn", dict(fn=10, tn=6), id="curves-fn-tp=0 fp=0 n1=10 n0=6"),
        pytest.param("compare", "tn", dict(fn=4, tn=12),
                     id="compare-tn-model1 tp=0 fp=0 n1=4 n0=12"),
    ])
    def test_tampered_count_at_last_threshold(self, d0, d0_degraded, path, field, counts,
                                              monkeypatch):
        real = metrics._count_below

        def tampered(data, thresholds):
            fn, tn = real(data, thresholds)
            column = {"fn": fn, "tn": tn}[field]
            column[-1] += 6
            return fn, tn

        monkeypatch.setattr(metrics, "_count_below", tampered)
        with pytest.raises(RouteDisagreementError) as info:
            if path == "curves":
                decision_curve(d0, FINE_GRID)
            else:
                compare_curve(d0, d0_degraded, FINE_GRID)
        assert str(info.value) == count_check(FINE_GRID.points[-1], tp=0, fp=0, **counts)

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
