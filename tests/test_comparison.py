import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcakit import (
    PredictionSet,
    ThresholdGrid,
    UndefinedAtThresholdError,
    UsageError,
    classify_at_threshold,
    compare_curve,
    compare_models,
    net_benefit_treat_all,
    ppv,
    ppv_superiority_reference,
    sweep_counts,
    verdict_vs_defaults,
)
from dcakit import metrics
from dcakit.comparison import default_losses, loss_runs

TOL = 1e-12

thresholds = st.floats(1e-6, 1.0 - 1e-6) | st.sampled_from([0.125, 0.25, 0.5, 0.75])


@st.composite
def model_pairs(draw):
    n = draw(st.integers(2, 30))
    outcomes = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    risks1 = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    risks2 = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    return (
        PredictionSet(risks=risks1, outcomes=outcomes, name="m1"),
        PredictionSet(risks=risks2, outcomes=outcomes, name="m2"),
    )


def exact_nb(c, t):
    ft = Fraction(t)
    return Fraction(c.tp, c.n) - Fraction(c.fp, c.n) * ft / (1 - ft)


class TestCompareModels:
    def test_self_comparison_is_tie(self, d0):
        v = compare_models(d0, d0, 0.5)
        assert v.winner == "tie"
        assert v.nb1 == v.nb2
        assert v.margin_above_1 == v.margin_above_2
        assert v.margin_below_1 == v.margin_below_2

    def test_d0_beats_degraded(self, d0, d0_degraded):
        c = classify_at_threshold(d0_degraded, 0.5)
        assert (c.tp, c.fp) == (2, 3)
        v = compare_models(d0, d0_degraded, 0.5)
        assert v.winner == "model1"
        assert v.nb1 == pytest.approx(0.1, abs=TOL)
        assert v.nb2 == pytest.approx(-0.1, abs=TOL)
        assert v.ppv_superiority_ref == pytest.approx(0.4, abs=TOL)
        assert v.ppv1 == pytest.approx(0.6, abs=TOL)
        assert v.ppv1 > v.ppv_superiority_ref

    def test_mismatched_outcomes_rejected(self, d0):
        other = PredictionSet(
            risks=d0.risks.copy(), outcomes=np.array([1, 1, 0, 1, 0, 1, 0, 0, 0, 1])
        )
        with pytest.raises(UsageError):
            compare_models(d0, other, 0.5)

    def test_mismatched_length_rejected(self, d0):
        other = PredictionSet(risks=np.array([0.5]), outcomes=np.array([1]))
        with pytest.raises(UsageError):
            compare_models(d0, other, 0.5)

    def test_zero_positive_model1_falls_back_to_nb(self, d0):
        shy = PredictionSet(risks=np.full(10, 0.01), outcomes=d0.outcomes, name="shy")
        v = compare_models(shy, d0, 0.5)
        assert v.ppv_route_available is False
        assert v.ppv_superiority_ref is None
        assert v.winner == "model2"  # nb 0 vs 0.1

    @given(pair=model_pairs(), t=thresholds)
    @settings(max_examples=200)
    def test_winner_matches_rational_oracle(self, pair, t):
        d1, d2 = pair
        v = compare_models(d1, d2, t)  # raises if the two counts disagree
        nb1 = exact_nb(classify_at_threshold(d1, t), t)
        nb2 = exact_nb(classify_at_threshold(d2, t), t)
        if v.winner == "model1":
            assert nb1 > nb2
        elif v.winner == "model2":
            assert nb2 > nb1
        else:
            assert abs(float(nb1 - nb2)) <= TOL

    @given(pair=model_pairs(), t=thresholds)
    @settings(max_examples=200)
    def test_antisymmetry(self, pair, t):
        d1, d2 = pair
        forward = compare_models(d1, d2, t)
        backward = compare_models(d2, d1, t)
        mirrored = {"model1": "model2", "model2": "model1", "tie": "tie"}
        assert backward.winner == mirrored[forward.winner]

    @given(pair=model_pairs(), t=thresholds)
    @settings(max_examples=200)
    def test_margin_routes_match_oracle(self, pair, t):
        d1, d2 = pair
        v = compare_models(d1, d2, t)
        c1 = classify_at_threshold(d1, t)
        c2 = classify_at_threshold(d2, t)
        ft = Fraction(t)
        if v.margin_above_1 is not None and v.margin_above_2 is not None:
            m1 = Fraction(c1.tp + c1.fp, c1.n) * (Fraction(c1.tp, c1.tp + c1.fp) - ft)
            m2 = Fraction(c2.tp + c2.fp, c2.n) * (Fraction(c2.tp, c2.tp + c2.fp) - ft)
            if v.winner == "model1":
                assert m1 > m2
            elif v.winner == "model2":
                assert m2 > m1

    @given(
        n=st.integers(3, 20),
        data=st.data(),
        t=thresholds,
    )
    @settings(max_examples=150)
    def test_equal_selection_rate_simplification(self, n, data, t):
        # Permuting one risk column preserves the risk multiset, so both
        # models select the same count at every threshold; the winner is
        # then decided by the above-group event rate alone.
        outcomes = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        risks = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
        perm = np.array(data.draw(st.permutations(range(n))))
        d1 = PredictionSet(risks=risks, outcomes=outcomes, name="m1")
        d2 = PredictionSet(risks=risks[perm], outcomes=outcomes, name="m2")
        c1 = classify_at_threshold(d1, t)
        c2 = classify_at_threshold(d2, t)
        assert c1.tp + c1.fp == c2.tp + c2.fp
        v = compare_models(d1, d2, t)
        pos = c1.tp + c1.fp
        if v.winner == "model1":
            assert c1.tp > c2.tp  # equal pos: y_above ordering is tp ordering
        elif v.winner == "model2":
            assert c2.tp > c1.tp
        if 0 < pos < n and v.winner != "tie":
            y1_below = Fraction(c1.fn, c1.fn + c1.tn)
            y2_below = Fraction(c2.fn, c2.fn + c2.tn)
            if v.winner == "model1":
                assert y1_below < y2_below
            else:
                assert y2_below < y1_below


class TestPpvSuperiorityReference:
    def test_zero_nb_rival_reduces_to_diagonal(self):
        assert ppv_superiority_reference(0.0, 5, 10, 0.3) == pytest.approx(0.3, abs=TOL)

    def test_d0_hand_value(self):
        assert ppv_superiority_reference(-0.1, 5, 10, 0.5) == pytest.approx(0.4, abs=TOL)

    def test_undefined_without_positives(self):
        with pytest.raises(UndefinedAtThresholdError):
            ppv_superiority_reference(0.1, 0, 10, 0.5)

    @given(
        recs=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=2, max_size=30),
        t=thresholds,
    )
    def test_treat_all_boundary(self, recs, t):
        # A model selecting everyone has ppv equal to prevalence, which is
        # exactly the reference built from the treat-all net benefit.
        risks, outcomes = zip(*recs)
        data = PredictionSet(risks=np.full(len(recs), 0.995), outcomes=np.array(outcomes))
        if t >= 0.995:
            return
        c = classify_at_threshold(data, t)
        assert c.tp + c.fp == data.n
        nb_all = net_benefit_treat_all(data.prevalence, t)
        reference = ppv_superiority_reference(nb_all, data.n, data.n, t)
        assert reference == pytest.approx(ppv(c), abs=1e-9)


def test_one_point_calls_count_once(d0, d0_degraded, monkeypatch):
    """A one-point call validates one ThresholdConfusion per model, the
    column one its sweep gives, and builds its row by one column_rows."""
    counts = {"confusions": 0, "column_rows": 0}
    validate, rows = metrics.ThresholdConfusion.__post_init__, metrics.column_rows

    def counted_validate(self):
        counts["confusions"] += 1
        validate(self)

    def counted_rows(*args):
        counts["column_rows"] += 1
        return rows(*args)

    monkeypatch.setattr(metrics.ThresholdConfusion, "__post_init__", counted_validate)
    for name, module in list(sys.modules.items()):
        if name.startswith("dcakit") and getattr(module, "column_rows", None) is rows:
            monkeypatch.setattr(module, "column_rows", counted_rows)
    for call, expected in ((lambda: verdict_vs_defaults(d0, 0.5), 1),
                           (lambda: compare_models(d0, d0_degraded, 0.5), 2)):
        counts.update(confusions=0, column_rows=0)
        call()
        assert counts == {"confusions": expected, "column_rows": 1}


# Decimal grids, where ppv == t ties in floats but not exactly, and a dyadic
# one, where it ties exactly.
DECIMAL_GRIDS = [ThresholdGrid(0.1, 0.5, 0.1), ThresholdGrid(0.05, 0.95, 0.05),
                 ThresholdGrid(0.125, 0.875, 0.125)]


@st.composite
def graded_cohorts(draw):
    grid = draw(st.sampled_from(DECIMAL_GRIDS))
    n = draw(st.integers(1, 20))
    risk = st.sampled_from(grid.points) | st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    risks = draw(st.lists(risk, min_size=n, max_size=n))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return grid, PredictionSet(risks=np.array(risks), outcomes=np.array(outcomes))


def loses_to_constant_risk(data, risk, grid):
    """The demo's former route: compare_curve against a model that gives
    everyone ``risk``, 0.0 for treat-none and 1.0 for treat-all."""
    default = PredictionSet(risks=np.full(data.n, risk), outcomes=data.outcomes)
    return [v.winner == "model2" for v in compare_curve(data, default, grid)]


@settings(max_examples=300, deadline=None)
@given(case=graded_cohorts())
# ppv == t = 0.2 with tp = 1 and fp = 4: a float tie, exact sign -1.
@example(case=(DECIMAL_GRIDS[0], PredictionSet(np.full(5, 0.2), np.array([1, 0, 0, 0, 0]))))
# ppv == t = 0.25 exactly: exact sign 0.
@example(case=(DECIMAL_GRIDS[2], PredictionSet(np.full(4, 0.25), np.array([1, 0, 0, 0]))))
# Everyone selected (empty below group), then nobody (empty above group).
@example(case=(DECIMAL_GRIDS[1], PredictionSet(np.ones(3), np.array([1, 0, 0]))))
@example(case=(DECIMAL_GRIDS[1], PredictionSet(np.zeros(3), np.array([0, 1, 1]))))
def test_default_losses_match_constant_risk_models(case):
    grid, data = case
    loses_none, loses_all = default_losses(sweep_counts(data, grid.points))
    assert loses_none.tolist() == loses_to_constant_risk(data, 0.0, grid)
    assert loses_all.tolist() == loses_to_constant_risk(data, 1.0, grid)


def test_a_float_tie_with_treat_none_is_not_a_loss():
    # At t = 0.2 the float net benefit of tp = 1, fp = 4 is 0.0, while the
    # exact one is just below 0, since the double 0.2 exceeds 1/5: compare's
    # tie rule calls it a tie, and the exact sign alone would call it a loss.
    c = sweep_counts(PredictionSet(np.full(5, 0.2), np.array([1, 0, 0, 0, 0])), [0.2])
    assert metrics.net_benefit_order(c.t, (c.tp, c.fp), (0, 0)).tolist() == [-1]
    assert metrics.net_benefit_counts(c.tp, c.fp, c.n, c.t).tolist() == [0.0]
    assert [losses.tolist() for losses in default_losses(c)] == [[False], [False]]


@pytest.mark.parametrize("loses, runs", [
    ([False, False, False, False], []),
    ([True, True, True, True], [[0.1, 0.2, 0.3, 0.4]]),
    ([True, False, True, False], [[0.1], [0.3]]),
    ([False, True, False, True], [[0.2], [0.4]]),
    ([True, True, False, True], [[0.1, 0.2], [0.4]]),
])
def test_loss_runs_group_consecutive_losses(loses, runs):
    got = loss_runs(np.array([0.1, 0.2, 0.3, 0.4]), np.array(loses))
    assert got == runs
    assert all(type(t) is float for run in got for t in run)


@pytest.mark.parametrize("loses, runs", [([False], []), ([True], [[0.25]])])
def test_loss_runs_of_a_single_point(loses, runs):
    assert loss_runs(np.array([0.25]), np.array(loses)) == runs
