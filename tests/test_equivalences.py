import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcakit import (
    DataError,
    InfeasibleNetBenefitError,
    PredictionSet,
    ThresholdConfusion,
    ThresholdError,
    UndefinedAtThresholdError,
    classify_at_threshold,
    net_benefit,
    ppv,
    ppv_bounds_given_nb,
    ppv_from_nb,
    treat_all_reference_ppv,
    treat_none_reference,
    verdict_vs_defaults,
)
from dcakit.equivalences import decide_defaults

TOL = 1e-12

records = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=1, max_size=40
)
thresholds = st.floats(1e-6, 1.0 - 1e-6) | st.sampled_from([0.125, 0.25, 0.5, 0.75])


def make_set(recs):
    risks, outcomes = zip(*recs)
    return PredictionSet(risks=np.array(risks), outcomes=np.array(outcomes))


def exact_nb(tp, fp, n, t):
    """Independent oracle: net benefit in rational arithmetic."""
    ft = Fraction(t)
    return Fraction(tp, n) - Fraction(fp, n) * ft / (1 - ft)


def exact_nb_all(n1, n0, n, t):
    ft = Fraction(t)
    return Fraction(n1, n) - Fraction(n0, n) * ft / (1 - ft)


class TestPpvFromNb:
    def test_d0_reconstruction(self, d0):
        c = classify_at_threshold(d0, 0.5)
        value = ppv_from_nb(net_benefit(c), c.tp + c.fp, c.n, 0.5)
        assert value == pytest.approx(ppv(c), abs=TOL)

    def test_zero_nb_collapses_to_threshold(self):
        assert ppv_from_nb(0.0, 5, 10, 0.3) == pytest.approx(0.3, abs=TOL)

    def test_no_positives_is_zero(self):
        assert ppv_from_nb(0.25, 0, 10, 0.3) == 0.0

    def test_invalid_positives(self):
        with pytest.raises(DataError):
            ppv_from_nb(0.1, 11, 10, 0.3)

    @given(recs=records, t=thresholds)
    def test_reconstruction_property(self, recs, t):
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        if c.tp + c.fp == 0:
            return
        value = ppv_from_nb(net_benefit(c), c.tp + c.fp, c.n, t)
        assert value == pytest.approx(ppv(c), abs=TOL)


class TestReferences:
    def test_diagonal(self):
        assert treat_none_reference(0.1) == 0.1
        assert treat_none_reference(0.5) == 0.5

    def test_diagonal_grid_sweep(self):
        ts = [i / 100 for i in range(1, 100)]
        assert [treat_none_reference(t) for t in ts] == ts

    def test_diagonal_domain(self):
        with pytest.raises(ThresholdError):
            treat_none_reference(0.0)

    def test_treat_all_reference_hand_value(self):
        assert treat_all_reference_ppv(0.4, 0.5, 0.5) == pytest.approx(0.3, abs=TOL)

    def test_meets_diagonal_at_prevalence(self):
        assert treat_all_reference_ppv(0.3, 0.6, 0.3) == pytest.approx(0.3, abs=TOL)

    def test_full_selection_gives_prevalence(self):
        assert treat_all_reference_ppv(0.4, 1.0, 0.2) == pytest.approx(0.4, abs=TOL)

    def test_undefined_at_zero_selection(self):
        with pytest.raises(UndefinedAtThresholdError):
            treat_all_reference_ppv(0.4, 0.0, 0.2)

    def test_not_clipped_to_unit_interval(self):
        # Reference values may leave [0, 1]; they are references, not probabilities.
        assert treat_all_reference_ppv(0.9, 0.05, 0.1) > 1.0
        assert treat_all_reference_ppv(0.05, 0.05, 0.9) < 0.0


class TestVerdict:
    def test_d0_beats_both_at_half(self, d0):
        v = verdict_vs_defaults(d0, 0.5)
        assert v.beats_none and v.beats_all
        assert v.nb == pytest.approx(0.1, abs=TOL)
        assert v.nb_all == pytest.approx(-0.2, abs=TOL)
        assert v.ppv == pytest.approx(0.6, abs=TOL)
        assert v.ppv_all_ref == pytest.approx(0.3, abs=TOL)
        assert v.s_t == 0.5

    def test_d0_loses_to_none_at_07(self, d0):
        v = verdict_vs_defaults(d0, 0.7)
        assert not v.beats_none
        assert v.nb == pytest.approx(-1.0 / 30.0, abs=TOL)
        assert v.ppv == pytest.approx(2.0 / 3.0, abs=TOL)
        assert v.ppv < 0.7

    @given(t=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    def test_perfect_predictor_beats_none_when_selecting(self, t):
        data = PredictionSet(
            risks=np.array([0.99, 0.98, 0.02, 0.01]), outcomes=np.array([1, 1, 0, 0])
        )
        v = verdict_vs_defaults(data, t)
        assert v.beats_none  # fp = 0 and at least one event selected

    def test_boundary_tie_does_not_beat(self):
        # ppv == t exactly: 3 events and 9 non-events above t = 0.25. The
        # float nb here rounds to a tiny positive value, so only exact
        # integer comparison classifies the boundary correctly.
        risks = np.array([0.3] * 12 + [0.1] * 4)
        outcomes = np.array([1] * 3 + [0] * 9 + [0] * 4)
        data = PredictionSet(risks=risks, outcomes=outcomes)
        c = classify_at_threshold(data, 0.25)
        assert (c.tp, c.fp) == (3, 9)
        assert ppv(c) == 0.25
        v = verdict_vs_defaults(data, 0.25)
        assert v.beats_none is False
        assert exact_nb(c.tp, c.fp, c.n, 0.25) == 0

    def test_no_positives(self, d0):
        v = verdict_vs_defaults(d0, 0.95)
        assert not v.beats_none
        assert v.ppv_all_ref is None
        assert v.s_t == 0.0
        # treat-all is negative here, so an empty selection still beats it
        assert v.beats_all == (v.nb_all < 0.0)

    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    def test_verdicts_match_rational_oracle(self, recs, t):
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        v = verdict_vs_defaults(data, t)  # raises if the two counts disagree
        nb = exact_nb(c.tp, c.fp, c.n, t)
        nb_all = exact_nb_all(data.n1, data.n0, data.n, t)
        assert v.beats_none == (nb > 0)
        assert v.beats_all == (nb > nb_all)
        if c.tp + c.fp > 0:
            assert (nb > 0) == (Fraction(c.tp, c.tp + c.fp) > Fraction(t))

    @pytest.mark.parametrize("t", [0.1, 0.25, 0.3, 1 / 3, 0.5, 0.7])
    def test_below_group_route_by_enumeration(self, t):
        # Every confusion with n <= 12: the treat-all verdict, an exact sign
        # of net benefits, reads the same from the below group's event rate.
        ft = Fraction(t)
        for n1, n0 in itertools.product(range(13), repeat=2):
            n = n1 + n0
            if not 0 < n <= 12:
                continue
            for tp, fp in itertools.product(range(n1 + 1), range(n0 + 1)):
                v = decide_defaults(
                    ThresholdConfusion(t=t, tp=tp, fp=fp, tn=n0 - fp, fn=n1 - tp, n=n))
                assert v.beats_all == (exact_nb(tp, fp, n, t) > exact_nb_all(n1, n0, n, t))
                if tp + fp < n:
                    assert v.beats_all == (Fraction(n1 - tp, n - tp - fp) < ft)


class TestPpvBounds:
    def test_zero_nb_two_point_set(self):
        interval = ppv_bounds_given_nb(0.0, 0.4, 0.3)
        assert interval.kind == "zero_nb_two_point"
        assert (interval.lower, interval.upper) == (0.0, 0.3)
        assert interval.contains(0.0) and interval.contains(0.3)
        assert not interval.contains(0.15)

    def test_d0_interval_matches_enumeration(self, d0):
        c = classify_at_threshold(d0, 0.5)
        nb = net_benefit(c)
        interval = ppv_bounds_given_nb(nb, d0.prevalence, 0.5)
        assert interval.contains(ppv(c), tol=TOL)
        # All integer (tp, fp) with the same nb at t = 0.5: tp - fp = 1.
        achieved = [
            tp / (tp + fp)
            for tp in range(0, d0.n1 + 1)
            for fp in range(0, d0.n0 + 1)
            if tp - fp == 1
        ]
        assert interval.lower == pytest.approx(min(achieved), abs=1e-9)
        assert interval.upper == pytest.approx(max(achieved), abs=1e-9)

    def test_maximal_nb_forces_ppv_one(self):
        interval = ppv_bounds_given_nb(0.4, 0.4, 0.5)
        assert interval.lower == pytest.approx(1.0, abs=TOL)
        assert interval.upper == 1.0

    def test_infeasible_above_prevalence(self):
        with pytest.raises(InfeasibleNetBenefitError):
            ppv_bounds_given_nb(0.5, 0.4, 0.5)

    @pytest.mark.parametrize("nb,prevalence", [(5e-13, 0.0), (-5e-13, 1.0)])
    def test_slack_band_at_degenerate_prevalence(self, nb, prevalence):
        # Only nb = 0 is feasible at prevalence 0 or 1; values inside the
        # feasibility slack snap to its two-point set instead of dividing 0/0.
        interval = ppv_bounds_given_nb(nb, prevalence, 0.3)
        assert interval.kind == "zero_nb_two_point"

    def test_degenerate_prevalence_with_feasible_nb(self):
        interval = ppv_bounds_given_nb(-0.1, 0.0, 0.5)
        assert interval.kind == "negative_nb"
        assert interval.upper == pytest.approx(0.0, abs=TOL)  # tp = 0 is forced
        interval = ppv_bounds_given_nb(0.3, 1.0, 0.5)
        assert interval.kind == "positive_nb"
        assert interval.lower == pytest.approx(1.0, abs=TOL)  # fp = 0 is forced

    def test_nan_nb_is_infeasible(self):
        # NaN fails every comparison, so the feasibility check must fail closed.
        with pytest.raises(InfeasibleNetBenefitError, match=r"^net benefit nan unattainable"):
            ppv_bounds_given_nb(float("nan"), 0.4, 0.5)

    def test_infeasible_below_floor(self):
        with pytest.raises(InfeasibleNetBenefitError):
            ppv_bounds_given_nb(-0.7, 0.4, 0.5)

    def test_floor_slack_scales_with_odds(self):
        # Past the floor by 1e-9 is rounding at odds ~1e5 but not at 1.
        t = 0.99999
        nb_min = -0.2 * (t / (1.0 - t))
        interval = ppv_bounds_given_nb(nb_min - 1e-9, 0.8, t)
        # tp = 0 is forced; the cap arithmetic rounds like nb, by ~1e-15/(1-t).
        assert interval.upper == pytest.approx(0.0, abs=1e-15 / (1.0 - t))
        with pytest.raises(InfeasibleNetBenefitError):
            ppv_bounds_given_nb(-0.6 - 1e-9, 0.4, 0.5)

    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    # At t near 1 the odds weight fp/n by ~1e5, and nb from counts rounds
    # a few ulps of 2e4 below the floor computed from prevalence.
    @example(recs=[(0.0, 1)] * 4 + [(1.0, 0)], t=0.99999)
    def test_containment(self, recs, t):
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        interval = ppv_bounds_given_nb(net_benefit(c), data.prevalence, t)
        # The (prevalence - nb)/t cancellation amplifies nb's rounding by
        # ~1/min(t, 1-t); on the clinical grid the slack is plain 1e-12.
        slack = TOL + 1e-15 / min(t, 1.0 - t)
        assert interval.contains(ppv(c), tol=slack)

    @given(n1=st.integers(1, 8), n0=st.integers(1, 8))
    def test_sharpness_by_enumeration_at_half(self, n1, n0):
        # At t = 0.5 every fixed-nb line hits integer configurations at its
        # extremes, so the continuous endpoints are attained exactly.
        n = n1 + n0
        by_key = {}
        for tp in range(n1 + 1):
            for fp in range(n0 + 1):
                if tp + fp == 0:
                    continue
                by_key.setdefault(tp - fp, []).append(tp / (tp + fp))
        for key, ppvs in by_key.items():
            nb = key / n
            interval = ppv_bounds_given_nb(nb, n1 / n, 0.5)
            if key == 0:
                assert interval.kind == "zero_nb_two_point"
                assert max(ppvs) == pytest.approx(0.5, abs=1e-9)
                continue
            assert interval.lower == pytest.approx(min(ppvs), abs=1e-9)
            assert interval.upper == pytest.approx(max(ppvs), abs=1e-9)

    @given(recs=records, t=thresholds)
    def test_pure_positive_configs_attain_upper(self, recs, t):
        # fp = 0 with tp > 0 realizes the upper endpoint 1 for nb > 0.
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        if c.fp != 0 or c.tp == 0:
            return
        interval = ppv_bounds_given_nb(net_benefit(c), data.prevalence, t)
        assert interval.kind == "positive_nb"
        assert interval.upper == 1.0 == ppv(c)

    @given(recs=records, t=thresholds)
    def test_zero_tp_configs_attain_lower(self, recs, t):
        # tp = 0 with fp > 0 realizes the lower endpoint 0 for nb < 0.
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        if c.tp != 0 or c.fp == 0:
            return
        interval = ppv_bounds_given_nb(net_benefit(c), data.prevalence, t)
        assert interval.kind == "negative_nb"
        assert interval.lower == 0.0 == ppv(c)
