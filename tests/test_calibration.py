from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcakit import (
    CalibrationSummary,
    PredictionSet,
    UndefinedAtThresholdError,
    classify_at_threshold,
    nb_decomposition,
    nb_gap_treat_all,
    nb_via_calibration,
    net_benefit,
    net_benefit_treat_all,
    ppv,
    prevalence_identity_residual,
    threshold_calibration,
)

TOL = 1e-12


def close(a, b):
    """Scale-aware closeness for identities that leave the unit scale as t -> 1."""
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))

records = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=1, max_size=40
)
thresholds = st.floats(1e-6, 1.0 - 1e-6) | st.sampled_from([0.125, 0.25, 0.5, 0.75])


def make_set(recs):
    risks, outcomes = zip(*recs)
    return PredictionSet(risks=np.array(risks), outcomes=np.array(outcomes))


class TestThresholdCalibration:
    def test_d0_summary(self, d0):
        s = threshold_calibration(d0, 0.5)
        assert s.s_t == 0.5
        assert s.y_above == pytest.approx(0.6, abs=TOL)
        assert s.y_below == pytest.approx(0.2, abs=TOL)
        assert s.p_above == pytest.approx(0.71, abs=TOL)
        assert s.p_below == pytest.approx(0.21, abs=TOL)
        assert s.delta_t == pytest.approx(-0.11, abs=TOL)
        assert s.enrichment == pytest.approx(0.21, abs=TOL)
        assert s.calibration_term == pytest.approx(-0.11, abs=TOL)

    def test_deterministic_predictor(self):
        data = PredictionSet(
            risks=np.array([1.0, 1.0, 0.0, 0.0]), outcomes=np.array([1, 1, 0, 0])
        )
        s = threshold_calibration(data, 0.5)
        assert s.y_above == 1.0
        assert s.y_below == 0.0

    def test_empty_above_group(self, d0):
        s = threshold_calibration(d0, 0.95)
        assert s.s_t == 0.0
        assert s.y_above is None and s.p_above is None
        assert s.delta_t is None and s.enrichment is None
        assert s.calibration_term is None
        assert s.y_below == pytest.approx(d0.prevalence, abs=TOL)

    def test_empty_below_group(self, d0):
        s = threshold_calibration(d0, 0.01)
        assert s.s_t == 1.0
        assert s.y_below is None and s.p_below is None
        assert s.y_above == pytest.approx(d0.prevalence, abs=TOL)

    @given(recs=records, t=thresholds)
    def test_group_means_bracket_threshold(self, recs, t):
        s = threshold_calibration(make_set(recs), t)
        if s.p_above is not None:
            assert s.p_above >= t - 1e-12
        if s.p_below is not None:
            assert s.p_below < t + 1e-12

    @given(recs=records, t=thresholds)
    def test_y_above_equals_ppv_exactly(self, recs, t):
        data = make_set(recs)
        s = threshold_calibration(data, t)
        c = classify_at_threshold(data, t)
        if s.y_above is not None:
            assert s.y_above == ppv(c)


class TestNbViaCalibration:
    def test_d0_value(self, d0):
        s = threshold_calibration(d0, 0.5)
        assert nb_via_calibration(s) == pytest.approx(0.1, abs=TOL)
        assert nb_via_calibration(s) == pytest.approx(
            net_benefit(classify_at_threshold(d0, 0.5)), abs=TOL
        )

    def test_surplus_vanishes_at_threshold_rate(self):
        s = CalibrationSummary(
            t=0.4, s_t=0.5, y_above=0.4, y_below=0.1, p_above=0.45, p_below=0.2,
            delta_t=-0.05, enrichment=0.05 / 0.6 * 0.5, calibration_term=-0.05 / 0.6 * 0.5,
        )
        assert nb_via_calibration(s) == pytest.approx(0.0, abs=TOL)

    def test_full_selection_all_events(self):
        data = PredictionSet(risks=np.array([0.9, 0.8]), outcomes=np.array([1, 1]))
        s = threshold_calibration(data, 0.5)
        assert s.s_t == 1.0 and s.y_above == 1.0
        assert nb_via_calibration(s) == pytest.approx(1.0, abs=TOL)

    def test_undefined_without_above_group(self, d0):
        with pytest.raises(UndefinedAtThresholdError):
            nb_via_calibration(threshold_calibration(d0, 0.95))

    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    def test_identity_against_net_benefit(self, recs, t):
        data = make_set(recs)
        s = threshold_calibration(data, t)
        if s.y_above is None:
            return
        nb = net_benefit(classify_at_threshold(data, t))
        assert close(nb, nb_via_calibration(s))


class TestNbGapTreatAll:
    def test_d0_value(self, d0):
        s = threshold_calibration(d0, 0.5)
        assert nb_gap_treat_all(s) == pytest.approx(0.3, abs=TOL)
        nb = net_benefit(classify_at_threshold(d0, 0.5))
        nb_all = net_benefit_treat_all(d0.prevalence, 0.5)
        assert nb_gap_treat_all(s) == pytest.approx(nb - nb_all, abs=TOL)

    def test_indifferent_when_below_rate_hits_threshold(self):
        s = CalibrationSummary(
            t=0.3, s_t=0.5, y_above=0.6, y_below=0.3, p_above=0.5, p_below=0.1,
            delta_t=0.1, enrichment=0.0, calibration_term=0.0,
        )
        assert nb_gap_treat_all(s) == pytest.approx(0.0, abs=TOL)

    def test_event_free_spared_group(self):
        s = CalibrationSummary(
            t=0.3, s_t=0.5, y_above=0.6, y_below=0.0, p_above=0.5, p_below=0.1,
            delta_t=0.1, enrichment=0.0, calibration_term=0.0,
        )
        expected = (1 - 0.5) * 0.3 / (1 - 0.3)
        assert nb_gap_treat_all(s) == pytest.approx(expected, abs=TOL)
        assert nb_gap_treat_all(s) > 0

    def test_undefined_without_below_group(self, d0):
        with pytest.raises(UndefinedAtThresholdError):
            nb_gap_treat_all(threshold_calibration(d0, 0.01))

    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    @example(recs=[(0.0, 1)] * 4 + [(1.0, 0)], t=0.99999)
    def test_identity_against_margin(self, recs, t):
        data = make_set(recs)
        s = threshold_calibration(data, t)
        if s.y_below is None:
            return
        # nb - nb_all, exactly: the spared group's tn*t/(1-t) - fn, over n.
        # The float difference of nb and nb_all cancels badly as t -> 1.
        fn = sum(1 for r, y in recs if r < t and y == 1)
        tn = sum(1 for r, y in recs if r < t and y == 0)
        odds = Fraction(t) / (1 - Fraction(t))
        assert close(float((tn * odds - fn) / len(recs)), nb_gap_treat_all(s))


class TestDecomposition:
    def test_d0_terms(self, d0):
        s = threshold_calibration(d0, 0.5)
        enrichment, calibration_term = nb_decomposition(s)
        assert enrichment == pytest.approx(0.21, abs=TOL)
        assert calibration_term == pytest.approx(-0.11, abs=TOL)
        assert enrichment + calibration_term == pytest.approx(0.1, abs=TOL)

    def test_calibrated_selection_has_zero_term(self):
        data = PredictionSet(
            risks=np.array([0.75, 0.75, 0.75, 0.75, 0.1]),
            outcomes=np.array([1, 1, 1, 0, 0]),
        )
        s = threshold_calibration(data, 0.5)
        assert s.delta_t == pytest.approx(0.0, abs=TOL)
        assert s.calibration_term == pytest.approx(0.0, abs=TOL)

    def test_no_enrichment_when_mean_prediction_at_threshold(self):
        data = PredictionSet(
            risks=np.array([0.5, 0.5, 0.1]), outcomes=np.array([1, 0, 0])
        )
        s = threshold_calibration(data, 0.5)
        assert s.enrichment == pytest.approx(0.0, abs=TOL)
        assert nb_via_calibration(s) == pytest.approx(s.calibration_term, abs=TOL)

    def test_undefined_without_above_group(self, d0):
        with pytest.raises(UndefinedAtThresholdError):
            nb_decomposition(threshold_calibration(d0, 0.95))

    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    def test_closure(self, recs, t):
        s = threshold_calibration(make_set(recs), t)
        if s.y_above is None:
            return
        enrichment, calibration_term = nb_decomposition(s)
        assert close(enrichment + calibration_term, nb_via_calibration(s))


class TestPrevalenceIdentity:
    def test_d0_residual_is_zero(self, d0):
        s = threshold_calibration(d0, 0.5)
        assert prevalence_identity_residual(s, d0.prevalence) == pytest.approx(0.0, abs=TOL)

    def test_perturbed_summary_shows_linear_residual(self, d0):
        s = threshold_calibration(d0, 0.5)
        bumped = CalibrationSummary(
            t=s.t, s_t=s.s_t, y_above=s.y_above + 0.01, y_below=s.y_below,
            p_above=s.p_above, p_below=s.p_below, delta_t=s.delta_t,
            enrichment=s.enrichment, calibration_term=s.calibration_term,
        )
        residual = prevalence_identity_residual(bumped, d0.prevalence)
        assert residual == pytest.approx(-s.s_t * 0.01, abs=1e-15)

    def test_undefined_on_degenerate_split(self, d0):
        with pytest.raises(UndefinedAtThresholdError):
            prevalence_identity_residual(threshold_calibration(d0, 0.95), d0.prevalence)

    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    def test_residual_bounded_for_count_derived_summaries(self, recs, t):
        data = make_set(recs)
        s = threshold_calibration(data, t)
        if s.y_above is None or s.y_below is None:
            return
        assert abs(prevalence_identity_residual(s, data.prevalence)) <= TOL


class TestExactEquivalences:
    @given(recs=records, t=thresholds)
    @settings(max_examples=200)
    def test_rate_position_decides_defaults(self, recs, t):
        # (nb > 0) iff y_above > t, and (nb > nb_all) iff y_below < t,
        # checked as exact booleans via rational arithmetic.
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        if not 0 < c.tp + c.fp < c.n:
            return
        ft = Fraction(t)
        nb = Fraction(c.tp, c.n) - Fraction(c.fp, c.n) * ft / (1 - ft)
        nb_all = Fraction(data.n1, c.n) - Fraction(data.n0, c.n) * ft / (1 - ft)
        y_above = Fraction(c.tp, c.tp + c.fp)
        y_below = Fraction(c.fn, c.fn + c.tn)
        assert (nb > 0) == (y_above > ft)
        assert (nb > nb_all) == (y_below < ft)
