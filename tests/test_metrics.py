import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcakit import (
    DataError,
    PredictionSet,
    ThresholdConfusion,
    ThresholdError,
    classify_at_threshold,
    net_benefit,
    net_benefit_treat_all,
    net_benefit_treat_none,
    ppv,
)
from dcakit.metrics import net_benefit_order

TOL = 1e-12


def close(a, b):
    """Scale-aware closeness: identities involving the weight t/(1-t) leave
    the unit scale as t approaches 1."""
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def classify_oracle(data, t):
    """Per-record loop over the documented rule: risk >= t is positive."""
    tp = fp = tn = fn = 0
    for risk, outcome in zip(data.risks, data.outcomes):
        if risk >= t:
            if outcome == 1:
                tp += 1
            else:
                fp += 1
        else:
            if outcome == 1:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


records = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=1, max_size=40
)
thresholds = st.floats(1e-6, 1.0 - 1e-6) | st.sampled_from([0.125, 0.25, 0.5, 0.75])


def make_set(recs, name="random"):
    risks, outcomes = zip(*recs)
    return PredictionSet(risks=np.array(risks), outcomes=np.array(outcomes), name=name)


confusions = st.builds(
    lambda t, tp, fp, tn, fn: ThresholdConfusion(
        t=t, tp=tp, fp=fp, tn=tn, fn=fn, n=tp + fp + tn + fn
    ),
    t=thresholds,
    tp=st.integers(0, 50),
    fp=st.integers(0, 50),
    tn=st.integers(0, 50),
    fn=st.integers(1, 50),
)


class TestPredictionSet:
    def test_d0_counts(self, d0):
        assert (d0.n, d0.n1, d0.n0) == (10, 4, 6)
        assert d0.prevalence == 0.4

    def test_counts_partition(self, d0):
        assert d0.n1 + d0.n0 == d0.n

    def test_events_counted_once_outside_the_fields(self, d0, monkeypatch):
        monkeypatch.setattr(np, "count_nonzero", None)  # no count after construction
        assert (d0.n1, d0.n0, d0.prevalence) == (4, 6, 0.4)
        assert [f.name for f in dataclasses.fields(d0)] == ["risks", "outcomes", "name"]
        assert "_n1" not in repr(d0)

    def test_rejects_risk_outside_unit_interval(self):
        with pytest.raises(DataError, match="position 1"):
            PredictionSet(risks=np.array([0.5, 1.2]), outcomes=np.array([0, 1]))

    def test_rejects_nan_risk(self):
        with pytest.raises(DataError):
            PredictionSet(risks=np.array([np.nan]), outcomes=np.array([1]))

    def test_rejects_non_binary_outcome(self):
        with pytest.raises(DataError, match="outcome"):
            PredictionSet(risks=np.array([0.5]), outcomes=np.array([2]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            PredictionSet(risks=np.array([]), outcomes=np.array([]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            PredictionSet(risks=np.array([0.5, 0.6]), outcomes=np.array([1]))

    def test_arrays_frozen(self, d0):
        with pytest.raises(ValueError):
            d0.risks[0] = 0.0

    def test_outcomes_copied_into_int64(self):
        outcomes = np.array([0, 1, 1])
        data = PredictionSet(risks=np.full(3, 0.5), outcomes=outcomes)
        outcomes[0] = 1
        assert data.outcomes.dtype == np.int64 and data.outcomes.tolist() == [0, 1, 1]

    def test_frozen_int64_outcomes_are_shared(self):
        outcomes = np.array([0, 1, 1])
        outcomes.setflags(write=False)
        data = PredictionSet(risks=np.full(3, 0.5), outcomes=outcomes)
        assert data.outcomes is outcomes

    def test_frozen_view_of_writable_buffer_is_copied(self):
        # Read-only, but whoever holds the buffer can still write through it.
        buffer = np.array([0, 1, 1])
        view = buffer[:]
        view.setflags(write=False)
        data = PredictionSet(risks=np.full(3, 0.5), outcomes=view)
        buffer[0] = 1
        assert data.outcomes is not view and data.outcomes.tolist() == [0, 1, 1]
        assert not data.outcomes.flags.writeable

    @pytest.mark.parametrize("outcomes", [
        np.array([0, 1, 1, 0]),
        np.array([0, 1, 2, 1]),
        np.array([1, 0, 1, 255], dtype=np.uint8),
        np.array([0.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 0.5]),
        np.array([1.0, np.nan, 0.0]),
        np.array([-0.0, 1.0]),
        np.array([True, False, True]),
        np.array([0, 1, True, 1.0], dtype=object),
        np.array([0, 1, None, 1], dtype=object),
        np.array([1, "1", 0], dtype=object),
        np.array(["0", "1"]),
        np.array([b"1", b"0"]),
    ], ids=lambda a: f"{a.dtype}:{a.tolist()}")
    def test_outcome_check_matches_isin(self, outcomes):
        """The outcome check gives np.isin's verdict and message on every dtype."""
        ok = np.isin(outcomes, (0, 1))
        risks = np.full(outcomes.size, 0.5)
        if ok.all():
            data = PredictionSet(risks=risks, outcomes=outcomes)
            assert data.outcomes.tolist() == outcomes.astype(np.int64).tolist()
        else:
            i = int(np.flatnonzero(~ok)[0])
            with pytest.raises(DataError) as error:
                PredictionSet(risks=risks, outcomes=outcomes)
            assert str(error.value) == f"outcome must be 0 or 1 at position {i}: {outcomes[i]!r}"


class TestClassify:
    def test_d0_at_half(self, d0):
        c = classify_at_threshold(d0, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 2, 1, 4)
        assert c.s_t == 0.5

    def test_d0_at_07(self, d0):
        c = classify_at_threshold(d0, 0.7)
        assert (c.tp, c.fp) == (2, 1)

    def test_all_below_threshold(self, d0):
        c = classify_at_threshold(d0, 0.95)
        assert (c.tp, c.fp, c.s_t) == (0, 0, 0.0)

    def test_tie_classifies_positive(self):
        data = PredictionSet(risks=np.array([0.5]), outcomes=np.array([1]))
        c = classify_at_threshold(data, 0.5)
        assert (c.tp, c.fn) == (1, 0)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_domain(self, d0, t):
        with pytest.raises(ThresholdError):
            classify_at_threshold(d0, t)

    @given(recs=records, t=thresholds)
    def test_matches_per_record_oracle(self, recs, t):
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        assert (c.tp, c.fp, c.tn, c.fn) == classify_oracle(data, t)

    @given(recs=records, pick=st.integers(0, 39))
    def test_matches_oracle_at_tied_threshold(self, recs, pick):
        data = make_set(recs)
        t = data.risks[pick % data.n]
        if not 0.0 < t < 1.0:
            t = 0.5
        c = classify_at_threshold(data, t)
        assert (c.tp, c.fp, c.tn, c.fn) == classify_oracle(data, t)

    @given(recs=records, t=thresholds)
    def test_row_sums_are_class_counts(self, recs, t):
        data = make_set(recs)
        c = classify_at_threshold(data, t)
        assert c.tp + c.fn == data.n1
        assert c.fp + c.tn == data.n0

    def test_confusion_validation(self):
        with pytest.raises(DataError):
            ThresholdConfusion(t=0.5, tp=-1, fp=0, tn=1, fn=1, n=1)
        with pytest.raises(DataError):
            ThresholdConfusion(t=0.5, tp=1, fp=1, tn=1, fn=1, n=5)


class TestNetBenefit:
    def test_d0_value(self, d0):
        c = classify_at_threshold(d0, 0.5)
        assert net_benefit(c) == pytest.approx(0.1, abs=TOL)

    def test_no_positives_is_zero(self):
        c = ThresholdConfusion(t=0.3, tp=0, fp=0, tn=6, fn=4, n=10)
        assert net_benefit(c) == 0.0

    @given(recs=records, t=thresholds)
    def test_treat_all_counts_coincide(self, recs, t):
        data = make_set(recs)
        c = ThresholdConfusion(t=t, tp=data.n1, fp=data.n0, tn=0, fn=0, n=data.n)
        assert close(net_benefit(c), net_benefit_treat_all(data.prevalence, t))

    @given(c=confusions)
    def test_strictly_increasing_in_tp(self, c):
        # Reclassify one false negative as a true positive: fp, t, n fixed.
        gained = ThresholdConfusion(
            t=c.t, tp=c.tp + 1, fp=c.fp, tn=c.tn, fn=c.fn - 1, n=c.n
        )
        assert net_benefit(gained) > net_benefit(c)

    @given(c=confusions)
    def test_strictly_decreasing_in_fp(self, c):
        # Reclassify one true negative as a false positive: tp, t, n fixed.
        if c.tn == 0:
            return
        worse = ThresholdConfusion(
            t=c.t, tp=c.tp, fp=c.fp + 1, tn=c.tn - 1, fn=c.fn, n=c.n
        )
        assert net_benefit(worse) < net_benefit(c)


class TestTreatAllTreatNone:
    def test_hand_value(self):
        assert net_benefit_treat_all(0.4, 0.5) == pytest.approx(-0.2, abs=TOL)

    def test_threshold_at_prevalence(self):
        assert net_benefit_treat_all(0.3, 0.3) == pytest.approx(0.0, abs=TOL)

    def test_certain_events(self):
        assert net_benefit_treat_all(1.0, 0.7) == pytest.approx(1.0, abs=TOL)

    def test_invalid_prevalence(self):
        with pytest.raises(DataError):
            net_benefit_treat_all(1.5, 0.5)

    @given(prevalence=st.floats(0, 1), t=thresholds)
    def test_equivalent_closed_form(self, prevalence, t):
        direct = net_benefit_treat_all(prevalence, t)
        assert close(direct, (prevalence - t) / (1.0 - t))

    def test_treat_none_exactly_zero(self):
        assert net_benefit_treat_none() == 0.0

    def test_treat_none_constant_on_grid(self):
        assert {net_benefit_treat_none() for _ in range(50)} == {0.0}


class TestPpv:
    def test_d0_value(self, d0):
        assert ppv(classify_at_threshold(d0, 0.5)) == pytest.approx(0.6, abs=TOL)

    def test_zero_positive_convention(self):
        c = ThresholdConfusion(t=0.4, tp=0, fp=0, tn=3, fn=2, n=5)
        assert ppv(c) == 0.0

    def test_pure_positives(self):
        c = ThresholdConfusion(t=0.4, tp=3, fp=0, tn=2, fn=0, n=5)
        assert ppv(c) == 1.0


def all_cells(n, n1):
    """Every (tp, fp, tn, fn) that classifying n records with n1 events gives."""
    return [(tp, fp, n - n1 - fp, n1 - tp)
            for tp in range(n1 + 1) for fp in range(n - n1 + 1)]


class TestNetBenefitOrder:
    @pytest.mark.parametrize("t", [0.1, 0.25, 1 / 3, 0.5, 0.7])
    def test_sign_matches_exact_net_benefit(self, t):
        # Every pair of valid cells with n <= 6 and a shared n1. Each
        # default's cells are among them: treat-none (0, 0, n - n1, n1) and
        # treat-all (n1, n - n1, 0, 0).
        pairs = []
        for n in range(1, 7):
            for n1 in range(n + 1):
                cells = all_cells(n, n1)
                assert {(0, 0, n - n1, n1), (n1, n - n1, 0, 0)} <= set(cells)
                pairs += [(n, a, b) for a, b in itertools.product(cells, repeat=2)]
        exact_t = Fraction(t)

        def exact_nb(n, cells):
            tp, fp, _, _ = cells
            return Fraction(tp, n) - Fraction(fp, n) * exact_t / (1 - exact_t)

        expected = []
        for n, a, b in pairs:
            diff = exact_nb(n, a) - exact_nb(n, b)
            expected.append((diff > 0) - (diff < 0))
        # The kernel reads each side's (tp, fp) columns.
        side1 = np.array([a[:2] for _, a, _ in pairs]).T
        side2 = np.array([b[:2] for _, _, b in pairs]).T
        order = net_benefit_order(np.full(len(pairs), t), side1, side2)
        assert order.tolist() == expected
