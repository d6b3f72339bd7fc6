"""Record placement against binary search.

``metrics._keys`` places each record among the thresholds by arithmetic,
proves the place, and binary searches only the records the proof rejects.
Its keys must be ``searchsorted(side="right")``'s on every threshold array
sweep_counts accepts: a grid, uneven or repeated thresholds, one
threshold, a tiny span, and risks on, and one ulp either side of, every
threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcakit import PredictionSet, ThresholdGrid, metrics


def searched(data, thresholds):
    return np.searchsorted(thresholds, data.risks, side="right") * 2 + data.outcomes


def near(thresholds):
    """Every threshold, the doubles either side of it, 0.0 and 1.0."""
    t = np.asarray(thresholds)
    return np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, 1.0), [0.0, 1.0]])


def cohort(risks, seed=0):
    risks = np.clip(risks, 0.0, 1.0)
    outcomes = np.random.default_rng(seed).integers(0, 2, risks.size)
    return PredictionSet(risks=risks, outcomes=outcomes)


def assert_placed(data, thresholds):
    thresholds = np.asarray(thresholds, dtype=np.float64)
    assert np.array_equal(metrics._keys(data, thresholds), searched(data, thresholds))


def placed_by_search(data, thresholds):
    """``_keys``' keys and how many records it binary searched."""
    placed = []
    real = np.searchsorted

    def spy(a, v, *args, **kwargs):
        placed.append(np.size(v))
        return real(a, v, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "searchsorted", spy)
        keys = metrics._keys(data, thresholds)
    return keys, sum(placed)


grid_texts = st.builds(
    lambda lo, count, step: f"{lo / 1000}:{(lo + count * step) / 1000}:{step / 1000}",
    st.integers(1, 500), st.integers(0, 400), st.integers(1, 5),
).filter(lambda text: float(text.split(":")[1]) < 1.0)


class TestKeysEqualSearch:
    @settings(max_examples=60, deadline=None)
    @given(text=grid_texts, seed=st.integers(0, 2**32 - 1))
    def test_random_grids(self, text, seed):
        thresholds = np.asarray(ThresholdGrid.from_string(text).points)
        rng = np.random.default_rng(seed)
        data = cohort(np.concatenate([near(thresholds), rng.random(300),
                                      np.round(rng.random(300), 3)]), seed)
        keys, searched_records = placed_by_search(data, thresholds)
        assert np.array_equal(keys, searched(data, thresholds))
        # The grid is evenly spaced, so the proof holds for every record.
        assert searched_records == 0

    @settings(max_examples=60, deadline=None)
    @given(thresholds=st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=40),
           repeats=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_uneven_and_repeated_thresholds(self, thresholds, repeats, seed):
        thresholds = np.sort(np.repeat(thresholds, repeats))
        rng = np.random.default_rng(seed)
        assert_placed(cohort(np.concatenate([near(thresholds), rng.random(200)]), seed),
                      thresholds)

    @pytest.mark.parametrize("t", [1e-300, 0.15, 0.5, np.nextafter(1.0, 0.0)])
    def test_one_threshold(self, t):
        assert_placed(cohort(np.concatenate([near([t]), np.linspace(0.0, 1.0, 101)])), [t])

    @pytest.mark.parametrize("thresholds", [
        [0.5, np.nextafter(0.5, 1.0)],
        [0.3, 0.3, 0.3],
        np.linspace(1e-310, 2e-310, 50),  # subnormal: the step overflows
        [5e-324, 1e-323, 0.5],
        0.5 + np.arange(30) * 2.0**-53,
    ], ids=["two-ulp", "repeated", "subnormal-span", "tiny-then-wide", "ulp-grid"])
    def test_tiny_spans(self, thresholds):
        t = np.asarray(thresholds, dtype=np.float64)
        assert_placed(cohort(np.concatenate([near(t), np.linspace(0.0, 1.0, 57)])), t)

    @pytest.mark.parametrize("n", [1, 7, 64, 65, 200, 1000])
    def test_below_and_across_blocks(self, n, monkeypatch):
        monkeypatch.setattr(metrics, "_PLACE_BLOCK", 64)
        thresholds = np.asarray(ThresholdGrid.from_string("0.01:0.99:0.01").points)
        rng = np.random.default_rng(n)
        risks = np.concatenate([near(thresholds), rng.random(n)])[-n:]
        assert_placed(cohort(risks, n), thresholds)
        assert_placed(cohort(risks, n), [0.1, 0.2, 0.7])


def test_uneven_thresholds_take_the_search_for_the_rest():
    """Thresholds bunched at one end: arithmetic cannot place the records
    between the far ones, so they are binary searched, to the same keys."""
    thresholds = np.array([0.01, 0.011, 0.012, 0.013, 0.5, 0.9])
    data = cohort(np.linspace(0.0, 1.0, 1001))
    keys, searched_records = placed_by_search(data, thresholds)
    assert 0 < searched_records < data.n
    assert np.array_equal(keys, searched(data, thresholds))
