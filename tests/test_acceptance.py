"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and enforces its runtime budget where one applies. Expected values are
re-derived with independent oracles: per-record loops, exhaustive
(tp, fp) enumeration, rational arithmetic, and closed-form large-sample
limits.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from dcakit import (
    BandSpec,
    DEFAULT_GRID,
    IngestionSpec,
    ModelCurve,
    PredictionSet,
    ReportDocument,
    SyntheticSpec,
    ThresholdGrid,
    bootstrap_bands,
    classify_at_threshold,
    compare_models,
    decision_curve,
    emit_report,
    generate_synthetic,
    ingest,
    parse_report,
    ppv_bounds_given_nb,
    threshold_calibration,
    verdict_vs_defaults,
)
from dcakit.cli import cli_main
from masked import masked_confusion

TOL = 1e-12
SHARPNESS_TOL = 1e-9


@contextmanager
def criterion(label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"{label}: FAIL (runtime {elapsed:.1f}s over the {budget}s budget)")
        raise AssertionError(f"{label} exceeded runtime budget: {elapsed:.1f}s >= {budget}s")
    print(f"{label}: PASS ({elapsed:.1f}s)")


def random_dataset(rng, n_lo, n_hi):
    n = int(rng.integers(n_lo, n_hi + 1))
    base = float(rng.uniform(0.05, 0.95))
    return PredictionSet(
        risks=rng.random(n), outcomes=(rng.random(n) < base).astype(int)
    )


def exact_nb(tp, fp, n, t):
    ft = Fraction(t)
    return Fraction(tp, n) - Fraction(fp, n) * ft / (1 - ft)


def test_ac1_identity_suite():
    """Every emitted curve point satisfies the per-threshold identities."""
    rng = np.random.default_rng(20260811)
    with criterion("AC-1 identity suite (500 random datasets x default grid)", budget=30):
        for _ in range(500):
            data = random_dataset(rng, 5, 500)
            prevalence = data.prevalence
            for point in decision_curve(data, DEFAULT_GRID):
                t, cal = point.t, point.calibration
                c = masked_confusion(data, t)
                positives = c.tp + c.fp
                if cal.y_above is not None:
                    surplus = cal.s_t / (1.0 - t) * (cal.y_above - t)
                    assert abs(point.nb_model - surplus) <= TOL
                    assert abs(cal.enrichment + cal.calibration_term - point.nb_model) <= TOL
                    recon = (data.n * point.nb_model / positives) * (1.0 - t) + t
                    assert abs(recon - point.ppv) <= TOL
                if cal.y_below is not None:
                    margin = (1.0 - cal.s_t) / (1.0 - t) * (t - cal.y_below)
                    assert abs((point.nb_model - point.nb_all) - margin) <= TOL
                if cal.y_above is not None and cal.y_below is not None:
                    mixed = cal.s_t * cal.y_above + (1.0 - cal.s_t) * cal.y_below
                    assert abs(prevalence - mixed) <= TOL
                # Boolean equivalences, checked against rational arithmetic.
                verdict = verdict_vs_defaults(data, t)
                nb = exact_nb(c.tp, c.fp, c.n, t)
                nb_all = exact_nb(data.n1, data.n0, data.n, t)
                assert verdict.beats_none == (nb > 0)
                assert verdict.beats_all == (nb > nb_all)
                if positives > 0:
                    assert (nb > 0) == (Fraction(c.tp, positives) > Fraction(t))


def _loop_classify(data, t):
    tp = fp = tn = fn = 0
    for risk, outcome in zip(data.risks, data.outcomes):
        if risk >= t:
            if outcome == 1:
                tp += 1
            else:
                fp += 1
        elif outcome == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def test_ac2_brute_force_oracle():
    """Small-n classification oracle and sharp PPV bounds by enumeration."""
    rng = np.random.default_rng(42)
    with criterion("AC-2 brute-force oracle (200 datasets, n <= 12)"):
        seen_positive = seen_negative = seen_zero = 0
        for _ in range(200):
            data = random_dataset(rng, 1, 12)

            thresholds = {0.25, 0.5, 0.75, float(rng.uniform(0.01, 0.99))}
            thresholds.update(float(r) for r in data.risks if 0.0 < r < 1.0)
            for t in thresholds:
                c = classify_at_threshold(data, t)
                assert (c.tp, c.fp, c.tn, c.fn) == _loop_classify(data, t)

            # At t = 1/2 the fixed-nb lattice lines end exactly on the count
            # box boundary, so the continuous endpoints must be attained.
            n, n1, n0 = data.n, data.n1, data.n0
            groups = {}
            for tp in range(n1 + 1):
                for fp in range(n0 + 1):
                    if tp + fp:
                        groups.setdefault(tp - fp, []).append(tp / (tp + fp))
            for key, ppvs in groups.items():
                interval = ppv_bounds_given_nb(key / n, n1 / n, 0.5)
                if key == 0:
                    seen_zero += 1
                    assert interval.kind == "zero_nb_two_point"
                    assert all(
                        min(abs(v), abs(v - 0.5)) <= SHARPNESS_TOL for v in ppvs
                    )
                elif key > 0:
                    seen_positive += 1
                    assert abs(interval.lower - min(ppvs)) <= SHARPNESS_TOL
                    assert abs(interval.upper - max(ppvs)) <= SHARPNESS_TOL
                else:
                    seen_negative += 1
                    assert abs(interval.lower - min(ppvs)) <= SHARPNESS_TOL
                    assert abs(interval.upper - max(ppvs)) <= SHARPNESS_TOL
        assert seen_positive and seen_negative and seen_zero


def test_ac3_fixture_d0(d0):
    """The bundled worked example reproduces its hand-computed values."""
    with criterion("AC-3 fixture D0"):
        verdict = verdict_vs_defaults(d0, 0.5)
        summary = threshold_calibration(d0, 0.5)
        assert verdict.nb == pytest.approx(0.1, abs=TOL)
        assert verdict.nb_all == pytest.approx(-0.2, abs=TOL)
        assert verdict.ppv == pytest.approx(0.6, abs=TOL)
        assert verdict.s_t == pytest.approx(0.5, abs=TOL)
        assert summary.y_above == pytest.approx(0.6, abs=TOL)
        assert summary.y_below == pytest.approx(0.2, abs=TOL)
        assert summary.p_above == pytest.approx(0.71, abs=TOL)
        assert summary.enrichment == pytest.approx(0.21, abs=TOL)
        assert summary.calibration_term == pytest.approx(-0.11, abs=TOL)

        at_07 = verdict_vs_defaults(d0, 0.7)
        assert at_07.nb == pytest.approx(-1.0 / 30.0, abs=TOL)
        assert at_07.beats_none is False


def test_ac4_two_model_verdicts():
    """The exact winner reads the same from PPV and the margins on random model pairs."""
    rng = np.random.default_rng(777)
    with criterion("AC-4 two-model verdicts (200 random pairs x default grid)"):
        for case in range(200):
            n = int(rng.integers(4, 120))
            outcomes = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
            risks1 = rng.random(n)
            if case % 4 == 0:
                risks2 = risks1[rng.permutation(n)]  # equal selection rates
            else:
                risks2 = rng.random(n)
            d1 = PredictionSet(risks=risks1, outcomes=outcomes, name="m1")
            d2 = PredictionSet(risks=risks2, outcomes=outcomes, name="m2")
            for t in DEFAULT_GRID.points:
                verdict = compare_models(d1, d2, t)  # raises if the two counts disagree
                c1 = masked_confusion(d1, t)
                c2 = masked_confusion(d2, t)
                nb1 = exact_nb(c1.tp, c1.fp, n, t)
                nb2 = exact_nb(c2.tp, c2.fp, n, t)
                if verdict.winner == "model1":
                    assert nb1 > nb2
                elif verdict.winner == "model2":
                    assert nb2 > nb1
                else:
                    assert abs(float(nb1 - nb2)) <= TOL
                pos1, pos2 = c1.tp + c1.fp, c2.tp + c2.fp
                ft = Fraction(t)
                if 0 < pos1 and 0 < pos2:
                    above1 = Fraction(pos1, n) * (Fraction(c1.tp, pos1) - ft)
                    above2 = Fraction(pos2, n) * (Fraction(c2.tp, pos2) - ft)
                    assert (above1 > above2) == (nb1 > nb2)
                if pos1 < n and pos2 < n:
                    below1 = Fraction(n - pos1, n) * (ft - Fraction(c1.fn, n - pos1))
                    below2 = Fraction(n - pos2, n) * (ft - Fraction(c2.fn, n - pos2))
                    assert (below1 > below2) == (nb1 > nb2)
                if pos1 > 0:
                    reference = ft + (1 - ft) * n * nb2 / pos1
                    assert (Fraction(c1.tp, pos1) > reference) == (nb1 > nb2)
                if pos1 == pos2 and verdict.winner != "tie":
                    # Equal selection rates: the above-group event rate decides.
                    assert (verdict.winner == "model1") == (c1.tp > c2.tp)


def test_ac5_miscalibration_demo():
    """Systematic shifts produce the expected default-strategy failures."""
    with criterion("AC-5 miscalibration demo (n=20000, seed=7, beta(2,5))", budget=10):
        over = SyntheticSpec(n=20000, seed=7, distribution="beta", beta_a=2.0,
                             beta_b=5.0, logit_shift=1.0)
        _, reported = generate_synthetic(over)
        prevalence = reported.prevalence
        points = decision_curve(reported, DEFAULT_GRID)
        harmful = [p for p in points if p.t > prevalence and p.nb_model < 0.0]
        assert harmful, "overestimation must fall below treat-none above prevalence"
        for p in harmful:
            assert p.calibration.y_above < p.t

        under = SyntheticSpec(n=20000, seed=7, distribution="beta", beta_a=2.0,
                              beta_b=5.0, logit_shift=-1.0)
        _, reported = generate_synthetic(under)
        prevalence = reported.prevalence
        points = decision_curve(reported, DEFAULT_GRID)
        wasteful = [p for p in points if p.t < prevalence and p.nb_model < p.nb_all]
        assert wasteful, "underestimation must fall below treat-all below prevalence"
        for p in wasteful:
            assert p.calibration.y_below >= p.t


def test_ac6_bootstrap():
    """Bootstrap determinism, band nesting, and coverage sanity."""
    with criterion("AC-6 bootstrap (determinism, nesting, coverage)", budget=60):
        truth, _ = generate_synthetic(SyntheticSpec(n=2000, seed=123))
        spec95 = BandSpec(replicates=1000, seed=9, level=0.95)
        band_a = bootstrap_bands(truth, DEFAULT_GRID, spec95)
        band_b = bootstrap_bands(truth, DEFAULT_GRID, spec95)
        assert band_a == band_b
        doc = ReportDocument(metadata={"tool": "dcakit"}, models=(), bands={"m": band_a})
        doc_b = ReportDocument(metadata={"tool": "dcakit"}, models=(), bands={"m": band_b})
        assert emit_report(doc) == emit_report(doc_b)  # byte identical

        band90 = bootstrap_bands(truth, DEFAULT_GRID,
                                 BandSpec(replicates=1000, seed=9, level=0.90))
        for j in range(len(DEFAULT_GRID.points)):
            assert band_a.nb_lower[j] <= band90.nb_lower[j]
            assert band90.nb_upper[j] <= band_a.nb_upper[j]
            if band90.ppv_lower[j] is not None:
                assert band_a.ppv_lower[j] <= band90.ppv_lower[j]
                assert band90.ppv_upper[j] <= band_a.ppv_upper[j]

        # Coverage: uniform true risks scored by themselves have
        # large-sample net benefit (1 - t)/2 at every threshold.
        coverages = []
        for rep in range(50):
            sample, _ = generate_synthetic(
                SyntheticSpec(n=2000, seed=1000 + rep, distribution="uniform")
            )
            band = bootstrap_bands(sample, DEFAULT_GRID,
                                   BandSpec(replicates=1000, seed=rep, level=0.95))
            hits = sum(
                lo <= (1.0 - t) / 2.0 <= hi
                for t, lo, hi in zip(band.thresholds, band.nb_lower, band.nb_upper)
            )
            coverages.append(hits / len(band.thresholds))
        mean_coverage = float(np.mean(coverages))
        assert mean_coverage >= 0.85, f"mean band coverage {mean_coverage:.3f} < 0.85"


def test_ac7_io_round_trip(d0_csv_path, capsys):
    """Reports survive serialization and the bounds CLI returns {0, t}."""
    with criterion("AC-7 i/o round trip and bounds CLI"):
        (data,) = ingest(IngestionSpec(path=str(d0_csv_path), outcome_column="y",
                                       model_columns=("m1",)))
        grid = ThresholdGrid(0.05, 0.5, 0.05)
        doc = ReportDocument(
            metadata={"tool": "dcakit", "grid": {"lo": 0.05, "hi": 0.5, "step": 0.05}},
            models=(ModelCurve(name=data.name, points=tuple(decision_curve(data, grid))),),
            bands={data.name: bootstrap_bands(data, grid, BandSpec(replicates=100, seed=4))},
        )
        assert parse_report(emit_report(doc, format="json")) == doc

        code = cli_main(["bounds", "--nb", "0", "--prevalence", "0.4", "--t", "0.3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "zero_nb_two_point"
        assert payload["lower"] == 0.0
        assert payload["upper"] == 0.3
