"""Threshold sweeps: decision curves, PPV curves, and synthetic cohorts.

Every emitted point re-verifies the algebraic identities linking net
benefit, PPV and the calibration split; a violation raises
RouteDisagreementError because it can only come from a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# threshold_calibration and verdict_vs_defaults stay importable here:
# bench/workloads.py traces them by name.
from .calibration import (  # noqa: F401
    CalibrationSummary,
    calibration_from_counts,
    threshold_calibration,
)
from .equivalences import decide_defaults, verdict_vs_defaults  # noqa: F401
from .errors import DataError, RouteDisagreementError, UsageError
from .metrics import PredictionSet, ThresholdConfusion, reproducer, sweep_counts

__all__ = [
    "ThresholdGrid",
    "CurvePoint",
    "SyntheticSpec",
    "DEFAULT_GRID",
    "decision_curve",
    "ppv_curve",
    "generate_synthetic",
]

IDENTITY_TOL = 1e-12

# Largest grid a ThresholdGrid may hold; finer grids are refused before any
# point is built.
MAX_GRID_POINTS = 10_000

# Generator endpoints: true risks are clamped away from {0, 1} before the
# logit so the miscalibration shift is always defined.
_RISK_CLAMP = 1e-12


@dataclass(frozen=True)
class ThresholdGrid:
    """Evenly spaced thresholds lo, lo+step, ..., up to hi (inclusive)."""

    lo: float
    hi: float
    step: float
    points: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.lo <= self.hi < 1.0:
            raise DataError(
                f"grid must satisfy 0 < lo <= hi < 1, got lo={self.lo!r} hi={self.hi!r}"
            )
        if not self.step > 0.0:
            raise DataError(f"grid step must be positive, got {self.step!r}")
        steps = (self.hi - self.lo) / self.step + 1e-9
        if not steps < MAX_GRID_POINTS:
            raise DataError(
                f"grid {self.lo!r}:{self.hi!r}:{self.step!r} would hold more than "
                f"{MAX_GRID_POINTS} thresholds"
            )
        pts = _grid_points(self.lo, self.step, int(math.floor(steps)))
        # The last multiple may overshoot hi by float fuzz; snap it back.
        if pts[-1] > self.hi:
            pts[-1] = self.hi
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def from_string(cls, text: str) -> "ThresholdGrid":
        """Parse "lo:hi:step", e.g. "0.01:0.50:0.01"."""
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must look like lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"grid values must be numeric, got {text!r}") from exc
        return cls(lo=lo, hi=hi, step=step)


def _grid_points(lo: float, step: float, count: int) -> list[float]:
    return [lo + i * step for i in range(count + 1)]


DEFAULT_GRID = ThresholdGrid(lo=0.01, hi=0.50, step=0.01)


@dataclass(frozen=True)
class CurvePoint:
    """Per-threshold bundle of net benefit, references, PPV and calibration."""

    t: float
    nb_model: float
    nb_all: float
    nb_none: float
    s_t: float
    ppv: float
    ppv_none_ref: float
    ppv_all_ref: float | None
    calibration: CalibrationSummary


def _assert_point_identities(c: ThresholdConfusion, point: CurvePoint) -> None:
    t = point.t
    cal = point.calibration
    # Identity error grows with the false-positive weight t/(1-t); on the
    # clinical range t <= 1/2 this is exactly IDENTITY_TOL.
    tol = IDENTITY_TOL * max(1.0, t / (1.0 - t))
    problems = []
    if cal.y_above is not None:
        via_cal = cal.s_t / (1.0 - t) * (cal.y_above - t)
        if abs(point.nb_model - via_cal) > tol:
            problems.append("net benefit vs calibration surplus")
        closure = cal.enrichment + cal.calibration_term
        if abs(closure - via_cal) > tol:
            problems.append("enrichment + calibration term closure")
        positives = round(point.s_t * c.n)
        recon = (c.n * point.nb_model / positives) * (1.0 - t) + t
        if abs(recon - point.ppv) > tol:
            problems.append("ppv reconstruction from net benefit")
    if cal.y_below is not None:
        gap = (1.0 - cal.s_t) / (1.0 - t) * (t - cal.y_below)
        if abs((point.nb_model - point.nb_all) - gap) > tol:
            problems.append("treat-all margin vs below-group rate")
    if cal.y_above is not None and cal.y_below is not None:
        mixed = cal.s_t * cal.y_above + (1.0 - cal.s_t) * cal.y_below
        if abs(c.prevalence - mixed) > tol:
            problems.append("prevalence identity")
    if abs(point.nb_all - (c.prevalence - t) / (1.0 - t)) > tol:
        problems.append("treat-all net benefit forms")
    if problems:
        raise RouteDisagreementError(
            f"curve point identities violated at t={t!r}: {'; '.join(problems)} "
            f"({reproducer(c)})"
        )


def decision_curve(data: PredictionSet, grid: ThresholdGrid) -> list[CurvePoint]:
    """One CurvePoint per grid threshold, in grid order, identities verified.

    All thresholds are counted in one pass (sweep_counts); each point is
    then decided and checked exactly as verdict_vs_defaults and
    threshold_calibration would at that threshold.
    """
    sweep = sweep_counts(data, grid.points)
    points = []
    for c, above, below in zip(sweep.confusions(), sweep.risk_sum_above.tolist(),
                               sweep.risk_sum_below.tolist()):
        verdict = decide_defaults(c)
        point = CurvePoint(
            t=c.t,
            nb_model=verdict.nb,
            nb_all=verdict.nb_all,
            nb_none=0.0,
            s_t=verdict.s_t,
            ppv=verdict.ppv,
            ppv_none_ref=verdict.ppv_none_ref,
            ppv_all_ref=verdict.ppv_all_ref,
            calibration=calibration_from_counts(c, above, below),
        )
        _assert_point_identities(c, point)
        points.append(point)
    return points


def ppv_curve(data: PredictionSet, grid: ThresholdGrid) -> list[CurvePoint]:
    """Same points as decision_curve; the PPV rendering reads ppv and the
    diagonal / treat-all reference fields instead of the net-benefit ones."""
    return decision_curve(data, grid)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic cohort.

    True risks come from ``distribution`` ("uniform" or "beta" with
    parameters ``beta_a``, ``beta_b``); outcomes are Bernoulli draws from
    the same seeded stream, one per record in record order; reported
    risks shift the true risks by ``logit_shift`` on the log-odds scale.
    """

    n: int
    seed: int
    distribution: str = "uniform"
    beta_a: float = 2.0
    beta_b: float = 5.0
    logit_shift: float = 0.0
    label: str = "synthetic"

    def __post_init__(self):
        if self.n < 1:
            raise DataError(f"n must be at least 1, got {self.n!r}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed!r}")
        if self.distribution not in ("uniform", "beta"):
            raise DataError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "beta" and not (self.beta_a > 0 and self.beta_b > 0):
            raise DataError("beta parameters must be positive")


def generate_synthetic(spec: SyntheticSpec) -> tuple[PredictionSet, PredictionSet]:
    """Draw (truth, reported) prediction sets sharing one outcome vector.

    The stream is PCG64 seeded through SeedSequence(spec.seed): first the
    n true risks, then n uniforms for the Bernoulli outcomes. Identical
    specs reproduce identical records bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    if spec.distribution == "uniform":
        q = rng.random(spec.n)
    else:
        q = rng.beta(spec.beta_a, spec.beta_b, spec.n)
    u = rng.random(spec.n)
    y = (u < q).astype(np.int64)

    q = np.clip(q, _RISK_CLAMP, 1.0 - _RISK_CLAMP)
    if spec.logit_shift == 0.0:
        reported = q
    else:
        shifted = np.log(q / (1.0 - q)) + spec.logit_shift
        shifted = np.clip(shifted, -709.0, 709.0)
        reported = 1.0 / (1.0 + np.exp(-shifted))

    truth = PredictionSet(risks=q, outcomes=y, name=f"{spec.label}-truth")
    observed = PredictionSet(risks=reported, outcomes=y, name=spec.label)
    return truth, observed
