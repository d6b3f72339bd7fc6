"""Threshold sweeps: decision curves, PPV curves, and synthetic cohorts.

Every emitted point re-verifies the algebraic identities linking net
benefit, PPV and the calibration split, a column at a time; a violation
raises RouteDisagreementError because it can only come from a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

# threshold_calibration and verdict_vs_defaults stay importable here:
# bench/workloads.py traces them by name.
from .calibration import (  # noqa: F401
    CalibrationSummary,
    calibration_columns,
    nb_decomposition,
    nb_gap_treat_all,
    nb_via_calibration,
    prevalence_identity_residual,
    threshold_calibration,
)
from .equivalences import (  # noqa: F401
    DefaultsVerdict,
    defaults_columns,
    ppv_from_nb,
    verdict_vs_defaults,
)
from .errors import DataError, RouteDisagreementError, UsageError
from .metrics import (ABOVE, PredictionSet, SweepCounts, column_rows, group_masks,
                      net_benefit_treat_none, reproducer, sweep_counts)

__all__ = [
    "ThresholdGrid",
    "CurvePoint",
    "SyntheticSpec",
    "DEFAULT_GRID",
    "curve_columns",
    "decision_curve",
    "generate_synthetic",
]

IDENTITY_TOL = 1e-12

# Largest grid a ThresholdGrid may hold; finer grids are refused before any
# point is built.
MAX_GRID_POINTS = 10_000

# Largest cohort a SyntheticSpec may draw. demo-miscalibration peaks at 82
# traced bytes per record at n = 1e5 and 73 at n = 1e6 (tracemalloc), so
# this keeps it under 1 GiB.
MAX_SYNTHETIC_RECORDS = 10_000_000

# Generator endpoints: true risks are clamped away from {0, 1} before the
# logit so the miscalibration shift is always defined.
_RISK_CLAMP = 1e-12


@dataclass(frozen=True)
class ThresholdGrid:
    """Evenly spaced thresholds lo, lo+step, ..., up to hi (inclusive).

    Points are computed on the decimals that lo and step print as, so each
    point is the double nearest its decimal: 0.01:0.50:0.01 holds exactly
    float("0.15"), and a risk of 0.15 counts positive there.
    """

    lo: float
    hi: float
    step: float
    points: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.lo <= self.hi < 1.0:
            raise DataError(
                f"grid must satisfy 0 < lo <= hi < 1, got lo={self.lo!r} hi={self.hi!r}"
            )
        if not 0.0 < self.step < float("inf"):
            raise DataError(f"grid step must be positive and finite, got {self.step!r}")
        lo, hi, step = (Decimal(repr(v)) for v in (self.lo, self.hi, self.step))
        if hi - lo >= MAX_GRID_POINTS * step:
            raise DataError(
                f"grid {self.lo!r}:{self.hi!r}:{self.step!r} would hold more than "
                f"{MAX_GRID_POINTS} thresholds"
            )
        points = _grid_points(lo, step, int((hi - lo) // step))
        object.__setattr__(self, "points", tuple(points))

    @property
    def decimals(self) -> int:
        """Decimal places lo and step are written with: printed with as many,
        the grid's points are told apart."""
        return max(-Decimal(repr(v)).as_tuple().exponent for v in (self.lo, self.step))

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


def _grid_points(lo: Decimal, step: Decimal, count: int) -> list[float]:
    return [float(lo + i * step) for i in range(count + 1)]


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
    ppv_all_ref: float | None = field(metadata=ABOVE)
    calibration: CalibrationSummary


def _assert_identities(c: SweepCounts, verdict: DefaultsVerdict,
                       cal: CalibrationSummary) -> None:
    """Check every identity at every threshold of the sweep ``c``, where its
    groups are non-empty, and raise at the first threshold that violates
    any. Each residual is a whole column, NaN where a group it reads is
    empty; only ppv_from_nb, which divides by the positives, runs on the
    above rows alone."""
    t, nb, nb_all = c.t, verdict.nb, verdict.nb_all
    above, below = group_masks(c)
    via_cal = nb_via_calibration(cal)
    ppv = np.full(t.shape, np.nan)
    ppv[above] = ppv_from_nb(nb[above], (c.tp + c.fp)[above], c.n, t[above])
    # (name, rows it applies to, residual), in message order. nb_all comes
    # from net_benefit_treat_all's other form, so the last one is the
    # independent check of the treat-all reference.
    residuals = [
        ("net benefit vs calibration surplus", above, nb - via_cal),
        ("enrichment + calibration term closure", above, sum(nb_decomposition(cal)) - via_cal),
        ("ppv reconstruction from net benefit", above, ppv - verdict.ppv),
        ("treat-all margin vs below-group rate", below, (nb - nb_all) - nb_gap_treat_all(cal)),
        ("prevalence identity", above & below, prevalence_identity_residual(cal, c.prevalence)),
        ("treat-all net benefit forms", np.ones(t.shape, dtype=bool),
         nb_all - (c.prevalence - t) / (1.0 - t)),
    ]
    # Identity error grows with the false-positive weight t/(1-t); on the
    # clinical range t <= 1/2 this is exactly IDENTITY_TOL.
    tol = IDENTITY_TOL * np.maximum(1.0, t / (1.0 - t))
    violated = np.zeros((len(residuals), t.size), dtype=bool)
    for row, (_, rows, residual) in zip(violated, residuals):
        # Fail closed: a NaN residual on a row whose groups are non-empty is
        # a violation.
        row[rows] = ~(np.abs(residual[rows]) <= tol[rows])
    failing = np.flatnonzero(violated.any(axis=0))
    if failing.size:
        j = failing[0]
        problems = [name for (name, _, _), bad in zip(residuals, violated[:, j]) if bad]
        counts = (v[j].item() for v in (c.tp, c.fp, c.tn, c.fn))
        raise RouteDisagreementError(
            f"curve point identities violated at t={t[j].item()!r}: {'; '.join(problems)} "
            f"({reproducer(t[j].item(), *counts)})"
        )


def curve_columns(sweep: SweepCounts) -> CurvePoint:
    """Every threshold's CurvePoint of ``sweep``, which sweep_counts counted
    and checked, identities verified, as a CurvePoint of columns, NaN in a
    field whose group is empty. Both default verdicts and every identity
    run a column at a time, with the formulas verdict_vs_defaults and
    threshold_calibration use."""
    verdict = defaults_columns(sweep)
    cal = calibration_columns(sweep)
    _assert_identities(sweep, verdict, cal)
    return CurvePoint(
        t=verdict.t,
        nb_model=verdict.nb,
        nb_all=verdict.nb_all,
        nb_none=np.full(verdict.t.shape, net_benefit_treat_none()),
        s_t=verdict.s_t,
        ppv=verdict.ppv,
        ppv_none_ref=verdict.ppv_none_ref,
        ppv_all_ref=verdict.ppv_all_ref,
        calibration=cal,
    )


def decision_curve(data: PredictionSet, grid: ThresholdGrid) -> list[CurvePoint]:
    """One CurvePoint per grid threshold, in grid order: curve_columns' rows,
    with the fields of an empty group None."""
    return column_rows(CurvePoint, curve_columns(sweep_counts(data, grid.points)))


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
        if self.n > MAX_SYNTHETIC_RECORDS:
            raise DataError(f"n must be at most {MAX_SYNTHETIC_RECORDS}, got {self.n!r}")
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
