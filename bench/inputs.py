"""Seeded input files for the benchmark workloads.

Inputs are drawn with numpy alone, never with ``dcakit.generate_synthetic``,
so no change to the program under test can change what it is fed. Every
step after the uniform draws is exact or correctly rounded IEEE arithmetic
(no log/exp, whose last bits vary between libm builds), so a file is
byte-identical for the same ``(rows, seed, style)`` wherever it is made.

The cohort: true risk ``q ~ beta(2, 5)``, taken as the second smallest of
six uniforms; outcome ``y ~ Bernoulli(q)``; model ``m1`` reports ``q`` and
model ``m2`` reports ``q`` shifted by +0.5 on the log-odds scale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# exp(0.5). With k = exp(shift), expit(logit(q) + shift) = q*k / (1 - q + q*k),
# which needs only +, -, *, / and so rounds the same on every platform.
EXP_HALF = 1.6487212707001282

FULL_PRECISION = "full"  # shortest round-trip repr of each double
THOUSANDTHS = "thousandths"  # risks rounded to 3 decimals, many tie grid points

_CHUNK_ROWS = 100_000


@dataclass(frozen=True)
class Cohort:
    """The records exactly as written: outcomes and each model's parsed risks."""

    outcomes: np.ndarray  # bool
    risks: dict  # column name -> float64 array, equal to float(cell) for each cell


@dataclass(frozen=True)
class InputFile:
    path: str
    rows: int
    sha256: str
    cohort: Cohort


def draw_cohort(rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes (bool) and true risks for ``rows`` records from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    # The 2nd order statistic of 6 uniforms is exactly beta(2, 5).
    q = np.partition(rng.random((rows, 6)), 1, axis=1)[:, 1].copy()
    y = rng.random(rows) < q
    return y, q


def shift_half_logit(q: np.ndarray) -> np.ndarray:
    """``q`` moved +0.5 on the log-odds scale, in correctly rounded arithmetic."""
    return q * EXP_HALF / (1.0 - q + q * EXP_HALF)


def _thousandths(q: np.ndarray) -> np.ndarray:
    return np.rint(q * 1000.0).astype(np.int64)


def _cells_thousandths(k: list) -> list:
    return ["1.000" if v == 1000 else f"0.{v:03d}" for v in k]


def write_input(path: str, rows: int, seed: int, style: str,
                bad_last_outcome: str | None = None) -> InputFile:
    """Write ``y,m1,m2`` rows to ``path`` and return its digest and cohort.

    With ``bad_last_outcome`` the last row's outcome cell holds that text
    instead of its 0/1 value, so ingest must reject row ``rows``.
    """
    if style not in (FULL_PRECISION, THOUSANDTHS):
        raise ValueError(f"unknown input style {style!r}")
    y, q = draw_cohort(rows, seed)
    m2 = shift_half_logit(q)
    if style == THOUSANDTHS:
        k1, k2 = _thousandths(q), _thousandths(m2)
        risks = {"m1": k1 / 1000.0, "m2": k2 / 1000.0}
    else:
        risks = {"m1": q, "m2": m2}

    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        def emit(text: str) -> None:
            data = text.encode("ascii")
            digest.update(data)
            handle.write(data)

        emit("y,m1,m2\n")
        for start in range(0, rows, _CHUNK_ROWS):
            stop = min(rows, start + _CHUNK_ROWS)
            ys = ["1" if v else "0" for v in y[start:stop].tolist()]
            if bad_last_outcome is not None and stop == rows:
                ys[-1] = bad_last_outcome
            if style == THOUSANDTHS:
                c1 = _cells_thousandths(k1[start:stop].tolist())
                c2 = _cells_thousandths(k2[start:stop].tolist())
            else:
                c1 = [repr(v) for v in q[start:stop].tolist()]
                c2 = [repr(v) for v in m2[start:stop].tolist()]
            emit("".join(f"{a},{b},{c}\n" for a, b, c in zip(ys, c1, c2)))
    return InputFile(path=path, rows=rows, sha256=digest.hexdigest(),
                     cohort=Cohort(outcomes=y, risks=risks))
