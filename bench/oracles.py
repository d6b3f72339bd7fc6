"""Independent checks of dcakit outputs against the generated cohort.

Each check recomputes what a report claims from the records themselves,
with its own arithmetic, and returns a list of problems (empty when the
output is correct). Checks are keyed to the thresholds a report emits,
never to a grid rebuilt here, so a change in how the program spells its
grid points cannot break them; grid shape is checked only to 1e-9.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

# Absolute tolerance on reported floats. Formula order may move a value by a
# few ulp; one miscounted record moves net benefit by at least 1/n.
TOL = 1e-12
GRID_TOL = 1e-9
# Documented tie rule for compare: net benefits this close are a tie.
TIE_TOLERANCE = 1e-12
_MAX_PROBLEMS = 5


class CohortCounts:
    """Confusion counts at arbitrary thresholds, ties (risk == t) positive."""

    def __init__(self, cohort):
        self.n = int(cohort.outcomes.shape[0])
        self._sorted = {
            name: (np.sort(r[cohort.outcomes]), np.sort(r[~cohort.outcomes]))
            for name, r in cohort.risks.items()
        }

    def at(self, model: str, thresholds) -> tuple[np.ndarray, np.ndarray]:
        """(tp, fp) per threshold: records with risk >= t, split by outcome."""
        events, non_events = self._sorted[model]
        t = np.asarray(thresholds, dtype=np.float64)
        tp = events.size - np.searchsorted(events, t, side="left")
        fp = non_events.size - np.searchsorted(non_events, t, side="left")
        return tp.astype(np.int64), fp.astype(np.int64)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _grid_problems(ts, lo: float, step: float, count: int, where: str) -> list:
    if len(ts) != count:
        return [f"{where}: {len(ts)} thresholds, expected {count}"]
    for i, t in enumerate(ts):
        if abs(t - (lo + i * step)) > GRID_TOL:
            return [f"{where}: threshold {i} is {t!r}, expected about {lo + i * step!r}"]
    return []


def _expected_point(tp: int, fp: int, n: int, t: float) -> dict:
    positives = tp + fp
    return {
        "nb_model": tp / n - (fp / n) * (t / (1.0 - t)),
        "s_t": positives / n,
        "ppv": tp / positives if positives else 0.0,
    }


def check_curves(points: dict, counts: CohortCounts, models, lo: float, step: float,
                 count: int) -> list:
    """``points``: model -> list of dicts with t, nb_model, s_t and ppv."""
    problems = []
    if sorted(points) != sorted(models):
        problems.append(f"models {sorted(points)}, expected {sorted(models)}")
    for model in sorted(set(points) & set(models)):
        rows = points[model]
        ts = [row["t"] for row in rows]
        problems += _grid_problems(ts, lo, step, count, f"curve {model}")
        tp, fp = counts.at(model, ts)
        for row, a, b in zip(rows, tp.tolist(), fp.tolist()):
            expected = _expected_point(a, b, counts.n, row["t"])
            for key, value in expected.items():
                if not _close(row[key], value):
                    problems.append(f"curve {model} t={row['t']!r}: {key}={row[key]!r}, "
                                    f"expected {value!r} (tp={a}, fp={b})")
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems[:_MAX_PROBLEMS]


def _net_benefit_exact(tp: int, fp: int, n: int, t: float) -> Fraction:
    tq = Fraction(t)
    return Fraction(tp, n) - Fraction(fp, n) * tq / (1 - tq)


def check_compare(rows: list, counts: CohortCounts, model1: str, model2: str,
                  lo: float, step: float, count: int) -> list:
    """``rows``: dicts with model1, model2, t, nb1, nb2 and winner.

    The winner must follow the exact-rational sign of nb1 - nb2; a tie is
    also accepted when that difference is within TIE_TOLERANCE.
    """
    problems = []
    if any((r["model1"], r["model2"]) != (model1, model2) for r in rows):
        problems.append(f"compare rows name other models than {model1}, {model2}")
    ts = [r["t"] for r in rows]
    problems += _grid_problems(ts, lo, step, count, "compare")
    tp1, fp1 = counts.at(model1, ts)
    tp2, fp2 = counts.at(model2, ts)
    for r, a1, b1, a2, b2 in zip(rows, tp1.tolist(), fp1.tolist(), tp2.tolist(),
                                 fp2.tolist()):
        t = r["t"]
        nb1 = _net_benefit_exact(a1, b1, counts.n, t)
        nb2 = _net_benefit_exact(a2, b2, counts.n, t)
        diff = nb1 - nb2
        exact = "model1" if diff > 0 else "model2" if diff < 0 else "tie"
        allowed = {exact, "tie"} if abs(diff) <= TIE_TOLERANCE else {exact}
        if r["winner"] not in allowed:
            problems.append(f"compare t={t!r}: winner {r['winner']!r}, expected {exact!r}")
        for key, value in (("nb1", nb1), ("nb2", nb2)):
            if not _close(r[key], float(value)):
                problems.append(f"compare t={t!r}: {key}={r[key]!r}, expected {float(value)!r}")
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems[:_MAX_PROBLEMS]


def _nearest_rank(sorted_values: np.ndarray, q: Fraction) -> float:
    m = len(sorted_values)
    rank = min(max(math.ceil(q * m), 1), m)
    return float(sorted_values[rank - 1])


def bootstrap_band(risks: np.ndarray, outcomes: np.ndarray, thresholds, replicates: int,
                   seed: int, level: float) -> dict:
    """Bands from the documented contract, recomputed from scratch.

    Replicate i draws n indices with ``Generator(PCG64(SeedSequence(seed)
    .spawn(replicates)[i])).integers(0, n, n)``; band ends are nearest-rank
    quantiles, rank ceil(q * m) of m sorted values, with q taken from the
    decimal level as written. PPV pools skip replicates with no positives.
    """
    t = np.asarray(thresholds, dtype=np.float64)
    n, g = risks.shape[0], t.shape[0]
    weight = t / (1.0 - t)
    # cut = number of thresholds at or below the risk; positive at slot j iff j < cut.
    key = np.searchsorted(t, risks, side="right") * 2 + outcomes.astype(np.int64)
    nb = np.empty((replicates, g))
    ppv = np.full((replicates, g), np.nan)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        idx = np.random.Generator(np.random.PCG64(child)).integers(0, n, size=n)
        by_cut = np.bincount(key[idx], minlength=2 * (g + 1)).reshape(g + 1, 2)
        at_or_above = np.cumsum(by_cut[::-1], axis=0)[::-1]
        fp, tp = at_or_above[1:, 0], at_or_above[1:, 1]
        nb[i] = tp / n - (fp / n) * weight
        pos = tp + fp
        ppv[i, pos > 0] = tp[pos > 0] / pos[pos > 0]

    q_lo = (1 - Fraction(repr(level))) / 2
    q_hi = 1 - q_lo
    band = {"nb_lower": [], "nb_upper": [], "ppv_lower": [], "ppv_upper": [],
            "ppv_replicates": []}
    for j in range(g):
        col = np.sort(nb[:, j])
        band["nb_lower"].append(_nearest_rank(col, q_lo))
        band["nb_upper"].append(_nearest_rank(col, q_hi))
        col = np.sort(ppv[~np.isnan(ppv[:, j]), j])
        band["ppv_replicates"].append(int(col.size))
        band["ppv_lower"].append(_nearest_rank(col, q_lo) if col.size else None)
        band["ppv_upper"].append(_nearest_rank(col, q_hi) if col.size else None)
    return band


def check_band(band: dict, cohort, model: str, replicates: int, seed: int,
               level: float) -> list:
    """``band``: one entry of a JSON report's ``bands`` section."""
    spec = band["spec"]
    if (spec["replicates"], spec["seed"], spec["level"]) != (replicates, seed, level):
        return [f"band {model}: spec {spec} does not match the request"]
    expected = bootstrap_band(cohort.risks[model], cohort.outcomes, band["thresholds"],
                              replicates, seed, level)
    problems = []
    for key, values in expected.items():
        got = band[key]
        if len(got) != len(values):
            problems.append(f"band {model}: {len(got)} {key} values, expected {len(values)}")
            continue
        for j, (a, b) in enumerate(zip(got, values)):
            same = (a == b if a is None or b is None or key == "ppv_replicates"
                    else _close(a, b))
            if not same:
                problems.append(f"band {model} {key}[{j}] "
                                f"(t={band['thresholds'][j]!r}): {a!r}, expected {b!r}")
                break
    return problems[:_MAX_PROBLEMS]


def check_reject(exit_code: int, stderr: str, row: int, column: str) -> list:
    """A rejected input must exit 2 and name the failing row and column."""
    problems = []
    if exit_code != 2:
        problems.append(f"exit code {exit_code}, expected 2")
    if not re.search(rf"\brow {row}\b", stderr):
        problems.append(f"message does not name row {row}: {stderr.strip()!r}")
    if not re.search(rf"\bcolumn '{re.escape(column)}'", stderr):
        problems.append(f"message does not name column {column!r}: {stderr.strip()!r}")
    return problems


def check_svg(text: str, where: str) -> list:
    if not text.lstrip().startswith("<svg") or not text.rstrip().endswith("</svg>"):
        return [f"{where} is not a complete SVG document"]
    return []


def json_curve_points(report: dict) -> dict:
    return {m["name"]: m["points"] for m in report["models"]}


def csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def csv_curve_points(text: str) -> dict:
    points = {}
    for row in csv_rows(text):
        points.setdefault(row["model"], []).append(
            {key: float(row[key]) for key in ("t", "nb_model", "s_t", "ppv")})
    return points


def csv_compare_rows(text: str) -> list:
    return [
        {"model1": r["model1"], "model2": r["model2"], "t": float(r["t"]),
         "nb1": float(r["nb1"]), "nb2": float(r["nb2"]), "winner": r["winner"]}
        for r in csv_rows(text)
    ]
