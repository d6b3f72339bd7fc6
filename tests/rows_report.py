"""The report writer row by row: the reference dcakit's column writer is tested against.

It takes every curve point and verdict as a row object and reads each
cell back out of it, field by field, as the writer did before reports held
columns; ``dcakit.report`` writes the same bytes from the columns.
"""

import csv
import io
import json
from dataclasses import fields
from operator import attrgetter
from typing import get_type_hints

from dcakit import CalibrationSummary, ComparisonVerdict, CurveBand, CurvePoint, UsageError


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _names(cls, *skip):
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def _cells(values):
    return ["" if v is None else format(v, ".17g") if isinstance(v, float)
            else ("true" if v else "false") if isinstance(v, bool) else str(v)
            for v in values]


def _quoted(texts):
    out = []
    for text in texts:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow((text, ""))
        out.append(buffer.getvalue()[:-2])
    return out


def rows_json(metadata, models=(), bands=None, comparisons=()):
    """The JSON report of ``models``, (name, points) pairs, ``bands`` by
    model name, and ``comparisons``, (model1, model2, verdicts) triples."""
    payload = {"metadata": metadata,
               "models": [{"name": name, "points": list(points)} for name, points in models]}
    if bands:
        payload["bands"] = bands
    if comparisons:
        payload["comparisons"] = [{"model1": a, "model2": b, "verdicts": list(verdicts)}
                                  for a, b, verdicts in comparisons]
    return (json.dumps(payload, indent=2, default=_fields) + "\n").encode("utf-8")


def rows_csv(models=(), bands=None, comparisons=()):
    """The CSV report of the same rows, one cell at a time. It holds one
    table, so curves and comparisons together, or bands without curves,
    raise UsageError."""
    bands = bands or {}
    if models and comparisons or bands and not models:
        raise UsageError("a CSV report holds curves or comparisons, not both")
    lines = []
    if models:
        point_names = _names(CurvePoint, "calibration")
        calibration_names = _names(CalibrationSummary, "t", "s_t")
        band_names = _names(CurveBand, "spec", "thresholds") if bands else ()
        lines.append(_quoted(("model", *point_names, *calibration_names, *band_names)))
        for name, points in models:
            band = bands.get(name)
            calibrations = [p.calibration for p in points]
            columns = [_quoted(_cells([name] * len(points))),
                       *(_cells(map(attrgetter(f), points)) for f in point_names),
                       *(_cells(map(attrgetter(f), calibrations)) for f in calibration_names),
                       *(_cells(getattr(band, f) if band else [None] * len(points))
                         for f in band_names)]
            lines.extend(zip(*columns))
    elif comparisons:
        verdict_names = _names(ComparisonVerdict, "ppv_route_available")
        hints = get_type_hints(ComparisonVerdict)
        lines.append(_quoted(("model1", "model2", *verdict_names)))
        for a, b, verdicts in comparisons:
            columns = [_quoted(_cells([a] * len(verdicts))), _quoted(_cells([b] * len(verdicts)))]
            for f in verdict_names:
                cells = _cells(map(attrgetter(f), verdicts))
                columns.append(_quoted(cells) if hints[f] is str else cells)
            lines.extend(zip(*columns))
    else:
        return b""
    return "".join(",".join(line) + "\n" for line in lines).encode("utf-8")
