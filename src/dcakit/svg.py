"""Standalone SVG 1.1 charts for report documents.

Three panels share one styling table and one color cycle, so a model's
net-benefit curve, PPV curve and calibration curves are color matched.
Reference curves: the treat-none diagonal on PPV/calibration panels, a
dotted per-model treat-all comparison curve on the PPV panel, and the
treat-all / treat-none net-benefit curves on the decision panel.
Undefined values (selection rate 0 or 1), NaN in a model's columns,
break the affected polyline.
"""

from __future__ import annotations

from .errors import UsageError
from .report import ReportDocument, _walk

__all__ = ["render_svg", "STYLE", "PANELS"]

PANELS = ("decision", "ppv", "calibration")

STYLE = {
    "width": 800,
    "height": 600,
    "margin_left": 80,
    "margin_right": 180,
    "margin_top": 50,
    "margin_bottom": 60,
    "colors": ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"),
    "reference_color": "#666666",
    "axis_color": "#000000",
    "grid_color": "#dddddd",
    "font": "Helvetica, Arial, sans-serif",
    "stroke_width": 2.0,
    "reference_width": 1.5,
    "dotted": "2,4",
    "dashed": "8,4",
    "nb_floor": -0.05,
    "y_ticks": 5,
    "x_ticks": 5,
}

_TITLES = {
    "decision": "Decision curve (net benefit)",
    "ppv": "PPV curve",
    "calibration": "Threshold calibration",
}
_Y_LABELS = {
    "decision": "net benefit",
    "ppv": "positive predictive value",
    "calibration": "observed event rate",
}


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _segments(xs, ys):
    """Split a series into contiguous runs, breaking where y is NaN."""
    runs, current = [], []
    for x, y in zip(xs, ys):
        if y != y:
            if current:
                runs.append(current)
            current = []
        else:
            current.append((x, y))
    if current:
        runs.append(current)
    return runs


class _Panel:
    def __init__(self, x_range, y_range):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.left = STYLE["margin_left"]
        self.right = STYLE["width"] - STYLE["margin_right"]
        self.top = STYLE["margin_top"]
        self.bottom = STYLE["height"] - STYLE["margin_bottom"]
        self.parts = []

    def x_px(self, x):
        span = self.x_hi - self.x_lo or 1.0
        return self.left + (x - self.x_lo) / span * (self.right - self.left)

    def y_px(self, y):
        span = self.y_hi - self.y_lo or 1.0
        y = min(max(y, self.y_lo), self.y_hi)  # render-time clip only
        return self.bottom - (y - self.y_lo) / span * (self.bottom - self.top)

    def add_axes(self, title, y_label):
        s = STYLE
        self.parts.append(
            f'<text x="{s["width"] / 2:.2f}" y="28" text-anchor="middle" '
            f'font-family="{s["font"]}" font-size="18">{_escape(title)}</text>'
        )
        for i in range(s["y_ticks"] + 1):
            value = self.y_lo + (self.y_hi - self.y_lo) * i / s["y_ticks"]
            y = self.y_px(value)
            self.parts.append(
                f'<line x1="{self.left}" y1="{y:.2f}" x2="{self.right}" y2="{y:.2f}" '
                f'stroke="{s["grid_color"]}" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{self.left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                f'font-family="{s["font"]}" font-size="12">{value:.2f}</text>'
            )
        for i in range(s["x_ticks"] + 1):
            value = self.x_lo + (self.x_hi - self.x_lo) * i / s["x_ticks"]
            x = self.x_px(value)
            self.parts.append(
                f'<line x1="{x:.2f}" y1="{self.bottom}" x2="{x:.2f}" '
                f'y2="{self.bottom + 5}" stroke="{s["axis_color"]}" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{x:.2f}" y="{self.bottom + 20:.2f}" text-anchor="middle" '
                f'font-family="{s["font"]}" font-size="12">{value:.2f}</text>'
            )
        self.parts.append(
            f'<line x1="{self.left}" y1="{self.bottom}" x2="{self.right}" '
            f'y2="{self.bottom}" stroke="{s["axis_color"]}" stroke-width="1.5"/>'
        )
        self.parts.append(
            f'<line x1="{self.left}" y1="{self.top}" x2="{self.left}" '
            f'y2="{self.bottom}" stroke="{s["axis_color"]}" stroke-width="1.5"/>'
        )
        self.parts.append(
            f'<text x="{(self.left + self.right) / 2:.2f}" y="{STYLE["height"] - 18}" '
            f'text-anchor="middle" font-family="{s["font"]}" font-size="14">'
            f'decision threshold</text>'
        )
        self.parts.append(
            f'<text x="22" y="{(self.top + self.bottom) / 2:.2f}" text-anchor="middle" '
            f'font-family="{s["font"]}" font-size="14" '
            f'transform="rotate(-90 22 {(self.top + self.bottom) / 2:.2f})">'
            f'{_escape(y_label)}</text>'
        )

    def add_series(self, xs, ys, color, css_class, dasharray=None, width=None):
        width = width if width is not None else STYLE["stroke_width"]
        dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
        for run in _segments(xs, ys):
            coords = " ".join(f"{self.x_px(x):.2f},{self.y_px(y):.2f}" for x, y in run)
            self.parts.append(
                f'<polyline class="{css_class}" fill="none" stroke="{color}" '
                f'stroke-width="{width}" points="{coords}"{dash}/>'
            )

    def add_legend(self, entries):
        x = self.right + 16
        y = self.top + 10
        for label, color, dasharray in entries:
            dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
            self.parts.append(
                f'<line x1="{x}" y1="{y}" x2="{x + 28}" y2="{y}" stroke="{color}" '
                f'stroke-width="{STYLE["stroke_width"]}"{dash}/>'
            )
            self.parts.append(
                f'<text x="{x + 34}" y="{y + 4}" font-family="{STYLE["font"]}" '
                f'font-size="12">{_escape(label)}</text>'
            )
            y += 22

    def render(self) -> str:
        s = STYLE
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{s["width"]}" height="{s["height"]}" '
            f'viewBox="0 0 {s["width"]} {s["height"]}">'
        )
        background = '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>'
        return "\n".join([head, background, *self.parts, "</svg>"])


def _color(i: int) -> str:
    colors = STYLE["colors"]
    return colors[i % len(colors)]


def _series(model) -> dict:
    """A model's columns by their CSV names, NaN where a group is empty."""
    return {name: column for name, column, _ in _walk(model.columns)}


def _x_range(doc: ReportDocument):
    ts = [t for model in doc.models for t in model.columns.t.tolist()]
    return (min(ts), max(ts)) if ts else (0.0, 1.0)


# Per panel: the reference curves, drawn once from the first model because
# models share one cohort (field, class, color, dash, width; the field "t"
# draws the diagonal); each model's series (field, class, dash, width) and
# legend entries (label, dash); the closing legend entries (label, color,
# dash). Colors, dashes and widths name STYLE entries.
_LAYOUTS = {
    "decision": ((("nb_all", "nb-treat-all", "reference_color", "dashed", "reference_width"),
                  ("nb_none", "nb-treat-none", "axis_color", None, "reference_width")),
                 (("nb_model", "nb-model", None, "stroke_width"),),
                 (("{}", None),),
                 (("treat all", "reference_color", "dashed"), ("treat none", "axis_color", None))),
    "ppv": ((("t", "ppv-treat-none", "reference_color", None, "reference_width"),),
            (("ppv_all_ref", "ppv-treat-all-ref", "dotted", "reference_width"),
             ("ppv", "ppv-model", None, "stroke_width")),
            (("{}", None), ("{} treat-all ref", "dotted")),
            (("treat none (diagonal)", "reference_color", None),)),
    "calibration": ((("t", "cal-diagonal", "reference_color", None, "reference_width"),),
                    (("y_above", "cal-above", None, "stroke_width"),
                     ("y_below", "cal-below", "dashed", "stroke_width")),
                    (("{} rate above t", None), ("{} rate below t", "dashed")),
                    (("diagonal", "reference_color", None),)),
}


def _y_range(doc: ReportDocument, which: str) -> tuple[float, float]:
    if which != "decision":
        return 0.0, 1.0
    values = [0.0]
    for model in map(_series, doc.models):
        values += model["nb_model"].tolist() + model["nb_all"].tolist()
    y_lo = max(STYLE["nb_floor"], min(values))
    y_hi = max(values)
    return y_lo, y_hi + 0.05 * (y_hi - y_lo or 1.0)


def _dash(name):
    return name and STYLE[name]


def render_svg(doc: ReportDocument, which: str) -> str:
    """Render one panel ("decision", "ppv" or "calibration") as SVG text."""
    if which not in PANELS:
        raise UsageError(f"unknown panel {which!r}; expected one of {PANELS}")
    if not doc.models:
        raise UsageError("report has no model curves to draw")
    references, series, labels, closing = _LAYOUTS[which]
    panel = _Panel(_x_range(doc), _y_range(doc, which))
    panel.add_axes(_TITLES[which], _Y_LABELS[which])
    first = _series(doc.models[0])
    for name, css_class, color, dash, width in references:
        panel.add_series(first["t"].tolist(), first[name].tolist(), STYLE[color], css_class,
                         dasharray=_dash(dash), width=STYLE[width])
    legend = []
    for i, model in enumerate(doc.models):
        columns = _series(model)
        for name, css_class, dash, width in series:
            panel.add_series(columns["t"].tolist(), columns[name].tolist(), _color(i), css_class,
                             dasharray=_dash(dash), width=STYLE[width])
        legend += [(label.format(model.name), _color(i), _dash(dash)) for label, dash in labels]
    legend += [(label, STYLE[color], _dash(dash)) for label, color, dash in closing]
    panel.add_legend(legend)
    return panel.render()
