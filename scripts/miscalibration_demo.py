#!/usr/bin/env python3
"""Sweep systematic risk shifts and map where the model loses to the defaults.

For each log-odds shift, a synthetic cohort is scored by the shifted
model and by its own true risks, and the grid regions with nb < 0
(worse than treat-none) and nb < nb_all (worse than treat-all) are
reported together with the calibration violation that explains each.
"""

import argparse
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from dcakit import (
    ModelCurve,
    ReportDocument,
    SyntheticSpec,
    ThresholdGrid,
    generate_synthetic,
    render_svg,
    sweep_counts,
)
from dcakit.comparison import default_losses
from dcakit.curves import curve_columns


def region(points, loses, places):
    """One [lo, hi] range per run of consecutive grid points where ``loses``
    holds, t printed with ``places`` decimals, then how many points lose."""
    runs = [[p.t for p, _ in run] for lost, run in groupby(zip(points, loses), key=itemgetter(1))
            if lost]
    if not runs:
        return "-"
    ranges = ", ".join(f"[{run[0]:.{places}f}, {run[-1]:.{places}f}]" for run in runs)
    return f"{ranges} ({sum(map(len, runs))}/{len(points)} pts)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shifts", type=float, nargs="+",
                        default=[-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--distribution", choices=("uniform", "beta"), default="beta")
    parser.add_argument("--beta-a", type=float, default=2.0)
    parser.add_argument("--beta-b", type=float, default=5.0)
    parser.add_argument("--grid", default="0.01:0.50:0.01")
    parser.add_argument("--svg-dir", default=None,
                        help="write per-shift PPV panels comparing truth and model")
    args = parser.parse_args()

    grid = ThresholdGrid.from_string(args.grid)
    places = max(2, grid.decimals)
    print(f"{'shift':>6}  {'prevalence':>10}  {'worse than treat-none':>24}  "
          f"{'worse than treat-all':>24}")
    for shift in args.shifts:
        spec = SyntheticSpec(n=args.n, seed=args.seed, distribution=args.distribution,
                             beta_a=args.beta_a, beta_b=args.beta_b, logit_shift=shift,
                             label=f"shift{shift:+g}")
        truth, reported = generate_synthetic(spec)
        curve = ModelCurve(name=reported.name, points=curve_columns(reported, grid))
        points = curve.points
        loses_none, loses_all = default_losses(sweep_counts(reported, grid.points))
        below_none = [p for p, loses in zip(points, loses_none) if loses]
        below_all = [p for p, loses in zip(points, loses_all) if loses]
        print(f"{shift:>+6.1f}  {reported.prevalence:>10.4f}  "
              f"{region(points, loses_none, places):>24}  "
              f"{region(points, loses_all, places):>24}")
        if below_none:
            worst = min(below_none, key=lambda p: p.nb_model)
            print(f"        selected-group event rate {worst.calibration.y_above:.3f} "
                  f"< t={worst.t:.{places}f}: acting there harms more than treating nobody")
        if below_all:
            worst = min(below_all, key=lambda p: p.nb_model - p.nb_all)
            print(f"        spared-group event rate {worst.calibration.y_below:.3f} "
                  f"> t={worst.t:.{places}f}: withholding there is unjustified")
        if args.svg_dir:
            doc = ReportDocument(
                metadata={"shift": shift},
                models=(curve, ModelCurve(name=truth.name, points=curve_columns(truth, grid))),
            )
            out = Path(args.svg_dir)
            out.mkdir(parents=True, exist_ok=True)
            for panel in ("decision", "ppv", "calibration"):
                (out / f"shift{shift:+g}-{panel}.svg").write_text(render_svg(doc, panel))


if __name__ == "__main__":
    main()
