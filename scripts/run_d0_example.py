#!/usr/bin/env python3
"""Run the bundled worked example end to end.

Ingests the ten-record fixture, sweeps the default grid, bootstraps
bands, and writes the JSON report plus the three SVG panels into an
output directory.
"""

import argparse
from pathlib import Path

from dcakit import (
    BandSpec,
    IngestionSpec,
    ModelCurve,
    ReportDocument,
    ThresholdGrid,
    bootstrap_bands,
    decision_curve,
    emit_report,
    ingest,
    render_svg,
    verdict_vs_defaults,
)

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / "d0.csv"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="d0-example", help="output directory")
    parser.add_argument("--grid", default="0.01:0.50:0.01")
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    grid = ThresholdGrid.from_string(args.grid)
    datasets = ingest(IngestionSpec(path=str(FIXTURE), outcome_column="y",
                                    model_columns=("m1",)))
    (data,) = datasets
    points = decision_curve(data, grid)
    band = bootstrap_bands(data, grid,
                           BandSpec(replicates=args.replicates, seed=args.seed))
    doc = ReportDocument(
        metadata={
            "tool": "dcakit",
            "input": str(FIXTURE),
            "input_digest": datasets.digest,
            "grid": {"lo": grid.lo, "hi": grid.hi, "step": grid.step},
            "options": {"replicates": args.replicates, "seed": args.seed},
        },
        models=(ModelCurve(name=data.name, points=tuple(points)),),
        bands={data.name: band},
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_bytes(emit_report(doc, format="json"))
    (out_dir / "report.csv").write_bytes(emit_report(doc, format="csv"))
    for panel in ("decision", "ppv", "calibration"):
        (out_dir / f"{panel}.svg").write_text(render_svg(doc, panel))

    print(f"n={data.n} events={data.n1} prevalence={data.prevalence:.2f}")
    for t in (0.1, 0.3, 0.5):
        if not any(abs(p.t - t) < 1e-9 for p in points):
            continue
        v = verdict_vs_defaults(data, t)
        print(f"t={t:.2f}  nb={v.nb:+.4f}  nb_all={v.nb_all:+.4f}  ppv={v.ppv:.4f}  "
              f"beats none={v.beats_none}  beats all={v.beats_all}")
    print(f"wrote report and panels to {out_dir}/")


if __name__ == "__main__":
    main()
