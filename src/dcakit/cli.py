"""Command-line interface.

Subcommands: curves, compare, bounds, bootstrap, demo-miscalibration.
Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cache

from . import __version__
# compare_models stays importable here: bench/workloads.py traces it by name.
from .comparison import compare_columns, compare_models, default_losses, loss_runs  # noqa: F401
# decision_curve stays importable here: bench/workloads.py traces it by name.
from .curves import (CurvePoint, SyntheticSpec, ThresholdGrid, curve_columns,  # noqa: F401
                     decision_curve, generate_synthetic)
from .equivalences import ppv_bounds_given_nb
from .errors import DataError, RouteDisagreementError, UsageError
from .metrics import column_rows, sweep_counts
# file_digest stays importable here: bench/workloads.py traces it by name.
from .reader import IngestionSpec, file_digest, ingest  # noqa: F401
from .report import ComparisonSection, ModelCurve, ReportDocument, emit_report
from .resampling import BandSpec, bootstrap_bands, check_band_caps
from .svg import PANELS, render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for data errors and reports usage problems with exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".dcakit-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp creates the file 0600; give it the mode open() would. Setting
        # the umask is the portable way to read it; os.fchmod is missing on
        # Windows before Python 3.13.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _write_output(data: bytes, out: str | None) -> None:
    if out:
        _atomic_write(out, data)
    else:  # the report's own bytes, whatever the text encoding of stdout
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report serialization format")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH (atomic) instead of stdout")


def _add_grid_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", default="0.01:0.50:0.01", metavar="LO:HI:STEP",
                        help="threshold grid (default 0.01:0.50:0.01)")


def _add_input_options(parser: argparse.ArgumentParser, n_models: int | None = None) -> None:
    parser.add_argument("--input", required=True, metavar="PATH",
                        help="delimited input file with outcome and risk columns")
    parser.add_argument("--outcome", required=True, metavar="COLUMN",
                        help="binary outcome column (literal 0/1 values)")
    if n_models == 2:
        parser.add_argument("--models", required=True, nargs=2, metavar="COLUMN",
                            help="exactly two risk columns to compare")
    else:
        parser.add_argument("--models", required=True, nargs="+", metavar="COLUMN",
                            help="risk columns, one prediction model each")
    parser.add_argument("--delimiter", default=",", help="field delimiter (default comma)")
    parser.add_argument("--no-header", action="store_true",
                        help="file has no header row; address columns by 0-based index")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Its subcommands
    look up what they call at call time, so a name rebound in this module
    takes effect on a parser already built."""
    parser = _Parser(prog="dcakit",
                     description="Decision-curve, PPV-curve and threshold-calibration "
                                 "analytics for binary risk prediction models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_curves = sub.add_parser("curves", help="decision, PPV and calibration report")
    _add_input_options(p_curves)
    _add_grid_option(p_curves)
    _add_io_options(p_curves)
    p_curves.add_argument("--svg", default=None, metavar="PREFIX",
                          help="also write PREFIX-decision.svg, PREFIX-ppv.svg and "
                               "PREFIX-calibration.svg")
    p_curves.set_defaults(func=_cmd_curves)

    p_compare = sub.add_parser("compare", help="pairwise model comparison per threshold")
    _add_input_options(p_compare, n_models=2)
    _add_grid_option(p_compare)
    _add_io_options(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_bounds = sub.add_parser("bounds", help="feasible PPV range implied by a net benefit")
    p_bounds.add_argument("--nb", type=float, required=True, help="net benefit value")
    p_bounds.add_argument("--prevalence", type=float, required=True,
                          help="event fraction of the cohort")
    p_bounds.add_argument("--t", type=float, required=True, help="decision threshold")
    _add_io_options(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_boot = sub.add_parser("bootstrap", help="curves report with percentile bands")
    _add_input_options(p_boot)
    _add_grid_option(p_boot)
    _add_io_options(p_boot)
    p_boot.add_argument("--replicates", type=int, default=1000, help="bootstrap replicates")
    p_boot.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p_boot.add_argument("--level", type=float, default=0.95, help="band level, e.g. 0.95")
    p_boot.set_defaults(func=_cmd_bootstrap)

    p_demo = sub.add_parser("demo-miscalibration",
                            help="show how a systematic risk shift moves a model below "
                                 "treat-none or treat-all")
    p_demo.add_argument("--shift", type=float, default=1.0,
                        help="log-odds shift applied to true risks (default +1.0)")
    p_demo.add_argument("--n", type=int, default=20000, help="cohort size")
    p_demo.add_argument("--seed", type=int, default=7, help="generator seed")
    p_demo.add_argument("--distribution", choices=("uniform", "beta"), default="beta",
                        help="true risk distribution (default beta)")
    p_demo.add_argument("--beta-a", type=float, default=2.0, help="beta shape a")
    p_demo.add_argument("--beta-b", type=float, default=5.0, help="beta shape b")
    _add_grid_option(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def _metadata(args, grid: ThresholdGrid, digest: str, **options) -> dict:
    return {
        "tool": "dcakit",
        "version": __version__,
        "grid": {"lo": grid.lo, "hi": grid.hi, "step": grid.step},
        "options": options,
        "input": args.input,
        "input_digest": digest,
    }


def _ingest_from_args(args):
    spec = IngestionSpec(
        path=args.input,
        outcome_column=args.outcome,
        model_columns=tuple(args.models),
        delimiter=args.delimiter,
        header=not args.no_header,
    )
    return ingest(spec)


def _model_curves(datasets, grid: ThresholdGrid) -> tuple:
    return tuple(ModelCurve(d.name, curve_columns(sweep_counts(d, grid.points)))
                 for d in datasets)


def _cmd_curves(args) -> int:
    grid = ThresholdGrid.from_string(args.grid)
    datasets = _ingest_from_args(args)
    models = _model_curves(datasets, grid)
    doc = ReportDocument(metadata=_metadata(args, grid, datasets.digest, outcome=args.outcome),
                         models=models)
    _write_output(emit_report(doc, format=args.format), args.out)
    if args.svg:
        for panel in PANELS:
            _atomic_write(f"{args.svg}-{panel}.svg", render_svg(doc, panel).encode("utf-8"))
    return EXIT_OK


def _cmd_compare(args) -> int:
    grid = ThresholdGrid.from_string(args.grid)
    datasets = _ingest_from_args(args)
    d1, d2 = datasets
    verdicts = compare_columns(d1, d2, grid)
    doc = ReportDocument(
        metadata=_metadata(args, grid, datasets.digest, outcome=args.outcome),
        comparisons=(ComparisonSection(model1=d1.name, model2=d2.name, verdicts=verdicts),),
    )
    _write_output(emit_report(doc, format=args.format), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    interval = ppv_bounds_given_nb(args.nb, args.prevalence, args.t)
    record = {"t": interval.t, "nb": interval.nb, "prevalence": args.prevalence,
              "lower": interval.lower, "upper": interval.upper, "kind": interval.kind}
    if args.format == "csv":
        cells = (v if isinstance(v, str) else format(v, ".17g") for v in record.values())
        text = ",".join(record) + "\n" + ",".join(cells) + "\n"
    else:
        text = json.dumps(record, indent=2) + "\n"
    _write_output(text.encode("utf-8"), args.out)
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    grid = ThresholdGrid.from_string(args.grid)
    spec = BandSpec(replicates=args.replicates, seed=args.seed, level=args.level)
    check_band_caps(spec, grid)
    datasets = _ingest_from_args(args)
    models = _model_curves(datasets, grid)
    bands = {d.name: bootstrap_bands(d, grid, spec) for d in datasets}
    doc = ReportDocument(
        metadata=_metadata(args, grid, datasets.digest, outcome=args.outcome,
                           replicates=spec.replicates, seed=spec.seed, level=spec.level),
        models=models,
        bands=bands,
    )
    _write_output(emit_report(doc, format=args.format), args.out)
    return EXIT_OK


def _region(t, loses, places: int) -> str:
    """One threshold range per loss_runs run, t printed with ``places``
    decimals."""
    runs = loss_runs(t, loses)
    return ", ".join(f"{run[0]:.{places}f} <= t <= {run[-1]:.{places}f}" for run in runs)


def _cmd_demo(args) -> int:
    grid = ThresholdGrid.from_string(args.grid)
    spec = SyntheticSpec(
        n=args.n,
        seed=args.seed,
        distribution=args.distribution,
        beta_a=args.beta_a,
        beta_b=args.beta_b,
        logit_shift=args.shift,
        label="miscalibration-demo",
    )
    _, reported = generate_synthetic(spec)
    sweep = sweep_counts(reported, grid.points)
    points = column_rows(CurvePoint, curve_columns(sweep))
    prevalence = reported.prevalence
    places = max(2, grid.decimals)

    dist = (f"beta({args.beta_a:g},{args.beta_b:g})"
            if args.distribution == "beta" else "uniform")
    print(f"synthetic cohort: n={args.n} seed={args.seed} distribution={dist} "
          f"logit shift={args.shift:+g}")
    print(f"observed prevalence: {prevalence:.4f}")

    loses_none, loses_all = default_losses(sweep)
    below_none = [p for p, loses in zip(points, loses_none) if loses]
    below_all = [p for p, loses in zip(points, loses_all) if loses]
    print()
    print("thresholds worse than treat-none (nb < 0):")
    if below_none:
        for p in below_none:
            print(f"  t={p.t:.{places}f}  nb={p.nb_model:+.5f}  "
                  f"event rate above t={p.calibration.y_above:.4f} < t")
        print(f"  region: {_region(sweep.t, loses_none, places)} "
              f"(selected group not event-rich enough to justify action)")
    else:
        print("  none on this grid")
    print()
    print("thresholds worse than treat-all (nb < nb_all):")
    if below_all:
        for p in below_all:
            print(f"  t={p.t:.{places}f}  nb={p.nb_model:+.5f}  nb_all={p.nb_all:+.5f}  "
                  f"event rate below t={p.calibration.y_below:.4f} > t")
        print(f"  region: {_region(sweep.t, loses_all, places)} "
              f"(spared group is not actually low risk)")
    else:
        print("  none on this grid")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help/--version exit 0, errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"dcakit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"dcakit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RouteDisagreementError as exc:
        print(f"dcakit: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"dcakit: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    run()
