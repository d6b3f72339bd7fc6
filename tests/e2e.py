#!/usr/bin/env python3
"""Every end-to-end check of dcakit, as CI runs it: ``python3 tests/e2e.py``. On the
benchmark's seed-7 rows: the CLI's reports from the file and a pipe, from LF, CR LF
and UTF-8-note rows, after a JSON round trip and against tests/rows_report.py; then
every bench/workloads.py oracle, also bootstrap-100k on one CPU (Linux) and
finegrid-50k traced. One line per check; exit 1 at the first failure."""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
import traceback
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Failed(Exception):
    """A check's problems, one argument each."""


def compare(expected: bytes, got: bytes, ignored=("input",), what="report") -> None:
    """Fail unless report ``got`` is ``expected`` with every JSON metadata line
    of an ``ignored`` key dropped from both, as ``grep -v '^    "input": '``."""
    prefixes = tuple(f'    "{key}": '.encode() for key in ignored)
    kept = ([x for x in r.split(b"\n") if not x.startswith(prefixes)] for r in (expected, got))
    for number, (a, b) in enumerate(zip_longest(*kept), 1):
        if a != b:
            raise Failed(f"{what}: kept line {number} is {b!r}, expected {a!r}")


def report(path: Path, command: str, fmt: str, *options, expected=None, ignored=("input",)):
    """dcakit's report on ``path`` from the file, run in src/ to import this tree's
    dcakit. It must equal the report through a pipe (a redirect would make
    /dev/stdin a regular file) bar ``input``, and ``expected`` bar ``ignored``."""
    reports = []
    for source in (str(path), "/dev/stdin"):
        args = [command, "--input", source, "--outcome", "y", "--models", "m1", "m2",
                "--format", fmt, *options]
        run = subprocess.run([sys.executable, "-m", "dcakit.cli", *args], cwd=ROOT / "src",
                             input=path.read_bytes() if reports else None, capture_output=True)
        if run.returncode:
            raise Failed(f"{' '.join(args)}: exit {run.returncode}: {run.stderr[-300:]!r}")
        reports.append(run.stdout)
    compare(*reports, what=f"{command} {fmt} through a pipe")
    if expected is not None:
        compare(expected, reports[0], ignored)
    return reports[0]


@contextlib.contextmanager
def check(name: str):
    """One check's line, with its seconds; at a failure, its problems and exit 1."""
    start = time.monotonic()
    try:
        yield
    except Exception as exc:
        problems = exc.args if isinstance(exc, Failed) else [traceback.format_exc()]
        sys.exit("\n  ".join([f"FAIL {name} ({time.monotonic() - start:.1f} s)", *problems]))
    print(f"ok   {name} ({time.monotonic() - start:.1f} s)", flush=True)


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]
    from dcakit import emit_report, parse_report
    from inputs import FULL_PRECISION, THOUSANDTHS, write_input
    from rows_report import rows_csv
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix="dcakit-e2e-") as tmp:
        rows, crlf, utf8, fine = (Path(tmp, f"{n}.csv") for n in ("lf", "crlf", "utf8", "fine"))
        write_input(str(rows), 1_000_000, 7, FULL_PRECISION)
        write_input(str(fine), 50_000, 7, THOUSANDTHS)
        header, _, body = (data := rows.read_bytes()).partition(b"\n")
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        utf8.write_bytes(header + b",note\n" + body.replace(b"\n", ",vérifié\n".encode()))
        with check("rows-1m from the file and a pipe"):
            lf = {f: report(rows, "curves", f) for f in ("csv", "json")}
        with check("rows-1m JSON parse round trip"):
            doc = parse_report(lf["json"])
            compare(lf["json"], emit_report(doc, "json"), ())
            compare(lf["csv"], emit_report(doc, "csv"), ())
        with check("rows-1m CR LF"):
            for f in lf:
                report(crlf, "curves", f, expected=lf[f], ignored=("input", "input_digest"))
        with check("rows-1m UTF-8 note column"):
            report(utf8, "curves", "csv", expected=lf["csv"])
        with check("finegrid-50k row oracle"):
            for command in ("curves", "compare"):
                doc = parse_report(report(fine, command, "json", "--grid", "0.001:0.999:0.001"))
                report(fine, command, "csv", "--grid", "0.001:0.999:0.001", expected=rows_csv(
                    models=[(m.name, m.points) for m in doc.models],
                    comparisons=[(s.model1, s.model2, s.verdicts) for s in doc.comparisons]))
    one_cpu = {"preexec_fn": lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})}
    for label, name, trace, pin in [*((name, name, "0", {}) for name in WORKLOADS),
                                    ("bootstrap-100k on one CPU", "bootstrap-100k", "0", one_cpu),
                                    ("finegrid-50k traced", "finegrid-50k", "1", {})]:
        with check(f"oracle {label}"):
            # bench/run.py's 3 s seed-7 run: correct, no failed job, no trace target missing.
            run = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                                  name, "--seed", "7", "--seconds", "3", "--trace", trace],
                                 capture_output=True, text=True, **pin)
            if run.returncode:
                raise Failed(f"bench/run.py: exit {run.returncode}: {run.stderr[-300:]!r}")
            details, result = map(json.loads, run.stdout.splitlines()[-2:])
            problems = details["problems"] + [
                f"missing trace target {t}" for t in details.get("missing_trace_targets", [])]
            if problems or result["correct"] is not True or result["failed"]:
                raise Failed(f"correct {result['correct']}, {result['failed']} failed", *problems)


if __name__ == "__main__":
    main()
