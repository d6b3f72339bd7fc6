import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def run_small(tmp_path):
    """Run a workload's job on a small input; return (workload, ctx, codes, stderr)."""
    import dcakit.cli
    import workloads

    def run(name, rows, seed=5):
        workload = dataclasses.replace(workloads.WORKLOADS[name], rows=rows)
        outdir = tmp_path / "out"
        outdir.mkdir()
        ctx = workloads.Context(workload.make_input(str(tmp_path), seed), str(outdir), seed)
        codes, err = [], io.StringIO()
        with contextlib.redirect_stderr(err):
            for argv in workload.calls(ctx):
                codes.append(dcakit.cli.cli_main(argv))
        assert workload.check(ctx, codes, err.getvalue()) == []
        return workload, ctx, codes, err.getvalue()

    return run
