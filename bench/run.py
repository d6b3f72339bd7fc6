"""dcakit benchmark: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/dcakit`` of the tree
this file sits in. The seed makes the input file (outside the timed
region), then jobs run one after another until ``--seconds`` of job time
have been measured. Each job's output is checked against an oracle
outside the timed region. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
jobs and reports the per-layer breakdown of the median traced job.

The last line of stdout is the result object; the line before it gives
the details (samples, input digest, environment). Metric names and units
come from BENCHMARK.json at the root of the tree.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
SEED_MODULUS = 2**32  # SeedSequence and dcakit's --seed need a non-negative seed
ADDITIVITY_TOL_S = 1e-6
_READY = "import time, dcakit.cli; print(time.monotonic(), dcakit.cli.__file__)"


def _in_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def measure_setup(runs: int) -> list:
    """Seconds from starting a Python process until ``dcakit.cli`` is imported.

    One process at a time, before any job, after one unmeasured start that
    leaves the byte-code caches warm as an installed package has them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for i in range(runs + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _READY], env=env, cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing dcakit.cli failed: {proc.stderr.strip()}")
        ready, module_file = proc.stdout.split(maxsplit=1)
        if not _in_src(module_file.strip()):
            raise RuntimeError(f"imported dcakit from {module_file.strip()}, not {SRC}")
        if i:
            samples.append(float(ready) - start)
    return samples


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    traced: bool
    problems: list
    tracer: object = None


@dataclass
class Checker:
    """Checks outputs; an output byte-identical to one already passed, passes."""

    workload: object
    ctx: object
    passed: set = field(default_factory=set)

    def __call__(self, codes, stderr) -> list:
        digest = hashlib.sha256(repr((codes, stderr)).encode())
        for name in sorted(os.listdir(self.ctx.outdir)):
            digest.update(name.encode())
            digest.update(Path(self.ctx.out(name)).read_bytes())
        key = digest.hexdigest()
        if key in self.passed:
            return []
        try:
            problems = self.workload.check(self.ctx, codes, stderr)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            self.passed.add(key)
        return problems


def run_job(cli_main, calls, check, tracer=None) -> Job:
    codes, err = [], io.StringIO()
    traced = tracer is not None
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(tracer.installed(workloads.TRACE_TARGETS))
        stack.enter_context(contextlib.redirect_stderr(err))
        root = tracer.span(workloads.ROOT_SPAN) if traced else contextlib.nullcontext()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with root:
            for argv in calls:
                try:
                    codes.append(cli_main(argv))
                except Exception:  # a crash is a failed job, not a failed benchmark
                    codes.append(None)
                    err.write(traceback.format_exc())
                    break
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Job(wall, cpu, traced, check(codes, err.getvalue()), tracer)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def _metrics(values: dict, declared: list) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dcakit" / "cli.py").is_file():
        print(f"bench: no dcakit sources at {SRC / 'dcakit'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed % SEED_MODULUS

    setup = measure_setup(SETUP_RUNS)
    sys.path.insert(0, str(SRC))
    import dcakit.cli

    if not _in_src(dcakit.cli.__file__):
        raise RuntimeError(f"imported dcakit from {dcakit.cli.__file__}, not {SRC}")

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        outdir = os.path.join(workdir, "out")
        os.mkdir(outdir)
        ctx = workloads.Context(workload.make_input(workdir, seed), outdir, seed)
        input_bytes = os.path.getsize(ctx.input.path)
        calls = workload.calls(ctx)
        check = Checker(workload, ctx)
        jobs = []
        while (sum(j.wall_s for j in jobs) < args.seconds
               or (args.trace and len({j.traced for j in jobs}) < 2)):
            shutil.rmtree(outdir)
            os.mkdir(outdir)
            gc.collect()
            tracer = Tracer() if args.trace and len(jobs) % 2 else None
            jobs.append(run_job(dcakit.cli.cli_main, calls, check, tracer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [j for j in jobs if not j.traced]
    problems = [p for j in jobs for p in j.problems]
    failed = sum(1 for j in jobs if j.problems)
    job_s = statistics.median(j.wall_s for j in untraced)
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "input": {"rows": ctx.input.rows, "bytes": input_bytes, "sha256": ctx.input.sha256},
        "jobs": len(jobs), "untraced_jobs": len(untraced),
        "job_s_samples": [j.wall_s for j in untraced],
        "setup_s_samples": setup,
        "failed_ratio": failed / len(jobs),
        "problems": problems[:10],
        "environment": environment(),
    }
    if args.trace:
        traced = sorted((j for j in jobs if j.traced), key=lambda j: j.wall_s)
        median_job = traced[(len(traced) - 1) // 2]
        values = workloads.per_layer_metrics(median_job.tracer, job_s)
        gap = sum(values[m] for m in workloads.SELF_TIME_METRICS) - values["trace.job_s"]
        if abs(gap) > ADDITIVITY_TOL_S:
            problems.append(f"layer self times miss trace.job_s by {gap!r} s")
        details["missing_trace_targets"] = median_job.tracer.missing
        metrics = _metrics(values, spec["per_layer"])
    else:
        metrics = _metrics({
            "job_s": job_s,
            "cpu_s": statistics.median(j.cpu_s for j in untraced),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }, spec["end_to_end"])
    print(json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
