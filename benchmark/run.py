"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``.
Every job is a ``coopsim`` command line run in this process through
``coopsim.cli.main``; the workload seed picks the jobs, and the program
receives only their arguments and generated input files.  Every job's
outputs are checked against the recorded references.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several set-ups, each in a fresh process), items per second and per-item
latency over ``--seconds`` of jobs, and peak resident memory.
``--trace 1`` runs a fixed list of jobs, each once untraced and once
traced, and prints the per-layer metrics of the traced runs.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Fresh-process set-ups per run; setup_s is their median.
SETUP_RUNS = 3
# Seconds per window of the latency quantiles (see end_to_end).
WINDOW_S = 2.0

sys.path.insert(0, BENCH_DIR)

from outputs import (  # noqa: E402
    capture_converged,
    check_job,
    load_references,
    normalize_stdout,
    read_outputs,
)
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_cli():
    """Import ``coopsim.cli`` from this checkout's ``src/``, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "coopsim", "cli.py")):
        sys.exit(f"error: {SRC}/coopsim not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    from coopsim import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: coopsim was imported from {cli.__file__}, not from {SRC}")
    return cli


def execute(cli, job, work: str, out: str):
    """Run one job; returns (exit code, normalized stdout, seconds, error text)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = job.command(work, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return code, normalize_stdout(stdout.getvalue(), out), elapsed, error or stderr.getvalue()


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpuinfo("model name") or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _cpuinfo(field: str) -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == field:
                    return value.strip()
    except OSError:
        pass
    return ""


class Tally:
    """Items attempted, failed and byte-identical, over every checked job."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = self.failed = self.identical = 0
        self._reported = False

    def check(self, job, code, stdout, error, out, converged=None) -> None:
        ref = self.refs["jobs"].get(job.key)
        files = read_outputs(out, ref["files"]) if ref else {}
        verdict = check_job(ref, code, stdout, files, converged)
        self.attempted += job.items
        if verdict.identical:
            self.identical += job.items
        if not verdict.ok:
            self.failed += job.items
            self._report(job, verdict.problem, error)

    def _report(self, job, problem, error) -> None:
        if self._reported:
            return
        self._reported = True
        import numpy

        print(f"mismatch in job {job.key} ({' '.join(job.argv)}): {problem}", file=sys.stderr)
        if error:
            print(error.rstrip(), file=sys.stderr)
        print(f"numpy {numpy.__version__}; the references pin one host class. "
              f"cpu flags: {_cpuinfo('flags')}", file=sys.stderr)
        print(f"references recorded on: {json.dumps(self.refs.get('meta', {}))}",
              file=sys.stderr)


def _work_dir(workload) -> str:
    return os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")


def probe_setup(workload, seed: int) -> None:
    """One set-up in this fresh process: import, inputs, one warm-up job."""
    start = time.perf_counter()
    cli = import_cli()
    work = _work_dir(workload)
    try:
        workload.write_inputs(work)
        execute(cli, next(workload.jobs(seed)), work, os.path.join(work, "out"))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def setup_seconds(workload, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def warm_up(cli, tally: Tally, job, work: str) -> None:
    """Run and check one job outside the measurement, with its solve flags."""
    out = os.path.join(work, "out")
    flags: list = []
    with capture_converged(cli, flags):
        code, stdout, _, error = execute(cli, job, work, out)
    converged = None
    if "converged" in tally.refs["jobs"].get(job.key, {}):
        converged = flags[0] if flags else []
    tally.check(job, code, stdout, error, out, converged)


def run_jobs(cli, tally: Tally, jobs, work: str, seconds=None) -> list[tuple[float, int, float]]:
    """Run jobs in order, checking each; stop after ``seconds`` if given.

    Returns (start, items, seconds) per job: when the job started, from the
    start of the phase, and the time of its ``cli.main`` call alone.
    """
    out = os.path.join(work, "out")
    samples = []
    phase_start = time.perf_counter()
    for job in jobs:
        start = time.perf_counter() - phase_start
        code, stdout, elapsed, error = execute(cli, job, work, out)
        tally.check(job, code, stdout, error, out)
        samples.append((start, job.items, elapsed))
        if seconds is not None and time.perf_counter() - phase_start >= seconds:
            break
    return samples


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(samples, setups, seconds: int) -> dict:
    """The end-to-end metrics of a timed phase.

    The latency quantiles are taken per ``WINDOW_S`` window of the phase and
    averaged over the windows.  The host alternates between speed regimes
    lasting seconds; a quantile over the whole run jumps between regimes as
    their shares shift, while the window average moves in proportion.
    """
    windows: dict[int, list[float]] = {}
    last = max(1, int(seconds // WINDOW_S)) - 1
    for start, items, elapsed in samples:
        windows.setdefault(min(int(start // WINDOW_S), last), []).append(1e3 * elapsed / items)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": sum(n for _, n, _ in samples) / sum(t for _, _, t in samples),
        "item_p50_ms": statistics.mean(statistics.median(w) for w in windows.values()),
        "item_p90_ms": statistics.mean(_p90(w) for w in windows.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec: Recorder, self_s: dict, untraced_s: float, traced_s: float,
              tally: Tally) -> dict:
    calls = rec.calls()
    counts = rec.counts
    values = {}
    for name in rec.names:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_ms"] = 1e3 * self_s[name]
    periods = counts["simulation.periods"]
    solves = calls["solver.solve_equilibrium"]
    values.update({
        "simulation.periods": periods,
        "simulation.us_per_period":
            1e6 * rec.inclusive_time("simulation.run") / periods if periods else 0.0,
        "solver.iterations": counts["solver.iterations"],
        "solver.converged_frac": counts["solver.converged"] / solves if solves else 0.0,
        "files.bytes_written": counts["files.bytes_written"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "check.bytes_identical_frac": tally.identical / tally.attempted,
    })
    return values


def trace_run(cli, tally: Tally, workload, seed: int, seconds: int, work: str):
    """Each job untraced, then traced; returns (per-layer values, trace block)."""
    n = max(1, round(seconds * workload.trace_jobs_per_s))
    jobs = list(islice(workload.jobs(seed), n))
    rec = Recorder()
    untraced, traced = [], []
    # Each job runs untraced and then traced, so host speed drifts alike
    # for both passes.
    for i, job in enumerate(jobs):
        untraced += run_jobs(cli, tally, [job], work)
        rec.run_id = i
        rec.install()
        try:
            traced += run_jobs(cli, tally, [job], work)
        finally:
            rec.restore()
    untraced_s = sum(t for _, _, t in untraced)
    traced_s = sum(t for _, _, t in traced)
    os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
    span_file = os.path.join(WORK_ROOT, "traces", f"{workload.name}-seed{seed}.csv")
    rec.write(span_file)
    self_s = rec.self_times()
    block = {
        "jobs": n,
        "items": sum(job.items for job in jobs),
        "spans": len(rec.start),
        "untraced_wall_ms": 1e3 * untraced_s,
        "traced_wall_ms": 1e3 * traced_s,
        "self_total_ms": 1e3 * sum(self_s.values()),
        "absent": rec.absent,
        "span_file": os.path.relpath(span_file, ROOT),
    }
    return per_layer(rec, self_s, untraced_s, traced_s, tally), block


def emit(metrics_spec: list, values: dict, tally: Tally) -> None:
    metrics = {}
    for m in metrics_spec:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']}")
    print(f"metric failed_frac {tally.failed / tally.attempted!r} frac "
          f"({tally.failed} of {tally.attempted} items)")
    if "check.bytes_identical_frac" not in metrics:
        print(f"metric check.bytes_identical_frac {tally.identical / tally.attempted!r} frac")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        probe_setup(workload, args.seed)
        return 0

    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = import_cli()
    setups = [] if args.trace else setup_seconds(workload, args.seed)
    tally = Tally(load_references(workload.name))
    work = _work_dir(workload)
    try:
        workload.write_inputs(work)
        jobs = workload.jobs(args.seed)
        warm_up(cli, tally, next(jobs), work)
        if args.trace:
            values, block = trace_run(cli, tally, workload, args.seed, args.seconds, work)
        else:
            samples = run_jobs(cli, tally, jobs, work, seconds=args.seconds)
            values = end_to_end(samples, setups, args.seconds)
            block = {"jobs": len(samples), "items": sum(n for _, n, _ in samples),
                     "setup_samples_s": setups}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine " + json.dumps(machine()))
    print("run " + json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "item": workload.item, **block,
    }))
    emit(spec["per_layer" if args.trace else "end_to_end"], values, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
