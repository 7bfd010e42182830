#!/usr/bin/env python3
"""Time the engine's layers and the iOS case-study job in one process.

Rows, each the cost of one call:

- ``rng.noise_block``: the whole noise block of one iOS run (66 periods of
  3 actors);
- ``simulation.update_trust``: one ``_update_trust_matrices`` on a
  (1, 3, 3) batch;
- ``simulation.window_means``: one ``_window_means`` with k = 4;
- ``simulation.run`` and ``simulation.period``: one iOS ``run()``, and the
  same divided by its 66 periods;
- ``case_study.run_pair``: the iOS baseline and counterfactual as one
  two-row ``record_batch`` (``case_study.run_ios_pair``);
- ``files.trajectory_csv``, ``files.dyads_csv``, ``files.long_format_csv``:
  each writer on the iOS trajectory;
- ``scenario.reference_scenario``: one ``reference_scenario()`` build,
  every block validated; ``prop-check`` builds 6 of these and 3
  ``pd_scenario()`` per job;
- ``solver.solve_equilibrium``: one solve on ``reference_scenario()``;
- ``solver.cross_partial_check``: one default ``cross_partial_check()``,
  two solver builds (one per rho0 level) and four refined 4001-point
  solves; ``prop-check``'s Prop 3 is three such calls, 56–58% of the
  ``job.prop_check`` time (median of three 40-run medians on 2 Xeon
  vCPUs, Python 3.11.7, numpy 2.4.6);
- ``simulation.run_best_response``: one best-response ``run()`` of the
  3-actor scenario that the in-process ``coopsim translate --deps
  src/coopsim/data/ios_dependencies.csv`` writes;
- ``sweep.measure_batch``: one ``measure_cells`` call on the first 256
  cells of the full grid;
- ``job.case_study``: the in-process ``coopsim case-study ios
  --counterfactual`` job, output files included;
- ``job.simulate_best_response``: the in-process ``coopsim simulate
  --mode best_response`` job on that scenario, output files included;
- ``job.prop_check``: the in-process ``coopsim prop-check`` job, its
  output included;
- ``job.sweep``: the in-process ``coopsim sweep`` job on the 36-cell grid
  ``SWEEP_GRID``, output files included;
- ``job.sweep_full``: ``coopsim sweep --grid full`` in a child process;
- ``job.montecarlo``: ``coopsim montecarlo --trials 2000`` in a child
  process.

The two child-process rows include interpreter start-up, run
``CHILD_REPEATS`` times each after the other rows, and also report the
largest peak resident memory of their own children
(``child_peak_rss_mib``).

Each repeat times every row once, in turn, so drift on the host spreads
over all rows alike; a row reports the median and the quartiles of its
repeats in microseconds.  The program timed is the one in the ``src/``
directory beside this script.  The result is one JSON block with a machine
block (cores, CPU model, numpy's SIMD extensions found at run time, Python
and numpy versions); ``--out FILE --label NAME`` stores it as ``NAME`` in
FILE, keeping the file's other blocks, so the blocks of two checkouts sit
side by side:

    python scripts/bench.py --repeats 15 --label change --out BENCH.json
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
sys.path.insert(0, SRC)
DEPS = os.path.join(SRC, "coopsim", "data", "ios_dependencies.csv")

import numpy as np  # noqa: E402

from coopsim import case_study, cli, files, rng, simulation, sweep  # noqa: E402
from coopsim.scenario import reference_scenario  # noqa: E402
from coopsim.solver import SolverConfig, cross_partial_check, solve_equilibrium  # noqa: E402

# Calls per sample are chosen so one sample takes about this long.
SAMPLE_S = 0.02
# The grid of the job.sweep row: 36 cells, every target passes.
SWEEP_GRID = "rho0 = 0.2,1.0\nkappa = 0.5,1.5,3.0\nmemory_k = 1,4,16\nd = 0.2,1.0\n"
# The child-process rows: the job.sweep_full grid, the job.montecarlo
# trials, and the runs of each row (a full sweep takes a few seconds).
FULL_SWEEP_GRID = "full"
MONTECARLO_TRIALS = 2000
CHILD_REPEATS = 3


def _noise_block(seed: int, n: int, horizon: int):
    """The noise of one run: one array call of ``rng.normal``."""
    streams = np.arange(n, dtype=np.uint64)[None]
    counters = np.arange(1, horizon + 1, dtype=np.uint64)[:, None]
    return lambda: rng.normal(seed, streams, counters)


def _measure_batch(cells: int):
    """One ``measure_cells`` call on the full grid's first ``cells`` cells."""
    first = {key: col[:cells] for key, col in sweep.FULL_GRID.columns().items()}
    return lambda: sweep.measure_cells(first)


def _cli(argv: list) -> None:
    """One in-process ``coopsim`` command, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"{argv[0]} job failed")


def rows(work: str) -> dict:
    """Row name -> (zero-argument call, divisor of its time)."""
    scenario, sim = case_study.build_ios_scenario()
    traj = simulation.run(scenario, sim)
    batch = simulation.RunBatch.of([(scenario, sim)])
    p = simulation._trust_rows(batch.rows, batch.rows["d"])
    trust, reputation = traj.trust[10][None].copy(), traj.reputation[10][None].copy()
    signal = traj.signal[10][None]

    k = np.array([[4]])
    hist = traj.actions[:, None, :].copy()
    reach = simulation._window_reach(k, scenario.n)
    initial = np.array([scenario.baseline_init])

    ref = reference_scenario()
    own_avg = np.array(ref.baseline_init)
    ref_trust = np.full((ref.n, ref.n), ref.trust.t0)
    np.fill_diagonal(ref_trust, 1.0)
    equilibrium = os.path.join(work, "equilibrium.conf")
    _cli(["translate", "--deps", DEPS, "--out", equilibrium])
    eq_scenario, eq_sim = files.read_scenario(equilibrium)
    eq_sim = dataclasses.replace(eq_sim, mode="best_response")
    case_job = ["case-study", "ios", "--counterfactual", "--out", work]
    sweep_grid = os.path.join(work, "bench.grid")
    with open(sweep_grid, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_GRID)
    sweep_job = ["sweep", "--grid", sweep_grid, "--out", work]
    simulate_job = ["simulate", "--scenario", equilibrium, "--mode", "best_response",
                    "--out", work]

    return {
        "rng.noise_block": (_noise_block(sim.seed, scenario.n, sim.horizon), 1),
        "simulation.update_trust": (
            lambda: simulation._update_trust_matrices(trust, reputation, signal, p), 1),
        "simulation.window_means": (
            lambda: simulation._window_means(hist, 20, k, reach, initial), 1),
        "simulation.run": (lambda: simulation.run(scenario, sim), 1),
        "simulation.period": (lambda: simulation.run(scenario, sim), sim.horizon),
        "case_study.run_pair": (lambda: case_study.run_ios_pair(sim.seed), 1),
        "files.trajectory_csv": (lambda: files.trajectory_csv(traj), 1),
        "files.dyads_csv": (lambda: files.dyads_csv(traj), 1),
        "files.long_format_csv": (lambda: files.long_format_csv(traj), 1),
        "scenario.reference_scenario": (reference_scenario, 1),
        "solver.solve_equilibrium": (
            lambda: solve_equilibrium(ref, own_avg, ref_trust, SolverConfig()), 1),
        "solver.cross_partial_check": (cross_partial_check, 1),
        "simulation.run_best_response": (lambda: simulation.run(eq_scenario, eq_sim), 1),
        "sweep.measure_batch": (_measure_batch(256), 1),
        "job.case_study": (lambda: _cli(case_job), 1),
        "job.simulate_best_response": (lambda: _cli(simulate_job), 1),
        "job.prop_check": (lambda: _cli(["prop-check"]), 1),
        "job.sweep": (lambda: _cli(sweep_job), 1),
    }


def _calls_per_sample(fn) -> int:
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(1, int(SAMPLE_S / max(once, 1e-9)))


def _summary(us: list, **extra) -> dict:
    q1, median, q3 = statistics.quantiles(us, n=4, method="inclusive")
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1, **extra}


def child_job(args: list, work: str) -> dict:
    """A child-process row: wall time of each ``coopsim`` run, and the
    largest peak resident memory of those runs."""
    argv = [sys.executable, "-m", "coopsim.cli", *args, "--out", work]
    env = {**os.environ, "PYTHONPATH": SRC}
    us, peak_kib = [], 0
    for _ in range(CHILD_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak
        us.append((time.perf_counter() - start) * 1e6)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        peak_kib = max(peak_kib, usage.ru_maxrss)
    return _summary(us, calls_per_sample=1, child_peak_rss_mib=peak_kib / 1024)


def measure(repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        table = rows(work)
        calls = {name: _calls_per_sample(fn) for name, (fn, _) in table.items()}
        samples = {name: [] for name in table}
        for _ in range(repeats):
            for name, (fn, divisor) in table.items():
                number = calls[name]
                start = time.perf_counter()
                for _ in range(number):
                    fn()
                samples[name].append((time.perf_counter() - start) / number / divisor * 1e6)
        out = {name: _summary(us, calls_per_sample=calls[name]) for name, us in samples.items()}
        out["job.sweep_full"] = child_job(["sweep", "--grid", FULL_SWEEP_GRID], work)
        out["job.montecarlo"] = child_job(
            ["montecarlo", "--trials", str(MONTECARLO_TRIALS)], work)
    return out


def machine() -> dict:
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {"cores": os.cpu_count(), "cpu_model": model, "simd_found": simd.get("found", []),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default=None, help="JSON file to store the block in")
    parser.add_argument("--label", default="run", help="name of the block in --out")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    block = {"machine": machine(), "repeats": args.repeats, "rows": measure(args.repeats)}
    if args.out:
        stored = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored[args.label] = block
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(stored, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for name, row in block["rows"].items():
        print(f"{name:28s} {row['median_us']:12.2f} us  IQR {row['iqr_us']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
