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
- ``files.trajectory_csv``, ``files.dyads_csv``, ``files.long_format_csv``:
  each writer on the iOS trajectory;
- ``solver.solve_equilibrium``: one solve on ``reference_scenario()``;
- ``job.case_study``: the in-process ``coopsim case-study ios
  --counterfactual`` job, output files included.

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
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(SRC))

import numpy as np  # noqa: E402

from coopsim import case_study, cli, files, rng, simulation  # noqa: E402
from coopsim.scenario import reference_scenario  # noqa: E402
from coopsim.solver import SolverConfig, solve_equilibrium  # noqa: E402

# Calls per sample are chosen so one sample takes about this long.
SAMPLE_S = 0.02


def _noise_block(seed: int, n: int, horizon: int):
    """The noise of one run: one array call of ``rng.normal``."""
    streams = np.arange(n, dtype=np.uint64)[None]
    counters = np.arange(1, horizon + 1, dtype=np.uint64)[:, None]
    return lambda: rng.normal(seed, streams, counters)


def rows(work: str) -> dict:
    """Row name -> (zero-argument call, divisor of its time)."""
    scenario, sim = case_study.build_ios_scenario()
    traj = simulation.run(scenario, sim)
    batch = simulation.RunBatch.single(scenario, sim)
    p = simulation._trust_rows(batch.trust, batch.d)
    trust, reputation = traj.trust[10][None].copy(), traj.reputation[10][None].copy()
    signal = traj.signal[10][None]

    k = np.array([[4]])
    hist = traj.actions[:, None, :].copy()
    reach = [None] * 5
    initial = np.array([scenario.baseline_init])

    ref = reference_scenario()
    own_avg = np.array(ref.baseline_init)
    ref_trust = np.full((ref.n, ref.n), ref.trust.t0)
    np.fill_diagonal(ref_trust, 1.0)
    job = ["case-study", "ios", "--counterfactual", "--out", work]

    def run_job():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(job) != 0:
                raise RuntimeError("case-study job failed")

    return {
        "rng.noise_block": (_noise_block(sim.seed, scenario.n, sim.horizon), 1),
        "simulation.update_trust": (
            lambda: simulation._update_trust_matrices(trust, reputation, signal, p), 1),
        "simulation.window_means": (
            lambda: simulation._window_means(hist, 20, k, reach, initial), 1),
        "simulation.run": (lambda: simulation.run(scenario, sim), 1),
        "simulation.period": (lambda: simulation.run(scenario, sim), sim.horizon),
        "files.trajectory_csv": (lambda: files.trajectory_csv(traj), 1),
        "files.dyads_csv": (lambda: files.dyads_csv(traj), 1),
        "files.long_format_csv": (lambda: files.long_format_csv(traj), 1),
        "solver.solve_equilibrium": (
            lambda: solve_equilibrium(ref, own_avg, ref_trust, SolverConfig()), 1),
        "job.case_study": (run_job, 1),
    }


def _calls_per_sample(fn) -> int:
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(1, int(SAMPLE_S / max(once, 1e-9)))


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
    out = {}
    for name, us in samples.items():
        q1, median, q3 = statistics.quantiles(us, n=4, method="inclusive")
        out[name] = {"median_us": median, "q1_us": q1, "q3_us": q3,
                     "iqr_us": q3 - q1, "calls_per_sample": calls[name]}
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
