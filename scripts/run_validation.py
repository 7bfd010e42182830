#!/usr/bin/env python3
"""Run the behavioral-target sweep plus robustness trials and write reports.

Examples:
    python scripts/run_validation.py --grid smoke --out results/smoke
    python scripts/run_validation.py --grid full --out results/full

``--parallel`` is accepted and ignored: the engine batches every cell and
trial in one process.
"""

import argparse
import sys
import time

from coopsim import files, reports
from coopsim.sweep import (
    BUILTIN_GRIDS,
    SweepProtocol,
    differentiation_stats,
    measure_targets,
    monte_carlo,
    run_sweep,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="smoke",
                        help=f"builtin name ({', '.join(BUILTIN_GRIDS)}) or grid file")
    parser.add_argument("--out", default="results/validation")
    parser.add_argument("--parallel", type=int, default=None,
                        help="accepted and ignored: runs are batched in one process")
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    grid = BUILTIN_GRIDS.get(args.grid) or files.read_grid(args.grid)
    t0 = time.monotonic()
    results = run_sweep(grid, SweepProtocol())
    sweep_seconds = time.monotonic() - t0
    report = measure_targets(results)
    stats = differentiation_stats(results, seed=args.seed)

    files.write_file(f"{args.out}/targets.csv", files.targets_csv(results))
    files.write_file(
        f"{args.out}/report.md", reports.render_target_report(report, grid.size, stats)
    )

    print(f"sweep: {grid.size} configurations in {sweep_seconds:.0f}s")
    for row in report.rows:
        print(f"  {row['target']} {row['name']}: {100 * row['rate']:.1f}% "
              f"(threshold {100 * row['threshold']:.0f}%) "
              f"{'pass' if row['pass'] else 'FAIL'}")
    print(f"  differentiation: mean ratio {stats.mean:.2f}, d = {stats.cohens_d:.2f}, "
          f"Wilcoxon p = {stats.wilcoxon_p:.2e}")

    mc = monte_carlo(trials=args.trials, perturb=0.15, seed=args.seed)
    files.write_file(f"{args.out}/montecarlo.md", reports.render_monte_carlo(mc))
    print(f"monte carlo: all-targets {100 * mc.all_targets_rate:.1f}%, "
          f"ratio >= 1.5 in {100 * mc.ratio_threshold_rate:.1f}% "
          f"(min {mc.min_ratio:.2f})")
    return 0 if report.all_pass and mc.ratio_threshold_rate >= 0.90 else 2


if __name__ == "__main__":
    sys.exit(main())
