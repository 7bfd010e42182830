#!/usr/bin/env python3
"""Run the behavioral-target sweep plus robustness trials and write reports.

This is ``coopsim sweep`` followed by ``coopsim montecarlo`` into one output
directory, both with ``--seed``; the exit code is the larger of theirs.

Examples:
    python scripts/run_validation.py --grid smoke --out results/smoke
    python scripts/run_validation.py --grid full --out results/full

``--parallel`` is accepted and ignored: the engine batches every cell and
trial in one process.
"""

import argparse
import sys

from coopsim import cli
from coopsim.sweep import BUILTIN_GRIDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="smoke",
                        help=f"builtin name ({', '.join(BUILTIN_GRIDS)}) or grid file")
    parser.add_argument("--out", default="results/validation")
    parser.add_argument("--parallel", type=int, default=None, help=cli.PARALLEL_HELP)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    common = ["--out", args.out, "--seed", str(args.seed)]
    sweep = cli.main(["sweep", "--grid", args.grid, *common])
    trials = cli.main(["montecarlo", "--trials", str(args.trials), *common])
    return max(sweep, trials)


if __name__ == "__main__":
    sys.exit(main())
