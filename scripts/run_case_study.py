#!/usr/bin/env python3
"""Run the platform-ecosystem case study: baseline, counterfactual, reports."""

import argparse
import sys

import numpy as np

from coopsim import case_study as cs
from coopsim import files, reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/ios")
    parser.add_argument("--seed", type=int, default=cs.DEFAULT_SEED)
    args = parser.parse_args()

    base, cf = cs.run_ios_pair(args.seed)

    files.write_file(f"{args.out}/trajectory.csv", files.trajectory_csv(base))
    files.write_file(f"{args.out}/dyads.csv", files.dyads_csv(base))
    files.write_file(f"{args.out}/long.csv", files.long_format_csv(base))
    files.write_file(f"{args.out}/cf_trajectory.csv", files.trajectory_csv(cf))

    stats = cs.phase_statistics(base)
    files.write_file(f"{args.out}/phase_stats.csv",
                     reports.phase_stats_csv(stats, base.labels))
    rubric = cs.score_rubric_auto(base)
    cmp = cs.counterfactual_comparison(base, cf)
    files.write_file(
        f"{args.out}/rubric.md",
        reports.render_rubric(rubric)
        + "\n"
        + reports.render_phase_stats(stats, base.labels)
        + "\n"
        + reports.render_counterfactual(cmp, base.labels),
    )

    means = np.array([p.means for p in stats])
    print("phase means (rows: phases, cols: actors):")
    print(np.round(means, 3))
    print("transitions:", cs.detect_transitions(base))
    print("counterfactual uplift:",
          ", ".join(f"{lab} {100 * u:+.1f}%" for lab, u in zip(base.labels, cmp.uplift)))
    print(f"minimum bilateral trust (counterfactual): {cmp.min_bilateral_trust:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
