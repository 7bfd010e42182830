"""Command-line interface.

Subcommands: ``simulate``, ``sweep``, ``montecarlo``, ``case-study``,
``translate``, ``prop-check``, ``report``.  Exit codes: 0 success, 1
validation or usage error, 2 ran correctly but an acceptance threshold
failed (so CI can tell crashes from scientific regressions).  All outputs
land under ``--out`` only, and reruns with the same seed are byte
identical.  ``COOP_SEED`` provides the seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from . import case_study, files, reports
from .errors import ConfigurationError
from .params import check_seed
from .propositions import check_prop1, check_prop2, check_prop3
from .simulation import run
from .sweep import (
    BUILTIN_GRIDS,
    T4_RATIO,
    TARGET_THRESHOLDS,
    ParameterGrid,
    differentiation_stats,
    measure_targets,
    monte_carlo,
    run_sweep,
)
from .translate import translate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THRESHOLD = 2

# Sweeps and Monte Carlo trials run as batches in one process; the option
# stays so existing command lines keep working.
PARALLEL_HELP = "accepted and ignored: runs are batched in one process"

# The commands whose --out is a directory of output files.
OUT_DIRECTORY_COMMANDS = ("simulate", "sweep", "montecarlo", "case-study")


def _default_seed(value) -> int:
    if value is None:
        env = os.environ.get("COOP_SEED")
        value = files.parse_number(env, "COOP_SEED", int) if env else 42
    return check_seed(value)


def cmd_simulate(args) -> int:
    scenario, sim = files.read_scenario(args.scenario)
    overrides = {}
    if args.seed is not None or os.environ.get("COOP_SEED"):
        overrides["seed"] = _default_seed(args.seed)
    if args.periods is not None:
        overrides["horizon"] = args.periods
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        sim = replace(sim, **overrides)
    traj = run(scenario, sim)
    unsolved = [t + 1 for t, ok in enumerate(traj.converged.tolist()) if not ok]
    if unsolved:
        print(f"warning: the best-response solve did not converge in periods "
              f"{', '.join(map(str, unsolved))}", file=sys.stderr)
    files.write_file(os.path.join(args.out, "trajectory.csv"), files.trajectory_csv(traj))
    files.write_file(os.path.join(args.out, "dyads.csv"), files.dyads_csv(traj))
    print(f"simulated {sim.horizon} periods for {scenario.n} actors -> {args.out}")
    return EXIT_OK


def _load_grid(name_or_path: str):
    if name_or_path in BUILTIN_GRIDS:
        return BUILTIN_GRIDS[name_or_path]
    return files.read_grid(name_or_path)


def cmd_sweep(args) -> int:
    seed = _default_seed(args.seed)
    table = run_sweep(_load_grid(args.grid))
    rows = measure_targets(table)
    stats = differentiation_stats(table, seed=seed)
    files.write_file(os.path.join(args.out, "targets.csv"), files.targets_csv(table))
    files.write_file(os.path.join(args.out, "report.md"),
                     reports.render_target_report(rows, stats))
    for row in rows:
        status = "pass" if row["pass"] else "FAIL"
        print(
            f"{row['target']} {row['name']}: {row['achieved']}/{row['total']} "
            f"({100 * row['rate']:.1f}%) threshold {100 * row['threshold']:.0f}% -> {status}"
        )
    return EXIT_OK if all(row["pass"] for row in rows) else EXIT_THRESHOLD


def cmd_montecarlo(args) -> int:
    report = monte_carlo(trials=args.trials, perturb=args.perturb, seed=_default_seed(args.seed))
    files.write_file(os.path.join(args.out, "montecarlo.md"), reports.render_monte_carlo(report))
    files.write_file(os.path.join(args.out, "montecarlo.csv"), files.montecarlo_csv(report))
    low = "n/a" if report.min_ratio is None else f"{report.min_ratio:.2f}"
    print(
        f"trials={report.n} all-targets={100 * report.all_targets_rate:.1f}% "
        f"ratio>={T4_RATIO} in {100 * report.ratio_threshold_rate:.1f}% (min {low})"
    )
    passed = report.ratio_threshold_rate >= TARGET_THRESHOLDS["t4"]
    return EXIT_OK if passed else EXIT_THRESHOLD


def cmd_case_study(args) -> int:
    if args.name != "ios":
        raise ConfigurationError(f"unknown case study {args.name!r}")
    base, cf = case_study.run_ios_pair(_default_seed(args.seed))
    traj = cf if args.counterfactual else base

    files.write_file(os.path.join(args.out, "trajectory.csv"), files.trajectory_csv(traj))
    files.write_file(os.path.join(args.out, "dyads.csv"), files.dyads_csv(traj))
    files.write_file(os.path.join(args.out, "long.csv"), files.long_format_csv(traj))
    files.write_file(
        os.path.join(args.out, "phase_stats.csv"),
        reports.phase_stats_csv(*case_study.phase_statistics(traj.actions), traj.labels),
    )
    rubric_md = reports.render_rubric(
        case_study.score_rubric_auto(base.actions, base.norms, base.trust))
    if args.counterfactual:
        cmp = case_study.counterfactual_comparison(base.actions, cf.actions, cf.trust)
        rubric_md += "\n" + reports.render_counterfactual(*cmp, cf.labels)
    files.write_file(os.path.join(args.out, "rubric.md"), rubric_md)
    print(f"case study 'ios'{' (counterfactual)' if args.counterfactual else ''} -> {args.out}")
    return EXIT_OK


def cmd_translate(args) -> int:
    labels, entries = files.read_dependency_csv(args.deps)
    elic = files.read_text(args.elicit) if args.elicit else ""
    result = translate(labels, entries, elic)
    files.write_scenario(args.out, result.scenario, result.sim)
    n = result.scenario.n
    print(f"translated {len(entries)} dependency rows over {n} actors -> {args.out}")
    for i in range(n):
        for j in range(n):
            if i != j and result.scenario.d[i, j] > 0:
                print(
                    f"  D[{labels[i]}->{labels[j]}] = {result.scenario.d[i, j]:.4f} "
                    f"rho = {result.rho[i][j]:.4f}"
                )
    if result.reciprocity_gap is not None:
        print(f"  reciprocity gap = {result.reciprocity_gap:+.3f}")
        for advice in result.gap_advice:
            print(f"    - {advice}")
    return EXIT_OK


def cmd_prop_check(args) -> int:
    props = [args.prop] if args.prop else [1, 2, 3]
    ks = [args.k] if args.k is not None else [1, 5, 10]
    kappas = [args.kappa] if args.kappa is not None else [0.5, 1.0, 2.0]
    # Prop 2's options fail here, before any proposition runs or prints.
    if 2 not in props and (args.k is not None or args.kappa is not None):
        raise ConfigurationError(f"--k and --kappa apply to prop 2 only, not prop {args.prop}")
    if 2 in props:
        ParameterGrid({"memory_k": tuple(ks), "kappa": tuple(kappas)})
    all_pass = True
    if 1 in props:
        r = check_prop1()
        all_pass &= r.passed
        print(f"prop 1 cooperation threshold: rho* = {r.rho_star:.4f}")
        print(f"  below: actions = {tuple(round(a, 3) for a in r.below_actions)}")
        print(f"  above: actions = {tuple(round(a, 3) for a in r.above_actions)}")
        print(f"  -> {'pass' if r.passed else 'FAIL'}")
    if 2 in props:
        r2 = check_prop2(ks=ks, kappas=kappas)
        all_pass &= r2.passed
        print("prop 2 forgiveness window:")
        for c in r2.cases:
            print(
                f"  k={c.memory_k} kappa={c.kappa}: tau_f={c.tau_f} "
                f"in [{c.memory_k}, {2 * c.memory_k}] -> "
                f"{'ok' if c.within_bounds else 'FAIL'}"
            )
        print(f"  -> {'pass' if r2.passed else 'FAIL'}")
    if 3 in props:
        r3 = check_prop3()
        all_pass &= r3.passed
        print("prop 3 trust-reciprocity complementarity:")
        print(f"  cross-partial = {r3.estimate:.4f} (halved steps: {r3.halved_estimate:.4f})")
        print(f"  channel off: {r3.zero_channel_estimate:.2e}")
        print(f"  -> {'pass' if r3.passed else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_THRESHOLD


def cmd_report(args) -> int:
    pieces = []
    for name in ("report.md", "montecarlo.md", "rubric.md"):
        path = os.path.join(args.input, name)
        if os.path.exists(path):
            pieces.append(files.read_text(path))
    if not pieces:
        raise ConfigurationError(f"no report inputs found under {args.input}")
    files.write_file(args.out, "\n".join(pieces))
    print(f"combined {len(pieces)} report sections -> {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="Deterministic simulation, equilibrium solving, and validation "
        "for reciprocity-augmented strategic coopetition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and export trajectories")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--periods", type=int, default=None)
    p.add_argument("--mode", choices=("adjustment", "best_response"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the behavioral-target sweep over a grid")
    p.add_argument("--grid", required=True,
                   help=f"grid file or builtin name: {', '.join(BUILTIN_GRIDS)}")
    p.add_argument("--out", required=True)
    p.add_argument("--parallel", type=int, default=None, help=PARALLEL_HELP)
    p.add_argument("--seed", type=int, default=None, help="bootstrap seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("montecarlo", help="perturbation robustness around the reference")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--perturb", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--parallel", type=int, default=None, help=PARALLEL_HELP)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("case-study", help="run a built-in case study")
    p.add_argument("name", choices=("ios",))
    p.add_argument("--counterfactual", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("translate", help="dependency table + elicitation -> scenario")
    p.add_argument("--deps", required=True, help="dependency CSV")
    p.add_argument("--elicit", default=None, help="elicitation key/value file")
    p.add_argument("--out", required=True, help="scenario file to write")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("prop-check", help="numerically verify the three propositions")
    p.add_argument("--prop", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--k", type=int, default=None, help="memory window for prop 2")
    p.add_argument("--kappa", type=float, default=None, help="sensitivity for prop 2")
    p.set_defaults(func=cmd_prop_check)

    p = sub.add_parser("report", help="combine prior run outputs into one markdown file")
    p.add_argument("--in", dest="input", required=True, help="directory of prior outputs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command in OUT_DIRECTORY_COMMANDS:
            # A file at --out or above it fails here, not at the job's first write.
            path = os.path.abspath(args.out)
            while not os.path.exists(path):
                path = os.path.dirname(path)
            if not os.path.isdir(path):
                where = "--out" if path == os.path.abspath(args.out) else path
                raise ConfigurationError(f"{args.out}: {where} is a file, not a directory")
        return args.func(args)
    except (ConfigurationError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
