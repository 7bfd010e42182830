"""Span recorder for the traced run.

The recorder wraps each layer's entry functions by replacing module
attributes, from the benchmark's side only: no program file changes.  A
function bound elsewhere by ``from .x import y`` is replaced in every
``coopsim`` module that holds it, because the caller looks the name up in
its own module.  ``restore`` puts every original back.

Spans (name, start, end, parent, run id) stay in memory, in flat arrays,
until ``write`` stores them once at the end of the run.  A span's self
time is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, defining module, function names[, modules whose bindings are
# wrapped; default every coopsim module]).  A span may cover several
# functions: "reports" is every report renderer.
SPANS = (
    ("cli.main", "coopsim.cli", ("main",)),
    ("simulation.run", "coopsim.simulation", ("run",)),
    # The engine's own trust update; the scalar trust.update_trust is not on
    # the engine path.
    ("trust.update", "coopsim.simulation", ("_update_trust_matrices",)),
    ("reciprocity.moving_average", "coopsim.reciprocity", ("moving_average",)),
    ("rng.normal", "coopsim.rng", ("normal",)),
    # Uniform draws the program asks for; the ones rng.normal makes inside
    # the rng module are part of the normal span.
    ("rng.uniform", "coopsim.rng", ("uniform",), ("coopsim.sweep",)),
    ("solver.solve_equilibrium", "coopsim.solver", ("solve_equilibrium",)),
    ("solver.cross_partial_check", "coopsim.solver", ("cross_partial_check",)),
    ("sweep.measure_cell", "coopsim.sweep", ("measure_cell",)),
    ("sweep.monte_carlo_trial", "coopsim.sweep", ("monte_carlo_trial",)),
    ("sweep.measure_targets", "coopsim.sweep", ("measure_targets",)),
    ("sweep.differentiation_stats", "coopsim.sweep", ("differentiation_stats",)),
    ("stats.bootstrap_ci", "coopsim.stats", ("bootstrap_ci",)),
    ("stats.wilcoxon_signed_rank", "coopsim.stats", ("wilcoxon_signed_rank",)),
    ("stats.paired_ttest", "coopsim.stats", ("paired_ttest",)),
    ("stats.cohens_d", "coopsim.stats", ("cohens_d",)),
    ("files.targets_csv", "coopsim.files", ("targets_csv",)),
    ("files.trajectory_csv", "coopsim.files", ("trajectory_csv",)),
    ("files.dyads_csv", "coopsim.files", ("dyads_csv",)),
    ("files.long_format_csv", "coopsim.files", ("long_format_csv",)),
    ("files.write_file", "coopsim.files", ("write_file",)),
    ("files.read_scenario", "coopsim.files", ("read_scenario",)),
    ("case_study.score_rubric_auto", "coopsim.case_study", ("score_rubric_auto",)),
    ("case_study.phase_statistics", "coopsim.case_study", ("phase_statistics",)),
    ("case_study.counterfactual_comparison", "coopsim.case_study",
     ("counterfactual_comparison",)),
    ("reports", "coopsim.reports", ("render_target_report", "render_monte_carlo",
                                    "phase_stats_csv", "render_rubric",
                                    "render_counterfactual")),
    ("propositions.check_prop1", "coopsim.propositions", ("check_prop1",)),
    ("propositions.check_prop2", "coopsim.propositions", ("check_prop2",)),
    ("propositions.check_prop3", "coopsim.propositions", ("check_prop3",)),
)


def _count_periods(counts, args, kwargs, traj):
    counts["simulation.periods"] += traj.actions.shape[0]


def _count_solve(counts, args, kwargs, result):
    counts["solver.iterations"] += result.iterations
    counts["solver.converged"] += bool(result.converged)


def _count_bytes(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["files.bytes_written"] += len(text.encode("utf-8"))


# Deterministic counters read from a wrapped call's arguments or result.
COUNTERS = {
    "simulation.run": _count_periods,
    "solver.solve_equilibrium": _count_solve,
    "files.write_file": _count_bytes,
}


class Recorder:
    """Installs span wrappers, keeps spans in memory, computes self times."""

    def __init__(self):
        self.names: list[str] = [spec[0] for spec in SPANS]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("L")
        self.run_id = 0
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every binding to replace.
        self._plan: list[tuple[object, str, object, object]] = []
        self._plan_wrappers()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span_id: int, fn, counter):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            stack = rec._stack
            rec.name_id.append(span_id)
            rec.parent.append(stack[-1] if stack else -1)
            rec.run.append(rec.run_id)
            rec.end.append(0.0)
            stack.append(idx)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(rec.counts, args, kwargs, result)
            return result

        wrapper.__bench_span__ = True
        return wrapper

    def _plan_wrappers(self) -> None:
        """Find every coopsim module binding of each entry function."""
        for span_id, (name, module_name, attrs, *where) in enumerate(SPANS):
            home = importlib.import_module(module_name)
            modules = [sys.modules[m] for m in where[0]] if where else _coopsim_modules()
            for attr in attrs:
                fn = getattr(home, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(span_id, fn, COUNTERS.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._plan.append((module, key, fn, wrapper))

    def install(self) -> None:
        for module, key, _, wrapper in self._plan:
            setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, fn, _ in reversed(self._plan):
            setattr(module, key, fn)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus child coverage."""
        children: dict[int, list[int]] = {}
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children.setdefault(par, []).append(idx)
        totals = {name: 0.0 for name in self.names}
        for idx in range(len(self.start)):
            lo, hi = self.start[idx], self.end[idx]
            covered = 0.0
            reach = lo
            for c in sorted(children.get(idx, ()), key=self.start.__getitem__):
                c_lo, c_hi = max(self.start[c], reach), min(self.end[c], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            totals[self.names[self.name_id[idx]]] += (hi - lo) - covered
        return totals

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name_id)

    def inclusive_time(self, name: str) -> float:
        sid = self.names.index(name)
        return sum(self.end[i] - self.start[i]
                   for i, n in enumerate(self.name_id) if n == sid)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_us,end_us,parent,run\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},"
                    f"{(self.start[i] - t0) * 1e6:.3f},{(self.end[i] - t0) * 1e6:.3f},"
                    f"{self.parent[i]},{self.run[i]}\n"
                )


def _coopsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "coopsim" or name.startswith("coopsim."))]

