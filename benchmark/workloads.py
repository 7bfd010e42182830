"""The four benchmark workloads: their job pools and the jobs a seed selects.

Every job is one ``coopsim`` command line, run in-process through
``coopsim.cli.main``.  Each pool is finite, so the reference outputs
recorded for it cover every job that any benchmark seed can select; the
seed only fixes which pool jobs run and in what order.  Commands that have
``--parallel`` get ``--parallel 1``: each workload runs serially in its
own process.

Argument tokens ``{work}`` and ``{out}`` stand for the run's input
directory and the job's output directory.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EQUILIBRIUM_SCENARIO = os.path.join(BENCH_DIR, "scenarios", "equilibrium.conf")

# Levels of the builtin smoke grid.  A sweep job runs a fixed 36-cell
# sub-grid of it: both rho0 extremes (so the T5 variants use the same
# rho0 extremes as the full smoke grid), every kappa and memory_k level,
# both d extremes, and one eta and one t0 level.
SMOKE_ETA = (0.5, 1.0, 1.5)
SMOKE_T0 = (0.3, 0.7, 0.95)
SWEEP_BOOTSTRAP_SEEDS = (0, 1, 2, 3)
SWEEP_CELLS = 2 * 3 * 3 * 2

MONTECARLO_SEEDS = tuple(range(40))
MONTECARLO_TRIALS = 8

CASE_STUDY_SEEDS = tuple(range(8))

EQUILIBRIUM_SEEDS = tuple(range(8))
# One prop-check job follows every four best-response simulate jobs, so
# prop-check is a fifth of the items: p50 sits among the simulate jobs and
# p90 well inside the prop-check jobs.
EQUILIBRIUM_CYCLE = 5


@dataclass(frozen=True)
class Job:
    """One command line; ``key`` names its reference outputs."""

    key: str
    argv: tuple[str, ...]
    items: int

    def command(self, work: str, out: str) -> list[str]:
        return [a.replace("{work}", work).replace("{out}", out) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one item is: a sweep cell, a Monte Carlo trial or a job
    pool: tuple[Job, ...]
    # Sized so that every job run untraced and traced fits in the run time:
    # the traced run executes round(seconds * rate) jobs.
    trace_jobs_per_s: float

    def jobs(self, seed: int) -> Iterator[Job]:
        """Endless job sequence for a benchmark seed: the pool in shuffled
        rounds, every pool job once per round."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.name == "equilibrium":
            simulate = [j for j in self.pool if j.key == "simulate"]
            prop = next(j for j in self.pool if j.key == "prop-check")
            sims = _rounds(simulate, rng)
            for i in count():
                yield prop if i % EQUILIBRIUM_CYCLE == EQUILIBRIUM_CYCLE - 1 else next(sims)
        else:
            yield from _rounds(list(self.pool), rng)

    def write_inputs(self, work: str) -> None:
        """Generate the input files the jobs read from ``{work}``."""
        os.makedirs(work, exist_ok=True)
        if self.name != "sweep_grid":
            return
        for eta in SMOKE_ETA:
            for t0 in SMOKE_T0:
                with open(os.path.join(work, _grid_name(eta, t0)), "w",
                          encoding="utf-8", newline="\n") as fh:
                    fh.write(sweep_grid_text(eta, t0))


def _rounds(pool: list[Job], rng: random.Random) -> Iterator[Job]:
    while True:
        yield from rng.sample(pool, len(pool))


def _grid_name(eta: float, t0: float) -> str:
    return f"grid-eta{eta!r}-t0{t0!r}.txt"


def sweep_grid_text(eta: float, t0: float) -> str:
    return (
        "rho0 = 0.2,1.0\n"
        f"eta = {eta!r}\n"
        "kappa = 0.5,1.5,3.0\n"
        "memory_k = 1,4,16\n"
        f"t0 = {t0!r}\n"
        "d = 0.2,1.0\n"
    )


def _sweep_pool() -> tuple[Job, ...]:
    return tuple(
        Job(
            key=f"eta={eta!r},t0={t0!r},seed={s}",
            argv=("sweep", "--grid", "{work}/" + _grid_name(eta, t0),
                  "--parallel", "1", "--seed", str(s), "--out", "{out}"),
            items=SWEEP_CELLS,
        )
        for eta in SMOKE_ETA for t0 in SMOKE_T0 for s in SWEEP_BOOTSTRAP_SEEDS
    )


def _montecarlo_pool() -> tuple[Job, ...]:
    return tuple(
        Job(
            key=f"seed={s}",
            argv=("montecarlo", "--trials", str(MONTECARLO_TRIALS), "--parallel", "1",
                  "--seed", str(s), "--out", "{out}"),
            items=MONTECARLO_TRIALS,
        )
        for s in MONTECARLO_SEEDS
    )


def _case_study_pool() -> tuple[Job, ...]:
    return tuple(
        Job(
            key=f"seed={s}",
            argv=("case-study", "ios", "--counterfactual", "--seed", str(s), "--out", "{out}"),
            items=1,
        )
        for s in CASE_STUDY_SEEDS
    )


def _equilibrium_pool() -> tuple[Job, ...]:
    # Best-response mode draws no noise, so every seed shares one reference.
    sims = tuple(
        Job(
            key="simulate",
            argv=("simulate", "--scenario", EQUILIBRIUM_SCENARIO, "--mode", "best_response",
                  "--seed", str(s), "--out", "{out}"),
            items=1,
        )
        for s in EQUILIBRIUM_SEEDS
    )
    return sims + (Job(key="prop-check", argv=("prop-check",), items=1),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_grid", "cell", _sweep_pool(), trace_jobs_per_s=0.4),
        Workload("montecarlo", "trial", _montecarlo_pool(), trace_jobs_per_s=2.5),
        Workload("case_study", "job", _case_study_pool(), trace_jobs_per_s=15.0),
        Workload("equilibrium", "job", _equilibrium_pool(), trace_jobs_per_s=20.0),
    )
}
