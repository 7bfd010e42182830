"""Golden SHA-256 checksums of deterministic command outputs.

Reruns with the same seed are byte identical, and these checksums make that
checkable across code changes: a refactor may move output bits only on
purpose, and then the digests below are re-recorded with it.  The failure
message prints the digest the code produced.

numpy picks SIMD kernels by CPU and its ufuncs are not bit-equal across
kernels, so the digests pin the host class they were recorded on.  A
mismatch therefore names the numpy version and the CPU features numpy
dispatches on, to tell a code change from a different machine.
"""

import hashlib
import math
import os
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from coopsim import case_study
from coopsim.cli import main
from coopsim.files import montecarlo_csv, scenario_to_text, targets_csv
from coopsim.params import (
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
)
from coopsim.reports import render_monte_carlo, render_target_report
from coopsim.scenario import ScenarioConfig, SimConfig, reference_scenario
from coopsim.simulation import RunBatch, run, run_batch
from coopsim.solver import SolverConfig, solve_equilibrium
from coopsim.sweep import measure_targets
from test_acceptance import prop3
from test_simulation import settled_best_response
from test_translate import team_scenario

# Spans both rho0 extremes (the T5 variants), three memory windows (the
# forgiveness horizons differ per row), and the eta levels whose powers
# numpy may special-case.
GOLDEN_GRID = (
    "rho0 = 0.2,1.0\n"
    "eta = 0.5,1.0,1.25\n"
    "kappa = 0.5,3.0\n"
    "memory_k = 1,4,16\n"
    "lambda_r = 0.875,2.0\n"
    "t0 = 0.3,0.95\n"
    "d = 0.2,1.0\n"
)

_HEADER = """\
actors = Apple,Major,Small
a_max = 1.0,1.0,1.0
a_init = 0.5,0.4,0.6
baseline_init = 0.5,0.5,0.5
d = Apple,Major,0.6575
d = Apple,Small,0.7075
d = Major,Apple,0.8775
d = Small,Apple,0.9195
d = Small,Major,0.25
rho0 = 0.9
eta = 1.3
kappa = 1.2
memory_k = 4
lambda_r = 1.0
omega_amp = 0.6
t0 = 0.7
endowments = 100.0,100.0,100.0
alpha = 0.5,0.25,0.25
theta_v = 20.0
gamma = 0.5
"""

# Best-response mode: the solver picks every action after period 1.
BEST_RESPONSE_SCENARIO = _HEADER + """\
baseline_mode = moving_average
horizon = 10
mode = best_response
noise_sigma = 0.0
"""

# Adjustment mode with noise, fixed reference levels and stacked shocks
# (two on the same actor and period).
ADJUSTMENT_SCENARIO = _HEADER + """\
baseline_mode = fixed
horizon = 30
mode = adjustment
noise_sigma = 0.03
seed = 17
shock = 5,Major,-0.3
shock = 12,Apple,0.25
shock = 12,Apple,-0.125
shock = 20,Small,-0.9
"""

GOLDEN = {
    "adjustment": {
        "trajectory.csv":
            "39eca966138ed3603cea3b35163cd80644d8d803ee0e8b28847b27aa528dd88f",
        "dyads.csv":
            "1a3916e9d3e138e2f541fa532d68019f0da9a5e0d159391e5ae933be615ecfeb",
    },
    "best-response": {
        "trajectory.csv":
            "f4b1ac55bd3a98be0029da51bcffef750ea93f60f18efc70cc45d007ffb49a15",
        "dyads.csv":
            "37fb50ef6ac13a4391fa0543b5b9c77e68589ba1101d0edc7a00dbc42a259a94",
    },
    # README's "Reproducing the shipped results", one row per command line
    # (its --out aside); the full grid's and the Monte Carlo's rows are
    # FULL_GRID_GOLDEN and MONTECARLO_GOLDEN below
    "case-study ios --seed 186": {
        "trajectory.csv":
            "712053374c7bf3181658631a77da003a0a49251fe6550a983021f27849ac7b5f",
        "dyads.csv":
            "c8e482dacff293fca4290ff642da0c5018a57977212f3523684bcb676e204ae9",
        "long.csv":
            "604ca502c89e533c1d2eb09048a9abdd6274c2e89e50dabe295d8133a5befbe4",
        "phase_stats.csv":
            "95cf59bdad2508a59157b7905a3bc9d27ae7de33e6af2550a33b52487d32b4d4",
        "rubric.md":
            "8923fcf9b76562747d3c6d7be980c75c549c25d6aadbd28a09c2ae3795582f5a",
    },
    "case-study ios --counterfactual --seed 186": {
        "trajectory.csv":
            "d203600d4116fbd2c538fe0be68a8b14537652df27be502a06a62798a9a10647",
        "dyads.csv":
            "5d70736b62652cffd113954c16f51d58b06ee57735050f67a4fe4582eaeaa4da",
        "long.csv":
            "bb8defacdf22f6dc0c4b9c8290fa3f20f867b8d18eb9ee6e45042c076041e3d7",
        "phase_stats.csv":
            "2fb2f361d1969309ea08d557a444ee0d4b432de2002df39411530fd53d9e967f",
        "rubric.md":
            "b63976e450b9880c51b891542bba8fab459379f2a38b78c04527b32c240fcccb",
    },
    "sweep": {
        "targets.csv":
            "bfe1f87766363c36ecdd136ea9192529a5adc4bf0157a2565b6c5996f169a225",
        "report.md":
            "2f29594ebc1dc1740ba1ce6344416058a0fe09e5d44a1db0f949fea2b5d78411",
    },
}


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _argv(job, tmp_path, out):
    if job == "sweep":
        grid = _write(tmp_path / "grid.txt", GOLDEN_GRID)
        return ["sweep", "--grid", grid, "--seed", "3", "--out", out]
    if job in ("adjustment", "best-response"):
        text = BEST_RESPONSE_SCENARIO if job == "best-response" else ADJUSTMENT_SCENARIO
        scenario = _write(tmp_path / "scenario.conf", text)
        return ["simulate", "--scenario", scenario, "--out", out]
    return [*job.split(), "--out", out]


def _machine() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        features = " ".join(sorted(k for k, on in __cpu_features__.items() if on))
    except ImportError:
        features = "unknown"
    return f"numpy {np.__version__}; CPU features: {features}"


@pytest.mark.parametrize("job", sorted(GOLDEN),
                         ids=lambda job: job.replace(" --", "-").replace(" ", "-"))
def test_golden_checksums(job, tmp_path):
    out = str(tmp_path / "out")
    assert main(_argv(job, tmp_path, out)) in (0, 2)
    got = {}
    for name in os.listdir(out):  # every file the job writes
        with open(os.path.join(out, name), "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN[job], f"{job} outputs moved ({_machine()})"


# README's `coopsim sweep --grid full --seed 42`, hashed from the session's
# full-grid table and statistics (conftest.full_sweep) as cmd_sweep renders
# them.  targets.csv moves with numpy's SIMD dispatch level, so its digest is
# this host's; report.md holds across levels.
FULL_GRID_COMMAND = "sweep --grid full --seed 42"
FULL_GRID_GOLDEN = {
    "targets.csv": "66119417d744f3b844f4b3e75f9f2ee02502de035d67381d159f7c8b3ad98b46",
    "report.md": "bea915576b87fe74f4f15dd193f35e034113250153b59eb05f2146ef3c797f49",
}


def test_full_grid_checksums(full_sweep):
    table, stats, _ = full_sweep
    texts = {"targets.csv": targets_csv(table),
             "report.md": render_target_report(measure_targets(table), stats)}
    got = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
           for name, text in texts.items()}
    assert got == FULL_GRID_GOLDEN, f"full-grid outputs moved ({_machine()})"


# README's `coopsim montecarlo --trials 2000 --seed 42`, hashed from the
# session's 2000 trials (conftest.monte_carlo_2000) as cmd_montecarlo
# renders them.
MONTECARLO_COMMAND = "montecarlo --trials 2000 --seed 42"
MONTECARLO_GOLDEN = {
    "montecarlo.csv": "01447e99e3b97d98ef09ae2a741ffd2ef58e83cb3a8048ab0d979639c4eb313a",
    "montecarlo.md": "5cdc14c56d565d112c81b972d91dbf64da599f195b6da0f378136e78b49de9fc",
}


def test_montecarlo_checksums(monte_carlo_2000):
    texts = {"montecarlo.csv": montecarlo_csv(monte_carlo_2000),
             "montecarlo.md": render_monte_carlo(monte_carlo_2000)}
    got = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
           for name, text in texts.items()}
    assert got == MONTECARLO_GOLDEN, f"Monte Carlo outputs moved ({_machine()})"


def test_every_shipped_command_is_hashed():
    # each line of README's reproduction block has a digest above: a coopsim
    # command its row (--out aside), the script its stdout's
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Reproducing the shipped results", 1)[1].split("```")[1]
    for line in block.strip().splitlines():
        if line.startswith("coopsim "):
            command = re.sub(r" --out \S+", "", line.removeprefix("coopsim "))
            assert command in (*GOLDEN, FULL_GRID_COMMAND, MONTECARLO_COMMAND), \
                f"no digest for {line!r}"
        else:
            assert line == "python scripts/run_experiments.py", f"no digest for {line!r}"
            assert callable(test_run_experiments_stdout_checksum)


def _pre_history_scenario(eta):
    """Two actors whose 2-row pre-history is shorter than the 4-period window."""
    base = reference_scenario(rho0=1.2, eta=eta, kappa=0.5, memory_k=4, gamma=0.5)
    return replace(base, d=InterdependenceMatrix([[0.0, 0.6], [0.85, 0.0]]),
                   pre_history=((14.0, 5.0), (12.0, 7.5)))


# SHA-256 over every recorded Trajectory array of a 12-period best-response run.
PRE_HISTORY_GOLDEN = {
    0.0: "1f48854607ceec83e444b1997845b4225b64716f53fc5a5e06b38ee874f57bfd",
    0.5: "1eb340727e5608a07965a116d4cfc8c2c1d8b7d987b701746644fa643e970ca6",
    1.3: "2d1a96c68f0258527ed4efe98bc82ca4fb23b6360c4802290e46e8c37e48a3a2",
}


def _trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for name in ("actions", "baselines", "norms", "trust", "reputation", "signal",
                 "recip_term", "converged"):
        h.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("eta", sorted(PRE_HISTORY_GOLDEN))
def test_best_response_pre_history_checksums(eta):
    traj = run(_pre_history_scenario(eta), SimConfig(horizon=12, mode="best_response"))
    assert _trajectory_digest(traj) == PRE_HISTORY_GOLDEN[eta], f"eta={eta} moved ({_machine()})"


# SHA-256 over every recorded Trajectory array of the 40-period best-response
# run of the translated iOS dependency table, which settles: from period 7 on
# its actions, trust and reputation repeat.
SETTLED_GOLDEN = "40919f33f7a607293dde94d89542c25b3a57ca6c4fae222d567338244bcfe62c"


def test_settled_best_response_checksum():
    scenario, sim = settled_best_response()
    traj = run(scenario, sim)
    assert traj.horizon == 40
    assert _trajectory_digest(traj) == SETTLED_GOLDEN, f"settled run moved ({_machine()})"


def _pair_matrix(n, diagonal, draw):
    """An (n, n) matrix of ``draw()`` values whose rows and columns 0 and 1
    are mirror images, so actors 0 and 1 see the same partners."""
    m = np.array([[diagonal if i == j else draw() for j in range(n)] for i in range(n)])
    m[1, 0] = m[0, 1]
    m[1, 2:] = m[0, 2:]
    m[2:, 1] = m[2:, 0]
    return m


def _solver_case(rng, kind):
    """One seeded solve: ``(scenario, config, own_avg, trust, warm_start)``.

    ``kind`` is ``"random"`` (every actor drawn apart), ``"pair"`` (actors 0
    and 1 bit-identical in every input their responses read) or ``"near"``
    (such a pair with one of actor 1's inputs moved by one ulp).
    """
    n = rng.choice((2, 3, 4))

    def unit():
        return rng.uniform(0.0, 1.0)

    def per_actor(draw):
        vec = [draw() for _ in range(n)]
        if kind != "random":
            vec[1] = vec[0]
        return vec

    if kind == "random":
        d = np.array([[0.0 if i == j else unit() for j in range(n)] for i in range(n)])
        trust = np.array([[1.0 if i == j else unit() for j in range(n)] for i in range(n)])
    else:
        d, trust = _pair_matrix(n, 0.0, unit), _pair_matrix(n, 1.0, unit)
    shares = per_actor(lambda: rng.uniform(0.5, 2.0))
    endowments = per_actor(lambda: rng.choice((0.0, 50.0, rng.uniform(0.0, 100.0))))
    a_max = per_actor(lambda: rng.choice((10.0, 20.0, rng.uniform(5.0, 40.0))))
    a_init = [rng.uniform(0.0, m) for m in a_max]
    baseline = [rng.uniform(0.0, m) for m in a_max]
    own_avg = [rng.uniform(0.0, m) for m in a_max] if rng.random() < 0.5 else None
    warm = [rng.uniform(0.0, m) for m in a_max] if rng.random() < 0.5 else None
    for vec in (a_init, baseline, own_avg, warm):
        if kind != "random" and vec is not None:
            vec[1] = vec[0]
    if kind == "near":
        up = rng.choice(("endowment", "a_max", "a_init", "baseline", "d", "trust"))
        vec = {"endowment": endowments, "a_max": a_max,
               "a_init": warm if warm is not None else a_init,
               "baseline": own_avg if own_avg is not None else baseline}.get(up)
        if vec is not None:
            vec[1] = math.nextafter(vec[1], math.inf)
        elif up == "d":
            d[1, 0] = math.nextafter(d[1, 0], math.inf)
        else:
            trust[1, 0] = math.nextafter(trust[1, 0], math.inf)
    team = None
    if rng.random() < 0.15:
        members = (0, 1) if n == 2 or rng.random() < 0.5 else tuple(range(n))
        loyalty = [unit() for _ in members]
        loyalty[1] = loyalty[0]
        team = TeamParams(members=members, loyalty=tuple(loyalty),
                          omega_prod=rng.uniform(5.0, 15.0), beta_team=rng.uniform(0.3, 0.9),
                          teammate_payoff=rng.choice(("sum", "mean")))
    scenario = ScenarioConfig(
        labels=tuple("ABCD"[:n]),
        d=InterdependenceMatrix(d),
        recip=ReciprocityParams(rho0=rng.uniform(0.0, 2.0), eta=rng.uniform(0.5, 2.0),
                                kappa=rng.uniform(0.3, 2.0), lambda_r=rng.uniform(0.0, 2.0),
                                omega_amp=unit()),
        trust=TrustParams(lambda_t=rng.uniform(0.0, 2.0)),
        econ=EconomyParams(endowments=tuple(endowments),
                           alpha=tuple(w / sum(shares) for w in shares),
                           theta_v=rng.uniform(5.0, 20.0), power_beta=rng.uniform(0.3, 0.95),
                           gamma=rng.choice((0.0, rng.uniform(0.1, 2.0))),
                           value_form=rng.choice(("logarithmic", "power"))),
        a_max=tuple(a_max),
        a_init=tuple(a_init),
        baseline_init=tuple(baseline),
        team=team,
    )
    config = SolverConfig(grid_points=rng.choice((21, 41, 101)),
                          max_iters=rng.choice((1, 4, 12)), refine=rng.random() < 0.35)
    return scenario, config, own_avg, trust, warm


SOLVER_KINDS = ("random", "pair", "near")
SOLVER_CASES = 200
# SHA-256 over (actions bytes, converged, iterations, residual.hex()) of
# SOLVER_CASES seeded solves, the kinds of _solver_case in turn, plus the
# 3-actor team scenario with refinement off and on.
SOLVER_GOLDEN = "b66ce79b345774cb6da0fb6d5443766c8d2c501a8c2331f268d8f7f876229bc7"


def test_solver_checksum():
    rng = random.Random(2203)
    cases = [_solver_case(rng, SOLVER_KINDS[c % 3]) for c in range(SOLVER_CASES)]
    team = team_scenario()
    trust = np.full((3, 3), team.trust.t0)
    np.fill_diagonal(trust, 1.0)
    cases += [(team, SolverConfig(grid_points=41, max_iters=12, refine=refine), None, trust, None)
              for refine in (False, True)]
    h = hashlib.sha256()
    for scenario, config, own_avg, trust, warm in cases:
        res = solve_equilibrium(scenario, own_avg, trust, config, warm)
        h.update(repr((np.array(res.actions).tobytes(), res.converged, res.iterations,
                       res.residual.hex())).encode())
    assert h.hexdigest() == SOLVER_GOLDEN, f"solver results moved ({_machine()})"


# SHA-256 over the reprs of check_prop3()'s three estimates, one a line: the
# refined 4001-point solves (the golden-section path) that the CLI prints
# only to four decimals.
PROP3_GOLDEN = "e3e8919708588c2df9e653e0c6759bfaa6590ad2e079303ae1b2dd480ecd0ff5"


def test_prop3_estimates_checksum():
    res = prop3()
    text = "\n".join(repr(float(x)) for x in (res.estimate, res.halved_estimate,
                                              res.zero_channel_estimate))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PROP3_GOLDEN, f"prop-3 estimates moved: {text} ({_machine()})"


# SHA-256 of the whole stdout of `coopsim prop-check`, per command line.
PROP_CHECK_GOLDEN = {
    "all": "8b02cc8b13be738b4514e83bd700ae2c3cb02ff1c4160770198cd5805bcc73bb",
    "k3-kappa1.5": "a1328c39dc5292d38892c09a850ef5db392010f231a5155de899c4d0a3f8175d",
}
PROP_CHECK_ARGV = {
    "all": ["prop-check"],
    "k3-kappa1.5": ["prop-check", "--prop", "2", "--k", "3", "--kappa", "1.5"],
}


@pytest.mark.parametrize("case", sorted(PROP_CHECK_GOLDEN))
def test_prop_check_stdout_checksum(case, capsys):
    assert main(PROP_CHECK_ARGV[case]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PROP_CHECK_GOLDEN[case], f"prop-check stdout moved:\n{out}({_machine()})"


# SHA-256 of the whole stdout of scripts/run_experiments.py.
EXPERIMENTS_GOLDEN = "aec8ab782b71621ceff82ce059301c10566b0d5ab94d8a7b7733e1d09ad76ed8"


def test_run_experiments_stdout_checksum(capsys):
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_experiments.py")
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == EXPERIMENTS_GOLDEN, f"experiment stdout moved:\n{out}({_machine()})"


# SHA-256 of scenario files as the writer emits them: a translated table with
# elicited values, the same table with the elicitation keys ``ELICITATION``
# leaves out (``memory_k`` aside, which would override the granularity
# heuristic), the iOS counterfactual (pre-history rows, the trust deadband,
# shocks) and a 3-actor team.
ELICITATION = "rho0 = 0.85\neta = 1.3\nkappa = 1.2\nt0 = 0.65\nhorizon = 40\nseed = 7\n"
ELICITATION_REST = ("granularity = monthly\nbaseline_mode = adaptive\nlambda_r = 0.6\n"
                    "omega_amp = 1.5\nlambda_t = 2.0\nrho0_target = 1.2\nrho0_observed = 0.5\n")
SCENARIO_TEXT_GOLDEN = {
    "translate":
        "7392beb754656d8eb86a5521296956ec5d19af3e230754086c2a71d6118f1746",
    "translate-rest":
        "546efa41966e5b254629211bfe9828440ae37ab9a8821337b4db16e66ec63e35",
    "ios-counterfactual":
        "626c5355d434cf365925b6a164cd68e471656907396b232392e8868539d07caa",
    "team":
        "34f9cd6bec048a8f8adda4acb475d0d348fdd0b519f1ecd5fc5c4221334e1af1",
}


def _scenario_text(case, tmp_path):
    if case == "ios-counterfactual":
        return scenario_to_text(*case_study.build_ios_scenario(counterfactual=True))
    if case == "team":
        return scenario_to_text(team_scenario(), SimConfig())
    out = tmp_path / "scenario.conf"
    elicitation = ELICITATION_REST if case == "translate-rest" else ELICITATION
    assert main(["translate", "--deps", case_study.ios_dependency_csv_path(),
                 "--elicit", _write(tmp_path / "elicit.conf", elicitation),
                 "--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


@pytest.mark.parametrize("case", sorted(SCENARIO_TEXT_GOLDEN))
def test_scenario_text_checksum(case, tmp_path):
    text = _scenario_text(case, tmp_path)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == SCENARIO_TEXT_GOLDEN[case], f"{case} scenario text moved:\n{text}"


# SHA-256 over the reprs of detect_transitions() and score_rubric_auto() on
# the baseline and the counterfactual run of seeds 0-99, seed by seed, then
# on the noise-free baseline and counterfactual: per run, the values and
# their Python types as a {phase: quarter, None if not found} dict and an
# {indicator: five floats} dict.
SCORER_GOLDEN = "f642ab9b6d9bf7f75c451e109e7ff03bf8493074a345afa67bcc12711490dfef"


def _scored_runs():
    """Every scored run's (actions, norms, trust), in that order, as one
    202-row batch."""
    runs = [case_study.build_ios_scenario(cf, seed) for seed in range(100) for cf in (False, True)]
    runs += [(scenario, replace(sim, noise_sigma=0.0))
             for scenario, sim in (case_study.build_ios_scenario(cf) for cf in (False, True))]
    record = run_batch(RunBatch.of(runs))
    return record["actions"], record["norms"], record["trust"]


def test_case_study_scorer_checksum():
    actions, norms, trust = _scored_runs()
    detected = case_study.detect_transitions(actions, norms).T.tolist()
    scores = {i: cells.T.tolist()
              for i, cells in case_study.score_rubric_auto(actions, norms, trust).items()}
    h = hashlib.sha256()
    for row, quarters in enumerate(detected):
        h.update(repr(({p.name: q or None for p, q in zip(case_study.IOS_PHASES, quarters)},
                       {i: tuple(cells[row]) for i, cells in scores.items()})).encode())
    assert h.hexdigest() == SCORER_GOLDEN, f"case-study scores moved ({_machine()})"
