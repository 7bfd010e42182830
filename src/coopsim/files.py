"""Plain-text file formats: scenario configs, dependency tables, grids, CSV.

Scenario files are one ``key = value`` pair per line with ``#`` comments.
Repeated keys express collections: one ``d = depender,dependee,value`` line
per nonzero interdependence coefficient, one ``pre_history = a,b,...`` line
per action row before period 1 (oldest first) and one ``shock = period,
actor,delta`` line per scheduled shock.  Vectors are comma separated in
actor order.  A team is a ``team = member,...`` line of actor labels plus
its fields (``loyalty`` lists one value per member, in that order).
Pre-history and team lines appear only when the scenario has them.  All
emitted numbers use ``.`` decimals, files are UTF-8 with LF line endings,
and writers are deterministic so reruns are byte identical.

Dependency tables are CSV with the header
``depender,dependee,dependum,type,weight,exists,criticality``; actor
indices are assigned by first appearance.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .params import (
    DependencyEntry,
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
)
from .scenario import ScenarioConfig, Shock, SimConfig
from .simulation import Trajectory
from .sweep import GRID_KEYS, CellResult, ParameterGrid


def fmt(x) -> str:
    """Canonical number formatting shared by all writers.

    Floats use the shortest exact representation, so parsing an emitted
    file reproduces the values bit for bit and re-emission is a fixed
    point.
    """
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def parse_keyvalues(text: str) -> dict[str, list[str]]:
    """Parse ``key = value`` lines; repeated keys accumulate in order."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out.setdefault(key.strip(), []).append(value.strip())
    return out


def _single(kv: dict[str, list[str]], key: str, default: Optional[str] = None) -> Optional[str]:
    vals = kv.get(key)
    if not vals:
        return default
    if len(vals) > 1:
        raise ConfigurationError(f"key {key!r} given more than once")
    return vals[0]


def parse_number(raw: str, key: str, kind: type = float):
    """``kind(raw)`` for one numeric field; a malformed number is a
    ConfigurationError naming ``key``.  Range and finiteness checks stay
    with the parameter blocks' validators."""
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {what}, got {raw.strip()!r}") from None


def _floats(text: str, key: str) -> tuple[float, ...]:
    return tuple(parse_number(x, key) for x in text.split(","))


# -- scenario files ----------------------------------------------------------

_RECIP_KEYS = ("rho0", "eta", "kappa", "memory_k", "lambda_r", "omega_amp")
_TRUST_KEYS = ("t0", "lambda_plus", "lambda_minus", "xi", "mu_r", "delta_r",
               "t_max", "theta_r", "lambda_t", "deadband")
_ECON_KEYS = ("theta_v", "power_beta", "gamma")
_SIM_FLOAT_KEYS = ("adjust_rate", "decay", "baseline_rate", "noise_sigma")
_TEAM_FLOAT_KEYS = ("omega_prod", "beta_team", "unit_cost", "phi_b", "phi_c")
_TEAM_KEYS = ("loyalty", *_TEAM_FLOAT_KEYS, "teammate_payoff")


def scenario_to_text(scenario: ScenarioConfig, sim: SimConfig) -> str:
    lines = ["# coopsim scenario"]
    lines.append(f"actors = {','.join(scenario.labels)}")
    for name, vec in (
        ("a_max", scenario.a_max),
        ("a_init", scenario.a_init),
        ("baseline_init", scenario.baseline_init),
    ):
        lines.append(f"{name} = {','.join(fmt(v) for v in vec)}")
    lines.append(f"baseline_mode = {scenario.baseline_mode}")
    for row in scenario.pre_history:
        lines.append(f"pre_history = {','.join(fmt(v) for v in row)}")
    d = scenario.d.values
    for i in range(scenario.n):
        for j in range(scenario.n):
            if i != j and d[i, j] != 0.0:
                lines.append(
                    f"d = {scenario.labels[i]},{scenario.labels[j]},{fmt(d[i, j])}"
                )
    for block, keys in ((scenario.recip, _RECIP_KEYS), (scenario.trust, _TRUST_KEYS)):
        lines.extend(f"{name} = {fmt(getattr(block, name))}" for name in keys)
    e = scenario.econ
    lines.append(f"endowments = {','.join(fmt(v) for v in e.endowments)}")
    lines.append(f"alpha = {','.join(fmt(v) for v in e.alpha)}")
    lines.extend(f"{name} = {fmt(getattr(e, name))}" for name in _ECON_KEYS)
    lines.append(f"value_form = {e.value_form}")
    team = scenario.team
    if team is not None:
        lines.append(f"team = {','.join(scenario.labels[m] for m in team.members)}")
        lines.append(f"loyalty = {','.join(fmt(v) for v in team.loyalty)}")
        lines.extend(f"{name} = {fmt(getattr(team, name))}" for name in _TEAM_FLOAT_KEYS)
        lines.append(f"teammate_payoff = {team.teammate_payoff}")
    lines.append(f"horizon = {sim.horizon}")
    lines.append(f"mode = {sim.mode}")
    lines.extend(f"{name} = {fmt(getattr(sim, name))}" for name in _SIM_FLOAT_KEYS)
    lines.append(f"seed = {sim.seed}")
    for s in sim.shocks:
        lines.append(f"shock = {s.period},{scenario.labels[s.actor]},{fmt(s.delta)}")
    return "\n".join(lines) + "\n"


_KNOWN_KEYS = (
    {"actors", "a_max", "a_init", "baseline_init", "baseline_mode", "pre_history", "d",
     "endowments", "alpha", "value_form", "team", "horizon", "mode", "seed", "shock"}
    | set(_RECIP_KEYS) | set(_TRUST_KEYS) | set(_ECON_KEYS) | set(_SIM_FLOAT_KEYS)
    | set(_TEAM_KEYS)
)


def _team_from(kv: dict[str, list[str]], index: dict[str, int]) -> Optional[TeamParams]:
    """The ``team`` line's members (by label) and the team fields, or None."""
    members = _single(kv, "team")
    if members is None:
        given = [key for key in _TEAM_KEYS if key in kv]
        if given:
            raise ConfigurationError(f"{given[0]} needs a 'team' line naming the members")
        return None
    labels = [label.strip() for label in members.split(",")]
    for label in labels:
        if label not in index:
            raise ConfigurationError(f"team names unknown actor {label!r}")
    kwargs = {"members": tuple(index[label] for label in labels)}
    loyalty = _single(kv, "loyalty")
    if loyalty is not None:
        kwargs["loyalty"] = _floats(loyalty, "loyalty")
    for key in _TEAM_FLOAT_KEYS:
        raw = _single(kv, key)
        if raw is not None:
            kwargs[key] = parse_number(raw, key)
    payoff = _single(kv, "teammate_payoff")
    if payoff is not None:
        kwargs["teammate_payoff"] = payoff
    return TeamParams(**kwargs)


def scenario_from_text(text: str) -> tuple[ScenarioConfig, SimConfig]:
    kv = parse_keyvalues(text)
    for key in kv:
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown scenario key {key!r}")
    actors_line = _single(kv, "actors")
    if not actors_line:
        raise ConfigurationError("scenario must declare 'actors'")
    labels = tuple(a.strip() for a in actors_line.split(","))
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}

    d = np.zeros((n, n))
    for entry in kv.get("d", []):
        parts = [p.strip() for p in entry.split(",")]
        if len(parts) != 3:
            raise ConfigurationError(f"bad interdependence entry {entry!r}")
        i = index.get(parts[0])
        j = index.get(parts[1])
        if i is None or j is None:
            raise ConfigurationError(f"interdependence entry names unknown actor: {entry!r}")
        d[i, j] = parse_number(parts[2], "d")

    def vec(key: str, default: Optional[tuple[float, ...]]) -> Optional[tuple[float, ...]]:
        raw = _single(kv, key)
        if raw is None:
            return default
        v = _floats(raw, key)
        if len(v) != n:
            raise ConfigurationError(f"{key} must list one value per actor")
        return v

    recip_kwargs = {}
    for key in _RECIP_KEYS:
        raw = _single(kv, key)
        if raw is not None:
            recip_kwargs[key] = parse_number(raw, key, int if key == "memory_k" else float)
    trust_kwargs = {}
    for key in _TRUST_KEYS:
        raw = _single(kv, key)
        if raw is not None:
            trust_kwargs[key] = parse_number(raw, key)

    econ_kwargs = {}
    endow = vec("endowments", None)
    alpha = vec("alpha", None)
    econ_kwargs["endowments"] = endow if endow is not None else (100.0,) * n
    econ_kwargs["alpha"] = alpha if alpha is not None else (1.0 / n,) * n
    for key in _ECON_KEYS:
        raw = _single(kv, key)
        if raw is not None:
            econ_kwargs[key] = parse_number(raw, key)
    form = _single(kv, "value_form")
    if form is not None:
        econ_kwargs["value_form"] = form

    shocks = []
    for entry in kv.get("shock", []):
        parts = [p.strip() for p in entry.split(",")]
        if len(parts) != 3:
            raise ConfigurationError(f"bad shock entry {entry!r}")
        actor = index.get(parts[1])
        if actor is None:
            try:
                actor = int(parts[1])
            except ValueError:
                raise ConfigurationError(f"shock names unknown actor: {entry!r}") from None
        shocks.append(Shock(period=parse_number(parts[0], "shock period", int), actor=actor,
                            delta=parse_number(parts[2], "shock delta")))

    scenario = ScenarioConfig(
        labels=labels,
        d=InterdependenceMatrix(d),
        recip=ReciprocityParams(**recip_kwargs),
        trust=TrustParams(**trust_kwargs),
        econ=EconomyParams(**econ_kwargs),
        a_max=vec("a_max", None) or (1.0,) * n,
        a_init=vec("a_init", None) or (0.0,) * n,
        baseline_init=vec("baseline_init", None) or (),
        baseline_mode=_single(kv, "baseline_mode", "moving_average"),
        pre_history=tuple(_floats(row, "pre_history") for row in kv.get("pre_history", [])),
        team=_team_from(kv, index),
    )
    sim_kwargs = {}
    for key in _SIM_FLOAT_KEYS:
        raw = _single(kv, key)
        if raw is not None:
            sim_kwargs[key] = parse_number(raw, key)
    horizon = _single(kv, "horizon")
    if horizon is not None:
        sim_kwargs["horizon"] = parse_number(horizon, "horizon", int)
    mode = _single(kv, "mode")
    if mode is not None:
        sim_kwargs["mode"] = mode
    seed = _single(kv, "seed")
    if seed is not None:
        sim_kwargs["seed"] = parse_number(seed, "seed", int)
    sim = SimConfig(shocks=tuple(shocks), **sim_kwargs)
    return scenario, sim


def read_scenario(path: str) -> tuple[ScenarioConfig, SimConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_text(fh.read())


def write_scenario(path: str, scenario: ScenarioConfig, sim: SimConfig) -> None:
    _write_text(path, scenario_to_text(scenario, sim))


# -- dependency tables -------------------------------------------------------

DEPENDENCY_HEADER = ("depender", "dependee", "dependum", "type", "weight",
                     "exists", "criticality")


def read_dependency_csv(path: str) -> tuple[tuple[str, ...], list[DependencyEntry]]:
    """Read a dependency table; actor indices follow first appearance."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_dependency_csv(fh.read())


def parse_dependency_csv(text: str) -> tuple[tuple[str, ...], list[DependencyEntry]]:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ConfigurationError("dependency table is empty")
    header = tuple(h.strip().lower() for h in rows[0])
    if header != DEPENDENCY_HEADER:
        raise ConfigurationError(
            f"dependency CSV header must be {','.join(DEPENDENCY_HEADER)}"
        )
    labels: list[str] = []
    index: dict[str, int] = {}

    def actor(name: str) -> int:
        name = name.strip()
        if name not in index:
            index[name] = len(labels)
            labels.append(name)
        return index[name]

    entries = []
    for row in rows[1:]:
        if len(row) != len(DEPENDENCY_HEADER):
            raise ConfigurationError(f"bad dependency row: {row!r}")
        depender, dependee, dependum, _type, weight, exists, crit = row
        entries.append(
            DependencyEntry(
                depender=actor(depender), dependee=actor(dependee),
                dependum=dependum.strip(), weight=parse_number(weight, "weight"),
                exists=bool(parse_number(exists, "exists", int)),
                criticality=parse_number(crit, "criticality"),
            )
        )
    return tuple(labels), entries


# -- sweep grids --------------------------------------------------------------

def parse_grid(text: str) -> ParameterGrid:
    kv = parse_keyvalues(text)
    levels = {}
    for key, vals in kv.items():
        if key not in GRID_KEYS:
            raise ConfigurationError(f"unknown grid parameter {key!r}")
        if len(vals) > 1:
            raise ConfigurationError(f"grid parameter {key!r} given more than once")
        levels[key] = _floats(vals[0], key)
    return ParameterGrid(levels)


def read_grid(path: str) -> ParameterGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read())


# -- output CSVs ---------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["period,actor,action"]
    for t in range(traj.horizon):
        for i, label in enumerate(traj.labels):
            lines.append(f"{t + 1},{label},{fmt(traj.actions[t, i])}")
    return "\n".join(lines) + "\n"


def dyads_csv(traj: Trajectory) -> str:
    lines = ["period,i,j,trust,reputation,signal,recip_term"]
    for t in range(traj.horizon):
        for i, li in enumerate(traj.labels):
            for j, lj in enumerate(traj.labels):
                if i == j:
                    continue
                lines.append(
                    f"{t + 1},{li},{lj},{fmt(traj.trust[t, i, j])},"
                    f"{fmt(traj.reputation[t, i, j])},{fmt(traj.signal[t, i, j])},"
                    f"{fmt(traj.recip_term[t, i, j])}"
                )
    return "\n".join(lines) + "\n"


def long_format_csv(traj: Trajectory) -> str:
    """Plot-ready long format: one measurement per row."""
    lines = ["period,series,actor,value"]
    for t in range(traj.horizon):
        for i, label in enumerate(traj.labels):
            lines.append(f"{t + 1},action,{label},{fmt(traj.actions[t, i])}")
        for i, li in enumerate(traj.labels):
            for j, lj in enumerate(traj.labels):
                if i != j:
                    lines.append(
                        f"{t + 1},trust,{li}->{lj},{fmt(traj.trust[t, i, j])}"
                    )
    return "\n".join(lines) + "\n"


def targets_csv(results: Sequence[CellResult]) -> str:
    cols = [
        "index", "rho0", "eta", "kappa", "memory_k", "lambda_r", "t0", "d",
        "t1", "t2", "t3", "t4", "t5", "t6",
        "steady_level", "coop_mean", "tau_f", "response_high", "response_low",
        "ratio", "max_abs_response",
    ]
    lines = [",".join(cols)]
    for r in results:
        c = r.cell
        lines.append(
            ",".join(
                [
                    str(r.index),
                    fmt(c.rho0), fmt(c.eta), fmt(c.kappa), str(c.memory_k),
                    fmt(c.lambda_r), fmt(c.t0), fmt(c.d),
                    fmt(r.t1), fmt(r.t2), fmt(r.t3), fmt(r.t4), fmt(r.t5), fmt(r.t6),
                    fmt(r.steady_level), fmt(r.coop_mean), str(r.tau_f),
                    fmt(r.response_high), fmt(r.response_low),
                    (fmt(r.ratio) if np.isfinite(r.ratio) else "inf"),
                    fmt(r.max_abs_response),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_file(path: str, text: str) -> None:
    _write_text(path, text)
