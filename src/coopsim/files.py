"""Plain-text file formats: scenario configs, dependency tables, grids, CSV.

Scenario files are one ``key = value`` pair per line with ``#`` comments.
Every field of the parameter blocks (``ScenarioConfig``,
``ReciprocityParams``, ``TrustParams``, ``EconomyParams``, ``TeamParams``
and ``SimConfig``) is a key of the same name, written in field order:
numbers as numbers, strings as written, tuples comma separated in actor
order.  Five fields have their own spellings: ``actors = a,b,...`` for the
labels; one ``d = depender,dependee,value`` line per nonzero
interdependence coefficient; one ``pre_history = a,b,...`` line per action
row before period 1 (oldest first); a ``team = member,...`` line of actor
labels for the team members, after which the team's fields follow
(``loyalty`` lists one value per member, in that order); and one ``shock =
period,actor,delta`` line per scheduled shock.  ``endowments`` and
``alpha`` default to 100 and 1/n per actor.  Pre-history and team lines
appear only when the scenario has them.  All emitted numbers use ``.``
decimals, files are UTF-8 with LF line endings, and writers are
deterministic so reruns are byte identical.

This module is the one reader of ``key = value`` text: scenario, grid and
(for :mod:`coopsim.translate`) elicitation files reject a key they do not
know, allow one value per key (``single``; the scenario's ``d``,
``pre_history`` and ``shock`` lines aside) and read each value by its
field's declared type (``read_field``, ``read_block``).

Dependency tables are CSV with the header
``depender,dependee,dependum,type,weight,exists,criticality``; actor
indices are assigned by first appearance, and ``exists`` is 0 or 1.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import fields
from typing import Optional, get_type_hints

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
from .sweep import GRID_KEYS, ParameterGrid, SweepCell


def fmt(x) -> str:
    """Canonical number formatting of every written file.

    Floats use the shortest exact representation, so parsing an emitted
    file reproduces the values bit for bit and re-emission is a fixed
    point.  The trajectory writers do not call it per number: they take
    whole arrays through ``.tolist()`` and ``repr``, which must give
    exactly this text (``tests/test_files.py`` holds them to it).
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


def single(kv: dict[str, list[str]], key: str, default: Optional[str] = None) -> Optional[str]:
    """The one value of ``key`` (a ConfigurationError if repeated), or ``default``."""
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

#: How a field of each type is read from its ``key = value`` line.  Fields of
#: any other type have their own spellings: ``actors``, ``d``,
#: ``pre_history``, ``team`` and ``shock``.
_READERS = {
    int: lambda raw, key: parse_number(raw, key, int),
    float: parse_number,
    str: lambda raw, key: raw,
    tuple[float, ...]: _floats,
}


def _keyed_fields(cls) -> dict:
    """``{name: reader}`` for each field of ``cls`` that is a key of its own
    name, in field order."""
    hints = get_type_hints(cls)
    return {f.name: _READERS[hints[f.name]] for f in fields(cls) if hints[f.name] in _READERS}


_KEYED = {cls: _keyed_fields(cls) for cls in (ScenarioConfig, ReciprocityParams, TrustParams,
                                               EconomyParams, TeamParams, SimConfig)}
_FIELD_READERS = {name: read for keyed in _KEYED.values() for name, read in keyed.items()}
_KNOWN_KEYS = {"actors", "d", "pre_history", "team", "shock", *_FIELD_READERS}


def read_field(name: str, raw: str):
    """Block field ``name`` read from ``raw`` by its declared type; a
    malformed number is a ConfigurationError naming ``name``."""
    return _FIELD_READERS[name](raw, name)


def _field_lines(block) -> list[str]:
    """``name = value`` for every keyed field of ``block``, in field order."""
    lines = []
    for name in _KEYED[type(block)]:
        value = getattr(block, name)
        if isinstance(value, tuple):
            value = ",".join(fmt(v) for v in value)
        elif not isinstance(value, str):
            value = fmt(value)
        lines.append(f"{name} = {value}")
    return lines


def read_block(cls, kv: dict[str, list[str]], **given):
    """``cls`` from ``given`` plus every keyed field the text sets (which
    overrides ``given``); the dataclass defaults fill the rest."""
    for name in _KEYED[cls]:
        if (raw := single(kv, name)) is not None:
            given[name] = read_field(name, raw)
    return cls(**given)


def scenario_to_text(scenario: ScenarioConfig, sim: SimConfig) -> str:
    labels = scenario.labels
    lines = ["# coopsim scenario", f"actors = {','.join(labels)}", *_field_lines(scenario)]
    lines.extend(f"pre_history = {','.join(fmt(v) for v in row)}"
                 for row in scenario.pre_history)
    d = scenario.d.values
    # Every coefficient but the default +0.0; -0.0 == 0.0, so its sign bit counts.
    lines.extend(f"d = {labels[i]},{labels[j]},{fmt(d[i, j])}"
                 for i in range(scenario.n) for j in range(scenario.n)
                 if i != j and (d[i, j] != 0.0 or np.signbit(d[i, j])))
    for block in (scenario.recip, scenario.trust, scenario.econ):
        lines.extend(_field_lines(block))
    if scenario.team is not None:
        lines.append(f"team = {','.join(labels[m] for m in scenario.team.members)}")
        lines.extend(_field_lines(scenario.team))
    lines.extend(_field_lines(sim))
    lines.extend(f"shock = {s.period},{labels[s.actor]},{fmt(s.delta)}" for s in sim.shocks)
    return "\n".join(lines) + "\n"


def _team_from(kv: dict[str, list[str]], index: dict[str, int]) -> Optional[TeamParams]:
    """The ``team`` line's members (by label) and the team fields, or None."""
    members = single(kv, "team")
    if members is None:
        given = [name for name in _KEYED[TeamParams] if name in kv]
        if given:
            raise ConfigurationError(f"{given[0]} needs a 'team' line naming the members")
        return None
    labels = [label.strip() for label in members.split(",")]
    for label in labels:
        if label not in index:
            raise ConfigurationError(f"team names unknown actor {label!r}")
    return read_block(TeamParams, kv, members=tuple(index[label] for label in labels))


def scenario_from_text(text: str) -> tuple[ScenarioConfig, SimConfig]:
    kv = parse_keyvalues(text)
    for key in kv:
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown scenario key {key!r}")
    actors_line = single(kv, "actors")
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

    shocks = []
    for entry in kv.get("shock", []):
        parts = [p.strip() for p in entry.split(",")]
        if len(parts) != 3:
            raise ConfigurationError(f"bad shock entry {entry!r}")
        actor = index.get(parts[1])
        if actor is None:
            raise ConfigurationError(f"shock names unknown actor: {entry!r}")
        shocks.append(Shock(period=parse_number(parts[0], "shock period", int), actor=actor,
                            delta=parse_number(parts[2], "shock delta")))

    scenario = read_block(
        ScenarioConfig, kv,
        labels=labels,
        d=InterdependenceMatrix(d),
        recip=read_block(ReciprocityParams, kv),
        trust=read_block(TrustParams, kv),
        econ=read_block(EconomyParams, kv, endowments=(100.0,) * n, alpha=(1.0 / n,) * n),
        pre_history=tuple(_floats(row, "pre_history") for row in kv.get("pre_history", [])),
        team=_team_from(kv, index),
    )
    return scenario, read_block(SimConfig, kv, shocks=tuple(shocks))


def read_scenario(path: str) -> tuple[ScenarioConfig, SimConfig]:
    return scenario_from_text(read_text(path))


def write_scenario(path: str, scenario: ScenarioConfig, sim: SimConfig) -> None:
    write_file(path, scenario_to_text(scenario, sim))


# -- dependency tables -------------------------------------------------------

DEPENDENCY_HEADER = ("depender", "dependee", "dependum", "type", "weight",
                     "exists", "criticality")


def read_dependency_csv(path: str) -> tuple[tuple[str, ...], list[DependencyEntry]]:
    """Read a dependency table; actor indices follow first appearance."""
    return parse_dependency_csv(read_text(path, newline=""))


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
                exists=parse_number(exists, "exists", int),
                criticality=parse_number(crit, "criticality"),
            )
        )
    return tuple(labels), entries


# -- sweep grids --------------------------------------------------------------

def parse_grid(text: str) -> ParameterGrid:
    """Comma-separated levels per ``SweepCell`` field, read by its type; a
    key that is no grid parameter keeps its text for ``ParameterGrid`` to reject."""
    kv = parse_keyvalues(text)
    kinds = get_type_hints(SweepCell)
    return ParameterGrid({key: tuple(_READERS[kinds.get(key, str)](x, key)
                                     for x in single(kv, key).split(","))
                          for key in kv})


def read_grid(path: str) -> ParameterGrid:
    return parse_grid(read_text(path))


# -- output CSVs ---------------------------------------------------------------

def _dyads(traj: Trajectory, *states: str) -> tuple[list, list]:
    """Each off-diagonal (i, j) label pair in row-major order, and per named
    (H, n, n) state the period rows of its off-diagonal values as lists."""
    labels = traj.labels
    off = ~np.eye(traj.n, dtype=bool)
    pairs = [(li, lj) for i, li in enumerate(labels) for j, lj in enumerate(labels) if i != j]
    return pairs, [getattr(traj, state)[:, off].tolist() for state in states]


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["period,actor,action"]
    for t, row in enumerate(traj.actions.tolist(), start=1):
        lines.extend(f"{t},{label},{a!r}" for label, a in zip(traj.labels, row))
    return "\n".join(lines) + "\n"


def dyads_csv(traj: Trajectory) -> str:
    pairs, cols = _dyads(traj, "trust", "reputation", "signal", "recip_term")
    lines = ["period,i,j,trust,reputation,signal,recip_term"]
    for t, rows in enumerate(zip(*cols), start=1):
        lines.extend(f"{t},{li},{lj},{tr!r},{rep!r},{s!r},{term!r}"
                     for (li, lj), tr, rep, s, term in zip(pairs, *rows))
    return "\n".join(lines) + "\n"


def long_format_csv(traj: Trajectory) -> str:
    """Plot-ready long format: one measurement per row."""
    pairs, (trust,) = _dyads(traj, "trust")
    lines = ["period,series,actor,value"]
    for t, (actions, row) in enumerate(zip(traj.actions.tolist(), trust), start=1):
        lines.extend(f"{t},action,{label},{a!r}" for label, a in zip(traj.labels, actions))
        lines.extend(f"{t},trust,{li}->{lj},{v!r}" for (li, lj), v in zip(pairs, row))
    return "\n".join(lines) + "\n"


#: Rows of a result table formatted at a time: bounds the Python objects
#: alive at once to a block's, next to the text itself.
CSV_BLOCK_ROWS = 1024


def targets_csv(table: dict[str, np.ndarray]) -> str:
    """One line per row of a sweep's result table, verdicts as 0 and 1."""
    cols = [
        *GRID_KEYS,
        "t1", "t2", "t3", "t4", "t5", "t6",
        "steady_level", "coop_mean", "tau_f", "response_high", "response_low",
        "ratio", "max_abs_response",
    ]
    values = [table[c].astype(int) if table[c].dtype == bool else table[c] for c in cols]
    blocks = [",".join(["index", *cols]) + "\n"]
    for lo in range(0, len(values[0]), CSV_BLOCK_ROWS):
        rows = zip(range(lo, lo + CSV_BLOCK_ROWS),
                   *(v[lo : lo + CSV_BLOCK_ROWS].tolist() for v in values))
        blocks.append("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return "".join(blocks)


def read_text(path: str, newline: Optional[str] = None) -> str:
    """The UTF-8 text of the file at ``path``; text that is not UTF-8 is a
    ConfigurationError that names the path."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


def write_file(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
