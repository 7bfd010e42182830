"""Reference outputs and the output check.

``record_references.py`` runs every pool job once and stores, per job
key, the exit code, the standard output and the text of every file the job
wrote.  A job's outputs match its reference when

- the exit code is the one the reference had, so exit 2 on a missed
  acceptance threshold is valid only where the reference also exited 2;
- the standard output and every reference file match token by token:
  words and integers (target verdicts, ``tau_f``, ``memory_k``, counts)
  exactly, floats within ``REL_TOL`` of each other (``ABS_TOL`` near
  zero).  Numbers printed rounded, as in reports and standard output,
  therefore have to print the same digits.

Byte equality is reported on its own, so a deliberate change of output
bits shows without counting as a failure.  The references pin the host
class they were recorded on: numpy picks SIMD kernels by CPU, and its
ufuncs are not bit-equal across kernels.
"""

from __future__ import annotations

import gzip
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_references(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_references(workload: str, data: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    # mtime=0 keeps the archive bytes a function of its content.
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(data, indent=0, sort_keys=True).encode("utf-8"))


def normalize_stdout(text: str, out: str) -> str:
    """Standard output with the job's output directory replaced by ``{out}``."""
    return text.replace(out, "{out}")


def read_outputs(out: str, names) -> dict[str, Optional[str]]:
    found = {}
    for name in names:
        try:
            with open(os.path.join(out, name), "r", encoding="utf-8", newline="") as fh:
                found[name] = fh.read()
        except FileNotFoundError:
            found[name] = None
    return found


def _is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def _tokens_match(got: str, want: str) -> bool:
    if _is_int(got) or _is_int(want):
        return got == want
    a, b = float(got), float(want)
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def compare_text(got: str, want: str) -> Optional[str]:
    """None when ``got`` matches ``want`` within tolerance, else where it differs."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    for i, (a, b) in enumerate(zip(g, w)):
        same = a == b if i % 2 == 0 else _tokens_match(a, b)
        if not same:
            line = "".join(g[:i]).count("\n") + 1
            return f"line {line}: got {a[:60]!r}, reference {b[:60]!r}"
    if len(g) != len(w):
        return f"got {len(g) // 2} numbers, reference {len(w) // 2}"
    return None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    identical: bool  # every output byte-equal to the reference
    problem: Optional[str] = None


def check_job(ref: Optional[dict], exit_code, stdout: str, files: dict,
              converged: Optional[list] = None) -> Verdict:
    """Compare one job's exit code, standard output and files with its reference.

    ``files`` maps each reference file name to the text the job wrote, or
    None when it wrote none.  ``converged`` holds best-response solve flags
    when the caller captured them.
    """
    if ref is None:
        return Verdict(False, False, "no reference for this job")
    if exit_code != ref["exit"]:
        return Verdict(False, False, f"exit code {exit_code}, reference {ref['exit']}")
    if converged is not None and converged != ref.get("converged"):
        return Verdict(False, False, "converged flags differ from the reference")
    identical = True
    pairs = [("stdout", stdout, ref["stdout"])]
    pairs += [(name, files.get(name), text) for name, text in sorted(ref["files"].items())]
    for name, got, want in pairs:
        if got is None:
            return Verdict(False, False, f"{name} was not written")
        if got == want:
            continue
        identical = False
        diff = compare_text(got, want)
        if diff is not None:
            return Verdict(False, False, f"{name}: {diff}")
    return Verdict(True, identical)


@contextmanager
def capture_converged(cli, sink: list):
    """Record the ``converged`` flags of every trajectory the CLI simulates.

    ``Trajectory.converged`` is in no output file, so it is read from the
    return value of the engine entry point the CLI looks up.  If the CLI no
    longer binds ``run``, nothing is recorded and the flag check fails.
    """
    original = getattr(cli, "run", None)
    if original is None:
        yield
        return

    def capturing(*args, **kwargs):
        traj = original(*args, **kwargs)
        sink.append([bool(x) for x in traj.converged])
        return traj

    cli.run = capturing
    try:
        yield
    finally:
        cli.run = original
