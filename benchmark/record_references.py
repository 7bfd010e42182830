"""Record the reference outputs of every pool job from the current program.

    python3 benchmark/record_references.py [WORKLOAD ...]

Run it from the root of a checkout of the commit whose outputs are the
reference.  It writes ``benchmark/reference/<workload>.json.gz``.  Only
re-record on purpose: the references are what the benchmark's output check
holds every later commit to.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from datetime import datetime, timezone

from outputs import capture_converged, read_outputs, save_references
from run import ROOT, WORK_ROOT, execute, import_cli, machine
from workloads import WORKLOADS


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return ""
    return proc.stdout.strip()


def record(cli, workload) -> dict:
    work = os.path.join(WORK_ROOT, f"record-{workload.name}")
    out = os.path.join(work, "out")
    workload.write_inputs(work)
    jobs: dict[str, dict] = {}
    for job in workload.pool:
        flags: list = []
        with capture_converged(cli, flags):
            code, stdout, _, error = execute(cli, job, work, out)
        if code is None:
            raise RuntimeError(f"{job.key} raised:\n{error}")
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        entry = {"exit": code, "stdout": stdout, "files": read_outputs(out, names)}
        if job.key == "simulate":
            entry["converged"] = flags[0]
        if job.key in jobs and jobs[job.key] != entry:
            raise RuntimeError(f"jobs sharing the key {job.key} gave different outputs")
        jobs[job.key] = entry
        print(f"{workload.name} {job.key}: exit {code}, {len(names)} files")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "meta": {
            **machine(),
            "commit": _commit(),
            "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        },
        "jobs": jobs,
    }


def main(names) -> int:
    cli = import_cli()
    for name in names or sorted(WORKLOADS):
        save_references(name, record(cli, WORKLOADS[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
