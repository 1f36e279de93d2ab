"""The run record: flat named fields describing where and how a run was made.

The field names are meant to be shared with a future per-command run record
of the CLI, so that a benchmark run is a CLI run with timing turned on.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys


def git_commit(root: str) -> str | None:
    """HEAD of the checkout; None when it is not a git checkout or git is
    missing. Without the ``.git`` check, git would report an enclosing
    repository's HEAD."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(root: str, args, config, traced: bool) -> dict:
    import numpy
    import rategame

    return {
        "tool": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "traced": traced,
        "config_digest": config.digest(),
        "rategame_version": rategame.__version__,
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write(runs_dir: str, record: dict, result: dict, extra: dict, spans: list | None) -> None:
    """One JSON file per run: record, result, per-pass samples and spans."""
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['traced'])}.json"
    path = os.path.join(runs_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "samples": extra, "spans": spans}, fh)
