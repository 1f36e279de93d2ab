#!/usr/bin/env python3
"""Run the same CLI commands in two checkouts and report every output that
differs between them.

    python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are source checkouts; each side's package is imported
from its ``src/`` by the interpreter that runs this script. Every command
of ``COMMANDS`` runs at every configuration of ``CONFIGS``, and each of
``BASE_COMMANDS`` at the base configuration, each in a fresh working
directory with ``--out out``, so the two sides print the same paths. The
rate ``events_per_s=`` that ``simulate`` prints is the one output that is
not the same on a rerun, and is stripped from stdout.

Every differing CSV (or file found on one side only), stdout, stderr and
exit code is named on stdout; the exit status is 1 if anything differs,
else 0.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

CONFIGS = ([], ["--r", "-0.5"], ["--r", "-1.5"], ["--r", "-2"], ["--p", "5", "--r", "-3"],
           ["--p", "6", "--r", "-4"])
COMMANDS = (["equilibrium"], ["fairness", "--policy", "hrandom"], ["limits"],
            ["sweep", "--axis", "beta"], ["sweep", "--axis", "r"],
            ["--n", "200", "simulate", "--horizon", "1", "--warmup", "0.25"])
# a cold start builds a queue, so the simulator's patience deadlines, its
# FIFO line and its event log are compared too, under every routing policy
BASE_COMMANDS = tuple(["--n", "200", "simulate", "--policy", policy, "--cold-start",
                       "--event-log", "--horizon", "1", "--warmup", "0.25"]
                      for policy in ("hrandom", "lisf", "fsf", "ssf", "uniform"))
_RATE = re.compile(r" ?events_per_s=\S*")


def runs() -> list[list[str]]:
    """The CLI arguments of every run: each command at each configuration,
    then the base-configuration commands."""
    return ([config + command for config in CONFIGS for command in COMMANDS]
            + [list(command) for command in BASE_COMMANDS])


def strip_rates(stdout: str) -> str:
    """``stdout`` without its ``events_per_s=`` fields."""
    return _RATE.sub("", stdout)


def collect(outdir: str) -> dict[str, bytes]:
    """Every file under ``outdir``, by its path relative to it."""
    files = {}
    for root, _dirs, names in os.walk(outdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, outdir)] = fh.read()
    return files


def run(checkout: str, argv: list[str], workdir: str) -> dict:
    """One CLI run of the package in ``checkout``: its exit code, its
    stdout (rates stripped) and stderr, and the files it wrote."""
    env = {k: v for k, v in os.environ.items() if k != "RATEGAME_OUTDIR"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    proc = subprocess.run([sys.executable, "-m", "rategame", "--out", "out", *argv],
                          cwd=workdir, env=env, capture_output=True, text=True, check=False)
    return {"exit": proc.returncode, "stdout": strip_rates(proc.stdout),
            "stderr": proc.stderr, "files": collect(os.path.join(workdir, "out"))}


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two runs' results, one item per file, stream or
    exit code."""
    out = []
    if parent["exit"] != change["exit"]:
        out.append(f"exit code {parent['exit']} -> {change['exit']}")
    out += [stream for stream in ("stdout", "stderr") if parent[stream] != change[stream]]
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if name not in change["files"]:
            out.append(f"{name} (parent only)")
        elif name not in parent["files"]:
            out.append(f"{name} (change only)")
        elif parent["files"][name] != change["files"][name]:
            out.append(name)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout")
    ap.add_argument("change", help="change checkout")
    args = ap.parse_args(argv)

    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cli_args in enumerate(runs()):
            results = []
            for side, checkout in (("parent", args.parent), ("change", args.change)):
                workdir = os.path.join(tmp, f"{side}{i}")
                os.mkdir(workdir)
                results.append(run(checkout, cli_args, workdir))
            found = differences(*results)
            differing += bool(found)
            for item in found:
                print(f"compare_outputs: [{' '.join(cli_args)}] {item}")
    print(f"compare_outputs: {differing} of {len(runs())} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
