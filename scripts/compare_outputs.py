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
else 0. A differing CSV whose two sides have the same shape and the same
non-numeric cells is named with how far its numbers moved: each column
that differs, with its largest difference as a fraction of the column's
largest magnitude, the largest first.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile

# the last scales the rates' box to 1e-10 .. 5e-9, with a load that keeps
# N small (387): the solver's stop rule must not depend on the unit of rate
CONFIGS = ([], ["--r", "-0.5"], ["--r", "-1.5"], ["--r", "-2"], ["--p", "5", "--r", "-3"],
           ["--p", "6", "--r", "-4"], ["--alpha", "0.7"],
           ["--mu-min", "1e-10", "--mu-max", "5e-9", "--lambda-bar", "1e-6"])
COMMANDS = (["equilibrium"], ["fairness", "--policy", "hrandom"], ["limits"],
            ["sweep", "--axis", "beta"], ["sweep", "--axis", "r"],
            ["--n", "200", "simulate", "--horizon", "1", "--warmup", "0.25"])
_SPECIAL_POLICIES = ("lisf", "fsf", "ssf", "uniform")
# a cold start builds a queue, so the simulator's patience deadlines, its
# FIFO line and its event log are compared too, under every routing policy;
# at gamma 200 some of the queued customers abandon within the horizon. The
# special policies' fairness laws and validate's replications, on two
# workers, run here too, and `limits` with its Euler step past its bound
BASE_COMMANDS = (tuple(["--n", "200", "--gamma", "200", "simulate", "--policy", policy,
                        "--cold-start", "--event-log", "--horizon", "1", "--warmup", "0.25"]
                       for policy in ("hrandom", *_SPECIAL_POLICIES))
                 + tuple(["fairness", "--policy", policy] for policy in _SPECIAL_POLICIES)
                 + (["validate", "--n-list", "20,40", "--replications", "2", "--horizon", "1",
                     "--warmup", "0.25", "--bins", "4", "--workers", "2"],
                    ["--gamma", "1000", "limits"]))
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


def _number(cell: str) -> float | None:
    """The finite float a CSV cell holds, else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def numeric_moves(parent: bytes, change: bytes) -> list[tuple[str, float]] | None:
    """How far the numbers of two versions of one CSV moved: (column, largest
    difference / the column's largest magnitude on either side) for each
    column that differs, the largest first. None unless both have the same
    shape, rows of the same lengths, and the same non-numeric cells (a
    cell that is a finite float on one side only is non-numeric)."""
    sides = [[line.split(",") for line in data.decode().splitlines()]
             for data in (parent, change)]
    if [len(row) for row in sides[0]] != [len(row) for row in sides[1]]:
        return None
    header = next((row for row in sides[0] if not row[0].startswith("#")), [])
    largest: dict[int, float] = {}
    moved: dict[int, float] = {}
    for row_a, row_b in zip(*sides):
        for j, (a, b) in enumerate(zip(row_a, row_b)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return None
                continue
            largest[j] = max(largest.get(j, 0.0), abs(x), abs(y))
            if x != y:
                moved[j] = max(moved.get(j, 0.0), abs(x - y))
    moves = [(header[j] if j < len(header) else f"column {j + 1}", d / largest[j])
             for j, d in moved.items()]
    return sorted(moves, key=lambda move: -move[1])


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two runs' results, one item per file, stream or
    exit code; a CSV whose numbers alone differ carries ``numeric_moves``."""
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
            moves = (numeric_moves(parent["files"][name], change["files"][name])
                     if name.endswith(".csv") else None)
            out.append(name if not moves else f"{name} numbers only: "
                       + ", ".join(f"{column} {fraction:.2g}" for column, fraction in moves))
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
