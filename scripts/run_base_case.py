#!/usr/bin/env python3
"""Solve the base-case equilibrium, dump the fairness density, and write the
limit-object trajectories. Outputs land in out/base_case, or in base_case
under RATEGAME_OUTDIR when that is set (a later --out argument wins)."""

import os
import sys

from rategame.cli import main

if __name__ == "__main__":
    args = sys.argv[1:]
    root = os.environ.get("RATEGAME_OUTDIR", "out")
    out = ["--config", "configs/base_case.cfg", "--out", os.path.join(root, "base_case")]
    rc = main(out + args + ["equilibrium"])
    rc = rc or main(out + args + ["fairness", "--policy", "hrandom"])
    rc = rc or main(out + args + ["limits"])
    raise SystemExit(rc)
