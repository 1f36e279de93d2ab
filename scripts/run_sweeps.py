#!/usr/bin/env python3
"""Reproduce the routing-exponent and safety-staffing sweeps.

The r sweep runs at the configured staffing exponent (alpha = 1). The beta
sweep is emitted twice: once at alpha = 1 (staffing rises monotonically; the
direct safety term dominates) and once at alpha = 0.7, where an interior
staffing optimum appears, at a beta in [0.3, 0.55].

Outputs land in out/sweeps and out/sweeps_alpha07, or in those
subdirectories of RATEGAME_OUTDIR when that is set.
"""

import os
import sys

from rategame.cli import main

if __name__ == "__main__":
    args = sys.argv[1:]
    root = os.environ.get("RATEGAME_OUTDIR", "out")
    base = ["--config", "configs/base_case.cfg"]
    sweeps = os.path.join(root, "sweeps")
    rc = main(base + ["--out", sweeps, *args, "sweep", "--axis", "r",
                      "--grid=-2,-1.75,-1.5,-1.25,-1,-0.75,-0.5,-0.25"])
    rc = rc or main(base + ["--out", sweeps, *args, "sweep", "--axis", "beta"])
    rc = rc or main(base + ["--out", os.path.join(root, "sweeps_alpha07"), "--alpha", "0.7",
                            *args, "sweep", "--axis", "beta"])
    raise SystemExit(rc)
