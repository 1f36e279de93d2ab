#!/usr/bin/env python3
"""Simulation-vs-theory convergence study across system scales.

For each n the script samples the equilibrium system, simulates it under the
weighted-random policy, and reports the gaps between the empirical and the
limiting quantities (per-rate idleness profile, scaled idleness, fairness).
Heavy: ~3-6 minutes at the default settings with two workers. Outputs land
in out/validation, or in validation under RATEGAME_OUTDIR when that is set.
"""

import os
import sys

from rategame.cli import main

if __name__ == "__main__":
    root = os.environ.get("RATEGAME_OUTDIR", "out")
    rc = main(["--config", "configs/base_case.cfg", "--out", os.path.join(root, "validation"),
               *sys.argv[1:], "validate", "--n-list", "100,200,400,800",
               "--replications", "20", "--workers", "2"])
    raise SystemExit(rc)
