#!/usr/bin/env python3
"""Pair the benchmark runs of a parent checkout and a change checkout and
write the comparison to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr 7

PARENT and CHANGE are checkouts in which ``perfbench/run.py --trace 0`` has
run; their ``.perfbench-runs/*-trace0.json`` files are paired by workload
and seed. For each workload and each end-to-end metric of the change's
BENCHMARK.json the file holds both sides' median and quartiles, the
number of pairs in which the change was better, in the metric's ``better``
direction, and ``worse_beyond_bound``: whether the change's median is worse
than the parent's by more than the metric's ``bound``, relative to the
parent's median. Each such metric is also named on stderr. ``gain_shown``
says whether the pairs show a gain: at least ten pairs, the change better
in at least nine tenths of them (ties count for neither), its median better
than the parent's by more than the parent's interquartile range, and no
more failed checks in the change's runs than in the parent's. A workload
whose change failed more checks is named on stderr.
The environment fields of the run records go with each side. The file is
written to the current directory; an existing one is never overwritten.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ENVIRONMENT = ("git_commit", "rategame_version", "run_seconds", "nproc", "python",
               "numpy", "platform", "machine")


def load_runs(checkout: str) -> dict:
    """(workload, seed) -> the run file of one untraced benchmark run."""
    runs = {}
    for path in glob.glob(os.path.join(checkout, ".perfbench-runs", "*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        rec = run["record"]
        runs[(rec["workload"], rec["seed"])] = run
    return runs


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def environment(runs: list[dict]) -> dict:
    """Each environment field: its one value, or the sorted distinct values."""
    out = {}
    for key in ENVIRONMENT:
        seen = sorted({json.dumps(r["record"].get(key)) for r in runs})
        values = [json.loads(v) for v in seen]
        out[key] = values[0] if len(values) == 1 else values
    return out


def compare(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """The per-workload comparison of the runs both sides have."""
    out = {}
    for workload in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        failed = {"parent": sum(p["result"]["failed"] for p, _ in pairs),
                  "change": sum(c["result"]["failed"] for _, c in pairs)}
        no_new_failures = failed["change"] <= failed["parent"]
        entry = {"seeds": seeds, "checks_failed": failed, "metrics": {}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                      for p, c in pairs]
            won = sum((c < p) if lower else (c > p) for p, c in values)
            parent_side = summary([p for p, _ in values])
            change_side = summary([c for _, c in values])
            # how far the change's median is worse, in the metric's direction
            worse = change_side["median"] - parent_side["median"]
            worse = worse if lower else -worse
            spread = parent_side["q3"] - parent_side["q1"]
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": parent_side, "change": change_side,
                "pairs": len(values), "change_better": won,
                "gain_shown": no_new_failures and len(values) >= 10
                and 10 * won >= 9 * len(values) and -worse > spread,
                "worse_beyond_bound": worse > metric["bound"] * abs(parent_side["median"]),
            }
        entry["environment"] = {"parent": environment([p for p, _ in pairs]),
                                "change": environment([c for _, c in pairs])}
        out[workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout with .perfbench-runs/")
    ap.add_argument("change", help="change checkout with .perfbench-runs/ and BENCHMARK.json")
    ap.add_argument("--pr", required=True, help="label of the change, used in the file name")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    workloads = compare(load_runs(args.parent), load_runs(args.change), metrics)
    if not workloads:
        print("bench_pairs: no workload and seed has a run on both sides", file=sys.stderr)
        return 2
    for workload, entry in workloads.items():
        failed = entry["checks_failed"]
        if failed["change"] > failed["parent"]:
            print(f"bench_pairs: {workload} change failed {failed['change']} checks against "
                  f"the parent's {failed['parent']}; no gain is shown", file=sys.stderr)
        for name, m in entry["metrics"].items():
            if m["worse_beyond_bound"]:
                print(f"bench_pairs: {workload} {name} median {m['change']['median']!r} is worse "
                      f"than the parent's {m['parent']['median']!r} beyond its bound",
                      file=sys.stderr)
    path = f"BENCH_{args.pr}.json"
    try:
        with open(path, "x", encoding="utf-8") as fh:
            json.dump({"pr": args.pr, "workloads": workloads}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except FileExistsError:
        print(f"bench_pairs: {path} exists; it is never overwritten", file=sys.stderr)
        return 2
    print(f"bench_pairs: wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
