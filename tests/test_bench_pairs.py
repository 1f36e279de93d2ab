import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
           {"name": "events_per_ref", "unit": "events/ref", "better": "higher", "bound": 0.25}]


def write_run(checkout, workload, seed, wall, events, failed=0, commit="abc", traced=0):
    runs = checkout / ".perfbench-runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"tool": "perfbench", "workload": workload, "seed": seed, "run_seconds": 30,
              "traced": bool(traced), "git_commit": commit, "rategame_version": "0.1.0",
              "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "platform": "linux",
              "machine": "x86_64"}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_ref": {"value": wall, "unit": "ref"},
                          "events_per_ref": {"value": events, "unit": "events/ref"}}}
    path = runs / f"{workload}-seed{seed}-trace{traced}.json"
    path.write_text(json.dumps({"record": record, "result": result,
                                "samples": {}, "spans": None}))


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (tmp_path / "change").mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    for seed, (p_wall, c_wall) in zip((1, 2, 3, 4), ((10.0, 8.0), (12.0, 9.0),
                                                     (11.0, 11.5), (9.0, 7.0))):
        write_run(parent, "sim", seed, p_wall, 100.0 + seed, commit="p")
        write_run(change, "sim", seed, c_wall, 100.0 + seed + (seed != 2), commit="c")
    write_run(parent, "sim", 5, 1.0, 1.0, commit="p")           # no partner
    write_run(change, "solve", 1, 1.0, 1.0, commit="c")         # no partner
    write_run(change, "sim", 1, 0.1, 1e9, commit="c", traced=1)  # traced runs are skipped
    return parent, change, tmp_path / "bench"


def run_in(out, monkeypatch, *argv):
    out.mkdir(exist_ok=True)
    monkeypatch.chdir(out)
    return bench_pairs.main([str(a) for a in argv])


def test_pairs_by_workload_and_seed(checkouts, monkeypatch):
    parent, change, out = checkouts
    assert run_in(out, monkeypatch, parent, change, "--pr", "9") == 0
    data = json.loads((out / "BENCH_9.json").read_text())
    assert data["pr"] == "9" and list(data["workloads"]) == ["sim"]
    sim = data["workloads"]["sim"]
    assert sim["seeds"] == [1, 2, 3, 4]
    assert sim["checks_failed"] == {"parent": 0, "change": 0}
    wall = sim["metrics"]["wall_ref"]
    assert wall["better"] == "lower" and wall["pairs"] == 4
    assert wall["change_better"] == 3   # seed 3 got slower
    assert wall["parent"]["median"] == 10.5 and wall["change"]["median"] == 8.5
    assert wall["parent"]["q1"] <= wall["parent"]["median"] <= wall["parent"]["q3"]
    events = sim["metrics"]["events_per_ref"]
    assert events["better"] == "higher" and events["change_better"] == 3   # seed 2 tied
    assert sim["environment"]["parent"]["git_commit"] == "p"
    assert sim["environment"]["change"]["git_commit"] == "c"
    assert sim["environment"]["change"]["nproc"] == 2


def test_refuses_to_overwrite(checkouts, monkeypatch, capsys):
    parent, change, out = checkouts
    out.mkdir()
    existing = out / "BENCH_9.json"
    existing.write_text("kept\n")
    assert run_in(out, monkeypatch, parent, change, "--pr", "9") == 2
    assert existing.read_text() == "kept\n"
    assert "never overwritten" in capsys.readouterr().err


def test_no_common_runs_is_an_error(checkouts, tmp_path, monkeypatch):
    _parent, change, out = checkouts
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_in(out, monkeypatch, empty, change, "--pr", "9") == 2
    assert not any(out.iterdir())


def test_flags_a_median_worse_beyond_its_bound(checkouts, monkeypatch, capsys):
    parent, change, out = checkouts
    # sim events_per_ref: parent median 102.5, change 78.75 after these runs,
    # 23 % worse in the higher-is-better direction
    for seed in (1, 2, 3, 4):
        write_run(change, "solve", seed, 1.0, 1.0, commit="c")
        write_run(parent, "solve", seed, 1.0, 1.0, commit="p")
    for seed, events in zip((1, 2, 3, 4), (70.0, 75.0, 82.5, 90.0)):
        write_run(change, "sim", seed, 9.0, events, commit="c")
    bounds = [dict(m, bound=0.2) for m in METRICS]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": bounds}))
    assert run_in(out, monkeypatch, parent, change, "--pr", "9") == 0
    data = json.loads((out / "BENCH_9.json").read_text())["workloads"]
    sim = data["sim"]["metrics"]
    assert sim["events_per_ref"]["change"]["median"] == 78.75
    assert sim["events_per_ref"]["worse_beyond_bound"] is True
    assert sim["wall_ref"]["worse_beyond_bound"] is False      # 9.0 against 10.5: better
    assert not any(m["worse_beyond_bound"] for m in data["solve"]["metrics"].values())
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bench_pairs: sim events_per_ref median 78.75")



# parent runs of seeds 0-9: wall 9.5, 10.0, ..., 14.0 (quartiles 10.375 and
# 13.125), events 100.0, 100.5, ..., 104.5 (quartiles 100.875 and 103.625)
PARENT_WALLS = [9.5 + 0.5 * seed for seed in range(10)]
PARENT_EVENTS = [100.0 + 0.5 * seed for seed in range(10)]


def gains(tmp_path, monkeypatch, walls, events, parent_failed=(), change_failed=()) -> dict:
    """gain_shown per metric; the seeds listed in ``*_failed`` fail one check."""
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "bench"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    for seed, (wall, event) in enumerate(zip(walls, events)):
        write_run(parent, "sim", seed, PARENT_WALLS[seed], PARENT_EVENTS[seed],
                  failed=int(seed in parent_failed), commit="p")
        write_run(change, "sim", seed, wall, event, failed=int(seed in change_failed),
                  commit="c")
    assert run_in(out, monkeypatch, parent, change, "--pr", "10") == 0
    metrics = json.loads((out / "BENCH_10.json").read_text())["workloads"]["sim"]["metrics"]
    return {name: metrics[name]["gain_shown"] for name in ("wall_ref", "events_per_ref")}


@pytest.mark.parametrize("walls, events, shown", [
    # 9 of 10 pairs better, medians apart by more than the parent's quartiles
    ([20.0] + [7.0] * 9, [130.0] * 9 + [90.0], True),
    # 8 of 10 pairs better
    ([20.0] * 2 + [7.0] * 8, [130.0] * 8 + [90.0] * 2, False),
    # every pair better, by less than the parent's interquartile range
    ([w - 0.1 for w in PARENT_WALLS], [e + 0.1 for e in PARENT_EVENTS], False),
])
def test_gain_shown_needs_nine_tenths_of_the_pairs_and_the_parents_spread(
        tmp_path, monkeypatch, walls, events, shown):
    assert gains(tmp_path, monkeypatch, walls, events) == {"wall_ref": shown,
                                                          "events_per_ref": shown}


def test_no_gain_shown_on_fewer_than_ten_pairs(tmp_path, monkeypatch):
    assert gains(tmp_path, monkeypatch, [1.0] * 9, [1e6] * 9) == {"wall_ref": False,
                                                                 "events_per_ref": False}


@pytest.mark.parametrize("parent_failed, change_failed, shown", [
    ((), (3,), False),          # the change failed a check the parent passed
    ((5,), (3,), True),         # as many failed checks on each side
    ((5, 6), (3, 4, 8), False),
])
def test_no_gain_shown_when_the_change_fails_more_checks(tmp_path, monkeypatch, capsys,
                                                          parent_failed, change_failed, shown):
    # the walls and events of the first case above, which show a gain
    walls, events = [20.0] + [7.0] * 9, [130.0] * 9 + [90.0]
    assert gains(tmp_path, monkeypatch, walls, events, parent_failed,
                 change_failed) == {"wall_ref": shown, "events_per_ref": shown}
    err = capsys.readouterr().err
    if shown:
        assert err == ""
    else:
        assert err.startswith(f"bench_pairs: sim change failed {len(change_failed)} checks "
                              f"against the parent's {len(parent_failed)}")
