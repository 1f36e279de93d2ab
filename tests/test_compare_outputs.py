import importlib.util
import os
import textwrap

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_outputs.py")
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

# A stand-in package: writes its arguments to out/sub/args.csv, prints a rate and
# exits 3 if it was asked to simulate at p = 6
FAKE_MAIN = textwrap.dedent("""\
    import os, sys, time
    args = sys.argv[1:]
    os.makedirs(os.path.join(args[1], "sub"))
    with open(os.path.join(args[1], "sub", "args.csv"), "w") as fh:
        fh.write(" ".join(args[2:]) + "\\n")
    print("ran", *args[2:], f"events_per_s={time.perf_counter_ns()}")
    raise SystemExit(3 if {EXIT} and "6" in args and "simulate" in args else 0)
""")


def fake_checkout(root, exit_on_p6=False):
    package = root / "src" / "rategame"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(FAKE_MAIN.replace("{EXIT}", str(exit_on_p6)))
    return root


def result(exit=0, stdout="", stderr="", **files):
    return {"exit": exit, "stdout": stdout, "stderr": stderr,
            "files": {name: data.encode() for name, data in files.items()}}


def test_every_command_runs_at_every_configuration():
    runs = compare_outputs.runs()
    assert len(runs) == 59 and len({tuple(r) for r in runs}) == 59
    assert ["--p", "5", "--r", "-3", "fairness", "--policy", "hrandom"] in runs
    assert ["--r", "-2", "--n", "200", "simulate", "--horizon", "1", "--warmup", "0.25"] in runs
    assert ["sweep", "--axis", "beta"] in runs and ["--p", "6", "--r", "-4", "limits"] in runs
    # README's staffing example: every command staffs at the configured alpha
    assert ["--alpha", "0.7", "equilibrium"] in runs
    # the cold-start simulations run under every policy, at the base configuration
    # only, with a patience rate at which queued customers abandon in the horizon
    for policy in ("hrandom", "lisf", "fsf", "ssf", "uniform"):
        assert ["--n", "200", "--gamma", "200", "simulate", "--policy", policy, "--cold-start",
                "--event-log", "--horizon", "1", "--warmup", "0.25"] in runs
    assert sum("--cold-start" in r for r in runs) == 5
    # the special policies' fairness laws and validate's replications, at the base configuration
    for policy in ("lisf", "fsf", "ssf", "uniform"):
        assert ["fairness", "--policy", policy] in runs
    # at two workers, so that its progress lines are compared in task order too
    assert [r for r in runs if "validate" in r] == [
        ["validate", "--n-list", "20,40", "--replications", "2", "--horizon", "1",
         "--warmup", "0.25", "--bins", "4", "--workers", "2"]]
    # limits with gamma dt = 50, past the Euler step's bound
    assert ["--gamma", "1000", "limits"] in runs


def test_strips_only_the_event_rate():
    line = "simulate: policy=hrandom replication=0 events=3110 events_per_s=212345\n"
    assert compare_outputs.strip_rates(line) == \
        "simulate: policy=hrandom replication=0 events=3110\n"
    assert compare_outputs.strip_rates("events=1\nok\n") == "events=1\nok\n"


def test_collects_files_by_relative_path(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_bytes(b"1,2\n")
    (tmp_path / "y.csv").write_bytes(b"")
    assert compare_outputs.collect(str(tmp_path)) == {os.path.join("a", "x.csv"): b"1,2\n",
                                                      "y.csv": b""}


def test_names_every_differing_file_stream_and_exit_code():
    same = result(stdout="s", a="1", b="2")
    assert compare_outputs.differences(same, result(stdout="s", a="1", b="2")) == []
    changed = result(exit=3, stderr="solver failure", a="1", b="3", c="4")
    assert compare_outputs.differences(result(stdout="s", a="1", b="2", d="5"), changed) == \
        ["exit code 0 -> 3", "stdout", "stderr", "b", "c (change only)", "d (parent only)"]


def test_two_equal_checkouts_show_no_difference(tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change")
    assert compare_outputs.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out == "compare_outputs: 0 of 59 runs differ\n"


def test_a_different_exit_code_is_reported(tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change", exit_on_p6=True)
    assert compare_outputs.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["compare_outputs: [--p 6 --r -4 --n 200 simulate --horizon 1 --warmup 0.25] "
                   "exit code 0 -> 3", "compare_outputs: 1 of 59 runs differ"]


def test_needs_two_checkouts(capsys):
    with pytest.raises(SystemExit) as exit_info:
        compare_outputs.main(["only-one"])
    assert exit_info.value.code == 2
    assert "change" in capsys.readouterr().err


def output_tree(root, report, events):
    """A hand-made output tree: a report table and an event log."""
    (root / "sub").mkdir(parents=True)
    (root / "report.csv").write_text(report)
    (root / "sub" / "events.csv").write_text(events)
    return compare_outputs.collect(str(root))


REPORT = "# provenance: config=abc\nL_star,mu_bar,flag,first_order_monotone\n{},0.19,,True\n"
EVENTS = "# provenance: config=abc\ntime,kind,server\n0.5,arrival,3\n{},{},4\n"


def test_numbers_that_moved_are_measured_per_column(tmp_path):
    parent = output_tree(tmp_path / "parent", REPORT.format("0.25"),
                         EVENTS.format("1.0", "departure"))
    change = output_tree(tmp_path / "change", REPORT.format("0.2500000000000001"),
                         EVENTS.format("1.0000000000000002", "departure"))
    assert compare_outputs.numeric_moves(parent["report.csv"], change["report.csv"]) == \
        [("L_star", pytest.approx(1e-16 / 0.25, rel=0.2))]
    found = compare_outputs.differences(result() | {"files": parent}, result() | {"files": change})
    assert found == ["report.csv numbers only: L_star 4.4e-16",
                     os.path.join("sub", "events.csv") + " numbers only: time 2.2e-16"]


def test_a_text_cell_or_a_shape_that_differs_is_only_named(tmp_path):
    parent = output_tree(tmp_path / "parent", REPORT.format("0.25"),
                         EVENTS.format("1.0", "departure"))
    change = output_tree(tmp_path / "change", REPORT.format("0.26") + "0.3,0.2,,False\n",
                         EVENTS.format("1.5", "abandonment"))
    events = os.path.join("sub", "events.csv")
    assert compare_outputs.numeric_moves(parent[events], change[events]) is None
    assert compare_outputs.numeric_moves(parent["report.csv"], change["report.csv"]) is None
    found = compare_outputs.differences(result() | {"files": parent}, result() | {"files": change})
    assert found == ["report.csv", events]
