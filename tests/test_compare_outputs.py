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
    assert len(runs) == 41 and len({tuple(r) for r in runs}) == 41
    assert ["--p", "5", "--r", "-3", "fairness", "--policy", "hrandom"] in runs
    assert ["--r", "-2", "--n", "200", "simulate", "--horizon", "1", "--warmup", "0.25"] in runs
    assert ["sweep", "--axis", "beta"] in runs and ["--p", "6", "--r", "-4", "limits"] in runs
    # the cold-start simulations run under every policy, at the base configuration only
    for policy in ("hrandom", "lisf", "fsf", "ssf", "uniform"):
        assert ["--n", "200", "simulate", "--policy", policy, "--cold-start", "--event-log",
                "--horizon", "1", "--warmup", "0.25"] in runs
    assert sum("--cold-start" in r for r in runs) == 5


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
    assert capsys.readouterr().out == "compare_outputs: 0 of 41 runs differ\n"


def test_a_different_exit_code_is_reported(tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change", exit_on_p6=True)
    assert compare_outputs.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["compare_outputs: [--p 6 --r -4 --n 200 simulate --horizon 1 --warmup 0.25] "
                   "exit code 0 -> 3", "compare_outputs: 1 of 41 runs differ"]


def test_needs_two_checkouts(capsys):
    with pytest.raises(SystemExit) as exit_info:
        compare_outputs.main(["only-one"])
    assert exit_info.value.code == 2
    assert "change" in capsys.readouterr().err
