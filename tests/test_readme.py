"""README's examples run as written: the library example prints the golden
equilibrium, and every CLI example parses."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from rategame.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def test_library_example_prints_the_golden_equilibrium():
    [code] = [body for lang, body in _BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    L_star, mu_bar, N = out.getvalue().splitlines()[0].split()
    assert f"{float(L_star):.11f}" == "0.24552331577"
    assert f"{float(mu_bar):.11f}" == "0.19007201643"
    assert N == "684"


_CLI_EXAMPLES = [shlex.split(line)[1:]
                 for lang, body in _BLOCKS if not lang
                 for line in body.splitlines()
                 if line.startswith("rategame ") and "[" not in line]


def test_readme_has_cli_examples():
    assert len(_CLI_EXAMPLES) >= 7


@pytest.mark.parametrize("argv", _CLI_EXAMPLES, ids=" ".join)
def test_cli_example_parses(argv):
    args = _build_parser().parse_args(argv)
    assert args.command in argv
    assert args.config is None or (ROOT / args.config).is_file()
