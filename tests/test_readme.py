"""The README's examples run against the package as it is.

The fenced python block under "## Library example" is executed as written,
every ``distreg`` line of the sh block under "## CLI" is parsed by the
CLI's own parser, and both config files under "### Rate-study config" go
through ``rates --dry-run``, so a change to the API, to a flag or to the
config format that they show fails here instead of leaving the README
wrong.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from distreg.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The README text under ``heading``, hashes included, up to the next
    level-2 heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def fenced_block(heading: str, language: str) -> str:
    match = re.search(rf"```{language}\n(.*?)```", section(f"## {heading}"), re.DOTALL)
    assert match is not None, f"no {language} block under '## {heading}'"
    return match.group(1)


def cli_examples() -> list[str]:
    lines = fenced_block("CLI", "sh").splitlines()
    return [line for line in lines if line.startswith("distreg ")]


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fenced_block("Library example", "python")
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue()


@pytest.mark.parametrize("line", cli_examples(), ids=lambda line: line.split()[1])
def test_cli_example_parses(line):
    # "[--flag a|b]" is an optional part: the line must parse without it and
    # with it, taking the first of the alternatives it lists
    words = shlex.split(line)[1:]
    required = re.sub(r"\[[^]]*\]", "", " ".join(words)).split()
    optional = [word.strip("[]").split("|")[0] for word in words]
    parser = build_parser()
    for argv in (required, optional):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README line does not parse: {argv}\n{err.getvalue()}")


@pytest.mark.parametrize("index", [0, 1], ids=["preset", "spelled-out"])
def test_rates_config_runs(index, tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```\n(.*?)```", section("### Rate-study config"), re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rates.cfg").write_text(blocks[index], encoding="utf-8")
    assert main(["rates", "--config", "rates.cfg", "--dry-run"]) == 0, capsys.readouterr().err
