"""The README's examples run as written: the Python quick start, and each
``anumrad`` line of the CLI block through ``cli.main``."""

import json
import re
import shlex
from pathlib import Path

from anumrad.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading, language):
    """The first ```language block after the line ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in fenced_block("CLI", "sh").splitlines() if line.startswith("anumrad ")]


def test_quick_start_runs():
    scope = {}
    exec(fenced_block("Library quick start", "python"), scope)
    rad, reports = scope["rad"], scope["reports"]
    assert rad.lower <= rad.upper
    assert reports and all(r.holds for r in reports)


def test_cli_block_runs_in_order(tmp_path, monkeypatch, capsys):
    # The lines share files (gen writes inst.json for the others), so they
    # run in one directory, in order. radius has no --out: its JSON goes to
    # standard output.
    assert [shlex.split(line)[1] for line in CLI_LINES] == ["gen", "radius", "bounds", "range", "verify"]
    monkeypatch.chdir(tmp_path)
    for line in CLI_LINES:
        capsys.readouterr()
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
        if " --out " not in line:
            out = json.loads(capsys.readouterr().out)
            assert out["lower"] <= out["upper"]
    for name in ("inst.json", "reports.json", "cloud.csv", "suite.json"):
        assert (tmp_path / name).stat().st_size > 0
