"""Each ``auglqr`` line of the README's CLI block runs and prints a report."""

import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from auglqr.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_cli_lines() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.startswith("auglqr ")]


LINES = readme_cli_lines()


def test_readme_cli_block_found():
    assert len(LINES) >= 7


@pytest.mark.parametrize("line", LINES)
def test_readme_cli_line(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) >= 2
        assert len({len(row) for row in rows}) == 1
    else:
        json.loads(out)
