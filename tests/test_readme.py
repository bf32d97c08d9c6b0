"""The README's examples run: each ``auglqr`` line of its CLI block prints a
report, its Library block executes as written, and the numbers it quotes
are the ones the CLI prints."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from auglqr.cli import main

from _support import GOLDEN_LOSS

ROOT = Path(__file__).resolve().parent.parent


def readme_block(section: str, fence: str) -> str:
    """The first ``fence`` code block under the README's ``## section`` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section_text = text.split(f"\n## {section}\n", 1)[1]
    return section_text.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def readme_cli_lines() -> list[str]:
    block = readme_block("CLI", "sh")
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


def test_readme_library_block(monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(readme_block("Library", "python"), namespace)
    assert namespace["traj"].horizon == 200
    assert namespace["response"].horizon == 40
    assert namespace["rep"].T_var.shape == (2, 2)


def test_readme_golden_loss_and_tail(capsys, monkeypatch):
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = re.search(
        r"on `golden` at horizon 1 the report prints `loss` (\S+) and"
        r" `truncation_bound` (\S+), which sum to (\S+)\.",
        text,
    )
    assert quoted is not None
    loss, tail, total = quoted.groups()
    monkeypatch.chdir(ROOT)
    assert main(["simulate", "--model", "models/golden.json", "--horizon", "1"]) == 0
    report = capsys.readouterr().out
    assert f'"loss": {loss},' in report
    assert f'"truncation_bound": {tail}' in report
    assert total == f"{GOLDEN_LOSS:.12g}"
    assert float(loss) + float(tail) == pytest.approx(float(total), abs=1e-12)
