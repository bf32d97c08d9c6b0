"""Compare the CLI reports of the working tree with those of a git revision.

    python3 tools/compare_reports.py --base HEAD

Run it from anywhere inside the repository.  It extracts ``REV`` with
``git archive`` into a temporary directory, writes the seed-0 models of
every ``perfbench/gen.py`` workload next to the files in ``models/``, and
runs one fixed argv matrix through in-process ``auglqr.cli.main``, once
under each tree's ``src/``, the two trees in parallel processes:

- every model, the seven subcommands, JSON and CSV, with and without
  ``--force``;
- ``simulate``, ``simulate --noise-seed 0`` and ``irf`` with ``--force``,
  JSON and CSV, at horizons 1, 500 and 10,000, and at 1,076-1,078 and
  3,333-3,335, where the golden and back paths reach their fixed points;
- ``oracle-compare`` with ``--force``, JSON and CSV, at horizons 1 and 3,
  where a slip in the order of the P_y and P_z updates shows before the
  recursion settles (the plain runs above cover its default, 500).

It prints every argv whose exit status, stdout or stderr differs between
the trees and exits 1 if there is one, 0 if there is none, and 2 if REV
cannot be archived or a run fails.  The first 20 argvs whose stdout differs
are run again under both trees with their whole stdout kept, and the first
stdout line that differs is printed for each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("cli-mix", "solve-ladder", "riccati-hard", "simulate-long")
COMMANDS = ("validate", "check", "solve", "simulate", "irf", "var", "oracle-compare")
PATH_HORIZONS = (1, 500, 10_000, 1_076, 1_077, 1_078, 3_333, 3_334, 3_335)
#: argv prefix -> the horizons it runs at, each with --force
HORIZON_RUNS = {
    ("simulate",): PATH_HORIZONS,
    ("simulate", "--noise-seed", "0"): PATH_HORIZONS,
    ("irf",): PATH_HORIZONS,
    ("oracle-compare",): (1, 3),
}
FORMATS = ("json", "csv")
#: argvs with a differing stdout that are run again to show the first differing line
SHOWN = 20


def gather_models(root: Path, out: Path) -> list[Path]:
    """``models/*.json`` and the seed-0 workload models, one file per content."""
    for workload in WORKLOADS:
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "gen.py"), "--workload", workload,
             "--seed", "0", "--out", str(out / workload),
             "--fixtures", str(root / "models")],
            check=True, stdout=subprocess.DEVNULL,
        )
    seen: dict[bytes, Path] = {}
    for path in sorted((root / "models").glob("*.json")) + sorted(out.glob("*/*.json")):
        seen.setdefault(hashlib.sha256(path.read_bytes()).digest(), path)
    return list(seen.values())


def argv_matrix(models: list[Path]) -> list[list[str]]:
    matrix = []
    for model in models:
        for command in COMMANDS:
            for fmt in FORMATS:
                for force in ((), ("--force",)):
                    matrix.append([command, "--model", str(model), "--format", fmt, *force])
        for command, horizons in HORIZON_RUNS.items():
            for horizon in horizons:
                for fmt in FORMATS:
                    matrix.append([*command, "--model", str(model), "--format", fmt,
                                   "--horizon", str(horizon), "--force"])
    return matrix


def run_matrix(src: str, matrix_file: str, out_file: str, digest: bool) -> None:
    """Run every argv of ``matrix_file`` through ``cli.main`` from ``src``.

    Writes one [exit status, stdout, stderr] entry per argv, the stdout as
    its sha256 when ``digest`` is set.
    """
    from auglqr import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"auglqr imported from {cli.__file__}, not from {src}")
    results = []
    for argv in json.loads(Path(matrix_file).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        stdout = out.getvalue()
        if digest:
            stdout = hashlib.sha256(stdout.encode()).hexdigest()
        results.append([code, stdout, err.getvalue()])
    Path(out_file).write_text(json.dumps(results), encoding="utf-8")


def start_run(src: Path, matrix_file: Path, out_file: Path, digest: bool) -> subprocess.Popen:
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
        f"import compare_reports; "
        f"compare_reports.run_matrix({str(src)!r}, {str(matrix_file)!r}, {str(out_file)!r},"
        f" {digest!r})"
    )
    return subprocess.Popen([sys.executable, "-c", code], cwd=src.parent)


def run_trees(trees: dict[str, Path], matrix: list, work: Path, digest: bool) -> list | None:
    """Each tree's results for ``matrix``, the trees in parallel; None if a run fails."""
    tag = "digest" if digest else "stdout"
    matrix_file = work / f"{tag}-matrix.json"
    matrix_file.write_text(json.dumps(matrix), encoding="utf-8")
    runs = {name: start_run(src, matrix_file, work / f"{tag}-{name}.json", digest)
            for name, src in trees.items()}
    if any([run.wait() != 0 for run in runs.values()]):  # wait for both
        return None
    return [json.loads((work / f"{tag}-{name}.json").read_text(encoding="utf-8"))
            for name in trees]


def first_difference(old: str, new: str) -> tuple[int, str | None, str | None] | None:
    """The first line number (from 1) at which two outputs differ, and its two
    lines, None for a missing one; None when the outputs agree."""
    pairs = itertools.zip_longest(old.splitlines(), new.splitlines())
    return next(((number, a, b) for number, (a, b) in enumerate(pairs, 1) if a != b), None)


def repo_root() -> Path:
    """The top directory of the repository around the current directory."""
    return Path(
        subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                       capture_output=True, text=True).stdout.strip()
    )


def extract(root: Path, rev: str, dest: Path) -> bool:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``.

    Returns False, with git's message on stderr, when ``rev`` cannot be archived.
    """
    archive = subprocess.run(["git", "-C", str(root), "archive", rev], capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV", help="git revision")
    args = parser.parse_args(argv)
    root = repo_root()
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        work = Path(tmp)
        if not extract(root, args.base, work / "base"):
            return 2
        matrix = argv_matrix(gather_models(root, work / "models"))
        trees = {"base": work / "base" / "src", "head": root / "src"}
        digests = run_trees(trees, matrix, work, digest=True)
        if digests is None:
            print("a run failed", file=sys.stderr)
            return 2
        rerun = [argv for argv, old, new in zip(matrix, *digests) if old[1] != new[1]]
        stdouts = run_trees(trees, rerun[:SHOWN], work, digest=False) if rerun else [[], []]
        if stdouts is None:
            print("a run failed", file=sys.stderr)
            return 2
    shown = {tuple(argv): first_difference(old[1], new[1])
             for argv, old, new in zip(rerun, *stdouts)}

    differing = 0
    for argv, old, new in zip(matrix, *digests):
        parts = [part for part, a, b in zip(("exit", "stdout", "stderr"), old, new) if a != b]
        if parts:
            differing += 1
            print(f"{' '.join(argv)}: {', '.join(parts)} differ")
            if "exit" in parts:
                print(f"  exit {old[0]} -> {new[0]}")
            if shown.get(tuple(argv)):
                number, line_old, line_new = shown[tuple(argv)]
                print(f"  stdout line {number}: {line_old!r} -> {line_new!r}")
            if "stderr" in parts:
                print(f"  stderr {old[2]!r} -> {new[2]!r}")
    print(f"{differing} of {len(matrix)} argvs differ between {args.base} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
