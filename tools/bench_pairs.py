"""Paired benchmark runs: a git revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --out BENCH.json

Run it from anywhere inside the repository.  It extracts ``REV`` with
``git archive`` into a temporary directory and runs the benchmark's own
command, ``python3 perfbench/run.py``, once in that tree and once in the
working tree for each pair, alternating which of the two goes first, and
reads each run's last line: the JSON line ``{"correct", "attempted",
"failed", "metrics"}``.

For every workload and metric it prints the median and quartiles of each
side, the change of the medians, and the pairs the working tree wins, as
``BENCHMARK.json`` says which way is better; a tie counts for neither side.
A metric "resolves" when the gap between the medians exceeds the distance
between the base's quartiles.  Every run and the summary go to ``--out``.

Exit status: 0, 1 when a run reports ``correct`` false or a failed
operation, 2 for a usage error (``--pairs`` below 1), when ``REV`` cannot
be archived, or when a run exits non-zero; the runs made before that one
still go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_reports import extract, repo_root

SIDES = ("base", "head")


def spread(values: list[float]) -> dict:
    """Median and quartiles (both the median for a single value)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric, each side's spread and the head's wins.

    ``pairs`` holds one {"base": line, "head": line} per pair, each line a
    parsed run.py JSON line, whose metric keys read ``cli-mix.op_p50_ms``;
    ``better`` maps a metric name to "lower" or "higher".  A metric missing
    from a run, or with no direction, is left out; no pairs give {}.
    """
    if not pairs:
        return {}
    keys = set.intersection(*(set(p[side]["metrics"]) for p in pairs for side in SIDES))
    summary: dict[str, dict] = {}
    for key in sorted(keys):
        name, _, metric = key.partition(".")
        if metric not in better:
            continue
        sides = {side: [p[side]["metrics"][key]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if better[metric] == "lower" else -1.0
        gains = [sign * (b - h) for b, h in zip(sides["base"], sides["head"])]
        base, head = spread(sides["base"]), spread(sides["head"])
        summary.setdefault(name, {})[metric] = {
            "unit": pairs[0]["base"]["metrics"][key]["unit"],
            "better": better[metric],
            "base": base,
            "head": head,
            "change": head["median"] / base["median"] - 1.0 if base["median"] else None,
            "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains),
            "resolved": abs(head["median"] - base["median"]) > base["q3"] - base["q1"],
        }
    return summary


def report(summary: dict, pairs: int) -> list[str]:
    lines = []
    for name, metrics in summary.items():
        for metric, m in metrics.items():
            base, head = m["base"], m["head"]
            change = "" if m["change"] is None else f" {m['change']:+.1%}"
            lines.append(
                f"{name} {metric} ({m['unit']}, {m['better']} is better):"
                f" base {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}]"
                f" head {head['median']:.6g} [{head['q1']:.6g}, {head['q3']:.6g}]{change};"
                f" wins {m['wins']}/{pairs}, losses {m['losses']}/{pairs}"
                f"{'' if m['resolved'] else ', within the base spread'}"
            )
    return lines


def run_once(tree: Path) -> dict | None:
    """The last JSON line of one ``perfbench/run.py`` run in ``tree``, None if it fails."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(proc.stderr[-2000:], end="", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV", help="git revision")
    parser.add_argument("--pairs", type=int, default=10, metavar="N")
    parser.add_argument("--out", required=True, metavar="PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    root = repo_root()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs, pairs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        if not extract(root, args.base, Path(tmp)):
            return 2
        trees = {"base": Path(tmp), "head": root}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                pair[side] = run_once(trees[side])
                if pair[side] is None:
                    write_record(args.out, args.base, root, runs, summarize(pairs, better))
                    print(f"pair {i + 1} {side}: run failed; {len(runs)} earlier runs"
                          f" written to {args.out}", file=sys.stderr)
                    return 2
                runs.append({"pair": i, "side": side, "line": pair[side]})
            pairs.append(pair)
    summary = summarize(pairs, better)
    write_record(args.out, args.base, root, runs, summary)
    print("\n".join(report(summary, args.pairs)))
    bad = [r for r in runs if r["line"]["correct"] is not True or r["line"]["failed"]]
    for r in bad:
        print(f"pair {r['pair'] + 1} {r['side']}: correct {r['line']['correct']},"
              f" failed {r['line']['failed']}", file=sys.stderr)
    return 1 if bad else 0


def write_record(out: str, base: str, root: Path, runs: list[dict], summary: dict) -> None:
    """Every run made so far and the summary of the finished pairs, as JSON."""
    record = {
        "base": base,
        "base_commit": subprocess.run(["git", "-C", str(root), "rev-parse", base],
                                      capture_output=True, text=True).stdout.strip(),
        "command": ["python3", "perfbench/run.py"],
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system(), "cpus": os.cpu_count()},
        "runs": runs,
        "summary": summary,
    }
    Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
