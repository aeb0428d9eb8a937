"""Paired parent/change runs of the end-to-end benchmark, as one command.

Usage, from the root of a checkout::

    python3 benchmarks/paired.py --parent REV [--workload NAME] [--pairs 10]
                                 [--seed0 N] [--workdir DIR]

``REV`` is exported with ``git archive`` into a temporary directory
(removed afterwards; no worktree is registered, so nothing is left to
prune).  Each pair then runs ``perfbench/run.py --trace 0`` once from
that export and once from this working tree, uncommitted changes
included, at the same seed (``seed0 + pair``) and at the ``run_seconds``
of ``BENCHMARK.json``.  Which side runs first alternates from pair to
pair, so a drift of the host's speed during the session falls on both
sides alike.

For every end-to-end metric the script prints the change's wins (pairs
where it is better in the metric's direction), both medians and both
quartile distances (q3 - q1, ``statistics.quantiles`` with the inclusive
method).  A gain is shown (``gain``) when the change wins at least 9 of
every 10 pairs and its median beats the parent's by more than the
parent's quartile distance; a loss (``WORSE``) is the same test with
the sides swapped.  Any run that is not ``"correct"`` aborts the
comparison.  ``make bench-pair PARENT=<rev> WORKLOAD=<w> PAIRS=10`` is
the same command.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export_rev(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """Extract the tree of ``rev`` into ``dest`` (a fresh directory)."""
    dest.mkdir(parents=True)
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev],
                            cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return dest


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from ``root``; returns its metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect run in {root} at seed {seed}:\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: "list[float]") -> float:
    """Quartile distance q3 - q1 (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent: "list[dict]", change: "list[dict]", metrics: "list[dict]") -> "list[dict]":
    """Per-metric wins, medians, quartile distances and verdict."""
    rows = []
    pairs = len(parent)
    need = math.ceil(0.9 * pairs)
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        # gap > 0 means the change is better in this metric's direction.
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        losses = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        gap = sign * (statistics.median(p) - statistics.median(c))
        verdict = "noise"
        if wins >= need and gap > spread(p):
            verdict = "gain"
        elif losses >= need and -gap > spread(c):
            verdict = "WORSE"
        rows.append({
            "metric": name, "wins": wins, "pairs": pairs,
            "parent_median": statistics.median(p), "change_median": statistics.median(c),
            "parent_iqr": spread(p), "change_iqr": spread(c), "verdict": verdict,
        })
    return rows


def main(argv: "list[str] | None" = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="store-roundtrip",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1,
                        help="seed of the first pair; pair i runs at seed0 + i")
    parser.add_argument("--workdir", default=None,
                        help="directory for the parent export (default: the system temp dir)")
    args = parser.parse_args(argv)
    seconds = float(bench["run_seconds"])
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pair-", dir=args.workdir) as work:
        sides = {"parent": export_rev(args.parent, pathlib.Path(work) / "parent"),
                 "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first) done",
                  flush=True)

    rows = compare(runs["parent"], runs["change"], bench["end_to_end"])
    print(f"\n{args.workload}: change ({ROOT}) vs parent {args.parent}, "
          f"{args.pairs} pairs at {seconds:g} s, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}")
    print(f"  {'metric':16s} {'wins':>6s} {'parent med':>11s} {'change med':>11s} "
          f"{'parent iqr':>11s} {'change iqr':>11s}  verdict")
    for r in rows:
        print(f"  {r['metric']:16s} {r['wins']:>3d}/{r['pairs']:<2d} "
              f"{r['parent_median']:>11.4g} {r['change_median']:>11.4g} "
              f"{r['parent_iqr']:>11.4g} {r['change_iqr']:>11.4g}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
