"""Compare two checkouts on one perfbench workload, in alternated pairs.

    python scripts/bench_pairs.py BASE CHANGE --workload structured_600 [--seed 1000]

BASE and CHANGE are the roots of two checkouts, for example a `git clone`
or `git worktree` of the parent commit and the working tree.  Each of ten
pairs runs `perfbench/run.py --seconds 20 --trace 0` once in each checkout,
from its root and with its own perfbench, on the same seed; the seed is
fresh for every pair (`--seed`, then one more per pair), and the side that
runs first alternates, BASE first in the first pair.  Runs in a pair follow each other directly,
so drift on a shared machine between runs far apart in time falls on both
sides alike.

For each end-to-end metric that CHANGE's BENCHMARK.json declares, the
script prints each side's median and quartiles, the change of the median,
the number of pairs the change won (a tie counts for neither side), and
whether a gain could be claimed: the change wins at least nine pairs in
ten and the medians differ by more than the distance between BASE's
quartiles.  A run that reports `correct: false` is printed and fails the
script (exit 1).  It never edits perfbench, which keeps every run's full
record in `<checkout>/.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # a gain is claimable only on at least ten alternated pairs
SECONDS = 20  # perfbench's run length


def run(root: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced perfbench run in the checkout at `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: perfbench failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    def num(x):
        return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"

    def cell(q):  # q1, median, q3
        return f"{num(q[1])} [{num(q[0])}, {num(q[2])}]"

    lines = [f"{'metric':<18} {'base median [q1, q3]':>28} {'change median [q1, q3]':>28} "
             f"{'change':>8} {'wins':>6}  claimable"]
    for m in metrics:
        name = m["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        bq, cq = (statistics.quantiles(v, n=4, method="inclusive") for v in (base, change))
        claimable = wins >= 0.9 * len(pairs) and sign * (bq[1] - cq[1]) > bq[2] - bq[0]
        lines.append(f"{name + ' (' + m['unit'] + ')':<18} {cell(bq):>28} {cell(cq):>28} "
                     f"{(cq[1] - bq[1]) / bq[1]:>+8.1%} {wins:>3}/{len(pairs):<2}  "
                     + ("yes" if claimable else "no"))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1000)
    args = p.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs, bad = [], 0
    for k in range(PAIRS):
        seed = args.seed + k
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        result = {side: run(getattr(args, side), args.workload, seed)
                  for side in order}
        for side in order:
            r = result[side]
            bad += not r["correct"]
            print(f"pair {k + 1} seed {seed} {side}: wall_s "
                  f"{r['metrics']['wall_s']['value']:.4f} correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
        pairs.append((result["base"], result["change"]))
    print("\n".join(report(metrics, pairs)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
