"""Alternating base/change runs of perfbench, summarised as a BENCH_<n>.json.

Run from the repository root of the change, with a second checkout of the
base commit (``git clone`` or ``git archive`` of it):

    python3 tools/bench_pairs.py --base ../base-checkout --out BENCH_5.json \
        --pairs diagnose=10 confirm=3 rank_bootstrap=3 --traced 1

Each pair runs ``perfbench/run.py --workload W`` once in each tree, the
order alternating from pair to pair so that a slow spell of the machine
does not land on one side only. ``--traced N`` adds N ``--trace 1`` runs
per side and workload for the per-layer figures. The file holds, per
workload and side, the median and quartiles of every end-to-end metric,
the number of pairs in which the change was lower, the per-layer medians,
the output digests and the failed-check counts; plus each tree's commit
and the host's nproc and python, numpy and scipy versions as perfbench
reports them.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

METRIC = re.compile(r"^(metric|layer) (\S+) = (\S+) ")
ENV = re.compile(r"^env: nproc=(\d+) cpu=('.*?') python=(\S+) numpy=(\S+) scipy=(\S+)")


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its metrics, layers, digest, failed checks and env."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True, check=False)
    out = {"metric": {}, "layer": {}, "digest": None, "failed_checks": None, "env": None}
    for line in proc.stdout.splitlines():
        if m := METRIC.match(line):
            out[m[1]][m[2]] = float(m[3])
        elif line.startswith("output digest: "):
            out["digest"] = line.split(": ", 1)[1]
        elif m := re.match(r"^checks: \d+ passed, (\d+) failed", line):
            out["failed_checks"] = int(m[1])
        elif m := ENV.match(line):
            out["env"] = dict(zip(("nproc", "cpu", "python", "numpy", "scipy"), m.groups()))
    if proc.returncode != 0 or out["digest"] is None:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return out


def describe(tree: Path) -> str:
    """The tree's commit, with "-dirty" when it has uncommitted changes."""
    return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True, check=False).stdout.strip()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    parser.add_argument("--change", type=Path, default=Path.cwd(), help="default: cwd")
    parser.add_argument("--pairs", nargs="+", default=["diagnose=10", "confirm=3",
                                                       "rank_bootstrap=3"],
                        help="workload=number of untraced pairs")
    parser.add_argument("--traced", type=int, default=1, help="traced runs per side")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}

    result: dict = {"seed": args.seed, "trees": {side: describe(tree)
                                                 for side, tree in trees.items()},
                    "workloads": {}}
    for spec in args.pairs:
        workload, n_pairs = spec.split("=")
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(int(n_pairs)):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                runs[side].append(run(trees[side], workload, args.seed, 0))
                print(f"{workload} pair {i + 1} {side}: "
                      f"wall_s {runs[side][-1]['metric']['wall_s']:.4f}", file=sys.stderr)
        traced = {side: [run(trees[side], workload, args.seed, 1)
                         for _ in range(args.traced)] for side in trees}
        entry: dict = {"pairs": int(n_pairs), "end_to_end": {}, "per_layer": {}}
        for name in runs["base"][0]["metric"]:
            base = [r["metric"][name] for r in runs["base"]]
            change = [r["metric"][name] for r in runs["change"]]
            entry["end_to_end"][name] = {
                "base": summary(base), "change": summary(change),
                "change_lower_in_pairs": sum(c < b for b, c in zip(base, change))}
        for name in traced["base"][0]["layer"] if args.traced else ():
            entry["per_layer"][name] = {
                side: statistics.median(r["layer"][name] for r in traced[side])
                for side in trees}
        for side in trees:
            entry[f"{side}_digests"] = sorted({r["digest"] for r in runs[side] + traced[side]})
            entry[f"{side}_failed_checks"] = sum(r["failed_checks"]
                                                 for r in runs[side] + traced[side])
        result["workloads"][workload] = entry
        result["env"] = runs["change"][0]["env"]
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
