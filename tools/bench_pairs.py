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
the output digests and the failed-check counts; plus each tree's commit,
its size (``src_lines``: the lines of every ``.py`` file under ``src/``,
per module and in total, as ``wc -l`` counts them) and the host's nproc
and python, numpy and scipy versions as perfbench reports them. Every
python process of a tree compiles into and reads from a fresh bytecode
cache of that tree's own (PYTHONPYCACHEPREFIX), so no stale ``__pycache__``
left in a working tree enters its figures.

``--protocol N`` adds N protocol-shaped runs per tree: ``metadkit confirm
--resamples 2000`` on perfbench's trial file for the seed, with
``--format f16`` and without it (both formats pooled: two records per
question id), each at ``--workers 1`` and ``--workers nproc``. Each run is
a fresh process; it records the wall time of the whole command, the peak
RSS of its largest process (the CLI or a pool worker) and the sha256 of
its report tree. The report trees of one tree and variant must be equal
at every worker count, or the script fails.

Every run also times four layers alone, each in alternating fresh
processes per tree:

- the fit layer, since perfbench's ``sdt.*`` spans do not see the batched
  fits: each of FIT_RUNS processes fits the 1 016 tables of
  tests/data/fit_golden.csv in one ``sdt.meta_d_fit_batch`` solve, after
  a warm-up solve of a few, with one BLAS thread. The file holds the
  process time of the solve, its Newton steps and its unconverged tables.
- the loader: each of LOAD_RUNS processes loads perfbench's trial file
  for the seed and a copy of it with every line's keys sorted, which no
  block of the canonical layout parses, so the general path's cost shows
  beside the canonical one. Each file is loaded once untimed, then
  LOAD_REPEATS times timed; the file holds each process's fastest
  ``load_trials`` in process time. On a shared 2-vCPU VM whole processes
  ran up to 1.5 times slower than others on the same code, so the
  loader takes more runs than the fit layer, and the minimum, which
  such slowdowns can only raise.
- the hypothesis suite, since the fit layer solves its tables in one
  call and so cannot see how solve size matters: each of SUITE_RUNS
  processes per tree loads perfbench's trial file for the seed and runs
  ``run_hypothesis_suite`` with the default H1-H4 specs on its f16 slice
  at one worker and one BLAS thread, once untimed, then SUITE_REPEATS
  times timed at each of SUITE_RESAMPLES resamples. The file holds each
  process's fastest run in process time per resample count, and whether
  every run of both trees gave the same results.
- the resample statistics, since perfbench's ``nonparam.*`` spans do not
  see the batched statistics: for nlp_gap and for auroc2 in turn, each of
  STAT_RUNS processes per tree loads perfbench's trial file for the seed
  and runs ``bootstrap_metric`` for that one metric on its condition 1,
  f16, History cell at one worker and at nproc workers, each once
  untimed, then STAT_REPEATS times timed at STAT_RESAMPLES resamples. A
  metric never runs after the other in one process, whose earlier calls
  would have left the heap warm (glibc's raised mmap and trim thresholds
  hide the page faults of a fresh process). The file holds each
  process's fastest run: in process time at one worker, and
  in wall time at nproc (under ``workers_nproc``), so that a pooled
  call's fixed cost shows beside the one-worker figure; the minor page
  faults and system time per call of the caller and of its children
  (getrusage), which show temporaries handed back to the kernel and
  faulted in again; and whether both trees gave the same CI at both
  worker counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

METRIC = re.compile(r"^(metric|layer) (\S+) = (\S+) ")
ENV = re.compile(r"^env: nproc=(\d+) cpu=('.*?') python=(\S+) numpy=(\S+) scipy=(\S+)")


@dataclass(frozen=True)
class Tree:
    """A checkout under test, and the directory that holds the bytecode its
    processes compile: never the checkout's own __pycache__, which may be
    stale or belong to other sources."""

    root: Path
    pycache: Path

    def env(self, base=os.environ) -> dict:
        """``base`` for a process of this tree: its src on PYTHONPATH, its
        bytecode under PYTHONPYCACHEPREFIX (inherited by perfbench's own
        subprocesses). Bytecode writing is on: the prefix holds the
        bytecode of every module, numpy's and the standard library's too,
        so with PYTHONDONTWRITEBYTECODE set each process would compile
        them all again, which more than triples perfbench's ``setup_s``."""
        env = {**base, "PYTHONPATH": str(self.root / "src"),
               "PYTHONPYCACHEPREFIX": str(self.pycache)}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


def run(tree: Tree, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its metrics, layers, digest, failed checks and env."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=tree.root, env=tree.env(), capture_output=True, text=True,
                          check=False)
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
        raise SystemExit(f"perfbench failed in {tree.root} ({workload}, exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return out


PROTOCOL_RESAMPLES = 2000
PROTOCOL_VARIANTS = {"f16": ["--format", "f16"], "pooled": []}
# runs the command in argv, then prints its wall time, the peak RSS of its
# largest process in KiB and its exit code
MEASURE = ("import resource, subprocess, sys, time\n"
           "start = time.perf_counter()\n"
           "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
           "print(time.perf_counter() - start,"
           " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, code)\n")


def tree_sha256(root: Path) -> str:
    """Digest of every file under root: relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def confirm(tree: Tree, trials: Path, out: Path, variant: str, workers: int) -> dict:
    """One protocol-shaped ``metadkit confirm`` in a fresh process."""
    command = [sys.executable, "-m", "metadkit.cli", "confirm", "--trials", str(trials),
               "--resamples", str(PROTOCOL_RESAMPLES), "--workers", str(workers),
               "--out", str(out), *PROTOCOL_VARIANTS[variant]]
    proc = subprocess.run([sys.executable, "-c", MEASURE, *command], capture_output=True,
                          text=True, check=False, env=tree.env())
    wall_s, rss_kib, code = proc.stdout.split()
    if int(code) not in (0, 3):     # 3: written, with a flagged result
        raise SystemExit(f"confirm failed in {tree.root} ({variant}, workers {workers}, exit "
                         f"{code}):\n{proc.stderr[-2000:]}")
    return {"wall_s": float(wall_s), "peak_rss_mb": int(rss_kib) / 1024,
            "exit_code": int(code), "tree_sha256": tree_sha256(out)}


def write_trials(trees: dict[str, Tree], seed: int, path: Path) -> None:
    """perfbench's trial file for the seed, written by the change's gen.py."""
    subprocess.run([sys.executable, "perfbench/gen.py", "--seed", str(seed), "--out",
                    str(path)], cwd=trees["change"].root, check=True, env=trees["change"].env())


def protocol(trees: dict[str, Tree], seed: int, runs: int) -> dict:
    """``runs`` protocol-shaped confirm runs per tree, variant and worker count."""
    nproc = len(os.sched_getaffinity(0))
    worker_counts = sorted({1, nproc})
    entry: dict = {"resamples": PROTOCOL_RESAMPLES, "runs": runs, "variants": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trials = Path(tmp) / "trials.jsonl"
        write_trials(trees, seed, trials)
        for variant in PROTOCOL_VARIANTS:
            results: dict = {side: {w: [] for w in worker_counts} for side in trees}
            for i in range(runs):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    for workers in worker_counts:
                        out = Path(tmp) / f"{side}-{variant}-{workers}-{i}"
                        results[side][workers].append(
                            confirm(trees[side], trials, out, variant, workers))
                        print(f"protocol {variant} run {i + 1} {side} workers {workers}: "
                              f"wall_s {results[side][workers][-1]['wall_s']:.2f}",
                              file=sys.stderr)
            shas = {side: sorted({r["tree_sha256"] for w in worker_counts
                                  for r in results[side][w]}) for side in trees}
            for side, side_shas in shas.items():
                if len(side_shas) != 1:
                    raise SystemExit(f"{side} {variant}: report trees differ across "
                                     f"workers {worker_counts}: {side_shas}")
            entry["variants"][variant] = {
                "tree_sha256": shas, "same_tree_as_base": shas["base"] == shas["change"],
                **{f"workers_{w}": {side: {
                    "wall_s": summary([r["wall_s"] for r in results[side][w]]),
                    "peak_rss_mb": summary([r["peak_rss_mb"] for r in results[side][w]]),
                    "exit_codes": sorted({r["exit_code"] for r in results[side][w]})}
                    for side in trees} for w in worker_counts}}
    return entry


def alternating(trees: dict[str, Tree], n_runs: int, code: str, args: list[str], env: dict,
                label: str) -> dict[str, list[list[float]]]:
    """n_runs alternating fresh processes per tree, each running
    ``python -c code *args`` on the tree's src; the numbers each printed."""
    runs: dict[str, list[list[float]]] = {side: [] for side in trees}
    for i in range(n_runs):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            proc = subprocess.run([sys.executable, "-c", code, *args],
                                  capture_output=True, text=True, check=False,
                                  env=trees[side].env(env))
            if proc.returncode != 0:
                raise SystemExit(f"{label} failed in {trees[side].root}:\n{proc.stderr[-2000:]}")
            runs[side].append([float(x) for x in proc.stdout.split()])
            print(f"{label} run {i + 1} {side}: {runs[side][-1][0]:.3f} s", file=sys.stderr)
    return runs


FIT_RUNS = 10
# fits the golden tables in argv[1] in one solve after a warm-up solve of
# eight, then prints the solve's process time, its Newton steps, its
# unconverged tables and the number of tables
FIT_LAYER = ("import csv, sys, time\n"
             "import numpy as np\n"
             "from metadkit.sdt import meta_d_fit_batch, type1_batch\n"
             "with open(sys.argv[1], encoding='utf-8') as fh:\n"
             "    rows = list(csv.DictReader(fh))\n"
             "counts = np.array([[[int(r[f'{s}{b}']) for b in range(1, 9)] for s in 'ic']\n"
             "                   for r in rows], float) + 0.5\n"
             "d_prime, criterion_c = type1_batch(counts)\n"
             "meta_d_fit_batch(counts[:8], d_prime[:8], criterion_c[:8])\n"
             "start = time.process_time()\n"
             "fit = meta_d_fit_batch(counts, d_prime, criterion_c)\n"
             "print(time.process_time() - start, fit.iterations.sum(),"
             " (~fit.converged).sum(), len(counts))\n")


def fit_layer(trees: dict[str, Tree]) -> dict:
    """FIT_RUNS alternating fit-layer runs per tree on the change's golden tables."""
    golden = trees["change"].root / "tests" / "data" / "fit_golden.csv"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    runs = alternating(trees, FIT_RUNS, FIT_LAYER, [str(golden)], env, "fit layer")
    entry: dict = {"tables": int(runs["change"][0][3]), "runs": FIT_RUNS}
    for side, side_runs in runs.items():
        counts = {tuple(r[1:3]) for r in side_runs}
        if len(counts) != 1:
            raise SystemExit(f"{side}: Newton steps or unconverged tables differ "
                             f"between fit-layer runs: {sorted(counts)}")
        steps, unconverged = counts.pop()
        entry[side] = {"fit_s": summary([r[0] for r in side_runs]),
                       "newton_steps": int(steps), "unconverged": int(unconverged)}
    entry["change_lower_in_pairs"] = sum(c[0] < b[0]
                                         for b, c in zip(runs["base"], runs["change"]))
    return entry


LOAD_RUNS = 30
LOAD_REPEATS = 5
# loads each trial file in argv once untimed, then LOAD_REPEATS times timed,
# and prints the process time of its fastest timed load
LOAD_LAYER = ("import sys, time\n"
              "from metadkit.trialstore import load_trials\n"
              "for path in sys.argv[1:]:\n"
              "    load_trials(path)\n"
              "    times = []\n"
              f"    for _ in range({LOAD_REPEATS}):\n"
              "        start = time.process_time()\n"
              "        load_trials(path)\n"
              "        times.append(time.process_time() - start)\n"
              "    print(min(times))\n")


def load_layer(trees: dict[str, Tree], seed: int) -> dict:
    """LOAD_RUNS alternating loader runs per tree on perfbench's trial file
    for the seed and on its key-sorted copy."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"seed": Path(tmp) / "trials.jsonl", "sorted_keys": Path(tmp) / "sorted.jsonl"}
        write_trials(trees, seed, files["seed"])
        with open(files["seed"], encoding="utf-8") as src, \
                open(files["sorted_keys"], "w", encoding="utf-8") as dst:
            records = 0
            for line in src:
                dst.write(json.dumps(json.loads(line), sort_keys=True) + "\n")
                records += 1
        runs = alternating(trees, LOAD_RUNS, LOAD_LAYER, [str(path) for path in files.values()],
                           dict(os.environ), "load layer")
    entry: dict = {"records": records, "runs": LOAD_RUNS, "loads_per_run": LOAD_REPEATS}
    for i, name in enumerate(files):
        times = {side: [r[i] for r in side_runs] for side, side_runs in runs.items()}
        entry[name] = {**{side: {"load_s": summary(t)} for side, t in times.items()},
                       "change_lower_in_pairs": sum(c < b for b, c in zip(times["base"],
                                                                         times["change"]))}
    return entry


STAT_RUNS = 10
STAT_REPEATS = 3
STAT_RESAMPLES = 2000
STAT_METRICS = ("nlp_gap", "auroc2")
# what STAT_LAYER prints per worker count: the fastest timed run (process
# time at one worker, wall time at nproc, where team processes do part of
# the work), the CI's two bounds, and per timed run the minor page faults
# and system time of the caller and of its children, from getrusage
STAT_COLUMNS = ("time_s", "ci_low", "ci_high", "faults_caller", "faults_children",
                "sys_s_caller", "sys_s_children")
# bootstrap_metric for the metric argv[2] on condition 1's f16 History cell
# of the trial file argv[1] at one worker and at nproc, each once untimed,
# then STAT_REPEATS times timed; prints STAT_COLUMNS for each
STAT_LAYER = ("import os, resource, sys, time\n"
              "from metadkit import load_trials\n"
              "from metadkit.bootstrap import bootstrap_metric\n"
              "def usage():\n"
              "    return [(u.ru_minflt, u.ru_stime) for u in map(resource.getrusage,\n"
              "            (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))]\n"
              "trials = load_trials(sys.argv[1])\n"
              "cell = trials.filter(condition='1', format='f16', domain='History')\n"
              "metric = sys.argv[2]\n"
              "nproc = len(os.sched_getaffinity(0))\n"
              "for workers, clock in ((1, time.process_time), (nproc, time.perf_counter)):\n"
              f"    bootstrap_metric(cell, metric, n_resamples={STAT_RESAMPLES},"
              " workers=workers)\n"
              "    times = []\n"
              "    before = usage()\n"
              f"    for _ in range({STAT_REPEATS}):\n"
              "        start = clock()\n"
              f"        ci = bootstrap_metric(cell, metric, n_resamples={STAT_RESAMPLES},"
              " workers=workers)\n"
              "        times.append(clock() - start)\n"
              "    (faults, sys_s), (child_faults, child_sys_s) = (\n"
              f"        [(a - b) / {STAT_REPEATS} for a, b in zip(after, prior)]\n"
              "        for after, prior in zip(usage(), before))\n"
              "    print(min(times), repr(ci.ci_low), repr(ci.ci_high),\n"
              "          faults, child_faults, sys_s, child_sys_s)\n")


def stat_layer(trees: dict[str, Tree], seed: int) -> dict:
    """Per metric, STAT_RUNS alternating fresh processes per tree running
    that metric alone on perfbench's trial file for the seed, at one
    worker and at nproc."""
    with tempfile.TemporaryDirectory() as tmp:
        trials = Path(tmp) / "trials.jsonl"
        write_trials(trees, seed, trials)
        runs = {metric: alternating(trees, STAT_RUNS, STAT_LAYER, [str(trials), metric],
                                    dict(os.environ), f"stat layer {metric}")
                for metric in STAT_METRICS}
    entry: dict = {"cell": "condition 1, f16, History", "resamples": STAT_RESAMPLES,
                   "workers": 1, "nproc": len(os.sched_getaffinity(0)), "runs": STAT_RUNS,
                   "repeats_per_run": STAT_REPEATS}

    def figures(metric_runs: dict, start: int, name: str) -> dict:
        """The time at column ``start`` of every run, as ``name``, with its
        pairs won, and the fault and system-time columns that follow it."""
        columns = {name: start, **{c: start + STAT_COLUMNS.index(c) for c in STAT_COLUMNS[3:]}}
        return {**{side: {c: summary([r[col] for r in side_runs]) for c, col in columns.items()}
                   for side, side_runs in metric_runs.items()},
                "change_lower_in_pairs": sum(c[start] < b[start] for b, c in
                                             zip(metric_runs["base"], metric_runs["change"]))}

    width = len(STAT_COLUMNS)
    for metric, metric_runs in runs.items():
        # one worker's columns first, nproc's a width later
        cis = {tuple(r[k + 1:k + 3]) for side_runs in metric_runs.values() for r in side_runs
               for k in (0, width)}
        entry[metric] = {**figures(metric_runs, 0, "stat_s"),
                         "workers_nproc": figures(metric_runs, width, "wall_s"),
                         "same_ci": len(cis) == 1}
    return entry


SUITE_RUNS = 10
SUITE_REPEATS = 3
SUITE_RESAMPLES = (100, 2000)
# run_hypothesis_suite with the default H1-H4 specs on the f16 slice of the
# trial file argv[1] at one worker: once untimed at 2 resamples, then per
# count in SUITE_RESAMPLES SUITE_REPEATS times timed; prints per count the
# fastest run's process time and a 48-bit digest of the results' repr
SUITE_LAYER = ("import hashlib, sys, time\n"
               "from metadkit import load_trials\n"
               "from metadkit.bootstrap import default_hypothesis_specs, run_hypothesis_suite\n"
               "f16 = load_trials(sys.argv[1]).filter(format='f16')\n"
               "specs = default_hypothesis_specs()\n"
               "run_hypothesis_suite(f16, specs, n_resamples=2, workers=1)\n"
               f"for resamples in {SUITE_RESAMPLES}:\n"
               "    times = []\n"
               f"    for _ in range({SUITE_REPEATS}):\n"
               "        start = time.process_time()\n"
               "        results = run_hypothesis_suite(f16, specs, n_resamples=resamples,"
               " workers=1)\n"
               "        times.append(time.process_time() - start)\n"
               "    digest = hashlib.sha256(repr(results).encode()).digest()[:6]\n"
               "    print(min(times), int.from_bytes(digest, 'big'))\n")


def suite_layer(trees: dict[str, Tree], seed: int) -> dict:
    """SUITE_RUNS alternating fresh processes per tree timing the hypothesis
    suite alone, the fit layer at the solve sizes a suite makes, on the f16
    slice of perfbench's trial file for the seed, with one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        trials = Path(tmp) / "trials.jsonl"
        write_trials(trees, seed, trials)
        runs = alternating(trees, SUITE_RUNS, SUITE_LAYER, [str(trials)], env, "suite layer")
    entry: dict = {"slice": "f16", "specs": "H1-H4 (six contrasts)", "workers": 1,
                   "runs": SUITE_RUNS, "repeats_per_run": SUITE_REPEATS}
    for k, resamples in enumerate(SUITE_RESAMPLES):
        times = {side: [r[2 * k] for r in side_runs] for side, side_runs in runs.items()}
        digests = {r[2 * k + 1] for side_runs in runs.values() for r in side_runs}
        entry[f"resamples_{resamples}"] = {
            **{side: {"suite_s": summary(t)} for side, t in times.items()},
            "change_lower_in_pairs": sum(c < b for b, c in zip(times["base"], times["change"])),
            "same_results": len(digests) == 1}
    return entry


def describe(tree: Path) -> str:
    """The tree's commit, with "-dirty" when it has uncommitted changes."""
    return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True, check=False).stdout.strip()


def src_lines(tree: Path) -> dict:
    """The newline count of every .py file under the tree's src/, by path
    relative to it, and their total."""
    src = tree / "src"
    modules = {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
               for path in sorted(src.rglob("*.py"))}
    return {"total": sum(modules.values()), "modules": modules}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    parser.add_argument("--change", type=Path, default=Path.cwd(), help="default: cwd")
    parser.add_argument("--pairs", nargs="*", default=["diagnose=10", "confirm=3",
                                                       "rank_bootstrap=3"],
                        help="workload=number of untraced pairs")
    parser.add_argument("--traced", type=int, default=1, help="traced runs per side")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--protocol", type=int, default=0,
                        help="protocol-shaped confirm runs per tree, variant and worker count")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as pycache:
        trees = {side: Tree(root.resolve(), Path(pycache) / side)
                 for side, root in (("base", args.base), ("change", args.change))}
        result = measure(args, trees)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def measure(args: argparse.Namespace, trees: dict[str, Tree]) -> dict:
    """Every run main's arguments ask for, as the BENCH file's contents."""
    result: dict = {"seed": args.seed, "trees": {side: describe(tree.root)
                                                 for side, tree in trees.items()},
                    "src_lines": {side: src_lines(tree.root) for side, tree in trees.items()},
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
    result["fit_layer"] = fit_layer(trees)
    result["load_layer"] = load_layer(trees, args.seed)
    result["stat_layer"] = stat_layer(trees, args.seed)
    result["suite_layer"] = suite_layer(trees, args.seed)
    if args.protocol:
        result["protocol"] = protocol(trees, args.seed, args.protocol)
    return result


if __name__ == "__main__":
    sys.exit(main())
