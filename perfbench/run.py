"""metadkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload confirm|rank_bootstrap|diagnose|all
        [--seed N] [--seconds S] [--trace 0|1] [--size release|tiny]

Run from the repository root. The program is used from ``src`` as it
stands, so nothing is built. Steps:

1. ``setup_s``: SETUP_SAMPLES fresh interpreters each import metadkit and
   build the CLI parser (after one untimed warm-up import); the median
   wall time of the whole process is reported.
2. A release-shaped trial file is generated from ``--seed`` (gen.py).
3. One runner process (workloads.py) warms up, runs closed-loop passes
   of the workload for ``--seconds``, then checks every output.

``--workload all`` does this for each workload in turn, printing one
result line per workload.

With ``--trace 0`` the last line of stdout is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the runner spends half the time on untraced passes and half on traced
ones, and the metrics are the per-layer metrics. The lines before it
print every metric by name with unit and sample count, the run
environment, the checks and the tracing overhead. The exit code is 1
when a correctness check fails and 2 when the program cannot be run.

All files are written under ``.perfbench_work/`` in the repository root
and removed at the end. ``--record-reference`` stores the run's outputs
in perfbench/reference.json (use it with the default seed and size).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("confirm", "rank_bootstrap", "diagnose")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
SETUP_CODE = ("import speed\nspeed.start()\nimport metadkit\nfrom metadkit.cli import build_parser\n"
              "build_parser()\nprint(*speed.factor())\n")
RUNNER_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("METADKIT_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread per process keeps workers x BLAS threads within nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict[str, str], cwd: Path) -> tuple[list[float], list[float]]:
    """Raw and reference-speed wall times of fresh import processes."""
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=cwd,
                              check=True, timeout=60, stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        if i:                       # the first import only warms caches
            raw.append(elapsed)
            scaled.append(elapsed * float(proc.stdout.split()[0]))
    return raw, scaled


def percentile_tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def report(args, setup: tuple[list[float], list[float]],
           res: dict) -> tuple[dict, bool, int, int]:
    """Print the human-readable lines; return (metrics, correct, attempted, failed)."""
    env = res["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} workers={env['workers']}")
    print(f"workload {res['workload']}: seed {args.seed}, size {args.size}, closed loop, "
          f"one caller; pass = {res['describe']}")
    raw_setup, setup_scaled = setup
    walls, raw_walls, counts = res["scaled_walls"], res["walls"], res["counts"]
    wall = statistics.median(walls)
    passes = len(walls)
    print(f"timings are seconds at reference speed (speed.py); "
          f"raw medians: setup {statistics.median(raw_setup):.4f} s, "
          f"pass {statistics.median(raw_walls):.4f} s")
    checks_failed = res["checks_failed_count"]
    attempted = (passes * (counts["resamples"] + counts["cell_fits"]) + res["checks_total"])
    failed = passes * (counts["excluded"] + counts["not_converged"]) + checks_failed

    lines = [
        ("setup_s", statistics.median(setup_scaled), "s",
         f"median of {len(setup_scaled)} fresh processes"),
        ("wall_s", wall, "s", f"median of {passes} passes"),
    ]
    if counts["resamples"]:
        lines.append(("resamples_per_s", counts["resamples"] * passes / sum(walls), "1/s",
                      f"{counts['resamples']} resamples per pass, {passes} passes"))
    if res["workload"] == "diagnose":
        lines.append(("pass_p50_s", wall, "s", f"median of {passes} passes"))
    lines.append(("peak_rss_mb", res["rss_mb"]["total"], "MB",
                  f"runner {res['rss_mb']['runner']:.1f} + largest pool worker "
                  f"{res['rss_mb']['largest_worker']:.1f}"))
    lines.append(("failed_frac", failed / attempted, "ratio",
                  f"{failed} failed of {attempted} attempted: "
                  f"{passes * counts['resamples']} resamples, "
                  f"{passes * counts['cell_fits']} cell fits, {res['checks_total']} checks"))
    for name, value, unit, note in lines:
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    if res["workload"] == "diagnose":
        tail = percentile_tail(walls)
        if tail:
            print(f"metric pass_tail_s = {tail[1]:.6g} s (p{tail[0]} of {passes} passes)")
        else:
            print(f"metric pass_tail_s unavailable: {passes} passes, a tail needs at "
                  f"least 11 (raise --seconds)")

    print(f"checks: {res['checks_total'] - checks_failed} passed, {checks_failed} failed")
    for name, _, detail in res["checks_failed"]:
        print(f"  FAILED {name}: {detail}")
    print(f"reference: {res['reference']}")
    print(f"output digest: {res['digest']}")
    for label, sha in sorted(res["tree_sha256"].items()):
        print(f"report tree sha256 {label}: {sha}")

    if args.trace:
        traced = statistics.median(res["traced_scaled_walls"])
        print(f"tracing overhead: traced wall_s {traced:.4f} - untraced wall_s {wall:.4f} "
              f"= {traced - wall:+.4f} s over {len(res['traced_walls'])} traced and "
              f"{passes} untraced passes")
        print(f"pool worker spans collected: {res['worker_spans']}"
              + ("" if res["worker_spans"] or res["workload"] != "rank_bootstrap"
                 else " (missing: workers recorded no spans)"))
        layer = res["layer"]
        share = layer["sdt.fit_s"] / traced
        print(f"layer separation: sdt.fit_s / traced wall_s = {share:.3f}; "
              f"sdt.fits = {layer['sdt.fits']:g}; "
              f"sdt.fits_high_cprime = {layer['sdt.fits_high_cprime']:g}")
        units = PER_LAYER_UNITS
        for name, value in layer.items():
            print(f"layer {name} = {value:.6g} {units[name]} (mean of "
                  f"{len(res['traced_walls'])} traced passes)")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in lines if name in dict(END_TO_END)}
    return metrics, checks_failed == 0, attempted, failed


def run_workload(args, workload: str, root: Path, env: dict[str, str]) -> int:
    """Set up, run and report one workload; returns the exit code."""
    work = root / ".perfbench_work" / f"{workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = measure_setup(env, root)
        trials = work / "trials.jsonl"
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--seed", str(args.seed),
                        "--out", str(trials), "--size", args.size],
                       env=env, cwd=root, check=True, timeout=120)
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--trials", str(trials), "--work", str(work), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--seed", str(args.seed), "--size", args.size]
        if args.record_reference:
            cmd.append("--record")
        with open(work / "runner.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                                  stderr=log, text=True, timeout=RUNNER_TIMEOUT_S)
        if proc.returncode != 0:
            tail = (work / "runner.log").read_text(encoding="utf-8")[-4000:]
            print(f"perfbench: runner failed with exit code {proc.returncode}\n{tail}",
                  file=sys.stderr)
            return 2
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics, correct, attempted, failed = report(args, setup, res)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("release", "tiny"), default="release")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "metadkit" / "__init__.py").is_file():
        print(f"perfbench: no src/metadkit under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name, root, env) for name in names)


if __name__ == "__main__":
    sys.exit(main())
