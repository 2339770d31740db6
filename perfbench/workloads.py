"""The benchmark's workloads, run in one process that imports metadkit once.

Every workload is a closed loop with one caller: a pass is issued only
after the previous one returned, and passes repeat until the next one
would end past the time budget (at least one pass always runs).

- ``confirm``: ``metadkit confirm --format f16 --workers 1`` at protocol
  defaults with the resample count cut to CONFIRM_RESAMPLES. Meta-d'
  fits dominate.
- ``rank_bootstrap``: the library on the f16 slice. H1-H4 (six contrasts)
  with ``metric`` auroc2 and nlp_gap, plus ``bootstrap_metric`` CIs of both
  metrics in every domain of condition 1, with ``workers = nproc``. No
  meta-d' fit runs; id draws, gathers, ranks and the pool do the work.
- ``diagnose``: ``metadkit diagnose``, ``metadkit diagnose --binning-scope
  global`` and ``metadkit compare-formats --condition 1 --format-a q5_k_m
  --format-b f16``; each command loads the file.

Outputs are checked after the timed passes against independent
recomputations (checks.py) and, on the default seed at release size,
against perfbench/reference.json.

Run by run.py as ``python3 perfbench/workloads.py --workload NAME --trials
FILE --work DIR --seconds S --trace 0|1 --seed N --size release|tiny``
with ``src`` and ``perfbench`` on PYTHONPATH; prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import checks
import spans
import speed

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CONFIRM_RESAMPLES = {"release": 100, "tiny": 3}
RANK_RESAMPLES = {"release": 2000, "tiny": 8}
# (hypothesis, condition_a, condition_b, domains) of the default suite
SUITE = (("H1", "2", "1", ("Science",)), ("H2", "2", "1", ("History", "Arts", "Geography")),
         ("H3", "2", "3", ("Science",)), ("H4", "2", "4", ("Science",)))
RANK_METRICS = ("auroc2", "nlp_gap")
CI_CONDITION = "1"
_EXCLUDED_NOTE = re.compile(r"^- (\S+?)/(\S+): (\d+)/(\d+) resamples had an undefined statistic")
_NOT_CONVERGED_NOTE = re.compile(r"^- \((\S+), (\S+), (\S+)\): sensitivity fit did not converge")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _notes(out_dir: Path) -> list[str]:
    return (out_dir / "notes.md").read_text(encoding="utf-8").splitlines()


class Workload:
    """One pass = ``run_pass``; outputs stay on disk or on the object."""

    name = ""

    def __init__(self, trials_path: Path, work: Path, size: str):
        self.trials_path = trials_path
        self.work = work
        self.size = size
        self.digests: list[str] = []

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        """Digest of the last pass's outputs (taken outside the timed pass)."""
        raise NotImplementedError

    def observe(self) -> dict:
        """Flat {key: value} of the last pass's outputs, for the reference."""
        raise NotImplementedError

    def counts(self, observed: dict) -> dict[str, int]:
        """Per-pass resamples, cell fits, excluded resamples, non-converged fits."""
        raise NotImplementedError

    def check(self, c: checks.Checks, trials: dict, observed: dict) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class CliWorkload(Workload):
    """Passes made of ``metadkit.cli.main`` calls, one report tree each."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pass_exit_codes: list[list[int]] = []

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def run_pass(self) -> None:
        from metadkit import cli

        exit_codes = []
        for label, argv in self.commands():
            with contextlib.redirect_stdout(io.StringIO()):
                exit_codes.append(cli.main(argv + ["--out", str(self.work / label)]))
        self.pass_exit_codes.append(exit_codes)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.tree_digests().values()).encode()).hexdigest()

    def tree_digests(self) -> dict[str, str]:
        return {label: checks.tree_sha256(self.work / label) for label, _ in self.commands()}

    def check_exit_codes(self, c: checks.Checks) -> None:
        codes = [rc for per_pass in self.pass_exit_codes for rc in per_pass]
        c.add(f"{self.name}/exit_codes", all(rc == 0 for rc in codes), f"{codes[:12]}")


class Confirm(CliWorkload):
    name = "confirm"

    def __init__(self, *args):
        super().__init__(*args)
        self.resamples = CONFIRM_RESAMPLES[self.size]

    def _argv(self, resamples: int) -> list[str]:
        return ["confirm", "--trials", str(self.trials_path), "--format", "f16",
                "--workers", "1", "--resamples", str(resamples), "--full-precision"]

    def commands(self):
        return [("confirm", self._argv(self.resamples))]

    def describe(self) -> str:
        return f"metadkit confirm --format f16 --workers 1 --resamples {self.resamples}"

    def warmup(self) -> None:
        from metadkit import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self._argv(2) + ["--out", str(self.work / "warmup")])

    def observe(self) -> dict:
        out = self.work / "confirm"
        observed: dict = {}
        for row in _read_csv(out / "contrasts.csv"):
            key = f"{row['Hypothesis']}/{row['Domain']}"
            observed[f"{key}/contrast"] = row["Contrast"]
            observed[f"{key}/delta"] = float(row["Delta"])
            observed[f"{key}/ci_low"] = float(row["CI low"])
            observed[f"{key}/ci_high"] = float(row["CI high"])
            observed[f"{key}/ci_level"] = float(row["CI level"])
            observed[f"{key}/decision"] = row["Result"]
            observed[f"{key}/excluded"] = 0
        for line in _notes(out):
            m = _EXCLUDED_NOTE.match(line)
            if m:
                observed[f"{m.group(1)}/{m.group(2)}/excluded"] = int(m.group(3))
        return observed

    def counts(self, observed):
        units = [k for k in observed if k.endswith("/decision")]
        excluded = sum(v for k, v in observed.items() if k.endswith("/excluded"))
        return {"resamples": self.resamples * len(units), "cell_fits": 0,
                "excluded": excluded, "not_converged": 0}

    def check(self, c, trials, observed):
        self.check_exit_codes(c)
        fits = CellFits(trials)
        expected = {(h, d) for h, _, _, domains in SUITE for d in domains}
        got = {tuple(k.split("/")[:2]) for k in observed if k.endswith("/decision")}
        c.add("confirm/contrast_set", got == expected, f"{sorted(got)}")
        for h, cond_a, cond_b, domains in SUITE:
            for domain in domains:
                key = f"{h}/{domain}"
                if f"{key}/decision" not in observed:
                    continue
                check_ci(c, key, h, observed)
                fit_a = fits.fit(cond_a, "f16", domain)
                fit_b = fits.fit(cond_b, "f16", domain)
                c.close(f"{key}/delta", observed[f"{key}/delta"],
                        fit_a["meta_d"] - fit_b["meta_d"], checks.RECOUNT_TOL)
        fits.check_all(c, "confirm")


class Diagnose(CliWorkload):
    name = "diagnose"

    def commands(self):
        trials = ["--trials", str(self.trials_path), "--full-precision"]
        return [
            ("per_cell", ["diagnose"] + trials),
            ("global", ["diagnose", "--binning-scope", "global"] + trials),
            ("compare", ["compare-formats", "--condition", CI_CONDITION,
                         "--format-a", "q5_k_m", "--format-b", "f16"] + trials),
        ]

    def describe(self) -> str:
        return ("metadkit diagnose; metadkit diagnose --binning-scope global; "
                "metadkit compare-formats --condition 1 --format-a q5_k_m --format-b f16")

    def warmup(self) -> None:
        from metadkit import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["validate", "--trials", str(self.trials_path)])

    def observe(self) -> dict:
        observed: dict = {}
        for label, _ in self.commands():
            out = self.work / label
            for row in _read_csv(out / "metrics_full.csv"):
                key = f"{label}/{row['Cond']}/{row['Format']}/{row['Domain']}"
                observed[f"{key}/n"] = int(row["N"])
                for field, column in (("accuracy", "Acc"), ("d_prime", "d'"),
                                      ("meta_d", "meta-d'"), ("m_ratio", "M-ratio"),
                                      ("nlp_gap", "NLP gap")):
                    observed[f"{key}/{field}"] = float(row[column])
            for row in _read_csv(out / "auroc2_by_format.csv"):
                key = f"{label}/{row['Cond']}/{row['Format']}/{row['Domain']}"
                observed[f"{key}/auroc2"] = float(row["AUROC2"])
                observed[f"{key}/rank_auroc2"] = int(row["Rank"])
            for row in _read_csv(out / "sensitivity_by_format.csv"):
                key = f"{label}/{row['Cond']}/{row['Format']}/{row['Domain']}"
                observed[f"{key}/rank_m_ratio"] = int(row["Rank"])
            observed[f"{label}/not_converged"] = sum(
                bool(_NOT_CONVERGED_NOTE.match(line)) for line in _notes(out))
            if label == "compare":
                for row in _read_csv(out / "format_comparison.csv"):
                    name, value = list(row.values())
                    observed[f"compare/{name}"] = (float(value) if name.startswith("rho_")
                                                   else value)
        return observed

    def counts(self, observed):
        return {"resamples": 0,
                "cell_fits": sum(1 for k in observed if k.endswith("/meta_d")),
                "excluded": 0,
                "not_converged": sum(v for k, v in observed.items()
                                     if k.endswith("/not_converged"))}

    def check(self, c, trials, observed):
        self.check_exit_codes(c)
        fits = {"per_cell": CellFits(trials), "global": CellFits(trials, global_bins=True)}
        fits["compare"] = fits["per_cell"]
        conditions = sorted(set(trials["condition"].tolist()))
        formats = sorted(set(trials["format"].tolist()))
        domains = sorted(set(trials["domain"].tolist()))
        for label, _ in self.commands():
            cells = [(cond, fmt) for cond in conditions for fmt in formats
                     if label != "compare" or cond == CI_CONDITION]
            expected = {f"{label}/{cond}/{fmt}/{d}" for cond, fmt in cells for d in domains}
            got = {k.rsplit("/", 1)[0] for k in observed
                   if k.startswith(f"{label}/") and k.endswith("/meta_d")}
            c.add(f"{label}/cell_set", got == expected, f"{len(got)} of {len(expected)}")
            for cond, fmt in cells:
                for d in domains:
                    key = f"{label}/{cond}/{fmt}/{d}"
                    if f"{key}/meta_d" in observed:
                        check_profile(c, key, observed, trials, fits[label], cond, fmt, d)
                for metric in ("m_ratio", "auroc2"):
                    check_ranks(c, f"{label}/{cond}/{fmt}", metric, observed, domains)
        fits["per_cell"].check_all(c, "per_cell")
        fits["global"].check_all(c, "global")
        for metric in ("m_ratio", "auroc2"):
            values = [[observed[f"compare/{CI_CONDITION}/{fmt}/{d}/{metric}"] for d in domains]
                      for fmt in ("q5_k_m", "f16")]
            c.close(f"compare/rho_{metric}", observed.get(f"compare/rho_{metric}", float("nan")),
                    checks.spearman(*values), checks.RECOUNT_TOL)
            for d in domains:
                moved = (f"{observed[f'compare/{CI_CONDITION}/q5_k_m/{d}/rank_{metric}']} -> "
                         f"{observed[f'compare/{CI_CONDITION}/f16/{d}/rank_{metric}']}")
                got = observed.get(f"compare/rank_{metric}:{d}")
                c.add(f"compare/rank_{metric}:{d}", got == moved, f"{got!r} vs {moved!r}")


class RankBootstrap(Workload):
    name = "rank_bootstrap"

    def __init__(self, *args):
        super().__init__(*args)
        self.resamples = RANK_RESAMPLES[self.size]
        self.workers = nproc()
        self.results: list = []

    def describe(self) -> str:
        return (f"library: H1-H4 contrasts x metric {', '.join(RANK_METRICS)} plus "
                f"bootstrap_metric CIs per domain of condition {CI_CONDITION}, "
                f"{self.resamples} resamples, workers={self.workers}")

    def warmup(self) -> None:
        from metadkit import load_trials

        self.f16 = load_trials(self.trials_path).filter(format="f16")
        self._run(2 * self.workers)

    def run_pass(self) -> None:
        self.results = self._run(self.resamples)

    def _run(self, resamples: int) -> list:
        from metadkit import bootstrap

        results = []
        for metric in RANK_METRICS:
            specs = [replace(s, metric=metric) for s in bootstrap.default_hypothesis_specs()]
            results.extend(bootstrap.run_hypothesis_suite(
                self.f16, specs, n_resamples=resamples, workers=self.workers))
        for metric in RANK_METRICS:
            for domain in self.f16.domains():
                cell = self.f16.filter(condition=CI_CONDITION, domain=domain)
                results.append(bootstrap.bootstrap_metric(
                    cell, metric, n_resamples=resamples, workers=self.workers))
        return results

    def observe(self) -> dict:
        observed: dict = {}
        for r in self.results:
            if hasattr(r, "hypothesis_id"):
                key = f"{r.metric}/{r.hypothesis_id}/{r.domain}"
                observed[f"{key}/delta"] = r.delta_hat
                observed[f"{key}/decision"] = r.decision
            else:
                key = f"{r.metric}/ci/{r.domain}"
                observed[f"{key}/point"] = r.point
            observed[f"{key}/ci_low"] = r.ci_low
            observed[f"{key}/ci_high"] = r.ci_high
            observed[f"{key}/ci_level"] = r.ci_level
            observed[f"{key}/n_resamples"] = r.n_resamples
            observed[f"{key}/excluded"] = r.degenerate_resample_count
        return observed

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.observe(), sort_keys=True).encode()).hexdigest()

    def counts(self, observed):
        return {"resamples": sum(v for k, v in observed.items() if k.endswith("/n_resamples")),
                "cell_fits": 0,
                "excluded": sum(v for k, v in observed.items() if k.endswith("/excluded")),
                "not_converged": 0}

    def check(self, c, trials, observed):
        stat = {"auroc2": checks.auroc2_pairs, "nlp_gap": checks.nlp_gap}
        domains = sorted(set(trials["domain"].tolist()))

        def value(metric, condition, domain):
            mask = checks.select(trials, condition=condition, format="f16", domain=domain)
            return stat[metric](trials["nlp"][mask], trials["correct"][mask])

        n_units = len(RANK_METRICS) * (sum(len(s[3]) for s in SUITE) + len(domains))
        got_units = sum(1 for k in observed if k.endswith("/n_resamples"))
        c.add("rank_bootstrap/unit_count", got_units == n_units, f"{got_units} of {n_units}")
        for metric in RANK_METRICS:
            for h, cond_a, cond_b, suite_domains in SUITE:
                for domain in suite_domains:
                    key = f"{metric}/{h}/{domain}"
                    if f"{key}/decision" not in observed:
                        continue
                    check_ci(c, key, h, observed)
                    c.close(f"{key}/delta", observed[f"{key}/delta"],
                            value(metric, cond_a, domain) - value(metric, cond_b, domain),
                            checks.RECOUNT_TOL)
                    c.add(f"{key}/n_resamples",
                          observed[f"{key}/n_resamples"] == self.resamples)
            for domain in domains:
                key = f"{metric}/ci/{domain}"
                if f"{key}/point" not in observed:
                    continue
                lo, hi = observed[f"{key}/ci_low"], observed[f"{key}/ci_high"]
                c.add(f"{key}/finite_ci", np.isfinite(lo) and np.isfinite(hi) and lo <= hi,
                      f"[{lo}, {hi}]")
                c.close(f"{key}/point", observed[f"{key}/point"],
                        value(metric, CI_CONDITION, domain), checks.RECOUNT_TOL)
                c.add(f"{key}/n_resamples", observed[f"{key}/n_resamples"] == self.resamples)


WORKLOADS = {w.name: w for w in (Confirm, RankBootstrap, Diagnose)}


# -- shared checks --------------------------------------------------------------------

class CellFits:
    """Fits of single cells through the public API, checked independently.

    ``fit`` returns the API's SdtFit as a dict; ``check_all`` then checks
    every fit made against the benchmark's own tally and likelihood.
    """

    def __init__(self, trials: dict, global_bins: bool = False):
        self.trials = trials
        self.global_bins = global_bins
        self.fits: dict[tuple[str, str, str], tuple[np.ndarray, dict]] = {}

    def bins(self, condition: str, fmt: str, domain: str) -> np.ndarray:
        t = self.trials
        cell = checks.select(t, condition=condition, format=fmt, domain=domain)
        if not self.global_bins:
            return checks.quantile_bins(t["nlp"][cell])
        pair = checks.select(t, condition=condition, format=fmt)
        return checks.quantile_bins(t["nlp"][pair])[t["domain"][pair] == domain]

    def fit(self, condition: str, fmt: str, domain: str) -> dict:
        key = (condition, fmt, domain)
        if key not in self.fits:
            from metadkit.profiles import fit_cell_arrays

            t = self.trials
            cell = checks.select(t, condition=condition, format=fmt, domain=domain)
            bins = self.bins(condition, fmt, domain)
            fit = fit_cell_arrays(t["nlp"][cell], t["correct"][cell],
                                  bins=bins if self.global_bins else None)
            self.fits[key] = (checks.tally(bins, t["correct"][cell]), asdict(fit))
        return self.fits[key][1]

    def counts(self, condition: str, fmt: str, domain: str) -> np.ndarray:
        self.fit(condition, fmt, domain)
        return self.fits[(condition, fmt, domain)][0]

    def check_all(self, c: checks.Checks, label: str) -> None:
        for (cond, fmt, domain), (counts, fit) in sorted(self.fits.items()):
            checks.check_fit(c, f"{label}/fit/{cond}/{fmt}/{domain}", counts, fit)


def check_ci(c: checks.Checks, key: str, hypothesis: str, observed: dict) -> None:
    lo, hi = observed[f"{key}/ci_low"], observed[f"{key}/ci_high"]
    c.add(f"{key}/finite_ci", np.isfinite(lo) and np.isfinite(hi) and lo <= hi, f"[{lo}, {hi}]")
    level = checks.HYPOTHESIS_RULES[hypothesis][1]
    c.add(f"{key}/ci_level", abs(observed[f"{key}/ci_level"] - level) < 1e-12)
    want = checks.expected_decision(hypothesis, lo, hi)
    c.add(f"{key}/decision", observed[f"{key}/decision"] == want,
          f"{observed[f'{key}/decision']} vs {want}")


def check_profile(c: checks.Checks, key: str, observed: dict, trials: dict,
                  fits: CellFits, cond: str, fmt: str, domain: str) -> None:
    mask = checks.select(trials, condition=cond, format=fmt, domain=domain)
    nlp, correct = trials["nlp"][mask], trials["correct"][mask]
    c.add(f"{key}/n", observed[f"{key}/n"] == int(mask.sum()))
    c.close(f"{key}/accuracy", observed[f"{key}/accuracy"], checks.accuracy(correct),
            checks.RECOUNT_TOL)
    c.close(f"{key}/nlp_gap", observed[f"{key}/nlp_gap"], checks.nlp_gap(nlp, correct),
            checks.RECOUNT_TOL)
    c.close(f"{key}/auroc2", observed[f"{key}/auroc2"], checks.auroc2_pairs(nlp, correct),
            checks.RECOUNT_TOL)
    d_prime, _ = checks.type1(fits.counts(cond, fmt, domain))
    c.close(f"{key}/d_prime", observed[f"{key}/d_prime"], d_prime, checks.RECOUNT_TOL)
    fit = fits.fit(cond, fmt, domain)
    c.close(f"{key}/meta_d", observed[f"{key}/meta_d"], fit["meta_d"], checks.RECOUNT_TOL)
    c.close(f"{key}/m_ratio", observed[f"{key}/m_ratio"],
            observed[f"{key}/meta_d"] / observed[f"{key}/d_prime"], checks.RECOUNT_TOL)


def check_ranks(c: checks.Checks, key: str, metric: str, observed: dict,
                domains: list[str]) -> None:
    """Rank 1 = largest value, ties broken by domain name."""
    present = [d for d in domains if f"{key}/{d}/{metric}" in observed]
    order = sorted(present, key=lambda d: (-observed[f"{key}/{d}/{metric}"], d))
    want = {d: i + 1 for i, d in enumerate(order)}
    got = {d: observed[f"{key}/{d}/rank_{metric}"] for d in present}
    c.add(f"{key}/rank_{metric}", got == want, f"{got} vs {want}")


# -- run ------------------------------------------------------------------------------

def timed_passes(workload: Workload, budget: float) -> tuple[list[float], list[float]]:
    """Closed-loop passes until the next one would end past ``budget``.

    Returns raw pass wall times and the same at reference speed
    (speed.py)."""
    walls: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    while True:
        speed.reset()
        t0 = time.perf_counter()
        workload.run_pass()
        walls.append(time.perf_counter() - t0)
        scaled.append(walls[-1] * speed.factor()[0])
        workload.digests.append(workload.digest())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > budget:
            return walls, scaled


def peak_rss_mb() -> dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"runner": own, "largest_worker": workers, "total": own + workers}


def environment(workers: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "workers": workers,
    }


def load_reference() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {}


def run(args) -> dict:
    workload = WORKLOADS[args.workload](Path(args.trials), Path(args.work), args.size)
    speed.start(worker_dir=Path(args.work) / "speed")
    workload.warmup()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, scaled_walls = timed_passes(workload, budget)
    rss = peak_rss_mb()

    layer, traced_walls, traced_scaled, worker_spans = None, [], [], 0
    if args.trace:
        tracer = spans.Tracer(Path(args.work) / "spans")
        tracer.install()
        try:
            traced_walls, traced_scaled = timed_passes(workload, budget)
        finally:
            tracer.uninstall()
        recorded, worker_spans = tracer.collect()
        # span times are raw; bring them to reference speed like the passes
        layer = spans.per_pass(spans.layer_metrics(recorded), len(traced_walls),
                               sum(traced_scaled) / sum(traced_walls))

    speed.stop()
    c = checks.Checks()
    n_passes = len(workload.digests)
    c.add(f"{workload.name}/deterministic_outputs", len(set(workload.digests)) == 1,
          f"{len(set(workload.digests))} distinct digests over {n_passes} passes")
    observed = workload.observe()
    trials = checks.read_trials(args.trials)
    workload.check(c, trials, observed)

    reference = load_reference().get(workload.name)
    tree = workload.tree_digests() if isinstance(workload, CliWorkload) else {}
    ref_status = "not applicable (seed or size differs from the reference)"
    if args.record:
        record_reference(workload.name, args, observed, tree, workload.digest())
        ref_status = "recorded"
    elif reference and args.seed == reference["seed"] and args.size == reference["size"]:
        checks.compare_reference(c, observed, reference["observed"])
        same = reference["digest"] == workload.digest()
        ref_status = (f"{len(reference['observed'])} values compared; output digest "
                      f"{'matches' if same else 'differs from'} the reference")

    per_pass_counts = workload.counts(observed)
    return {
        "workload": workload.name,
        "describe": workload.describe(),
        "walls": walls,
        "scaled_walls": scaled_walls,
        "traced_walls": traced_walls,
        "traced_scaled_walls": traced_scaled,
        "counts": per_pass_counts,
        "rss_mb": rss,
        "layer": layer,
        "worker_spans": worker_spans,
        "checks_total": len(c.results),
        "checks_failed": [list(r) for r in c.failed[:20]],
        "checks_failed_count": len(c.failed),
        "digest": workload.digest(),
        "tree_sha256": tree,
        "reference": ref_status,
        "env": environment(getattr(workload, "workers", 1)),
    }


def record_reference(name: str, args, observed: dict, tree: dict, digest: str) -> None:
    reference = load_reference()
    reference[name] = {"seed": args.seed, "size": args.size, "digest": digest,
                       "tree_sha256": tree, "observed": observed}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description="one benchmark workload (see run.py)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--trials", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("release", "tiny"), default="release")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs as the reference")
    args = parser.parse_args()
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
