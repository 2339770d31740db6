"""Tracing from outside the program: wrap metadkit functions, keep spans.

Each wrapped call records a span (name, start, end, id, parent, value,
aux) in memory. ``value`` and ``aux`` carry a per-call count taken from
the result: iterations and status flags for a fit, resamples and
exclusions for a bootstrap unit, records for a load, bytes for a report.

Modules import by name (``from .sdt import meta_d_fit``), so a function
is patched at every module that looks it up, not only where it is
defined.

Pool workers of the bootstrap are forked with the patches in place, so
they record spans too. The chunk function they run is wrapped so that a
worker writes the spans it recorded to a file in ``spans_dir`` after
each chunk; ``collect`` reads those files back. A worker inherits the
open-span stack at fork time, so its spans hang under the parent's
bootstrap span. If workers are ever started without the patches (a spawn
start method), no files appear and ``collect`` reports zero worker spans.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path

import numpy as np

# span names, in the order of their integer codes
NAMES = (
    "cli.main",
    "trialstore.load", "trialstore.filter", "trialstore.validate_paired",
    "binning.bin", "binning.tally",
    "sdt.type1", "sdt.fit",
    "nonparam.auroc2", "nonparam.nlp_gap", "nonparam.accuracy", "nonparam.spearman",
    "profiles.build", "profiles.fit_cell", "profiles.compare", "profiles.rank",
    "bootstrap.suite", "bootstrap.contrast", "bootstrap.metric", "bootstrap.stat",
    "bootstrap.chunk",
    "report.write",
)
CODE = {name: i for i, name in enumerate(NAMES)}

# aux bits of an sdt.fit span
NOT_CONVERGED, AT_ZERO, HIGH_CPRIME, RAISED = 1, 2, 4, 8
HIGH_CPRIME_THRESHOLD = 1.5
_ID_STRIDE = 10 ** 9


def _fit_counts(fit, args, kwargs):
    d_prime, criterion_c = args[1]
    flags = (0 if fit.converged else NOT_CONVERGED) | (AT_ZERO if fit.meta_d == 0.0 else 0)
    if abs(criterion_c / d_prime) > HIGH_CPRIME_THRESHOLD:
        flags |= HIGH_CPRIME
    return fit.iterations, flags


def _unit_counts(result, args, kwargs):
    return result.n_resamples, result.degenerate_resample_count


def _tree_bytes(result, args, kwargs):
    out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()), 0


def _length(result, args, kwargs):
    return len(result), 0


def patch_sites():
    """(owner, attribute, span name, counter) for every traced lookup site."""
    from metadkit import bootstrap, cli, profiles, report, trialstore

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_trials", "trialstore.load", _length),
        (trialstore, "filter_trials", "trialstore.filter", None),
        (bootstrap, "validate_paired", "trialstore.validate_paired", None),
        (profiles, "bin_indices", "binning.bin", None),
        (profiles, "counts_from_arrays", "binning.tally", None),
        (profiles, "pad_counts", "binning.tally", None),
        (profiles, "type1_fit", "sdt.type1", None),
        (profiles, "meta_d_fit", "sdt.fit", _fit_counts),
        (profiles, "auroc2_arrays", "nonparam.auroc2", None),
        (bootstrap, "auroc2_arrays", "nonparam.auroc2", None),
        (profiles, "nlp_gap_arrays", "nonparam.nlp_gap", None),
        (bootstrap, "nlp_gap_arrays", "nonparam.nlp_gap", None),
        (profiles, "accuracy_arrays", "nonparam.accuracy", None),
        (bootstrap, "accuracy_arrays", "nonparam.accuracy", None),
        (profiles, "spearman_rho", "nonparam.spearman", None),
        (cli, "build_profiles", "profiles.build", _length),
        (profiles, "fit_cell_arrays", "profiles.fit_cell", None),
        (bootstrap, "fit_cell_arrays", "profiles.fit_cell", None),
        (cli, "compare_formats", "profiles.compare", None),
        (profiles, "rank_profile", "profiles.rank", None),
        (cli, "run_hypothesis_suite", "bootstrap.suite", None),
        (bootstrap, "run_hypothesis_suite", "bootstrap.suite", None),
        (bootstrap, "bootstrap_contrast", "bootstrap.contrast", _unit_counts),
        (bootstrap, "bootstrap_metric", "bootstrap.metric", _unit_counts),
        (bootstrap, "metric_value", "bootstrap.stat", None),
        (bootstrap, "_eval_chunk", "bootstrap.chunk", None),
        (report.ReportBundle, "write", "report.write", _tree_bytes),
    ]


class Tracer:
    """In-memory span recorder for one process and the workers it forks."""

    def __init__(self, spans_dir: str | Path):
        self.spans_dir = Path(spans_dir)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = self.pid = os.getpid()
        self.stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []
        self._flushes = 0
        self._clear()

    def _clear(self) -> None:
        self.rows: list[tuple[int, float, float, int, int, float, int]] = []
        self._next = 0

    def _in_worker(self) -> bool:
        if os.getpid() != self.pid:
            # a forked worker: drop the parent's spans, keep its open stack
            self.pid = os.getpid()
            self._flushes = 0
            self._clear()
        return self.pid != self.owner_pid

    def install(self) -> None:
        for owner, attr, name, counter in patch_sites():
            self._wrap(owner, attr, name, counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _wrap(self, owner, attr: str, name: str, counter) -> None:
        original = getattr(owner, attr)
        code = CODE[name]
        flush = name == "bootstrap.chunk"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            in_worker = tracer._in_worker()
            sid = tracer.pid * _ID_STRIDE + tracer._next
            tracer._next += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.stack.pop()
                tracer.rows.append((code, start, time.perf_counter(), sid, parent, 0.0, RAISED))
                raise
            end = time.perf_counter()
            tracer.stack.pop()
            value, aux = counter(result, args, kwargs) if counter else (0.0, 0)
            tracer.rows.append((code, start, end, sid, parent, float(value), int(aux)))
            if flush and in_worker:
                tracer._flush()
            return result

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original))

    def _flush(self) -> None:
        self._flushes += 1
        np.save(self.spans_dir / f"{self.pid}-{self._flushes}.npy", _as_array(self.rows))
        self._clear()

    def collect(self) -> tuple[np.ndarray, int]:
        """All spans since the last collect, and how many came from workers."""
        parts = [_as_array(self.rows)]
        self._clear()
        worker_spans = 0
        for path in sorted(self.spans_dir.glob("*.npy")):
            part = np.load(path)
            path.unlink()
            worker_spans += len(part)
            parts.append(part)
        return np.concatenate(parts), worker_spans


_DTYPE = np.dtype([("code", "i2"), ("start", "f8"), ("end", "f8"), ("id", "i8"),
                   ("parent", "i8"), ("value", "f8"), ("aux", "i8")])


def _as_array(rows) -> np.ndarray:
    return np.array(rows, dtype=_DTYPE) if rows else np.empty(0, dtype=_DTYPE)


# -- per-layer metrics ------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(spans: np.ndarray, roots: set[int], subtract: set[int] | None,
               children: dict[int, list[int]], depth_one: bool = False) -> float:
    """Sum over spans with code in ``roots`` of duration minus the union of
    their descendants with code in ``subtract`` (all codes if None);
    ``depth_one`` limits descendants to direct children."""
    total = 0.0
    for i in np.flatnonzero(np.isin(spans["code"], list(roots))):
        intervals, todo = [], list(children.get(int(spans["id"][i]), ()))
        while todo:
            j = todo.pop()
            if subtract is None or int(spans["code"][j]) in subtract:
                intervals.append((float(spans["start"][j]), float(spans["end"][j])))
            if not depth_one:
                todo.extend(children.get(int(spans["id"][j]), ()))
        total += float(spans["end"][i] - spans["start"][i]) - _covered(intervals)
    return total


def layer_metrics(spans: np.ndarray) -> dict[str, float]:
    """Per-layer totals over the given spans (units in PER_LAYER_UNITS)."""
    code = spans["code"]
    dur = spans["end"] - spans["start"]

    def sel(*names):
        return np.isin(code, [CODE[n] for n in names])

    def busy(*names):
        return float(dur[sel(*names)].sum())

    def count(*names):
        return int(sel(*names).sum())

    children: dict[int, list[int]] = {}
    for j, parent in enumerate(spans["parent"].tolist()):
        children.setdefault(parent, []).append(j)

    fits = sel("sdt.fit") & ((spans["aux"] & RAISED) == 0)
    iters = spans["value"][fits]
    fit_s = float(dur[fits].sum())
    units = sel("bootstrap.contrast", "bootstrap.metric")
    resamples = float(spans["value"][units].sum())
    unit_codes = {CODE["bootstrap.contrast"], CODE["bootstrap.metric"]}
    boot_self = _self_time(spans, unit_codes, {CODE["bootstrap.stat"]}, children)
    fit_cell_self = _self_time(
        spans, {CODE["profiles.fit_cell"]},
        {CODE[n] for n in NAMES if n.startswith(("binning.", "sdt."))}, children)
    return {
        "sdt.fit_s": fit_s,
        "sdt.fits": int(fits.sum()),
        "sdt.fit_iters_p50": float(np.percentile(iters, 50)) if len(iters) else 0.0,
        "sdt.fit_iters_p90": float(np.percentile(iters, 90)) if len(iters) else 0.0,
        "sdt.fit_us_per_iter": 1e6 * fit_s / iters.sum() if iters.sum() else 0.0,
        "sdt.fits_not_converged": int(((spans["aux"][fits] & NOT_CONVERGED) != 0).sum()),
        "sdt.fits_at_zero": int(((spans["aux"][fits] & AT_ZERO) != 0).sum()),
        "sdt.fits_high_cprime": int(((spans["aux"][fits] & HIGH_CPRIME) != 0).sum()),
        "sdt.type1_s": busy("sdt.type1"),
        "bootstrap.contrast_s": busy("bootstrap.contrast", "bootstrap.metric"),
        "bootstrap.stat_s": busy("bootstrap.stat"),
        "bootstrap.stat_calls": count("bootstrap.stat"),
        "bootstrap.self_s": boot_self,
        "bootstrap.self_us_per_resample": 1e6 * boot_self / resamples if resamples else 0.0,
        "bootstrap.excluded_resamples": int(spans["aux"][units].sum()),
        "nonparam.auroc2_s": busy("nonparam.auroc2"),
        "nonparam.nlp_gap_s": busy("nonparam.nlp_gap"),
        "nonparam.calls": count("nonparam.auroc2", "nonparam.nlp_gap",
                                "nonparam.accuracy", "nonparam.spearman"),
        "binning.bin_s": busy("binning.bin"),
        "binning.bin_calls": count("binning.bin"),
        "binning.tally_s": busy("binning.tally"),
        "profiles.build_s": busy("profiles.build"),
        "profiles.fit_cell_self_s": fit_cell_self,
        "profiles.compare_s": busy("profiles.compare"),
        "profiles.cells": int(spans["value"][sel("profiles.build")].sum()),
        "trialstore.load_s": busy("trialstore.load"),
        "trialstore.load_records": int(spans["value"][sel("trialstore.load")].sum()),
        "trialstore.filter_s": busy("trialstore.filter"),
        "trialstore.filter_calls": count("trialstore.filter"),
        "trialstore.validate_paired_s": busy("trialstore.validate_paired"),
        "report.write_s": busy("report.write"),
        "report.bytes": int(spans["value"][sel("report.write")].sum()),
        "cli.self_s": _self_time(spans, {CODE["cli.main"]}, None, children, depth_one=True),
    }


# quantiles and rates stay as they are when totals become per-pass means
_NOT_TOTALS = {"sdt.fit_iters_p50", "sdt.fit_iters_p90", "sdt.fit_us_per_iter",
               "bootstrap.self_us_per_resample"}


def per_pass(totals: dict[str, float], passes: int, speed_factor: float) -> dict[str, float]:
    """Layer metrics of several passes as the mean of one pass, with
    times multiplied by ``speed_factor`` (reference speed / raw)."""
    out = {}
    for name, value in totals.items():
        if name not in _NOT_TOTALS:
            value /= passes
        if PER_LAYER_UNITS[name] in ("s", "us"):
            value *= speed_factor
        out[name] = value
    return out


PER_LAYER_UNITS = {
    name: ("us" if name.endswith("_us_per_iter") or name.endswith("_us_per_resample")
           else "s" if name.endswith("_s") else "bytes" if name.endswith("bytes")
           else "count")
    for name in layer_metrics(_as_array([])).keys()
}
