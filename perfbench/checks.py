"""Independent re-computations that the benchmark checks the program against.

Nothing here calls metadkit: every value is recounted from the trial
arrays with plain Python / numpy and the standard library's NormalDist,
so an output that drifts shows as a failed check rather than as a
consistent pair of wrong numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_RATINGS = 4
N_BINS = 2 * N_RATINGS
PAD = 0.5
PROB_CLAMP = 1e-12
TOST_DELTA = 0.17
# hypothesis id -> (decision rule, CI level) of the default protocol
HYPOTHESIS_RULES = {"H1": ("ci_lower_gt_zero", 0.95), "H2": ("tost", 0.90),
                    "H3": ("ci_lower_gt_zero", 0.95), "H4": ("ci_lower_gt_zero", 0.95)}
# ROADMAP fitter tolerance; percentile CIs of fitted values inherit it
FIT_TOL = 1e-6
RECOUNT_TOL = 1e-9

_STD = NormalDist()


class Checks:
    """Named pass/fail outcomes of one run, in the order they were made."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, got: float, want: float, tol: float) -> bool:
        ok = math.isfinite(got) and math.isfinite(want) and abs(got - want) <= tol
        return self.add(name, ok, f"got {got!r} want {want!r} tol {tol:g}")

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


# -- trial arrays -----------------------------------------------------------------

def read_trials(path: str | Path) -> dict[str, np.ndarray]:
    """Column arrays of a JSONL trial file, in file order, read with json."""
    cols: dict[str, list] = {k: [] for k in ("condition", "format", "domain", "nlp", "correct")}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for key, values in cols.items():
                values.append(rec[key])
    out = {k: np.array(cols[k]) for k in ("condition", "format", "domain")}
    out["nlp"] = np.array(cols["nlp"], dtype=float)
    out["correct"] = np.array(cols["correct"], dtype=bool)
    return out


def select(trials: dict[str, np.ndarray], **selectors: str) -> np.ndarray:
    """Boolean mask of the records matching every given column value."""
    mask = np.ones(len(trials["nlp"]), dtype=bool)
    for key, value in selectors.items():
        mask &= trials[key] == value
    return mask


# -- recounts ---------------------------------------------------------------------

def accuracy(correct: np.ndarray) -> float:
    return sum(bool(c) for c in correct) / len(correct)


def nlp_gap(nlp: np.ndarray, correct: np.ndarray) -> float:
    pos = [float(x) for x, c in zip(nlp, correct) if c]
    neg = [float(x) for x, c in zip(nlp, correct) if not c]
    return math.fsum(pos) / len(pos) - math.fsum(neg) / len(neg)


def auroc2_pairs(nlp: np.ndarray, correct: np.ndarray) -> float:
    """Brute-force pair count: P(correct nlp > incorrect nlp) + half the ties."""
    pos = nlp[correct][:, None]
    neg = nlp[~correct][None, :]
    wins = int((pos > neg).sum()) + 0.5 * int((pos == neg).sum())
    return wins / (pos.size * neg.size)


def quantile_bins(nlp: np.ndarray, n_bins: int = N_BINS) -> np.ndarray:
    """Bin 1..n_bins from the rank in an ascending sort, ties in input order."""
    n = len(nlp)
    order = sorted(range(n), key=lambda i: (nlp[i], i))
    bins = np.empty(n, dtype=np.int64)
    for rank, i in enumerate(order):
        bins[i] = rank * n_bins // n + 1
    return bins


def tally(bins: np.ndarray, correct: np.ndarray, n_bins: int = N_BINS,
          pad: float = PAD) -> np.ndarray:
    """Padded (2, n_bins) counts: row 0 incorrect, row 1 correct."""
    counts = np.full((2, n_bins), pad)
    for b, c in zip(bins, correct):
        counts[int(c), int(b) - 1] += 1
    return counts


def _z(p: float) -> float:
    return _STD.inv_cdf(min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP))


def type1(counts: np.ndarray, n_ratings: int = N_RATINGS) -> tuple[float, float]:
    """(d', c) from the median split of a padded count table."""
    hr = counts[1, n_ratings:].sum() / counts[1].sum()
    far = counts[0, n_ratings:].sum() / counts[0].sum()
    z_hr, z_far = _z(hr), _z(far)
    return z_hr - z_far, -0.5 * (z_hr + z_far)


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def type2_loglik(counts: np.ndarray, meta_d: float, meta_c: float,
                 criteria_r1, criteria_r2) -> float:
    """Count-weighted response-conditional log-likelihood (Maniscalco & Lau 2012).

    ``criteria_r1`` descend below meta_c and ``criteria_r2`` ascend above
    it, as the fitter returns them; each class is N(-+meta_d / 2, 1).
    Lower-side masses come from the CDF and upper-side masses from the
    survival function, so both stay accurate in the far tails.
    """
    lower = [-math.inf] + sorted(criteria_r1) + [meta_c]
    upper = [meta_c] + list(criteria_r2) + [math.inf]
    total = 0.0
    for s, mu in ((0, -0.5 * meta_d), (1, 0.5 * meta_d)):
        cdf = [_cdf(x - mu) for x in lower]
        sf = [_sf(x - mu) for x in upper]
        masses = ([(cdf[b + 1] - cdf[b]) / max(cdf[-1], 1e-300) for b in range(len(cdf) - 1)]
                  + [(sf[b] - sf[b + 1]) / max(sf[0], 1e-300) for b in range(len(sf) - 1)])
        for b, cond in enumerate(masses):
            total += counts[s, b] * math.log(max(cond, PROB_CLAMP))
    return total


def average_ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for m in range(i, j + 1):
            ranks[order[m]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    rx, ry = average_ranks(list(x)), average_ranks(list(y))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def expected_decision(hypothesis: str, ci_low: float, ci_high: float) -> str:
    rule, _ = HYPOTHESIS_RULES[hypothesis]
    if rule == "ci_lower_gt_zero":
        return "supported" if ci_low > 0.0 else "not_supported"
    inside = -TOST_DELTA < ci_low and ci_high < TOST_DELTA
    return "equivalent" if inside else "not_equivalent"


# -- composite checks ---------------------------------------------------------------

def check_fit(checks: Checks, name: str, counts: np.ndarray, fit: dict) -> None:
    """A cell fit: d' from our tally, meta_c = c' meta-d', M-ratio, and the
    log-likelihood recomputed from the returned parameters."""
    d_prime, criterion_c = type1(counts)
    checks.close(f"{name}/d_prime", fit["d_prime"], d_prime, RECOUNT_TOL)
    checks.add(f"{name}/meta_d_nonneg", fit["meta_d"] >= 0.0, repr(fit["meta_d"]))
    checks.close(f"{name}/meta_c", fit["meta_c"],
                 criterion_c / d_prime * fit["meta_d"], RECOUNT_TOL)
    checks.close(f"{name}/m_ratio", fit["m_ratio"], fit["meta_d"] / fit["d_prime"],
                 RECOUNT_TOL)
    loglik = type2_loglik(counts, fit["meta_d"], fit["meta_c"],
                          fit["t2_criteria_r1"], fit["t2_criteria_r2"])
    checks.close(f"{name}/loglik", fit["log_likelihood"], loglik,
                 RECOUNT_TOL * max(1.0, abs(loglik)))
    checks.add(f"{name}/converged", fit["converged"])


def compare_reference(checks: Checks, observed: dict, reference: dict) -> None:
    """Floats within FIT_TOL, everything else exactly; keys must match."""
    missing = sorted(set(reference) - set(observed))
    extra = sorted(set(observed) - set(reference))
    checks.add("reference/keys", not missing and not extra,
               f"missing {missing[:5]} extra {extra[:5]}")
    for key in sorted(set(reference) & set(observed)):
        want, got = reference[key], observed[key]
        if isinstance(want, float) and isinstance(got, (int, float)):
            checks.close(f"reference/{key}", float(got), want, FIT_TOL)
        else:
            checks.add(f"reference/{key}", got == want, f"got {got!r} want {want!r}")


def tree_sha256(root: str | Path) -> str:
    """Digest of every file under root: relative path and bytes, in path order."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()
