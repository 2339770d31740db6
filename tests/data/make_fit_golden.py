"""Write fit_golden.csv: bootstrap count tables and their meta-d' fits.

    PYTHONPATH=src python tests/data/make_fit_golden.py

The tables are deterministic: synthetic trial sets (synth.generate) from
sparse n = 16 to release-sized n = 956, no to strong signal, balanced to
skewed accuracy, each resampled with replacement, quantile-binned,
tallied and type-1 fitted the way a bootstrap resample is. Half of the
sets are binned on their own (per-cell scope); the other half on their
union with a companion set whose confidence sits `shift` higher, as the
global binning scope does for a domain, which moves the median split off
the set's own median and gives the large |c'| and |meta-c| tables.
Resamples with one class only or d' = 0 are skipped.

The recorded values come from the fitter in place when the script runs;
the committed file was written by the scipy BFGS fitter (with its
Nelder-Mead polish and restarts) of commit 86e8bf4, and
tests/test_fit_golden.py compares later fitters against it.

Columns: the 8 raw incorrect and 8 raw correct counts (before the +0.5
padding), n_trials, then the fit's meta_d, meta_c, log_likelihood and
its six type-2 criteria (r1 descending, r2 ascending).
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from metadkit.binning import bin_indices, counts_from_arrays, pad_counts
from metadkit.sdt import meta_d_fit, type1_fit
from metadkit.synth import SynthConfig, generate

OUT = Path(__file__).with_name("fit_golden.csv")
N_RATINGS = 4
PAD = 0.5
RESAMPLES = 6


def tables():
    """(raw (2, 2 * N_RATINGS) count table, row 0 incorrect, n) of every
    golden table."""
    grid = itertools.product((16, 24, 40, 150, 956),        # trials per set
                             (0.5, 0.7, 0.9),                # p_correct
                             (0.0, 0.3, 1.0),                # signal: mean gap
                             ("gaussian", "lognormal_skew"),
                             (0.0, 1.5))                     # companion shift; 0: none
    for seed, (n, p_correct, gap, family, shift) in enumerate(grid):
        config = SynthConfig(n_trials=n, p_correct=p_correct, family=family,
                             mu_correct=gap, mu_incorrect=0.0, seed=seed)
        trials = generate(config)
        companion = generate(replace(config, mu_correct=gap + shift,
                                     mu_incorrect=shift, seed=10_000 + seed))
        rng = np.random.default_rng(1000 + seed)
        for _ in range(RESAMPLES):
            idx = rng.integers(0, n, n)
            nlp, correct = trials.nlp_values[idx], trials.correct_mask[idx]
            if correct.all() or not correct.any():
                continue
            if shift:
                bins = bin_indices(np.concatenate([nlp, companion.nlp_values]),
                                   2 * N_RATINGS)[:n]
            else:
                bins = bin_indices(nlp, 2 * N_RATINGS)
            yield counts_from_arrays(bins, correct, 2 * N_RATINGS), n


def main() -> None:
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for raw, n in tables():
            table = pad_counts(raw, PAD)
            type1 = type1_fit(table)
            if type1[0] == 0.0:
                continue
            fit = meta_d_fit(table, type1, PAD)
            rows.append([*map(int, raw.ravel()), n]
                        + [repr(fit.meta_d), repr(fit.meta_c), repr(fit.log_likelihood)]
                        + [repr(c) for c in fit.t2_criteria_r1 + fit.t2_criteria_r2])
    with open(OUT, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"i{b}" for b in range(1, 9)] + [f"c{b}" for b in range(1, 9)]
                        + ["n", "meta_d", "meta_c", "log_likelihood",
                           "r1_1", "r1_2", "r1_3", "r2_1", "r2_2", "r2_3"])
        writer.writerows(rows)
    print(f"{len(rows)} tables -> {OUT}")


if __name__ == "__main__":
    main()
