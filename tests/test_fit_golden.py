"""The meta-d' fitter against fits recorded from the scipy BFGS fitter.

tests/data/fit_golden.csv holds 1 016 bootstrap count tables (sparse
n = 16 to n = 956, per-cell and global-scope binning, 225 with |c'| > 1.5,
356 at the meta-d' = 0 boundary) with the meta-d', log-likelihood and
criteria that fitter returned; tests/data/make_fit_golden.py rebuilds
them. That fitter computed the upper response side as 1 - Phi, which has
no digits left in a far tail, so where its own log-likelihood disagrees
with an accurate recomputation it optimized a different objective. Those
tables are compared by the accurate log-likelihood of both fits only.

tests/data/newton_reference.csv holds the same tables' fits by the
previous Newton fitter (eigendecomposition steps); the current one must
match it to NEWTON_META_D_TOL and NEWTON_LOGLIK_RTOL with the same
converged flags. tests/data/make_newton_reference.py rebuilds that file.
"""

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from metadkit.sdt import PROB_CLAMP, meta_d_fit, meta_d_fit_batch, type1_batch, type1_fit

GOLDEN = Path(__file__).parent / "data" / "fit_golden.csv"
PAD = 0.5
META_D_TOL = 1e-6
LOGLIK_TOL = 1e-9
# the recorded log-likelihood is off by more than this from an accurate
# recomputation of the recorded fit: that fit's objective lost digits
RECORDED_OBJECTIVE_TOL = 1e-10
NEWTON_REFERENCE = GOLDEN.with_name("newton_reference.csv")
NEWTON_META_D_TOL = 1e-6
NEWTON_LOGLIK_RTOL = 1e-12


def _mass(a: float, b: float) -> float:
    """Standard normal mass of (a, b], from whichever tail keeps the digits."""
    if a >= 0.0:
        return 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))
    return 0.5 * (math.erfc(-b / math.sqrt(2.0)) - math.erfc(-a / math.sqrt(2.0)))


def erfc_loglik(counts, meta_d, meta_c, criteria_r1, criteria_r2) -> float:
    """Count-weighted response-conditional log-likelihood, from math.erfc."""
    edges = [-math.inf, *sorted(criteria_r1), meta_c, *criteria_r2, math.inf]
    k = len(criteria_r2)
    total = 0.0
    for s, mu in ((0, -0.5 * meta_d), (1, 0.5 * meta_d)):
        z = [e - mu for e in edges]
        sides = (_mass(-math.inf, z[k + 1]), _mass(z[k + 1], math.inf))
        for b in range(len(edges) - 1):
            cond = _mass(z[b], z[b + 1]) / max(sides[b > k], 1e-300)
            total += counts[s][b] * math.log(max(cond, PROB_CLAMP))
    return total


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    counts = np.array([[[int(r[f"i{b}"]) for b in range(1, 9)],
                        [int(r[f"c{b}"]) for b in range(1, 9)]] for r in rows], float) + PAD
    return rows, counts


def test_matches_recorded_bfgs_fits():
    rows, counts = _golden()
    type1 = np.array([type1_fit(c) for c in counts])
    fits = meta_d_fit_batch(counts, type1[:, 0], type1[:, 1])
    by_meta_d = 0
    for i, row in enumerate(rows):
        old_meta_d, old_meta_c = float(row["meta_d"]), float(row["meta_c"])
        old_loglik = float(row["log_likelihood"])
        old_accurate = erfc_loglik(counts[i], old_meta_d, old_meta_c,
                                   [float(row[f"r1_{j}"]) for j in (1, 2, 3)],
                                   [float(row[f"r2_{j}"]) for j in (1, 2, 3)])
        crit = fits.criteria[i]
        new_accurate = erfc_loglik(counts[i], fits.meta_d[i], crit[3], crit[:3], crit[4:])
        assert new_accurate >= old_accurate - LOGLIK_TOL, i
        if abs(old_meta_c) > 5 or abs(old_loglik - old_accurate) > RECORDED_OBJECTIVE_TOL:
            continue
        assert abs(fits.meta_d[i] - old_meta_d) <= META_D_TOL, i
        assert fits.log_likelihood[i] >= old_loglik - LOGLIK_TOL, i
        by_meta_d += 1
    assert len(rows) >= 1000 and by_meta_d >= 1000


def test_matches_previous_newton_fitter():
    _, counts = _golden()
    fits = meta_d_fit_batch(counts, *type1_batch(counts))
    with open(NEWTON_REFERENCE, encoding="utf-8") as fh:
        ref = list(csv.DictReader(fh))
    assert len(ref) == len(counts)
    meta_d = np.array([float(r["meta_d"]) for r in ref])
    loglik = np.array([float(r["log_likelihood"]) for r in ref])
    converged = np.array([r["converged"] == "1" for r in ref])
    assert np.abs(fits.meta_d - meta_d).max() <= NEWTON_META_D_TOL
    assert (np.abs(fits.log_likelihood - loglik) / np.abs(loglik)).max() <= NEWTON_LOGLIK_RTOL
    assert np.array_equal(fits.converged, converged)


def test_tail_table_reports_accurate_loglik():
    rows, counts = _golden()
    tail = [i for i, r in enumerate(rows) if abs(float(r["meta_c"])) > 5]
    checked = 0
    for i in tail:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = meta_d_fit(counts[i], type1_fit(counts[i]), PAD)
        if abs(fit.meta_c) <= 5:
            continue
        want = erfc_loglik(counts[i], fit.meta_d, fit.meta_c,
                           fit.t2_criteria_r1, fit.t2_criteria_r2)
        assert fit.log_likelihood == pytest.approx(want, rel=1e-9, abs=0.0), i
        checked += 1
    assert checked >= 10
