"""Reference computations the tests hold the package against.

Nothing here runs in the pipeline. ``oracle_meta_grid`` is the exhaustive
meta-d' search that checks the fitter's MLE; its fixed-meta-d' likelihood
is its own code, not the fitter's ``sdt._nll_and_grad``, so that the two
are independent. ``predicted_count_table`` builds exact model-implied
count tables for the generative checks.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from metadkit.sdt import (PROB_CLAMP, _anchored_gaps, _bin_masses, _criteria,
                          _quantile_criteria, check_d_prime, check_table)


def predicted_count_table(meta_d: float, type1: tuple[float, float],
                          gaps_r1: np.ndarray | list, gaps_r2: np.ndarray | list,
                          n: float, p_correct: float = 0.5,
                          n_ratings: int = 4) -> np.ndarray:
    """Exact model-implied (2, 2 * n_ratings) count table, row 0
    incorrect, scaled to n trials.

    The generative check for the fitter: feeding this table back to
    meta_d_fit with the same ``type1`` and pad_value 0 must recover
    ``meta_d``. Criteria sit at meta_c = c * meta_d / d' plus/minus the
    given positive gaps. Cells hold expected (fractional) counts.
    """
    d_prime, criterion_c = float(type1[0]), float(type1[1])
    check_d_prime(d_prime)
    k = n_ratings - 1
    gaps_r1 = np.asarray(gaps_r1, dtype=float)
    gaps_r2 = np.asarray(gaps_r2, dtype=float)
    if gaps_r1.shape != (k,) or gaps_r2.shape != (k,) or np.any(gaps_r1 <= 0) or np.any(gaps_r2 <= 0):
        raise ValueError(f"need {k} positive gaps per side")
    meta_c = (criterion_c / d_prime) * meta_d
    crit = _criteria(meta_c, gaps_r1, gaps_r2)
    mus = np.array([-0.5 * meta_d, 0.5 * meta_d])
    joint = _bin_masses(crit[None, :] - mus[:, None])[0]
    weights = np.array([1.0 - p_correct, p_correct])
    return joint * weights[:, None] * n


def _nll_fixed_meta_d(ab: np.ndarray, meta_d: float, counts: np.ndarray, cprime: float) -> float:
    """Mean response-conditional NLL with meta_d held fixed: the oracle's
    criteria-only search. Each bin's Gaussian mass is divided by the mass
    of its response side, floored at 1e-300 as in ``sdt._nll_and_grad``,
    and the ratio is clamped at PROB_CLAMP. Where a side's true mass is a
    normal float below 1e-300 the floor scales the ratio down, so the
    oracle shares the fitter's far-tail error (ROADMAP item 8)."""
    k = counts.shape[1] // 2 - 1
    crit = _criteria(cprime * meta_d, np.exp(ab[:k]), np.exp(ab[k:]))
    mus = np.array([-0.5 * meta_d, 0.5 * meta_d])
    p, q1, q2 = _bin_masses(crit[None, :] - mus[:, None])
    cond = p / np.maximum(np.repeat(np.stack([q1, q2], axis=1), k + 1, axis=1), 1e-300)
    return -float((counts * np.log(np.maximum(cond, PROB_CLAMP))).sum()) / counts.sum()


def oracle_meta_grid(counts, type1: tuple[float, float],
                     coarse_step: float = 0.05, fine_step: float = 0.001,
                     upper: float = 3.0) -> tuple[float, float]:
    """Exhaustive meta-d' grid search of one padded count table
    (sdt.check_table), the independent check on the MLE.

    Scans meta_d over [0, upper] coarse-to-fine (fine_step matching the
    advertised 0.001 resolution), re-optimizing the type-2 criteria at
    every grid point with a derivative-free simplex warm-started from the
    previous point. Returns (meta_d, count-weighted log-likelihood).
    """
    d_prime, criterion_c = float(type1[0]), float(type1[1])
    cprime = criterion_c / d_prime
    counts = check_table(counts)
    est = _quantile_criteria(counts)
    g1, g2 = _anchored_gaps(est, est[counts.shape[1] // 2 - 1])
    fresh = np.log(np.concatenate([g1, g2]))

    def inner(meta_d: float, warm: np.ndarray) -> tuple[float, np.ndarray]:
        # the warm-start chain is fast but can drift into a clamped-flat
        # region on extreme tables; a fresh start from the quantile
        # estimate guards every grid point against inherited stalls
        best_fun, best_ab = np.inf, warm
        for start in (warm, fresh):
            res = minimize(_nll_fixed_meta_d, start, args=(meta_d, counts, cprime),
                           method="Nelder-Mead",
                           options={"fatol": 1e-12, "xatol": 1e-9, "maxiter": 4000})
            if res.fun < best_fun:
                best_fun, best_ab = float(res.fun), res.x
        return best_fun, best_ab

    ab = fresh
    best_fun, best_md, best_ab = np.inf, 0.0, ab
    for md in np.arange(0.0, upper + 1e-12, coarse_step):
        fun, ab = inner(float(md), ab)
        if fun < best_fun:
            best_fun, best_md, best_ab = fun, float(md), ab

    lo = max(0.0, best_md - coarse_step)
    hi = min(upper, best_md + coarse_step)
    ab = best_ab
    for md in np.arange(lo, hi + 1e-12, fine_step):
        fun, ab = inner(float(md), ab)
        if fun < best_fun:
            best_fun, best_md = fun, float(md)

    return best_md, float(-best_fun * counts.sum())
