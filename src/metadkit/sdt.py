"""Equal-variance Gaussian SDT primitives and the metacognitive sensitivity fit.

The type-1 stage scores how well a median split of the confidence scale
separates correct from incorrect answers (d' and criterion c from the hit
and false-alarm rates of the upper half of the scale). The type-2 stage
fits meta-d': the sensitivity an ideal observer would need, under the same
equal-variance Gaussian model (sigma = 1 for both classes), to reproduce
the observed response-conditional rating counts (Maniscalco & Lau 2012).
The type-1 criterion is carried over in relative units,
meta_c = c * meta_d / d', and the free parameters are meta_d plus
2 * (n_ratings - 1) type-2 criteria.

Criteria are parameterized as meta_c minus/plus cumulative sums of
exponentiated gap parameters, which keeps them ordered without constrained
optimization; meta_d itself is the square of an unconstrained parameter,
so it can reach zero but never go negative. Bin masses come from the CDF
below zero and from the survival function above it, so the likelihood
keeps its digits when a criterion sits far in a tail.

The likelihood is maximized by a Newton solve that runs many tables at
once: a (B, 2, 2 * n_ratings) count tensor, its analytic gradient and
Hessian (its outer-product part one batched matmul), a step from the
Cholesky factor where the Hessian is positive definite and from its
eigendecomposition with the eigenvalues made positive elsewhere, so every
step goes downhill, and a per-row backtracking line search. A row stops
when the largest gradient component is at most GTOL; a row that stops
short of it (rounding stalls its line search, or the iteration cap)
counts as converged when its gradient norm is at most ACCEPT_GRAD or no
step the objective can resolve is left. Restarts (large |c'|, a fit at
the meta_d = 0 boundary) are extra rows, and each table keeps its best
row. meta_d_fit_batch serves the resamples; sdt_fits adds the warnings
and SdtFit results for the profiles and point estimates. A table's fit is
the same bit for bit alone or in any batch.

A count table is one (2, 2 * n_ratings) float array, row 0 incorrect,
with the pad value already added to every cell and passed alongside.
The scalar entries type1_fit and meta_d_fit take one such table, checked
by check_table, and are type1_batch and sdt_fits on a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtr, ndtri

from .binning import check_pad_value
from .errors import DegenerateResponse, NegativeMetaD, NumericalError, OutOfDomain, ZeroDPrime

PROB_CLAMP = 1e-12
LOW_DPRIME_THRESHOLD = 0.5
_SQRT_2PI = np.sqrt(2.0 * np.pi)
MAX_ITERATIONS = 100        # Newton steps per start
GTOL = 1e-9                 # max |gradient| of the mean NLL at convergence
ACCEPT_GRAD = 1e-7          # gradient norm that still counts as converged at a stop
HIGH_CPRIME = 1.5           # |c'| above which the anchored restarts run
AT_ZERO = 1e-6              # meta_d below this is reported as the bound 0
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
_MAX_STEP = 2.0             # largest Newton step component, in parameter units
_EIG_FLOOR = 1e-10          # smallest curvature, relative to the largest
_ROUNDING = 4.0 * np.finfo(float).eps   # relative rounding allowed in the objective


def phi(x):
    """Standard normal CDF (absolute error below 1e-12)."""
    return ndtr(x)


def phi_inv(p):
    """Inverse standard normal CDF on (0, 1).

    Callers working from empirical rates should clamp to
    [PROB_CLAMP, 1 - PROB_CLAMP] before calling.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise OutOfDomain(f"phi_inv requires p in (0, 1), got {p!r}")
    out = ndtri(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def _npdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class SdtFit:
    """Full type-1 + type-2 fit for one analysis cell."""

    d_prime: float
    criterion_c: float
    meta_d: float
    meta_c: float
    t2_criteria_r1: tuple[float, ...]   # descending, all < meta_c
    t2_criteria_r2: tuple[float, ...]   # ascending, all > meta_c
    m_ratio: float
    log_likelihood: float
    converged: bool = True
    iterations: int = 0
    low_dprime_warning: bool = False


def check_d_prime(d_prime: float) -> None:
    """Raise ZeroDPrime when d' is exactly zero: the relative criterion
    c / d' that the type-2 model inherits is undefined there."""
    if d_prime == 0.0:
        raise ZeroDPrime("meta-d' undefined at d' = 0")


def type1_batch(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median-split (d', c) of every padded table in ``counts`` (B, 2,
    2 * n_ratings), row 0 incorrect: d' = z(HR) - z(FAR) and
    c = -(z(HR) + z(FAR)) / 2, HR (FAR) being the upper-half mass of the
    correct (incorrect) class, clamped away from 0 and 1. Raises
    NumericalError when a class total is not positive."""
    totals = counts.sum(axis=2)
    if np.any(totals <= 0):
        raise NumericalError("both stimulus-class totals must be positive")
    rates = counts[:, :, counts.shape[2] // 2:].sum(axis=2) / totals
    z_far, z_hr = ndtri(np.clip(rates, PROB_CLAMP, 1.0 - PROB_CLAMP)).T
    return z_hr - z_far, -0.5 * (z_hr + z_far)


def check_table(counts) -> np.ndarray:
    """One count table from outside the pipeline as a (2, 2 * n_ratings)
    float array, row 0 incorrect; ValueError unless it has that shape with
    n_ratings >= 2 and finite, non-negative counts."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[0] != 2 or counts.shape[1] % 2 or counts.shape[1] < 4:
        raise ValueError(f"a count table is (2, 2 * n_ratings) with n_ratings >= 2, "
                         f"got shape {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("a count table needs finite, non-negative counts")
    return counts


def type1_fit(counts) -> tuple[float, float]:
    """type1_batch of one padded count table (check_table), as floats."""
    d_prime, criterion_c = type1_batch(check_table(counts)[None])
    return float(d_prime[0]), float(criterion_c[0])


def _criteria(meta_c, gaps_r1: np.ndarray, gaps_r2: np.ndarray) -> np.ndarray:
    """Ascending criteria [r1 side ..., meta_c, ... r2 side] along the last
    axis; ``meta_c`` is a scalar or one value per row of the gaps."""
    meta_c = np.asarray(meta_c, dtype=float)[..., None]
    lower = meta_c - np.cumsum(gaps_r1, axis=-1)[..., ::-1]
    upper = meta_c + np.cumsum(gaps_r2, axis=-1)
    return np.concatenate([lower, meta_c, upper], axis=-1)


def _bin_masses(z: np.ndarray):
    """Standard normal mass of each bin cut by the ascending points ``z``
    (last axis, m = 2k + 1 of them), and the masses below and above the
    middle point: (p (..., m + 1), q1, q2).

    A bin above zero is a difference of survival values and one below of
    CDF values, so neither loses its digits to 1 - (nearly 1) in a tail.
    """
    cdf, sf = ndtr(z), ndtr(-z)
    lead = z.shape[:-1] + (1,)
    zeros, ones = np.zeros(lead), np.ones(lead)
    from_cdf = np.diff(np.concatenate([zeros, cdf, ones], axis=-1), axis=-1)
    from_sf = -np.diff(np.concatenate([ones, sf, zeros], axis=-1), axis=-1)
    lower_edge = np.concatenate([np.full(lead, -np.inf), z], axis=-1)
    k = z.shape[-1] // 2
    return np.where(lower_edge >= 0.0, from_sf, from_cdf), cdf[..., k], sf[..., k]


def _nll_and_grad(theta: np.ndarray, counts: np.ndarray, cprime, order: int = 1):
    """Negative mean conditional log-likelihood, per row, and its
    derivatives up to ``order`` (0: value, 1: + gradient, 2: + Hessian).

    theta (B, 1 + 2k) = [t, a_1..a_k, b_1..b_k]; meta_d = t**2, criteria
    gaps are exp(a) below meta_c and exp(b) above. counts (B, 2, 2k + 2),
    cprime (B,). The mean (per-trial) scale makes the objective invariant
    under count rescaling.
    """
    n_bins = counts.shape[-1]
    k = n_bins // 2 - 1
    m = 2 * k + 1
    t = theta[:, 0]
    ga = np.exp(theta[:, 1:1 + k])
    gb = np.exp(theta[:, 1 + k:])
    meta_d = t * t
    crit = _criteria(cprime * meta_d, ga, gb)                      # (B, m)
    sign = np.array([-1.0, 1.0])                                   # class mean = sign * meta_d / 2
    z = crit[:, None, :] - 0.5 * sign[None, :, None] * meta_d[:, None, None]   # (B, 2, m)
    p, q1, q2 = _bin_masses(z)
    q1 = np.maximum(q1, 1e-300)
    q2 = np.maximum(q2, 1e-300)
    q = np.concatenate([np.repeat(q1[..., None], k + 1, axis=-1),
                        np.repeat(q2[..., None], k + 1, axis=-1)], axis=-1)

    # the conditional probability p / q is the model quantity: clamp the
    # ratio, never the pieces, or a vanishing response side would
    # contribute log(clamp) - log(clamp) = 0 and extreme criteria would
    # look free
    cond = p / q
    active = cond > PROB_CLAMP
    total = counts.sum(axis=(1, 2))
    nll = -(counts * np.log(np.maximum(cond, PROB_CLAMP))).sum(axis=(1, 2)) / total
    if order == 0:
        return nll

    # derivatives of the criteria and of the class means; both are
    # diagonal in their second derivatives
    n, n_par = len(t), 1 + 2 * k
    lower_mask = np.arange(m)[:, None] < k - np.arange(k)[None, :]      # a_j moves C_i
    upper_mask = np.arange(m)[:, None] >= k + 1 + np.arange(k)[None, :]  # b_j moves C_i
    dC = np.empty((n, m, n_par))
    dC[:, :, 0] = (2.0 * cprime * t)[:, None]
    dC[:, :, 1:1 + k] = lower_mask * -ga[:, None, :]
    dC[:, :, 1 + k:] = upper_mask * gb[:, None, :]
    dz = np.repeat(dC[:, None], 2, axis=1)                             # (B, 2, m, P)
    dz[..., 0] -= sign[None, :, None] * t[:, None, None]
    pdf = _npdf(z)

    n_act = counts * active
    n_lower = n_act[..., :k + 1].sum(axis=-1)
    n_upper = n_act[..., k + 1:].sum(axis=-1)
    p_safe = np.where(active, p, 1.0)
    # S = sum_b n_b log p_b - n_lower log q1 - n_upper log q2 with
    # dp_b = dF_b - dF_{b-1}, dq1 = -dq2 = dF_k and dF_i = pdf_i dz_i, so
    # dS = sum_i weight_i dz_i; p and q may underflow where p / q and
    # pdf / p do not, so every term is formed from those ratios
    weight = (n_act[..., :-1] * (pdf / p_safe[..., :-1])
              - n_act[..., 1:] * (pdf / p_safe[..., 1:]))
    weight[..., k] -= n_lower * (pdf[..., k] / q1) - n_upper * (pdf[..., k] / q2)
    d_s = (weight[..., None] * dz).sum(axis=(1, 2))
    grad = -d_s / total[:, None]
    if order == 1:
        return nll, grad

    # d2F_i = pdf_i (diag(d2z_i) - z_i dz_i dz_i^T), and the outer products
    # of d log p and d log q. d2z_i is diagonal: 2 c' - sign for t, and a
    # gap's second derivative equals its first, so sum_i weight_i d2z_i is
    # dS but for t. Every outer product is a row of X, weighted by w, so
    # their sum is the one batched matmul X^T diag(w) X.
    dF = pdf[..., None] * dz
    x = np.empty((n, 4 * m + 6, n_par))
    x[:, :2 * m] = dz.reshape(n, 2 * m, n_par)
    dlog_p = x[:, 2 * m:4 * m + 2].reshape(n, 2, n_bins, n_par)
    dlog_p[:, :, :m] = dF
    dlog_p[:, :, m] = 0.0
    dlog_p[:, :, 1:] -= dF
    dlog_p /= p_safe[..., None]
    x[:, 4 * m + 2:4 * m + 4] = dF[:, :, k] / q1[..., None]
    x[:, 4 * m + 4:] = dF[:, :, k] / q2[..., None]
    w = np.concatenate([-(weight * z).reshape(n, 2 * m), -n_act.reshape(n, 2 * n_bins),
                        n_lower, n_upper], axis=1)
    del dC, dz, dF, dlog_p, q, cond, pdf     # freed before the product, which peaks
    hess = np.swapaxes(x, 1, 2) @ (w[..., None] * x)
    d2_s = d_s.copy()
    d2_s[:, 0] = 2.0 * cprime * weight.sum(axis=(1, 2)) - (weight[:, 1] - weight[:, 0]).sum(axis=1)
    hess[:, np.arange(n_par), np.arange(n_par)] += d2_s
    hess = -hess / total[:, None, None]
    return nll, grad, hess


def _quantile_criteria(counts: np.ndarray) -> np.ndarray:
    """Criterion estimates from the pooled cumulative bin proportions of
    each (2, n_bins) table in ``counts`` (..., 2, n_bins)."""
    pooled = counts.sum(axis=-2)
    cum = np.cumsum(pooled, axis=-1)[..., :-1] / pooled.sum(axis=-1, keepdims=True)
    return ndtri(np.clip(cum, PROB_CLAMP, 1.0 - PROB_CLAMP))


def _anchored_gaps(est: np.ndarray, meta_c0) -> tuple[np.ndarray, np.ndarray]:
    """Gap parameters that place the criteria at the quantile estimates
    ``est`` (..., 2k + 1) while the median boundary sits at meta_c0 (gaps
    on an infeasible side collapse to a floor)."""
    k = est.shape[-1] // 2
    meta_c0 = np.asarray(meta_c0, dtype=float)[..., None]
    gaps_r1 = np.diff(np.concatenate([est[..., :k], meta_c0], axis=-1), axis=-1)[..., ::-1]
    gaps_r2 = np.diff(np.concatenate([meta_c0, est[..., k + 1:]], axis=-1), axis=-1)
    return np.maximum(gaps_r1, 1e-3), np.maximum(gaps_r2, 1e-3)


def _start(est: np.ndarray, meta_d0: np.ndarray, meta_c0: np.ndarray) -> np.ndarray:
    """Parameter rows starting at meta_d0 with the criteria at ``est``
    around meta_c0."""
    gaps_r1, gaps_r2 = _anchored_gaps(est, meta_c0)
    return np.concatenate([np.sqrt(meta_d0)[:, None], np.log(gaps_r1), np.log(gaps_r2)],
                          axis=1)


def _cholesky_solve(hess: np.ndarray, rhs: np.ndarray):
    """Solve hess x = rhs on every row whose matrix has a Cholesky factor
    with each pivot above _EIG_FLOOR of its largest diagonal entry.

    Returns (x, factored); x is meaningless where factored is False. The
    factor is built a column at a time across all rows with elementwise
    operations only, so a row's result never depends on the other rows.
    """
    a = hess.transpose(1, 2, 0).copy()        # (P, P, B): rows along the last axis
    x = rhs.T.copy()
    n = len(a)
    least = _EIG_FLOOR * np.abs(np.diagonal(hess, axis1=1, axis2=2)).max(axis=1)
    factored = np.ones(len(hess), dtype=bool)
    for j in range(n):
        failed = factored & ~(a[j, j] > least)
        if failed.any():                # such a row runs on to the end harmlessly
            factored &= ~failed
            a[:, :, failed] = np.eye(n)[:, :, None]
        col = a[j:, j] / np.sqrt(a[j, j])
        a[j:, j] = col
        a[j + 1:, j + 1:] -= col[1:, None] * col[None, 1:]
        x[j] /= col[0]
        x[j + 1:] -= col[1:] * x[j]
    for j in range(n - 1, -1, -1):
        x[j] /= a[j, j]
        x[:j] -= a[j, :j] * x[j]
    return x.T, factored


def _descent_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton step of each row: -H^-1 g from the Cholesky factor of its
    Hessian where _cholesky_solve finds one, otherwise (eigh) the step on
    the Hessian with its eigenvalues replaced by their absolute values,
    floored at _EIG_FLOOR of the largest. Either way the step points
    downhill, and a row's step does not depend on the other rows."""
    step, factored = _cholesky_solve(hess, -grad)
    other = np.flatnonzero(~factored)
    if other.size:
        lam, vec = np.linalg.eigh(hess[other])
        lam = np.abs(lam)
        lam = np.maximum(lam, _EIG_FLOOR * lam.max(axis=1, keepdims=True) + 1e-300)
        g = grad[other]
        step[other] = -(vec * ((vec * g[:, :, None]).sum(axis=1) / lam)[:, None, :]).sum(axis=2)
    return step


def _newton(theta: np.ndarray, counts: np.ndarray, cprime: np.ndarray):
    """Minimize the mean NLL from every row of ``theta`` independently.

    Returns (theta, nll, converged, iterations) per row. A step is the
    _descent_step (Cholesky first, eigh otherwise), capped at _MAX_STEP
    per component and halved until it meets the Armijo condition; the
    condition allows the objective's own rounding, so a row near its
    optimum still steps when the predicted decrease is below machine
    precision. A row runs until its largest
    gradient component is within GTOL, its line search finds no
    acceptable step, or MAX_ITERATIONS. A row that stops short of GTOL
    still counts as converged when its gradient norm is within
    ACCEPT_GRAD, or when the decrease a full step predicts is within the
    objective's rounding: no step the objective can resolve is left.
    """
    theta = theta.copy()
    nll, grad, hess = _nll_and_grad(theta, counts, cprime, order=2)
    iterations = np.zeros(len(theta), dtype=np.int64)
    converged = np.abs(grad).max(axis=1) <= GTOL
    running = ~converged
    while True:
        rows = np.flatnonzero(running & (iterations < MAX_ITERATIONS))
        if rows.size == 0:
            break
        step = _descent_step(grad[rows], hess[rows])
        step *= np.minimum(1.0, _MAX_STEP / np.abs(step).max(axis=1))[:, None]
        slope = (grad[rows] * step).sum(axis=1)
        f0 = nll[rows]
        slack = _ROUNDING * np.abs(f0)
        alpha = np.ones(rows.size)
        todo = np.arange(rows.size)
        for _ in range(_MAX_HALVINGS):
            r = rows[todo]
            f = _nll_and_grad(theta[r] + alpha[todo, None] * step[todo], counts[r], cprime[r],
                              order=0)
            ok = f <= f0[todo] + _ARMIJO * alpha[todo] * slope[todo] + slack[todo]
            todo = todo[~ok]
            if todo.size == 0:
                break
            alpha[todo] *= 0.5
        stalled = np.zeros(rows.size, dtype=bool)
        stalled[todo] = True
        moved = rows[~stalled]
        running[rows[stalled]] = False
        theta[moved] += alpha[~stalled, None] * step[~stalled]
        iterations[moved] += 1
        nll[moved], grad[moved], hess[moved] = _nll_and_grad(theta[moved], counts[moved],
                                                             cprime[moved], order=2)
        converged[moved] = np.abs(grad[moved]).max(axis=1) <= GTOL
        running[moved] = ~converged[moved]
    short = np.flatnonzero(~converged)
    if short.size:
        g = grad[short]
        predicted = -(g * _descent_step(g, hess[short])).sum(axis=1)
        converged[short] = ((np.linalg.norm(g, axis=1) <= ACCEPT_GRAD)
                            | (predicted <= _ROUNDING * np.abs(nll[short])))
    return theta, nll, converged, iterations


@dataclass(frozen=True)
class BatchFit:
    """meta-d' fits of B tables: arrays with one entry (or row) per table."""

    meta_d: np.ndarray            # 0 at the lower bound
    criteria: np.ndarray          # (B, 2k + 1) ascending, meta_c in the middle
    log_likelihood: np.ndarray    # count-weighted
    converged: np.ndarray
    iterations: np.ndarray        # Newton steps over all of a table's starts


def meta_d_fit_batch(counts: np.ndarray, d_prime: np.ndarray,
                     criterion_c: np.ndarray) -> BatchFit:
    """Maximum-likelihood meta-d' of every padded table in ``counts``
    (B, 2, 2 * n_ratings): row 0 incorrect, row 1 correct.

    ``d_prime`` and ``criterion_c`` (B,) are each table's type-1 fit and
    must be non-zero d'. Every table starts at meta_d = max(|d'|, 0.05)
    with its criteria at the pooled quantile estimates. A large relative
    criterion (|c'| > HIGH_CPRIME) makes meta_c = c' meta_d sweep far with
    meta_d and splits the surface into basins, so such a table also
    starts at meta_d = 0.3, 1.0 and 2.5 with the criteria re-anchored
    around each start's meta_c. The squared parameterization makes
    meta_d = 0 a stationary point even where the likelihood still rises
    with meta_d, so a table whose best fit lands there starts again at
    0.3 and max(1, 2 meta_d0). Each table keeps its best start (the first
    one on a tie). Emits no warnings; sdt_fits adds those.
    """
    counts = np.asarray(counts, dtype=float)
    d_prime = np.asarray(d_prime, dtype=float)
    cprime = np.asarray(criterion_c, dtype=float) / d_prime
    n = len(counts)
    est = _quantile_criteria(counts)
    k = est.shape[1] // 2
    meta_d0 = np.maximum(np.abs(d_prime), 0.05)

    # starts: (table, meta_d0, anchored); primary rows first, so ties keep them
    tables = [np.arange(n)]
    starts = [meta_d0]
    anchored = [np.zeros(n, dtype=bool)]
    high = np.flatnonzero(np.abs(cprime) > HIGH_CPRIME)
    for restart in (0.3, 1.0, 2.5):
        tables.append(high)
        starts.append(np.full(high.size, restart))
        anchored.append(np.ones(high.size, dtype=bool))

    def solve(tables, starts, anchored):
        tables, starts, anchored = map(np.concatenate, (tables, starts, anchored))
        meta_c0 = np.where(anchored, cprime[tables] * starts, est[tables, k])
        return (tables,) + _newton(_start(est[tables], starts, meta_c0), counts[tables],
                                   cprime[tables])

    def best(rows_table, nll):
        """Index of the lowest-NLL row of each table (first on a tie)."""
        order = np.lexsort((np.arange(len(nll)), nll, rows_table))
        return order[np.diff(rows_table[order], prepend=-1) != 0]

    rows_table, theta, nll, converged, iterations = solve(tables, starts, anchored)
    at_zero = np.flatnonzero(theta[best(rows_table, nll), 0] ** 2 < AT_ZERO)
    if at_zero.size:
        extra = solve([at_zero, at_zero],
                      [np.full(at_zero.size, 0.3), np.maximum(1.0, 2.0 * meta_d0[at_zero])],
                      [np.zeros(2 * at_zero.size, dtype=bool)])
        rows_table, theta, nll, converged, iterations = (
            np.concatenate([a, b]) for a, b in zip(
                (rows_table, theta, nll, converged, iterations), extra))

    pick = best(rows_table, nll)
    theta = theta[pick]
    meta_d = theta[:, 0] ** 2
    meta_d = np.where(meta_d < AT_ZERO, 0.0, meta_d)
    criteria = _criteria(cprime * meta_d, np.exp(theta[:, 1:1 + k]), np.exp(theta[:, 1 + k:]))
    return BatchFit(meta_d=meta_d, criteria=criteria,
                    log_likelihood=-nll[pick] * counts.sum(axis=(1, 2)),
                    converged=converged[pick],
                    iterations=np.bincount(rows_table, weights=iterations,
                                           minlength=n).astype(np.int64))


def _one_response_side(counts: np.ndarray, pad_value: float) -> np.ndarray:
    """Whether all of each padded table's raw mass lies on one response side."""
    half = counts.shape[2] // 2
    pad = 2 * half * pad_value
    lower_raw = counts[:, 0, :half].sum(axis=1) + counts[:, 1, :half].sum(axis=1) - pad
    upper_raw = counts[:, 0, half:].sum(axis=1) + counts[:, 1, half:].sum(axis=1) - pad
    return np.minimum(lower_raw, upper_raw) <= 1e-12


def sdt_fits(counts: np.ndarray, d_prime, criterion_c, pad_value: float) -> Iterator[SdtFit]:
    """The SdtFit of every table in ``counts`` (B, 2, 2 * n_ratings), each
    padded by ``pad_value`` and with its type-1 (d', c), d' not 0, from one
    meta_d_fit_batch solve. ValueError unless pad_value passes
    binning.check_pad_value and is at most the smallest cell: a table
    padded by it holds no cell below it.

    An iterator: the solve runs at the first fit taken, and each table's
    DegenerateResponse and NegativeMetaD warnings as its fit is taken, so a
    caller that takes the fits one at a time between warnings of its own
    emits them all in the order fitting one table at a time would.
    """
    check_pad_value(pad_value)
    if pad_value > counts.min(initial=np.inf):
        raise ValueError(f"pad_value {pad_value} exceeds the smallest cell "
                         f"{counts.min()} of a table padded by it")
    fit = meta_d_fit_batch(counts, d_prime, criterion_c)
    one_side = _one_response_side(counts, pad_value)
    k = counts.shape[2] // 2 - 1
    for i, crit in enumerate(fit.criteria):
        if one_side[i]:
            warnings.warn("all raw mass on one response side; type-2 criteria on the "
                          "empty side are weakly identified", DegenerateResponse, stacklevel=2)
        meta_d, d = float(fit.meta_d[i]), float(d_prime[i])
        if meta_d == 0.0:
            warnings.warn("fitted meta-d' is at its lower bound of 0; confidence carried "
                          "no (or anti-) information", NegativeMetaD, stacklevel=2)
        yield SdtFit(d_prime=d, criterion_c=float(criterion_c[i]), meta_d=meta_d,
                     meta_c=float(crit[k]), t2_criteria_r1=tuple(map(float, crit[:k][::-1])),
                     t2_criteria_r2=tuple(map(float, crit[k + 1:])), m_ratio=meta_d / d,
                     log_likelihood=float(fit.log_likelihood[i]),
                     converged=bool(fit.converged[i]), iterations=int(fit.iterations[i]),
                     low_dprime_warning=bool(d < LOW_DPRIME_THRESHOLD))


def meta_d_fit(counts, type1: tuple[float, float], pad_value: float) -> SdtFit:
    """Maximum-likelihood meta-d' of one count table (check_table) padded
    by ``pad_value``, under the equal-variance model: sdt_fits of one.

    ``type1`` is the (d_prime, criterion_c) pair whose relative criterion
    the type-2 model inherits. Returns the full SdtFit; a solve that
    stops short of convergence (see _newton) returns the best point found
    with converged=False.
    """
    d_prime, criterion_c = float(type1[0]), float(type1[1])
    check_d_prime(d_prime)
    return next(sdt_fits(check_table(counts)[None], [d_prime], [criterion_c], pad_value))
