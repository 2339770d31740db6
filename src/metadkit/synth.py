"""Parametric generators of confidence/correctness trials.

These serve as ground-truth oracles for the estimators: the gaussian
family has closed-form AUROC, and on equal-variance gaussian data the
full pipeline must recover M-ratio = 1. The emitted records use the
standard trial schema, so synthetic and real data are interchangeable
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, UnsupportedFamily
from .sdt import (PROB_CLAMP, _anchored_gaps, _bin_masses, _criteria, _quantile_criteria,
                  check_table, phi)
from .trialstore import TrialSet

FAMILIES = ("gaussian", "lognormal_skew", "mixture")


@dataclass(frozen=True)
class SynthConfig:
    """Correctness-conditional confidence model for one synthetic cell.

    gaussian:        nlp | class ~ Normal(mu, sigma)
    lognormal_skew:  nlp | class ~ mu - LogNormal(0, sigma); a long lower
                     tail, so the class distributions are skewed while the
                     sigma parameter still controls spread
    mixture:         per-class Gaussian mixture with the mix_* parameters
    """

    n_trials: int
    p_correct: float
    family: str = "gaussian"
    mu_correct: float = 0.0
    mu_incorrect: float = -1.0
    sigma_correct: float = 1.0
    sigma_incorrect: float = 1.0
    mix_weights_correct: tuple[float, ...] = ()
    mix_means_correct: tuple[float, ...] = ()
    mix_sigmas_correct: tuple[float, ...] = ()
    mix_weights_incorrect: tuple[float, ...] = ()
    mix_means_incorrect: tuple[float, ...] = ()
    mix_sigmas_incorrect: tuple[float, ...] = ()
    domain: str = "Synthetic"
    condition: str = "1"
    format: str = "synth"
    seed: int = 0

    def validate(self) -> None:
        # n_trials only needs to be generable here; the 2 * n_bins floor is
        # a binning precondition and is enforced where binning happens
        if self.family not in FAMILIES:
            raise InvalidConfig(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n_trials < 1:
            raise InvalidConfig(f"n_trials must be >= 1, got {self.n_trials}")
        if not 0.0 <= self.p_correct <= 1.0:
            raise InvalidConfig(f"p_correct must be in [0, 1], got {self.p_correct}")
        if self.family != "mixture":
            if self.sigma_correct <= 0 or self.sigma_incorrect <= 0:
                raise InvalidConfig("sigmas must be positive")
        else:
            for side in ("correct", "incorrect"):
                w = getattr(self, f"mix_weights_{side}")
                m = getattr(self, f"mix_means_{side}")
                s = getattr(self, f"mix_sigmas_{side}")
                if not (len(w) == len(m) == len(s)) or len(w) == 0:
                    raise InvalidConfig(f"mixture parameters for {side} must be "
                                        "non-empty and equal-length")
                if abs(sum(w) - 1.0) > 1e-9:
                    raise InvalidConfig(f"mixture weights for {side} must sum to 1")
                if any(x <= 0 for x in s):
                    raise InvalidConfig(f"mixture sigmas for {side} must be positive")


def _draw_class(rng: np.random.Generator, config: SynthConfig, n: int, side: str) -> np.ndarray:
    if config.family == "gaussian":
        mu = getattr(config, f"mu_{side}")
        sigma = getattr(config, f"sigma_{side}")
        return rng.normal(mu, sigma, n)
    if config.family == "lognormal_skew":
        mu = getattr(config, f"mu_{side}")
        sigma = getattr(config, f"sigma_{side}")
        return mu - rng.lognormal(0.0, sigma, n)
    weights = np.array(getattr(config, f"mix_weights_{side}"))
    means = np.array(getattr(config, f"mix_means_{side}"))
    sigmas = np.array(getattr(config, f"mix_sigmas_{side}"))
    comp = rng.choice(len(weights), size=n, p=weights)
    return rng.normal(means[comp], sigmas[comp])


def generate(config: SynthConfig) -> TrialSet:
    """Deterministic synthetic TrialSet: same config, identical output."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    correct = rng.random(config.n_trials) < config.p_correct
    nlp = np.empty(config.n_trials)
    n_correct = int(correct.sum())
    # draw per class in a fixed order so the stream is reproducible
    nlp[correct] = _draw_class(rng, config, n_correct, "correct")
    nlp[~correct] = _draw_class(rng, config, config.n_trials - n_correct, "incorrect")
    n = config.n_trials
    return TrialSet.from_columns({
        "question_id": [f"q{i + 1:06d}" for i in range(n)],
        "domain": [config.domain] * n, "condition": [config.condition] * n,
        "format": [config.format] * n, "correct": correct, "nlp": nlp})


def oracle_auroc2(config: SynthConfig) -> float:
    """Closed-form Type-2 AUROC for the gaussian family."""
    if config.family != "gaussian":
        raise UnsupportedFamily("closed-form AUROC exists only for gaussian")
    gap = config.mu_correct - config.mu_incorrect
    spread = np.sqrt(config.sigma_correct ** 2 + config.sigma_incorrect ** 2)
    return float(phi(gap / spread))


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
    Intended for tests, not production; scipy.optimize is imported here
    so that importing the package does not load it.
    """
    from scipy.optimize import minimize

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
