"""Parametric generators of confidence/correctness trials.

Synthetic cells give the estimators a known truth: the gaussian family's
Type-2 AUROC has a closed form (oracle_auroc2), and on equal-variance
gaussian data the full pipeline must recover M-ratio = 1. The emitted
records use the standard trial schema, so synthetic and real data are
interchangeable everywhere. Only the generator and its closed-form target
live here; the meta-d' search that checks the fitter is test code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, UnsupportedFamily
from .sdt import phi
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
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        for name in ("mu_correct", "mu_incorrect", "sigma_correct", "sigma_incorrect"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
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
                if not all(map(math.isfinite, (*w, *m, *s))):
                    raise InvalidConfig(f"mixture parameters for {side} must be finite")
                if any(x < 0 for x in w):
                    raise InvalidConfig(f"mixture weights for {side} must be >= 0")
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
    # draw per class in a fixed order so the stream is reproducible
    for side, rows in (("correct", correct), ("incorrect", ~correct)):
        drawn = _draw_class(rng, config, int(rows.sum()), side)
        if not np.isfinite(drawn).all():
            raise InvalidConfig(f"the {config.family} family drew a non-finite nlp for the "
                                f"{side} class: its parameters are too large to draw")
        nlp[rows] = drawn
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
