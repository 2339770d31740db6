import numpy as np
import pytest

from metadkit.binning import DEFAULT_PAD_VALUE, pad_counts
from metadkit.errors import InvalidConfig, UnsupportedFamily
from metadkit.nonparam import auroc2_arrays
from metadkit.sdt import meta_d_fit, type1_fit
from metadkit.synth import SynthConfig, generate, oracle_auroc2
from tests.oracles import oracle_meta_grid, predicted_count_table
from tests.test_nonparam import brute_force_auroc2


def test_degenerate_bernoulli():
    config = SynthConfig(n_trials=50, p_correct=1.0, seed=1)
    trials = generate(config)
    assert all(r.correct for r in trials)
    assert len(trials) == 50


def test_generation_is_deterministic():
    config = SynthConfig(n_trials=400, p_correct=0.6, seed=99)
    assert generate(config).records == generate(config).records
    other = SynthConfig(n_trials=400, p_correct=0.6, seed=100)
    assert generate(other).records != generate(config).records


def test_large_finite_draws_are_kept_as_drawn():
    """A draw is never clamped or redrawn: the column is the rng stream's."""
    config = SynthConfig(n_trials=300, p_correct=0.5, family="lognormal_skew",
                         mu_correct=0.9, sigma_correct=60.0, seed=1)
    rng = np.random.default_rng(1)
    correct = rng.random(300) < 0.5
    expected = np.empty(300)
    expected[correct] = 0.9 - rng.lognormal(0.0, 60.0, correct.sum())
    expected[~correct] = -1.0 - rng.lognormal(0.0, 1.0, (~correct).sum())
    assert generate(config).nlp_values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("family, sigma", [("lognormal_skew", 800.0), ("gaussian", 1e308)])
def test_draw_that_overflows_is_refused(family, sigma):
    config = SynthConfig(n_trials=600, p_correct=0.7, family=family, mu_correct=0.9,
                         sigma_correct=sigma, seed=1)
    with pytest.raises(InvalidConfig, match=f"the {family} family drew a non-finite nlp "
                                            "for the correct class"):
        generate(config)


def test_schema_conformance():
    trials = generate(SynthConfig(n_trials=20, p_correct=0.5, seed=3,
                                  domain="Arts", condition="2", format="q5_k_m"))
    rec = trials.records[0]
    assert rec.question_id == "q000001"
    assert rec.domain == "Arts" and rec.condition == "2" and rec.format == "q5_k_m"
    assert np.isfinite(rec.nlp)


def test_exchangeable_classes_give_half_auroc():
    config = SynthConfig(n_trials=10_000, p_correct=0.5, seed=21,
                         mu_correct=-0.5, mu_incorrect=-0.5)
    trials = generate(config)
    assert auroc2_arrays(trials.nlp_values, trials.correct_mask) == pytest.approx(0.5, abs=0.02)


def test_root2_gap_matches_closed_form():
    config = SynthConfig(n_trials=100_000, p_correct=0.5, seed=8,
                         mu_correct=float(np.sqrt(2)), mu_incorrect=0.0)
    assert oracle_auroc2(config) == pytest.approx(0.8413, abs=1e-4)
    trials = generate(config)
    assert auroc2_arrays(trials.nlp_values, trials.correct_mask) \
        == pytest.approx(oracle_auroc2(config), abs=0.01)


def test_oracle_auroc2_limits():
    base = dict(n_trials=100, p_correct=0.5, seed=0)
    assert oracle_auroc2(SynthConfig(mu_correct=0, mu_incorrect=0, **base)) == 0.5
    assert oracle_auroc2(SynthConfig(mu_correct=60, mu_incorrect=0, **base)) \
        == pytest.approx(1.0, abs=1e-12)


def test_oracle_auroc2_gaussian_only():
    with pytest.raises(UnsupportedFamily):
        oracle_auroc2(SynthConfig(n_trials=100, p_correct=0.5,
                                  family="lognormal_skew"))


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        SynthConfig(n_trials=100, p_correct=1.5).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(n_trials=0, p_correct=0.5).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(n_trials=100, p_correct=0.5, sigma_correct=0.0).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(n_trials=100, p_correct=0.5, family="cauchy").validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(n_trials=100, p_correct=0.5, family="mixture",
                    mix_weights_correct=(0.5, 0.6),
                    mix_means_correct=(0.0, 1.0),
                    mix_sigmas_correct=(1.0, 1.0),
                    mix_weights_incorrect=(1.0,),
                    mix_means_incorrect=(0.0,),
                    mix_sigmas_incorrect=(1.0,)).validate()


@pytest.mark.parametrize("family,kwargs", [
    ("lognormal_skew", dict(mu_correct=0.5, sigma_correct=0.8)),
    ("mixture", dict(mix_weights_correct=(0.7, 0.3),
                     mix_means_correct=(0.5, 2.0),
                     mix_sigmas_correct=(1.0, 0.4),
                     mix_weights_incorrect=(1.0,),
                     mix_means_incorrect=(0.0,),
                     mix_sigmas_incorrect=(1.0,))),
])
def test_non_gaussian_families_generate(family, kwargs):
    config = SynthConfig(n_trials=500, p_correct=0.6, family=family, seed=17,
                         **kwargs)
    trials = generate(config)
    assert len(trials) == 500
    # rank metric still agrees with its brute-force value on any family
    assert auroc2_arrays(trials.nlp_values, trials.correct_mask) \
        == brute_force_auroc2(trials.nlp_values, trials.correct_mask)


def test_skewed_family_breaks_efficiency_but_not_auroc():
    # on a non-gaussian family the equal-variance fit is misspecified, so
    # M-ratio drifts from 1 while the rank-based metric stays exact
    import warnings
    from metadkit.profiles import fit_cell_arrays
    config = SynthConfig(n_trials=40_000, p_correct=0.7, family="lognormal_skew",
                         mu_correct=1.4, mu_incorrect=0.0,
                         sigma_correct=0.6, sigma_incorrect=0.6, seed=5)
    trials = generate(config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_cell_arrays(trials.nlp_values, trials.correct_mask)
    assert abs(fit.m_ratio - 1.0) > 0.3
    small = generate(SynthConfig(n_trials=200, p_correct=0.7,
                                 family="lognormal_skew", mu_correct=1.4,
                                 mu_incorrect=0.0, sigma_correct=0.6,
                                 sigma_incorrect=0.6, seed=6))
    assert auroc2_arrays(small.nlp_values, small.correct_mask) \
        == brute_force_auroc2(small.nlp_values, small.correct_mask)


def test_grid_recovers_generating_meta_d():
    table = predicted_count_table(1.2, (1.2, 0.1), [0.5] * 3, [0.5] * 3, n=1e6)
    meta_d, _ = oracle_meta_grid(table, (1.2, 0.1))
    assert meta_d == pytest.approx(1.2, abs=0.002)


def test_grid_flat_table_is_zero():
    meta_d, _ = oracle_meta_grid(np.full((2, 8), 9.0), (0.7, 0.1))
    assert meta_d == pytest.approx(0.0, abs=1e-9)


def test_grid_never_beats_mle(rng):
    import warnings
    for seed in (301, 302, 303):
        r = np.random.default_rng(seed)
        table = pad_counts([r.integers(0, 25, 8), r.integers(0, 25, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t1 = type1_fit(table)
            if t1[0] == 0.0:
                continue
            fit = meta_d_fit(table, t1, DEFAULT_PAD_VALUE)
        _, grid_ll = oracle_meta_grid(table, t1)
        assert grid_ll <= fit.log_likelihood + 1e-6
