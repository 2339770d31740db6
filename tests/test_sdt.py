import warnings

import numpy as np
import pytest

from metadkit.binning import pad_counts
from metadkit.errors import NegativeMetaD, OutOfDomain, ZeroDPrime
from metadkit.sdt import (
    _nll_and_grad,
    meta_d_fit,
    meta_d_fit_batch,
    phi,
    phi_inv,
    type1_fit,
)
from tests.oracles import oracle_meta_grid, predicted_count_table

PAD = 0.5


def padded(counts_incorrect, counts_correct):
    return pad_counts([counts_incorrect, counts_correct], PAD)


def random_padded_table(seed, lo=0, hi=30):
    r = np.random.default_rng(seed)
    return padded(r.integers(lo, hi, 8), r.integers(lo, hi, 8))


# -- phi / phi_inv -------------------------------------------------------------

def test_phi_at_zero():
    assert phi(0.0) == pytest.approx(0.5, abs=1e-15)


def test_phi_symmetry(rng):
    for x in rng.normal(0, 2, 20):
        assert phi(x) + phi(-x) == pytest.approx(1.0, abs=1e-12)


def test_phi_reference_value():
    # 0.975 quantile of the standard normal, cross-checked against the
    # published 1.959964 critical value
    assert phi(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_phi_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in np.linspace(-8.0, 8.0, 161):
        exact = float(mpmath.ncdf(mpmath.mpf(float(x))))
        assert abs(phi(float(x)) - exact) <= 1e-12


def test_phi_inv_at_half():
    assert phi_inv(0.5) == pytest.approx(0.0, abs=1e-12)


def test_phi_inv_reference_value():
    assert phi_inv(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_phi_round_trip():
    xs = np.linspace(-6.0, 6.0, 241)
    back = np.array([phi_inv(float(phi(x))) for x in xs])
    assert np.max(np.abs(back - xs)) <= 1e-8


def test_phi_inv_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(OutOfDomain):
            phi_inv(bad)


# -- type-1 fit ----------------------------------------------------------------

def test_type1_symmetric_counts_give_zero_criterion(rng):
    vec = rng.integers(0, 20, 8).astype(float)
    table = padded(vec[::-1], vec)
    d, c = type1_fit(table)
    assert c == pytest.approx(0.0, abs=1e-12)


def test_type1_hand_computed_example():
    table = padded([5, 5, 5, 5, 0, 0, 0, 0], [0, 0, 0, 0, 5, 5, 5, 5])
    d, c = type1_fit(table)
    # HR = 22/24, FAR = 2/24; both z-scores computed through phi_inv
    expected = 2 * phi_inv(22.0 / 24.0)
    assert d == pytest.approx(expected, abs=1e-12)
    assert d == pytest.approx(2.766, abs=2e-3)
    assert c == pytest.approx(0.0, abs=1e-12)


BAD_TABLES = {
    "one row": np.ones(8),
    "three rows": np.ones((3, 8)),
    "a batch": np.ones((1, 2, 8)),
    "odd width": np.ones((2, 7)),
    "one rating": np.ones((2, 2)),
    "negative": np.r_[np.ones(15), -0.5].reshape(2, 8),
    "nan": np.r_[np.ones(15), np.nan].reshape(2, 8),
    "inf": np.r_[np.ones(15), np.inf].reshape(2, 8),
}
TABLE_ENTRIES = {
    "type1_fit": type1_fit,
    "meta_d_fit": lambda counts: meta_d_fit(counts, (0.7, 0.1), PAD),
    "oracle_meta_grid": lambda counts: oracle_meta_grid(counts, (0.7, 0.1)),
}


@pytest.mark.parametrize("entry", TABLE_ENTRIES)
@pytest.mark.parametrize("bad", BAD_TABLES)
def test_table_entries_reject_a_malformed_table(entry, bad):
    with pytest.raises(ValueError, match="count table"):
        TABLE_ENTRIES[entry](BAD_TABLES[bad])


# -- meta-d fit ----------------------------------------------------------------

def test_flat_type2_table_gives_zero_meta_d():
    # identical rating distribution for both classes within each response
    with pytest.warns(NegativeMetaD):
        fit = meta_d_fit(np.full((2, 8), 12.0), (0.8, 0.1), 0.0)
    assert abs(fit.meta_d) <= 0.01


def test_self_consistency_recovers_generating_meta_d():
    table = predicted_count_table(1.2, (1.2, 0.1), [0.5] * 3, [0.5] * 3, n=1e6)
    fit = meta_d_fit(table, (1.2, 0.1), 0.0)
    assert fit.meta_d == pytest.approx(1.2, abs=0.01)
    assert fit.converged


@pytest.mark.parametrize("meta_star", [0.25, 0.7, 1.5, 2.8])
def test_self_consistency_across_range(meta_star):
    table = predicted_count_table(meta_star, (0.9, -0.2),
                                  [0.4, 0.6, 0.5], [0.7, 0.3, 0.5], n=1e6)
    fit = meta_d_fit(table, (0.9, -0.2), 0.0)
    assert fit.meta_d == pytest.approx(meta_star, abs=0.01)


def test_fit_shape_and_invariants():
    fit = meta_d_fit(predicted_count_table(0.8, (0.7, 0.15), [0.4, 0.5, 0.6],
                                           [0.5, 0.4, 0.7], n=5000), (0.7, 0.15), 0.0)
    assert fit.meta_d > 0.5
    r1 = fit.t2_criteria_r1
    r2 = fit.t2_criteria_r2
    assert r1[0] > r1[1] > r1[2]
    assert all(c < fit.meta_c for c in r1)
    assert r2[0] < r2[1] < r2[2]
    assert all(c > fit.meta_c for c in r2)
    assert fit.meta_d >= 0.0
    assert abs(fit.m_ratio * fit.d_prime - fit.meta_d) <= 1e-12
    assert np.isfinite(fit.log_likelihood)
    assert fit.meta_c == pytest.approx(fit.criterion_c * fit.meta_d / fit.d_prime)


def test_fit_is_scale_free():
    table = random_padded_table(11)
    t1 = (0.6, 0.1)
    base = meta_d_fit(table, t1, PAD)
    scaled = meta_d_fit(table * 37.0, t1, PAD * 37.0)
    assert scaled.meta_d == pytest.approx(base.meta_d, abs=1e-6)
    assert np.allclose(scaled.t2_criteria_r1, base.t2_criteria_r1, atol=1e-6)
    assert np.allclose(scaled.t2_criteria_r2, base.t2_criteria_r2, atol=1e-6)


def test_gradient_vanishes_at_interior_optimum():
    checked = 0
    for seed in range(40):
        table = random_padded_table(200 + seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t1 = type1_fit(table)
            if t1[0] == 0.0:
                continue
            fit = meta_d_fit(table, t1, PAD)
        if fit.meta_d < 1e-6:
            continue  # boundary optimum, gradient need not vanish
        lower = np.r_[fit.t2_criteria_r1[::-1], fit.meta_c]
        upper = np.r_[fit.meta_c, fit.t2_criteria_r2]
        theta = np.concatenate([[np.sqrt(fit.meta_d)],
                                np.log(np.diff(lower))[::-1],
                                np.log(np.diff(upper))])
        cprime = np.array([t1[1] / t1[0]])
        eps = 1e-6
        g_fd = np.zeros_like(theta)
        for i in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            g_fd[i] = (_nll_and_grad(up[None], table[None], cprime, order=0)[0]
                       - _nll_and_grad(dn[None], table[None], cprime, order=0)[0]) / (2 * eps)
        assert np.linalg.norm(g_fd) <= 1e-4
        checked += 1
    assert checked >= 10


def test_meta_d_fit_rejects_zero_d_prime():
    with pytest.raises(ZeroDPrime):
        meta_d_fit(random_padded_table(5), (0.0, 0.1), PAD)


@pytest.mark.parametrize("pad_value", [-1.0, float("nan"), 100.0])
def test_meta_d_fit_refuses_a_pad_value_its_table_cannot_hold(pad_value):
    """-1 and nan fitted silently, and 100 warned DegenerateResponse for a
    table with mass on both response sides: a pad must pass the binning
    check and be at most the smallest cell of the table it padded."""
    table = np.array([[30, 20, 15, 10, 8, 5, 3, 2], [5, 8, 10, 12, 15, 20, 25, 30]]) + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pad_value"):
            meta_d_fit(table, type1_fit(table), pad_value)
    assert meta_d_fit(table, type1_fit(table), 0.5).meta_d == pytest.approx(1.2242, abs=1e-4)


def test_one_sided_raw_mass_warns():
    from metadkit.errors import DegenerateResponse
    table = [[8, 6, 4, 2, 0, 0, 0, 0], [2, 4, 6, 8, 0, 0, 0, 0]]
    with pytest.warns(DegenerateResponse):
        meta_d_fit(table, (0.5, 0.1), 0.0)


def test_iteration_cap_returns_best_point(monkeypatch):
    import metadkit.sdt as sdt_module
    monkeypatch.setattr(sdt_module, "MAX_ITERATIONS", 2)
    fit = meta_d_fit(random_padded_table(3), (0.7, 0.15), PAD)
    assert fit.iterations <= 4  # a couple of steps per restart at most
    assert np.isfinite(fit.log_likelihood)
    assert not fit.converged


def test_low_dprime_flag():
    table = predicted_count_table(0.4, (0.4, 0.05), [0.5] * 3, [0.5] * 3, n=1e5)
    fit = meta_d_fit(table, (0.4, 0.05), 0.0)
    assert fit.low_dprime_warning
    table = predicted_count_table(0.9, (0.9, 0.05), [0.5] * 3, [0.5] * 3, n=1e5)
    fit = meta_d_fit(table, (0.9, 0.05), 0.0)
    assert not fit.low_dprime_warning


def test_empty_batch_gives_an_empty_fit():
    fit = meta_d_fit_batch(np.empty((0, 2, 8)), np.empty(0), np.empty(0))
    assert fit.criteria.shape == (0, 7)
    for field in (fit.meta_d, fit.log_likelihood, fit.converged, fit.iterations):
        assert field.shape == (0,)
    assert fit.converged.dtype == bool and fit.iterations.dtype == np.int64
