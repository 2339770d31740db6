"""Property checks of the meta-d' fitter on drawn count tables.

Tables come from small, sparse, zero-heavy and one-sided tallies with the
+0.5 log-linear padding (Hautus 1995) on every cell, as the pipeline
builds them; model-implied tables come from predicted_count_table.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from metadkit.binning import pad_counts
from metadkit.sdt import (
    PROB_CLAMP,
    _nll_and_grad,
    meta_d_fit,
    meta_d_fit_batch,
    type1_batch,
    type1_fit,
)
from tests.oracles import oracle_meta_grid, predicted_count_table

PAD = 0.5


@st.composite
def count_tables(draw):
    """A padded 4-rating table with non-zero d', and its type-1 fit."""
    cell = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 60))
    raw = np.array(draw(st.lists(cell, min_size=16, max_size=16)), float).reshape(2, 8)
    empty_side = draw(st.sampled_from([None, slice(0, 4), slice(4, 8)]))
    if empty_side is not None:
        raw[:, empty_side] = 0.0
    table = pad_counts(raw, PAD)
    type1 = type1_fit(table)
    assume(type1[0] != 0.0)
    return table, type1


def _fit(table, type1, pad_value=PAD):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return meta_d_fit(table, type1, pad_value)


def _theta(fit) -> np.ndarray:
    lower = np.r_[fit.t2_criteria_r1[::-1], fit.meta_c]
    upper = np.r_[fit.meta_c, fit.t2_criteria_r2]
    return np.concatenate([[np.sqrt(fit.meta_d)], np.log(np.diff(lower))[::-1],
                           np.log(np.diff(upper))])


@given(meta_d=st.floats(0.1, 3.0), d_prime=st.floats(0.4, 2.5), c=st.floats(-0.5, 0.5),
       gaps=st.lists(st.floats(0.1, 1.2), min_size=6, max_size=6),
       p_correct=st.floats(0.2, 0.9))
def test_predicted_table_round_trips(meta_d, d_prime, c, gaps, p_correct):
    table = predicted_count_table(meta_d, (d_prime, c), gaps[:3], gaps[3:], n=1e4,
                                  p_correct=p_correct)
    fit = _fit(table, (d_prime, c), 0.0)
    assert fit.converged
    assert fit.meta_d == pytest.approx(meta_d, abs=1e-6)


@given(count_tables(), st.sampled_from([2.0, 3.5, 37.0]))
def test_fit_is_invariant_to_count_scale(table_type1, factor):
    table, type1 = table_type1
    base, other = _fit(table, type1), _fit(table * factor, type1, PAD * factor)
    # an unconverged fit stops where rounding stalled its line search,
    # which is not a property of the table
    assume(base.converged and other.converged)
    assert other.log_likelihood / factor == pytest.approx(base.log_likelihood, rel=1e-12)
    assert other.meta_d == pytest.approx(base.meta_d, abs=1e-6)


@given(count_tables())
def test_gradient_vanishes_at_interior_optimum(table_type1):
    table, type1 = table_type1
    fit = _fit(table, type1)
    assume(fit.converged and fit.meta_d > 1e-3)
    theta, counts, cprime = _theta(fit)[None], table[None], np.array([type1[1] / type1[0]])
    eps = 1e-6
    g_fd = np.array([(_nll_and_grad(theta + eps * e, counts, cprime, order=0)
                      - _nll_and_grad(theta - eps * e, counts, cprime, order=0)) / (2 * eps)
                     for e in np.eye(theta.shape[1])])
    assert np.abs(g_fd).max() <= 1e-7


@given(count_tables(), st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.floats(0.2, 1.5))
def test_hessian_is_the_derivative_of_the_gradient(table_type1, log_gaps, t):
    table, type1 = table_type1
    theta, counts, cprime = np.r_[t, log_gaps][None], table[None], np.array([type1[1] / type1[0]])
    _, _, hess = _nll_and_grad(theta, counts, cprime, order=2)
    eps = 1e-6
    h_fd = np.array([(_nll_and_grad(theta + eps * e, counts, cprime)[1]
                      - _nll_and_grad(theta - eps * e, counts, cprime)[1])[0] / (2 * eps)
                     for e in np.eye(theta.shape[1])])
    assert np.abs(hess[0] - h_fd).max() <= 1e-6 * max(1.0, np.abs(hess).max())


@given(st.lists(count_tables(), min_size=2, max_size=6), st.integers(0, 2 ** 32 - 1))
def test_fit_is_bit_identical_alone_and_in_a_shuffled_batch(tables, seed):
    counts = np.array([table for table, _ in tables])
    type1 = np.array([t1 for _, t1 in tables])
    alone = meta_d_fit_batch(counts[:1], type1[:1, 0], type1[:1, 1])
    order = np.random.default_rng(seed).permutation(len(tables))
    batch = meta_d_fit_batch(counts[order], type1[order, 0], type1[order, 1])
    j = int(np.flatnonzero(order == 0)[0])
    for field in ("meta_d", "criteria", "log_likelihood", "converged", "iterations"):
        assert np.array_equal(getattr(alone, field)[0], getattr(batch, field)[j]), field


@settings(max_examples=10, derandomize=True, deadline=None)
@given(meta_d=st.floats(0.0, 3.0), d_prime=st.floats(-2.5, -0.2) | st.floats(0.2, 2.5),
       cprime=st.floats(-3.0, 3.0), gaps=st.lists(st.floats(0.1, 1.5), min_size=6, max_size=6),
       p_correct=st.floats(0.2, 0.9), n=st.integers(60, 900), seed=st.integers(0, 2 ** 32 - 1))
def test_mle_never_loses_to_the_grid_oracle(meta_d, d_prime, cprime, gaps, p_correct, n, seed):
    """Multinomial draws from a model-implied table, so that sparse and
    zero-heavy tables occur; the coarse grid's likelihood never beats the
    Newton MLE's. Only the likelihoods are compared: gradients and converged
    flags are not, since the far-tail floor of the likelihood (ROADMAP item
    8) still bends them on extreme-|c'| tables."""
    expected = predicted_count_table(meta_d, (d_prime, cprime * d_prime), gaps[:3], gaps[3:],
                                     n=1.0, p_correct=p_correct)
    raw = np.random.default_rng(seed).multinomial(n, expected.ravel() / expected.sum())
    table = pad_counts(raw.reshape(2, 8).astype(float), PAD)
    type1 = type1_fit(table)
    assume(type1[0] != 0.0)
    fit = _fit(table, type1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, grid_ll = oracle_meta_grid(table, type1, coarse_step=0.25, fine_step=0.25)
    assert grid_ll <= fit.log_likelihood + 1e-9 * abs(fit.log_likelihood)


def scalar_type1(table):
    """The median-split (d', c) of one table from scalar rates."""
    def z(counts):
        rate = float(counts[len(counts) // 2:].sum() / counts.sum())
        return float(ndtri(np.clip(rate, PROB_CLAMP, 1.0 - PROB_CLAMP)))
    z_far, z_hr = z(table[0]), z(table[1])
    return z_hr - z_far, -0.5 * (z_hr + z_far)


@given(st.lists(count_tables(), min_size=1, max_size=6))
def test_type1_batch_is_the_scalar_fit_of_each_table(tables):
    counts = np.array([table for table, _ in tables])
    d_prime, criterion_c = type1_batch(counts)
    for i, (table, type1) in enumerate(tables):
        assert (d_prime[i], criterion_c[i]) == scalar_type1(table) == type1
