import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from metadkit.errors import EmptySet, LengthMismatch, OneClassOnly, ZeroVariance
from metadkit.nonparam import (
    accuracy_arrays,
    auroc2_arrays,
    auroc2_batch,
    average_ranks,
    level_keys,
    nlp_gap_arrays,
    nlp_gap_batch,
    segment_sums,
    spearman_rho,
)


def brute_force_auroc2(nlp, correct):
    """O(n^2) pairwise oracle: wins + half ties over all cross-class pairs."""
    pos = [x for x, c in zip(nlp, correct) if c]
    neg = [x for x, c in zip(nlp, correct) if not c]
    score = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                score += 1.0
            elif p == q:
                score += 0.5
    return score / (len(pos) * len(neg))


def test_auroc2_perfect_separation():
    nlp = np.array([-1, -2, -3, -0.5, -0.4])
    assert auroc2_arrays(nlp, np.array([False, False, False, True, True])) == 1.0


def test_auroc2_two_pair_example():
    # pairs: (-0.1 vs -0.3) win, (-0.5 vs -0.3) loss -> 0.5
    assert auroc2_arrays(np.array([-0.1, -0.5, -0.3]), np.array([True, True, False])) == 0.5


def test_auroc2_matches_brute_force_with_ties(rng):
    for _ in range(30):
        n = int(rng.integers(5, 200))
        correct = rng.random(n) < 0.5
        if correct.all() or not correct.any():
            continue
        nlp = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        assert auroc2_arrays(nlp, correct) == brute_force_auroc2(nlp, correct)


def test_auroc2_class_swap(rng):
    n = 80
    correct = rng.random(n) < 0.6
    nlp = np.round(rng.normal(size=n), 1)
    a = auroc2_arrays(nlp, correct)
    b = auroc2_arrays(nlp, ~correct)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auroc2_monotone_invariance(rng):
    n = 60
    correct = rng.random(n) < 0.5
    nlp = rng.normal(size=n)
    base = auroc2_arrays(nlp, correct)
    assert auroc2_arrays(nlp * 8.0, correct) == base
    assert auroc2_arrays(np.tanh(nlp), correct) == pytest.approx(base, abs=1e-12)


def test_auroc2_one_class_only():
    with pytest.raises(OneClassOnly):
        auroc2_arrays(np.array([-1.0, -2.0]), np.array([True, True]))


def rank_sum_auroc2(nlp, correct):
    """The average-rank Mann-Whitney form the tally replaced; nan for one class."""
    n_pos = int(correct.sum())
    n_neg = len(correct) - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.nan
    ranks = rankdata(nlp, method="average")
    u = ranks[correct].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@st.composite
def tie_heavy_trials(draw):
    """nlp on a grid of at most 6 values; classes mixed, separated (every
    correct trial at or above every incorrect one) or a lone trial of one
    class."""
    n = draw(st.integers(2, 60))
    grid = draw(st.lists(st.floats(-8.0, 0.0, allow_nan=False), min_size=1, max_size=6))
    level = np.array(draw(st.lists(st.integers(0, len(grid) - 1), min_size=n, max_size=n)))
    nlp = np.array(grid)[level]
    shape = draw(st.sampled_from(["mixed", "separated", "lone"]))
    if shape == "mixed":
        correct = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elif shape == "separated":
        correct = nlp >= draw(st.sampled_from(grid))
    else:
        correct = np.arange(n) == draw(st.integers(0, n - 1))
        correct = correct if draw(st.booleans()) else ~correct
    return nlp, correct


@given(tie_heavy_trials())
def test_auroc2_equals_rank_sum_form_bit_for_bit(trials):
    nlp, correct = trials
    want = rank_sum_auroc2(nlp, correct)
    if np.isnan(want):
        with pytest.raises(OneClassOnly):
            auroc2_arrays(nlp, correct)
    else:
        assert auroc2_arrays(nlp, correct) == want


@given(tie_heavy_trials(), st.integers(0, 2 ** 32 - 1))
def test_auroc2_batch_equals_rank_sum_form_of_each_sample(trials, seed):
    # bootstrap-style samples drawn with replacement, some of one class only
    nlp, correct = trials
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, len(nlp), size=rng.integers(1, 2 * len(nlp) + 1))
            for _ in range(rng.integers(1, 9))]
    keys, n_levels = level_keys(nlp, correct)
    got = auroc2_batch(keys, n_levels, np.concatenate(rows), [len(r) for r in rows])
    want = [rank_sum_auroc2(nlp[r], correct[r]) for r in rows]
    np.testing.assert_array_equal(got, want)


def test_nlp_gap_identical_distributions():
    nlp = np.array([-1.0, -2.0, -1.0, -2.0])
    assert nlp_gap_arrays(nlp, np.array([True, True, False, False])) == 0.0


def test_nlp_gap_hand_arithmetic():
    nlp = np.array([-0.5, -0.3, -0.6])
    assert nlp_gap_arrays(nlp, np.array([True, True, False])) == pytest.approx(0.2, abs=1e-12)


def test_nlp_gap_antisymmetric(rng):
    n = 50
    correct = rng.random(n) < 0.5
    nlp = rng.normal(size=n)
    assert nlp_gap_arrays(nlp, correct) == pytest.approx(-nlp_gap_arrays(nlp, ~correct),
                                                          abs=1e-12)


def test_nlp_gap_one_class_only():
    with pytest.raises(OneClassOnly):
        nlp_gap_arrays(np.array([-1.0, -2.0]), np.array([False, False]))


# where numpy's pairwise sum changes shape: 8 column accumulators, blocks
# of 128 and a split into halves past that; 1 912 is a pooled History side
# (956 ids of two records each)
PAIRWISE_EDGES = [0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1912]


def spread_values(rng, n, zero_fraction):
    """n values of both signs from 1e-3 to 1e6 in size, about
    zero_fraction of them +0.0 or -0.0."""
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 6, n)
    zeros = rng.random(n) < zero_fraction
    values[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
    return values


run_lengths = st.lists(st.one_of(st.sampled_from(PAIRWISE_EDGES), st.integers(0, 2100)),
                       min_size=1, max_size=6)


@given(run_lengths, st.sampled_from([0.0, 0.1, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_segment_sums_are_each_runs_own_sum_bit_for_bit(lengths, zero_fraction, seed):
    # fails if an installed numpy ever sums a run in another order
    values = spread_values(np.random.default_rng(seed), sum(lengths), zero_fraction)
    want = np.array([np.add.reduce(run) for run in np.split(values, np.cumsum(lengths)[:-1])])
    np.testing.assert_array_equal(segment_sums(values, lengths).view(np.int64),
                                  want.view(np.int64))


def test_segment_sums_of_long_runs_and_of_none():
    values = spread_values(np.random.default_rng(4), 2 * 100_000 + 9_000, 0.0)
    lengths = [9_000, 100_000, 0, 100_000]
    want = np.array([np.add.reduce(run) for run in np.split(values, np.cumsum(lengths)[:-1])])
    np.testing.assert_array_equal(segment_sums(values, lengths).view(np.int64),
                                  want.view(np.int64))
    assert segment_sums(np.empty(0), []).shape == (0,)


@given(run_lengths, st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_nlp_gap_batch_is_each_samples_own_class_means_bit_for_bit(lengths, p_correct, seed):
    # samples drawn with replacement from 300 records; at p_correct 0 or 1,
    # and for samples of 0 or 1 records, a sample has one class only
    rng = np.random.default_rng(seed)
    nlp, correct = spread_values(rng, 300, 0.05), rng.random(300) < p_correct
    index = rng.integers(0, 300, sum(lengths))
    got = nlp_gap_batch(nlp, correct, index, lengths)
    for gap, r in zip(got, np.split(index, np.cumsum(lengths)[:-1])):
        c = correct[r]
        if c.all() or not c.any():
            assert np.isnan(gap)
        else:
            want = nlp[r][c].mean() - nlp[r][~c].mean()
            assert gap.view(np.int64) == want.view(np.int64)


def test_nlp_gap_of_one_sample_is_its_batch_of_one(rng):
    nlp, correct = rng.normal(size=957) * 1e3, rng.random(957) < 0.6
    gap = nlp_gap_arrays(nlp, correct)
    assert gap == nlp_gap_batch(nlp, correct, np.arange(957), [957])[0]
    assert gap == nlp[correct].mean() - nlp[~correct].mean()


def test_accuracy_all_correct():
    assert accuracy_arrays(np.array([True, True])) == 1.0


def test_accuracy_seven_of_ten():
    assert accuracy_arrays(np.array([True] * 7 + [False] * 3)) == 0.7


def test_accuracy_empty():
    with pytest.raises(EmptySet):
        accuracy_arrays(np.array([], dtype=bool))


def test_spearman_monotone_identity(rng):
    x = rng.normal(size=12)
    assert spearman_rho(x, x) == pytest.approx(1.0, abs=1e-12)
    assert spearman_rho(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)


def test_spearman_antitone():
    x = [3.0, 1.0, 2.0, 5.0]
    assert spearman_rho(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_rank_profile_example():
    # rank pairs (1,2), (2,3), (3,4), (4,1): sum d^2 = 12, so
    # rho = 1 - 6 * 12 / (4 * 15) = -0.2 by the closed form
    assert spearman_rho([1, 2, 3, 4], [2, 3, 4, 1]) == pytest.approx(-0.2, abs=1e-12)


def test_spearman_average_ranks_for_ties():
    # against scipy's reference implementation
    from scipy.stats import spearmanr
    x = [1.0, 1.0, 2.0, 3.0]
    y = [2.0, 1.0, 1.0, 3.0]
    assert spearman_rho(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ZeroVariance):
        spearman_rho([1, 1, 1], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        spearman_rho([1.0], [2.0])


@st.composite
def tied_vectors(draw, n=None):
    """Length 2-8 vectors drawn from a pool of at most 4 values, so ties are
    common; the pool may hold +-inf, -0.0 and nan."""
    special = st.sampled_from([np.inf, -np.inf, -0.0, 0.0, np.nan])
    pool = draw(st.lists(st.one_of(st.floats(allow_nan=False), special),
                         min_size=1, max_size=4))
    n = draw(st.integers(2, 8)) if n is None else n
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@given(tied_vectors())
def test_average_ranks_equal_rankdata_bit_for_bit(v):
    got = average_ranks(v)
    want = rankdata(v, method="average")
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def rankdata_spearman(x, y):
    """spearman_rho as it was on scipy's ranks; None where it raises ZeroVariance."""
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0 or ssy == 0.0:
        return None
    return float((dx @ dy) / np.sqrt(ssx * ssy))


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(tied_vectors(n), tied_vectors(n))))
def test_spearman_equals_rankdata_form_bit_for_bit(xy):
    x, y = xy
    want = rankdata_spearman(x, y)
    if want is None:
        with pytest.raises(ZeroVariance):
            spearman_rho(x, y)
    else:
        assert np.float64(spearman_rho(x, y)).tobytes() == np.float64(want).tobytes()


def test_spearman_is_nan_when_a_value_is_nan():
    # an unconverged cell's M-ratio is nan; its rank, and so rho, is undefined
    nan = np.nan
    assert np.isnan(spearman_rho([1.0, nan, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0]))
    assert np.isnan(spearman_rho([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, nan, 1.0]))
    assert np.isnan(spearman_rho([nan, 2.0, 3.0], [nan, 2.0, 3.0]))
