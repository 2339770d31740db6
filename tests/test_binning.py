import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadkit.binning import bin_indices, counts_from_arrays, pad_counts, quantile_bins
from metadkit.errors import TooFewTrials


def test_sorted_distinct_values_fill_bins():
    bins = bin_indices(np.array([-8, -7, -6, -5, -4, -3, -2, -1], dtype=float), 8)
    assert bins.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_identical_values_binned_in_input_order():
    assert bin_indices(np.full(8, -2.0), 8).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_sixteen_values_match_sort_oracle(rng):
    nlp = rng.normal(size=16)
    bins = bin_indices(nlp, 8)
    # independent oracle: explicit stable sort, bin = ceil(rank / 2)
    order = sorted(range(16), key=lambda i: (nlp[i], i))
    expected = {}
    for rank, i in enumerate(order, start=1):
        expected[i] = -(-rank // 2)
    assert bins.tolist() == [expected[i] for i in range(16)]


def test_bin_sizes_differ_by_at_most_one(rng):
    for n in (8, 9, 20, 97, 1000):
        bins = bin_indices(rng.normal(size=n), 8)
        sizes = np.bincount(bins, minlength=9)[1:]
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n


def test_divisible_n_gives_equal_bins(rng):
    bins = bin_indices(rng.normal(size=64), 8)
    assert (np.bincount(bins, minlength=9)[1:] == 8).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-48, max_value=48), min_size=8, max_size=60))
def test_binning_invariant_under_monotone_transform(values):
    # inputs spaced >= 1/16 apart, so both transforms below stay strictly
    # monotone in floating point (ties remain exactly ties)
    nlp = np.asarray(values, dtype=float) / 16.0
    base = bin_indices(nlp, 8)
    assert (base == bin_indices(nlp * 8.0, 8)).all()
    assert (base == bin_indices(np.tanh(nlp) * 3.0 - 2.0, 8)).all()


def stable_sort_bins(nlp, n_bins):
    """0-based bins from an explicit stable float sort: rank * n_bins // n."""
    bins = np.empty(len(nlp), dtype=np.int64)
    bins[np.argsort(nlp, kind="stable")] = np.arange(len(nlp)) * n_bins // len(nlp)
    return bins


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=40), min_size=1, max_size=8),
       st.integers(2, 12))
def test_block_binning_is_a_stable_sort_of_each_sample(samples, n_bins):
    # integer-valued nlp: ties within a sample, across samples and across
    # bin boundaries; levels are codes over the whole block
    nlp = [np.asarray(sample) / 4.0 for sample in samples]
    lengths = [len(sample) for sample in samples]
    levels = np.unique(np.concatenate(nlp), return_inverse=True)[1]
    # sparse levels make the sort key too wide for int32
    for block_levels in (levels, levels * 2 ** 26):
        bins = quantile_bins(block_levels, lengths, n_bins)
        for values, got in zip(nlp, np.split(bins, np.cumsum(lengths)[:-1])):
            want = stable_sort_bins(values, n_bins)
            assert np.array_equal(got, want)
            if len(values) >= n_bins:
                assert np.array_equal(bin_indices(values, n_bins), want + 1)


@pytest.mark.parametrize("bad", [0, 9])
def test_counts_reject_a_bin_outside_the_scale(bad):
    # an out-of-range bin must not land in a neighbouring class's row
    bins = np.array([1, 2, bad, 8])
    with pytest.raises(ValueError):
        counts_from_arrays(bins, np.array([True, False, False, True]), 8)


def test_too_few_trials():
    with pytest.raises(TooFewTrials):
        bin_indices(np.zeros(7), 8)


def test_counts_single_increment():
    bins = bin_indices(np.array([-8, -7, -6, -5, -4, -3, -2, -1], dtype=float), 8)
    counts = counts_from_arrays(bins, np.array([False] * 7 + [True]), 8)
    assert counts.shape == (2, 8) and counts.dtype == float
    incorrect, correct = counts
    assert correct.tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
    assert incorrect.tolist() == [1, 1, 1, 1, 1, 1, 1, 0]


def test_counts_conserve_totals(rng):
    n = 3000
    correct = rng.random(n) < 0.6
    incorrect_counts, correct_counts = counts_from_arrays(bin_indices(rng.normal(size=n), 8),
                                                          correct, 8)
    assert incorrect_counts.sum() + correct_counts.sum() == n
    assert correct_counts.sum() == correct.sum()


def test_counts_match_per_trial_tally(rng):
    n = 600
    correct = rng.random(n) < 0.7
    nlp = np.where(correct, rng.normal(0.6, 1.0, n), rng.normal(0.0, 1.0, n))
    bins = bin_indices(nlp, 8)
    incorrect_counts, correct_counts = counts_from_arrays(bins, correct, 8)
    tally = {(cls, b): 0 for cls in (False, True) for b in range(1, 9)}
    for cls, b in zip(correct.tolist(), bins.tolist()):
        tally[(cls, b)] += 1
    for b in range(1, 9):
        assert correct_counts[b - 1] == tally[(True, b)]
        assert incorrect_counts[b - 1] == tally[(False, b)]
    # correct-class mass should sit higher on the scale
    upper_c = correct_counts[4:].sum() / correct_counts.sum()
    upper_i = incorrect_counts[4:].sum() / incorrect_counts.sum()
    assert upper_c > upper_i


def test_pad_counts_all_zero():
    padded = pad_counts(np.zeros((2, 8)))
    assert (padded == 0.5).all()


def test_pad_counts_uniform_increment():
    counts = np.zeros((2, 8))
    counts[1, 0] = 1
    padded = pad_counts(counts)
    assert padded[1].tolist() == [1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]


def test_pad_adds_half_per_cell():
    padded = pad_counts(np.full((2, 8), 2.5))  # 20 raw per class
    assert padded.sum(axis=1).tolist() == [pytest.approx(24.0), pytest.approx(24.0)]
