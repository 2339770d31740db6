import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadkit.binning import (
    CountTable,
    RatingScale,
    bin_indices,
    build_counts,
    counts_from_arrays,
    pad_counts,
    quantile_bin,
    quantile_bins,
    response_and_rating,
)
from metadkit.errors import AlreadyPadded, TooFewTrials
from tests.conftest import make_trials

SCALE = RatingScale(4)


def test_sorted_distinct_values_fill_bins():
    trials = make_trials([-8, -7, -6, -5, -4, -3, -2, -1], [True] * 8)
    binned = quantile_bin(trials, SCALE)
    assert [bt.bin for bt in binned] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_identical_values_binned_in_input_order():
    trials = make_trials([-2.0] * 8, [True] * 8)
    binned = quantile_bin(trials, SCALE)
    assert [bt.bin for bt in binned] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_sixteen_values_match_sort_oracle(rng):
    nlp = rng.normal(size=16)
    trials = make_trials(nlp, [True] * 16)
    binned = quantile_bin(trials, SCALE)
    # independent oracle: explicit stable sort, bin = ceil(rank / 2)
    order = sorted(range(16), key=lambda i: (nlp[i], i))
    expected = {}
    for rank, i in enumerate(order, start=1):
        expected[i] = -(-rank // 2)
    assert [bt.bin for bt in binned] == [expected[i] for i in range(16)]


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


def test_response_rating_bijection():
    seen = set()
    for b in range(1, 9):
        response, rating = response_and_rating(b, 4)
        seen.add((response, rating))
        assert response in ("R1", "R2") and 1 <= rating <= 4
    assert len(seen) == 8
    assert response_and_rating(1, 4) == ("R1", 4)
    assert response_and_rating(4, 4) == ("R1", 1)
    assert response_and_rating(5, 4) == ("R2", 1)
    assert response_and_rating(8, 4) == ("R2", 4)


def test_build_counts_single_increment():
    trials = make_trials([-8, -7, -6, -5, -4, -3, -2, -1],
                         [False] * 7 + [True])
    table = build_counts(quantile_bin(trials, SCALE), SCALE)
    assert table.counts_correct.tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
    assert table.counts_incorrect.tolist() == [1, 1, 1, 1, 1, 1, 1, 0]
    assert not table.padded


def test_build_counts_conserves_totals(rng):
    n = 3000
    trials = make_trials(rng.normal(size=n), rng.random(n) < 0.6)
    table = build_counts(quantile_bin(trials, SCALE), SCALE)
    assert table.total == n
    assert table.counts_correct.sum() == trials.correct_mask.sum()


def test_build_counts_matches_per_trial_tally(rng):
    n = 600
    correct = rng.random(n) < 0.7
    nlp = np.where(correct, rng.normal(0.6, 1.0, n), rng.normal(0.0, 1.0, n))
    trials = make_trials(nlp, correct)
    binned = quantile_bin(trials, SCALE)
    table = build_counts(binned, SCALE)
    tally = {(cls, b): 0 for cls in (False, True) for b in range(1, 9)}
    for bt in binned:
        tally[(bt.trial.correct, bt.bin)] += 1
    for b in range(1, 9):
        assert table.counts_correct[b - 1] == tally[(True, b)]
        assert table.counts_incorrect[b - 1] == tally[(False, b)]
    # correct-class mass should sit higher on the scale
    upper_c = table.counts_correct[4:].sum() / table.counts_correct.sum()
    upper_i = table.counts_incorrect[4:].sum() / table.counts_incorrect.sum()
    assert upper_c > upper_i


def test_pad_counts_all_zero():
    table = CountTable(4, np.zeros(8), np.zeros(8))
    padded = pad_counts(table)
    assert (padded.counts_correct == 0.5).all()
    assert (padded.counts_incorrect == 0.5).all()
    assert padded.padded and padded.pad_value == 0.5


def test_pad_counts_uniform_increment():
    table = CountTable(4, np.zeros(8), np.array([1, 0, 0, 0, 0, 0, 0, 0], float))
    padded = pad_counts(table)
    assert padded.counts_correct.tolist() == [1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]


def test_pad_adds_half_per_cell():
    raw = CountTable(4, np.full(8, 2.5), np.full(8, 2.5))  # 20 raw per class
    padded = pad_counts(raw)
    assert padded.counts_correct.sum() == pytest.approx(24.0)
    assert padded.raw_class_totals() == (pytest.approx(20.0), pytest.approx(20.0))


def test_pad_twice_rejected():
    table = pad_counts(CountTable(4, np.zeros(8), np.zeros(8)))
    with pytest.raises(AlreadyPadded):
        pad_counts(table)


def test_count_table_csv_shape():
    table = CountTable(4, np.arange(8, dtype=float), np.arange(8, dtype=float))
    lines = table.to_csv().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == [f"bin_{b}" for b in range(1, 9)]
    assert len(lines[1].split(",")) == 8
