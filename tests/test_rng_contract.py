"""The metadkit-bootstrap-v1 RNG contract, checked against numpy itself.

bootstrap._draw_batch draws the ids of a whole batch of resample ordinals
at once; each of its rows must equal the recipe in the README and in the
bootstrap module docstring, bit for bit. These tests compare it with
that literal recipe, so a numpy release that changes SeedSequence, PCG64
or Generator.integers fails here rather than silently moving every
bootstrap interval.
"""

import numpy as np
import pytest

from metadkit import bootstrap

ENTROPIES = [0, 5, 2 ** 100, 2 ** 128 - 1]     # 2**100 and 0: leading zero words
SIZES = [1, 2, 3, 581, 847, 956]
# (first ordinal, last ordinal + 1); 9 997 and 65 535 start mid-chunk
BATCHES = [(0, 3), (65_535, 65_539), (9_997, 10_000)]


def recipe(entropy, ordinal, n):
    rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(ordinal,)))
    return rng.integers(0, n, size=n)


@pytest.mark.parametrize("entropy", ENTROPIES)
@pytest.mark.parametrize("n", SIZES)
def test_batch_rows_equal_the_recipe(entropy, n):
    for lo, hi in BATCHES:
        ids = bootstrap._draw_batch(entropy, lo, hi, n)
        assert ids.shape == (hi - lo, n) and ids.dtype == np.int64
        for j in range(hi - lo):
            np.testing.assert_array_equal(ids[j], recipe(entropy, lo + j, n))


def test_a_batch_is_its_rows_drawn_alone():
    entropy = bootstrap._stream_entropy(42, "Science", "meta_d|2-1")
    whole = bootstrap._draw_batch(entropy, 250, 378, 616)
    for lo in (250, 300, 377):
        np.testing.assert_array_equal(bootstrap._draw_batch(entropy, lo, lo + 1, 616)[0],
                                      whole[lo - 250])


def rejects_a_word(entropy, ordinal, n):
    """Whether numpy's bounded draw of [0, n) rejects one of the first n
    words of the stream (Lemire: low 32 bits of word * n below
    (2**32 - n) % n), taken from numpy's own generator."""
    bit_generator = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(ordinal,)))
    words = bit_generator.random_raw((n + 1) // 2).astype("<u8").view("<u4")[:n]
    return bool((words.astype(np.uint64) * n % 2 ** 32 < (2 ** 32 - n) % n).any())


# rows found by scanning ordinals: about 1 in 10 000 rows at these sizes
@pytest.mark.parametrize("entropy, ordinal, n", [(0, 423, 956), (2 ** 128 - 1, 736, 847),
                                                 (2 ** 100, 962, 956)])
def test_rejection_rows_equal_the_recipe(entropy, ordinal, n):
    assert rejects_a_word(entropy, ordinal, n)
    assert not rejects_a_word(entropy, ordinal + 1, n)
    ids = bootstrap._draw_batch(entropy, ordinal - 1, ordinal + 2, n)
    for j in range(3):
        np.testing.assert_array_equal(ids[j], recipe(entropy, ordinal - 1 + j, n))


@pytest.mark.parametrize("bound", [3, 5, 7, 1000, 2 ** 31 + 1])
def test_bounded_step_matches_integers(bound):
    """_bounded on 6 words of each of 300 streams: a row it does not flag
    is numpy's integers(0, bound, size=6) of that stream, and it flags
    exactly the rows where numpy took more than 6 words (a rejection)."""
    seeds, m = range(300), 6
    block = np.array([np.random.PCG64(s).random_raw(m // 2).astype("<u8").view("<u4")
                      for s in seeds], dtype=np.int64)
    rejected = bootstrap._bounded(block, bound)
    for s, row, flagged in zip(seeds, block, rejected):
        rng = np.random.Generator(np.random.PCG64(s))
        want = rng.integers(0, bound, size=m)
        took_more = rng.bit_generator.random_raw() != np.random.PCG64(s).random_raw(m // 2 + 1)[-1]
        assert flagged == took_more
        if not flagged:
            np.testing.assert_array_equal(row, want)
    if bound == 2 ** 31 + 1:    # about half of all words are rejected
        assert 0 < rejected.sum() < len(seeds)


def test_last_one_word_ordinal_is_drawn_and_larger_ordinals_raise():
    ids = bootstrap._draw_batch(5, 2 ** 32 - 2, 2 ** 32, 3)
    for j, ordinal in enumerate((2 ** 32 - 2, 2 ** 32 - 1)):
        np.testing.assert_array_equal(ids[j], recipe(5, ordinal, 3))
    # ordinal 2**32 is a two-word spawn key: a different SeedSequence hash
    with pytest.raises(ValueError):
        bootstrap._draw_batch(5, 2 ** 32 - 1, 2 ** 32 + 1, 3)
    with pytest.raises(ValueError):
        bootstrap._draw_batch(5, 2 ** 32, 2 ** 32 + 1, 3)


@pytest.mark.parametrize("entropy, n", [(-1, 3), (2 ** 128, 3), (5, 0), (5, 2 ** 32)])
def test_out_of_contract_inputs_raise(entropy, n):
    with pytest.raises(ValueError):
        bootstrap._draw_batch(entropy, 0, 2, n)
