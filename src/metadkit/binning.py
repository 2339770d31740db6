"""Quantile binning of confidence scores and count-table construction.

Continuous confidence (nlp) is discretized into 2 * n_ratings quantile
bins, bin 1 lowest. A bin's index is its (response, rating) on the type-2
scale: bin b <= n_ratings is (R1, n_ratings + 1 - b) and bin b > n_ratings
is (R2, b - n_ratings), so the rating grades the distance from the median
boundary; count-table columns are the bins in this order. Counts are
tallied per correctness class: the incorrect-answer trials form one
stimulus class and the correct-answer trials the other. A count table is
a (2, n_bins) float array, row 0 incorrect; a block of them is
(samples, 2, n_bins).

``quantile_bins`` and ``tally`` take samples laid end to end in one block
and are called only by ``profiles.type1_block``, the one block path;
``bin_indices``, ``counts_from_arrays`` and ``pad_counts`` are their
sample of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewTrials

DEFAULT_PAD_VALUE = 0.5


@dataclass(frozen=True)
class RatingScale:
    """Confidence scale with n_ratings grades per response side."""

    n_ratings: int = 4

    def __post_init__(self):
        if self.n_ratings < 2:
            raise ValueError(f"n_ratings must be >= 2, got {self.n_ratings}")

    @property
    def n_bins(self) -> int:
        return 2 * self.n_ratings


def check_pad_value(pad_value: float) -> None:
    """Raise ValueError unless pad_value is a finite count >= 0."""
    if not 0 <= pad_value < np.inf:     # nan included
        raise ValueError(f"pad_value must be finite and >= 0, got {pad_value}")


def check_bins(bins: np.ndarray, n_bins: int) -> None:
    """Raise ValueError unless every bin index lies in 1..n_bins."""
    if len(bins) and (bins.min() < 1 or bins.max() > n_bins):
        raise ValueError(f"bin index outside 1..{n_bins}")


def quantile_bins(levels: np.ndarray, lengths, n_bins: int) -> np.ndarray:
    """Quantile bins, as bin_indices - 1, of every sample of a block laid end
    to end (sample j has lengths[j] rows); ``levels`` code the rows' nlp in
    order. The key (sample, level, position) is unique, so one sort of the
    block's keys orders each sample within its span as a stable sort would."""
    lengths = np.asarray(lengths)
    n_levels, longest = int(levels.max(initial=0)) + 1, int(lengths.max(initial=0))
    exact = max(len(lengths) * n_levels, n_bins) * longest < 2 ** 31
    dtype = np.int32 if exact else np.int64     # in place from here on
    starts = (np.cumsum(lengths) - lengths).astype(dtype)
    pos = np.arange(len(levels), dtype=dtype)
    pos -= np.repeat(starts, lengths)
    key = np.repeat(np.arange(len(lengths), dtype=dtype) * n_levels, lengths)
    key += levels
    key *= longest
    key += pos
    key.sort()                  # slot r of a sample's span: its row of rank r,
    key %= longest              # as that row's position in the sample
    key += np.repeat(starts, lengths)   # and in the block
    pos *= n_bins               # pos[i] is the rank of slot i
    pos //= np.repeat(lengths.astype(dtype), lengths)
    bins = np.empty_like(pos)
    bins[key] = pos
    return bins


def bin_indices(nlp: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile bin index (1..n_bins) per trial, in input order.

    bin = (rank - 1) * n_bins // n + 1, where rank is the trial's position
    in a stable ascending sort of nlp (ties keep input order). Bin sizes
    differ by at most one and the assignment is invariant under any
    strictly monotone transform of nlp. The sample of one of quantile_bins.
    """
    n = len(nlp)
    if n < n_bins:
        raise TooFewTrials(n, n_bins)
    return quantile_bins(np.unique(nlp, return_inverse=True)[1], [n], n_bins) + 1


def tally(bins: np.ndarray, correct: np.ndarray, lengths, n_bins: int) -> np.ndarray:
    """(samples, 2, n_bins) counts, row 0 incorrect, of a block laid out as
    in quantile_bins, from one offset bincount."""
    index = np.repeat(np.arange(len(lengths)) * (2 * n_bins), lengths)     # intp: no copy
    index += bins
    np.add(index, n_bins, out=index, where=correct)
    return np.bincount(index, minlength=len(lengths) * 2 * n_bins).reshape(-1, 2, n_bins)


def counts_from_arrays(bins: np.ndarray, correct: np.ndarray, n_bins: int) -> np.ndarray:
    """The (2, n_bins) float count table, row 0 incorrect, of bin/correct
    arrays (bins 1..n_bins): the sample of one of ``tally``."""
    bins = np.asarray(bins)
    check_bins(bins, n_bins)
    return tally(bins - 1, correct, [len(bins)], n_bins)[0].astype(float)


def pad_counts(counts: np.ndarray, pad_value: float = DEFAULT_PAD_VALUE) -> np.ndarray:
    """Log-linear correction: ``counts`` with pad_value added to every cell.

    Applied always, not only when zeros occur, so estimates stay
    deterministic and continuous across bootstrap resamples.
    """
    check_pad_value(pad_value)
    return np.asarray(counts, dtype=float) + pad_value
