"""Quantile binning of confidence scores and count-table construction.

Continuous confidence (nlp) is discretized into 2 * n_ratings quantile
bins. The lower half of the scale is response R1, the upper half R2, and
the rating grades the distance from the median boundary, so bin 1 maps to
(R1, rating n_ratings) and the top bin to (R2, rating n_ratings). Counts
are tallied per correctness class: the incorrect-answer trials form one
stimulus class and the correct-answer trials the other, which is what the
downstream sensitivity fits consume.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlreadyPadded, TooFewTrials
from .trialstore import TrialRecord, TrialSet

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


@dataclass(frozen=True)
class BinnedTrial:
    trial: TrialRecord
    bin: int            # 1..n_bins, 1 = lowest confidence
    response: str       # "R1" (lower half) or "R2" (upper half)
    rating: int         # 1..n_ratings, distance from the median boundary


def response_and_rating(bin: int, n_ratings: int) -> tuple[str, int]:
    """Bijection from bin index to (response, rating)."""
    if bin <= n_ratings:
        return "R1", n_ratings + 1 - bin
    return "R2", bin - n_ratings


@dataclass(frozen=True)
class CountTable:
    """Response/rating counts per correctness class, indexed by bin."""

    n_ratings: int
    counts_incorrect: np.ndarray
    counts_correct: np.ndarray
    padded: bool = False
    pad_value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "counts_incorrect",
                           np.asarray(self.counts_incorrect, dtype=float))
        object.__setattr__(self, "counts_correct",
                           np.asarray(self.counts_correct, dtype=float))
        n_bins = 2 * self.n_ratings
        for name in ("counts_incorrect", "counts_correct"):
            vec = getattr(self, name)
            if vec.shape != (n_bins,):
                raise ValueError(f"{name} must have length {n_bins}, got {vec.shape}")
            if np.any(vec < 0):
                raise ValueError(f"{name} has negative entries")

    @property
    def n_bins(self) -> int:
        return 2 * self.n_ratings

    @property
    def total(self) -> float:
        return float(self.counts_incorrect.sum() + self.counts_correct.sum())

    def raw_class_totals(self) -> tuple[float, float]:
        """(incorrect, correct) totals net of any padding."""
        pad = self.n_bins * self.pad_value if self.padded else 0.0
        return (float(self.counts_incorrect.sum()) - pad,
                float(self.counts_correct.sum()) - pad)

    def to_csv(self) -> str:
        """Debug serialization: header, then the incorrect and correct rows."""
        buf = io.StringIO()
        buf.write(",".join(f"bin_{b}" for b in range(1, self.n_bins + 1)) + "\r\n")
        for vec in (self.counts_incorrect, self.counts_correct):
            buf.write(",".join(repr(float(v)) for v in vec) + "\r\n")
        return buf.getvalue()


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


def quantile_bin(trials: TrialSet, scale: RatingScale = RatingScale()) -> list[BinnedTrial]:
    """Assign every trial to a quantile bin of its set's nlp distribution."""
    bins = bin_indices(trials.nlp_values, scale.n_bins)
    out = []
    for rec, b in zip(trials.records, bins):
        response, rating = response_and_rating(int(b), scale.n_ratings)
        out.append(BinnedTrial(trial=rec, bin=int(b), response=response, rating=rating))
    return out


def tally(bins: np.ndarray, correct: np.ndarray, lengths, n_bins: int) -> np.ndarray:
    """(samples, 2, n_bins) counts, row 0 incorrect, of a block laid out as
    in quantile_bins, from one offset bincount."""
    index = np.repeat(np.arange(len(lengths)) * (2 * n_bins), lengths)     # intp: no copy
    index += bins
    np.add(index, n_bins, out=index, where=correct)
    return np.bincount(index, minlength=len(lengths) * 2 * n_bins).reshape(-1, 2, n_bins)


def counts_from_arrays(bins: np.ndarray, correct: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Tally (counts_incorrect, counts_correct) vectors from bin/correct
    arrays (bins 1..n_bins): the sample of one of ``tally``."""
    bins = np.asarray(bins)
    if len(bins) and (bins.min() < 1 or bins.max() > n_bins):
        raise ValueError(f"bin index outside 1..{n_bins}")
    return tuple(tally(bins - 1, correct, [len(bins)], n_bins)[0].astype(float))


def build_counts(binned: list[BinnedTrial], scale: RatingScale = RatingScale()) -> CountTable:
    """Unpadded count table from binned trials."""
    bins = np.array([bt.bin for bt in binned], dtype=np.int64)
    correct = np.array([bt.trial.correct for bt in binned], dtype=bool)
    ci, cc = counts_from_arrays(bins, correct, scale.n_bins)
    return CountTable(n_ratings=scale.n_ratings, counts_incorrect=ci, counts_correct=cc)


def pad_counts(table: CountTable, pad_value: float = DEFAULT_PAD_VALUE) -> CountTable:
    """Log-linear correction: add pad_value to every cell, unconditionally.

    Applied always, not only when zeros occur, so estimates stay
    deterministic and continuous across bootstrap resamples.
    """
    if table.padded:
        raise AlreadyPadded("count table is already padded")
    return replace(
        table,
        counts_incorrect=table.counts_incorrect + pad_value,
        counts_correct=table.counts_correct + pad_value,
        padded=True,
        pad_value=pad_value,
    )
