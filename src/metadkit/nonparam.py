"""Rank-based metrics that need no distributional model.

Type-2 AUROC and the NLP gap work on the raw (unbinned) confidence
values, so they are invariant under the scale choices that drive the
model-based fits. Ranks come from a numpy sort, so importing the
package loads no scipy subpackage beyond scipy.special.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySet, LengthMismatch, OneClassOnly, ZeroVariance


def level_keys(nlp: np.ndarray, correct: np.ndarray) -> tuple[np.ndarray, int]:
    """Each trial's tally key ``2 * level + correct`` and the level count,
    where a trial's level is the rank of its nlp among the distinct values."""
    distinct, level = np.unique(nlp, return_inverse=True)
    return 2 * level + correct, len(distinct)


def auroc2_batch(keys: np.ndarray, n_levels: int, index: np.ndarray, lengths) -> np.ndarray:
    """AUROC2 of each sample of a block of ``level_keys`` keys: the block
    ``keys[index]`` lays the samples end to end, sample j having lengths[j]
    rows. nan for a sample without both correctness classes.

    One offset bincount tallies every sample's (incorrect, correct) count
    per level. With the levels ascending, the Mann-Whitney statistic is
    U = sum over levels of correct * (incorrect below + incorrect / 2),
    and AUROC2 = U / (n_correct * n_incorrect). 2U and the pair count are
    exact integers, so the one division gives the average-rank value
    bit for bit, ties included.
    """
    width = 2 * n_levels
    keys = keys[index]
    keys += np.repeat(np.arange(len(lengths)) * width, lengths)
    tally = np.bincount(keys, minlength=len(lengths) * width).reshape(-1, n_levels, 2)
    neg, pos = tally[:, :, 0], tally[:, :, 1]
    twice_below = np.cumsum(neg, axis=1)    # 2 * (incorrect below) + incorrect at
    twice_below *= 2
    twice_below -= neg
    twice_u = np.einsum("jl,jl->j", pos, twice_below)
    with np.errstate(invalid="ignore"):     # 0 / 0: one class only
        return twice_u / (2 * pos.sum(axis=1) * neg.sum(axis=1))


def auroc2_arrays(nlp: np.ndarray, correct: np.ndarray) -> float:
    """P(random correct trial has higher nlp than random incorrect) + half ties.

    The batch of one of ``auroc2_batch``: a tally of both classes over the
    distinct nlp values, exact for ties and equal bit for bit to the
    average-rank (Mann-Whitney) form.
    """
    n_pos = int(correct.sum())
    if n_pos == 0 or n_pos == len(correct):
        raise OneClassOnly("need at least one correct and one incorrect trial")
    keys, n_levels = level_keys(nlp, correct)
    return float(auroc2_batch(keys, n_levels, np.arange(len(keys)), [len(keys)])[0])


def segment_sums(values: np.ndarray, lengths) -> np.ndarray:
    """The float64 sum of each run of ``values``, laid end to end with run
    j having lengths[j] values: bit for bit ``np.add.reduce`` of that run
    alone.

    np.add.reduce of a run starts from the identity 0.0 and adds the run's
    pairwise sum (numpy's ``pairwise_sum``). np.add.reduceat copies a
    segment's first value and adds the pairwise sum of the rest, so a 0.0
    put before each run makes every segment sum the run as reduce does.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.add.reduceat(np.insert(values, starts, 0.0), starts + np.arange(len(lengths)))


def nlp_gap_batch(nlp: np.ndarray, correct: np.ndarray, index: np.ndarray,
                  lengths) -> np.ndarray:
    """NLP gap of each sample of a block: the records ``index`` laid end to
    end, sample j having lengths[j] of them. nan for a sample without both
    correctness classes.

    Each class's values, taken out of the block in block order, are one
    run per sample, so segment_sums and one division give every class mean
    as ``ndarray.mean`` gives it for that sample alone, bit for bit.
    """
    lengths = np.asarray(lengths)
    correct, nlp = correct[index], nlp[index]
    pos, neg = np.flatnonzero(correct), np.flatnonzero(~correct)
    # correct records before each sample's end, less those before its start
    n_pos = np.diff(np.searchsorted(pos, np.cumsum(lengths)), prepend=0)
    n_neg = lengths - n_pos
    with np.errstate(invalid="ignore"):     # 0 / 0: one class only
        return segment_sums(nlp[pos], n_pos) / n_pos - segment_sums(nlp[neg], n_neg) / n_neg


def nlp_gap_arrays(nlp: np.ndarray, correct: np.ndarray) -> float:
    """Mean nlp over correct trials minus mean nlp over incorrect trials:
    the batch of one of ``nlp_gap_batch``."""
    n_pos = int(correct.sum())
    if n_pos == 0 or n_pos == len(correct):
        raise OneClassOnly("need at least one trial in each correctness class")
    return float(nlp_gap_batch(nlp, correct, np.arange(len(correct)), [len(correct)])[0])


def accuracy_arrays(correct: np.ndarray) -> float:
    """Fraction of trials with correct=true."""
    if len(correct) == 0:
        raise EmptySet("accuracy undefined for an empty set")
    return float(correct.mean())


def average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their positions;
    all nan when any value is nan, as scipy.stats.rankdata(v, "average")."""
    if np.isnan(v).any():
        return np.full(v.shape, np.nan)
    s = np.sort(v)
    # v's ties fill sorted positions left + 1 .. right: an exact half-integer mean
    return (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2


def spearman_rho(x, y) -> float:
    """Spearman rank correlation with average ranks for ties.

    Raises LengthMismatch for unequal lengths and ZeroVariance when either
    vector is constant (the correlation is undefined there, not 0). A nan
    in one vector (an undefined value) gives nan unless the
    other is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 observations")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0 or ssy == 0.0:
        raise ZeroVariance("rank correlation undefined for a constant vector")
    # single square root keeps rho exactly +-1 for matched rank orders
    return float((dx @ dy) / np.sqrt(ssx * ssy))
