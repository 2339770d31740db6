"""Rank-based metrics that need no distributional model.

Type-2 AUROC and the NLP gap work on the raw (unbinned) confidence
values, so they are invariant under the scale choices that drive the
model-based fits.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from .errors import EmptySet, LengthMismatch, OneClassOnly, ZeroVariance


def auroc2_arrays(nlp: np.ndarray, correct: np.ndarray) -> float:
    """P(random correct trial has higher nlp than random incorrect) + half ties.

    Rank-sum (Mann-Whitney) form with average ranks, exact for ties.
    """
    n_pos = int(correct.sum())
    n_neg = len(correct) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("need at least one correct and one incorrect trial")
    ranks = rankdata(nlp, method="average")
    u = ranks[correct].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def nlp_gap_arrays(nlp: np.ndarray, correct: np.ndarray) -> float:
    """Mean nlp over correct trials minus mean nlp over incorrect trials."""
    n_pos = int(correct.sum())
    if n_pos == 0 or n_pos == len(correct):
        raise OneClassOnly("need at least one trial in each correctness class")
    return float(nlp[correct].mean() - nlp[~correct].mean())


def accuracy_arrays(correct: np.ndarray) -> float:
    """Fraction of trials with correct=true."""
    if len(correct) == 0:
        raise EmptySet("accuracy undefined for an empty set")
    return float(correct.mean())


def spearman_rho(x, y) -> float:
    """Spearman rank correlation with average ranks for ties.

    Raises LengthMismatch for unequal lengths and ZeroVariance when either
    vector is constant (the correlation is undefined there, not 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 observations")
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0 or ssy == 0.0:
        raise ZeroVariance("rank correlation undefined for a constant vector")
    # single square root keeps rho exactly +-1 for matched rank orders
    return float((dx @ dy) / np.sqrt(ssx * ssy))
