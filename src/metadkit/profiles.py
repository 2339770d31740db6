"""Per-(condition, format, domain) metric bundles and their rank structure.

A DomainProfile is one row of the diagnostic tables: trial count,
accuracy, the model-based sensitivities (d', meta-d', M-ratio), the
rank-based ones (Type-2 AUROC, NLP gap), and the domain's rank within its
(condition, format) profile set per metric of ``RANK_METRICS``.

Every model-based number passes one block path, ``type1_block``, then
``sdt.sdt_fits`` or ``sdt.meta_d_fit_batch``: build_profiles lays all
cells of a call end to end, the bootstrap a batch of resamples, and a
point estimate is the identity block (one sample in record order). Its
batches of one: ``fit_cell_arrays``, ``bootstrap.metric_value``,
``binning.bin_indices``, ``binning.counts_from_arrays``,
``binning.pad_counts``, ``sdt.type1_fit`` and ``sdt.meta_d_fit``, whose
one table is the (2, n_bins) row of the block. build_profiles takes the
NLP gap of every cell from the same block in one ``nonparam.nlp_gap_batch``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .binning import (DEFAULT_PAD_VALUE, RatingScale, check_bins, check_pad_value,
                      quantile_bins, tally)
from .errors import DomainMismatch, MixedProfileSet, OneClassOnly, TiedRanks, TooFewTrials
from .nonparam import accuracy_arrays, auroc2_arrays, nlp_gap_batch, spearman_rho
from .sdt import SdtFit, check_d_prime, sdt_fits, type1_batch
from .trialstore import TrialSet

# looked up here by name by perfbench/spans.py only
from .binning import bin_indices, counts_from_arrays, pad_counts  # noqa: F401
from .nonparam import nlp_gap_arrays  # noqa: F401
from .sdt import meta_d_fit, type1_fit  # noqa: F401

RANK_METRICS = ("m_ratio", "auroc2")
BINNING_SCOPES = ("per_cell", "global")
# why a sample's statistic is undefined, in the order they are checked
DEFINED, ONE_CLASS, TOO_FEW, ZERO_D_PRIME = range(4)


@dataclass(frozen=True)
class DomainProfile:
    domain: str
    condition: str
    format: str
    n: int
    accuracy: float
    d_prime: float
    meta_d: float
    m_ratio: float
    auroc2: float
    nlp_gap: float
    ranks: dict[str, int] = field(default_factory=dict)
    low_dprime_warning: bool = False
    fit_converged: bool = True


def type1_block(levels: np.ndarray | None, correct: np.ndarray, index: np.ndarray, lengths,
                scale: RatingScale = RatingScale(), pad_value: float = DEFAULT_PAD_VALUE,
                bins: np.ndarray | None = None):
    """Bin, tally, pad and type-1 fit every sample of a block: the records
    ``index`` laid end to end, sample j having lengths[j] of them.

    ``levels`` code each record's nlp (codes over any superset of a sample
    bin it as bin_indices would); ``bins`` (1..n_bins per record) replace
    the quantile binning when the binning scope is wider than a sample.
    Returns each sample's reason (DEFINED, else ONE_CLASS, TOO_FEW: under
    2 * n_bins records, or ZERO_D_PRIME, checked in that order), its
    padded (B, 2, n_bins) table, row 0 incorrect, and its d' and c (nan
    for ONE_CLASS and TOO_FEW).
    """
    check_pad_value(pad_value)
    n_bins = scale.n_bins
    lengths = np.asarray(lengths)
    if bins is None:
        bins = quantile_bins(levels[index], lengths, n_bins)
    else:
        check_bins(bins, n_bins)
        bins = bins[index] - 1
    counts = tally(bins, correct[index], lengths, n_bins)
    reasons = np.where(counts.any(axis=2).all(axis=1),
                       np.where(lengths < 2 * n_bins, TOO_FEW, DEFINED), ONE_CLASS)
    tables = counts + pad_value
    d_prime, criterion_c = np.full((2, len(lengths)), np.nan)
    fitted = reasons == DEFINED
    d_prime[fitted], criterion_c[fitted] = type1_batch(tables[fitted])
    reasons[fitted & (d_prime == 0.0)] = ZERO_D_PRIME
    return reasons, tables, d_prime, criterion_c


def raise_undefined(reasons: np.ndarray, lengths, scale: RatingScale = RatingScale()) -> None:
    """Raise the error of the first sample of a type1_block whose statistic
    is undefined."""
    for j in np.flatnonzero(reasons != DEFINED)[:1]:
        if reasons[j] == ONE_CLASS:
            raise OneClassOnly("sensitivity metrics need both correctness classes")
        if reasons[j] == TOO_FEW:
            raise TooFewTrials(int(lengths[j]), 2 * scale.n_bins, "a diagnostic cell fit")
        check_d_prime(0.0)


def fit_cell_arrays(nlp: np.ndarray, correct: np.ndarray, scale: RatingScale = RatingScale(),
                    pad_value: float = DEFAULT_PAD_VALUE,
                    bins: np.ndarray | None = None) -> SdtFit:
    """The SdtFit of one cell, its records in input order as the identity
    block of type1_block, binned by ``bins`` if given or else within the
    cell. Raises OneClassOnly, TooFewTrials or ZeroDPrime, in that order."""
    lengths = [len(correct)]
    reasons, tables, d_prime, criterion_c = type1_block(
        np.unique(nlp, return_inverse=True)[1], correct, np.arange(lengths[0]), lengths, scale,
        pad_value, None if bins is None else np.asarray(bins))
    raise_undefined(reasons, lengths, scale)
    return next(sdt_fits(tables, d_prime, criterion_c, pad_value))


def check_binning_scope(binning_scope: str) -> None:
    """Raise ValueError unless binning_scope is one of BINNING_SCOPES."""
    if binning_scope not in BINNING_SCOPES:
        raise ValueError(f"binning_scope must be one of {BINNING_SCOPES}, got {binning_scope!r}")


def build_profiles(trials: TrialSet, scale: RatingScale = RatingScale(),
                   pad_value: float = DEFAULT_PAD_VALUE,
                   binning_scope: str = "per_cell") -> list[DomainProfile]:
    """One ranked DomainProfile per (condition, format, domain) cell.

    ``binning_scope`` is ``"per_cell"`` (quantiles within each domain cell,
    the default) or ``"global"`` (quantiles over all domains of a
    (condition, format) set in record order, count tables still per
    domain).

    Every cell, its records in record order, is one sample of one
    type1_block; the first undefined cell raises, and one sdt_fits solve
    fits every cell. The profiles, errors and warnings are those of
    fit_cell_arrays on one cell at a time, except that a build that
    raises has emitted no fit warning.
    """
    check_binning_scope(binning_scope)
    nlp, correct = trials.nlp_values, trials.correct_mask
    (condition_codes, conditions), (format_codes, formats), (domain_codes, domains) = (
        trials.codes(field) for field in ("condition", "format", "domain"))
    pair = condition_codes * len(formats) + format_codes    # each record's (condition, format)
    cell = pair * len(domains) + domain_codes
    index = np.argsort(cell, kind="stable")     # the cells end to end, each in record order
    cells, lengths = np.unique(cell, return_counts=True)
    levels, bins = np.unique(nlp, return_inverse=True)[1], None
    if binning_scope == "global":   # each (condition, format) set one sample of quantile_bins
        by_pair = np.argsort(pair, kind="stable")
        bins = np.empty_like(by_pair)
        bins[by_pair] = quantile_bins(levels[by_pair], np.bincount(pair), scale.n_bins) + 1
    reasons, tables, d_prime, criterion_c = type1_block(levels, correct, index, lengths,
                                                        scale, pad_value, bins)
    raise_undefined(reasons, lengths, scale)

    # taking the fits one (condition, format) set at a time puts each
    # cell's fit warnings before the set's rank warnings
    fits = sdt_fits(tables, d_prime, criterion_c, pad_value)
    gaps = nlp_gap_batch(nlp, correct, index, lengths)
    records = np.split(index, np.cumsum(lengths)[:-1])
    profiles: list[DomainProfile] = []
    for p in np.unique(cells // len(domains)):
        cell_profiles = []
        for j in np.flatnonzero(cells // len(domains) == p):
            r, fit = records[j], next(fits)
            cell_profiles.append(DomainProfile(
                domain=domains[cells[j] % len(domains)], condition=conditions[p // len(formats)],
                format=formats[p % len(formats)], n=len(r), accuracy=accuracy_arrays(correct[r]),
                d_prime=fit.d_prime, meta_d=fit.meta_d, m_ratio=fit.m_ratio,
                auroc2=auroc2_arrays(nlp[r], correct[r]),
                nlp_gap=float(gaps[j]),
                low_dprime_warning=fit.low_dprime_warning, fit_converged=fit.converged))
        for metric in RANK_METRICS:
            cell_profiles = rank_profile(cell_profiles, metric)
        profiles.extend(cell_profiles)
    return profiles


def _rank_key(value: float) -> tuple[bool, float]:
    """A value's rank sort key: descending, and a nan as (True, 0.0), so
    after every defined value and tied with other nans."""
    return (True, 0.0) if math.isnan(value) else (False, -value)


def ranks_tie(values) -> bool:
    """Whether two of ``values`` tie for a rank: equal, or both nan."""
    keys = [_rank_key(v) for v in values]
    return len(set(keys)) < len(keys)


def rank_profile(profiles: list[DomainProfile], metric: str) -> list[DomainProfile]:
    """Assign ranks for one metric: rank 1 = largest value.

    An undefined (nan) value ranks after every defined one. Ties, nan with
    nan included (ranks_tie), are broken by domain name ascending and
    reported via a TiedRanks warning, so ranks are always a permutation of
    1..n that does not depend on the order of ``profiles``. build_profiles
    gives a cell whose fit did not converge its fitted M-ratio, flagged by
    ``fit_converged``, not nan.
    """
    if metric not in RANK_METRICS:
        raise ValueError(f"metric must be one of {RANK_METRICS}, got {metric!r}")
    if len({(p.condition, p.format) for p in profiles}) > 1:
        raise MixedProfileSet("profiles to rank must share (condition, format)")
    values = [getattr(p, metric) for p in profiles]
    if ranks_tie(values):
        warnings.warn(f"{metric} ties broken by domain name", TiedRanks, stacklevel=2)
    order = sorted(range(len(profiles)),
                   key=lambda i: (_rank_key(values[i]), profiles[i].domain))
    ranked = list(profiles)
    for rank, i in enumerate(order, start=1):
        ranked[i] = replace(ranked[i], ranks={**ranked[i].ranks, metric: rank})
    return ranked


@dataclass(frozen=True)
class RankMove:
    domain: str
    metric: str
    rank_a: int
    rank_b: int

    @property
    def moved(self) -> bool:
        return self.rank_a != self.rank_b


@dataclass(frozen=True)
class FormatComparison:
    format_a: str
    format_b: str
    rho: dict[str, float]
    rank_moves: tuple[RankMove, ...]


def compare_formats(profiles_a: list[DomainProfile],
                    profiles_b: list[DomainProfile]) -> FormatComparison:
    """Profile stability across two formats on the same domain set.

    Spearman rho over the metric values of matched domains per metric of
    ``RANK_METRICS``, plus each domain's rank move.
    """
    by_domain_a = {p.domain: p for p in profiles_a}
    by_domain_b = {p.domain: p for p in profiles_b}
    if set(by_domain_a) != set(by_domain_b):
        raise DomainMismatch(
            f"domain sets differ: {sorted(by_domain_a)} vs {sorted(by_domain_b)}")
    domains = sorted(by_domain_a)
    a = [by_domain_a[d] for d in domains]
    b = [by_domain_b[d] for d in domains]

    rho = {metric: spearman_rho([getattr(p, metric) for p in a],
                                [getattr(p, metric) for p in b])
           for metric in RANK_METRICS}
    moves = []
    for metric in RANK_METRICS:
        for pa, pb in zip(rank_profile(a, metric), rank_profile(b, metric)):
            moves.append(RankMove(domain=pa.domain, metric=metric,
                                  rank_a=pa.ranks[metric], rank_b=pb.ranks[metric]))
    return FormatComparison(format_a=a[0].format, format_b=b[0].format, rho=rho,
                            rank_moves=tuple(moves))
