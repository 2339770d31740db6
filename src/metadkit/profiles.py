"""Per-(condition, format, domain) metric bundles and their rank structure.

A DomainProfile is one row of the diagnostic tables: trial count,
accuracy, the model-based sensitivities (d', meta-d', M-ratio), the
rank-based ones (Type-2 AUROC, NLP gap), and the domain's rank within its
(condition, format) profile set for M-ratio and AUROC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .binning import CountTable, RatingScale, bin_indices, counts_from_arrays, pad_counts
from .errors import DomainMismatch, MixedProfileSet, TiedRanks, TooFewTrials
from .nonparam import accuracy_arrays, auroc2_arrays, nlp_gap_arrays, spearman_rho
from .sdt import SdtFit, check_d_prime, meta_d_fit, meta_d_fits, type1_fit
from .trialstore import TrialSet

RANK_METRICS = ("m_ratio", "auroc2")


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
    rank_m_ratio: int | None = None
    rank_auroc2: int | None = None
    low_dprime_warning: bool = False
    fit_converged: bool = True


def type1_cell_arrays(nlp: np.ndarray, correct: np.ndarray,
                      scale: RatingScale = RatingScale(),
                      pad_value: float = 0.5,
                      bins: np.ndarray | None = None) -> tuple[CountTable, tuple[float, float]]:
    """Bin, tally, pad, and type-1 fit one analysis cell: the padded count
    table and its (d', c).

    ``bins`` overrides the quantile binning (used when the binning scope
    is wider than the cell); otherwise quantiles are computed within the
    cell itself. A cell needs at least 2 * n_bins trials: one per
    (stimulus class, bin) on average.
    """
    if len(nlp) < 2 * scale.n_bins:
        raise TooFewTrials(len(nlp), 2 * scale.n_bins, "a diagnostic cell fit")
    if bins is None:
        bins = bin_indices(nlp, scale.n_bins)
    ci, cc = counts_from_arrays(bins, correct, scale.n_bins)
    table = pad_counts(CountTable(scale.n_ratings, ci, cc), pad_value)
    return table, type1_fit(table)


def fit_cell_arrays(nlp: np.ndarray, correct: np.ndarray,
                    scale: RatingScale = RatingScale(),
                    pad_value: float = 0.5,
                    bins: np.ndarray | None = None) -> SdtFit:
    """type1_cell_arrays followed by the meta-d' fit of the cell."""
    return meta_d_fit(*type1_cell_arrays(nlp, correct, scale, pad_value, bins))


def build_profiles(trials: TrialSet, scale: RatingScale = RatingScale(),
                   pad_value: float = 0.5,
                   binning_scope: str = "per_cell") -> list[DomainProfile]:
    """One ranked DomainProfile per (condition, format, domain) cell.

    ``binning_scope`` is ``"per_cell"`` (quantiles within each domain cell,
    the default) or ``"global"`` (quantiles over all domains of a
    (condition, format) pair, count tables still per domain).

    Each cell is binned, tallied and type-1 fitted in turn, with its
    rank-based metrics; then one batched solve (``sdt.meta_d_fits``) fits
    meta-d' for every cell of the call. A cell's fit is the same bit for
    bit as fitting it alone, and the profiles, the errors and the warnings
    are those of fitting the cells one at a time with fit_cell_arrays,
    except that a build that raises emits no meta-d' warnings.
    """
    if binning_scope not in ("per_cell", "global"):
        raise ValueError(f"unknown binning_scope {binning_scope!r}")
    groups: list[list[dict]] = []   # per (condition, format): its cells
    tables: list[CountTable] = []
    type1s: list[tuple[float, float]] = []
    for condition in trials.conditions():
        for format in trials.formats():
            cf = trials.filter(condition=condition, format=format)
            if len(cf) == 0:
                continue
            shared_bins = (bin_indices(cf.nlp_values, scale.n_bins)
                           if binning_scope == "global" else None)
            domain_codes, domains = cf.codes("domain")
            cells = []
            for code, domain in enumerate(domains.tolist()):
                mask = domain_codes == code
                nlp = cf.nlp_values[mask]
                correct = cf.correct_mask[mask]
                bins = shared_bins[mask] if shared_bins is not None else None
                table, type1 = type1_cell_arrays(nlp, correct, scale, pad_value, bins=bins)
                check_d_prime(type1[0])     # raises before this cell's rank metrics can
                tables.append(table)
                type1s.append(type1)
                cells.append(dict(domain=domain, condition=condition, format=format,
                                  n=int(mask.sum()), accuracy=accuracy_arrays(correct),
                                  auroc2=auroc2_arrays(nlp, correct),
                                  nlp_gap=nlp_gap_arrays(nlp, correct)))
            groups.append(cells)

    # taking the fits one (condition, format) set at a time puts each
    # cell's fit warnings before the set's rank warnings
    fits = meta_d_fits(tables, type1s)
    profiles: list[DomainProfile] = []
    for cells in groups:
        cell_profiles = []
        for cell in cells:
            fit = next(fits)
            cell_profiles.append(DomainProfile(
                **cell, d_prime=fit.d_prime, meta_d=fit.meta_d, m_ratio=fit.m_ratio,
                low_dprime_warning=fit.low_dprime_warning, fit_converged=fit.converged))
        for metric in RANK_METRICS:
            cell_profiles = rank_profile(cell_profiles, metric)
        profiles.extend(cell_profiles)
    return profiles


def rank_profile(profiles: list[DomainProfile], metric: str) -> list[DomainProfile]:
    """Assign ranks for one metric: rank 1 = largest value.

    An undefined (nan) value, such as the M-ratio of a fit that did not
    converge, ranks after every defined one. Ties, nan with nan included,
    are broken by domain name ascending and reported via a TiedRanks
    warning, so ranks are always a permutation of 1..n that does not
    depend on the order of ``profiles``.
    """
    if metric not in RANK_METRICS:
        raise ValueError(f"metric must be one of {RANK_METRICS}, got {metric!r}")
    if len({(p.condition, p.format) for p in profiles}) > 1:
        raise MixedProfileSet("profiles to rank must share (condition, format)")
    # nan sorts as (True, 0.0): after every defined value, tied with other nans
    keys = [(True, 0.0) if math.isnan(v) else (False, -v)
            for v in (getattr(p, metric) for p in profiles)]
    if len(set(keys)) < len(keys):
        warnings.warn(f"{metric} ties broken by domain name", TiedRanks, stacklevel=2)
    order = sorted(range(len(profiles)), key=lambda i: (keys[i], profiles[i].domain))
    field = f"rank_{metric}"
    ranked = list(profiles)
    for rank, i in enumerate(order, start=1):
        ranked[i] = replace(ranked[i], **{field: rank})
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
    rho_m_ratio: float
    rho_auroc2: float
    rank_moves: tuple[RankMove, ...]


def compare_formats(profiles_a: list[DomainProfile],
                    profiles_b: list[DomainProfile]) -> FormatComparison:
    """Profile stability across two formats on the same domain set.

    Spearman rho over the metric values of matched domains, for M-ratio
    and AUROC separately, plus each domain's rank move.
    """
    by_domain_a = {p.domain: p for p in profiles_a}
    by_domain_b = {p.domain: p for p in profiles_b}
    if set(by_domain_a) != set(by_domain_b):
        raise DomainMismatch(
            f"domain sets differ: {sorted(by_domain_a)} vs {sorted(by_domain_b)}")
    domains = sorted(by_domain_a)
    a = [by_domain_a[d] for d in domains]
    b = [by_domain_b[d] for d in domains]

    rhos = {}
    for metric in RANK_METRICS:
        rhos[metric] = spearman_rho([getattr(p, metric) for p in a],
                                    [getattr(p, metric) for p in b])
    moves = []
    for metric in RANK_METRICS:
        ranked_a = rank_profile(a, metric)
        ranked_b = rank_profile(b, metric)
        for pa, pb in zip(ranked_a, ranked_b):
            moves.append(RankMove(domain=pa.domain, metric=metric,
                                  rank_a=getattr(pa, f"rank_{metric}"),
                                  rank_b=getattr(pb, f"rank_{metric}")))
    return FormatComparison(
        format_a=a[0].format if a else "",
        format_b=b[0].format if b else "",
        rho_m_ratio=rhos["m_ratio"],
        rho_auroc2=rhos["auroc2"],
        rank_moves=tuple(moves),
    )
