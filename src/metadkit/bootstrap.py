"""Question-level bootstrap, percentile CIs, TOST, and the hypothesis suite.

Determinism contract
--------------------
The resampling unit is the question id. Index draws come from numpy's
PCG64 via ``default_rng``; the stream for resample ordinal ``i`` of an
analysis unit is::

    entropy = blake2b("metadkit-bootstrap-v1|<seed>|<domain>|<unit>", 16 bytes)
    rng_i   = default_rng(SeedSequence(entropy, spawn_key=(i,)))

where ``unit`` names the statistic or contrast. Each resample draws n ids
with replacement from the sorted unique question-id list, so the indices
depend only on (seed, domain id list, ordinal) and never on evaluation
order; results are bit-identical for any worker count.

Contrasts are paired by default: one shared id-draw sequence drives both
conditions, matching a same-questions design. Resamples where the
statistic is undefined (one-class resample, too few trials to bin, and
for meta-d' and M-ratio a d' of exactly zero or a fit that did not
converge) are counted and excluded, never retried; more than 1%
undefined flags the result. A point estimate whose meta-d' fit did not
converge is nan and flags the result too.

A worker evaluates its chunk of ordinals in batches of up to FIT_BATCH.
The id draws of a batch are one (B, n) block per stream (``_draw_batch``,
bit for bit the stream above; tests/test_rng_contract.py holds it to the
literal recipe), which a paired b side reuses. Each side lays the
records of the batch's resamples end to end as one flat index block
(``_Side.block``), and each metric computes the whole batch from it:
auroc2 with one offset bincount (``nonparam.auroc2_batch``); d_prime,
meta_d and m_ratio through ``profiles.type1_block`` and, for meta_d and
m_ratio, one ``sdt.meta_d_fit_batch`` solve; accuracy and nlp_gap by a
loop over the resamples, so ``ndarray.mean`` sums each pairwise as it
would alone. A point estimate is the identity block of a side's
records in record order, through the same type1_block. Every value is
bit-identical to evaluating its resample alone, so the batch edges, and
with them the worker count, leave the results unchanged. All contrasts
of a hypothesis suite share one process pool.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .binning import RatingScale
from .errors import (
    EmptySet,
    MetadkitWarning,
    MissingCondition,
    OneClassOnly,
    TooFewTrials,
    TooManyDegenerate,
    UnpairedSets,
    WrongCiLevel,
    ZeroDPrime,
)
from .nonparam import accuracy_arrays, auroc2_arrays, auroc2_batch, level_keys, nlp_gap_arrays
from .profiles import DEFINED, fit_cell_arrays, raise_undefined, type1_block
from .sdt import meta_d_fit_batch, sdt_fits
from .trialstore import TrialSet, validate_paired

METRICS = ("accuracy", "nlp_gap", "auroc2", "d_prime", "meta_d", "m_ratio")
DEGENERATE_FRACTION_ALARM = 0.01
FIT_BATCH = 128         # resample ordinals evaluated together by a worker
_MODEL = ("d_prime", "meta_d", "m_ratio")    # binned, tallied and type-1 fitted
_FITTED = ("meta_d", "m_ratio")               # and meta-d' fitted
_DEGENERATE_ERRORS = (OneClassOnly, TooFewTrials, ZeroDPrime, EmptySet)

RULE_CI_LOWER_GT_ZERO = "ci_lower_gt_zero"
RULE_TOST = "tost"


@dataclass(frozen=True)
class BootstrapResult:
    metric: str
    domain: str
    point: float
    ci_low: float
    ci_high: float
    ci_level: float
    n_resamples: int
    seed: int
    degenerate_resample_count: int = 0
    flagged_degenerate: bool = False


@dataclass(frozen=True)
class ContrastResult:
    hypothesis_id: str
    metric: str
    domain: str
    delta_hat: float
    ci_low: float
    ci_high: float
    ci_level: float
    n_resamples: int
    seed: int
    decision: str = ""
    degenerate_resample_count: int = 0
    flagged_degenerate: bool = False
    pairing: str = "paired"
    contrast: str = ""          # condition label, e.g. "2-1"


@dataclass(frozen=True)
class HypothesisSpec:
    id: str
    condition_a: str
    condition_b: str
    domains: tuple[str, ...]
    rule: str
    metric: str = "meta_d"
    delta: float = 0.0
    ci_level: float = 0.95

    def __post_init__(self):
        if self.rule == RULE_TOST and not self.delta > 0:     # nan included
            raise ValueError("tost rule needs delta > 0")


def default_hypothesis_specs(tost_delta: float = 0.17,
                             ci_confirmatory: float = 0.95,
                             ci_tost: float = 0.90) -> list[HypothesisSpec]:
    """The default four-hypothesis confirmatory suite over conditions 1-4."""
    return [
        HypothesisSpec("H1", "2", "1", ("Science",), RULE_CI_LOWER_GT_ZERO,
                       ci_level=ci_confirmatory),
        HypothesisSpec("H2", "2", "1", ("History", "Arts", "Geography"), RULE_TOST,
                       delta=tost_delta, ci_level=ci_tost),
        HypothesisSpec("H3", "2", "3", ("Science",), RULE_CI_LOWER_GT_ZERO,
                       ci_level=ci_confirmatory),
        HypothesisSpec("H4", "2", "4", ("Science",), RULE_CI_LOWER_GT_ZERO,
                       ci_level=ci_confirmatory),
    ]


def _stream_entropy(seed: int, domain: str, unit: str) -> int:
    key = f"metadkit-bootstrap-v1|{seed}|{domain}|{unit}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=16).digest(), "big")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on 32-bit words.
# Its k-th hash of a word xors the k-th running multiplier and multiplies by
# the next: _A for hashing the entropy into the pool, _B for generate_state.
_M32 = 0xFFFFFFFF
_A = [0x43B0D7E5 * pow(0x931E8875, k, 2 ** 32) & _M32 for k in range(21)]
_B = [0x8B51F9DD * pow(0x58F38DED, k, 2 ** 32) & _M32 for k in range(9)]
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_LOW_WORD = 0 if sys.byteorder == "little" else 1    # of a uint64 viewed as 2 uint32


def _hash(value, xor, mul):
    """One SeedSequence hash (hashmix) of ints or uint32 arrays."""
    value = (value ^ xor) * mul & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return result ^ result >> 16


def _seed_states(entropy: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(i,)).generate_state(4, np.uint64)``
    of every ordinal i in [lo, hi), as (hi - lo, 4) uint64 rows.

    SeedSequence hashes its words (entropy as 4 words, low first; then i)
    into a pool of 4: each of the first 4 words, every pool word into every
    other, then i into each pool word. Only that last step depends on i,
    so it runs over all ordinals at once in uint32 arithmetic, which wraps
    as the C code does; so does generate_state's hash of the pool.
    """
    pool = [_hash(entropy >> 32 * k & _M32, _A[k], _A[k + 1]) for k in range(4)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _A[k], _A[k + 1]))
                k += 1
    constants = np.array([pool, _A[16:20], _A[17:21]], dtype=np.uint32)
    ordinals = np.arange(lo, hi).astype(np.uint32)[:, None]
    pool = _mix(constants[0], _hash(ordinals, constants[1], constants[2]))
    words = _hash(np.tile(pool, 2), np.array(_B[:8], dtype=np.uint32),
                  np.array(_B[1:], dtype=np.uint32))
    # pairs of words, low first, as uint64 (numpy's own conversion)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed sequence whose generate_state is a given state: the (4,)
    uint64 words PCG64 asks for when it is seeded."""

    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _bounded(block: np.ndarray, n: int) -> np.ndarray:
    """numpy's 32-bit bounded draw of [0, n), in place on an int64 block
    whose rows hold uint32 words in the order a generator yields them:
    Lemire's (word * n) >> 32. Returns the rows holding a word numpy
    rejects, whose low 32 bits of word * n fall below (2^32 - n) % n;
    numpy draws another word there, so those rows are not its values."""
    product = block.view(np.uint64)
    product *= n
    rejected = product.view(np.uint32)[:, _LOW_WORD::2].min(axis=1) < (2 ** 32 - n) % n
    product >>= 32
    return rejected


def _draw_batch(entropy: int, lo: int, hi: int, n_ids: int) -> np.ndarray:
    """The id draws of resample ordinals [lo, hi) of one stream, as a
    (hi - lo, n_ids) int64 block: row i - lo is bit for bit
    ``default_rng(SeedSequence(entropy, spawn_key=(i,))).integers(0, n_ids,
    size=n_ids)``.

    The seed states are hashed for all rows at once (_seed_states); each
    row's PCG64 is numpy's own, seeded from its state, and yields the row's
    words; one bounded step maps the block. A row holding a rejected word
    is redrawn by numpy's integers on a fresh generator of its state.
    """
    if not 0 <= lo <= hi <= 2 ** 32:
        raise ValueError(f"resample ordinals [{lo}, {hi}) must lie in [0, 2**32)")
    if not 0 <= entropy < 2 ** 128:
        raise ValueError("stream entropy must be a 128-bit unsigned integer")
    if not 1 <= n_ids < 2 ** 32:
        raise ValueError(f"n_ids must be in [1, 2**32), got {n_ids}")
    states = _seed_states(entropy, lo, hi)
    seed = _SeedState()
    ids = np.empty((hi - lo, n_ids), np.int64)
    for row, state in zip(ids, states):
        seed.state = state
        # a 64-bit output is two words, low first, as numpy's next_uint32 takes them
        raw = np.random.PCG64(seed).random_raw((n_ids + 1) // 2)
        row[:] = raw.astype("<u8", copy=False).view("<u4")[:n_ids]
    for j in np.flatnonzero(_bounded(ids, n_ids)):
        seed.state = states[j]
        ids[j] = np.random.Generator(np.random.PCG64(seed)).integers(0, n_ids, size=n_ids)
    return ids


@dataclass(frozen=True)
class _Side:
    """One resampled trial set: its id stream and its records ordered by id."""

    entropy: int | None      # None: a paired b side, which reuses the a side's draw
    n_ids: int
    counts: np.ndarray | None    # records per id; None when every id has one
    nlp: np.ndarray          # by id, in record order within an id
    correct: np.ndarray
    keys: np.ndarray         # AUROC2 tally key of each record (nonparam.level_keys)
    n_levels: int

    def block(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The records of every resample's drawn ids (a row of ``draws``), in
        draw order and laid end to end, and each resample's record count."""
        if self.counts is None:
            return draws.reshape(-1), np.full(len(draws), draws.shape[1])
        flat = self.counts[draws.reshape(-1)]   # expand each drawn id to its run of records
        lengths = flat.reshape(draws.shape).sum(axis=1)
        firsts = np.cumsum(self.counts) - self.counts
        # slot k of the block, in a run of id i that starts at slot p, is record firsts[i] + k - p
        shift = firsts[draws.reshape(-1)]
        shift += flat
        shift -= np.cumsum(flat)
        index = np.repeat(shift, flat)
        del shift
        index += np.arange(len(index))
        return index, lengths


def _side(trials: TrialSet, entropy: int | None) -> _Side:
    codes, ids = trials.codes("question_id")
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(ids))
    nlp, correct = trials.nlp_values[order], trials.correct_mask[order]
    return _Side(entropy, len(ids), None if counts.max() == 1 else counts, nlp, correct,
                 *level_keys(nlp, correct))


@dataclass(frozen=True)
class _Job:
    """What a worker needs to evaluate resample ordinals of one unit: the
    metric of the a side, minus that of the b side for a contrast."""

    metric: str
    scale: RatingScale
    pad_value: float
    a: _Side
    b: _Side | None = None

    @property
    def sides(self) -> tuple[_Side, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)


def metric_value(metric: str, nlp: np.ndarray, correct: np.ndarray,
                 scale: RatingScale = RatingScale(), pad_value: float = 0.5) -> float:
    """One named statistic over raw arrays, re-binning from scratch (the
    model-based ones as the identity block of profiles.type1_block).

    Raises OneClassOnly / TooFewTrials / ZeroDPrime (in that order) or
    EmptySet when the statistic is undefined for this sample; meta_d and
    m_ratio are nan when the meta-d' fit did not converge.
    """
    if metric == "accuracy":
        return accuracy_arrays(correct)
    if metric == "nlp_gap":
        return nlp_gap_arrays(nlp, correct)
    if metric == "auroc2":
        return auroc2_arrays(nlp, correct)
    if metric not in _MODEL:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    if metric in _FITTED:
        fit = fit_cell_arrays(nlp, correct, scale, pad_value)
        return _fitted_stat(metric, fit.meta_d, fit.d_prime) if fit.converged else np.nan
    _, d_prime, _ = _identity_type1(metric, nlp, correct, scale, pad_value)
    return float(d_prime[0])


def _fitted_stat(metric: str, meta_d, d_prime):
    """meta_d, or the M-ratio meta_d / d' (scalars or arrays)."""
    return meta_d if metric == "meta_d" else meta_d / d_prime


def _identity_type1(metric: str, nlp: np.ndarray, correct: np.ndarray, scale: RatingScale,
                    pad_value: float):
    """The padded table, d' and c (one row each) of one sample in input
    order, the identity block of profiles.type1_block, raising
    metric_value's error where ``metric`` is undefined for it."""
    lengths = [len(correct)]
    reasons, *type1 = type1_block(np.unique(nlp, return_inverse=True)[1], correct,
                                  np.arange(lengths[0]), lengths, scale, pad_value)
    raise_undefined(reasons, lengths, scale, meta_d=metric in _FITTED)
    return type1


def _blocks(job: _Job, lo: int, hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (index, lengths) block (_Side.block) of resample ordinals
    [lo, hi) in each side, the a side first. One draw per stream; a paired
    b side reuses the a side's."""
    draws = _draw_batch(job.a.entropy, lo, hi, job.a.n_ids)
    blocks = [job.a.block(draws)]
    if job.b is not None:
        if job.b.entropy is not None:
            draws = _draw_batch(job.b.entropy, lo, hi, job.b.n_ids)
        blocks.append(job.b.block(draws))
    return blocks


def _eval_chunk(job: _Job, start: int, stop: int) -> np.ndarray:
    """Statistic (or nan) for resample ordinals [start, stop), evaluated
    FIT_BATCH ordinals at a time."""
    parts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        for lo in range(start, stop, FIT_BATCH):
            values = _batch_values(job, _blocks(job, lo, min(lo + FIT_BATCH, stop)))
            parts.append(values[0] - values[1] if job.b is not None else values[0])
    return np.concatenate(parts)


def _batch_values(job: _Job, blocks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """(side, resample) statistic of a batch, nan where it is undefined;
    ``blocks[s]`` is side s's (index, lengths) block (_blocks)."""
    if job.metric == "auroc2":
        return np.array([auroc2_batch(side.keys, side.n_levels, *block)
                         for side, block in zip(job.sides, blocks)])
    if job.metric in _MODEL:
        return _model_values(job, blocks)
    values = np.full((len(blocks), len(blocks[0][1])), np.nan)
    for s, (side, (index, lengths)) in enumerate(zip(job.sides, blocks)):
        for j, r in enumerate(np.split(index, np.cumsum(lengths)[:-1])):
            try:
                values[s, j] = metric_value(job.metric, side.nlp[r], side.correct[r],
                                            job.scale, job.pad_value)
            except _DEGENERATE_ERRORS:
                pass
    return values


def _model_values(job: _Job, blocks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """d_prime, meta_d or m_ratio of each side of each resample, nan where
    it is undefined or the fit did not converge: each side is one
    profiles.type1_block, then one meta-d' solve fits every DEFINED table."""
    reasons, tables, d_prime, criterion_c = (np.concatenate(part) for part in zip(*(
        type1_block((side.keys >> 1).astype(np.int32), side.correct, *block, job.scale,
                    job.pad_value)
        for side, block in zip(job.sides, blocks))))
    if job.metric == "d_prime":
        return d_prime.reshape(len(blocks), -1)
    values = np.full(len(reasons), np.nan)
    fitted = reasons == DEFINED
    d_prime = d_prime[fitted]
    fit = meta_d_fit_batch(tables[fitted], d_prime, criterion_c[fitted])
    values[fitted] = np.where(fit.converged, _fitted_stat(job.metric, fit.meta_d, d_prime),
                              np.nan)
    return values.reshape(len(blocks), -1)


def _run_jobs(jobs: list[_Job], n_resamples: int, workers: int) -> list[np.ndarray]:
    """Each job's statistic (or nan) for ordinals [0, n_resamples): in this
    process, or in chunks of about a quarter of a worker's share with
    every (job, chunk) on one process pool."""
    if workers <= 1 or n_resamples < 2 * workers:
        return [_eval_chunk(job, 0, n_resamples) for job in jobs]
    chunk = max(1, -(-n_resamples // (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [[pool.submit(_eval_chunk, job, s, min(s + chunk, n_resamples))
                    for s in range(0, n_resamples, chunk)] for job in jobs]
        return [np.concatenate([f.result() for f in parts]) for parts in futures]


def _single_domain(trials: TrialSet) -> str:
    domains = trials.domains()
    if len(domains) != 1:
        raise ValueError(f"bootstrap needs a single-domain trial set, got {domains}")
    return domains[0]


def _setup(a: TrialSet, b: TrialSet | None, metric: str, unit: str | None,
           n_resamples: int, seed: int, ci_level: float, scale: RatingScale,
           pad_value: float, pairing: str = "paired"):
    """The RNG unit and resampling job of metric(a), or of metric(a) -
    metric(b), the point of each side in record order, and its
    BootstrapResult (ContrastResult) with no point estimate or CI yet.

    The a side draws ids from the stream of ``unit``; an independent b
    side draws from its own stream ``unit|b``, a paired one reuses a's draw.
    """
    if pairing not in ("paired", "independent"):
        raise ValueError(f"pairing must be 'paired' or 'independent', got {pairing!r}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    domain = _single_domain(a)
    if b is not None:
        label, default_unit = _contrast_names(metric, a, b)
        unit = unit or default_unit
        domain_b = _single_domain(b)
        if domain != domain_b:
            raise UnpairedSets(f"contrast across domains {domain!r} vs {domain_b!r}")
        if pairing == "paired":
            report = validate_paired(a, b)
            if not report.paired:
                raise UnpairedSets(
                    f"paired contrast needs identical question ids; "
                    f"missing={report.missing[:5]} extra={report.extra[:5]}")

    # each side's point: the value, or for meta_d and m_ratio the type-1 still to be fitted
    points = [_identity_type1(metric, s.nlp_values, s.correct_mask, scale, pad_value)
              if metric in _FITTED else metric_value(metric, s.nlp_values, s.correct_mask,
                                                     scale, pad_value)
              for s in (a, b) if s is not None]
    side_b = None if b is None else _side(b, None if pairing == "paired"
                                          else _stream_entropy(seed, domain, unit + "|b"))
    job = _Job(metric, scale, pad_value, _side(a, _stream_entropy(seed, domain, unit)), side_b)
    fields = dict(metric=metric, domain=domain, ci_low=np.nan, ci_high=np.nan,
                  ci_level=ci_level, n_resamples=n_resamples, seed=seed)
    return unit, job, points, (BootstrapResult(point=np.nan, **fields) if b is None else
                              ContrastResult(hypothesis_id="", delta_hat=np.nan,
                                             pairing=pairing, contrast=label, **fields))


def _with_points(setups: list, pad_value: float) -> list:
    """(unit, job, result) of each _setup (unit, job, points, result), the
    result with its point estimate: metric(a), or metric(a) - metric(b),
    flagged when nan (a point fit that did not converge). One sdt_fits
    solve fits every meta_d and m_ratio point of the call, its fits and
    warnings taken in (setup, side) order, as one setup at a time would."""
    pending = [point for _, job, points, _ in setups if job.metric in _FITTED
               for point in points]
    fits = sdt_fits(*map(np.concatenate, zip(*pending)), pad_value) if pending else None
    out = []
    for unit, job, points, result in setups:
        if job.metric in _FITTED:
            points = [_fitted_stat(job.metric, fit.meta_d, fit.d_prime) if fit.converged
                      else np.nan for fit in islice(fits, len(points))]
        point = points[0] - points[1] if job.b is not None else points[0]
        out.append((unit, job, replace(result, flagged_degenerate=bool(np.isnan(point)),
                                       **{"point" if job.b is None else "delta_hat": point})))
    return out


def _with_ci(result, unit: str, stats: np.ndarray):
    """``result`` with the percentile CI of its resample statistics; the
    undefined (nan) ones are excluded and counted."""
    valid = stats[~np.isnan(stats)]
    n_bad = len(stats) - len(valid)
    alarm = n_bad > DEGENERATE_FRACTION_ALARM * result.n_resamples
    if alarm:
        warnings.warn(f"{result.domain}/{unit}: {n_bad}/{result.n_resamples} resamples had "
                      f"an undefined statistic", TooManyDegenerate, stacklevel=3)
    ci = (np.nan, np.nan)
    if len(valid):
        alpha = 1.0 - result.ci_level
        ci = np.percentile(valid, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    return replace(result, ci_low=float(ci[0]), ci_high=float(ci[1]),
                   degenerate_resample_count=n_bad,
                   flagged_degenerate=result.flagged_degenerate or alarm or not len(valid))


def bootstrap_metric(trials: TrialSet, metric: str, n_resamples: int = 10_000,
                     seed: int = 42, ci_level: float = 0.95, workers: int = 1,
                     scale: RatingScale = RatingScale(),
                     pad_value: float = 0.5) -> BootstrapResult:
    """Percentile bootstrap CI for one statistic on one domain's trials.

    Each resample draws n question ids with replacement and pushes the
    resulting trial multiset through the full metric pipeline (quantile
    bins recomputed per resample for the model-based metrics).
    """
    (unit, job, result), = _with_points([_setup(trials, None, metric, metric, n_resamples,
                                                 seed, ci_level, scale, pad_value)], pad_value)
    return _with_ci(result, unit, _run_jobs([job], n_resamples, workers)[0])


def bootstrap_contrast(trials_a: TrialSet, trials_b: TrialSet, metric: str,
                       n_resamples: int = 10_000, seed: int = 42,
                       ci_level: float = 0.95, workers: int = 1,
                       scale: RatingScale = RatingScale(), pad_value: float = 0.5,
                       pairing: str = "paired", unit: str | None = None) -> ContrastResult:
    """Bootstrap CI for metric(a) - metric(b) on one domain.

    With ``pairing="paired"`` (default) one shared id-draw sequence drives
    both sides, which requires the sets to hold the same question ids;
    ``"independent"`` resamples each side from its own id list.
    """
    (unit, job, result), = _with_points([_setup(trials_a, trials_b, metric, unit, n_resamples,
                                                 seed, ci_level, scale, pad_value, pairing)],
                                        pad_value)
    return _with_ci(result, unit, _run_jobs([job], n_resamples, workers)[0])


def _contrast_names(metric: str, a: TrialSet, b: TrialSet) -> tuple[str, str]:
    """The report label and the default RNG unit of the contrast a - b; the
    label leaves out the format of a side that has only one."""
    labels, tags = [], []
    for s in (a, b):
        conditions, formats = "+".join(s.conditions()), s.formats()
        tags.append(f"{conditions}@{'+'.join(formats)}")
        labels.append(conditions if len(formats) == 1 else tags[-1])
    return "-".join(labels), f"{metric}|{'-'.join(tags)}"


def check_tost_ci_level(ci_level: float) -> None:
    """Raise WrongCiLevel unless ci_level is the 90% that TOST needs."""
    if not abs(ci_level - 0.90) <= 1e-9:
        raise WrongCiLevel(f"TOST needs a 90% CI, got {ci_level}")


def tost(contrast: ContrastResult, delta: float) -> str:
    """Equivalence decision: 90% CI strictly inside (-delta, +delta)."""
    check_tost_ci_level(contrast.ci_level)
    if not delta > 0:       # nan included
        raise ValueError("delta must be positive")
    equivalent = (-delta < contrast.ci_low) and (contrast.ci_high < delta)
    return "equivalent" if equivalent else "not_equivalent"


def decide(contrast: ContrastResult, rule: str, delta: float = 0.0) -> ContrastResult:
    """Attach the decision implied by (ci_low, ci_high, rule)."""
    if rule == RULE_CI_LOWER_GT_ZERO:
        decision = "supported" if contrast.ci_low > 0.0 else "not_supported"
    elif rule == RULE_TOST:
        decision = tost(contrast, delta)
    else:
        raise ValueError(f"unknown decision rule {rule!r}")
    return replace(contrast, decision=decision)


def run_hypothesis_suite(trials: TrialSet, specs: list[HypothesisSpec],
                         n_resamples: int = 10_000, seed: int = 42,
                         workers: int = 1, scale: RatingScale = RatingScale(),
                         pad_value: float = 0.5,
                         pairing: str = "paired") -> list[ContrastResult]:
    """Evaluate every (spec, domain) contrast and attach decisions.

    Every contrast is checked and its point estimate computed before any
    resampling, the meta-d' point fits of all contrasts in one solve; then
    all contrasts share one process pool (or run in this process at one
    worker) and finish in spec order.
    """
    specs_run, setups = [], []      # per contrast: its spec and its _setup
    conditions = set(trials.conditions())
    for spec in specs:
        for cond in (spec.condition_a, spec.condition_b):
            if cond not in conditions:
                raise MissingCondition(cond)
        if spec.rule == RULE_TOST:
            check_tost_ci_level(spec.ci_level)
        elif spec.rule != RULE_CI_LOWER_GT_ZERO:
            raise ValueError(f"unknown decision rule {spec.rule!r}")
        for domain in spec.domains:
            a = trials.filter(condition=spec.condition_a, domain=domain)
            b = trials.filter(condition=spec.condition_b, domain=domain)
            if len(a) == 0 or len(b) == 0:
                raise MissingCondition(
                    f"{spec.condition_a if len(a) == 0 else spec.condition_b} in {domain}")
            unit = f"{spec.metric}|{spec.condition_a}-{spec.condition_b}"
            specs_run.append(spec)
            setups.append(_setup(a, b, spec.metric, unit, n_resamples, seed, spec.ci_level,
                                 scale, pad_value, pairing))
    contrasts = _with_points(setups, pad_value)
    stats = _run_jobs([job for _, job, _ in contrasts], n_resamples, workers)
    return [decide(replace(_with_ci(result, unit, unit_stats), hypothesis_id=spec.id),
                   spec.rule, spec.delta)
            for spec, (unit, _, result), unit_stats in zip(specs_run, contrasts, stats)]
