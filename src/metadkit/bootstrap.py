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

One evaluator, ``_evaluate``, gives every statistic of a block: the
records of a side's samples laid end to end as one flat index. Per
sample it returns the profiles reason and the value: accuracy and auroc2
(``nonparam.auroc2_batch``) from one bincount; nlp_gap
(``nonparam.nlp_gap_batch``) from one run per sample and class, each
summed as ``ndarray.mean`` sums it alone; d_prime, meta_d and m_ratio by
``profiles.type1_block``, meta_d and m_ratio as tables still to fit. A
worker takes its ordinals FIT_BATCH at a time: one (B, n) id draw per
stream (``_draw_batch``, bit for bit the stream above, as
tests/test_rng_contract.py checks), shared by the sides of that stream,
as a paired side shares the first side's; each side's rows through the
evaluator in blocks of at most BLOCK_RECORDS records (``_Side.blocks``);
``sdt.meta_d_fit_batch`` solves of at most FIT_ROWS tables for the tables
of every block of every job of the chunk. The draw is made once per
batch because each draw has a fixed cost
(``_seed_states``); the blocks keep the gathers, offsets and tallies of
a block a few hundred kB, so the allocator reuses them from block to
block instead of handing MB-sized buffers back to the kernel and
faulting them in again. A point estimate, ``metric_value``'s too, is a
side's identity block (its records in record order), fitted by one
``sdt.sdt_fits`` solve with its warnings. Every value equals its
resample evaluated alone, so neither the batch, block or solve edges nor the
worker count change a result.

``workers`` counts processes in all, the calling one included. The
units of a call, a whole suite's too, are cut into chunks of one
FIT_BATCH batch each (``_run_jobs``). Every meta_d and m_ratio unit
shares its chunks: a chunk is one batch of all of them, so that their
tables meet in solves of up to FIT_ROWS, where a solve of one unit's 200
to 256 tables pays more per-call overhead per table. Every other unit has
no solve to share and keeps chunks of its own, which spread more evenly
over a team. At more than one worker a call starts a team:
``workers - 1`` child processes (no more than the chunks need) and the
caller each claim the next chunk from one shared counter and write its
values into one shared array. One worker starts no process.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .binning import DEFAULT_PAD_VALUE, RatingScale
from .errors import (
    EmptySet,
    MissingCondition,
    OneClassOnly,
    TooFewTrials,
    TooManyDegenerate,
    UnpairedSets,
    WrongCiLevel,
    ZeroDPrime,
)
from .nonparam import auroc2_batch, level_keys, nlp_gap_batch
from .profiles import DEFINED, ONE_CLASS, ZERO_D_PRIME, raise_undefined, type1_block
from .sdt import meta_d_fit_batch, sdt_fits
from .trialstore import TrialSet, validate_paired

# looked up here by name by perfbench/spans.py only
from .nonparam import accuracy_arrays, auroc2_arrays, nlp_gap_arrays  # noqa: F401
from .profiles import fit_cell_arrays  # noqa: F401

METRICS = ("accuracy", "nlp_gap", "auroc2", "d_prime", "meta_d", "m_ratio")
PAIRINGS = ("paired", "independent")
DEGENERATE_FRACTION_ALARM = 0.01
TOST_CI_LEVEL = 0.90    # the CI level of a TOST rule, fixed: a 90% CI is an alpha = 0.05 TOST
FIT_BATCH = 128         # resample ordinals evaluated together by a worker
# most tables of one meta-d' solve. On a suite's resample tables (one core
# of a 2-vCPU Xeon VM, best of 3) a solve cost 52-55 us per table at 200
# tables, 45-46 at 256, 41-43 at 512 and no less at 768-1 536: small solves
# pay numpy's per-call overhead, and larger ones gain nothing while their
# 7.4 kB per table of working set (3.8 MB at 512) grows. The f16 H1-H4
# suite of the benchmark's trial file at 100 resamples took 90 ms in
# solves of 200 tables, 79 ms in the 400s this cuts its 1 200 into and
# 89 ms in one solve
FIT_ROWS = 512
BLOCK_RECORDS = 32_768  # most records of a side that one evaluation block holds
_MODEL = ("d_prime", "meta_d", "m_ratio")    # binned, tallied and type-1 fitted
_FITTED = ("meta_d", "m_ratio")               # and meta-d' fitted

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
        check_rule(self.rule)
        check_metric(self.metric)
        if self.rule == RULE_TOST:
            check_tost_delta(self.delta)
            check_tost_ci_level(self.ci_level)
        _check_ci_level(self.ci_level)


def check_metric(metric: str) -> None:
    """Raise ValueError unless metric is one of METRICS."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def _check_ci_level(ci_level: float) -> None:
    if not 0 < ci_level < 1:        # nan and inf included
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")


def check_resampling(n_resamples: int, workers: int = 1, pairing: str = "paired") -> None:
    """The entry check of every bootstrap call's resampling settings."""
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    if n_resamples > 2 ** 32:       # _draw_batch's ordinals lie in [0, 2**32)
        raise ValueError(f"n_resamples must be <= 2**32, got {n_resamples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}, got {pairing!r}")


def default_hypothesis_specs(tost_delta: float = 0.17,
                             ci_confirmatory: float = 0.95) -> list[HypothesisSpec]:
    """The default four-hypothesis confirmatory suite over conditions 1-4."""
    return [
        HypothesisSpec("H1", "2", "1", ("Science",), RULE_CI_LOWER_GT_ZERO,
                       ci_level=ci_confirmatory),
        HypothesisSpec("H2", "2", "1", ("History", "Arts", "Geography"), RULE_TOST,
                       delta=tost_delta, ci_level=TOST_CI_LEVEL),
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
# the next: _A for hashing words into the pool (hashes 0-15 take in the
# entropy, 16-19 the spawn key), _B for generate_state.
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
    into a pool of 4: the entropy first, which gives the pool of
    ``SeedSequence(entropy)``, taken from numpy; then i into each pool
    word. Only that last step depends on i, so it is replicated here over
    all ordinals at once in uint32 arithmetic, which wraps as the C code
    does; so is generate_state's hash of the pool.
    """
    constants = np.array([np.random.SeedSequence(entropy).pool, _A[16:20], _A[17:21]],
                         dtype=np.uint32)
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
    raw = np.empty((hi - lo, (n_ids + 1) // 2), "<u8")
    for row, state in zip(raw, states):
        seed.state = state
        row[:] = np.random.PCG64(seed).random_raw(len(row))
    # a 64-bit output is two words, low first, as numpy's next_uint32 takes them
    ids = raw.view("<u4")[:, :n_ids].astype(np.int64)
    del raw
    for j in np.flatnonzero(_bounded(ids, n_ids)):
        seed.state = states[j]
        ids[j] = np.random.Generator(np.random.PCG64(seed)).integers(0, n_ids, size=n_ids)
    return ids


@dataclass(frozen=True)
class _Side:
    """One resampled trial set: its id stream and its records ordered by id."""

    entropy: int             # its id stream; a paired side's is the first side's
    n_ids: int
    counts: np.ndarray | None    # records per id; None when every id has one
    records: np.ndarray      # each record's row below, in record order: the identity block
    nlp: np.ndarray          # by id, in record order within an id
    correct: np.ndarray
    keys: np.ndarray         # AUROC2 tally key of each record (nonparam.level_keys)
    n_levels: int

    @cached_property
    def levels(self) -> np.ndarray:
        """Each record's nlp level, the code profiles.type1_block bins."""
        return (self.keys >> 1).astype(np.int32)

    @cached_property
    def firsts(self) -> np.ndarray:
        """The row of each id's first record (a side with counts)."""
        return np.cumsum(self.counts) - self.counts

    def block(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The records of every resample's drawn ids (a row of ``draws``), in
        draw order and laid end to end, and each resample's record count."""
        if self.counts is None:
            return draws.reshape(-1), np.full(len(draws), draws.shape[1])
        flat = self.counts[draws.reshape(-1)]   # expand each drawn id to its run of records
        lengths = flat.reshape(draws.shape).sum(axis=1)
        # slot k of the block, in a run of id i that starts at slot p, is record firsts[i] + k - p
        shift = self.firsts[draws.reshape(-1)]
        shift += flat
        shift -= np.cumsum(flat)
        index = np.repeat(shift, flat)
        del shift
        index += np.arange(len(index))
        return index, lengths

    def blocks(self, draws: np.ndarray):
        """The blocks (``block``) of consecutive runs of rows of ``draws``,
        in row order: each run holds at most BLOCK_RECORDS records, however
        the ids fall, and at least one row."""
        most = draws.shape[1] * (1 if self.counts is None else int(self.counts.max()))
        rows = max(1, BLOCK_RECORDS // most)
        for lo in range(0, len(draws), rows):
            yield self.block(draws[lo:lo + rows])


def _side(trials: TrialSet, entropy: int) -> _Side:
    codes, ids = trials.codes("question_id")
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(ids))
    nlp, correct = trials.nlp_values[order], trials.correct_mask[order]
    return _Side(entropy, len(ids), None if counts.max() == 1 else counts,
                 np.argsort(order), nlp, correct, *level_keys(nlp, correct))


@dataclass(frozen=True)
class _Job:
    """What a worker needs to evaluate resample ordinals of one unit: the
    metric of the first side, minus that of each other side (a contrast's b)."""

    metric: str
    scale: RatingScale
    pad_value: float
    sides: tuple[_Side, ...]

    def __post_init__(self):
        check_metric(self.metric)


def metric_value(metric: str, nlp: np.ndarray, correct: np.ndarray,
                 scale: RatingScale = RatingScale(),
                 pad_value: float = DEFAULT_PAD_VALUE) -> float:
    """One named statistic of one sample, as a point estimate: the records
    in input order are the identity block of a one-sample side.

    Raises EmptySet for no records, else OneClassOnly / TooFewTrials /
    ZeroDPrime (in that order) when the statistic is undefined for this
    sample; meta_d and m_ratio are nan when the meta-d' fit did not
    converge.
    """
    if not len(correct):
        raise EmptySet(f"{metric} undefined for an empty set")
    side = _Side(0, len(correct), None, np.arange(len(correct)), nlp, correct,
                 *level_keys(nlp, correct))     # entropy 0: a point estimate draws no ids
    job = _Job(metric, scale, pad_value, (side,))
    return _point_values([(job, _points(job))], pad_value)[0]


def _fitted_stat(metric: str, meta_d, d_prime):
    """meta_d, or the M-ratio meta_d / d' (scalars or arrays)."""
    return meta_d if metric == "meta_d" else meta_d / d_prime


def _evaluate(job: _Job, side: _Side, index: np.ndarray, lengths):
    """Each sample's reason and statistic in a block of ``side``: records
    ``index`` laid end to end, sample j having lengths[j] of them. The
    reasons are profiles.type1_block's, with a d' of 0 a d_prime value. A
    statistic is nan unless DEFINED, and for meta_d and m_ratio always:
    their DEFINED samples' padded tables, d' and c, still to be fitted,
    come third (None for the other metrics)."""
    lengths = np.asarray(lengths)
    if job.metric in _MODEL:
        reasons, tables, d_prime, criterion_c = type1_block(
            side.levels, side.correct, index, lengths, job.scale, job.pad_value)
        if job.metric == "d_prime":
            reasons[reasons == ZERO_D_PRIME] = DEFINED
            return reasons, d_prime, None
        fitted = reasons == DEFINED
        return (reasons, np.full(len(lengths), np.nan),
                (tables[fitted], d_prime[fitted], criterion_c[fitted]))
    if job.metric == "accuracy":
        values = np.bincount(np.repeat(np.arange(len(lengths)), lengths),
                             weights=side.correct[index], minlength=len(lengths)) / lengths
    elif job.metric == "auroc2":
        values = auroc2_batch(side.keys, side.n_levels, index, lengths)
    else:
        values = nlp_gap_batch(side.nlp, side.correct, index, lengths)
    return np.where(np.isnan(values), ONE_CLASS, DEFINED), values, None


def _points(job: _Job) -> list:
    """Each side's point estimate: its identity block through _evaluate,
    raising the error of an undefined one. A value, or for meta_d and
    m_ratio the (table, d', c) still to be fitted."""
    points = []
    for side in job.sides:
        lengths = [len(side.records)]
        reasons, values, pending = _evaluate(job, side, side.records, lengths)
        raise_undefined(reasons, lengths, job.scale)
        points.append(float(values[0]) if pending is None else pending)
    return points


def _draws(job: _Job, lo: int, hi: int) -> list[np.ndarray]:
    """Each side's id draw (_draw_batch) of resample ordinals [lo, hi), in
    side order. Each distinct stream is drawn once, and its sides share
    the draw: a paired side that of the first side."""
    streams = dict.fromkeys((side.entropy, side.n_ids) for side in job.sides)
    for entropy, n_ids in streams:
        streams[entropy, n_ids] = _draw_batch(entropy, lo, hi, n_ids)
    return [streams[side.entropy, side.n_ids] for side in job.sides]


def _eval_chunk(jobs: list[_Job], lo: int, hi: int) -> np.ndarray:
    """Each job's statistic (or nan) for resample ordinals [lo, hi), at most
    one FIT_BATCH batch, as a (len(jobs), hi - lo) block: one id draw per
    stream of a job, each side's rows through _evaluate in blocks of bounded
    size (_Side.blocks), then the tables every block of every job left to
    fit, in job, side and block order, in ceil(tables / FIT_ROWS) meta-d'
    solves of equal size."""
    evaluated, pending = [], []     # per job its (reasons, values); every pending fit
    for job in jobs:
        reasons, values = [], []    # per side
        for side, draws in zip(job.sides, _draws(job, lo, hi)):
            side_reasons, side_values, side_pending = zip(
                *(_evaluate(job, side, *block) for block in side.blocks(draws)))
            reasons.append(np.concatenate(side_reasons))
            values.append(np.concatenate(side_values))
            if job.metric in _FITTED:
                pending += side_pending
        evaluated.append((np.array(reasons), np.array(values)))
    if pending:
        tables, d_prime, criterion_c = map(np.concatenate, zip(*pending))
        solves = max(1, -(-len(tables) // FIT_ROWS))
        fits = [meta_d_fit_batch(*rows) for rows in zip(
            *(np.array_split(a, solves) for a in (tables, d_prime, criterion_c)))]
        meta_d = np.concatenate([fit.meta_d for fit in fits])
        converged = np.concatenate([fit.converged for fit in fits])
    out = np.empty((len(jobs), hi - lo))
    taken = 0
    for j, (job, (reasons, values)) in enumerate(zip(jobs, evaluated)):
        if job.metric in _FITTED:
            fitted = reasons == DEFINED
            rows = slice(taken, taken + np.count_nonzero(fitted))
            taken = rows.stop
            values[fitted] = np.where(converged[rows], _fitted_stat(
                job.metric, meta_d[rows], d_prime[rows]), np.nan)
        out[j] = np.subtract.reduce(values)
    return out


def _claim_chunks(jobs: list[_Job], chunks: list[tuple[tuple[int, ...], int, int]], claimed,
                  shared, failed) -> None:
    """The loop of every process of a team: claim the next chunk under the
    lock of the shared counter ``claimed`` and write the statistics of its
    jobs into their slots of ``shared``, the (len(jobs), n_resamples)
    float64 results, until no chunk is left. A chunk's error moves the
    counter past the last chunk, so that every process stops after its
    current one, and records the chunk's index in the shared ``failed``
    unless an earlier error did."""
    out = np.frombuffer(shared).reshape(len(jobs), -1)
    while True:
        with claimed.get_lock():
            k = claimed.value
            claimed.value = k + 1
        if k >= len(chunks):
            return
        group, lo, hi = chunks[k]
        try:
            out[list(group), lo:hi] = _eval_chunk([jobs[j] for j in group], lo, hi)
        except BaseException:
            with claimed.get_lock():
                claimed.value = len(chunks)
                if failed.value < 0:
                    failed.value = k
            raise


def _child(*args) -> None:
    """A child process of a team: the caller's loop (_claim_chunks). An
    error it raises, multiprocessing prints to stderr; the child exits 1."""
    _claim_chunks(*args)


def _groups(jobs: list[_Job]) -> list[tuple[int, ...]]:
    """The jobs that share chunks, as tuples of indices ordered by their
    first: every job whose metric is meta-d' fitted in one group, so that
    their tables meet in solves of up to FIT_ROWS; every other job alone,
    as it has no solve to share, so that its chunks stay small."""
    groups = [(j,) for j, job in enumerate(jobs) if job.metric not in _FITTED]
    fitted = tuple(j for j, job in enumerate(jobs) if job.metric in _FITTED)
    if fitted:
        groups.append(fitted)
    return sorted(groups)


def _run_jobs(jobs: list[_Job], n_resamples: int, workers: int) -> list[np.ndarray]:
    """Each job's statistic (or nan) for ordinals [0, n_resamples), on
    ``workers`` processes in all, this one included.

    A chunk is one FIT_BATCH batch of one group of jobs (_groups): of
    every meta-d' fitted job at once, or of one other job. One worker, or
    a single chunk, runs them in turn here and creates no process.
    Otherwise min(workers, chunks) - 1 child processes are started and
    form a team with this one: each process claims the next chunk from one
    shared counter (_claim_chunks) and writes its statistics into one
    shared array. With fork the jobs reach the children at fork time;
    under spawn or forkserver they are pickled once per child. On any
    error the counter moves past the last chunk and every child is joined.
    This process's own error is raised; else the first chunk that failed
    in a child is run again here, where a chunk's values and errors depend
    only on its jobs and ordinals, so it raises the child's error with its
    own type and message (the child printed its traceback to stderr). A
    RuntimeError is raised if that chunk runs cleanly here, or if a child
    exited non-zero with no chunk failed (a signal, the OOM killer). A
    child killed while it holds the counter's lock (for a few
    microseconds per chunk) would leave the others waiting on it.
    """
    chunks = [(group, lo, min(lo + FIT_BATCH, n_resamples))
              for group in _groups(jobs) for lo in range(0, n_resamples, FIT_BATCH)]
    team = min(workers, len(chunks))
    if team <= 1:
        out = np.empty((len(jobs), n_resamples))
        for group, lo, hi in chunks:
            out[list(group), lo:hi] = _eval_chunk([jobs[j] for j in group], lo, hi)
        return list(out)
    ctx = multiprocessing.get_context()
    claimed, failed = ctx.Value("q", 0), ctx.RawValue("q", -1)
    shared = ctx.RawArray("d", len(jobs) * n_resamples)
    args = jobs, chunks, claimed, shared, failed
    children = []
    try:
        for _ in range(team - 1):
            children.append(ctx.Process(target=_child, args=args, daemon=True))
            children[-1].start()
        _claim_chunks(*args)
    except BaseException:
        with claimed.get_lock():
            claimed.value = len(chunks)
        raise
    finally:
        for child in children:
            child.join()
    if failed.value >= 0:
        group, lo, hi = chunks[failed.value]
        _eval_chunk([jobs[j] for j in group], lo, hi)
        raise RuntimeError(f"resample chunk [{lo}, {hi}) of job{'s' * (len(group) > 1)} "
                           f"{', '.join(map(str, group))} failed in a bootstrap worker "
                           f"process but runs cleanly here")
    for child in children:
        if child.exitcode:
            raise RuntimeError(f"bootstrap worker process {child.pid} exited with code "
                               f"{child.exitcode}")
    return list(np.frombuffer(shared).reshape(len(jobs), n_resamples).copy())


def _single_domain(trials: TrialSet) -> str:
    domains = trials.domains()
    if len(domains) != 1:
        raise ValueError(f"bootstrap needs a single-domain trial set, got {domains}")
    return domains[0]


def _setup(a: TrialSet, b: TrialSet | None, metric: str, unit: str | None, seed: int,
           ci_level: float, scale: RatingScale, pad_value: float, pairing: str = "paired",
           hypothesis_id: str = ""):
    """The RNG unit and resampling job of metric(a), or of metric(a) -
    metric(b), the point of each side (_points), and the type of its result
    with the fields of it that resampling does not give. The error of an
    undefined point names its unit: its message starts ``<domain>/<unit>: ``.

    The a side draws ids from the stream of ``unit``; a paired b side
    shares that stream, an independent one has its own, ``unit|b``.
    """
    _check_ci_level(ci_level)
    domain = _single_domain(a)
    fields = dict(metric=metric, domain=domain, ci_level=ci_level, seed=seed)
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
        fields.update(hypothesis_id=hypothesis_id, pairing=pairing, contrast=label)

    entropy = _stream_entropy(seed, domain, unit)
    sides = (_side(a, entropy),)
    if b is not None:
        sides += (_side(b, entropy if pairing == "paired"
                        else _stream_entropy(seed, domain, unit + "|b")),)
    job = _Job(metric, scale, pad_value, sides)
    try:
        points = _points(job)
    except (OneClassOnly, TooFewTrials, ZeroDPrime) as exc:
        exc.args = (f"{domain}/{unit}: {exc}",)
        raise
    return unit, job, points, BootstrapResult if b is None else ContrastResult, fields


def _point_values(units: list, pad_value: float) -> list[float]:
    """metric(a), or metric(a) - metric(b), of each (job, points of _points),
    nan where a point fit did not converge. One sdt_fits solve fits every
    meta_d and m_ratio point, its fits and warnings taken in (unit, side)
    order, as one unit at a time would."""
    pending = [point for job, points in units if job.metric in _FITTED for point in points]
    fits = sdt_fits(*map(np.concatenate, zip(*pending)), pad_value) if pending else None
    out = []
    for job, points in units:
        if job.metric in _FITTED:
            points = [_fitted_stat(job.metric, fit.meta_d, fit.d_prime) if fit.converged
                      else np.nan for fit in islice(fits, len(points))]
        out.append(float(np.subtract.reduce(points)))
    return out


def _results(setups: list, n_resamples: int, workers: int, pad_value: float) -> list:
    """Each setup's (_setup) result: its point estimate (_point_values, one
    solve for all), flagged when nan, and the percentile CI of its resample
    statistics (_run_jobs, one team for all), the undefined (nan) ones
    excluded and counted. A warning names the caller of the entry."""
    points = _point_values([(job, points) for _, job, points, _, _ in setups], pad_value)
    stats = _run_jobs([job for _, job, _, _, _ in setups], n_resamples, workers)
    results = []    # a loop, not a comprehension: the warning's stacklevel names the caller
    for (unit, _, _, kind, fields), point, unit_stats in zip(setups, points, stats):
        valid = unit_stats[~np.isnan(unit_stats)]
        n_bad = len(unit_stats) - len(valid)
        alarm = n_bad > DEGENERATE_FRACTION_ALARM * n_resamples
        if alarm:
            warnings.warn(f"{fields['domain']}/{unit}: {n_bad}/{n_resamples} resamples had "
                          f"an undefined statistic", TooManyDegenerate, stacklevel=3)
        ci = (np.nan, np.nan)
        if len(valid):
            alpha = 1.0 - fields["ci_level"]
            ci = np.percentile(valid, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
        results.append(kind(
            **{"point" if kind is BootstrapResult else "delta_hat": point}, **fields,
            ci_low=float(ci[0]), ci_high=float(ci[1]), n_resamples=n_resamples,
            degenerate_resample_count=n_bad,
            flagged_degenerate=bool(np.isnan(point)) or alarm or not len(valid)))
    return results


def bootstrap_metric(trials: TrialSet, metric: str, n_resamples: int = 10_000,
                     seed: int = 42, ci_level: float = 0.95, workers: int = 1,
                     scale: RatingScale = RatingScale(),
                     pad_value: float = DEFAULT_PAD_VALUE) -> BootstrapResult:
    """Percentile bootstrap CI for one statistic on one domain's trials.

    Each resample draws n question ids with replacement and pushes the
    resulting trial multiset through the full metric pipeline (quantile
    bins recomputed per resample for the model-based metrics).
    """
    check_resampling(n_resamples, workers)
    setup = _setup(trials, None, metric, metric, seed, ci_level, scale, pad_value)
    return _results([setup], n_resamples, workers, pad_value)[0]


def bootstrap_contrast(trials_a: TrialSet, trials_b: TrialSet, metric: str,
                       n_resamples: int = 10_000, seed: int = 42,
                       ci_level: float = 0.95, workers: int = 1,
                       scale: RatingScale = RatingScale(), pad_value: float = DEFAULT_PAD_VALUE,
                       pairing: str = "paired") -> ContrastResult:
    """Bootstrap CI for metric(a) - metric(b) on one domain.

    With ``pairing="paired"`` (default) one shared id-draw sequence drives
    both sides, which requires the sets to hold the same question ids;
    ``"independent"`` resamples each side from its own id list.
    """
    check_resampling(n_resamples, workers, pairing)
    setup = _setup(trials_a, trials_b, metric, None, seed, ci_level, scale, pad_value, pairing)
    return _results([setup], n_resamples, workers, pad_value)[0]


def _contrast_names(metric: str, a: TrialSet, b: TrialSet) -> tuple[str, str]:
    """The report label and the default RNG unit of the contrast a - b; the
    label leaves out the format of a side that has only one."""
    labels, tags = [], []
    for s in (a, b):
        conditions, formats = "+".join(s.conditions()), s.formats()
        tags.append(f"{conditions}@{'+'.join(formats)}")
        labels.append(conditions if len(formats) == 1 else tags[-1])
    return "-".join(labels), f"{metric}|{'-'.join(tags)}"


def check_rule(rule: str) -> None:
    """Raise ValueError unless rule is a decision rule."""
    if rule not in (RULE_CI_LOWER_GT_ZERO, RULE_TOST):
        raise ValueError(f"unknown decision rule {rule!r}")


def check_tost_delta(delta: float) -> None:
    """Raise ValueError unless the TOST margin delta is > 0."""
    if not delta > 0:       # nan included
        raise ValueError(f"tost rule needs delta > 0, got {delta}")


def check_tost_ci_level(ci_level: float) -> None:
    """Raise WrongCiLevel unless ci_level is TOST_CI_LEVEL, the 90% that TOST needs."""
    if not abs(ci_level - TOST_CI_LEVEL) <= 1e-9:
        raise WrongCiLevel(f"TOST needs a 90% CI, got {ci_level}")


def tost(contrast: ContrastResult, delta: float) -> str:
    """Equivalence decision: 90% CI strictly inside (-delta, +delta)."""
    check_tost_ci_level(contrast.ci_level)
    check_tost_delta(delta)
    equivalent = (-delta < contrast.ci_low) and (contrast.ci_high < delta)
    return "equivalent" if equivalent else "not_equivalent"


def decide(contrast: ContrastResult, rule: str, delta: float = 0.0) -> ContrastResult:
    """Attach the decision implied by (ci_low, ci_high, rule)."""
    check_rule(rule)
    if rule == RULE_TOST:
        decision = tost(contrast, delta)
    else:
        decision = "supported" if contrast.ci_low > 0.0 else "not_supported"
    return replace(contrast, decision=decision)


def run_hypothesis_suite(trials: TrialSet, specs: list[HypothesisSpec],
                         n_resamples: int = 10_000, seed: int = 42,
                         workers: int = 1, scale: RatingScale = RatingScale(),
                         pad_value: float = DEFAULT_PAD_VALUE,
                         pairing: str = "paired") -> list[ContrastResult]:
    """Evaluate every (spec, domain) contrast and attach decisions.

    Every contrast is checked and its point estimate computed before any
    resampling, the meta-d' point fits of all contrasts in one solve; then
    the resamples of all contrasts run as one list of chunks on
    ``workers`` processes, this one included (_run_jobs), and finish in
    spec order.
    """
    check_resampling(n_resamples, workers, pairing)
    specs_run, setups = [], []      # per contrast: its spec and its _setup
    conditions = set(trials.conditions())
    for spec in specs:
        for cond in (spec.condition_a, spec.condition_b):
            if cond not in conditions:
                raise MissingCondition(cond)
        for domain in spec.domains:
            a = trials.filter(condition=spec.condition_a, domain=domain)
            b = trials.filter(condition=spec.condition_b, domain=domain)
            if len(a) == 0 or len(b) == 0:
                raise MissingCondition(
                    f"{spec.condition_a if len(a) == 0 else spec.condition_b} in {domain}")
            unit = f"{spec.metric}|{spec.condition_a}-{spec.condition_b}"
            specs_run.append(spec)
            setups.append(_setup(a, b, spec.metric, unit, seed, spec.ci_level, scale,
                                 pad_value, pairing, spec.id))
    results = _results(setups, n_resamples, workers, pad_value)
    return [decide(result, spec.rule, spec.delta) for spec, result in zip(specs_run, results)]
