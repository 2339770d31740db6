import collections
import contextlib
import multiprocessing
import os
import signal
import time
import tracemalloc
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from metadkit import bootstrap
from metadkit.binning import DEFAULT_PAD_VALUE, RatingScale, bin_indices, pad_counts
from metadkit.bootstrap import (
    RULE_CI_LOWER_GT_ZERO,
    ContrastResult,
    HypothesisSpec,
    bootstrap_contrast,
    bootstrap_metric,
    check_resampling,
    decide,
    default_hypothesis_specs,
    metric_value,
    run_hypothesis_suite,
    tost,
)
from metadkit.errors import (
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
from metadkit.profiles import DEFINED, ONE_CLASS, TOO_FEW, ZERO_D_PRIME
from metadkit.sdt import sdt_fits, type1_fit
from metadkit.trialstore import TrialSet
from tests.conftest import gaussian_trials, make_trials


def toy_trials():
    return make_trials([-0.9, -0.4, -0.2], [False, True, True],
                       qids=["qa", "qb", "qc"])


def test_constant_metric_gives_point_ci():
    trials = make_trials([-1, -2, -3, -4], [True] * 4)
    res = bootstrap_metric(trials, "accuracy", n_resamples=200, seed=1)
    assert res.point == 1.0
    assert (res.ci_low, res.ci_high) == (1.0, 1.0)


def test_single_resample_gives_degenerate_ci():
    trials = make_trials([-1, -2, -3, -4], [True, True, False, True])
    res = bootstrap_metric(trials, "accuracy", n_resamples=1, seed=3)
    assert res.ci_low == res.ci_high


def test_golden_reference_run():
    # reference run of this engine, pinned: 3-question domain, 100
    # resamples, seed 7 (one-class resamples are counted and excluded)
    with pytest.warns(TooManyDegenerate):
        res = bootstrap_metric(toy_trials(), "nlp_gap", n_resamples=100, seed=7)
    assert res.point == pytest.approx(0.6, abs=1e-12)
    assert res.ci_low == pytest.approx(0.5, abs=1e-12)
    assert res.ci_high == pytest.approx(0.7, abs=1e-12)
    assert res.degenerate_resample_count == 43
    assert res.flagged_degenerate


def _golden_sets(case):
    rng = np.random.default_rng(
        {"paired": 31, "independent": 32, "two_formats": 33, "ties": 34}[case])
    if case == "paired":
        return (gaussian_trials(rng, 40, qid_prefix="p"),
                gaussian_trials(rng, 40, qid_prefix="p", condition="2"))
    if case == "independent":
        return (gaussian_trials(rng, 40, qid_prefix="a"),
                gaussian_trials(rng, 30, qid_prefix="b", condition="2"))
    if case == "ties":
        # nlp rounded to integers: 16 trials on 5 levels, some one-class resamples
        sides = []
        for condition in ("1", "2"):
            cell = gaussian_trials(rng, 16, p_correct=0.8, qid_prefix="t", condition=condition)
            sides.append(make_trials(np.round(cell.nlp_values), cell.correct_mask,
                                     qid_prefix="t", condition=condition))
        return tuple(sides)
    # every id has one record per format, so a resample gathers two rows per id
    sides = []
    for condition in ("1", "2"):
        records = []
        for format in ("f16", "q5_k_m"):
            records.extend(gaussian_trials(rng, 30, qid_prefix="m", condition=condition,
                                           format=format).records)
        sides.append(TrialSet(records))
    return tuple(sides)


@pytest.mark.parametrize("case, pairing, expected, label", [
    ("paired", "paired",
     (0.5402742669581693, -0.35142510313878783, 1.2511638913082628, 0), "1-2"),
    ("independent", "independent",
     (-0.22839323709542436, -1.0543211250810247, 0.9050677513326876, 0), "1-2"),
    ("two_formats", "paired",
     (0.667947133388235, -0.37784789035622734, 1.2576579979056066, 0),
     "1@f16+q5_k_m-2@f16+q5_k_m"),
])
def test_golden_contrast_runs(case, pairing, expected, label):
    # reference runs of this engine, pinned; no unit argument, so the
    # default unit string seeds the id streams
    a, b = _golden_sets(case)
    res = bootstrap_contrast(a, b, "nlp_gap", n_resamples=100, seed=7, pairing=pairing)
    assert (res.delta_hat, res.ci_low, res.ci_high,
            res.degenerate_resample_count) == expected
    assert res.contrast == label


@pytest.mark.parametrize("case, pairing, expected", [
    ("paired", "paired", (0.12385254098268556, -0.1966238418444301, 0.4208503584229388, 0)),
    ("independent", "independent",
     (-0.06500000000000006, -0.3825771809608015, 0.2723312935617621, 0)),
    ("two_formats", "paired", (0.13861111111111113, -0.0157900280754701, 0.354386986826664, 0)),
    ("ties", "paired", (0.5573870573870574, 0.23617216117216122, 0.8386946386946383, 3)),
])
def test_golden_auroc2_contrast_runs(case, pairing, expected):
    # auroc2 runs of the engine when it ranked each resample with
    # scipy's rankdata, pinned; the tally must reproduce them bit for bit
    a, b = _golden_sets(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TooManyDegenerate)
        res = bootstrap_contrast(a, b, "auroc2", n_resamples=100, seed=7, pairing=pairing)
    assert (res.delta_hat, res.ci_low, res.ci_high,
            res.degenerate_resample_count) == expected


ALARM_ENTRIES = {
    "bootstrap_metric": lambda a, b: bootstrap_metric(a, "nlp_gap", n_resamples=100, seed=7),
    "bootstrap_contrast": lambda a, b: bootstrap_contrast(a, b, "nlp_gap", n_resamples=100,
                                                          seed=7),
    "run_hypothesis_suite": lambda a, b: run_hypothesis_suite(
        TrialSet(a.records + b.records),
        [HypothesisSpec("H", "1", "2", ("Science",), RULE_CI_LOWER_GT_ZERO, "nlp_gap")],
        n_resamples=100, seed=7),
}


@pytest.mark.parametrize("entry", ALARM_ENTRIES)
def test_too_many_degenerate_names_the_caller(entry):
    a = toy_trials()
    b = make_trials([-0.8, -0.5, -0.1], [False, True, True], condition="2",
                    qids=["qa", "qb", "qc"])
    with pytest.warns(TooManyDegenerate) as caught:
        ALARM_ENTRIES[entry](a, b)
    assert {w.filename for w in caught} == {__file__}


def test_bit_identical_across_runs_and_workers():
    runs = []
    for workers in (1, 1, 2, 4):
        with pytest.warns(TooManyDegenerate):
            res = bootstrap_metric(toy_trials(), "nlp_gap", n_resamples=100,
                                   seed=7, workers=workers)
        runs.append((res.point, res.ci_low, res.ci_high,
                     res.degenerate_resample_count))
    assert len(set(runs)) == 1


def test_indices_do_not_depend_on_record_order(rng):
    base = gaussian_trials(rng, 60)
    shuffled = TrialSet(tuple(reversed(base.records)))
    a = bootstrap_metric(base, "accuracy", n_resamples=50, seed=9)
    b = bootstrap_metric(shuffled, "accuracy", n_resamples=50, seed=9)
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)


def test_contrast_identity_is_zero():
    trials = gaussian_trials(np.random.default_rng(4), 64)
    res = bootstrap_contrast(trials, trials, "accuracy", n_resamples=100, seed=2)
    assert res.delta_hat == 0.0
    assert (res.ci_low, res.ci_high) == (0.0, 0.0)


def test_contrast_shift_invariance_of_nlp_gap(rng):
    a = gaussian_trials(rng, 120, qid_prefix="s")
    shifted = make_trials(a.nlp_values + 0.37, a.correct_mask,
                          condition="2", qids=[r.question_id for r in a.records])
    res = bootstrap_contrast(a, shifted, "nlp_gap", n_resamples=200, seed=5)
    assert res.delta_hat == pytest.approx(0.0, abs=1e-12)
    assert res.ci_low == pytest.approx(0.0, abs=1e-9)
    assert res.ci_high == pytest.approx(0.0, abs=1e-9)


def test_contrast_requires_pairing():
    a = make_trials([-1, -2], [True, False], qids=["q1", "q2"])
    b = make_trials([-1, -2], [True, False], qids=["q1", "q3"], condition="2")
    with pytest.raises(UnpairedSets):
        bootstrap_contrast(a, b, "accuracy", n_resamples=10, seed=1)


def test_contrast_independent_mode_allows_unpaired(rng):
    a = gaussian_trials(rng, 50, qid_prefix="a")
    b = gaussian_trials(rng, 40, qid_prefix="b", condition="2")
    res = bootstrap_contrast(a, b, "accuracy", n_resamples=50, seed=1,
                             pairing="independent")
    assert res.pairing == "independent"
    assert np.isfinite(res.ci_low) and np.isfinite(res.ci_high)


def test_accuracy_ci_brackets_normal_approximation(rng):
    # linear statistic: percentile bootstrap must sit on top of the
    # closed-form normal interval
    n = 500
    trials = gaussian_trials(rng, n, p_correct=0.7)
    res = bootstrap_metric(trials, "accuracy", n_resamples=10_000, seed=11)
    p_hat = res.point
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(res.ci_low - (p_hat - 1.959964 * se)) <= 0.02
    assert abs(res.ci_high - (p_hat + 1.959964 * se)) <= 0.02


def test_too_many_degenerate_flagging(rng):
    # a single incorrect question: ~37% of resamples miss it entirely
    nlp = rng.normal(size=60)
    correct = np.ones(60, dtype=bool)
    correct[0] = False
    trials = make_trials(nlp, correct)
    with pytest.warns(TooManyDegenerate):
        res = bootstrap_metric(trials, "nlp_gap", n_resamples=300, seed=13)
    assert res.flagged_degenerate
    assert 0 < res.degenerate_resample_count < 300


def contrast_with(ci_low, ci_high, ci_level=0.90):
    return ContrastResult(hypothesis_id="H2", metric="meta_d", domain="History",
                          delta_hat=0.5 * (ci_low + ci_high), ci_low=ci_low,
                          ci_high=ci_high, ci_level=ci_level, n_resamples=100,
                          seed=42)


def test_tost_inside_margin_is_equivalent():
    assert tost(contrast_with(-0.05, 0.05), 0.17) == "equivalent"


def test_tost_reference_interval_not_equivalent():
    assert tost(contrast_with(-0.053, 0.543), 0.17) == "not_equivalent"


def test_tost_boundary_is_exclusive():
    assert tost(contrast_with(-0.17, 0.10), 0.17) == "not_equivalent"
    assert tost(contrast_with(-0.10, 0.17), 0.17) == "not_equivalent"


def test_tost_requires_90_percent_ci():
    with pytest.raises(WrongCiLevel):
        tost(contrast_with(-0.05, 0.05, ci_level=0.95), 0.17)


@pytest.mark.parametrize("delta", [0.0, -0.17, float("nan")])
def test_tost_margin_must_be_positive(delta):
    """A nan margin fails every comparison, so it is rejected as one that
    is not > 0, as RunConfig rejects a nan tost_delta; by one check, with
    one message."""
    messages = []
    for call in (lambda: HypothesisSpec("H2", "2", "1", ("History",), "tost", delta=delta,
                                        ci_level=0.90),
                 lambda: tost(contrast_with(-0.05, 0.05), delta),
                 lambda: decide(contrast_with(-0.05, 0.05), "tost", delta)):
        with pytest.raises(ValueError, match="delta") as raised:
            call()
        messages.append(str(raised.value))
    assert messages == [f"tost rule needs delta > 0, got {delta}"] * 3


def test_an_unknown_rule_or_metric_is_refused_by_one_check():
    """A spec with metric "brier" was accepted and failed only when its
    contrast was set up, after the suite's earlier contrasts."""
    with pytest.raises(ValueError, match="unknown decision rule 'tost2'") as spec:
        HypothesisSpec("H1", "2", "1", ("Science",), "tost2")
    with pytest.raises(ValueError) as decided:
        decide(contrast_with(-0.05, 0.05), "tost2")
    assert str(decided.value) == str(spec.value)
    with pytest.raises(ValueError, match="unknown metric 'brier'") as spec:
        HypothesisSpec("H1", "2", "1", ("Science",), RULE_CI_LOWER_GT_ZERO, metric="brier")
    with pytest.raises(ValueError) as evaluated:
        metric_value("brier", np.arange(20.0), np.arange(20) % 2 == 0)
    assert str(evaluated.value) == str(spec.value)


def no_work(*args, **kwargs):
    raise AssertionError("work began before the arguments were checked")


@pytest.mark.parametrize("workers", [0, -2])
def test_fewer_than_one_worker_is_refused_before_any_work(workers, monkeypatch):
    trials = gaussian_trials(np.random.default_rng(0), 40)
    spec = HypothesisSpec("H1", "1", "1", ("Science",), RULE_CI_LOWER_GT_ZERO)
    monkeypatch.setattr(bootstrap, "_setup", no_work)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        bootstrap_metric(trials, "auroc2", n_resamples=10, workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        bootstrap_contrast(trials, trials, "auroc2", n_resamples=10, workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_hypothesis_suite(trials, [spec], n_resamples=10, workers=workers)


@pytest.mark.parametrize("ci_level", [0.0, -0.2, 1.0, 1.5, float("nan"), float("inf")])
def test_a_ci_level_outside_zero_to_one_is_refused_before_any_work(ci_level, monkeypatch):
    """0 gave a zero-width CI and -0.2 an inverted one; 1.5 and nan failed
    in np.percentile only after every resample had run."""
    trials = gaussian_trials(np.random.default_rng(0), 40)
    monkeypatch.setattr(bootstrap, "_side", no_work)
    monkeypatch.setattr(bootstrap, "_run_jobs", no_work)
    with pytest.raises(ValueError, match="ci_level must be in"):
        bootstrap_metric(trials, "auroc2", n_resamples=10, ci_level=ci_level)
    with pytest.raises(ValueError, match="ci_level must be in"):
        bootstrap_contrast(trials, trials, "auroc2", n_resamples=10, ci_level=ci_level)
    with pytest.raises(ValueError, match="ci_level must be in"):
        HypothesisSpec("H1", "2", "1", ("Science",), RULE_CI_LOWER_GT_ZERO, ci_level=ci_level)


def test_more_resamples_than_the_rng_contract_has_ordinals_are_refused_before_any_work(
        monkeypatch):
    """Ordinals lie in [0, 2**32). 2**32 + 1 resamples built 33.5 million
    chunks per job before the last one raised in _draw_batch."""
    trials = gaussian_trials(np.random.default_rng(0), 40)
    spec = HypothesisSpec("H1", "1", "1", ("Science",), RULE_CI_LOWER_GT_ZERO)
    monkeypatch.setattr(bootstrap, "_side", no_work)
    monkeypatch.setattr(bootstrap, "_run_jobs", no_work)
    message = r"n_resamples must be <= 2\*\*32, got 4294967297"
    with pytest.raises(ValueError, match=message):
        bootstrap_metric(trials, "auroc2", n_resamples=2 ** 32 + 1)
    with pytest.raises(ValueError, match=message):
        bootstrap_contrast(trials, trials, "auroc2", n_resamples=2 ** 32 + 1)
    with pytest.raises(ValueError, match=message):
        run_hypothesis_suite(trials, [spec], n_resamples=2 ** 32 + 1)


def test_setup_accepts_every_ordinal_of_the_rng_contract():
    check_resampling(2 ** 32)


def test_decide_lower_bound_rule():
    assert decide(contrast_with(0.01, 0.40, 0.95), "ci_lower_gt_zero").decision \
        == "supported"
    assert decide(contrast_with(-0.01, 0.40, 0.95), "ci_lower_gt_zero").decision \
        == "not_supported"


def four_condition_trials(rng, n_questions=120, boost_condition=None, boost=1.2):
    """Paired 4-condition synthetic data; one condition's confidence signal
    can be amplified to make H1 true."""
    records = []
    for domain in ("Science", "History", "Arts", "Geography"):
        for i in range(n_questions):
            qid = f"{domain[:3].lower()}{i:04d}"
            for cond in ("1", "2", "3", "4"):
                correct = rng.random() < 0.7
                gap = boost if (cond == boost_condition and domain == "Science") else 0.6
                nlp = rng.normal(gap if correct else 0.0, 1.0)
                records.append(make_trials([nlp], [correct], domain=domain,
                                           condition=cond, qids=[qid]).records[0])
    return TrialSet(records)


def test_suite_empty_specs():
    trials = gaussian_trials(np.random.default_rng(0), 30)
    assert run_hypothesis_suite(trials, [], n_resamples=10, seed=1) == []


def test_suite_missing_condition(rng):
    trials = gaussian_trials(rng, 40, condition="1")
    with pytest.raises(MissingCondition):
        run_hypothesis_suite(trials, default_hypothesis_specs(), n_resamples=10,
                             seed=1)


def test_suite_detects_amplified_meta_signal(rng):
    trials = four_condition_trials(rng, n_questions=250, boost_condition="2",
                                   boost=1.6)
    spec = HypothesisSpec("H1", "2", "1", ("Science",), "ci_lower_gt_zero",
                          ci_level=0.95)
    results = run_hypothesis_suite(trials, [spec], n_resamples=150, seed=42)
    assert len(results) == 1
    assert results[0].hypothesis_id == "H1"
    assert results[0].decision == "supported"


def test_suite_shapes_and_determinism(rng):
    trials = four_condition_trials(rng, n_questions=120)
    specs = default_hypothesis_specs()
    first = run_hypothesis_suite(trials, specs, n_resamples=30, seed=42)
    second = run_hypothesis_suite(trials, specs, n_resamples=30, seed=42)
    assert first == second
    assert [r.hypothesis_id for r in first] == ["H1", "H2", "H2", "H2", "H3", "H4"]
    assert [r.domain for r in first] == ["Science", "History", "Arts", "Geography",
                                         "Science", "Science"]
    for r in first:
        if r.hypothesis_id == "H2":
            assert r.decision in ("equivalent", "not_equivalent")
            assert r.ci_level == 0.90
        else:
            assert r.decision in ("supported", "not_supported")
            assert r.ci_level == 0.95


def test_suite_on_one_pool_matches_its_contrasts_run_alone(rng, monkeypatch):
    # 60 questions per domain: some meta-d' resamples are undefined, so
    # several contrasts warn; results and warnings keep the spec order. The
    # suite's meta-d' contrasts share chunks and solves, in the mixed suite
    # with an auroc2 contrast, which has chunks of its own, after each.
    # At FIT_BATCH = 7 a chunk of the six holds 2 x 6 x 7 = 84 tables at
    # most, so FIT_ROWS = 5 solves them in slices of 4 and 5 tables
    trials = four_condition_trials(rng, n_questions=60)
    h1_h4 = default_hypothesis_specs()
    mixed = [s for spec in h1_h4 for s in (spec, replace(spec, metric="auroc2"))]
    for specs in (h1_h4, mixed):
        monkeypatch.undo()

        def suite(workers):
            return run_hypothesis_suite(trials, specs, n_resamples=60, seed=42,
                                        workers=workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TooManyDegenerate)
            alone = [result for spec in specs for domain in spec.domains
                     for result in run_hypothesis_suite(
                         trials, [replace(spec, domains=(domain,))], n_resamples=60, seed=42)]
            suites = [suite(workers) for workers in (1, 2, 3)]
            monkeypatch.setattr(bootstrap, "FIT_BATCH", 7)
            suites += [suite(workers) for workers in (1, 3)]
            monkeypatch.setattr(bootstrap, "FIT_ROWS", 5)
            suites += [suite(workers) for workers in (1, 2, 3)]
        messages = [str(w.message) for w in caught if w.category is TooManyDegenerate]
        part = len(messages) // (1 + len(suites))
        assert part > 1 and messages == messages[:part] * (1 + len(suites))
        for got in suites:
            assert got == alone


@pytest.mark.parametrize("metric", ["meta_d", "m_ratio"])
def test_suite_point_estimates_are_the_fits_made_one_at_a_time(metric):
    # 40 questions per domain: six point fits land on meta-d' = 0 and warn
    trials = four_condition_trials(np.random.default_rng(77), n_questions=40)
    specs = [replace(s, metric=metric) for s in default_hypothesis_specs()]

    def fit_warnings(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = call()
        return out, [(w.category, str(w.message)) for w in caught
                     if w.category is not TooManyDegenerate]

    def one_at_a_time():
        deltas = []
        for spec in specs:
            for domain in spec.domains:
                a, b = (trials.filter(condition=c, domain=domain)
                        for c in (spec.condition_a, spec.condition_b))
                deltas.append(metric_value(metric, a.nlp_values, a.correct_mask)
                              - metric_value(metric, b.nlp_values, b.correct_mask))
        return deltas

    want, want_warnings = fit_warnings(one_at_a_time)
    results, got_warnings = fit_warnings(
        lambda: run_hypothesis_suite(trials, specs, n_resamples=2, seed=42))
    assert [r.delta_hat for r in results] == want
    assert len(want_warnings) == 6 and got_warnings == want_warnings


def test_metric_value_names():
    trials = gaussian_trials(np.random.default_rng(8), 120)
    for name in ("accuracy", "nlp_gap", "auroc2", "d_prime", "meta_d", "m_ratio"):
        value = metric_value(name, trials.nlp_values, trials.correct_mask)
        assert np.isfinite(value)
        with pytest.raises(EmptySet):
            metric_value(name, np.array([]), np.array([], dtype=bool))
    with pytest.raises(ValueError):
        metric_value("brier", trials.nlp_values, trials.correct_mask)


def test_zero_d_prime_is_a_value_not_an_exclusion():
    # every question has a correct and an incorrect trial at the same
    # confidence, so both classes tally alike in every resample: d' = 0
    nlp = np.repeat(np.linspace(-3.0, -0.1, 12), 2)
    correct = np.tile([True, False], 12)
    qids = [f"q{i:02d}" for i in range(12) for _ in range(2)]
    trials = make_trials(nlp, correct, qids=qids)
    assert metric_value("d_prime", trials.nlp_values, trials.correct_mask) == 0.0
    with pytest.raises(ZeroDPrime):
        metric_value("meta_d", trials.nlp_values, trials.correct_mask)
    res = bootstrap_metric(trials, "d_prime", n_resamples=50, seed=5)
    assert (res.point, res.ci_low, res.ci_high) == (0.0, 0.0, 0.0)
    assert res.degenerate_resample_count == 0


def test_fitted_resamples_match_one_at_a_time_for_any_batch_and_workers(rng, monkeypatch):
    # 300 paired M-ratio resamples: one, two and three workers each take
    # chunks of one batch, of 128, 128 and 44 ordinals; at a FIT_BATCH of
    # 7, one worker takes chunks of 11 batches (77 ordinals) and three
    # workers chunks of 4 (28 ordinals), the last chunk shorter
    qids = [f"q{i:02d}" for i in range(20)]
    correct = np.arange(20) % 7 != 0
    a = make_trials(rng.normal(0.8 * correct, 1.0), correct, condition="2", qids=qids)
    b = make_trials(rng.normal(0.4 * correct, 1.0), correct, condition="1", qids=qids)
    check_batches_match_one_at_a_time("m_ratio", a, b, monkeypatch)


def test_auroc2_resamples_match_one_at_a_time_for_any_batch_and_workers(rng, monkeypatch):
    # the same for the auroc2 tally, on nlp rounded to 0.1 (ties in every
    # resample); one-class resamples are nan
    qids = [f"q{i:02d}" for i in range(20)]
    correct = np.arange(20) % 7 != 0
    a = make_trials(np.round(rng.normal(0.8 * correct, 1.0), 1), correct, condition="2",
                    qids=qids)
    b = make_trials(np.round(rng.normal(0.4 * correct, 1.0), 1), correct, condition="1",
                    qids=qids)
    check_batches_match_one_at_a_time("auroc2", a, b, monkeypatch)


def ragged_tied_trials(rng, shift, condition):
    """13 question ids, every third with two records, one record in six
    incorrect and nlp rounded to 0.1: resamples of 13 to 18 rows with ties
    across both classes, some of them one-class, too small to bin or at
    d' = 0."""
    qids = np.repeat([f"q{i:02d}" for i in range(13)], 1 + (np.arange(13) % 3 == 0))
    correct = np.arange(len(qids)) % 6 != 1
    return make_trials(np.round(rng.normal(shift * correct, 1.0), 1), correct,
                       condition=condition, qids=list(qids))


@pytest.mark.parametrize("metric", ["d_prime", "m_ratio"])
def test_model_resamples_on_ragged_tied_sides_match_one_at_a_time(metric, monkeypatch):
    rng = np.random.default_rng(0)
    a, b = ragged_tied_trials(rng, 0.8, "2"), ragged_tied_trials(rng, 0.4, "1")
    reasons = check_batches_match_one_at_a_time(metric, a, b, monkeypatch)
    assert reasons["OneClassOnly"] and reasons["TooFewTrials"] and reasons["split_tie"]
    # d' = 0 is a d_prime value and an m_ratio exclusion
    assert reasons["zero" if metric == "d_prime" else "ZeroDPrime"] > 0


def ragged_tied_job(metric):
    rng = np.random.default_rng(0)
    a, b = ragged_tied_trials(rng, 0.8, "2"), ragged_tied_trials(rng, 0.4, "1")
    entropy = bootstrap._stream_entropy(3, "Science", "u")
    return bootstrap._Job(metric, RatingScale(), 0.5,
                          (bootstrap._side(a, entropy), bootstrap._side(b, entropy)))


def sample_blocks(job, lo, hi):
    """Each side's (index, lengths) block (_Side.block) of resample ordinals
    [lo, hi), all of its rows in one block, the a side first."""
    return [side.block(draws) for side, draws in zip(job.sides, bootstrap._draws(job, lo, hi))]


# the error metric_value raises for a sample of each reason
UNDEFINED_ERRORS = {ONE_CLASS: OneClassOnly, TOO_FEW: TooFewTrials, ZERO_D_PRIME: ZeroDPrime}


@pytest.mark.parametrize("metric", bootstrap.METRICS)
def test_each_reason_of_a_block_is_the_error_of_its_sample_alone(metric):
    job = ragged_tied_job(metric)
    (index, lengths), _ = sample_blocks(job, 0, 100)
    reasons, _, _ = bootstrap._evaluate(job, job.sides[0], index, lengths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        for reason, r in zip(reasons, np.split(index, np.cumsum(lengths)[:-1])):
            with pytest.raises(UNDEFINED_ERRORS[reason]) if reason != DEFINED else \
                    contextlib.nullcontext():
                metric_value(metric, job.sides[0].nlp[r], job.sides[0].correct[r])
    want = {"accuracy": {DEFINED}, "nlp_gap": {DEFINED, ONE_CLASS},
            "auroc2": {DEFINED, ONE_CLASS}, "d_prime": {DEFINED, ONE_CLASS, TOO_FEW}}
    assert set(reasons) == want.get(metric, {DEFINED, ONE_CLASS, TOO_FEW, ZERO_D_PRIME})


def test_a_resample_pass_over_every_undefined_kind_warns_nothing(monkeypatch):
    # one-class, too-small and d' = 0 resamples, and every fourth fitted
    # table the stalled one, whose fit does not converge
    job = ragged_tied_job("m_ratio")
    clean = bootstrap._run_jobs([job], 300, 1)[0]
    stall_every_fourth_table(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MetadkitWarning)
        stalled = bootstrap._run_jobs([job], 300, 1)[0]
    assert np.isnan(clean).sum() < np.isnan(stalled).sum() < 300


def spread_sides(records_per_id):
    """Paired conditions 2 and 1 on 300 ids of records_per_id records each
    (two: a pooled side, whose _Side has counts), nlp from 1e-3 to 1e6 in
    size so that the order of a sum shows in its last bits."""
    rng = np.random.default_rng(8)
    qids = list(np.repeat([f"q{i:03d}" for i in range(300)], records_per_id))
    sides = []
    for condition in ("2", "1"):
        correct = rng.random(len(qids)) < 0.65
        nlp = rng.normal(size=len(qids)) * 10.0 ** rng.uniform(-3, 6, len(qids))
        sides.append(make_trials(nlp, correct, condition=condition, qids=qids))
    return sides


def nlp_gap_alone(nlp, correct):
    """The NLP gap of one sample as the evaluator once took it, one sample
    at a time: the difference of two ndarray.mean, nan for one class."""
    if correct.all() or not correct.any():
        return np.nan
    return nlp[correct].mean() - nlp[~correct].mean()


@pytest.mark.parametrize("records_per_id", [1, 2])
def test_nlp_gap_chunk_is_each_resample_alone_bit_for_bit(records_per_id):
    a, b = spread_sides(records_per_id)
    entropy = bootstrap._stream_entropy(3, "Science", "u")
    job = bootstrap._Job("nlp_gap", RatingScale(), 0.5,
                         (bootstrap._side(a, entropy), bootstrap._side(b, entropy)))
    assert (job.sides[0].counts is None) == (records_per_id == 1)
    got = bootstrap._run_jobs([job], 300, 1)[0]     # chunks of 128, 128 and 44 ordinals
    want = np.array([
        nlp_gap_alone(job.sides[0].nlp[ra], job.sides[0].correct[ra])
        - nlp_gap_alone(job.sides[1].nlp[rb], job.sides[1].correct[rb])
        for (ra, _), (rb, _) in (sample_blocks(job, i, i + 1) for i in range(300))])
    assert not np.isnan(want).any()
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_nlp_gap_block_marks_one_class_samples():
    job = ragged_tied_job("nlp_gap")
    (index, lengths), _ = sample_blocks(job, 0, 300)
    reasons, values, _ = bootstrap._evaluate(job, job.sides[0], index, lengths)
    alone = np.array([nlp_gap_alone(job.sides[0].nlp[r], job.sides[0].correct[r])
                      for r in np.split(index, np.cumsum(lengths)[:-1])])
    one_class = np.isnan(alone)
    assert 0 < one_class.sum() < 300
    np.testing.assert_array_equal(reasons, np.where(one_class, ONE_CLASS, DEFINED))
    assert np.isnan(values[one_class]).all()
    np.testing.assert_array_equal(values[~one_class].view(np.int64),
                                  alone[~one_class].view(np.int64))


def test_nlp_gap_contrast_is_the_same_at_one_and_two_workers():
    a, b = spread_sides(2)
    runs = [bootstrap_contrast(a, b, "nlp_gap", n_resamples=300, seed=9, workers=workers)
            for workers in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0].degenerate_resample_count == 0


DRAW_BATCH = bootstrap._draw_batch


@pytest.mark.parametrize("pairing, draws", [("paired", 3), ("independent", 6)])
def test_a_batch_draws_each_stream_once(pairing, draws, monkeypatch):
    # 300 resamples are three FIT_BATCH batches; a paired contrast has one
    # id stream, an independent one two, and a single statistic one
    calls = []

    def draw_batch(*args):
        calls.append(args)
        return DRAW_BATCH(*args)
    monkeypatch.setattr(bootstrap, "_draw_batch", draw_batch)
    a, b = spread_sides(1)
    bootstrap_contrast(a, b, "auroc2", n_resamples=300, workers=1, pairing=pairing)
    assert len(calls) == draws
    calls.clear()
    bootstrap_metric(a, "auroc2", n_resamples=300, workers=1)
    assert len(calls) == 3


EVAL_CHUNK = bootstrap._eval_chunk
CLAIM_CHUNKS = bootstrap._claim_chunks


def logged_chunk(log, fail_at=None, pause=0.0):
    """_eval_chunk, first appending "pid metrics start stop" to the file
    ``log`` (from whichever process of the team runs the chunk), the
    metrics of its jobs joined by "+"; the chunk of ordinals from
    ``fail_at`` raises, and every other one waits ``pause`` seconds before
    it is evaluated."""
    def chunk(jobs, start, stop):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {'+'.join(job.metric for job in jobs)} {start} {stop}\n")
        if start == fail_at:
            raise RuntimeError(f"chunk [{start}, {stop}) failed")
        time.sleep(pause)
        return EVAL_CHUNK(jobs, start, stop)
    return chunk


def read_log(log):
    """The (pid, metrics, start, stop) lines of a logged_chunk log."""
    return [(int(pid), metrics, int(start), int(stop)) for pid, metrics, start, stop in
            (line.split() for line in log.read_text(encoding="utf-8").splitlines())]


def idle_child(jobs, chunks, claimed, shared, failed):
    """A child of the team that claims no chunk: the caller takes them all."""


def children_only(caller):
    """_claim_chunks for every process but ``caller``, which claims none:
    the children take every chunk."""
    def claim(*args):
        if os.getpid() != caller:
            CLAIM_CHUNKS(*args)
    return claim


def use_schedule(schedule, monkeypatch):
    """Make the caller take every chunk ("caller..."), or the children
    of the team, its pool, take them all ("pool..."); leave any other
    schedule as the team runs it."""
    if schedule.startswith("caller"):
        monkeypatch.setattr(bootstrap, "_child", idle_child)
    elif schedule.startswith("pool"):
        monkeypatch.setattr(bootstrap, "_claim_chunks", children_only(os.getpid()))


class NoMultiprocessing:
    def __getattr__(self, name):
        raise AssertionError("a worker process was started")


def schedule_jobs():
    """An auroc2 contrast of f16-like sides (one record per id), an nlp_gap
    contrast of pooled sides (two records per id), an m_ratio contrast and
    a meta_d contrast of pooled sides."""
    jobs = []
    for metric, records_per_id in (("auroc2", 1), ("nlp_gap", 2), ("m_ratio", 1),
                                   ("meta_d", 2)):
        a, b = spread_sides(records_per_id)
        entropy = bootstrap._stream_entropy(3, "Science", metric)
        jobs.append(bootstrap._Job(metric, RatingScale(), 0.5,
                                   (bootstrap._side(a, entropy), bootstrap._side(b, entropy))))
    return jobs


@pytest.mark.parametrize("schedule", ["caller_takes_all", "pool_takes_all", "default",
                                      "more_workers_than_cores"])
def test_every_schedule_of_the_chunks_is_one_worker_bit_for_bit(schedule, monkeypatch,
                                                                  tmp_path):
    # 500 resamples: four chunks of one batch per auroc2 and nlp_gap
    # contrast and four of both meta-d' fitted contrasts at once, each
    # evaluated once: by the caller, by the child at two workers, by
    # either, or by a team of more processes than cores (up to one per
    # chunk)
    jobs, caller, log = schedule_jobs(), os.getpid(), tmp_path / "chunks.log"
    want = bootstrap._run_jobs(jobs, 500, 1)
    use_schedule(schedule, monkeypatch)
    monkeypatch.setattr(bootstrap, "_eval_chunk", logged_chunk(log))
    workers = os.cpu_count() + 2 if schedule == "more_workers_than_cores" else 2
    got = bootstrap._run_jobs(jobs, 500, workers)
    assert not multiprocessing.active_children()
    chunks = read_log(log)
    assert sorted(chunk[1:] for chunk in chunks) == sorted(
        (metrics, lo, min(lo + 128, 500)) for metrics in ("auroc2", "nlp_gap", "m_ratio+meta_d")
        for lo in range(0, 500, 128))
    by_caller = {pid == caller for pid, *_ in chunks}
    if schedule == "caller_takes_all":
        assert by_caller == {True}
    elif schedule == "pool_takes_all":
        assert by_caller == {False}
    for got_job, want_job in zip(got, want, strict=True):
        np.testing.assert_array_equal(got_job.view(np.int64), want_job.view(np.int64))


def test_one_worker_or_one_chunk_starts_no_pool(monkeypatch):
    a, b = spread_sides(1)
    want = bootstrap_contrast(a, b, "auroc2", n_resamples=300, seed=9, workers=2)
    monkeypatch.setattr(bootstrap, "multiprocessing", NoMultiprocessing())
    assert bootstrap_contrast(a, b, "auroc2", n_resamples=300, seed=9, workers=1) == want
    bootstrap_contrast(a, b, "auroc2", n_resamples=100, seed=9, workers=2)   # one chunk
    with pytest.raises(AssertionError, match="worker process was started"):
        bootstrap_contrast(a, b, "auroc2", n_resamples=300, seed=9, workers=2)


@pytest.mark.parametrize("schedule", ["caller", "pool", "default"])
def test_a_failing_chunk_raises_and_leaves_no_process(schedule, monkeypatch, tmp_path):
    # ten chunks; the second raises, run by the caller (at two workers), by
    # one of two children (at three, the caller claiming none) or by the
    # caller or the child (at two). Every other chunk pauses 0.1 s first,
    # so that the process holding the first chunk is still in it when the
    # failure stops the team: no chunk is claimed after. A chunk that
    # failed in a child is run once more, by the caller, after the team
    # has stopped, and raises there
    a, b = spread_sides(1)
    caller, log = os.getpid(), tmp_path / "chunks.log"
    use_schedule(schedule, monkeypatch)
    monkeypatch.setattr(bootstrap, "_eval_chunk", logged_chunk(log, fail_at=128, pause=0.1))
    with pytest.raises(RuntimeError, match=r"chunk \[128, 256\) failed"):
        bootstrap_contrast(a, b, "auroc2", n_resamples=1280, seed=9,
                           workers=3 if schedule == "pool" else 2)
    assert not multiprocessing.active_children()
    chunks = read_log(log)
    failed_by = [pid for pid, _, start, _ in chunks if start == 128]
    if failed_by[0] != caller:
        assert failed_by == [failed_by[0], caller] and chunks[-1][0] == caller
    assert sorted(start for _, _, start, _ in chunks) == [0] + [128] * len(failed_by)
    if schedule == "caller":
        assert failed_by == [caller]
    elif schedule == "pool":
        assert failed_by[0] != caller


class ForeignError(Exception):
    """An error outside the toolkit that does not pickle."""

    def __reduce__(self):
        raise TypeError("cannot pickle ForeignError")


@pytest.mark.parametrize("error", [
    TooFewTrials(3, 8), MissingCondition("2"), RuntimeError("failed"), ForeignError("no pickle"),
])
def test_a_child_error_reaches_the_caller_as_itself_whatever_its_type(error, monkeypatch):
    # the caller runs the chunk that failed in a child once more, and so
    # raises the child's error itself, with its type and message
    def failing_chunk(jobs, start, stop):
        raise error

    monkeypatch.setattr(bootstrap, "_eval_chunk", failing_chunk)
    monkeypatch.setattr(bootstrap, "_claim_chunks", children_only(os.getpid()))
    with pytest.raises(type(error)) as caught:
        bootstrap._run_jobs(schedule_jobs(), 500, 2)
    assert caught.value is error
    assert not multiprocessing.active_children()


def test_a_chunk_that_fails_only_in_a_child_raises_and_leaves_no_process(monkeypatch):
    caller = os.getpid()

    def child_failing_chunk(jobs, start, stop):
        if os.getpid() != caller:
            raise RuntimeError("only in a child")
        return EVAL_CHUNK(jobs, start, stop)

    monkeypatch.setattr(bootstrap, "_eval_chunk", child_failing_chunk)
    monkeypatch.setattr(bootstrap, "_claim_chunks", children_only(caller))
    with pytest.raises(RuntimeError, match=r"resample chunk \[0, 128\) of job 0 failed in a "
                                           r"bootstrap worker process but runs cleanly here"):
        bootstrap._run_jobs(schedule_jobs(), 500, 2)
    assert not multiprocessing.active_children()


def test_a_killed_child_raises_and_leaves_no_process(monkeypatch):
    # the child SIGKILLs itself in its first chunk, so it sends no report
    caller = os.getpid()

    def killing_chunk(jobs, start, stop):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return EVAL_CHUNK(jobs, start, stop)

    def hung(signum, frame):
        raise TimeoutError("_run_jobs did not return after its child was killed")

    monkeypatch.setattr(bootstrap, "_eval_chunk", killing_chunk)
    monkeypatch.setattr(bootstrap, "_claim_chunks", children_only(caller))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=r"bootstrap worker process \d+ exited with code -9$"):
            bootstrap._run_jobs(schedule_jobs(), 500, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not multiprocessing.active_children()


def test_a_spawned_team_is_one_worker_bit_for_bit(monkeypatch):
    # the start method of macOS and the default of Python >= 3.14: the
    # child imports metadkit afresh and gets the jobs pickled. The caller
    # claims no chunk (the spawned child runs the unpatched module)
    jobs = schedule_jobs()
    want = bootstrap._run_jobs(jobs, 500, 1)
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(bootstrap, "multiprocessing", types.SimpleNamespace(
        get_context=lambda: spawn))
    monkeypatch.setattr(bootstrap, "_claim_chunks", children_only(os.getpid()))
    got = bootstrap._run_jobs(jobs, 500, 2)
    assert not multiprocessing.active_children()
    for got_job, want_job in zip(got, want, strict=True):
        np.testing.assert_array_equal(got_job.view(np.int64), want_job.view(np.int64))


@pytest.mark.parametrize("n_rows", [1, 128])
def test_side_block_is_each_draw_expanded_to_its_records(n_rows):
    # ids of 1, 2 and 4 records, their records interleaved in the file
    rng = np.random.default_rng(11)
    qids = np.repeat([f"q{i:02d}" for i in range(21)], np.tile([1, 2, 4], 7))
    rng.shuffle(qids)
    trials = make_trials(rng.normal(size=len(qids)), rng.random(len(qids)) < 0.7,
                         qids=list(qids))
    codes, _ = trials.codes("question_id")
    side = bootstrap._side(trials, None)
    draws = rng.integers(0, side.n_ids, size=(n_rows, side.n_ids))
    draws[:, 1] = draws[:, 0]                   # every draw repeats an id
    index, lengths = side.block(draws)
    # the file positions of each drawn id's records, draw after draw
    want = [np.concatenate([np.flatnonzero(codes == i) for i in draw]) for draw in draws]
    assert lengths.tolist() == [len(w) for w in want]
    np.testing.assert_array_equal(side.nlp[index], trials.nlp_values[np.concatenate(want)])
    np.testing.assert_array_equal(side.correct[index],
                                  trials.correct_mask[np.concatenate(want)])


def test_side_block_of_one_record_per_id_is_the_draws_viewed_flat():
    side = bootstrap._side(gaussian_trials(np.random.default_rng(2), 40), None)
    draws = np.random.default_rng(3).integers(0, side.n_ids, size=(5, side.n_ids))
    index, lengths = side.block(draws)
    assert np.shares_memory(index, draws)
    np.testing.assert_array_equal(index, draws.reshape(-1))
    assert lengths.tolist() == [40] * 5


@pytest.mark.parametrize("records_per_id", [1, 2])
@pytest.mark.parametrize("block_records", [1, 1000, 4000, 10 ** 6])
def test_side_blocks_hold_at_most_block_records_and_tile_the_block(records_per_id,
                                                                  block_records, monkeypatch):
    # 300 ids of one or two records: rows of 300 or 600 records, so blocks
    # of one row (at 1 record, and at 1000 of 600), of 3, 13 or 6 rows, the
    # last one shorter, or one block of all 128
    a, _ = spread_sides(records_per_id)
    side = bootstrap._side(a, None)
    draws = np.random.default_rng(4).integers(0, side.n_ids, size=(128, side.n_ids))
    monkeypatch.setattr(bootstrap, "BLOCK_RECORDS", block_records)
    blocks = list(side.blocks(draws))
    rows = [len(lengths) for _, lengths in blocks]
    assert min(rows) >= 1 and sum(rows) == 128
    assert all(len(index) <= block_records for index, _ in blocks) or rows == [1] * 128
    assert len(set(rows[:-1])) <= 1 and rows[-1] <= rows[0]
    index, lengths = side.block(draws)
    np.testing.assert_array_equal(np.concatenate([i for i, _ in blocks]), index)
    np.testing.assert_array_equal(np.concatenate([n for _, n in blocks]), lengths)


def chunk_peak_bytes(jobs):
    """tracemalloc's peak over one _eval_chunk of one FIT_BATCH batch of
    ``jobs``, above what was allocated before it; after one untraced chunk,
    so that the sides' constants are computed."""
    bootstrap._eval_chunk(jobs, 0, bootstrap.FIT_BATCH)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        bootstrap._eval_chunk(jobs, 0, bootstrap.FIT_BATCH)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metric", ["auroc2", "nlp_gap", "meta_d"])
def test_a_batch_of_a_release_sized_side_peaks_under_2_5_mb(metric):
    # 956 ids of one record each and 956 nlp levels, as the release's f16
    # History cell: 128 resamples hold 122 368 records, which row blocks of
    # BLOCK_RECORDS records evaluate a few rows at a time
    trials = gaussian_trials(np.random.default_rng(12), 956)
    job = bootstrap._Job(metric, RatingScale(), 0.5,
                         (bootstrap._side(trials, bootstrap._stream_entropy(1, "History", "u")),))
    assert chunk_peak_bytes([job]) < 2.5e6


def test_a_batch_of_six_release_sized_meta_d_contrasts_peaks_with_one_solve():
    # the suite's six paired contrasts of 956 ids: 6 x 2 x 128 = 1536
    # tables, fitted in three solves of FIT_ROWS = 512. A solve holds about
    # 7.4 kB per table, and the chunk about 2 MB beside it (its blocks,
    # one at a time, and the pending tables): 5.4 MB in all. Solves of 768
    # tables peak at 7.2 MB, of all 1536 at once at 12.6 MB
    jobs = []
    for k in range(6):
        a, b = (gaussian_trials(np.random.default_rng(20 + 2 * k + side), 956,
                                mu_correct=0.8 - 0.2 * side) for side in (0, 1))
        entropy = bootstrap._stream_entropy(1, "History", f"u{k}")
        jobs.append(bootstrap._Job("meta_d", RatingScale(), 0.5,
                                   (bootstrap._side(a, entropy), bootstrap._side(b, entropy))))
    assert bootstrap.FIT_ROWS == 512
    assert chunk_peak_bytes(jobs) < 512 * 7.4e3 + 2e6


def check_batches_match_one_at_a_time(metric, a, b, monkeypatch):
    """Every run at workers 1, 2, 3, at one row per block, at blocks that
    split a batch unevenly, at FIT_BATCH = 7 and at FIT_ROWS = 5 must be
    bit-identical, and every third ordinal must equal its one-at-a-time
    metric_value, nan where that raises. Returns how often, over the
    checked sides, each exclusion was raised, the value was exactly 0 and
    a bin boundary fell inside a run of equal nlp holding both classes."""
    entropy = bootstrap._stream_entropy(3, "Science", "u")
    job = bootstrap._Job(metric, RatingScale(), 0.5,
                         (bootstrap._side(a, entropy), bootstrap._side(b, entropy)))
    checked = np.arange(0, 300, 3)
    want = np.empty(checked.size)
    reasons = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        for j, ordinal in enumerate(checked):
            values = []
            for side, (r, _) in zip(job.sides, sample_blocks(job, ordinal, ordinal + 1)):
                nlp, correct = side.nlp[r], side.correct[r]
                try:
                    values.append(metric_value(metric, nlp, correct))
                except tuple(UNDEFINED_ERRORS.values()) as exc:
                    reasons[type(exc).__name__] += 1
                    values.append(np.nan)
                if len(r) >= 8:
                    bins = bin_indices(nlp, 8)
                    reasons["split_tie"] += any(
                        np.unique(bins[nlp == x]).size > 1 and np.unique(correct[nlp == x]).size > 1
                        for x in np.unique(nlp))
            reasons["zero"] += values.count(0.0)
            want[j] = values[0] - values[1]
    assert 0 < np.isnan(want).sum() < 50
    runs = [bootstrap._run_jobs([job], 300, workers)[0] for workers in (1, 2, 3)]
    monkeypatch.setattr(bootstrap, "BLOCK_RECORDS", 1)     # one row per block
    runs.append(bootstrap._run_jobs([job], 300, 1)[0])
    # blocks of 5 rows of 20 ids, or of 3 rows of 13 ids with up to 2
    # records each: batches of 128 and 44 rows end in a shorter block
    monkeypatch.setattr(bootstrap, "BLOCK_RECORDS", 100)
    runs += [bootstrap._run_jobs([job], 300, workers)[0] for workers in (1, 2)]
    monkeypatch.setattr(bootstrap, "FIT_BATCH", 7)
    runs += [bootstrap._run_jobs([job], 300, workers)[0] for workers in (1, 3)]
    # solves of 5 tables at most: a batch's 14 tables (fewer fitted) in
    # slices of 4 and 5
    monkeypatch.setattr(bootstrap, "FIT_ROWS", 5)
    runs += [bootstrap._run_jobs([job], 300, workers)[0] for workers in (1, 2)]
    for got in runs:
        np.testing.assert_array_equal(got, runs[0])
    np.testing.assert_array_equal(runs[0][checked], want)
    return reasons


STALLED = pad_counts([[0, 0, 18, 0, 0, 0, 0, 0], [0, 0, 0, 16, 0, 0, 0, 0]])


def stall_every_fourth_table(monkeypatch):
    """Make the 1st, 5th, 9th, ... resample table meta-d' fitted the
    d' = 0.054, c' = 24.4 table whose meta-d' fit does not converge (its
    trial-level form is in tests/test_cli.py)."""
    real = bootstrap.meta_d_fit_batch
    seen = [0]

    def fit_batch(counts, d_prime, criterion_c):
        counts, d_prime, criterion_c = counts.copy(), d_prime.copy(), criterion_c.copy()
        stall = (seen[0] + np.arange(len(counts))) % 4 == 0
        seen[0] += len(counts)
        counts[stall] = STALLED
        d_prime[stall], criterion_c[stall] = type1_fit(STALLED)
        return real(counts, d_prime, criterion_c)

    monkeypatch.setattr(bootstrap, "meta_d_fit_batch", fit_batch)


def stall_point_fits(monkeypatch):
    """Make every point-estimate fit (bootstrap.sdt_fits) the stalled table
    of stall_every_fourth_table (resample fits are unchanged)."""
    d_prime, criterion_c = type1_fit(STALLED)
    monkeypatch.setattr(bootstrap, "sdt_fits", lambda counts, *_: sdt_fits(
        np.repeat(STALLED[None], len(counts), axis=0),
        [d_prime] * len(counts), [criterion_c] * len(counts), DEFAULT_PAD_VALUE))


@pytest.mark.parametrize("metric", ["meta_d", "m_ratio"])
def test_point_fit_that_did_not_converge_is_undefined_and_flagged(rng, monkeypatch, metric):
    trials = gaussian_trials(rng, 80)
    clean = bootstrap_metric(trials, metric, n_resamples=20, seed=3)
    assert not clean.flagged_degenerate
    stall_point_fits(monkeypatch)
    res = bootstrap_metric(trials, metric, n_resamples=20, seed=3)
    assert np.isnan(res.point)
    assert res.flagged_degenerate
    assert res.degenerate_resample_count == 0
    assert (res.ci_low, res.ci_high) == (clean.ci_low, clean.ci_high)
    contrast = bootstrap_contrast(trials, trials, metric, n_resamples=20, seed=3)
    assert np.isnan(contrast.delta_hat) and contrast.flagged_degenerate


@pytest.mark.parametrize("metric", ["meta_d", "m_ratio"])
def test_resample_fit_that_did_not_converge_is_counted_and_excluded(rng, monkeypatch, metric):
    trials = gaussian_trials(rng, 80)
    clean = bootstrap_metric(trials, metric, n_resamples=20, seed=3)
    assert clean.degenerate_resample_count == 0
    stall_every_fourth_table(monkeypatch)
    with pytest.warns(TooManyDegenerate):
        res = bootstrap_metric(trials, metric, n_resamples=20, seed=3)
    # ordinals 0, 4, 8, 12 and 16 are the stalled table
    assert res.degenerate_resample_count == 5
    assert res.flagged_degenerate
    assert res.point == clean.point
