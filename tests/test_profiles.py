import itertools
import re
import warnings

import numpy as np
import pytest

from metadkit import bootstrap
from metadkit.binning import RatingScale, bin_indices
from metadkit.bootstrap import bootstrap_metric, metric_value
from metadkit.errors import (
    DegenerateResponse,
    DomainMismatch,
    MetadkitWarning,
    MixedProfileSet,
    NegativeMetaD,
    OneClassOnly,
    TiedRanks,
    TooFewTrials,
    ZeroDPrime,
)
from metadkit.nonparam import accuracy_arrays, auroc2_arrays, nlp_gap_arrays
from metadkit.profiles import (
    RANK_METRICS,
    DomainProfile,
    build_profiles,
    compare_formats,
    fit_cell_arrays,
    rank_profile,
    ranks_tie,
)
from metadkit.synth import SynthConfig, generate
from metadkit.trialstore import TrialSet
from tests.conftest import gaussian_trials, make_trials


def profile(domain, m_ratio=1.0, auroc2=0.65, format="f16", condition="1", **kwargs):
    defaults = dict(n=100, accuracy=0.7, d_prime=0.5, meta_d=m_ratio * 0.5,
                    nlp_gap=0.1)
    defaults.update(kwargs)
    return DomainProfile(domain=domain, condition=condition, format=format,
                         m_ratio=m_ratio, auroc2=auroc2, **defaults)


def test_rank_profile_auroc_ordering():
    profs = [profile("Arts", auroc2=0.710), profile("History", auroc2=0.669),
             profile("Geography", auroc2=0.629), profile("Science", auroc2=0.619)]
    ranked = rank_profile(profs, "auroc2")
    ranks = {p.domain: p.ranks["auroc2"] for p in ranked}
    assert ranks == {"Arts": 1, "History": 2, "Geography": 3, "Science": 4}


def test_rank_profile_m_ratio_ordering():
    profs = [profile("Science", m_ratio=1.436), profile("Geography", m_ratio=0.798),
             profile("History", m_ratio=0.470), profile("Arts", m_ratio=1.542)]
    ranked = rank_profile(profs, "m_ratio")
    ranks = {p.domain: p.ranks["m_ratio"] for p in ranked}
    assert ranks == {"Arts": 1, "Science": 2, "Geography": 3, "History": 4}


def test_rank_profile_ties_break_by_domain_and_warn():
    profs = [profile(d, m_ratio=1.0) for d in ("C", "A", "B")]
    with pytest.warns(TiedRanks):
        ranked = rank_profile(profs, "m_ratio")
    ranks = {p.domain: p.ranks["m_ratio"] for p in ranked}
    assert ranks == {"A": 1, "B": 2, "C": 3}


@pytest.mark.parametrize("values, tie", [
    ([1.0, 0.5], False),
    ([1.0, 1.0], True),
    ([0.0, -0.0], True),
    ([np.nan, 0.5], False),
    ([np.nan, 0.5, np.nan], True),
])
def test_ranks_tie_counts_two_nans_as_a_tie(values, tie):
    assert ranks_tie(values) == tie


def test_rank_profile_rejects_mixed_cells():
    profs = [profile("Arts", format="f16"), profile("History", format="q5_k_m")]
    with pytest.raises(MixedProfileSet):
        rank_profile(profs, "m_ratio")


def test_ranks_are_permutation(rng):
    profs = [profile(f"D{i}", m_ratio=float(v))
             for i, v in enumerate(rng.normal(1.0, 0.3, 6))]
    ranked = rank_profile(profs, "m_ratio")
    assert sorted(p.ranks["m_ratio"] for p in ranked) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("values, want", [
    ({"Arts": 1.2, "History": np.nan, "Science": 0.8},
     {"Arts": 1, "Science": 2, "History": 3}),
    ({"Arts": np.nan, "Geography": 0.5, "History": np.nan, "Science": 0.9},
     {"Science": 1, "Geography": 2, "Arts": 3, "History": 4}),
])
def test_rank_profile_ranks_nan_last_whatever_the_input_order(values, want):
    for order in itertools.permutations(values):
        profs = [profile(d, m_ratio=values[d]) for d in order]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranked = rank_profile(profs, "m_ratio")
        assert {p.domain: p.ranks["m_ratio"] for p in ranked} == want
        # two nans are a tie broken by domain name; one nan is not
        tied = sum(np.isnan(v) for v in values.values()) > 1
        assert any(w.category is TiedRanks for w in caught) == tied


def test_fit_cell_end_to_end(rng):
    trials = gaussian_trials(rng, 5000, mu_correct=1.0)
    fit = fit_cell_arrays(trials.nlp_values, trials.correct_mask)
    assert fit.d_prime > 0.5
    assert fit.meta_d > 0.0


def test_build_profiles_per_cell(rng):
    records = []
    for domain in ("Arts", "Science"):
        for condition in ("1", "2"):
            sub = gaussian_trials(rng, 300, domain=domain, condition=condition,
                                  qid_prefix=f"{domain}{condition}")
            records.extend(sub.records)
    trials = TrialSet(records)
    profiles = build_profiles(trials)
    assert len(profiles) == 4
    keys = {(p.condition, p.format, p.domain) for p in profiles}
    assert len(keys) == 4
    for p in profiles:
        assert p.n == 300
        assert p.ranks["m_ratio"] in (1, 2)
        assert p.ranks["auroc2"] in (1, 2)
    for condition in ("1", "2"):
        cell = [p for p in profiles if p.condition == condition]
        assert sorted(p.ranks["m_ratio"] for p in cell) == [1, 2]


def test_build_profiles_global_scope_changes_bins(rng):
    # two domains with very different nlp locations: global quantiles must
    # differ from per-cell quantiles, so d' estimates move
    records = []
    records.extend(gaussian_trials(rng, 400, mu_correct=3.0, mu_incorrect=2.0,
                                   domain="High", qid_prefix="h").records)
    records.extend(gaussian_trials(rng, 400, mu_correct=-2.0, mu_incorrect=-3.0,
                                   domain="Low", qid_prefix="l").records)
    trials = TrialSet(records)
    per_cell = {p.domain: p for p in build_profiles(trials, binning_scope="per_cell")}
    global_ = {p.domain: p for p in build_profiles(trials, binning_scope="global")}
    assert any(abs(per_cell[d].d_prime - global_[d].d_prime) > 0.05
               for d in ("High", "Low"))
    # rank-based metrics are binning-free and must be identical
    for d in ("High", "Low"):
        assert per_cell[d].auroc2 == global_[d].auroc2
        assert per_cell[d].nlp_gap == global_[d].nlp_gap


def test_single_domain_gets_rank_one(rng):
    trials = gaussian_trials(rng, 200)
    profiles = build_profiles(trials)
    assert len(profiles) == 1
    assert profiles[0].ranks["m_ratio"] == 1
    assert profiles[0].ranks["auroc2"] == 1


def test_ranks_and_rhos_are_keyed_by_the_rank_metrics(rng):
    records = []
    for domain in ("Arts", "History", "Science"):
        for format in ("f16", "q5_k_m"):
            records.extend(gaussian_trials(rng, 300, domain=domain, format=format,
                                           qid_prefix=f"{domain}{format}").records)
    profiles = build_profiles(TrialSet(records))
    assert len(profiles) == 6
    assert all(set(p.ranks) == set(RANK_METRICS) for p in profiles)
    by_format = {f: [p for p in profiles if p.format == f] for f in ("f16", "q5_k_m")}
    # the report writes one rho row per key, in this order
    assert tuple(compare_formats(by_format["q5_k_m"], by_format["f16"]).rho) == RANK_METRICS


def test_compare_formats_self_is_unity():
    profs = [profile("Arts", m_ratio=1.2, auroc2=0.71),
             profile("Science", m_ratio=0.8, auroc2=0.62)]
    comparison = compare_formats(profs, profs)
    assert comparison.rho["m_ratio"] == pytest.approx(1.0)
    assert comparison.rho["auroc2"] == pytest.approx(1.0)
    assert all(not m.moved for m in comparison.rank_moves)


def test_compare_formats_reference_profiles():
    q5 = [profile("Science", m_ratio=1.352, auroc2=0.619, format="q5_k_m"),
          profile("Geography", m_ratio=1.210, auroc2=0.629, format="q5_k_m"),
          profile("History", m_ratio=0.615, auroc2=0.669, format="q5_k_m"),
          profile("Arts", m_ratio=0.606, auroc2=0.710, format="q5_k_m")]
    f16 = [profile("Science", m_ratio=1.436, auroc2=0.643),
           profile("Geography", m_ratio=0.798, auroc2=0.668),
           profile("History", m_ratio=0.470, auroc2=0.672),
           profile("Arts", m_ratio=1.542, auroc2=0.680)]
    comparison = compare_formats(q5, f16)
    # M-ratio rank pairs are (1,2), (2,3), (3,4), (4,1): the closed-form
    # Spearman value is -0.2; AUROC order is identical on both sides
    assert comparison.rho["m_ratio"] == pytest.approx(-0.2, abs=1e-12)
    assert comparison.rho["auroc2"] == pytest.approx(1.0, abs=1e-12)
    moves = {(m.metric, m.domain): (m.rank_a, m.rank_b)
             for m in comparison.rank_moves}
    assert moves[("m_ratio", "Arts")] == (4, 1)
    assert moves[("m_ratio", "Geography")] == (2, 3)
    assert moves[("auroc2", "Arts")] == (1, 1)


def test_compare_formats_rho_is_nan_for_a_nan_m_ratio():
    # a cell whose fit did not converge reports m_ratio = nan
    q5 = [profile("Arts", m_ratio=1.2, auroc2=0.71, format="q5_k_m"),
          profile("History", m_ratio=np.nan, auroc2=0.67, format="q5_k_m"),
          profile("Science", m_ratio=0.8, auroc2=0.62, format="q5_k_m")]
    f16 = [profile("Arts", m_ratio=1.1, auroc2=0.70),
           profile("History", m_ratio=0.9, auroc2=0.66),
           profile("Science", m_ratio=0.7, auroc2=0.61)]
    comparison = compare_formats(q5, f16)
    assert np.isnan(comparison.rho["m_ratio"])
    assert comparison.rho["auroc2"] == 1.0
    assert np.isnan(compare_formats(f16, q5).rho["m_ratio"])


def test_compare_formats_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compare_formats([profile("Arts")], [profile("Science")])


def profiles_one_fit_at_a_time(trials, scale=RatingScale(), pad_value=0.5,
                               binning_scope="per_cell"):
    """build_profiles as a loop of fit_cell_arrays over the cells, ranking
    each (condition, format) set as soon as its cells are fitted; also
    returns each cell's fit."""
    profiles, fits = [], []
    for condition in trials.conditions():
        for format in trials.formats():
            cf = trials.filter(condition=condition, format=format)
            if len(cf) == 0:
                continue
            shared = (bin_indices(cf.nlp_values, scale.n_bins)
                      if binning_scope == "global" else None)
            codes, domains = cf.codes("domain")
            cells = []
            for code, domain in enumerate(domains.tolist()):
                mask = codes == code
                nlp, correct = cf.nlp_values[mask], cf.correct_mask[mask]
                fit = fit_cell_arrays(nlp, correct, scale, pad_value,
                                      bins=None if shared is None else shared[mask])
                fits.append(fit)
                cells.append(DomainProfile(
                    domain=domain, condition=condition, format=format, n=int(mask.sum()),
                    accuracy=accuracy_arrays(correct), d_prime=fit.d_prime,
                    meta_d=fit.meta_d, m_ratio=fit.m_ratio,
                    auroc2=auroc2_arrays(nlp, correct), nlp_gap=nlp_gap_arrays(nlp, correct),
                    low_dprime_warning=fit.low_dprime_warning, fit_converged=fit.converged))
            for metric in RANK_METRICS:
                cells = rank_profile(cells, metric)
            profiles.extend(cells)
    return profiles, fits


def mixed_cells(seed, stalled=True):
    """Small cells of weak, absent and strong signal at several accuracies in
    conditions 2 and 3, plus (``stalled``) condition 1 holding the d' = 0.054,
    c' = 24.4 table of tests/test_cli.py under global binning."""
    from tests.test_cli import global_binned_trials
    rng = np.random.default_rng(seed)
    records = []
    if stalled:
        records += global_binned_trials([0, 0, 18, 0, 0, 0, 0, 0],
                                        [0, 0, 0, 16, 0, 0, 0, 0]).records
    for condition in ("2", "3"):
        for format in ("f16", "q5_k_m"):
            for domain in ("Arts", "History", "Science"):
                records += gaussian_trials(
                    rng, int(rng.integers(24, 60)),
                    p_correct=float(rng.choice([0.3, 0.5, 0.85])),
                    mu_correct=float(rng.choice([0.0, 0.1, 0.6])), domain=domain,
                    condition=condition, format=format,
                    qid_prefix=f"{domain}{condition}{format}").records
    return TrialSet(records)


def recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


# the warnings build_profiles gave on mixed_cells(5) before its fits were
# batched: meta-d' = 0 cells and ties in two (condition, format) sets, and
# under global binning the stalled table's one-sided responses
NM, TR, DR = NegativeMetaD, TiedRanks, DegenerateResponse
PARENT_WARNINGS = {"per_cell": [NM, NM, TR, NM, NM, NM, TR],
                   "global": [DR, NM, NM, TR, NM, NM, NM, NM, TR]}


@pytest.mark.parametrize("binning_scope", ["per_cell", "global"])
def test_build_profiles_equals_fitting_one_cell_at_a_time(binning_scope):
    trials = mixed_cells(5)
    (expected, fits), expected_warnings = recorded(
        lambda: profiles_one_fit_at_a_time(trials, binning_scope=binning_scope))
    got, got_warnings = recorded(lambda: build_profiles(trials, binning_scope=binning_scope))
    assert got == expected
    assert got_warnings == expected_warnings
    assert [category for category, _ in got_warnings] == PARENT_WARNINGS[binning_scope]
    if binning_scope == "global":   # the restart branch and the stalled fit
        assert any(abs(f.criterion_c / f.d_prime) > 1.5 for f in fits)
        assert [p.fit_converged for p in got].count(False) == 1


def test_build_profiles_raises_the_first_cells_error():
    """A cell with d' = 0 after cells that fit, and a later cell with one
    correctness class: the first cell's error, as fitting the cells one
    at a time gives."""
    one_class = gaussian_trials(np.random.default_rng(0), 40, p_correct=1.0, condition="4",
                                qid_prefix="c4")
    trials = TrialSet(mixed_cells(1, stalled=False).records + one_class.records)
    with pytest.raises(ZeroDPrime) as expected:
        profiles_one_fit_at_a_time(trials, binning_scope="global")
    with pytest.raises(ZeroDPrime) as got:
        build_profiles(trials, binning_scope="global")
    assert str(got.value) == f"cell (2, f16, History): {expected.value}"


# cells with one or two faults, and the error each raises: a one-class cell
# is OneClassOnly even when it is also too small, as metric_value checks
ONE_CLASS_ERROR = (OneClassOnly, "sensitivity metrics need both correctness classes")
TOO_FEW_ERROR = (TooFewTrials, "a diagnostic cell fit needs at least 16 trials, got 10")
ZERO_D_PRIME_ERROR = (ZeroDPrime, "meta-d' undefined at d' = 0")
FAULTY_CELLS = {
    "too_few_and_one_class": (np.arange(10.0), [True] * 10, ONE_CLASS_ERROR),
    "too_few": (np.arange(10.0), [i % 2 == 0 for i in range(10)], TOO_FEW_ERROR),
    # each class splits 4 / 4 at the median: HR = FAR = 0.5
    "zero_d_prime": (np.arange(16.0), [i % 2 == 1 for i in range(16)], ZERO_D_PRIME_ERROR),
    "one_class": (np.linspace(-1.0, 1.0, 40), [False] * 40, ONE_CLASS_ERROR),
}


def faulty_cells(*kinds):
    """One domain per kind, in that (alphabetical) order."""
    records = []
    for i, kind in enumerate(kinds):
        nlp, correct, _ = FAULTY_CELLS[kind]
        records += make_trials(nlp, correct, domain=f"D{i}", qid_prefix=f"d{i}_").records
    return TrialSet(records)


def assert_raises(error, call):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        with pytest.raises(error[0]) as raised:
            call()
    assert str(raised.value) == error[1]


def in_cell(error, cell):
    """A cell's error as build_profiles raises it: its message led by the cell."""
    return error[0], f"cell ({cell}): {error[1]}"


def in_unit(error, domain, unit):
    """A point's error as a bootstrap raises it: its message led by its unit."""
    return error[0], f"{domain}/{unit}: {error[1]}"


@pytest.mark.parametrize("kind", sorted(FAULTY_CELLS))
def test_every_path_raises_a_faulty_cells_error_in_one_order(kind):
    nlp, correct, error = FAULTY_CELLS[kind]
    nlp, correct = np.asarray(nlp), np.asarray(correct)
    trials = faulty_cells(kind)
    for metric in ("meta_d", "m_ratio"):
        assert_raises(error, lambda: metric_value(metric, nlp, correct))
        assert_raises(in_unit(error, "D0", metric),
                      lambda: bootstrap_metric(trials, metric, n_resamples=1))
    assert_raises(error, lambda: fit_cell_arrays(nlp, correct))
    for binning_scope in ("per_cell", "global"):
        assert_raises(in_cell(error, "1, f16, D0"),
                      lambda: build_profiles(trials, binning_scope=binning_scope))
    if error is ZERO_D_PRIME_ERROR:     # d' itself is defined, and 0
        assert metric_value("d_prime", nlp, correct) == 0.0
        assert bootstrap_metric(trials, "d_prime", n_resamples=1).point == 0.0
    else:
        assert_raises(error, lambda: metric_value("d_prime", nlp, correct))
    if error is ONE_CLASS_ERROR:    # so are the rank-based ones
        for metric in ("auroc2", "nlp_gap"):
            assert_raises(error, lambda: metric_value(metric, nlp, correct))
            assert_raises(in_unit(error, "D0", metric),
                          lambda: bootstrap_metric(trials, metric, n_resamples=1))


@pytest.mark.parametrize("kinds, error", [
    (("zero_d_prime", "one_class"), ZERO_D_PRIME_ERROR),
    (("one_class", "zero_d_prime"), ONE_CLASS_ERROR),
    (("too_few", "too_few_and_one_class"), TOO_FEW_ERROR),
    (("too_few_and_one_class", "too_few"), ONE_CLASS_ERROR),
])
def test_build_profiles_raises_the_error_of_the_first_faulty_cell(kinds, error):
    assert_raises(in_cell(error, "1, f16, D0"), lambda: build_profiles(faulty_cells(*kinds)))


@pytest.mark.parametrize("correct, error", [
    ([True, False, True, False, True],
     (TooFewTrials, "a diagnostic cell fit needs at least 16 trials, got 5")),
    ([True] * 5, ONE_CLASS_ERROR),
])
def test_a_set_too_small_to_bin_raises_its_cells_error_on_both_scopes(correct, error):
    """A (condition, format) set of fewer than n_bins records, which
    bin_indices would refuse to bin, beside a set that fits: global
    binning gives it bins all the same, and its cell raises its error."""
    fits = gaussian_trials(np.random.default_rng(0), 60, qid_prefix="f")
    small = make_trials(np.arange(5.0), correct, condition="2", qid_prefix="s")
    trials = TrialSet(fits.records + small.records)
    for binning_scope in ("per_cell", "global"):
        assert_raises(in_cell(error, "2, f16, Science"),
                      lambda: build_profiles(trials, binning_scope=binning_scope))
    assert len(build_profiles(fits, binning_scope="global")) == 1


def resampling(*args):
    raise AssertionError("resampling began before pad_value was checked")


@pytest.mark.parametrize("pad_value", [-0.5, float("nan"), float("inf")])
def test_an_invalid_pad_value_is_refused_on_every_model_path(pad_value, monkeypatch):
    """-1.0 fitted tables of -1 "counts" (meta-d' 1.473 on this set), and
    nan and inf escaped as numpy's LinAlgError."""
    trials = generate(SynthConfig(n_trials=400, p_correct=0.7, seed=1))
    monkeypatch.setattr(bootstrap, "_run_jobs", resampling)
    message = f"pad_value must be finite and >= 0, got {pad_value}"
    calls = [lambda: build_profiles(trials, pad_value=pad_value),
             lambda: fit_cell_arrays(trials.nlp_values, trials.correct_mask,
                                     pad_value=pad_value),
             lambda: metric_value("meta_d", trials.nlp_values, trials.correct_mask,
                                  pad_value=pad_value),
             lambda: bootstrap_metric(trials, "m_ratio", n_resamples=50, pad_value=pad_value)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
