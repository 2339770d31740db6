"""Characterisation pins: the sha256 of every CLI report tree on one small,
tie-heavy trial file, and point estimates against the public scalar chain.

The file rounds nlp to 0.1, so quantile bin edges fall inside runs of equal
values and a tie is broken by input position, and its records are shuffled
against their question ids. A computation that re-orders a cell's records
(by id, say) before binning, or before a pairwise mean, changes these
numbers; a continuous-nlp file sorted by id would not show it.
"""

import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from metadkit.binning import DEFAULT_PAD_VALUE, bin_indices, counts_from_arrays, pad_counts
from metadkit.bootstrap import bootstrap_contrast, bootstrap_metric
from metadkit.cli import main
from metadkit.errors import MetadkitWarning
from metadkit.nonparam import nlp_gap_arrays
from metadkit.sdt import meta_d_fit, type1_fit
from metadkit.trialstore import TrialSet, save_trials

DOMAINS = ("Science", "History", "Arts", "Geography")


def tie_heavy_trials(seed=11, n_questions=60):
    """Paired trials for conditions 1-4 in formats f16 and q5_k_m, nlp
    rounded to 0.1, records in a random order."""
    rng = np.random.default_rng(seed)
    columns = {name: [] for name in ("question_id", "domain", "condition", "format",
                                     "correct", "nlp")}
    for domain in DOMAINS:
        for i in range(n_questions):
            for condition in "1234":
                for fmt in ("f16", "q5_k_m"):
                    correct = bool(rng.random() < 0.7)
                    gap = 0.9 if condition == "2" and domain == "Science" else 0.6
                    for name, value in (("question_id", f"{domain[:3].lower()}{i:03d}"),
                                        ("domain", domain), ("condition", condition),
                                        ("format", fmt), ("correct", correct),
                                        ("nlp", round(rng.normal(gap if correct else 0.0), 1))):
                        columns[name].append(value)
    order = rng.permutation(len(columns["nlp"]))
    return TrialSet.from_columns({name: [values[i] for i in order]
                                  for name, values in columns.items()})


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def trials_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "trials.jsonl"
    save_trials(tie_heavy_trials(), path)
    return path


# report tree sha256 of each run, recorded before the block path replaced
# the per-cell, resample and point-estimate chains
PINS = {
    "diagnose": ("diagnose",),
    "diagnose_global": ("diagnose", "--binning-scope", "global"),
    "compare_formats": ("compare-formats", "--condition", "1", "--format-a", "q5_k_m",
                        "--format-b", "f16"),
    "confirm_f16_w1": ("confirm", "--resamples", "200", "--format", "f16", "--workers", "1"),
    "confirm_f16_w2": ("confirm", "--resamples", "200", "--format", "f16", "--workers", "2"),
    "confirm_pooled_w1": ("confirm", "--resamples", "200", "--workers", "1"),
    "confirm_pooled_w2": ("confirm", "--resamples", "200", "--workers", "2"),
}
TREE_SHA256 = {
    "diagnose": "6e8f3bfa423b30f525805568f62fe3f72008808e342a6d8656b94437a5668c2f",
    "diagnose_global": "2f8d6736e8e3043a12ef8c0c70143470736250a36f832ac76ebb2946ed3e9f37",
    "compare_formats": "06fd91e75b71fa81d9fd74f3332a846f37a96f684d64dc8776b7f1e99bbace87",
    "confirm_f16_w1": "8a62a7577017dcbdfde7e9c34ad50696bb7afdcfbd86ffafe374495f970c181c",
    "confirm_f16_w2": "8a62a7577017dcbdfde7e9c34ad50696bb7afdcfbd86ffafe374495f970c181c",
    "confirm_pooled_w1": "b10dbb071449eda9b93f6b91a653037e2141a058006910f63af5fdfc6e74d2e8",
    "confirm_pooled_w2": "b10dbb071449eda9b93f6b91a653037e2141a058006910f63af5fdfc6e74d2e8",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_tree_is_unchanged(trials_file, tmp_path, name):
    out = tmp_path / name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        code = main([*PINS[name], "--trials", str(trials_file), "--out", str(out)])
    assert code in (0, 3)
    assert tree_sha256(out) == TREE_SHA256[name]


def scalar_chain(trials, metric):
    """metric of ``trials`` in record order through the public scalar API."""
    nlp, correct = trials.nlp_values, trials.correct_mask
    if metric == "nlp_gap":
        return nlp_gap_arrays(nlp, correct)
    table = pad_counts(counts_from_arrays(bin_indices(nlp, 8), correct, 8))
    type1 = type1_fit(table)
    if metric == "d_prime":
        return type1[0]
    fit = meta_d_fit(table, type1, DEFAULT_PAD_VALUE)
    return fit.meta_d if metric == "meta_d" else fit.m_ratio


@pytest.mark.parametrize("metric", ["d_prime", "meta_d", "m_ratio", "nlp_gap"])
@pytest.mark.parametrize("fmt", ["f16", None])
def test_point_estimates_equal_the_scalar_chain_in_record_order(metric, fmt):
    trials = tie_heavy_trials()
    if fmt is not None:
        trials = trials.filter(format=fmt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        for domain in DOMAINS:
            a = trials.filter(condition="2", domain=domain)
            b = trials.filter(condition="1", domain=domain)
            want_a, want_b = scalar_chain(a, metric), scalar_chain(b, metric)
            assert bootstrap_metric(a, metric, n_resamples=1).point == want_a
            assert bootstrap_contrast(a, b, metric, n_resamples=1).delta_hat == want_a - want_b
