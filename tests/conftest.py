import numpy as np
import pytest
from hypothesis import settings

from metadkit.trialstore import TrialRecord, TrialSet

# property tests run the same examples on every run: no random seed, no
# example database, no per-example deadline on a shared machine
settings.register_profile("metadkit", derandomize=True, database=None, deadline=None)
settings.load_profile("metadkit")


def make_trials(nlp, correct, domain="Science", condition="1", format="f16",
                qid_prefix="q", qids=None):
    """TrialSet from parallel nlp/correct sequences."""
    records = []
    for i, (x, c) in enumerate(zip(nlp, correct)):
        qid = qids[i] if qids is not None else f"{qid_prefix}{i:05d}"
        records.append(TrialRecord(qid, domain, condition, format, bool(c), float(x)))
    return TrialSet(records)


def gaussian_trials(rng, n, p_correct=0.7, mu_correct=0.5, mu_incorrect=0.0,
                    sigma_correct=1.0, sigma_incorrect=1.0, **kwargs):
    correct = rng.random(n) < p_correct
    nlp = np.where(correct,
                   rng.normal(mu_correct, sigma_correct, n),
                   rng.normal(mu_incorrect, sigma_incorrect, n))
    return make_trials(nlp, correct, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
