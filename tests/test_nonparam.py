import numpy as np
import pytest

from metadkit.errors import EmptySet, LengthMismatch, OneClassOnly, ZeroVariance
from metadkit.nonparam import accuracy_arrays, auroc2_arrays, nlp_gap_arrays, spearman_rho


def brute_force_auroc2(nlp, correct):
    """O(n^2) pairwise oracle: wins + half ties over all cross-class pairs."""
    pos = [x for x, c in zip(nlp, correct) if c]
    neg = [x for x, c in zip(nlp, correct) if not c]
    score = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                score += 1.0
            elif p == q:
                score += 0.5
    return score / (len(pos) * len(neg))


def test_auroc2_perfect_separation():
    nlp = np.array([-1, -2, -3, -0.5, -0.4])
    assert auroc2_arrays(nlp, np.array([False, False, False, True, True])) == 1.0


def test_auroc2_two_pair_example():
    # pairs: (-0.1 vs -0.3) win, (-0.5 vs -0.3) loss -> 0.5
    assert auroc2_arrays(np.array([-0.1, -0.5, -0.3]), np.array([True, True, False])) == 0.5


def test_auroc2_matches_brute_force_with_ties(rng):
    for _ in range(30):
        n = int(rng.integers(5, 200))
        correct = rng.random(n) < 0.5
        if correct.all() or not correct.any():
            continue
        nlp = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        assert auroc2_arrays(nlp, correct) == brute_force_auroc2(nlp, correct)


def test_auroc2_class_swap(rng):
    n = 80
    correct = rng.random(n) < 0.6
    nlp = np.round(rng.normal(size=n), 1)
    a = auroc2_arrays(nlp, correct)
    b = auroc2_arrays(nlp, ~correct)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auroc2_monotone_invariance(rng):
    n = 60
    correct = rng.random(n) < 0.5
    nlp = rng.normal(size=n)
    base = auroc2_arrays(nlp, correct)
    assert auroc2_arrays(nlp * 8.0, correct) == base
    assert auroc2_arrays(np.tanh(nlp), correct) == pytest.approx(base, abs=1e-12)


def test_auroc2_one_class_only():
    with pytest.raises(OneClassOnly):
        auroc2_arrays(np.array([-1.0, -2.0]), np.array([True, True]))


def test_nlp_gap_identical_distributions():
    nlp = np.array([-1.0, -2.0, -1.0, -2.0])
    assert nlp_gap_arrays(nlp, np.array([True, True, False, False])) == 0.0


def test_nlp_gap_hand_arithmetic():
    nlp = np.array([-0.5, -0.3, -0.6])
    assert nlp_gap_arrays(nlp, np.array([True, True, False])) == pytest.approx(0.2, abs=1e-12)


def test_nlp_gap_antisymmetric(rng):
    n = 50
    correct = rng.random(n) < 0.5
    nlp = rng.normal(size=n)
    assert nlp_gap_arrays(nlp, correct) == pytest.approx(-nlp_gap_arrays(nlp, ~correct),
                                                          abs=1e-12)


def test_nlp_gap_one_class_only():
    with pytest.raises(OneClassOnly):
        nlp_gap_arrays(np.array([-1.0, -2.0]), np.array([False, False]))


def test_accuracy_all_correct():
    assert accuracy_arrays(np.array([True, True])) == 1.0


def test_accuracy_seven_of_ten():
    assert accuracy_arrays(np.array([True] * 7 + [False] * 3)) == 0.7


def test_accuracy_empty():
    with pytest.raises(EmptySet):
        accuracy_arrays(np.array([], dtype=bool))


def test_spearman_monotone_identity(rng):
    x = rng.normal(size=12)
    assert spearman_rho(x, x) == pytest.approx(1.0, abs=1e-12)
    assert spearman_rho(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)


def test_spearman_antitone():
    x = [3.0, 1.0, 2.0, 5.0]
    assert spearman_rho(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_rank_profile_example():
    # rank pairs (1,2), (2,3), (3,4), (4,1): sum d^2 = 12, so
    # rho = 1 - 6 * 12 / (4 * 15) = -0.2 by the closed form
    assert spearman_rho([1, 2, 3, 4], [2, 3, 4, 1]) == pytest.approx(-0.2, abs=1e-12)


def test_spearman_average_ranks_for_ties():
    # against scipy's reference implementation
    from scipy.stats import spearmanr
    x = [1.0, 1.0, 2.0, 3.0]
    y = [2.0, 1.0, 1.0, 3.0]
    assert spearman_rho(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ZeroVariance):
        spearman_rho([1, 1, 1], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        spearman_rho([1.0], [2.0])
