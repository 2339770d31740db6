"""Property checks of the Newton fitter's step, sdt._descent_step.

Each drawn row is a symmetric matrix Q diag(lam) Q^T with a drawn
spectrum and a random orthogonal Q: positive definite with a condition
number of at most 1e6, or with at least one eigenvalue at or below -1e-3
(others may be 0), so rounding never moves a row across the line between
the two kinds. Sizes are 2 * n_ratings - 1 for 2 to 4 ratings, and every
batch holds rows of both kinds.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from metadkit.sdt import _EIG_FLOOR, _descent_step

MAGNITUDE = st.floats(1e-3, 1e3)
SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def rows(draw, size: int, definite: bool):
    """(hessian, gradient) of one row."""
    if definite:
        lam = draw(st.lists(MAGNITUDE, min_size=size, max_size=size))
    else:
        lam = [-draw(MAGNITUDE)] + draw(st.lists(st.one_of(st.just(0.0), MAGNITUDE),
                                                 min_size=size - 1, max_size=size - 1))
        lam = [x * draw(SIGN) for x in lam[1:]] + lam[:1]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.linalg.qr(rng.standard_normal((size, size)))[0]
    hess = (q * np.array(lam)) @ q.T
    grad = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    grad[draw(st.integers(0, size - 1))] = draw(SIGN) * draw(st.floats(1e-3, 1.0))
    return 0.5 * (hess + hess.T), grad


@st.composite
def batches(draw):
    """(hessians, gradients, positive definite) of 2 to 7 rows."""
    size = draw(st.sampled_from([3, 5, 7]))
    definite = np.array(draw(st.lists(st.booleans(), max_size=5)) + [True, False])
    hess, grad = (np.array(part) for part in zip(*(draw(rows(size, bool(d)))
                                                     for d in definite)))
    return hess, grad, definite


def floored_eigh_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The Newton step on one matrix with its eigenvalues made positive,
    each at least _EIG_FLOOR of the largest."""
    lam, vec = np.linalg.eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIG_FLOOR * lam.max())
    return -vec @ ((vec.T @ grad) / lam)


@given(batches())
def test_positive_definite_rows_take_the_newton_step(batch):
    hess, grad, definite = batch
    step = _descent_step(grad, hess)
    for h, g, s in zip(hess[definite], grad[definite], step[definite]):
        want = np.linalg.solve(h, -g)
        tol = 100 * len(g) * np.finfo(float).eps * np.linalg.cond(h)
        assert np.linalg.norm(s - want) <= tol * np.linalg.norm(want)


@given(batches())
def test_indefinite_rows_take_the_floored_eigh_step(batch):
    hess, grad, definite = batch
    step = _descent_step(grad, hess)
    for h, g, s in zip(hess[~definite], grad[~definite], step[~definite]):
        want = floored_eigh_step(g, h)
        assert np.linalg.norm(s - want) <= 1e-9 * np.linalg.norm(want)


@given(batches())
def test_every_step_points_downhill(batch):
    hess, grad, _ = batch
    step = _descent_step(grad, hess)
    assert np.all((grad * step).sum(axis=1) < 0.0)


@given(batches(), st.integers(0, 2 ** 32 - 1))
def test_step_is_bit_identical_alone_and_in_a_shuffled_mixed_batch(batch, seed):
    hess, grad, _ = batch
    order = np.random.default_rng(seed).permutation(len(grad))
    shuffled = _descent_step(grad[order], hess[order])
    for j, i in enumerate(order):
        assert np.array_equal(_descent_step(grad[i:i + 1], hess[i:i + 1])[0], shuffled[j])
