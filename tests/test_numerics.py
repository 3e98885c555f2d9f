import math

import numpy as np
import pytest

from sapgnn.numerics import (ADAM_EPS, AdamState, adam_step, dropout_mask, finite_diff_grad,
                             first_max, glorot_init, make_rng, relu, relu_grad, softmax_rows)


def test_make_rng_deterministic_per_stream():
    a = make_rng(42, 3).random(5)
    b = make_rng(42, 3).random(5)
    c = make_rng(42, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_glorot_deterministic_and_bounded():
    w1 = glorot_init(make_rng(1, 0), 4, 4)
    w2 = glorot_init(make_rng(1, 0), 4, 4)
    assert np.array_equal(w1, w2)
    bound = math.sqrt(6.0 / 8.0)
    assert np.all(np.abs(w1) < bound)
    assert np.all(np.abs(w1) < 1.0607)  # looser published bound


def test_glorot_mean_near_zero():
    rng = make_rng(5, 0)
    draws = glorot_init(rng, 100, 100)
    assert abs(draws.mean()) < 0.02


def test_glorot_rejects_zero_dimension():
    with pytest.raises(ValueError):
        glorot_init(make_rng(0, 0), 0, 3)


def test_adam_zero_gradient_is_noop():
    params = np.array([[1.0, -2.0], [0.5, 3.0]])
    state = AdamState.for_param(params.shape, lr=0.01)
    new, state2 = adam_step(state, params, np.zeros_like(params))
    assert np.array_equal(new, params)
    assert state2.step == 1


def test_adam_single_step_matches_closed_form():
    params = np.zeros(3)
    g = np.array([0.3, -1.7, 4.0])
    state = AdamState.for_param(params.shape, lr=0.01)
    new, _ = adam_step(state, params, g)
    # after one bias-corrected step: delta = -lr * g / (|g| + eps)
    expected = -0.01 * g / (np.abs(g) + ADAM_EPS)
    assert np.allclose(new, expected, rtol=0, atol=1e-12)
    assert np.allclose(new, -0.01 * np.sign(g), rtol=1e-6)


def test_adam_bit_deterministic():
    params = make_rng(2, 0).normal(size=(3, 3))
    grads = make_rng(3, 0).normal(size=(3, 3))
    s1 = AdamState.for_param(params.shape)
    s2 = AdamState.for_param(params.shape)
    a, _ = adam_step(s1, params, grads)
    b, _ = adam_step(s2, params, grads)
    assert np.array_equal(a, b)


def test_adam_rejects_bad_gradients():
    params = np.zeros(2)
    state = AdamState.for_param(params.shape)
    with pytest.raises(ValueError):
        adam_step(state, params, np.zeros(3))
    with pytest.raises(ValueError):
        adam_step(state, params, np.array([1.0, np.nan]))


def test_finite_diff_quadratic_exact():
    grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-6)
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_diff_constant_is_zero():
    grad = finite_diff_grad(lambda x: 4.2, np.array([1.0, -2.0, 0.0]))
    assert np.array_equal(grad, np.zeros(3))


def test_relu_grad_binary_with_zero_tie():
    x = np.array([-1.0, 0.0, 1e-300, 2.0])
    g = relu_grad(x)
    assert set(np.unique(g)) <= {0.0, 1.0}
    assert g[1] == 0.0  # tie at 0 maps to 0
    assert np.array_equal(g, np.array([0.0, 0.0, 1.0, 1.0]))
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 1e-300, 2.0]))


def test_softmax_rows_stable_and_normalized():
    logits = np.array([[1000.0, 1000.0], [-1000.0, 0.0]])
    p = softmax_rows(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p[0], [0.5, 0.5])


def test_dropout_mask_rate_zero_all_ones():
    mask = dropout_mask(make_rng(1, 0), 0.0, (3, 4))
    assert np.array_equal(mask, np.ones((3, 4)))


def test_dropout_mask_reproducible_and_scaled():
    m1 = dropout_mask(make_rng(9, 1), 0.5, (50, 50))
    m2 = dropout_mask(make_rng(9, 1), 0.5, (50, 50))
    assert np.array_equal(m1, m2)
    assert set(np.unique(m1)) <= {0.0, 2.0}
    with pytest.raises(ValueError):
        dropout_mask(make_rng(0, 0), 1.0, (2,))


def test_first_max_keeps_the_first_of_tied_candidates():
    candidates = [np.array([[1.0, 0.0]]), np.array([[1.0, -0.0]]), np.array([[2.0, 0.0]])]
    best, pos = first_max(candidates, 3)
    assert pos.dtype == np.uint8 and pos.tolist() == [[2, 0]]
    assert best.tolist() == [[2.0, 0.0]]
    assert candidates[0].tolist() == [[1.0, 0.0]]     # candidate 0 is not written


def test_first_max_later_candidates_cover_a_prefix():
    best, pos = first_max([np.array([1.0, 5.0, 2.0]), np.array([3.0, 4.0]),
                           np.array([4.0])], 3)
    assert best.tolist() == [4.0, 5.0, 2.0]
    assert pos.tolist() == [2, 0, 0]


def test_first_max_positions_widen_past_256_candidates():
    best, pos = first_max((np.array([float(j)]) for j in range(300)), 300)
    assert pos.dtype == np.uint16 and pos.tolist() == [299]
    assert first_max([np.zeros(1)] * 256, 256)[1].dtype == np.uint8


def test_first_max_refuses_nan():
    with pytest.raises(ValueError, match="NaN"):
        first_max([np.array([1.0, 2.0]), np.array([np.nan, 0.0])], 2)
    with pytest.raises(ValueError, match="NaN"):
        first_max([np.array([np.nan]), np.array([3.0])], 2)
    with pytest.raises(ValueError, match="at least one"):
        first_max([], 0)
