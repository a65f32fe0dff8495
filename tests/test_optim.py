import numpy as np
import pytest

from clusterembed.errors import InvalidInputError
from clusterembed.mlp import MlpParams, init_params
from clusterembed.optim import RmsState, gamma_at, rmsprop_step


def scalar_params(value=0.0):
    return MlpParams(layers=[(np.array([[value]]), np.zeros(1))])


def test_rmsprop_frozen_scalar_step():
    params = scalar_params(0.0)
    state = RmsState.zeros_like(params)
    grads = [(np.array([[1.0]]), np.array([2.0]))]
    new_params, new_state = rmsprop_step(params, grads, state, lr=0.1, rho=0.9, eps=0.0)
    ms_w = (1.0 - 0.9) * 1.0**2
    ms_b = (1.0 - 0.9) * 2.0**2
    assert new_state.mean_square[0][0][0, 0] == ms_w
    assert new_state.mean_square[0][1][0] == ms_b
    assert new_params.layers[0][0][0, 0] == -0.1 * 1.0 / np.sqrt(ms_w)
    assert new_params.layers[0][1][0] == -0.1 * 2.0 / np.sqrt(ms_b)


def test_rmsprop_zero_gradient_decays_state_only():
    rng = np.random.default_rng(60)
    params = init_params([2, 3], False, rng)
    state = RmsState(mean_square=[(np.full((3, 2), 4.0), np.full(3, 9.0))])
    zero = [(np.zeros((3, 2)), np.zeros(3))]
    new_params, new_state = rmsprop_step(params, zero, state, lr=0.5, rho=0.9, eps=1e-8)
    for (w0, b0), (w1, b1) in zip(params.layers, new_params.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)
    assert np.allclose(new_state.mean_square[0][0], 3.6, atol=1e-12)
    assert np.allclose(new_state.mean_square[0][1], 8.1, atol=1e-12)


def test_rmsprop_repeated_gradient_update_approaches_lr():
    # with a constant gradient, ms converges to g^2 so |step| tends to lr
    params = scalar_params(0.0)
    state = RmsState.zeros_like(params)
    grads = [(np.array([[2.0]]), np.zeros(1))]
    for _ in range(400):
        params, state = rmsprop_step(params, grads, state, lr=0.01, rho=0.9, eps=1e-12)
    before = params.layers[0][0][0, 0]
    params, state = rmsprop_step(params, grads, state, lr=0.01, rho=0.9, eps=1e-12)
    step = abs(params.layers[0][0][0, 0] - before)
    assert step == pytest.approx(0.01, rel=1e-6)


def test_rmsprop_shape_mismatch():
    params = scalar_params()
    state = RmsState.zeros_like(params)
    with pytest.raises(InvalidInputError):
        rmsprop_step(params, [(np.zeros((2, 2)), np.zeros(1))], state, 0.1)
    with pytest.raises(InvalidInputError):
        rmsprop_step(params, [], state, 0.1)


def test_gamma_schedule_staircase():
    assert gamma_at(0, 2.0, 0.94, 10) == 2.0
    assert gamma_at(9, 2.0, 0.94, 10) == 2.0
    assert gamma_at(10, 2.0, 0.94, 10) == pytest.approx(2.0 * 0.94, abs=0)
    assert gamma_at(30, 2.0, 0.94, 10) == pytest.approx(2.0 * 0.94**3, abs=0)


def test_gamma_schedule_nonincreasing():
    values = [gamma_at(t, 1.0, 0.94, 7) for t in range(100)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_gamma_validation():
    with pytest.raises(InvalidInputError):
        gamma_at(-1, 1.0, 0.94, 10)
    with pytest.raises(InvalidInputError):
        gamma_at(0, 1.0, 0.94, 0)
