"""Filter core: transition/noise builders, weighted predict, Joseph update."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import reference_predict, reference_update, validate_estimate

from dynatrack import filtering as flt
from dynatrack.errors import (ConfigurationError, ContractViolationError,
                              NumericalError)


def test_transition_block_order3_first_row():
    F = flt.transition_block(3, 1.0)
    npt.assert_allclose(F[0], [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=0, atol=1e-15)


def test_transition_block_order1():
    F = flt.transition_block(1, 1.0)
    npt.assert_array_equal(F, [[1.0, 1.0], [0.0, 1.0]])


def test_transition_block_upper_triangular():
    F = flt.transition_block(3, 0.1)
    npt.assert_array_equal(np.tril(F, -1), np.zeros((4, 4)))
    npt.assert_array_equal(np.diag(F), np.ones(4))


def test_transition_rejects_bad_order():
    with pytest.raises(ConfigurationError):
        flt.transition_block(4, 0.1)
    with pytest.raises(ConfigurationError):
        flt.build_transition(0, 0.1)


def test_build_transition_block_diagonal():
    F = flt.build_transition(3, 0.1)
    assert F.shape == (8, 8)
    npt.assert_array_equal(F[:4, 4:], np.zeros((4, 4)))
    npt.assert_array_equal(F[4:, :4], np.zeros((4, 4)))
    npt.assert_array_equal(F[:4, :4], F[4:, 4:])


def test_process_noise_cv_closed_form():
    # order 1: continuous white-noise acceleration has the classic form
    dt, q = 0.1, 2.0
    Q = flt.process_noise_block(1, dt, q)
    expect = q * np.array([[dt ** 3 / 3.0, dt ** 2 / 2.0],
                           [dt ** 2 / 2.0, dt]])
    npt.assert_allclose(Q, expect, rtol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_process_noise_symmetric_psd(order):
    Q = flt.process_noise_block(order, 0.1, 1.0)
    npt.assert_allclose(Q, Q.T, rtol=0, atol=0)
    assert np.linalg.eigvalsh(Q).min() >= -1e-15


def test_build_noise_shapes():
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    assert noise.Q.shape == (8, 8)
    npt.assert_allclose(noise.R, 0.09 * np.eye(2), rtol=1e-15)


def test_measurement_matrix_selects_positions():
    H = flt.measurement_matrix(3)
    state = np.arange(8.0)
    npt.assert_array_equal(H @ state, [0.0, 4.0])
    assert flt.position_indices(3) == (0, 4)
    assert flt.position_indices(1) == (0, 2)


def test_initial_estimate_variances():
    est = flt.initial_estimate(np.array([2.0, -3.0]), 3, 0.3)
    npt.assert_array_equal(est.mean, [2.0, 0, 0, 0, -3.0, 0, 0, 0])
    expect = 0.09 * np.array([10.0, 100.0, 1000.0, 10000.0] * 2)
    npt.assert_allclose(np.diag(est.cov), expect, rtol=1e-15)
    npt.assert_array_equal(est.cov - np.diag(np.diag(est.cov)), np.zeros((8, 8)))


def _eight_state(px=0.0, vx=2.0, ax=1.0, jx=0.6):
    mean = np.array([px, vx, ax, jx, 0.0, 0.0, 0.0, 0.0])
    return flt.StateEstimate(mean=mean, cov=np.eye(8))


def test_predict_weighted_hand_value():
    # one axis active: weights [1, 1, .5, .5], dt=1 -> 0 + 2 + .25 + .05
    F = flt.build_transition(3, 1.0)
    noise = flt.build_noise(3, 1.0, 1.0, 0.3)
    w = np.array([1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0])
    pred = flt.predict(_eight_state(), F, w, noise)
    assert pred.mean[0] == pytest.approx(2.30, abs=1e-12)


def test_predict_zero_weights_freeze_position():
    F = flt.build_transition(3, 1.0)
    noise = flt.build_noise(3, 1.0, 1.0, 0.3)
    w = np.array([1.0, 0.0, 0.0, 0.0] * 2)
    est = _eight_state(px=7.25)
    pred = flt.predict(est, F, w, noise)
    assert pred.mean[0] == 7.25
    assert pred.mean[1] == 0.0  # frozen derivatives are zeroed, not kept


def test_predict_identity_weights_bitwise_equal_unweighted():
    rng = np.random.default_rng(11)
    F = flt.build_transition(3, 0.1)
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        est = flt.StateEstimate(mean=rng.normal(size=8), cov=A @ A.T)
        plain = reference_predict(est, F, None, noise)
        ones = flt.predict(est, F, np.ones(8), noise)
        npt.assert_array_equal(plain.mean, ones.mean)
        npt.assert_array_equal(plain.cov, ones.cov)


def test_predict_dimension_mismatch():
    F = flt.build_transition(3, 0.1)
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    bad = flt.StateEstimate(mean=np.zeros(4), cov=np.eye(4))
    with pytest.raises(ContractViolationError):
        flt.predict(bad, F, np.ones(4), noise)
    est = _eight_state()
    with pytest.raises(ContractViolationError):
        flt.predict(est, F, np.ones(5), noise)
    with pytest.raises(ContractViolationError):
        flt.predict(est, F, np.eye(8), noise)  # weights are a diagonal


def _scalar(mean, var):
    return flt.StateEstimate(mean=np.array([mean]), cov=np.array([[var]]))


_SCALAR_H = np.array([[1.0]])


def _scalar_noise(r):
    return flt.NoiseModel(Q=np.array([[0.0]]), R=np.array([[r]]))


def test_update_scalar_hand_values():
    # P=1, H=1, R=1, mean=0, z=2  =>  K=0.5, mean=1, var=0.5
    post, K, residual = flt.update(_scalar(0.0, 1.0), np.array([2.0]),
                                   _scalar_noise(1.0), _SCALAR_H)
    assert K[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert residual[0] == 2.0
    assert post.mean[0] == pytest.approx(1.0, abs=1e-15)
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_update_gain_monotone_in_measurement_noise():
    gains = []
    for r in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        _, K, _ = flt.update(_scalar(0.0, 1.0), np.array([1.0]),
                             _scalar_noise(r), _SCALAR_H)
        gains.append(K[0, 0])
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_update_huge_noise_keeps_prior():
    prior = _scalar(3.0, 2.0)
    post, _, _ = flt.update(prior, np.array([100.0]), _scalar_noise(1e12),
                            _SCALAR_H)
    assert abs(post.mean[0] - 3.0) < 1e-6
    assert abs(post.cov[0, 0] - 2.0) < 1e-6


def test_update_random_walk_stays_psd():
    rng = np.random.default_rng(3)
    F = flt.build_transition(3, 0.1)
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    H = flt.measurement_matrix(3)
    est = flt.initial_estimate(np.zeros(2), 3, 0.3)
    for step in range(1000):
        w = rng.uniform(0.0, 1.0, size=8)
        w[0] = w[4] = 1.0
        est = flt.predict(est, F, w, noise)
        est, _, _ = flt.update(est, rng.normal(scale=3.0, size=2), noise, H)
        if step % 97 == 0:
            assert validate_estimate(est)
    assert validate_estimate(est)


def test_update_shrinks_measured_subspace():
    rng = np.random.default_rng(5)
    F = flt.build_transition(3, 0.1)
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    H = flt.measurement_matrix(3)
    est = flt.initial_estimate(np.zeros(2), 3, 0.3)
    for _ in range(50):
        est = flt.predict(est, F, np.ones(8), noise)
        before = np.trace(H @ est.cov @ H.T)
        est, _, _ = flt.update(est, rng.normal(scale=0.3, size=2), noise, H)
        after = np.trace(H @ est.cov @ H.T)
        assert after <= before + 1e-12


def test_update_singular_innovation_raises():
    pred = flt.StateEstimate(mean=np.zeros(1), cov=np.array([[0.0]]))
    with pytest.raises(NumericalError, match="cond"):
        flt.update(pred, np.array([1.0]), _scalar_noise(0.0), _SCALAR_H)


def test_update_dimension_checks():
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    H = flt.measurement_matrix(3)
    est = flt.initial_estimate(np.zeros(2), 3, 0.3)
    with pytest.raises(ContractViolationError):
        flt.update(est, np.zeros(3), noise, H)
    with pytest.raises(ContractViolationError):
        flt.update(flt.StateEstimate(np.zeros(4), np.eye(4)), np.zeros(2),
                   noise, H)


def test_post_measurement_scalar_hand_value():
    # z=2, K=0.5, residual=2 -> cleaned = 2 - 0.5*2 = 1
    z = np.array([2.0])
    K = np.array([[0.5]])
    cleaned = flt.post_measurement(z, K, np.array([2.0]), _SCALAR_H)
    assert cleaned[0] == pytest.approx(1.0, abs=1e-15)


def test_post_measurement_zero_residual_returns_z():
    z = np.array([1.25, -4.5])
    K = np.ones((8, 2))
    H = flt.measurement_matrix(3)
    cleaned = flt.post_measurement(z, K, np.zeros(2), H)
    npt.assert_array_equal(cleaned, z)


def test_post_measurement_between_measurement_and_prediction():
    # scalar: cleaned stays inside [prediction, measurement] for gain in [0, 1]
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.normal(scale=5.0)
        pred = rng.normal(scale=5.0)
        k = rng.uniform(0.0, 1.0)
        cleaned = flt.post_measurement(np.array([z]), np.array([[k]]),
                                       np.array([z - pred]), _SCALAR_H)[0]
        low, high = min(z, pred), max(z, pred)
        assert low - 1e-12 <= cleaned <= high + 1e-12


# -- stacked states against the one-state reference --------------------------

def _close(actual, expected, rel=1e-12):
    """|actual - expected| <= rel * max(1, |expected|), entry by entry."""
    return bool(np.all(np.abs(actual - expected)
                       <= rel * np.maximum(1.0, np.abs(expected))))


@st.composite
def _stacks(draw):
    """Inputs for one batched call.

    Covariances are A A^T + 0.1 I; each row's weights are exact ones or drawn
    from [0, 1]. With `ridge`, R's y entry is zero and one extra row has a
    zero y-position variance, so its innovation covariance is singular and
    its gain takes the ridge retry.
    """
    n = draw(st.integers(0, 6))
    ridge = draw(st.booleans())
    rows = n + ridge
    unit = st.floats(-1.0, 1.0)
    A = draw(hnp.arrays(float, (rows, 8, 8), elements=unit))
    cov = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(8)
    if ridge:
        cov[-1, 4, :] = cov[-1, :, 4] = 0.0
    mean = draw(hnp.arrays(float, (rows, 8), elements=st.floats(-50.0, 50.0)))
    weights = draw(hnp.arrays(float, (rows, 8), elements=st.floats(0.0, 1.0)))
    ones = draw(hnp.arrays(bool, rows))
    weights[ones] = 1.0
    z = draw(hnp.arrays(float, (rows, 2), elements=st.floats(-50.0, 50.0)))
    dt = draw(st.sampled_from([0.05, 0.1, 1.0]))
    r = draw(st.floats(0.01, 1.0))
    noise = flt.build_noise(3, dt, draw(st.floats(0.1, 10.0)), 1.0)
    noise = flt.NoiseModel(Q=noise.Q, R=np.diag([r, 0.0 if ridge else r]))
    return (flt.StateEstimate(mean=mean, cov=cov), weights, ones, z,
            flt.build_transition(3, dt), noise, ridge)


def _stacked(results, shape):
    return np.array(results, dtype=float).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(_stacks())
def test_batched_filter_matches_per_state_reference(inputs):
    est, weights, ones, z, F, noise, ridge = inputs
    H = flt.measurement_matrix(3)
    rows = list(zip(est.mean, est.cov))
    if ridge:
        S = H @ est.cov[-1] @ H.T + noise.R
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)

    pred = flt.predict(est, F, weights, noise)
    ref = [reference_predict(flt.StateEstimate(m, P), F, w, noise)
           for (m, P), w in zip(rows, weights)]
    assert _close(pred.mean, _stacked([r.mean for r in ref], pred.mean.shape))
    assert _close(pred.cov, _stacked([r.cov for r in ref], pred.cov.shape))
    for i in np.flatnonzero(ones):
        plain = reference_predict(flt.StateEstimate(*rows[i]), F, None, noise)
        npt.assert_array_equal(pred.mean[i], plain.mean)
        npt.assert_array_equal(pred.cov[i], plain.cov)

    post, K, residual = flt.update(est, z, noise, H)
    ref = [reference_update(flt.StateEstimate(m, P), zi, noise, H)
           for (m, P), zi in zip(rows, z)]
    assert _close(post.mean, _stacked([r[0].mean for r in ref], post.mean.shape))
    assert _close(post.cov, _stacked([r[0].cov for r in ref], post.cov.shape))
    assert _close(K, _stacked([r[1] for r in ref], K.shape))
    npt.assert_array_equal(residual, _stacked([r[2] for r in ref], residual.shape))
    cleaned = flt.post_measurement(z, K, residual, H)
    for i in range(len(rows)):
        npt.assert_array_equal(cleaned[i],
                               flt.post_measurement(z[i], K[i], residual[i], H))


def test_update_ridge_retry_only_for_failing_state():
    # the second state's y position is exactly known and R has no y noise,
    # so its S is singular; the first state's gain must not see the ridge
    H = flt.measurement_matrix(3)
    noise = flt.NoiseModel(Q=np.zeros((8, 8)), R=np.diag([0.09, 0.0]))
    cov = np.stack([np.eye(8), np.eye(8)])
    cov[1, 4, 4] = 0.0
    est = flt.StateEstimate(mean=np.zeros((2, 8)), cov=cov)
    post, K, _ = flt.update(est, np.ones((2, 2)), noise, H)
    alone, K0, _ = flt.update(flt.StateEstimate(np.zeros(8), np.eye(8)),
                              np.ones(2), noise, H)
    npt.assert_array_equal(K[0], K0)
    npt.assert_array_equal(post.cov[0], alone.cov)
    assert K[1, 4, 1] == 0.0 and np.all(np.isfinite(post.cov[1]))


def test_update_stack_names_condition_of_unfactorizable_state():
    H = flt.measurement_matrix(3)
    cov = np.stack([np.eye(8), np.full((8, 8), np.nan)])
    est = flt.StateEstimate(mean=np.zeros((2, 8)), cov=cov)
    with pytest.raises(NumericalError, match="cond=nan"):
        flt.update(est, np.zeros((2, 2)), flt.build_noise(3, 0.1, 1.0, 0.3), H)
