"""Filter core: transition/noise builders, weighted predict, Joseph update."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (dense_model, dense_state, pack, reference_predict,
                     reference_update, unpack, validate_estimate)

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
        flt.process_noise_block(0, 0.1, 1.0)


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
    npt.assert_array_equal(unpack(noise.Q), flt.process_noise_block(3, 0.1, 1.0))
    assert noise.R == pytest.approx(0.09, rel=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_packed_transition_propagates_packed_covariances(order):
    # packed(F P F^T) = packed(P) @ M for symmetric P, entry for entry
    rng = np.random.default_rng(order)
    transition = flt.packed_transition(flt.transition_block(order, 0.3))
    F, M = transition.F, transition.M
    n = order + 1
    assert M.shape == (n * (n + 1) // 2,) * 2
    for _ in range(20):
        A = rng.normal(size=(n, n))
        P = A + A.T
        npt.assert_allclose(pack(P) @ M, pack(F @ P @ F.T), rtol=0, atol=1e-14)


def test_initial_estimate_variances():
    est = flt.initial_estimate(np.array([2.0, -3.0]), 3, 0.3)
    npt.assert_array_equal(est.mean, [[2.0, 0, 0, 0], [-3.0, 0, 0, 0]])
    expect = 0.09 * np.array([10.0, 100.0, 1000.0, 10000.0])
    assert est.cov.shape == (2, 10)
    for cov in unpack(est.cov):
        npt.assert_allclose(np.diag(cov), expect, rtol=1e-15)
        npt.assert_array_equal(cov - np.diag(np.diag(cov)), np.zeros((4, 4)))
    stacked = flt.initial_estimate(np.array([[2.0, -3.0], [1.0, 0.5]]), 1, 0.3)
    assert stacked.mean.shape == (2, 2, 2) and stacked.cov.shape == (2, 2, 3)
    npt.assert_array_equal(stacked.mean[1, :, 0], [1.0, 0.5])


def _axis_state(px=0.0, vx=2.0, ax=1.0, jx=0.6):
    mean = np.array([[px, vx, ax, jx], [0.0, 0.0, 0.0, 0.0]])
    return flt.StateEstimate(mean=mean, cov=np.broadcast_to(pack(np.eye(4)), (2, 10)))


def test_predict_weighted_hand_value():
    # one axis active: weights [1, 1, .5, .5], dt=1 -> 0 + 2 + .25 + .05
    F = flt.packed_transition(flt.transition_block(3, 1.0))
    noise = flt.build_noise(3, 1.0, 1.0, 0.3)
    w = np.array([[1.0, 1.0, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0]])
    pred = flt.predict(_axis_state(), F, w, noise)
    assert pred.mean[0, 0] == pytest.approx(2.30, abs=1e-12)


def test_predict_zero_weights_freeze_position():
    F = flt.packed_transition(flt.transition_block(3, 1.0))
    noise = flt.build_noise(3, 1.0, 1.0, 0.3)
    w = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)
    est = _axis_state(px=7.25)
    pred = flt.predict(est, F, w, noise)
    assert pred.mean[0, 0] == 7.25
    assert pred.mean[0, 1] == 0.0  # frozen derivatives are zeroed, not kept


def _unweighted(est, transition, noise):
    """The packed predict's two products with no weights applied."""
    n, size = est.mean.shape[-1], est.cov.shape[-1]
    mean = est.mean.reshape(-1, n) @ transition.F.T
    cov = est.cov.reshape(-1, size) @ transition.M + noise.Q
    return mean.reshape(est.mean.shape), cov.reshape(est.cov.shape)


def test_predict_identity_weights_bitwise_equal_unweighted():
    rng = np.random.default_rng(11)
    F = flt.packed_transition(flt.transition_block(3, 0.1))
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    for _ in range(20):
        A = rng.normal(size=(2, 4, 4))
        est = flt.StateEstimate(mean=rng.normal(size=(2, 4)),
                                cov=pack(A @ np.swapaxes(A, -1, -2)))
        ones = flt.predict(est, F, np.ones((2, 4)), noise)
        mean, cov = _unweighted(est, F, noise)
        npt.assert_array_equal(ones.mean, mean)
        npt.assert_array_equal(ones.cov, cov)


def test_predict_dimension_mismatch():
    F = flt.packed_transition(flt.transition_block(3, 0.1))
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    bad = flt.StateEstimate(mean=np.zeros((2, 2)), cov=np.zeros((2, 3)))
    with pytest.raises(ContractViolationError):
        flt.predict(bad, F, np.ones((2, 2)), noise)
    with pytest.raises(ContractViolationError):
        flt.predict(flt.StateEstimate(np.zeros((2, 4)), np.zeros((2, 4, 4))),
                    F, np.ones((2, 4)), noise)
    est = _axis_state()
    with pytest.raises(ContractViolationError):
        flt.predict(est, F, np.ones((2, 5)), noise)
    with pytest.raises(ContractViolationError):
        flt.predict(est, F, np.ones(8), noise)  # weights are per axis
    with pytest.raises(ContractViolationError):
        flt.predict(est, F, np.ones((2, 4)), flt.build_noise(2, 0.1, 1.0, 0.3))


def _scalar(mean, var):
    """One axis holding one state entry, its position."""
    return flt.StateEstimate(mean=np.array([[mean]]), cov=np.array([[var]]))


def _scalar_noise(r):
    return flt.NoiseModel(Q=np.array([0.0]), R=r)


def test_update_scalar_hand_values():
    # P=1, R=1, mean=0, z=2  =>  K=0.5, mean=1, var=0.5
    post, K, residual = flt.update(_scalar(0.0, 1.0), np.array([2.0]),
                                   _scalar_noise(1.0))
    assert K[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert residual[0] == 2.0
    assert post.mean[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_update_gain_monotone_in_measurement_noise():
    gains = []
    for r in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        _, K, _ = flt.update(_scalar(0.0, 1.0), np.array([1.0]), _scalar_noise(r))
        gains.append(K[0, 0])
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_update_huge_noise_keeps_prior():
    prior = _scalar(3.0, 2.0)
    post, _, _ = flt.update(prior, np.array([100.0]), _scalar_noise(1e12))
    assert abs(post.mean[0, 0] - 3.0) < 1e-6
    assert abs(post.cov[0, 0] - 2.0) < 1e-6


def test_update_random_walk_stays_psd():
    rng = np.random.default_rng(3)
    F = flt.packed_transition(flt.transition_block(3, 0.1))
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    est = flt.initial_estimate(np.zeros(2), 3, 0.3)
    for step in range(1000):
        w = rng.uniform(0.0, 1.0, size=(2, 4))
        w[:, 0] = 1.0
        est = flt.predict(est, F, w, noise)
        est, _, _ = flt.update(est, rng.normal(scale=3.0, size=2), noise)
        if step % 97 == 0:
            assert validate_estimate(flt.StateEstimate(est.mean, unpack(est.cov)))
    assert validate_estimate(flt.StateEstimate(est.mean, unpack(est.cov)))


def test_update_shrinks_measured_subspace():
    rng = np.random.default_rng(5)
    F = flt.packed_transition(flt.transition_block(3, 0.1))
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    est = flt.initial_estimate(np.zeros(2), 3, 0.3)
    for _ in range(50):
        est = flt.predict(est, F, np.ones((2, 4)), noise)
        before = est.cov[:, 0].copy()
        est, _, _ = flt.update(est, rng.normal(scale=0.3, size=2), noise)
        assert np.all(est.cov[:, 0] <= before + 1e-12)


def test_update_singular_innovation_raises():
    pred = _scalar(0.0, 0.0)
    with pytest.raises(NumericalError, match="innovation variance"):
        flt.update(pred, np.array([1.0]), _scalar_noise(0.0))


def test_update_dimension_checks():
    noise = flt.build_noise(3, 0.1, 1.0, 0.3)
    est = flt.initial_estimate(np.zeros(2), 3, 0.3)
    with pytest.raises(ContractViolationError):
        flt.update(est, np.zeros(3), noise)
    with pytest.raises(ContractViolationError):
        flt.update(flt.StateEstimate(np.zeros((2, 4)), np.zeros((2, 4, 4))),
                   np.zeros(2), noise)
    with pytest.raises(ContractViolationError):
        flt.update(flt.StateEstimate(np.zeros((2, 5)), np.zeros((2, 15))),
                   np.zeros(2), noise)


def test_post_measurement_scalar_hand_value():
    # z=2, K=0.5, residual=2 -> cleaned = 2 - 0.5*2 = 1
    cleaned = flt.post_measurement(np.array([2.0]), np.array([[0.5]]),
                                   np.array([2.0]))
    assert cleaned[0] == pytest.approx(1.0, abs=1e-15)


def test_post_measurement_zero_residual_returns_z():
    z = np.array([1.25, -4.5])
    cleaned = flt.post_measurement(z, np.ones((2, 4)), np.zeros(2))
    npt.assert_array_equal(cleaned, z)


def test_post_measurement_between_measurement_and_prediction():
    # scalar: cleaned stays inside [prediction, measurement] for gain in [0, 1]
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.normal(scale=5.0)
        pred = rng.normal(scale=5.0)
        k = rng.uniform(0.0, 1.0)
        cleaned = flt.post_measurement(np.array([z]), np.array([[k]]),
                                       np.array([z - pred]))[0]
        low, high = min(z, pred), max(z, pred)
        assert low - 1e-12 <= cleaned <= high + 1e-12


# -- the per-axis bank against the dense reference ----------------------------

def _close(actual, expected, rel=1e-12):
    """|actual - expected| <= rel * max(1, |expected|), entry by entry."""
    return bool(np.all(np.abs(actual - expected)
                       <= rel * np.maximum(1.0, np.abs(expected))))


def _psd(draw, shape, n):
    """Random symmetric PSD blocks A A^T + 0.1 I of the given leading shape."""
    A = draw(hnp.arrays(float, shape + (n, n), elements=st.floats(-1.0, 1.0)))
    return A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(n)


def _model(draw, order):
    """A packed transition and packed noise at a drawn dt, q and sigma."""
    dt = draw(st.sampled_from([0.05, 0.1, 1.0]))
    noise = flt.build_noise(order, dt, draw(st.floats(0.1, 10.0)),
                            draw(st.floats(0.1, 1.0)))
    return flt.packed_transition(flt.transition_block(order, dt)), noise


@st.composite
def _steps(draw):
    """One predict and update of a few rows at order 1-3: PSD covariances,
    weights in (0, 1] with some rows exact ones, and measurements."""
    order = draw(st.integers(1, 3))
    n = order + 1
    rows = draw(st.integers(1, 4))
    P = _psd(draw, (rows, 2), n)
    mean = draw(hnp.arrays(float, (rows, 2, n), elements=st.floats(-50.0, 50.0)))
    weights = draw(hnp.arrays(float, (rows, 2, n), elements=st.floats(
        0.0, 1.0, exclude_min=True)))
    weights[draw(hnp.arrays(bool, rows))] = 1.0
    z = draw(hnp.arrays(float, (rows, 2), elements=st.floats(-50.0, 50.0)))
    return (mean, P, weights, z) + _model(draw, order)


@settings(max_examples=200, deadline=None)
@given(_steps())
def test_packed_filter_matches_dense_reference_per_axis(step):
    mean, P, weights, z, transition, noise = step
    dense_F, axis_noise, H = dense_model(transition.F, noise, axes=1)
    pred = flt.predict(flt.StateEstimate(mean, pack(P)), transition, weights, noise)
    post, _, _ = flt.update(pred, z, noise)
    predicted, updated = unpack(pred.cov), unpack(post.cov)
    for i, axis in np.ndindex(z.shape):
        ref = reference_predict(flt.StateEstimate(mean[i, axis], P[i, axis]),
                                dense_F, weights[i, axis], axis_noise)
        assert _close(pred.mean[i, axis], ref.mean, rel=1e-13)
        assert _close(predicted[i, axis], ref.cov, rel=1e-13)
        ref, _, _ = reference_update(
            flt.StateEstimate(pred.mean[i, axis], predicted[i, axis]),
            z[i, axis:axis + 1], axis_noise, H)
        assert _close(post.mean[i, axis], ref.mean, rel=1e-13)
        assert _close(updated[i, axis], ref.cov, rel=1e-13)
    # rows of exact-one weights predict bitwise like the unweighted products
    plain = _unweighted(flt.StateEstimate(mean, pack(P)), transition, noise)
    ones = (weights == 1.0).all(axis=(1, 2))
    npt.assert_array_equal(pred.mean[ones], plain[0][ones])
    npt.assert_array_equal(pred.cov[ones], plain[1][ones])


@settings(max_examples=100, deadline=None)
@given(_steps())
def test_predict_without_weights_equals_exact_ones_bitwise(step):
    mean, P, _, _, transition, noise = step
    est = flt.StateEstimate(mean, pack(P))
    plain = flt.predict(est, transition, None, noise)
    ones = flt.predict(est, transition, np.ones_like(mean), noise)
    assert plain.mean.tobytes() == ones.mean.tobytes()
    assert plain.cov.tobytes() == ones.cov.tobytes()


@st.composite
def _shared_states(draw):
    """Stacks of 1, 2, 3 or 50 states at order 1-3, each with one packed
    covariance, drawn from a seeded generator so that every entry rounds."""
    order = draw(st.integers(1, 3))
    n = order + 1
    rows = draw(st.sampled_from([1, 2, 3, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(rows, 1, n, n)) * draw(st.sampled_from([1e-2, 1.0, 30.0]))
    cov = pack(A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(n))
    mean = rng.normal(scale=50.0, size=(rows, 2, n))
    z = rng.normal(scale=50.0, size=(rows, 2))
    return (mean, cov, z) + _model(draw, order)


@settings(max_examples=150, deadline=None)
@given(_shared_states())
def test_shared_covariance_filters_bitwise_like_one_per_axis(state):
    # A `(rows, 1, U)` covariance is the covariance of both axes: predict,
    # update and post_measurement give the bits of the same call on it
    # repeated over the axes, including for a lone state, whose one-row
    # product numpy would otherwise round differently.
    mean, shared, z, transition, noise = state
    per_axis = shared.repeat(2, axis=1)

    def same(one, both):
        return np.broadcast_to(one, both.shape).tobytes() == both.tobytes()

    a = flt.predict(flt.StateEstimate(mean, shared), transition, None, noise)
    b = flt.predict(flt.StateEstimate(mean, per_axis), transition, None, noise)
    assert a.cov.shape == shared.shape
    assert same(a.mean, b.mean) and same(a.cov, b.cov)
    a, gain_a, residual_a = flt.update(flt.StateEstimate(mean, shared), z, noise)
    b, gain_b, residual_b = flt.update(flt.StateEstimate(mean, per_axis), z, noise)
    assert a.cov.shape == shared.shape
    assert gain_a.shape == shared.shape[:-1] + mean.shape[-1:]
    assert same(a.mean, b.mean) and same(a.cov, b.cov)
    assert same(gain_a, gain_b) and same(residual_a, residual_b)
    assert same(flt.post_measurement(z, gain_a, residual_a),
                flt.post_measurement(z, gain_b, residual_b))


@st.composite
def _runs(draw):
    """A few bank rows through a few steps at order 1-3.

    Covariances start as A A^T + 0.1 I per axis. At each step each row's
    weights are exact ones or drawn from [0, 1], and each row is either
    measured (a hit) or not (a miss).
    """
    order = draw(st.integers(1, 3))
    n = order + 1
    rows = draw(st.integers(0, 5))
    steps = draw(st.integers(1, 6))
    cov = pack(_psd(draw, (rows, 2), n))
    mean = draw(hnp.arrays(float, (rows, 2, n), elements=st.floats(-50.0, 50.0)))
    weights = draw(hnp.arrays(float, (steps, rows, 2, n),
                              elements=st.floats(0.0, 1.0)))
    weights[draw(hnp.arrays(bool, (steps, rows)))] = 1.0
    hits = draw(hnp.arrays(bool, (steps, rows)))
    z = draw(hnp.arrays(float, (steps, rows, 2), elements=st.floats(-50.0, 50.0)))
    return (flt.StateEstimate(mean=mean, cov=cov), weights, hits, z) \
        + _model(draw, order)


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_batched_filter_matches_per_state_reference(run):
    est, weights, hits, z, transition, noise = run
    n = transition.F.shape[0]
    dense_F, dense_noise, H = dense_model(transition.F, noise)
    ref = [dense_state(m, P) for m, P in zip(est.mean, est.cov)]
    for w, hit, zk in zip(weights, hits, z):
        pred = flt.predict(est, transition, w, noise)
        # a row of exact-one weights predicts bitwise like the unweighted step
        ones = (w == 1.0).all(axis=(1, 2))
        plain = _unweighted(est, transition, noise)
        npt.assert_array_equal(pred.mean[ones], plain[0][ones])
        npt.assert_array_equal(pred.cov[ones], plain[1][ones])
        rows = np.flatnonzero(hit)
        post, K, residual = flt.update(
            flt.StateEstimate(pred.mean[rows], pred.cov[rows]), zk[rows], noise)
        batch = flt.post_measurement(zk[rows], K, residual)
        for j, i in enumerate(rows):
            _, _, innovation = reference_update(
                dense_state(pred.mean[i], pred.cov[i]), zk[i], dense_noise, H)
            npt.assert_array_equal(residual[j], innovation)
            npt.assert_array_equal(
                batch[j], flt.post_measurement(zk[i], K[j], residual[j]))
        cleaned = dict(zip(rows.tolist(), batch))
        pred.mean[rows] = post.mean
        pred.cov[rows] = post.cov
        est = pred
        assert validate_estimate(flt.StateEstimate(est.mean, unpack(est.cov)))
        for i in range(len(ref)):
            ref[i] = reference_predict(ref[i], dense_F, w[i].ravel(), dense_noise)
            if hit[i]:
                ref[i], gain, innovation = reference_update(ref[i], zk[i],
                                                            dense_noise, H)
                assert _close(cleaned[i], zk[i] - H @ gain @ innovation)
            # the dense reference never correlates the axes
            assert not ref[i].cov[:n, n:].any() and not ref[i].cov[n:, :n].any()
            assert _close(np.ravel(est.mean[i]), ref[i].mean)
            assert _close(dense_state(est.mean[i], est.cov[i]).cov, ref[i].cov)


def test_update_stack_names_condition_of_unfactorizable_state():
    cov = np.stack([np.broadcast_to(pack(np.eye(4)), (2, 10)), np.full((2, 10), np.nan)])
    est = flt.StateEstimate(mean=np.zeros((2, 2, 4)), cov=cov)
    with pytest.raises(NumericalError,
                       match=r"row 1: innovation variance \[nan, nan\]"):
        flt.update(est, np.zeros((2, 2)), flt.build_noise(3, 0.1, 1.0, 0.3))


def test_update_rejects_negative_innovation_variance():
    # P00 < -R on one axis of the second row gives s < 0, a state no PSD
    # covariance can reach; the update raises rather than divide by it.
    cov = np.stack([np.broadcast_to(pack(np.eye(4)), (2, 10))] * 3)
    cov[2, 1, 0] = -0.2
    est = flt.StateEstimate(mean=np.zeros((3, 2, 4)), cov=cov)
    with pytest.raises(NumericalError, match="row 2: innovation variance"):
        flt.update(est, np.zeros((3, 2)), flt.build_noise(3, 0.1, 1.0, 0.3))
