"""Motion-dynamics weighting: windows, fluctuation vectors, clamped weights."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (clamped_weights_algebraic, dynamics_vector,
                     reference_dynamics_vectors, smooth_weights)

from dynatrack import dynamics as dyn
from dynatrack import filtering as flt
from dynatrack.errors import (ConfigurationError, ContractViolationError,
                              InsufficientDataError)

# Sample standard deviations computed with the stdlib statistics module,
# independent of numpy, and frozen here as literals.
STD_POS_01361 = 4.06201920231798        # stdev([0, 1, 3, 6, 10])
STD_VEL_1234 = 1.2909944487358056       # stdev([1, 2, 3, 4])
STD_01234 = 1.5811388300841898          # stdev([0, 1, 2, 3, 4])


def _window(values):
    """Positions of a one-row window as long as `values`, after pushing them in order."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    win = dyn.DynamicsWindow(len(values), axes=values.shape[1], rows=1)
    for given, row in enumerate(values):
        win.push([0], row[None], [given])
    return win.positions[0]


def _vector(positions):
    """The program's dynamics vector of one (n, axes) window."""
    return dyn.dynamics_vectors(np.asarray(positions, dtype=float)[None])[0]


def test_window_push_and_eviction_order():
    win = dyn.DynamicsWindow(3, axes=1, rows=1)
    for given, v in enumerate((1.0, 2.0, 3.0, 4.0)):
        win.push([0], np.array([[v]]), [given])
    npt.assert_array_equal(win.positions[0].ravel(), [2.0, 3.0, 4.0])


def test_window_push_touches_only_the_given_rows():
    # A row given n positions before a push holds the last min(n + 1, 3)
    # of them after it, oldest first, and zeros after those.
    win = dyn.DynamicsWindow(3, axes=1, rows=3)
    for given, v in enumerate((1.0, 2.0, 3.0)):
        win.push([0, 2], np.array([[v], [10.0 * v]]), [given, given])
    win.push([2, 1], np.array([[40.0], [-1.0]]), [3, 0])
    npt.assert_array_equal(win.positions[..., 0],
                           [[1.0, 2.0, 3.0], [-1.0, 0.0, 0.0], [20.0, 30.0, 40.0]])
    win.rebuild(np.array([False, True, True]), np.array([[7.0]]))
    npt.assert_array_equal(win.positions[..., 0],
                           [[-1.0, 0.0, 0.0], [20.0, 30.0, 40.0], [7.0, 0.0, 0.0]])


def test_zero_capacity_window_keeps_one_empty_buffer_per_row():
    # The tracker's window with dynamics off: rebuilds keep and add rows,
    # and no position is stored.
    win = dyn.DynamicsWindow(0, rows=3)
    win.rebuild(np.array([True, False, True]), np.array([[1.0, 2.0]]))
    assert win.positions.shape == (3, 0, 2)
    win.rebuild(np.zeros(3, dtype=bool), np.zeros((0, 2)))
    assert win.positions.shape == (0, 0, 2)


def test_finite_differences_exact():
    d1, d2 = dyn.finite_differences(_window([0.0, 1.0, 3.0, 6.0]))
    npt.assert_array_equal(d1.ravel(), [1.0, 2.0, 3.0])
    npt.assert_array_equal(d2.ravel(), [1.0, 1.0])


def test_finite_differences_insufficient():
    with pytest.raises(InsufficientDataError):
        dyn.finite_differences(np.array([[0.0], [1.0]]))


def test_dynamics_vector_constant_positions():
    d = _vector(_window([5.0] * 6))
    npt.assert_array_equal(d, [[1.0, 0.0, 0.0, 0.0]])


def test_dynamics_vector_linear_ramp():
    d = _vector(_window([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert d[0, 0] == 1.0
    assert d[0, 1] == pytest.approx(STD_01234, abs=1e-14)
    assert d[0, 2] == 0.0
    assert d[0, 3] == 0.0


def test_dynamics_vector_frozen_example():
    d = _vector(_window([0.0, 1.0, 3.0, 6.0, 10.0]))
    assert d[0, 1] == pytest.approx(STD_POS_01361, abs=1e-13)
    assert d[0, 2] == pytest.approx(STD_VEL_1234, abs=1e-14)
    assert d[0, 3] == 0.0


def test_dynamics_vector_axes_independent():
    a = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    b = np.array([5.0, 5.0, 5.0, 5.0, 5.0])
    d = _vector(np.stack([a, b], axis=1))
    assert d.shape == (2, 4)
    assert d[0, 1] == pytest.approx(STD_POS_01361, abs=1e-13)
    npt.assert_array_equal(d[1], [1.0, 0.0, 0.0, 0.0])


def test_dynamics_vectors_batch_matches_single_windows():
    rng = np.random.default_rng(11)
    stack = rng.normal(0.0, 3.0, (40, 8, 2))
    batch = dyn.dynamics_vectors(stack)
    singles = np.stack([dynamics_vector(stack[i]) for i in range(40)])
    npt.assert_array_equal(batch, singles)


@st.composite
def _window_stacks(draw):
    """(batch, n, axes) stacks of windows on both sides of 8 positions, at
    magnitudes from 1e-6 to 1e6, some about a large offset and some constant."""
    shape = (draw(st.integers(0, 30)), draw(st.integers(3, 12)),
             draw(st.integers(1, 2)))
    unit = hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0))
    stack = draw(unit) * 10.0 ** draw(st.integers(-6, 6))
    stack += draw(st.sampled_from([0.0, 1.0, -1e3, 1e6]))
    constant = draw(hnp.arrays(bool, shape[:1]))
    stack[constant] = stack[constant, :1]
    return stack


@settings(max_examples=300, deadline=None)
@example(stack=np.zeros((0, 8, 2)))
@example(stack=np.full((3, 12, 2), 1e6 + 0.1))
@given(stack=_window_stacks())
def test_dynamics_vectors_match_the_middle_axis_reference(stack):
    got = dyn.dynamics_vectors(stack)
    want = reference_dynamics_vectors(stack)
    batch, n, axes = stack.shape
    if axes == 1 and n >= 8:
        # One axis makes the window axis the reference's contiguous inner
        # axis, where numpy sums 8 or more entries pairwise rather than in
        # order: equal to a few roundings of the window's largest entry.
        scale = np.abs(stack).max(axis=1, initial=0.0)[..., None]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * n * np.finfo(float).eps * scale)
    else:
        assert got.tobytes() == want.tobytes()


def test_dynamics_vectors_rejects_flat_input():
    with pytest.raises(ContractViolationError):
        dyn.dynamics_vectors(np.zeros((8, 2)))
    with pytest.raises(ContractViolationError):
        dyn.dynamics_vectors(np.zeros(8))


def test_update_weights_hand_example():
    d = np.array([[1.0, 0.3, 0.3, 0.3]])
    factors = dyn.dynamics_factors(0.6, 0.3, 0.15)
    w = dyn.update_weights(d, factors)
    npt.assert_array_equal(w, [[1.0, 0.5, 1.0, 1.0]])


def test_update_weights_saturation_is_exact():
    d = np.array([[1.0, 5.0, 0.31, 0.15]])
    factors = dyn.dynamics_factors(0.5, 0.25, 0.15)
    w = dyn.update_weights(d, factors)
    assert w[0, 1] == 1.0
    assert w[0, 2] == 1.0
    assert w[0, 3] == 1.0
    assert w.dtype == np.float64


def test_update_weights_zero_fluctuation_zero_weight():
    d = np.array([[1.0, 0.0, 0.0, 0.0]])
    factors = dyn.dynamics_factors(0.5, 0.25, 0.15)
    npt.assert_array_equal(dyn.update_weights(d, factors),
                           [[1.0, 0.0, 0.0, 0.0]])


def test_dynamics_factors_validation():
    with pytest.raises(ConfigurationError):
        dyn.dynamics_factors(0.0, 0.25, 0.15)
    with pytest.raises(ConfigurationError):
        dyn.dynamics_factors(0.5, -1.0, 0.15)


def test_clamp_matches_algebraic_form():
    # min(x, 1) equals (1 + x - |1 - x|) / 2 for x >= 0
    rng = np.random.default_rng(19)
    d = rng.uniform(0.0, 10.0, size=(10000, 4))
    d[:, 0] = 1.0
    factors = rng.uniform(0.01, 10.0, size=4)
    factors[0] = 1.0
    clamped = dyn.update_weights(d, factors)
    algebraic = clamped_weights_algebraic(d / factors)
    npt.assert_allclose(clamped, algebraic, rtol=0, atol=1e-12)


def test_update_weights_monotone_in_fluctuation():
    factors = dyn.dynamics_factors(0.5, 0.25, 0.15)
    lo = dyn.update_weights(np.array([[1.0, 0.1, 0.05, 0.01]]), factors)
    hi = dyn.update_weights(np.array([[1.0, 0.2, 0.10, 0.02]]), factors)
    assert np.all(hi >= lo)


def test_smooth_weights_mean_of_history():
    hist = np.array([
        [[1.0, 0.0, 0.0, 0.0]],
        [[1.0, 1.0, 0.0, 0.0]],
        [[1.0, 1.0, 1.0, 0.0]],
    ])
    sm = smooth_weights(hist, 3)
    npt.assert_allclose(sm, [[1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0]], rtol=1e-15)


def test_smooth_weights_window_one_is_passthrough():
    hist = np.array([
        [[1.0, 0.2, 0.3, 0.4]],
        [[1.0, 0.9, 0.8, 0.7]],
    ])
    npt.assert_array_equal(smooth_weights(hist, 1), hist[-1])


def test_smooth_weights_short_history_uses_what_exists():
    hist = np.array([[[1.0, 0.5, 0.25, 0.0]]])
    npt.assert_array_equal(smooth_weights(hist, 4), hist[0])
    with pytest.raises(InsufficientDataError):
        smooth_weights(np.empty((0, 1, 4)), 4)


def test_smooth_weights_stays_in_convex_hull():
    rng = np.random.default_rng(23)
    hist = rng.uniform(0.0, 1.0, size=(6, 2, 4))
    sm = smooth_weights(hist, 4)
    tail = hist[-4:]
    assert np.all(sm >= tail.min(axis=0) - 1e-15)
    assert np.all(sm <= tail.max(axis=0) + 1e-15)


def test_weight_matrix_identity_when_all_ones():
    npt.assert_array_equal(dyn.weight_diagonal(np.ones((2, 4)), order=3),
                           np.ones((2, 4)))


def test_weight_matrix_layout():
    w = np.array([[1.0, 0.5, 0.25, 0.1], [1.0, 0.4, 0.2, 0.05]])
    npt.assert_array_equal(dyn.weight_diagonal(w, order=3), w)


def test_weight_matrix_truncates_to_order():
    w = np.array([[1.0, 0.5, 0.25, 0.1]])
    npt.assert_array_equal(dyn.weight_diagonal(w, order=1), [[1.0, 0.5]])


def test_weight_diagonal_stacks():
    rng = np.random.default_rng(29)
    w = rng.uniform(0.0, 1.0, size=(3, 2, 4))
    diags = dyn.weight_diagonal(w, order=2)
    assert diags.shape == (3, 2, 3)
    for row, diag in zip(w, diags):
        npt.assert_array_equal(diag, dyn.weight_diagonal(row, order=2))
    assert dyn.weight_diagonal(np.zeros((0, 2, 4)), order=3).shape == (0, 2, 4)


def test_weight_diagonal_matches_matrix():
    # predict scales the columns of each axis's F by that axis's diagonal;
    # that is F @ W for the diagonal weight matrix W, entry for entry.
    w = np.array([[1.0, 0.5, 0.25, 0.1], [1.0, 0.4, 0.2, 0.05]])
    F = flt.transition_block(3, 0.1)
    for diag in dyn.weight_diagonal(w, order=3):
        npt.assert_array_equal(F * diag, F @ np.diag(diag))


def test_noise_free_constant_velocity_weights():
    # spacing 0.5 per step is exactly representable, so the higher-order
    # fluctuations vanish exactly and their weights must be exactly zero
    positions = np.arange(8.0)[:, None] * 0.5
    d = _vector(positions)
    factors = dyn.dynamics_factors(0.5, 0.25, 0.15)
    w = dyn.update_weights(d, factors)
    assert w[0, 1] == 1.0
    assert w[0, 2] == 0.0
    assert w[0, 3] == 0.0
