"""Windowed motion-dynamics estimation and transition-weight normalization.

A ring buffer of cleaned positions feeds first/second finite differences;
their per-axis sample standard deviations form the dynamics vector
[1, sigma_pos, sigma_vel, sigma_acc]. Normalizing by the dynamics factors
and clamping at one yields the transition weights for each derivative.
"""
from __future__ import annotations

import numpy as np

from .config import MIN_WINDOW, require
from .errors import ContractViolationError, InsufficientDataError
from .filtering import GROUND_AXES

# Columns of the dynamics/weight vectors: unity, velocity, acceleration, jerk.
WEIGHT_COLUMNS = 4


class DynamicsWindow:
    """Fixed-capacity chronological buffers of cleaned ground-plane positions.

    One buffer per row: `positions` is (rows, capacity, axes). A row given n
    positions holds the last `min(n, capacity)`, oldest first, in its first
    slots; the window stores no n, the caller passes it to `push`. A window
    of zero capacity holds nothing but keeps one (empty) buffer per row; the
    tracker builds one when dynamics are off. `RunConfig` validates the
    capacity a tracker asks for.
    """

    __slots__ = ("positions",)

    def __init__(self, capacity: int, axes: int = GROUND_AXES, rows: int = 0):
        self.positions = np.zeros((rows, capacity, axes))

    def push(self, rows, positions, given):
        """Append positions[i] to row rows[i] (rows distinct), which was given
        `given[i]` positions before, evicting the oldest position of a full row."""
        rows = np.asarray(rows, dtype=np.intp)
        given = np.asarray(given, dtype=np.intp)
        capacity = self.positions.shape[1]
        full = rows[given >= capacity]
        if full.size:
            self.positions[full, :-1] = self.positions[full, 1:]
        self.positions[rows, np.minimum(given, capacity - 1)] = positions

    def rebuild(self, keep: np.ndarray, first: np.ndarray):
        """Keep the rows where `keep` is true, then add one row per position
        in `first` (n, axes) after them, holding just that position."""
        born = np.zeros((len(first),) + self.positions.shape[1:])
        born[:, :1] = first[:, None]   # nothing at zero capacity
        self.positions = np.concatenate(
            [np.compress(keep, self.positions, axis=0), born])


def finite_differences(positions: np.ndarray):
    """First and second differences along the leading (time) axis.

    `positions` is (n, ...): one window (n, axes) or a time-major stack
    (n, batch, axes); n must be at least three.
    """
    z = np.asarray(positions, dtype=float)
    if z.shape[0] < MIN_WINDOW:
        raise InsufficientDataError(
            f"dynamics window holds {z.shape[0]} positions, need {MIN_WINDOW}")
    d1 = z[1:] - z[:-1]
    d2 = d1[1:] - d1[:-1]
    return d1, d2


def _sample_std(series: np.ndarray) -> np.ndarray:
    """Sample standard deviation over the leading axis (divisor n-1).

    Series shorter than 2 have zero deviation by definition. Spelled out
    rather than delegated to ndarray.std so one formulation serves both the
    single-window and the batched path. Each sum runs over the leading axis,
    so numpy adds the slots one by one, in order, with every later axis in
    the inner loop.
    """
    n = series.shape[0]
    if n < 2:
        return np.zeros(series.shape[1:])
    mean = series.sum(axis=0) / n
    dev = series - mean
    return np.sqrt((dev * dev).sum(axis=0) / (n - 1))


def dynamics_vectors(stacks: np.ndarray) -> np.ndarray:
    """Dynamics vectors for a batch of equal-length windows.

    `stacks` has shape (batch, n, axes); the result has shape
    (batch, axes, 4) with rows [1, sigma_pos, sigma_vel, sigma_acc].
    """
    z = np.asarray(stacks, dtype=float)
    if z.ndim != 3:
        raise ContractViolationError(
            f"expected a (batch, n, axes) stack, got shape {z.shape}")
    # One time-major copy: a sum over the middle axis of (batch, n, axes)
    # runs an inner loop over just `axes` elements per slot.
    z = np.ascontiguousarray(z.transpose(1, 0, 2))
    d1, d2 = finite_differences(z)
    d = np.empty(z.shape[1:] + (WEIGHT_COLUMNS,))
    d[..., 0] = 1.0
    d[..., 1] = _sample_std(z)
    d[..., 2] = _sample_std(d1)
    d[..., 3] = _sample_std(d2)
    return d


def dynamics_factors(factor_velocity: float, factor_acceleration: float,
                     factor_jerk: float) -> np.ndarray:
    """Normalization constants [1, l_v, l_a, l_j]; all must be positive."""
    factors = np.array([1.0, factor_velocity, factor_acceleration, factor_jerk])
    require(np.all(factors > 0), "factor_velocity/factor_acceleration/factor_jerk",
            f"factors must be positive, got {factors[1:]}")
    return factors


def update_weights(d: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Elementwise min(d / factors, 1). Exact saturation at 1.0.

    Equals the algebraic half-absolute form (1 + d - |1 - d|) / 2 for
    non-negative inputs; that equality is asserted by tests.
    """
    d = np.asarray(d, dtype=float)
    return np.minimum(d / factors, 1.0)


def weight_diagonal(weights: np.ndarray, order: int) -> np.ndarray:
    """Diagonal of each axis's weight matrix W, as predict takes it: the first
    `order + 1` columns of `weights (..., axes, 4)`."""
    return np.asarray(weights, dtype=float)[..., :order + 1]
