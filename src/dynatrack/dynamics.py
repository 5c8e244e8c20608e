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
            [self.positions.compress(keep, axis=0), born])


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


def dynamics_vectors(stacks: np.ndarray) -> np.ndarray:
    """Dynamics vectors for a batch of equal-length windows.

    `stacks` has shape (batch, n, axes); the result has shape
    (batch, axes, 4) with rows [1, sigma_pos, sigma_vel, sigma_acc], each a
    sample standard deviation (divisor n-1) over the window.

    The three series, n positions and n-1 first and n-2 second differences,
    fill one time-major block (n, batch, axes, 3), each zero-padded at its
    end, so one chain of sums gives all three sigmas. The sums run over the
    leading axis: numpy adds the slots one by one, in order, with every later
    axis in the inner loop, and trailing zeros leave each sum bitwise that of
    its series alone. The padding's deviations are zeroed before squaring.
    A series shorter than 2 has sigma 0 by definition: with finite positions
    a 3-position window's one second difference is its own mean, so its
    deviation is exactly 0, and its divisor is held at 1.
    """
    z = np.asarray(stacks, dtype=float)
    if z.ndim != 3:
        raise ContractViolationError(
            f"expected a (batch, n, axes) stack, got shape {z.shape}")
    z = np.ascontiguousarray(z.transpose(1, 0, 2))
    d1, d2 = finite_differences(z)
    n = len(z)
    block = np.zeros(z.shape + (3,))
    block[..., 0], block[:-1, ..., 1], block[:-2, ..., 2] = z, d1, d2
    counts = np.array([[n, n - 1, n - 2], [n - 1, n - 2, max(n - 3, 1)]], dtype=float)
    block -= block.sum(axis=0) / counts[0]
    block[-1:, ..., 1] = block[-2:, ..., 2] = 0.0
    block *= block
    d = np.ones(z.shape[1:] + (WEIGHT_COLUMNS,))
    np.sqrt(block.sum(axis=0) / counts[1], out=d[..., 1:])
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
