"""Kalman filter core: weighted transition, Joseph-form update, measurement clearing.

State layout is block-per-axis: [p_x, v_x, a_x, j_x, p_y, v_y, a_y, j_y] at
model order 3, truncated uniformly for lower orders. Only positions are
measured; the weighted prediction step rescales each kinematic contribution
before it is propagated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, ContractViolationError, NumericalError

GROUND_AXES = 2

# Birth covariance scaling per derivative order, applied to sigma_meas**2.
INITIAL_VARIANCE_SCALE = (10.0, 100.0, 1000.0, 10000.0)

# Ridge added to a non-factorizable innovation covariance, relative to trace.
INNOVATION_RIDGE = 1e-9


@dataclass(frozen=True)
class TransitionModel:
    """Constant-rate Taylor transition for one fixed timestep."""

    F: np.ndarray
    dt: float
    order: int
    axes: int = GROUND_AXES


@dataclass(frozen=True)
class NoiseModel:
    """Process and measurement noise for the same state layout."""

    Q: np.ndarray
    R: np.ndarray


@dataclass
class StateEstimate:
    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass
class Measurement:
    """One detection converted to the tracking frame."""

    position: np.ndarray          # ground plane (lateral, longitudinal)
    frame: int
    elevation: float = 0.0
    yaw: float = 0.0
    dims: tuple = (0.0, 0.0, 0.0)  # height, width, length
    score: float = 1.0
    bbox2d: tuple = (0.0, 0.0, 0.0, 0.0)
    obj_type: str = "Car"


def _check_order(order: int):
    if order not in (1, 2, 3):
        raise ConfigurationError(f"config key 'model_order': must be 1, 2, or 3, got {order}")


def transition_block(order: int, dt: float) -> np.ndarray:
    """Single-axis Taylor transition block of shape (order+1, order+1)."""
    _check_order(order)
    n = order + 1
    F = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            F[i, j] = dt ** (j - i) / math.factorial(j - i)
    return F


def build_transition(order: int, dt: float, axes: int = GROUND_AXES) -> TransitionModel:
    """Block-diagonal transition over independent axes."""
    block = transition_block(order, dt)
    F = scipy.linalg.block_diag(*([block] * axes))
    return TransitionModel(F=F, dt=dt, order=order, axes=axes)


def process_noise_block(order: int, dt: float, q: float) -> np.ndarray:
    """Discretized continuous white noise driving the highest modeled derivative."""
    _check_order(order)
    n = order + 1
    Q = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            p = 2 * order - i - j + 1
            Q[i, j] = q * dt ** p / (math.factorial(order - i) * math.factorial(order - j) * p)
    return Q


def build_noise(order: int, dt: float, q: float, sigma: float,
                axes: int = GROUND_AXES) -> NoiseModel:
    """Process noise (per-axis block diagonal) and diagonal position noise."""
    block = process_noise_block(order, dt, q)
    Q = scipy.linalg.block_diag(*([block] * axes))
    R = (sigma ** 2) * np.eye(axes)
    return NoiseModel(Q=Q, R=R)


def measurement_matrix(order: int, axes: int = GROUND_AXES) -> np.ndarray:
    """Rows selecting the position entry of each axis block."""
    _check_order(order)
    n = order + 1
    H = np.zeros((axes, axes * n))
    for a in range(axes):
        H[a, a * n] = 1.0
    return H


def position_indices(order: int, axes: int = GROUND_AXES) -> tuple:
    """State indices holding positions (used for cheap H-products)."""
    n = order + 1
    return tuple(a * n for a in range(axes))


def initial_estimate(position: np.ndarray, order: int, sigma: float,
                     axes: int = GROUND_AXES) -> StateEstimate:
    """Track-birth state: measured position, zero derivatives, inflated covariance."""
    n = order + 1
    mean = np.zeros(axes * n)
    var = np.empty(axes * n)
    scale = INITIAL_VARIANCE_SCALE[:n]
    for a in range(axes):
        mean[a * n] = position[a]
        var[a * n:(a + 1) * n] = np.asarray(scale) * sigma ** 2
    return StateEstimate(mean=mean, cov=np.diag(var))


def predict(est: StateEstimate, trans: TransitionModel, weights,
            noise: NoiseModel) -> StateEstimate:
    """Weighted prediction: mean' = F W mean, cov' = (F W) cov (F W)^T + Q.

    `weights` is the diagonal of the weight matrix W, or None for the plain
    unweighted step.
    """
    F = trans.F
    dim = F.shape[0]
    if est.mean.shape != (dim,) or est.cov.shape != (dim, dim):
        raise ContractViolationError(
            f"state dimension {est.mean.shape} does not match transition {F.shape}")
    if weights is None:
        FW = F
    else:
        W = np.asarray(weights, dtype=float)
        if W.shape != (dim,):
            raise ContractViolationError(
                f"weight diagonal shape {W.shape} does not match state dim {dim}")
        FW = F * W
    if noise.Q.shape != (dim, dim):
        raise ContractViolationError(
            f"process noise shape {noise.Q.shape} does not match state dim {dim}")
    mean = FW @ est.mean
    cov = FW @ est.cov @ FW.T + noise.Q
    cov = 0.5 * (cov + cov.T)
    return StateEstimate(mean=mean, cov=cov)


def _solve_innovation(S: np.ndarray, PHt: np.ndarray) -> np.ndarray:
    """Gain via Cholesky; one ridge retry before giving up."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        ridge = INNOVATION_RIDGE * np.trace(S)
        bumped = S + ridge * np.eye(S.shape[0])
        try:
            L = np.linalg.cholesky(bumped)
        except np.linalg.LinAlgError:
            with np.errstate(all="ignore"):
                cond = float(np.linalg.cond(S))
            raise NumericalError(
                f"innovation covariance not factorizable (cond={cond:.3e})") from None
    # L is freshly factorized, so the finiteness re-check is redundant.
    return scipy.linalg.cho_solve((L, True), PHt.T, check_finite=False).T


def update(pred: StateEstimate, z: np.ndarray, noise: NoiseModel,
           H: np.ndarray):
    """Measurement update in Joseph form.

    Returns (posterior, gain, residual).
    """
    z = np.asarray(z, dtype=float)
    dim = pred.dim
    if H.shape[1] != dim:
        raise ContractViolationError(
            f"measurement matrix width {H.shape[1]} does not match state dim {dim}")
    if z.shape != (H.shape[0],):
        raise ContractViolationError(
            f"measurement length {z.shape} does not match matrix rows {H.shape[0]}")
    residual = z - H @ pred.mean
    PHt = pred.cov @ H.T
    S = H @ PHt + noise.R
    S = 0.5 * (S + S.T)
    K = _solve_innovation(S, PHt)
    mean = pred.mean + K @ residual
    A = np.eye(dim) - K @ H
    cov = A @ pred.cov @ A.T + K @ noise.R @ K.T
    cov = 0.5 * (cov + cov.T)
    return StateEstimate(mean=mean, cov=cov), K, residual


def post_measurement(z: np.ndarray, K: np.ndarray, residual: np.ndarray,
                     H: np.ndarray) -> np.ndarray:
    """Cleaned position: the gained share of the innovation is removed from z."""
    return z - (H @ K) @ residual
