"""Kalman filter core: weighted transition, Joseph-form update, measurement clearing.

State layout is block-per-axis: [p_x, v_x, a_x, j_x, p_y, v_y, a_y, j_y] at
model order 3, truncated uniformly for lower orders. Only positions are
measured; the weighted prediction step rescales each kinematic contribution
before it is propagated. `predict`, `update` and `post_measurement` take one
state or a stack of states with leading batch axes, through the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import VALID_ORDERS, require
from .errors import ContractViolationError, NumericalError

GROUND_AXES = 2

# Birth covariance scaling per derivative order, applied to sigma_meas**2.
INITIAL_VARIANCE_SCALE = (10.0, 100.0, 1000.0, 10000.0)

# Ridge added to a non-factorizable innovation covariance, relative to trace.
INNOVATION_RIDGE = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Process and measurement noise for the same state layout."""

    Q: np.ndarray
    R: np.ndarray


@dataclass
class StateEstimate:
    """One state, `mean (D,)` and `cov (D, D)`, or a stack of states with the
    same leading batch axes on both, `mean (..., D)` and `cov (..., D, D)`."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _check_order(order: int):
    require(order in VALID_ORDERS, "model_order",
            f"must be one of {VALID_ORDERS}, got {order}")


def transition_block(order: int, dt: float) -> np.ndarray:
    """Single-axis Taylor transition block of shape (order+1, order+1)."""
    _check_order(order)
    n = order + 1
    F = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            F[i, j] = dt ** (j - i) / math.factorial(j - i)
    return F


def build_transition(order: int, dt: float) -> np.ndarray:
    """Block-diagonal transition `F` over the ground axes."""
    return scipy.linalg.block_diag(*([transition_block(order, dt)] * GROUND_AXES))


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


def build_noise(order: int, dt: float, q: float, sigma: float) -> NoiseModel:
    """Process noise (per-axis block diagonal) and diagonal position noise."""
    Q = scipy.linalg.block_diag(*([process_noise_block(order, dt, q)] * GROUND_AXES))
    return NoiseModel(Q=Q, R=(sigma ** 2) * np.eye(GROUND_AXES))


def position_indices(order: int) -> tuple:
    """State indices holding positions (used for cheap H-products)."""
    return tuple(range(0, GROUND_AXES * (order + 1), order + 1))


def measurement_matrix(order: int) -> np.ndarray:
    """Rows selecting the position entry of each axis block."""
    _check_order(order)
    H = np.zeros((GROUND_AXES, GROUND_AXES * (order + 1)))
    H[range(GROUND_AXES), position_indices(order)] = 1.0
    return H


def initial_estimate(position: np.ndarray, order: int, sigma: float) -> StateEstimate:
    """Track-birth state: measured position, zero derivatives, inflated covariance.

    `position` is (2,) or a stack (..., 2); the estimate stacks alike.
    """
    position = np.asarray(position, dtype=float)
    n = order + 1
    mean = np.zeros(position.shape[:-1] + (GROUND_AXES * n,))
    mean[..., ::n] = position
    var = np.tile(np.asarray(INITIAL_VARIANCE_SCALE[:n]) * sigma ** 2, GROUND_AXES)
    cov = np.broadcast_to(np.diag(var), mean.shape + (GROUND_AXES * n,)).copy()
    return StateEstimate(mean=mean, cov=cov)


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def predict(est: StateEstimate, F: np.ndarray, weights,
            noise: NoiseModel) -> StateEstimate:
    """Weighted prediction: mean' = F W mean, cov' = (F W) cov (F W)^T + Q.

    `F` is the transition from `build_transition`. `weights` is the diagonal
    of the weight matrix W, shaped like `est.mean` (one diagonal per stacked
    state). A diagonal of exact ones gives bitwise the unweighted step.
    """
    dim = F.shape[0]
    batch = est.mean.shape[:-1]
    if est.mean.shape != batch + (dim,) or est.cov.shape != batch + (dim, dim):
        raise ContractViolationError(
            f"state dimension {est.mean.shape} does not match transition {F.shape}")
    W = np.asarray(weights, dtype=float)
    if W.shape != est.mean.shape:
        raise ContractViolationError(
            f"weight diagonal shape {W.shape} does not match state {est.mean.shape}")
    if noise.Q.shape != (dim, dim):
        raise ContractViolationError(
            f"process noise shape {noise.Q.shape} does not match state dim {dim}")
    FW = F * W[..., None, :]
    mean = (FW @ est.mean[..., None])[..., 0]
    cov = FW @ est.cov @ _transpose(FW) + noise.Q
    cov = 0.5 * (cov + _transpose(cov))
    return StateEstimate(mean=mean, cov=cov)


def _try_cholesky(S: np.ndarray):
    """Lower Cholesky factor(s) of S, or None unless every factor is finite."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    return L if np.isfinite(L).all() else None


def _ridge_cholesky(S: np.ndarray) -> np.ndarray:
    """Factor of one innovation covariance, with one ridge retry before giving up."""
    L = _try_cholesky(S)
    if L is None:
        L = _try_cholesky(S + INNOVATION_RIDGE * np.trace(S) * np.eye(S.shape[0]))
    if L is None:
        cond = math.nan
        if np.isfinite(S).all():
            with np.errstate(all="ignore"):
                cond = float(np.linalg.cond(S))
        raise NumericalError(
            f"innovation covariance not factorizable (cond={cond:.3e})")
    return L


def _cholesky(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of innovation covariances.

    The whole stack is factored at once; only if that fails is it factored
    again one matrix at a time, so that just the failing ones take the ridge.
    """
    L = _try_cholesky(S)
    if L is None:
        m = S.shape[-1]
        L = np.stack([_ridge_cholesky(Sk) for Sk in S.reshape(-1, m, m)])
    return L.reshape(S.shape)


def _cho_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L L^T X = B: forward, then back substitution over the m rows.

    L is (..., m, m) lower triangular and B is (..., m, k). m is the
    measurement dimension, so the loops are short and each step spans the batch.
    """
    X = np.array(B, dtype=float)
    m = L.shape[-1]
    for i in range(m):
        if i:
            X[..., i, :] -= (L[..., i, :i, None] * X[..., :i, :]).sum(axis=-2)
        X[..., i, :] /= L[..., i, i, None]
    for i in reversed(range(m)):
        if i < m - 1:
            X[..., i, :] -= (L[..., i + 1:, i, None] * X[..., i + 1:, :]).sum(axis=-2)
        X[..., i, :] /= L[..., i, i, None]
    return X


def update(pred: StateEstimate, z: np.ndarray, noise: NoiseModel,
           H: np.ndarray):
    """Measurement update in Joseph form.

    `pred` may be a stack of states and `z (..., m)` then holds one
    measurement per state; `H` and `noise` are shared. Returns (posterior,
    gain (..., D, m), residual (..., m)). Raises NumericalError for the whole
    stack if any state's innovation covariance cannot be factored.
    """
    z = np.asarray(z, dtype=float)
    dim = pred.dim
    batch = pred.mean.shape[:-1]
    if H.shape[1] != dim or pred.cov.shape != batch + (dim, dim):
        raise ContractViolationError(
            f"measurement matrix width {H.shape[1]} does not match state "
            f"{pred.mean.shape} with covariance {pred.cov.shape}")
    if z.shape != batch + (H.shape[0],):
        raise ContractViolationError(
            f"measurement shape {z.shape} does not match matrix rows {H.shape[0]} "
            f"over batch {batch}")
    residual = z - pred.mean @ H.T
    PHt = pred.cov @ H.T
    S = H @ PHt + noise.R
    S = 0.5 * (S + _transpose(S))
    K = _transpose(_cho_solve(_cholesky(S), _transpose(PHt)))
    mean = pred.mean + (K @ residual[..., None])[..., 0]
    A = np.eye(dim) - K @ H
    cov = A @ pred.cov @ _transpose(A) + K @ noise.R @ _transpose(K)
    cov = 0.5 * (cov + _transpose(cov))
    return StateEstimate(mean=mean, cov=cov), K, residual


def post_measurement(z: np.ndarray, K: np.ndarray, residual: np.ndarray,
                     H: np.ndarray) -> np.ndarray:
    """Cleaned position: the gained share of the innovation is removed from z.

    Batches like `update`: z (..., m), K (..., D, m), residual (..., m).
    """
    return z - (H @ K @ residual[..., None])[..., 0]
