"""Kalman filter core: weighted transition, scalar Joseph update, measurement clearing.

A state is stored per ground axis: `mean (axes, n)` and `cov (axes, n, n)`,
n = order + 1, each axis block holding [p, v, a, j] truncated to the order.
The transition, process noise and birth covariance are the same block on
every axis, and each axis measures its own position with independent noise,
so the axes never correlate and each runs its own n-state filter with a
scalar innovation. Only positions are measured; the weighted prediction
step rescales each kinematic contribution before it is propagated.
`predict`, `update` and `post_measurement` take one state or a stack of
states with leading batch axes, through the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import VALID_ORDERS, require
from .errors import ContractViolationError, NumericalError

GROUND_AXES = 2

# Birth covariance scaling per derivative order, applied to sigma_meas**2.
INITIAL_VARIANCE_SCALE = (10.0, 100.0, 1000.0, 10000.0)


@dataclass(frozen=True)
class NoiseModel:
    """One axis's process noise block `Q (n, n)` and position variance `R`."""

    Q: np.ndarray
    R: float


@dataclass
class StateEstimate:
    """One state, `mean (axes, n)` and `cov (axes, n, n)`, or a stack of states
    with the same leading batch axes on both."""

    mean: np.ndarray
    cov: np.ndarray


def _check_order(order: int):
    require(order in VALID_ORDERS, "model_order",
            f"must be one of {VALID_ORDERS}, got {order}")


def transition_block(order: int, dt: float) -> np.ndarray:
    """Single-axis Taylor transition `F` of shape (order+1, order+1)."""
    _check_order(order)
    n = order + 1
    F = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            F[i, j] = dt ** (j - i) / math.factorial(j - i)
    return F


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
    """One axis's process noise block and its position variance `sigma**2`."""
    return NoiseModel(Q=process_noise_block(order, dt, q), R=sigma ** 2)


def initial_estimate(position: np.ndarray, order: int, sigma: float) -> StateEstimate:
    """Track-birth state: measured position, zero derivatives, inflated covariance.

    `position` is (axes,) or a stack (..., axes); the estimate stacks alike.
    """
    position = np.asarray(position, dtype=float)
    n = order + 1
    mean = np.zeros(position.shape + (n,))
    mean[..., 0] = position
    var = np.diag(np.asarray(INITIAL_VARIANCE_SCALE[:n]) * sigma ** 2)
    cov = np.broadcast_to(var, mean.shape + (n,)).copy()
    return StateEstimate(mean=mean, cov=cov)


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked outer products a_i b_j; one product per entry, so bitwise the
    broadcast `a[..., :, None] * b[..., None, :]`, without its loops over
    n-element inner axes."""
    return np.einsum("...i,...j->...ij", a, b)


def predict(est: StateEstimate, F: np.ndarray, weights,
            noise: NoiseModel) -> StateEstimate:
    """Weighted prediction: mean' = F W mean, cov' = (F W) cov (F W)^T + Q.

    `F` is the one-axis `transition_block`. `weights` is the diagonal of each
    axis's weight matrix W, shaped like `est.mean`. A diagonal of exact ones
    gives bitwise the unweighted step.
    """
    n = F.shape[0]
    if est.mean.shape[-1:] != (n,) or est.cov.shape != est.mean.shape + (n,):
        raise ContractViolationError(
            f"state {est.mean.shape} with covariance {est.cov.shape} does not "
            f"match transition {F.shape}")
    W = np.asarray(weights, dtype=float)
    if W.shape != est.mean.shape:
        raise ContractViolationError(
            f"weight diagonal shape {W.shape} does not match state {est.mean.shape}")
    if noise.Q.shape != (n, n):
        raise ContractViolationError(
            f"process noise shape {noise.Q.shape} does not match state size {n}")
    # As F (W P W) F^T: F is shared by every state, so each product with it
    # is one 2-D matrix multiply over the whole stack. The second product
    # gives (F P F^T)^T, which the symmetrisation below makes no different.
    Pw = est.cov * _outer(W, W)
    mean = (F @ (est.mean * W)[..., None])[..., 0]
    PFt = (Pw.reshape(-1, n) @ F.T).reshape(Pw.shape)
    cov = (_transpose(PFt).reshape(-1, n) @ F.T).reshape(Pw.shape) + noise.Q
    cov = 0.5 * (cov + _transpose(cov))
    return StateEstimate(mean=mean, cov=cov)


def update(pred: StateEstimate, z: np.ndarray, noise: NoiseModel, labels=None):
    """Measurement update of every axis's position, in Joseph form.

    `z` holds one position per axis, `(axes,)` or a stack `(..., axes)`
    matching `pred`. Each axis has the scalar innovation variance
    `s = P[0, 0] + R` and the gain `K = P[:, 0] / s` (Bar-Shalom, Li &
    Kirubarajan, 2001). Returns (posterior, gain (..., axes, n),
    residual (..., axes)). Raises NumericalError if any `s` is not finite
    and positive; `s >= R > 0` for every finite positive semi-definite
    covariance. The error names the first such state of the flattened stack
    by its entry in `labels`, one per state, or else by its index.
    """
    z = np.asarray(z, dtype=float)
    mean, P = pred.mean, pred.cov
    n = mean.shape[-1]
    if P.shape != mean.shape + (n,) or z.shape != mean.shape[:-1]:
        raise ContractViolationError(
            f"measurement {z.shape} does not match state {mean.shape} with "
            f"covariance {P.shape}")
    s = P[..., 0, 0] + noise.R
    bad = ~(np.isfinite(s) & (s > 0))
    if bad.any():
        flat = s.reshape(-1, s.shape[-1])
        row = int(np.argmax(bad.reshape(flat.shape).any(axis=1)))
        label = row if labels is None else np.ravel(labels)[row]
        raise NumericalError(f"row {label}: innovation variance {flat[row].tolist()} "
                             f"is not finite and positive")
    p = P[..., :, 0]
    K = p / s[..., None]
    residual = z - mean[..., 0]
    # Joseph form A P A^T + R K K^T with A = I - K e0^T, expanded: P e0 = p
    # and e0^T P e0 + R = s, so it is P - K p^T - p K^T + s K K^T.
    Kp = _outer(K, p)
    KK = _outer(K, K)
    cov = P - Kp - _transpose(Kp) + s[..., None, None] * KK
    cov = 0.5 * (cov + _transpose(cov))
    return StateEstimate(mean=mean + K * residual[..., None], cov=cov), K, residual


def post_measurement(z: np.ndarray, K: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Cleaned position: the gained share of the innovation is removed from z.

    Batches like `update`: z (..., axes), K (..., axes, n), residual (..., axes).
    """
    return z - K[..., 0] * residual
