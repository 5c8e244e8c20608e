"""Kalman filter core: weighted transition, scalar Joseph update, measurement clearing.

A state is stored per ground axis: `mean (axes, n)`, n = order + 1, each
axis block holding [p, v, a, j] truncated to the order, and `cov (axes, U)`,
each axis's symmetric covariance packed as its U = n(n+1)/2 unique entries
`P[I, J]` in row-major upper-triangle order (`PACKED_INDICES[n]`). So a
stored covariance is exactly symmetric, and entries 0..n-1 are its first
row. The transition, process noise and birth covariance are the same block
on every axis, and each axis measures its own position with independent
noise, so the axes never correlate and each runs its own n-state filter
with a scalar innovation. Only positions are measured; the weighted
prediction step rescales each kinematic contribution before it is
propagated. `predict`, `update` and `post_measurement` take one state or a
stack of states with leading batch axes, through the same code. A
covariance may also be one `(1, U)` block that every axis shares, filtered
once and broadcast against the mean's axes.
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

# The packed entries of an (n, n) block, `P[I, J]`, for every state size the
# filter takes (1 for a lone position, up to max order + 1). Built once here:
# `np.triu_indices` costs tens of microseconds a call.
PACKED_INDICES = {n: np.triu_indices(n) for n in range(1, max(VALID_ORDERS) + 2)}


@dataclass(frozen=True)
class NoiseModel:
    """One axis's process noise block, packed as `Q (U,)`, and position
    variance `R`."""

    Q: np.ndarray
    R: float


@dataclass
class StateEstimate:
    """One state, `mean (axes, n)` and packed `cov (axes, U)` or `(1, U)`,
    or a stack of states with the same leading batch axes on both."""

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
    """One axis's packed process noise block and its position variance `sigma**2`."""
    Q = process_noise_block(order, dt, q)
    return NoiseModel(Q=Q[PACKED_INDICES[order + 1]], R=sigma ** 2)


def initial_estimate(position: np.ndarray, order: int, sigma: float) -> StateEstimate:
    """Track-birth state: measured position, zero derivatives, inflated
    diagonal covariance, packed.

    `position` is (axes,) or a stack (..., axes); the estimate stacks alike.
    """
    position = np.asarray(position, dtype=float)
    n = order + 1
    mean = np.zeros(position.shape + (n,))
    mean[..., 0] = position
    I, J = PACKED_INDICES[n]
    var = np.zeros(len(I))
    var[I == J] = np.asarray(INITIAL_VARIANCE_SCALE[:n]) * sigma ** 2
    cov = np.empty(mean.shape[:-1] + var.shape)
    cov[...] = var
    return StateEstimate(mean=mean, cov=cov)


def _check_indices(n: int):
    if n not in PACKED_INDICES:
        raise ContractViolationError(
            f"state size {n} is not one of {sorted(PACKED_INDICES)}")
    return PACKED_INDICES[n]


def _cov_fits(cov: np.ndarray, mean: np.ndarray, size: int) -> bool:
    """Whether `cov` holds a block of `size` per axis of `mean`, or one shared."""
    return cov.shape in (mean.shape[:-1] + (size,), mean.shape[:-2] + (1, size))


@dataclass(frozen=True)
class Transition:
    """One axis's transition `F (n, n)` with its action on packed covariances:
    `packed(F P F^T) = packed(P) @ M` for every symmetric P."""

    F: np.ndarray
    M: np.ndarray


def packed_transition(F: np.ndarray) -> Transition:
    """`F` with the (U, U) matrix `M` that propagates packed covariances.

    Entry (a, b) of F P F^T is the sum over (k, l) of F[a, k] P[k, l] F[b, l],
    the row (a, b) of F kron F applied to P flattened. A symmetric P holds
    P[k, l] = P[l, k] once, at packed entry u = (k, l) with k <= l, so the
    columns (k, l) and (l, k) of F kron F fold into row u of M; only the
    packed rows (a, b) are kept.
    """
    n = F.shape[0]
    I, J = _check_indices(n)
    kron = np.kron(F, F)[I * n + J]
    folded = kron[:, I * n + J] + np.where(I != J, kron[:, J * n + I], 0.0)
    return Transition(F=F, M=np.ascontiguousarray(folded.T))


def predict(est: StateEstimate, transition: Transition, weights,
            noise: NoiseModel) -> StateEstimate:
    """Weighted prediction: mean' = F W mean, cov' = (F W) cov (F W)^T + Q.

    `transition` is the one-axis `packed_transition`. `weights` is the
    diagonal of each axis's weight matrix W, shaped like `est.mean`, or None
    for the unweighted step (W = I), which skips the rescaling. W P W
    scales packed entry (i, j) by w_i w_j, and F acts on the packed entries
    through `M`, so each product is one 2-D matrix multiply over the whole
    stack. A diagonal of exact ones gives bitwise the unweighted step. A
    shared covariance stays shared unless weights are given.
    """
    F, M = transition.F, transition.M
    n, size = len(F), len(M)
    if est.mean.shape[-1:] != (n,) or not _cov_fits(est.cov, est.mean, size):
        raise ContractViolationError(
            f"state {est.mean.shape} with covariance {est.cov.shape} does not "
            f"match transition {F.shape}")
    if noise.Q.shape != (size,):
        raise ContractViolationError(
            f"process noise shape {noise.Q.shape} does not match state size {n}")
    mean, P = est.mean, est.cov
    if weights is not None:
        W = np.asarray(weights, dtype=float)
        if W.shape != mean.shape:
            raise ContractViolationError(
                f"weight diagonal shape {W.shape} does not match state {mean.shape}")
        I, J = PACKED_INDICES[n]
        mean, P = mean * W, P * (W[..., I] * W[..., J])
    mean = (mean.reshape(-1, n) @ F.T).reshape(est.mean.shape)
    # numpy multiplies a lone row by gemv, which rounds differently from the
    # gemm that two or more rows get, so a lone row goes as two: one shared
    # covariance then gets the bits of each block of a per-axis pair.
    stack = P.reshape(-1, size)
    product = (stack if len(stack) != 1 else stack.repeat(2, axis=0)) @ M
    cov = product[:len(stack)].reshape(P.shape) + noise.Q
    return StateEstimate(mean=mean, cov=cov)


def update(pred: StateEstimate, z: np.ndarray, noise: NoiseModel, labels=None):
    """Measurement update of every axis's position, in Joseph form.

    `z` holds one position per axis, `(axes,)` or a stack `(..., axes)`
    matching `pred`. Each axis has the scalar innovation variance
    `s = P[0, 0] + R` and the gain `K = P[:, 0] / s` (Bar-Shalom, Li &
    Kirubarajan, 2001); P[0, :] is the first n packed entries. Returns
    (posterior, gain (..., axes, n), residual (..., axes)); a shared
    covariance stays shared, and its gain is `(..., 1, n)`. Raises
    NumericalError if any `s` is not finite and positive; `s >= R > 0` for
    every finite positive semi-definite covariance. The error names the
    first such state of the flattened stack as `track <label>` by its entry
    in `labels`, one per state, or else as `row <index>`, and its `s` per axis.
    """
    z = np.asarray(z, dtype=float)
    mean, P = pred.mean, pred.cov
    n = mean.shape[-1]
    I, J = _check_indices(n)
    if not _cov_fits(P, mean, len(I)) or z.shape != mean.shape[:-1]:
        raise ContractViolationError(
            f"measurement {z.shape} does not match state {mean.shape} with "
            f"covariance {P.shape}")
    s = P[..., 0] + noise.R
    bad = ~(np.isfinite(s) & (s > 0))
    if bad.any():
        flat = np.broadcast_to(s, z.shape).reshape(-1, z.shape[-1])
        row = int(np.argmax(bad.reshape(len(flat), -1).any(axis=1)))
        name = f"row {row}" if labels is None else f"track {np.ravel(labels)[row]}"
        raise NumericalError(f"{name}: innovation variance {flat[row].tolist()} "
                             f"is not finite and positive")
    p = P[..., :n]
    K = p / s[..., None]
    residual = z - mean[..., 0]
    # Joseph form A P A^T + R K K^T with A = I - K e0^T, expanded: P e0 = p
    # and e0^T P e0 + R = s, so entry (i, j) is
    # P_ij - K_i p_j - p_i K_j + s K_i K_j, summed left to right in reused
    # temporaries (products commute bitwise).
    KI, KJ = K[..., I], K[..., J]
    cov = p[..., J]
    cov *= KI
    np.subtract(P, cov, out=cov)
    term = p[..., I]
    term *= KJ
    cov -= term
    KI *= KJ
    KI *= s[..., None]
    cov += KI
    return StateEstimate(mean=mean + K * residual[..., None], cov=cov), K, residual


def post_measurement(z: np.ndarray, K: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Cleaned position: the gained share of the innovation is removed from z.

    Batches like `update`: z (..., axes), K (..., axes or 1, n), residual (..., axes).
    """
    return z - K[..., 0] * residual
