"""Timings corrected for the machine's speed at the moment they were taken.

On a shared host the CPU's speed drifts: the same work can take 20% or more
longer for seconds at a time, and process CPU time rises with wall time, so
neither clock can tell a slower program from a busier host. The benchmark
therefore runs a fixed reference computation (`reference`, part of the
benchmark, never of the program) every `EVERY_S` seconds between timed
operations, and rescales each timed interval by how long the reference took
around it:

    scaled = measured * REFERENCE_S / median reference duration around it

`REFERENCE_S` is a fixed constant, so a scaled time reads as the time the
operation would take on a machine that runs the reference in `REFERENCE_S`
(close to an unloaded 2.1 GHz Xeon vCPU). A change to the program moves the
scaled time by the same share as the measured one; host drift moves both the
measured time and the reference and cancels out. A pass, which has reference
runs inside it, is timed as the sum of the stretches between them, each
scaled on its own.
"""
from __future__ import annotations

import gc
from array import array
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

REFERENCE_S = 0.0024
EVERY_S = 0.02
# Reference samples inside an interval or this many seconds either side of it
# set its scale; at least MIN_SAMPLES of them, else the nearest MIN_SAMPLES.
# For a step longer than EVERY_S that is the samples just before and after it.
MARGIN_S = 0.05
MIN_SAMPLES = 2

_RNG = np.random.default_rng(0)
_F = np.eye(6) + np.diag(np.full(5, 0.1), 1)
_Q = np.eye(6) * 0.01
_H = np.eye(2, 6)
_R = np.eye(2) * 0.1
_Z = _RNG.normal(size=(60, 2))
_A = _RNG.uniform(0.0, 100.0, size=(150, 2))
_B = _A + _RNG.normal(scale=0.5, size=_A.shape)


def reference() -> float:
    """Fixed work shaped like a tracker step: small Kalman products, Python
    bookkeeping, a distance matrix and one assignment."""
    x = np.zeros(6)
    p = np.eye(6)
    seen: dict = {}
    for i, z in enumerate(_Z):
        x = _F @ x
        p = _F @ p @ _F.T + _Q
        s = _H @ p @ _H.T + _R
        k = p @ _H.T @ np.linalg.inv(s)
        x = x + k @ (z - _H @ x)
        p = (np.eye(6) - k @ _H) @ p
        seen[i % 13] = seen.get(i % 13, 0.0) + float(x[0])
    dist = np.linalg.norm(_A[:, None, :] - _B[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].sum()) + sum(seen.values())


class Speed:
    """Reference samples over a run, and the scale they give each interval."""

    def __init__(self):
        self.at = array("d")        # middle of each reference run
        self.took = array("d")      # its duration
        self._last = float("-inf")

    def sample(self) -> float:
        """Run the reference once; returns the seconds it took.

        The cyclic collector is paused meanwhile: a collection of the
        program's objects would otherwise land on the reference's clock.
        """
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self._last = end
        return end - start

    def tick(self):
        """Sample if `EVERY_S` has passed since the last sample ended."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def stretches(self, start: float, end: float):
        """(starts, ends) of the parts of [start, end] outside reference runs."""
        at = np.frombuffer(self.at, dtype=float)
        took = np.frombuffer(self.took, dtype=float)
        lo, hi = np.searchsorted(at, [start, end])
        half = took[lo:hi] / 2
        return (np.concatenate([[start], at[lo:hi] + half]),
                np.concatenate([at[lo:hi] - half, [end]]))

    def scale(self, starts, ends) -> np.ndarray:
        """`REFERENCE_S` over the median reference time around each interval."""
        at = np.frombuffer(self.at, dtype=float)
        took = np.frombuffer(self.took, dtype=float)
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        lo = np.searchsorted(at, starts - MARGIN_S)
        hi = np.searchsorted(at, ends + MARGIN_S)
        out = np.empty(len(starts))
        for i, (a, b) in enumerate(zip(lo, hi)):
            if b - a < MIN_SAMPLES:
                mid = (starts[i] + ends[i]) / 2
                near = np.argsort(np.abs(at - mid))[:MIN_SAMPLES]
                out[i] = np.median(took[near])
            else:
                out[i] = np.median(took[a:b])
        return REFERENCE_S / out
