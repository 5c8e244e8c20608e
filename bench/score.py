"""Output checks that need no program code: identity F1 and output digests."""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment


def idf1(truth, hypotheses, threshold: float = 2.0) -> float:
    """Identity F1 (Ristani et al. 2016) on center distance.

    Both inputs are per-frame lists of (id, ground position). It counts the
    same pairs as `dynatrack.metrics.idf1` and solves the same one-to-one
    pairing, but compares a frame's objects in one array operation, so it
    scores a 1000-object crowd in seconds. The corpus workload checks it
    against the program's `evaluate` on every run.
    """
    n_truth = n_hyp = 0
    pairs = []
    for gts, hyps in itertools.zip_longest(truth, hypotheses, fillvalue=()):
        n_truth += len(gts)
        n_hyp += len(hyps)
        if not gts or not hyps:
            continue
        gid = np.array([g for g, _ in gts])
        hid = np.array([h for h, _ in hyps])
        gpos = np.array([p for _, p in gts], dtype=float)
        hpos = np.array([p for _, p in hyps], dtype=float)
        dist = np.linalg.norm(gpos[:, None, :] - hpos[None, :, :], axis=2)
        rows, cols = np.nonzero(dist <= threshold)
        pairs.append(np.stack([gid[rows], hid[cols]], axis=1))
    denom = n_truth + n_hyp
    if not denom:
        return 0.0
    idtp = 0.0
    if pairs:
        pair_ids, overlap = np.unique(np.concatenate(pairs), axis=0,
                                      return_counts=True)
        if len(pair_ids):
            _, gi = np.unique(pair_ids[:, 0], return_inverse=True)
            _, hi = np.unique(pair_ids[:, 1], return_inverse=True)
            gain = np.zeros((gi.max() + 1, hi.max() + 1))
            gain[gi, hi] = overlap
            r, c = linear_sum_assignment(-gain)
            idtp = float(gain[r, c].sum())
    return 2.0 * idtp / denom


def snapshot_pairs(per_frame_snapshots) -> list:
    """Tracker snapshots as per-frame (track id, position) lists."""
    return [[(s.track_id, s.position) for s in frame]
            for frame in per_frame_snapshots]


def digest(per_frame_pairs) -> str:
    """Hash of every (frame, id, exact position) an output holds."""
    h = hashlib.sha256()
    for frame, items in enumerate(per_frame_pairs):
        h.update(frame.to_bytes(4, "little"))
        if items:
            h.update(np.array([i for i, _ in items], dtype=np.int64).tobytes())
            h.update(np.array([p for _, p in items], dtype=float).tobytes())
    return h.hexdigest()


def well_formed(per_frame_pairs) -> bool:
    """Positions finite and ids unique within every frame."""
    for items in per_frame_pairs:
        ids = [i for i, _ in items]
        if len(set(ids)) != len(ids):
            return False
        if items and not np.isfinite(np.array([p for _, p in items])).all():
            return False
    return True
