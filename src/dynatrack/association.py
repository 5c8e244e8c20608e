"""Gated assignment: every pair of points within a gate, and the min-distance
one-to-one pairing of them, one connected component at a time. The tracker
pairs tracks with detections through `associate`; scoring and occlusion pair
ground truth with hypotheses through `in_gate` and the solvers."""
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InputError


@dataclass
class Assignment:
    """`associate`'s result as index arrays.

    `rows`/`cols` are the matched (track, detection) indices in ascending
    row order; the unmatched arrays are their ascending complements.
    """

    rows: np.ndarray
    cols: np.ndarray
    unmatched_tracks: np.ndarray
    unmatched_detections: np.ndarray

    @property
    def matches(self) -> np.ndarray:
        """The matched (track, detection) pairs as a (K, 2) array."""
        return np.column_stack((self.rows, self.cols))


def _shortest_augmenting_paths(cost: list) -> list:
    """Min-cost assignment of every row of a dense cost matrix, given as a
    list of row lists with no more rows than columns; returns each row's
    column.

    This is the shortest augmenting path method of Crouse, "On implementing
    2D rectangular assignment algorithms" (IEEE TAES 52(4), 2016): per row,
    one Dijkstra search over reduced costs to a free column, a dual update
    and one augmentation. The order in which a search scans the columns it
    has not reached, and its preference for a free column among equal
    reduced costs, fix which of several optimal pairings comes out; both
    are those of the common reference implementation of the method, so the
    two return the same pairs. The loops run over Python lists: on the
    small blocks they solve, that is faster than numpy calls over columns.
    """
    n_cols = len(cost[0]) if cost else 0
    inf = float("inf")
    u = [0.0] * len(cost)
    v = [0.0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    for start in range(len(cost)):
        short = [inf] * n_cols   # reduced path cost to each column
        path = [-1] * n_cols     # the row each column was last reached from
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, low = start, 0.0
        while True:
            ci, ui = cost[i], u[i]
            best, at = inf, -1
            for k, j in enumerate(remaining):
                r = low + ci[j] - ui - v[j]
                s = short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                # Among equal costs prefer a free column: it ends the path.
                if s < best or (s == best and row4col[j] < 0):
                    best, at = s, k
            low = best
            j = remaining[at]
            remaining[at] = remaining[-1]
            remaining.pop()
            cols_seen.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows_seen.append(i)
        u[start] += low
        for i in rows_seen:
            u[i] += low - short[col4row[i]]
        for k in cols_seen:
            v[k] -= low - short[k]
        while True:   # augment along the path back from free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


# The most cells one connected block of candidate pairs may span before
# `component_assignment` refuses it. A solve at this size (400 x 400 points
# within one gate of each other) takes under a second; the blocks of real
# scenes are far smaller.
MAX_CONTESTED_CELLS = 160_000


def _components(rows: list, cols: list) -> list:
    """The connected components of the bipartite graph of pairs
    (rows[k], cols[k]), each as the list of its pairs' indices k."""
    by_row: dict = {}
    by_col: dict = {}
    for k, (r, c) in enumerate(zip(rows, cols)):
        by_row.setdefault(r, []).append(k)
        by_col.setdefault(c, []).append(k)
    parts = []
    for first in rows:
        if first not in by_row:
            continue   # already in a component
        part, reached = [], [by_row.pop(first)]
        while reached:   # each row's pairs, pushed when the row is first reached
            pairs = reached.pop()
            part += pairs
            for k in pairs:
                for j in by_col.pop(cols[k], ()):
                    if rows[j] in by_row:
                        reached.append(by_row.pop(rows[j]))
        parts.append(part)
    return parts


def component_assignment(rows, cols, cost, fill):
    """Min-cost one-to-one assignment over sparse candidate pairs.

    (rows[k], cols[k]) are distinct candidate pairs of row and column
    indices, with finite `cost[k]`. A cell that is not a candidate costs
    `fill(shape)` in a block of that shape, more than any candidate, and is
    never kept; so the objective counts candidates only and is a sum over
    the connected components of the bipartite graph they form. A pair whose
    row and column have no other candidate is matched as it is; each larger
    component is solved on its own dense block by the shortest augmenting
    path method (on the transpose if it has more rows than columns).
    Returns the indices k of the matched candidates, ascending.

    A component spanning more than MAX_CONTESTED_CELLS cells raises
    InputError naming its shape before its block is allocated; where the
    pairs' degrees alone prove it too large, the error names that lower
    bound and is raised before the components are searched. A cost in a
    block that is not finite raises ContractViolationError.
    """
    row_degree, col_degree = np.bincount(rows)[rows], np.bincount(cols)[cols]
    lone = (row_degree == 1) & (col_degree == 1)
    if lone.all():
        return np.arange(len(rows))
    shared = (~lone).nonzero()[0]
    if not np.isfinite(cost[shared]).all():
        raise ContractViolationError("assignment cost holds a non-finite entry")
    # The component of pair k spans at least col_degree[k] rows and
    # row_degree[k] columns: refuse a dense crowd here, before the Python
    # search below walks all of its pairs.
    spans = col_degree[shared] * row_degree[shared]
    if spans.max() > MAX_CONTESTED_CELLS:
        k = shared[spans.argmax()]
        raise InputError(
            f"a connected block of at least {col_degree[k]} x "
            f"{row_degree[k]} candidate pairs exceeds the bound of "
            f"{MAX_CONTESTED_CELLS} cells")
    # Contested pairs are few in real scenes, so their components are
    # built and solved in Python, which beats numpy calls on tiny arrays.
    shared_rows, shared_cols = rows[shared].tolist(), cols[shared].tolist()
    shared_cost = cost[shared].tolist()
    matched = []
    for part in _components(shared_rows, shared_cols):
        part_rows = [shared_rows[k] for k in part]
        part_cols = [shared_cols[k] for k in part]
        shape = (len(set(part_rows)), len(set(part_cols)))
        if shape[0] * shape[1] > MAX_CONTESTED_CELLS:
            raise InputError(
                f"a connected block of {shape[0]} x {shape[1]} candidate "
                f"pairs exceeds the bound of {MAX_CONTESTED_CELLS} cells")
        if shape[0] > shape[1]:   # solve the transpose
            part_rows, part_cols = part_cols, part_rows
        row_at = {r: i for i, r in enumerate(sorted(set(part_rows)))}
        col_at = {c: j for j, c in enumerate(sorted(set(part_cols)))}
        no_pair = fill(shape)
        block = [[no_pair] * len(col_at) for _ in row_at]
        pair_at = [[-1] * len(col_at) for _ in row_at]
        for r, c, k in zip(part_rows, part_cols, part):
            i, j = row_at[r], col_at[c]
            block[i][j] = shared_cost[k]
            pair_at[i][j] = k
        for i, j in enumerate(_shortest_augmenting_paths(block)):
            if pair_at[i][j] >= 0:
                matched.append(pair_at[i][j])
    kept = np.concatenate([lone.nonzero()[0], shared[np.array(matched, dtype=np.intp)]])
    kept.sort()
    return kept


def gated_candidates(rows, cols, dist, gate: float):
    """Min-distance one-to-one pairing over in-gate candidate pairs
    (rows[k], cols[k]) with their distances; returns the indices k of the
    matched pairs, ascending.

    This is the CLEAR-MOT matching step (Bernardin & Stiefelhagen, 2008):
    pairs farther apart than `gate` never match. An out-of-gate cell costs
    more than any set of in-gate pairs can, so each block is solved for the
    most in-gate pairs first and then the least summed distance. The
    penalty is sized to the block, `gate * min(shape) + 1`, not a fixed huge
    number, which would swallow small distance differences in rounding.
    """
    return component_assignment(rows, cols, dist,
                                lambda shape: gate * min(shape) + 1.0)


def distance(a: np.ndarray, b: np.ndarray):
    """Euclidean distance over the last axis; every gate decision uses it, so
    a pair at the gate is judged alike everywhere.

    The squared coordinates are added column by column, in order, which for
    points of fewer than 8 coordinates is bitwise `np.linalg.norm(a - b,
    axis=-1)` without a reduction over a 2-element inner axis.
    """
    d = a - b
    total = d[..., 0] * d[..., 0]
    for k in range(1, d.shape[-1]):
        total += d[..., k] * d[..., k]
    return np.sqrt(total)


# `in_gate` widens its x window by this share of |x| + gate, far more than the
# rounding of x +- gate, so no pair the distance test keeps falls outside it.
X_WINDOW_MARGIN = 1e-9


def in_gate(a, b, gate: float, groups=None):
    """Every pair of points `a (n, k)`, `b (m, k)` within `gate`, as (rows of a,
    rows of b, distances): rows ascending, each distance bitwise that of
    `distance`, the order of a row's pairs unspecified. Only the points of
    b within +-gate in x of a point of a, found by binary search, get a
    distance.

    `groups`, if given, is a pair of integer label arrays `(n,)` and `(m,)`:
    then only points with equal labels pair. The result holds the same
    pairs as one ungrouped call per label, rows mapped back to a and b.
    A row of b is then found by the exact integer key `s * (m + 1) + r`,
    where `s` is where its label's rows start in label order and `r` is the
    rank of its x among all of b's x, so the labels' x windows never
    overlap whatever the labels or coordinates. A gate that is not finite
    and positive raises ContractViolationError.
    """
    if not 0 < gate < np.inf:
        raise ContractViolationError(f"gate must be finite and > 0, got {gate}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0)
    # numpy's default sort is a vectorised quicksort; its stable sort, a
    # timsort, mispredicts its branches on every new frame. A window spans
    # every tie of its end points, so the order of tied x sets only the
    # order of a row's pairs.
    order = b[:, 0].argsort()
    bx = b[:, 0].take(order)
    # numpy's binary search starts from the previous key's bound when the
    # keys ascend, so the points of a are searched in ascending x and their
    # `lo` and `counts` put back in a's row order.
    by_x = a[:, 0].argsort()
    ax = a[:, 0].take(by_x)
    reach = gate + X_WINDOW_MARGIN * (np.abs(ax) + gate)
    lo = np.empty(len(a), dtype=np.intp)
    counts = np.empty(len(a), dtype=np.intp)
    lo[by_x] = bx.searchsorted(ax - reach, side="left")
    counts[by_x] = bx.searchsorted(ax + reach, side="right")
    if groups is not None:
        order, lo, counts = _label_windows(order, lo, counts, *groups)
    counts -= lo
    rows = np.arange(len(a)).repeat(counts)
    # Candidate i of row r sits at sorted index lo[r] + (i - first[r]).
    first = counts.cumsum() - counts
    cols = order[np.arange(len(rows)) + (lo - first).repeat(counts)]
    dist = distance(a.take(rows, axis=0), b.take(cols, axis=0))
    inside = (dist <= gate).nonzero()[0]
    return rows.take(inside), cols.take(inside), dist.take(inside)


def _label_windows(order, lo, hi, a_labels, b_labels):
    """`in_gate`'s x windows [lo, hi) into b's x order, narrowed to each
    point's label: returns b's order by (label, x) and the windows into it.

    Within one label the x ranks ascend, so a window of ranks is a window
    of keys; an a label that b lacks gets an empty window.
    """
    m = len(order)
    labels = np.asarray(b_labels).take(order)
    by_label = labels.argsort(kind="stable")
    labels = labels.take(by_label)
    start = labels.searchsorted(labels, side="left")
    keys = start * (m + 1) + by_label
    a_labels = np.asarray(a_labels)
    a_start = labels.searchsorted(a_labels, side="left")
    a_stop = labels.searchsorted(a_labels, side="right")
    base = a_start * (m + 1)
    lo = keys.searchsorted(base + lo, side="left")
    hi = np.minimum(keys.searchsorted(base + hi, side="left"), a_stop)
    return order.take(by_label), lo, np.maximum(hi, lo)


def associate(track_positions, detection_positions, gate: float) -> Assignment:
    """Min-distance one-to-one pairing of `track_positions (n, k)` to
    `detection_positions (m, k)` in which pairs farther apart than `gate`
    never match.

    Only the `in_gate` pairs are candidates, so the n x m distance matrix is
    never built: a pair whose points have no other in-gate partner is
    matched directly, and each larger connected component of the in-gate
    graph is solved on its own (`gated_candidates`). A component spanning
    more than MAX_CONTESTED_CELLS cells raises InputError.

    The result equals a solve of the full n x m matrix with out-of-gate
    cells penalised: its objective, most in-gate pairs and then least summed
    distance, is a sum over the connected components. Only exactly tied
    alternatives can come out differently.
    """
    rows, cols, dist = in_gate(track_positions, detection_positions, gate)
    k = gated_candidates(rows, cols, dist, gate)
    rows, cols = rows.take(k), cols.take(k)
    unmatched_t = np.ones(len(track_positions), dtype=bool)
    unmatched_t[rows] = False
    unmatched_d = np.ones(len(detection_positions), dtype=bool)
    unmatched_d[cols] = False
    return Assignment(rows, cols, unmatched_t.nonzero()[0],
                      unmatched_d.nonzero()[0])
