"""Set-to-set error metrics for tracker output against truth.

The headline metric is OSPA: optimal subpattern assignment distance of
order p with cutoff c, reported together with its localization and
cardinality parts.  Base distances are Euclidean and truncated at the
cutoff before the assignment is solved, so one far-away pairing cannot
trade off against the rest.

The assignment is solved by shortest augmenting paths with dual
potentials (Crouse 2016, "On implementing 2D rectangular assignment
algorithms", IEEE Trans. Aerospace and Electronic Systems 52(4)), the
algorithm scipy.optimize.linear_sum_assignment implements.  OSPA's
matrices are a few entries per side, so the loop runs on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OspaParams:
    """Cutoff c > 0 and order p >= 1."""

    cutoff: float = 100.0
    order: float = 2.0

    def __post_init__(self):
        if not (self.cutoff > 0):
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        if not (self.order >= 1):
            raise ValueError(f"order must be >= 1, got {self.order}")


def assignment_min_cost(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost assignment of a rectangular cost matrix.

    Returns (pairs, total): pairs is (min(m, n), 2) of row/column indices
    sorted by row, total the summed cost over those pairs.  Every row (or
    column, whichever side is smaller) is matched exactly once.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost must be a nonempty 2-D matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    m, n = cost.shape
    if m <= n:
        pairs = list(enumerate(_col_for_row(cost.tolist())))
    else:
        pairs = sorted((r, c) for c, r in enumerate(_col_for_row(cost.T.tolist())))
    pairs = np.array(pairs, dtype=np.intp)
    return pairs, float(cost[pairs[:, 0], pairs[:, 1]].sum())


def _col_for_row(cost: list[list[float]]) -> list[int]:
    """Column assigned to each row of a wide (rows <= columns) cost matrix.

    Each row in turn is joined to the matching by the shortest augmenting
    path in reduced costs cost[i][j] - u[i] - v[j], which stay >= 0 on
    every edge and 0 on matched ones; the potentials are then updated
    along the path's tree.  Ties go to an unassigned column, as in Crouse.
    """
    m, n = len(cost), len(cost[0])
    u, v = [0.0] * m, [0.0] * n
    col4row, row4col = [-1] * m, [-1] * n
    for cur in range(m):
        shortest = [math.inf] * n
        path = [-1] * n
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                reduced = min_val + row[j] - ui - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:  # the rows matched before this path
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _as_points(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 1)
    return np.atleast_2d(arr)


def ospa(x, y, params: OspaParams = OspaParams()) -> tuple[float, float, float]:
    """OSPA distance between two point sets, as (total, localization, cardinality).

    Both sets are arrays of equal-dimension vectors; either may be empty.
    Two empty sets are at distance zero; an empty set against n points is
    at the cutoff.  The decomposition satisfies
    total**p == localization**p + cardinality**p.
    """
    c = params.cutoff
    p = params.order
    xs = _as_points(x)
    ys = _as_points(y)
    if len(xs) > len(ys):
        xs, ys = ys, xs
    m, n = len(xs), len(ys)
    if n == 0:
        return 0.0, 0.0, 0.0
    if m == 0:
        return c, 0.0, c
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"point dimensions differ: {xs.shape[1]} vs {ys.shape[1]}")
    dist = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
    truncated = np.minimum(dist, c) ** p
    _, loc_term = assignment_min_cost(truncated)
    card_term = c ** p * (n - m)
    total = ((loc_term + card_term) / n) ** (1.0 / p)
    loc = (loc_term / n) ** (1.0 / p)
    card = (card_term / n) ** (1.0 / p)
    return float(total), float(loc), float(card)
