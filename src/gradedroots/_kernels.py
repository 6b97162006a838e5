"""Array kernels of the sublevel-set oracle.

Given the integer points x of a sublevel set {h(x) <= limit}, enumerated
by :mod:`oracle`, the kernels join the points that differ by one basis
vector and read off the components of the sublevel sets.  All of it is
exact integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from .roots import label_sweep

# ---------------------------------------------------------------------------
# adjacency of enumerated points


def _tuple_ids(coords, order, cols):
    """For k = 0 .. len(cols), ids of the tuples coords[p, cols[:k]]:
    equal tuples get equal ids, each below the number of rows n < 2^31.
    ``order`` must sort the rows by those columns, cols[0] first."""
    n = len(coords)
    changed = np.zeros(n - 1, dtype=bool)
    ids = np.zeros(n, dtype=np.int32)
    yield ids
    for d in cols:
        col = coords[order, d]
        changed |= col[1:] != col[:-1]
        ids = np.empty(n, dtype=np.int32)
        ids[order] = np.concatenate(([0], np.cumsum(changed)))
        yield ids


def lattice_edges(coords):
    """Pairs (u, v) of row indices with coords[v] = coords[u] + e_j.

    Rows must be distinct.  For each j the rows are grouped by all their
    coordinates but the j-th, and sorted by the j-th inside a group, so
    u + e_j, when present, follows u.  A group is named by the ids of its
    prefix (columns before j) and suffix (columns after j), both below
    the number of rows n, so the group key stays below n^2 < 2^62; no key
    depends on the width of the box."""
    n, s = coords.shape
    if n >= 1 << 31:
        raise ValueError(f"{n} points exceed the 2^31 rows lattice_edges supports")
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lex = np.lexsort(coords.T[::-1])
    suffix = list(_tuple_ids(coords, np.lexsort(coords.T), range(s - 1, 0, -1)))
    prefix = _tuple_ids(coords, lex, range(s - 1))
    us, vs = [], []
    for j in range(s):
        group = next(prefix).astype(np.int64) * n + suffix[s - 1 - j]
        # stable sort of the lexicographic order keeps each group sorted by x_j
        rows = lex[np.argsort(group[lex], kind="stable")]
        g, x = group[rows], coords[rows, j]
        hit = np.nonzero((g[1:] == g[:-1]) & (x[1:] == x[:-1] + 1))[0]
        us.append(rows[hit])
        vs.append(rows[hit + 1])
    return np.concatenate(us), np.concatenate(vs)


# ---------------------------------------------------------------------------
# level-filtered components


def sublevel_labels(chi, eu, ev, n_lo, n_hi):
    """Component labels of the sublevel sets {chi <= n}, one row for each
    n_lo <= n <= n_hi: labels[li, p] is the smallest point index in the
    component of point p inside {chi <= n_lo + li}, or -1 while p is
    outside it.  One :func:`roots.label_sweep` fills every row: a level
    writes its labels into its row and all later ones."""
    chi = np.asarray(chi, dtype=np.int64)
    labels = np.full((n_hi - n_lo + 1, len(chi)), -1, dtype=np.int64)
    for n, lab in label_sweep(chi, eu, ev, top=n_hi):
        labels[max(n - n_lo, 0):] = lab
    labels[chi > np.arange(n_lo, n_hi + 1)[:, None]] = -1
    return labels
