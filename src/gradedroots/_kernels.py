"""Array kernels of the sublevel-set oracle.

The oracle enumerates integer points x in a box with h(x) = x^T Q x - c.x
below a limit, joins the points that differ by one basis vector, and reads
off the components of the sublevel sets.  All of it is exact integer
arithmetic.

int64 is used only after the caller proves |h| cannot overflow; otherwise
the box scan runs on Python big integers (dtype=object).
"""

from __future__ import annotations

import numpy as np

from .roots import array_filtration, level_sweep

# ---------------------------------------------------------------------------
# box scan: all integer points of [lo, hi] with x^T Q x - c.x <= limit


_CHUNK = 1 << 17


def _box_scan(Q, c, limit, lo, hi, dtype=np.int64):
    s = len(lo)
    dims = tuple(int(h - l + 1) for l, h in zip(lo, hi))
    total = 1
    for d in dims:
        total *= d
    out_coords, out_h = [], []
    lo_arr = np.asarray(lo, dtype=dtype)
    Qm = np.asarray(Q, dtype=dtype)
    cv = np.asarray(c, dtype=dtype)
    if dtype is object:
        lo_arr = lo_arr + 0  # ensure python ints inside
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        coords = np.stack(np.unravel_index(idx, dims), axis=1).astype(dtype) + lo_arr
        h = ((coords @ Qm) * coords).sum(axis=1) - coords @ cv
        mask = h <= limit
        if mask.any():
            out_coords.append(coords[mask])
            out_h.append(h[mask])
    if not out_coords:
        return (np.empty((0, s), dtype=np.int64), np.empty(0, dtype=np.int64))
    coords = np.concatenate(out_coords).astype(np.int64)
    hv = np.concatenate(out_h)
    return coords, np.asarray([int(v) for v in hv], dtype=np.int64)


def box_scan(Q, c, limit, lo, hi, exact_object=False):
    """All x in the integer box [lo, hi] with x^T Q x - c.x <= limit.

    Returns (coords [N, s] int64, h [N] int64) in odometer (row-major)
    order.  ``exact_object`` selects the big-integer path (used when int64
    bounds cannot be certified)."""
    Q = np.asarray(Q, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if np.any(hi < lo):
        return (np.empty((0, len(lo)), dtype=np.int64), np.empty(0, dtype=np.int64))
    if exact_object:
        return _box_scan(Q.tolist(), [int(v) for v in c], int(limit),
                         [int(v) for v in lo], [int(v) for v in hi], dtype=object)
    return _box_scan(Q, c, int(limit), lo, hi)


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
    outside it.  Each row runs the union-find of :func:`roots.level_sweep`."""
    chi = np.asarray(chi, dtype=np.int64)
    labels = np.full((n_hi - n_lo + 1, len(chi)), -1, dtype=np.int64)
    for li in range(n_hi - n_lo + 1):
        find = None
        for _, _, find in level_sweep(*array_filtration(chi, eu, ev), top=n_lo + li):
            pass
        if find is not None:
            inside = np.nonzero(chi <= n_lo + li)[0]
            labels[li, inside] = [find(p) for p in inside.tolist()]
    return labels
