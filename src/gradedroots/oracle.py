"""Definition-level oracle: exact enumeration of chi_k sublevel sets.

The sublevel complex of a characteristic element k at level n has 0-skeleton
{x in L : chi_k(x) <= n}, with a 1-cell between x and x + b_j whenever both
ends lie in the set.  The graded root of (Gamma, k) is, by construction, the
tree of connected components of these complexes over all levels, so a direct
enumeration is an independent check of everything the computation-sequence
engine produces.

Writing Q = -B (positive definite) and c_j = k(b_j), the condition
chi_k(x) <= n reads x^T Q x - c.x <= 2n, an ellipsoid.  Its integer points
are enumerated by Fincke-Pohst (Math. Comp. 44, 1985): coordinates are
fixed one at a time, last first, and each is bounded by the projection of
the slice left by the coordinates already fixed, through the integer
adjugate of a leading block of Q (all s of them from the one O(s^3)
bordering pass, :func:`plumbing._leading_adjugates`) and an integer square
root.  Every prefix of one depth is processed at once.  All arithmetic is
on integers, int64 where a bound proves it safe and Python integers
otherwise.

One walk serves every spin^c orbit of a graph.  Q, the adjugates and the
dtype proof depend on the graph alone, so each (k, n) enters as one start
row with its own c and limit 2n, and every node remembers its start.

The walk is kept as its tree: the children of a node are contiguous rows
with consecutive values of the coordinate their depth fixes.  The lattice
edges (x, x + e_j) are read off it without sorting.  The ancestors of x and
x + e_j at the depth that fixes x_j are adjacent siblings; below it the two
subtrees are joined depth by depth, pairing the children of two paired
nodes over the overlap of their child intervals, with repeat/cumsum
arithmetic.  The leaves come out x_{s-1}-major, in the walk's order, which
also fixes every node count that the point cap reads.  One lexsort by
(start, chi, x_0, ..., x_{s-1}) gives each orbit's vertices in the (chi,
lexicographic) order that numbers the root's vertices, and the edges map
through its inverse.  Every lattice edge joins two leaves of one start, so
components never cross orbits: one component sweep of the whole walk, on
each orbit's levels relative to its own minimum, gives every orbit's
sublevel components (:func:`roots.segment_sweeps`), and each orbit's merge
tree reads its own slice of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .plumbing import InvariantViolated, _leading_adjugates, canonical_class
from .roots import _narrow, merge_tree, segment_sweeps
from .spinc import _int_dtype

DEFAULT_POINT_CAP = 10 ** 7


class LevelTooLarge(ValueError):
    """The enumeration would visit more nodes than the configured cap."""


def _proven_dtype(Q, starts, blocks):
    """int64 when a bound proves that every intermediate of
    :func:`_fincke_pohst` has absolute value below 2^62 (so a sum of two
    stays below 2^63) for every (c, limit) in ``starts``, else exact object
    integers.

    The bound is taken once for all starts, from c = the elementwise
    maximum of |c| and limit = the maximum |limit| over them.  It starts
    from the box of the whole ellipsoid, by the depth-0 formula on every
    coordinate: each x_i and each interval end at every depth lies within
    m of 0, because the projection of a slice lies inside the projection
    of the ellipsoid.  Here u = A_j c and N = 4 D_j limit + c.u are
    replaced by |A_j| c and 4 D_j limit + c.|A_j| c, which bound the |u|
    and N of every start.  From m follow bounds on the folded pairings
    c', the remaining limit L', u = A_j c' and N = 4 D_j L' + c'.u, each
    nondecreasing in c, limit and m."""
    s = len(Q)
    c = [max((abs(ci[i]) for ci, _ in starts), default=0) for i in range(s)]
    limit = max((abs(lim) for _, lim in starts), default=0)
    A, D = blocks[-1]
    u = [sum(abs(a) * cj for a, cj in zip(row, c)) for row in A]
    N = 4 * D * limit + sum(ci * ui for ci, ui in zip(c, u))
    m = max((u[i] + math.isqrt(N * A[i][i])) // (2 * D) for i in range(s)) + 2
    q_sum = sum(abs(v) for row in Q for v in row)
    C = sum(c) + 2 * m * q_sum
    L = limit + m * (m * q_sum + C) + 1
    bound = max(m, C, L)
    for j, (A, D) in enumerate(blocks):
        a_row = max(sum(abs(v) for v in row) for row in A)
        bound = max(bound, a_row, (4 * D * L + (j + 1) * C * a_row * C) * A[j][j])
    return _int_dtype(bound)


@dataclass(frozen=True)
class _Walk:
    """The tree of one breadth-first Fincke-Pohst walk.  Depth d fixes
    x_{s-1-d}: node i of depth d has the value x[d][i] and the parent
    parent[d][i] at depth d - 1, or at depth 0 its start row.  The leaves
    are the enumerated points, in the walk's order; ``start``, ``h`` and
    the edge ends ``eu``, ``ev`` (leaf ev = leaf eu + e_j) index them."""

    parent: list
    x: list
    start: np.ndarray
    h: np.ndarray
    eu: np.ndarray
    ev: np.ndarray

    def columns(self, narrow=False):
        """The coordinates x_0, ..., x_{s-1} of the leaves, one array each,
        read up the tree: int64, or with ``narrow`` as :func:`_narrow` sort
        keys of the same order.  Every coordinate lies within the box bound
        m of :func:`_proven_dtype`, below 2^62 on an int64 walk; on an
        object walk a coordinate of 2^63 or more makes the cast raise
        OverflowError (numpy refuses a Python int it cannot hold), never
        wrap."""
        row = np.arange(len(self.h))
        cols = []
        for parent, x in zip(reversed(self.parent), reversed(self.x)):
            cols.append((_narrow(x) if narrow else x.astype(np.int64))[row])
            row = parent[row]
        return cols


def _join(pa, pb, lo, count, first):
    """The pairs of children of the node pairs (pa[i], pb[i]) that fix the
    same value: node a has the children first[a] + t with values lo[a] + t,
    t < count[a], so the pairs come from the overlap of the two intervals.
    Rows are int32, as a depth has fewer than 2^31 of them, and so are the
    pair counts, below 2^31 by the check.  The overlaps n are cast to int64
    from the walk's dtype: both intervals lie within the box bound m of
    :func:`_proven_dtype`, so |n| <= 2m + 2, below 2^63 on an int64 walk;
    on an object walk a value beyond int64 makes the cast raise
    OverflowError, never wrap."""
    la, lb = lo[pa], lo[pb]
    top = np.maximum(la, lb)
    n = (np.minimum(la + count[pa], lb + count[pb]) - top).astype(np.int64)
    keep = np.flatnonzero(n > 0)
    n = n[keep]
    total = int(n.sum())
    if total >= 1 << 31:
        raise ValueError(f"{total} lattice edges at one depth exceed the 2^31 of int32 rows")
    n = n.astype(np.int32)
    ca = (first[pa[keep]] + (top - la)[keep]).astype(np.int32)
    cb = (first[pb[keep]] + (top - lb)[keep]).astype(np.int32)
    del la, lb, top, keep
    step = np.arange(total, dtype=np.int32) - (np.cumsum(n, dtype=np.int32) - n).repeat(n)
    return ca.repeat(n) + step, cb.repeat(n) + step


def _fincke_pohst(Q, starts, point_cap):
    """All integer x with h(x) = x^T Q x - c.x <= limit, Q positive definite,
    for every (c, limit) in ``starts``, by one walk.

    Breadth-first over x_{s-1}, x_{s-2}, ..., x_0, all prefixes of a depth
    at once, from one start row per (c, limit).  With x_{j+1..s-1} fixed,
    the free block x_0..x_j must satisfy y^T Q_j y - c'.y <= L' for the
    leading block Q_j, the pairings c' with the fixed coordinates folded in
    and the remaining limit L'.  With A_j = adj(Q_j), D_j = det(Q_j),
    u = A_j c' and N = 4 D_j L' + c'.u, the slice is empty for N < 0 and
    otherwise projects onto

        x_j in [(u_j - sqrt(N A_j[j][j])) / 2D_j, (u_j + sqrt(N A_j[j][j])) / 2D_j],

    whose integer ends are exact with the integer square root r: the floor
    of (u_j + r) / 2D_j and minus the floor of (r - u_j) / 2D_j.  The dtype
    is the one that :func:`_proven_dtype` proves for all the starts.
    ``point_cap`` bounds the nodes visited over all depths and starts.

    The pairs of rows that differ by one e_i enter as adjacent siblings at
    the depth of x_i and are carried down by :func:`_join`; their row ids
    are int32, as each depth is checked to hold fewer than 2^31 rows before
    they are built.  The node counts, at most 2m + 1 for the box bound m,
    and the values h, within the bound of :func:`_proven_dtype`, are cast
    to int64: below 2^62 on an int64 walk, and on an object walk a value
    of 2^63 or more makes the cast raise OverflowError, never wrap.
    Returns the :class:`_Walk`."""
    s = len(Q)
    blocks = _leading_adjugates(Q)
    dtype = _proven_dtype(Q, starts, blocks)
    Qm = np.array(Q, dtype=dtype)
    # c' and L' of every prefix
    cp = np.array([c for c, _ in starts], dtype=dtype).reshape(len(starts), s)
    rest = limits = np.array([limit for _, limit in starts], dtype=dtype)
    start = np.arange(len(starts))
    pa = pb = np.empty(0, dtype=np.int32)
    parents, xs, visited = [], [], 0
    for j in range(s - 1, -1, -1):
        A, D = blocks[j]
        u = cp[:, :j + 1] @ np.array(A, dtype=dtype)
        N = 4 * D * rest + (cp[:, :j + 1] * u).sum(axis=1)
        live = np.flatnonzero(N >= 0)
        r = np.frompyfunc(math.isqrt, 1, 1)(N[live] * A[j][j]).astype(dtype)
        uj = u[live, j]
        lo = np.zeros(len(N), dtype=dtype)
        lo[live] = -((r - uj) // (2 * D))
        count = np.zeros(len(N), dtype=np.int64)
        count[live] = ((uj + r) // (2 * D) - lo[live] + 1).astype(np.int64)
        total = int(count.sum())
        visited += total
        if visited > point_cap:
            raise LevelTooLarge(f"the enumeration visits {visited} nodes by depth "
                                f"{s - j} of {s}, over the point cap {point_cap}")
        if total >= 1 << 31:
            raise ValueError(f"{total} points exceed the 2^31 rows the lattice edges support")
        first = np.cumsum(count) - count
        parent = np.arange(len(N)).repeat(count)
        x = lo[parent] + (np.arange(total) - first[parent])
        pa, pb = _join(pa, pb, lo, count, first)
        sib = np.flatnonzero(parent[1:] == parent[:-1]).astype(np.int32)
        pa, pb = np.concatenate((pa, sib)), np.concatenate((pb, sib + 1))
        parents.append(parent)
        xs.append(x)
        start = start[parent]
        rest = rest[parent] - (Q[j][j] * x - cp[parent, j]) * x
        cp = cp[parent, :j] - 2 * x[:, None] * Qm[j, :j]
    if np.any(rest < 0):
        raise InvariantViolated("an enumerated point lies above the limit")
    return _Walk(parents, xs, start, (limits[start] - rest).astype(np.int64), pa, pb)


@dataclass(frozen=True)
class SublevelComplex:
    """The 0-skeleton of {chi_k <= level} with its component structure."""

    level: int
    coords: np.ndarray        # [N, s] int64, lexicographic order
    chi_values: np.ndarray    # [N] int64
    labels: np.ndarray        # [N] component label (min point index)

    def component_of(self, x):
        """The label of the point x.  x is read as int64, as the coordinates
        are: a coordinate of 2^63 or more raises OverflowError (numpy
        refuses a Python int it cannot hold), and such a point lies in no
        sublevel set whose coordinates are int64."""
        row = np.asarray(tuple(x), dtype=np.int64)
        hits = np.nonzero((self.coords == row).all(axis=1))[0]
        if len(hits) != 1:
            raise KeyError(f"{tuple(x)} not in the sublevel set")
        return int(self.labels[hits[0]])


def _enumerate_points(graph, ks, levels, point_cap):
    """One walk over the sublevel sets {chi_k <= n} of every (k, n) in
    zip(ks, levels): the :class:`_Walk` and chi of each of its points."""
    s = graph.s
    B = graph.form.B
    Q = [[-B[i][j] for j in range(s)] for i in range(s)]
    starts = [([int(v) for v in k.pairings], 2 * n) for k, n in zip(ks, levels)]
    walk = _fincke_pohst(Q, starts, point_cap)
    if np.any(walk.h % 2):
        raise InvariantViolated("chi_k takes a non-integral value")
    return walk, walk.h // 2


def _vertex_order(walk, chi):
    """The leaves sorted by start, chi and then lexicographically in
    x_0, ..., x_{s-1}, and the edges in that order's vertex ids, int32
    since a walk has fewer than 2^31 leaves."""
    order = np.lexsort(walk.columns(narrow=True)[::-1] + [_narrow(chi), _narrow(walk.start)])
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = np.arange(len(order), dtype=np.int32)
    return order, ids[walk.eu], ids[walk.ev]


def enumerate_sublevel(graph, k, n, point_cap=DEFAULT_POINT_CAP):
    """Complete enumeration of {x in L : chi_k(x) <= n} with components.

    Raises :class:`LevelTooLarge` when the enumeration would visit more than
    ``point_cap`` nodes."""
    walk, chi = _enumerate_points(graph, [k], [n], point_cap)
    order, eu, ev = _vertex_order(walk, chi)
    chi = chi[order]
    labels = _kernels.sublevel_labels(chi, eu, ev, n, n)[0]
    return SublevelComplex(level=n, coords=np.stack(walk.columns(), axis=1)[order],
                           chi_values=chi, labels=labels)


def _walk_roots(graph, ks, levels, truncated, point_cap):
    """:func:`graph_roots`: one walk over every (k, n) while its nodes stay
    within ``point_cap``; otherwise the starts are split in halves, left
    half first, each its own walk, and a single start over the cap raises
    its :class:`LevelTooLarge`.  So each walk stays within the cap, and the
    first start that fails fails as it does alone.  The points of a walk
    are sorted by start, then by (chi, lexicographic) order, and one
    :func:`roots.segment_sweeps` gives every start's components.  The
    roots come out in order, up to the first start whose sublevel set
    cannot make one, which raises in its turn."""
    try:
        found = _enumerate_points(graph, ks, levels, point_cap)
    except LevelTooLarge:
        if len(ks) == 1:
            raise
        found = None
    if found is None:
        half = len(ks) // 2
        yield from _walk_roots(graph, ks[:half], levels[:half], truncated[:half], point_cap)
        yield from _walk_roots(graph, ks[half:], levels[half:], truncated[half:], point_cap)
        return
    walk, chi = found
    order, eu, ev = _vertex_order(walk, chi)
    chi = chi[order]
    ends = np.searchsorted(walk.start[order], np.arange(1, len(ks) + 1)).tolist()
    del found, walk, order  # the sweep needs none of the tree
    error = None
    for i, (lo, hi) in enumerate(zip([0] + ends, ends)):
        if lo == hi or levels[i] < int(chi[lo]) + 1:
            error = ("empty sublevel set; raise n_max above min chi_k" if lo == hi
                     else "need n_max >= min chi_k + 1")
            ends, chi = ends[:i], chi[:lo]
            inside = eu < lo  # an edge joins two points of one start
            eu, ev = eu[inside], ev[inside]
            break
    steps = segment_sweeps(chi, eu, ev, ends)
    del chi, eu, ev
    for lo, hi, top, trunc, own in zip([0] + ends, ends, levels, truncated, steps):
        yield merge_tree(own, top=top, truncated=trunc), hi - lo
    if error:
        raise ValueError(error)


def graph_roots(graph, ks, n_maxes, point_cap=DEFAULT_POINT_CAP):
    """The graded roots of (Gamma, k) up to level n_max for every (k, n_max)
    in zip(ks, n_maxes), from one enumeration walk and one component sweep
    for all of them (see :func:`_walk_roots`).  Yields (root, number of
    points) in order.

    A root is the merge tree of the enumerated points (entering at chi_k)
    and their lattice edges: vertices at level n are components of the
    sublevel complex, edges are containment between consecutive levels.
    For the canonical class with n_max >= 1 the result is the exact
    infinite root (all sublevel sets at levels >= 1 are connected);
    otherwise it is marked truncated."""
    ks, n_maxes = list(ks), list(n_maxes)
    K = tuple(canonical_class(graph).pairings)
    truncated = [not (tuple(k.pairings) == K and n >= 1) for k, n in zip(ks, n_maxes)]
    yield from _walk_roots(graph, ks, n_maxes, truncated, point_cap)


def root_oracle(graph, k, n_max, point_cap=DEFAULT_POINT_CAP):
    """Graded root of (Gamma, k) up to level n_max, straight from sublevels:
    :func:`graph_roots` of the one class k."""
    return next(graph_roots(graph, [k], [n_max], point_cap))[0]


def min_chi(graph, k, point_cap=DEFAULT_POINT_CAP):
    """min over L of chi_k, from the points of the (never empty) level-0 set."""
    return int(_enumerate_points(graph, [k], [0], point_cap)[1].min())


def component_zero_structure(graph, point_cap=DEFAULT_POINT_CAP):
    """Check the component of the zero cycle at level 0 for the canonical
    class: every nonzero member must satisfy x < 0 and chi(x) = 0.

    Returns a report dict with the component size and the first
    counterexample, if any."""
    level = enumerate_sublevel(graph, canonical_class(graph), 0, point_cap=point_cap)
    zero_label = level.component_of([0] * graph.s)
    members = level.coords[level.labels == zero_label]
    chis = level.chi_values[level.labels == zero_label]
    ok = True
    witness = None
    for row, cv in zip(members.tolist(), chis.tolist()):
        if all(v == 0 for v in row):
            continue
        if not (all(v <= 0 for v in row) and any(v < 0 for v in row)) or cv != 0:
            ok = False
            witness = (row, cv)
            break
    return {"ok": ok, "component_size": int(len(members)),
            "counterexample": witness}
