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
adjugate of a leading block of Q (all s of them from one O(s^3) bordering
pass) and an integer square root.  Every prefix of one depth is processed
at once.  All arithmetic is on integers, int64 where a bound proves it
safe and Python integers otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .plumbing import InvariantViolated, canonical_class
from .roots import array_sweep, merge_tree

DEFAULT_POINT_CAP = 10 ** 7


class LevelTooLarge(ValueError):
    """The enumeration would visit more nodes than the configured cap."""


def _proven_dtype(Q, c, limit, blocks):
    """int64 when a bound proves that every intermediate of
    :func:`_fincke_pohst` has absolute value below 2^62 (so a sum of two
    stays below 2^63), else exact object integers.

    The bound starts from the box of the whole ellipsoid, by the depth-0
    formula on every coordinate: each x_i and each interval end at every
    depth lies within m of 0, because the projection of a slice lies inside
    the projection of the ellipsoid.  From m follow bounds on the folded
    pairings c', the remaining limit L', u = A_j c' and N = 4 D_j L' + c'.u."""
    s = len(c)
    A, D = blocks[-1]
    u = [sum(a * cj for a, cj in zip(row, c)) for row in A]
    N = 4 * D * limit + sum(ci * ui for ci, ui in zip(c, u))
    m = 0 if N < 0 else max((abs(u[i]) + math.isqrt(N * A[i][i])) // (2 * D)
                            for i in range(s)) + 2
    q_sum = sum(abs(v) for row in Q for v in row)
    C = sum(abs(v) for v in c) + 2 * m * q_sum
    L = abs(limit) + m * (m * q_sum + C) + 1
    bound = max(m, C, L)
    for j, (A, D) in enumerate(blocks):
        a_row = max(sum(abs(v) for v in row) for row in A)
        bound = max(bound, a_row, (4 * D * L + (j + 1) * C * a_row * C) * A[j][j])
    return np.int64 if bound < 1 << 62 else object


def _leading_adjugates(Q):
    """(adj Q_j, det Q_j) of every leading block Q_j of a symmetric positive
    definite Q, in O(s^3) by bordering: with A = adj Q_{j-1}, D = det Q_{j-1},
    new column b and diagonal entry q, det Q_j = qD - b.Ab, and adj Q_j has
    upper-left block (det Q_j A + (Ab)(Ab)^T) / D, an exact division, last
    column -Ab and corner D."""
    A, D, blocks = [], 1, []
    for j, row in enumerate(Q):
        b = row[:j]
        Ab = [sum(a * v for a, v in zip(r, b)) for r in A]
        Dj = row[j] * D - sum(x * v for x, v in zip(Ab, b))
        A = [[(Dj * a + x * y) // D for a, y in zip(r, Ab)] + [-x] for r, x in zip(A, Ab)]
        A.append([-x for x in Ab] + [D])
        D = Dj
        blocks.append((A, D))
    return blocks


def _fincke_pohst(Q, c, limit, point_cap):
    """All integer x with h(x) = x^T Q x - c.x <= limit, Q positive definite.

    Breadth-first over x_{s-1}, x_{s-2}, ..., x_0, all prefixes of a depth
    at once.  With x_{j+1..s-1} fixed, the free block x_0..x_j must satisfy
    y^T Q_j y - c'.y <= L' for the leading block Q_j, the pairings c' with
    the fixed coordinates folded in and the remaining limit L'.  With
    A_j = adj(Q_j), D_j = det(Q_j), u = A_j c' and N = 4 D_j L' + c'.u, the
    slice is empty for N < 0 and otherwise projects onto

        x_j in [(u_j - sqrt(N A_j[j][j])) / 2D_j, (u_j + sqrt(N A_j[j][j])) / 2D_j],

    whose integer ends are exact with the integer square root r: the floor
    of (u_j + r) / 2D_j and minus the floor of (r - u_j) / 2D_j.
    ``point_cap`` bounds the nodes visited over all depths.
    Returns (coords [N, s], h [N]), both int64, in no particular order."""
    s = len(c)
    blocks = _leading_adjugates(Q)
    dtype = _proven_dtype(Q, c, limit, blocks)
    Qm = np.array(Q, dtype=dtype)
    coords = np.zeros((1, s), dtype=dtype)
    cp = np.array([c], dtype=dtype)       # c' of every prefix
    rest = np.array([limit], dtype=dtype)  # L' of every prefix
    visited = 0
    for j in range(s - 1, -1, -1):
        A, D = blocks[j]
        u = cp[:, :j + 1] @ np.array(A, dtype=dtype)
        N = 4 * D * rest + (cp[:, :j + 1] * u).sum(axis=1)
        live = np.flatnonzero(N >= 0)
        r = np.frompyfunc(math.isqrt, 1, 1)(N[live] * A[j][j]).astype(dtype)
        uj = u[live, j]
        lo = -((r - uj) // (2 * D))
        count = ((uj + r) // (2 * D) - lo + 1).astype(np.int64)
        total = int(count.sum())
        visited += total
        if visited > point_cap:
            raise LevelTooLarge(f"the enumeration visits {visited} nodes by depth "
                                f"{s - j} of {s}, over the point cap {point_cap}")
        parent = live.repeat(count)
        x = lo.repeat(count) + (np.arange(total) - (np.cumsum(count) - count).repeat(count))
        coords = coords[parent]
        coords[:, j] = x
        rest = rest[parent] - (Q[j][j] * x - cp[parent, j]) * x
        cp = cp[parent, :j] - 2 * x[:, None] * Qm[j, :j]
    if np.any(rest < 0):
        raise InvariantViolated("an enumerated point lies above the limit")
    return coords.astype(np.int64), (limit - rest).astype(np.int64)


@dataclass(frozen=True)
class SublevelComplex:
    """The 0-skeleton of {chi_k <= level} with its component structure."""

    level: int
    coords: np.ndarray        # [N, s] int64, lexicographic order
    chi_values: np.ndarray    # [N] int64
    labels: np.ndarray        # [N] component label (min point index)

    @property
    def n_points(self):
        return len(self.chi_values)

    @property
    def n_components(self):
        return len(set(self.labels.tolist())) if len(self.labels) else 0

    def component_of(self, x):
        row = np.asarray(tuple(x), dtype=np.int64)
        hits = np.nonzero((self.coords == row).all(axis=1))[0]
        if len(hits) != 1:
            raise KeyError(f"{tuple(x)} not in the sublevel set")
        return int(self.labels[hits[0]])


def _enumerate_points(graph, k, n, point_cap):
    s = graph.s
    B = graph.form.B
    Q = [[-B[i][j] for j in range(s)] for i in range(s)]
    c = [int(v) for v in k.pairings]
    coords, h = _fincke_pohst(Q, c, 2 * n, point_cap)
    if np.any(h % 2):
        raise InvariantViolated("chi_k takes a non-integral value")
    chi = h // 2
    # deterministic global order: by chi, then lexicographic coordinates
    if len(chi):
        order = np.lexsort(tuple(coords[:, d] for d in range(s - 1, -1, -1)) + (chi,))
        coords, chi = coords[order], chi[order]
    return coords, chi


def enumerate_sublevel(graph, k, n, point_cap=DEFAULT_POINT_CAP):
    """Complete enumeration of {x in L : chi_k(x) <= n} with components.

    Raises :class:`LevelTooLarge` when the enumeration would visit more than
    ``point_cap`` nodes."""
    coords, chi = _enumerate_points(graph, k, n, point_cap)
    eu, ev = _kernels.lattice_edges(coords)
    labels = _kernels.sublevel_labels(chi, eu, ev, n, n)[0]
    return SublevelComplex(level=n, coords=coords, chi_values=chi, labels=labels)


def root_oracle(graph, k, n_max, point_cap=DEFAULT_POINT_CAP):
    """Graded root of (Gamma, k) up to level n_max, straight from sublevels.

    The merge tree of the enumerated points (entering at chi_k) and their
    lattice edges: vertices at level n are components of the sublevel
    complex, edges are containment between consecutive levels.  For the
    canonical class with n_max >= 1 the result is the exact infinite root
    (all sublevel sets at levels >= 1 are connected); otherwise it is
    marked truncated.
    """
    return _root_and_points(graph, k, n_max, point_cap)[0]


def _root_and_points(graph, k, n_max, point_cap):
    """:func:`root_oracle`'s root and the number of points it was built from."""
    coords, chi = _enumerate_points(graph, k, n_max, point_cap)
    if not len(chi):
        raise ValueError("empty sublevel set; raise n_max above min chi_k")
    if n_max < int(chi.min()) + 1:
        raise ValueError("need n_max >= min chi_k + 1")
    eu, ev = _kernels.lattice_edges(coords)
    K = canonical_class(graph)
    is_canonical = tuple(k.pairings) == tuple(K.pairings)
    root = merge_tree(array_sweep, chi, eu, ev, top=n_max,
                      truncated=not (is_canonical and n_max >= 1))
    return root, len(chi)


def min_chi(graph, k, point_cap=DEFAULT_POINT_CAP):
    """min over L of chi_k, from the points of the (never empty) level-0 set."""
    return int(_enumerate_points(graph, k, 0, point_cap)[1].min())


def component_zero_structure(graph, n=0, point_cap=DEFAULT_POINT_CAP):
    """Check the component of the zero cycle at level 0 for the canonical
    class: every nonzero member must satisfy x < 0 and chi(x) = 0.

    Returns a report dict with the component size and the first
    counterexample, if any."""
    if n != 0:
        raise ValueError(f"the structure statement concerns level 0, not {n}")
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
