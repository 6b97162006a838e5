"""Definition-level oracle: exact enumeration of chi_k sublevel sets.

The sublevel complex of a characteristic element k at level n has 0-skeleton
{x in L : chi_k(x) <= n}, with a 1-cell between x and x + b_j whenever both
ends lie in the set.  The graded root of (Gamma, k) is, by construction, the
tree of connected components of these complexes over all levels, so a direct
enumeration is an independent check of everything the computation-sequence
engine produces.

Writing Q = -B (positive definite) and c_j = k(b_j), the condition
chi_k(x) <= n reads x^T Q x - c.x <= 2n, an ellipsoid centred at
mu = Q^{-1} c / 2 with squared radius rho = 2n + c.mu/2.  Enumeration is
complete by classic Fincke-Pohst style bounds: every solution has
|x_i - mu_i| <= sqrt(rho * (Q^{-1})_{ii}), evaluated here in exact rational
arithmetic through the integer adjugate of Q.  Wide boxes are split exactly
(fixing one coordinate gives the Schur-complement subproblem) before the
compiled kernels scan the leaves.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .plumbing import (InvariantViolated, LatticeVector, canonical_class,
                       invert_form, leading_principal_minors)
from .roots import array_filtration, merge_tree

DEFAULT_POINT_CAP = 10 ** 7
_LEAF_VOLUME = 1 << 15


class LevelTooLarge(ValueError):
    """The enumeration would scan more box volume than the configured cap."""


def _floor_plus_sqrt(mu, rad2):
    """max integer t with t <= mu + sqrt(rad2), all exact."""
    if rad2 < 0:
        raise InvariantViolated(f"negative squared radius {rad2}")
    t = math.floor(mu) + math.isqrt(rad2.numerator // rad2.denominator) + 2
    while not (t <= mu or (t - mu) ** 2 <= rad2):
        t -= 1
    return t


def _ceil_minus_sqrt(mu, rad2):
    """min integer t with t >= mu - sqrt(rad2), all exact."""
    return -_floor_plus_sqrt(-mu, rad2)


def _ellipsoid_box(Q_adj, det_q, c, limit):
    """Exact coordinate bounds for {x : x^T Q x - c.x <= limit}.

    Returns (lo, hi) or None when the region is empty.  Q_adj is the
    integer adjugate of Q and det_q = det(Q) > 0."""
    s = len(c)
    adj_c = [sum(Q_adj[i][j] * c[j] for j in range(s)) for i in range(s)]
    c_adj_c = sum(c[i] * adj_c[i] for i in range(s))
    rho = Fraction(limit) + Fraction(c_adj_c, 4 * det_q)
    if rho < 0:
        return None
    lo, hi = [], []
    for i in range(s):
        mu_i = Fraction(adj_c[i], 2 * det_q)
        rad2 = rho * Q_adj[i][i] / det_q
        lo.append(_ceil_minus_sqrt(mu_i, rad2))
        hi.append(_floor_plus_sqrt(mu_i, rad2))
    return lo, hi


def _box_volume(lo, hi):
    vol = 1
    for a, b in zip(lo, hi):
        if b < a:
            return 0
        vol *= b - a + 1
    return vol


def _int64_safe(Q, c, limit, lo, hi):
    m = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
    bound = sum(abs(Q[i][j]) * m[i] * m[j] for i in range(len(c)) for j in range(len(c)))
    bound += sum(abs(ci) * mi for ci, mi in zip(c, m))
    return bound < (1 << 62) and abs(limit) < (1 << 62)


def _adjugate(Q, det_q):
    """Integer adjugate via the exact rational inverse."""
    inv = invert_form(Q)
    s = len(Q)
    adj = []
    for i in range(s):
        row = []
        for j in range(s):
            v = inv[i][j] * det_q
            if v.denominator != 1:
                raise InvariantViolated(f"adjugate entry ({i},{j}) = {v} is not an integer")
            row.append(int(v))
        adj.append(row)
    return adj


def _enumerate_region(Q, adj_q, det_q, c, limit, budget):
    """All integer x with x^T Q x - c.x <= limit, with exact splitting.

    ``budget`` is [remaining scan allowance, configured cap]; every kernel
    leaf charges its box volume against the allowance, so the cap bounds
    actual work rather than the crude top-level box.
    Returns (coords ndarray [N, s], h ndarray [N])."""
    s = len(c)
    box = _ellipsoid_box(adj_q, det_q, c, limit)
    if box is None:
        return np.empty((0, s), dtype=np.int64), np.empty(0, dtype=np.int64)
    lo, hi = box
    vol = _box_volume(lo, hi)
    if vol == 0:
        return np.empty((0, s), dtype=np.int64), np.empty(0, dtype=np.int64)
    if s == 1 or vol <= _LEAF_VOLUME:
        if vol > budget[0]:
            raise LevelTooLarge(f"a leaf box of volume {vol} exceeds the {budget[0]} "
                                f"left of the point cap {budget[1]}")
        budget[0] -= vol
        safe = _int64_safe(Q, c, limit, lo, hi)
        return _kernels.box_scan(Q, c, limit, lo, hi, exact_object=not safe)
    # split along the widest coordinate; fixing x_d = t leaves the
    # same kind of subproblem in the remaining coordinates
    d = max(range(s), key=lambda i: hi[i] - lo[i])
    rest = [i for i in range(s) if i != d]
    Q_sub = [[Q[i][j] for j in rest] for i in rest]
    det_sub = leading_principal_minors(Q_sub)[-1]
    adj_sub = _adjugate(Q_sub, det_sub)
    coords_parts, h_parts = [], []
    for t in range(lo[d], hi[d] + 1):
        c_sub = [c[i] - 2 * t * Q[d][i] for i in rest]
        const = Q[d][d] * t * t - c[d] * t
        sc, sh = _enumerate_region(Q_sub, adj_sub, det_sub, c_sub,
                                   limit - const, budget)
        if len(sh):
            full = np.empty((len(sh), s), dtype=np.int64)
            full[:, d] = t
            full[:, rest] = sc
            coords_parts.append(full)
            h_parts.append(sh + const)
    if not coords_parts:
        return np.empty((0, s), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(coords_parts), np.concatenate(h_parts)


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

    def points(self):
        return [LatticeVector(row) for row in self.coords.tolist()]

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
    adj_q = graph.form.adjugate_neg
    det_q = graph.form.order
    c = [int(v) for v in k.pairings]
    coords, h = _enumerate_region(Q, adj_q, det_q, c, 2 * n, [point_cap, point_cap])
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

    Raises :class:`LevelTooLarge` when the scanned box volume would exceed
    ``point_cap``."""
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
    coords, chi = _enumerate_points(graph, k, n_max, point_cap)
    if not len(chi):
        raise ValueError("empty sublevel set; raise n_max above min chi_k")
    if n_max < int(chi.min()) + 1:
        raise ValueError("need n_max >= min chi_k + 1")
    eu, ev = _kernels.lattice_edges(coords)
    K = canonical_class(graph)
    is_canonical = tuple(k.pairings) == tuple(K.pairings)
    return merge_tree(*array_filtration(chi, eu, ev), top=n_max,
                      truncated=not (is_canonical and n_max >= 1))


def min_chi(graph, k, point_cap=DEFAULT_POINT_CAP):
    """min over L of chi_k, from the (always nonempty) level-0 set."""
    level = enumerate_sublevel(graph, k, 0, point_cap=point_cap)
    return int(level.chi_values.min())


def component_zero_structure(graph, n=0, k=None, point_cap=DEFAULT_POINT_CAP):
    """Check the component of the zero cycle at level 0 for the canonical
    class: every nonzero member must satisfy x < 0 and chi(x) = 0.

    Returns a report dict with the component size and the first
    counterexample, if any."""
    if k is None:
        k = canonical_class(graph)
    if n != 0:
        raise ValueError(f"the structure statement concerns level 0, not {n}")
    level = enumerate_sublevel(graph, k, 0, point_cap=point_cap)
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
