import random

import numpy as np

from conftest import chain_level_one_rows
from gradedroots import _kernels
from slow_reference import lattice_edges


def test_lattice_edges():
    coords = np.array([[0, 0], [1, 0], [0, 1], [2, 2]], dtype=np.int64)
    eu, ev = lattice_edges(coords)
    got = sorted(zip(eu.tolist(), ev.tolist()))
    assert got == [(0, 1), (0, 2)]


def test_sublevel_labels():
    # path 0-1-2 at levels 0,1,0 plus an isolated point at level 2
    chi = np.array([0, 0, 1, 2], dtype=np.int64)
    # points sorted by chi: indices 0 and 1 are the two minima, 2 joins them
    eu = np.array([0, 1], dtype=np.int64)
    ev = np.array([2, 2], dtype=np.int64)
    labels = _kernels.sublevel_labels(chi, eu, ev, 0, 2)
    assert labels[0].tolist() == [0, 1, -1, -1]
    assert labels[1].tolist() == [0, 0, 0, -1]
    assert labels[2].tolist() == [0, 0, 0, 3]


def bfs_labels(chi, edges, n):
    """Component labels of {chi <= n} by breadth-first search: each point
    inside gets the smallest index of its component, the others -1."""
    inside = [c <= n for c in chi]
    adj = {p: [] for p in range(len(chi))}
    for u, v in edges:
        if inside[u] and inside[v]:
            adj[u].append(v)
            adj[v].append(u)
    labels = [-1] * len(chi)
    for p in range(len(chi)):
        if inside[p] and labels[p] == -1:
            comp, todo = {p}, [p]
            while todo:
                for w in adj[todo.pop()]:
                    if w not in comp:
                        comp.add(w)
                        todo.append(w)
            for q in comp:
                labels[q] = min(comp)
    return labels


def test_sublevel_labels_match_bfs():
    """Every row of the labelling equals a per-level search, on
    random filtrations with gaps between the levels and rows below the
    lowest and above the highest point."""
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(0, 40)
        chi = [rng.choice([-3, -1, 0, 2, 3, 7]) for _ in range(n)]
        edges = [tuple(rng.sample(range(n), 2))
                 for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)]
        eu = np.array([u for u, _ in edges], dtype=np.int64)
        ev = np.array([v for _, v in edges], dtype=np.int64)
        n_lo = rng.randint(-5, 3)
        n_hi = n_lo + rng.randint(0, 10)
        labels = _kernels.sublevel_labels(np.array(chi, dtype=np.int64), eu, ev, n_lo, n_hi)
        assert labels.shape == (n_hi - n_lo + 1, n)
        for li, row in enumerate(labels.tolist()):
            assert row == bfs_labels(chi, edges, n_lo + li)


def brute_force_edges(coords):
    """Every (u, v) with row v = row u + e_j, by dictionary lookup."""
    rows = [tuple(r) for r in coords.tolist()]
    index = {r: i for i, r in enumerate(rows)}
    edges = []
    for u, r in enumerate(rows):
        for j in range(len(r)):
            v = index.get(r[:j] + (r[j] + 1,) + r[j + 1:])
            if v is not None:
                edges.append((u, v))
    return sorted(edges)


def test_lattice_edges_matches_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        s = rng.randint(1, 6)
        n = rng.randint(0, 120)
        pts = {tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(n)}
        coords = np.array(sorted(pts), dtype=np.int64).reshape(len(pts), s)
        perm = np.array(rng.sample(range(len(pts)), len(pts)), dtype=np.int64)
        coords = coords[perm]
        eu, ev = lattice_edges(coords)
        assert sorted(zip(eu.tolist(), ev.tolist())) == brute_force_edges(coords)


def test_lattice_edges_wide_box():
    """The A_45 level-1 set: 0 and the 2 070 roots +-(e_i + ... + e_j).  Its
    box has 45 coordinates of width 3, so mixed-radix keys over the box
    would need 3^45 > 2^63 values."""
    coords = np.array(chain_level_one_rows(45), dtype=np.int64)
    assert coords.shape == (2071, 45)
    eu, ev = lattice_edges(coords)
    got = sorted(zip(eu.tolist(), ev.tolist()))
    assert len(got) == 4050
    assert got == brute_force_edges(coords)
