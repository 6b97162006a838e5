import random

import numpy as np

from conftest import chain_level_one_rows
from gradedroots import _kernels


def test_lattice_edges():
    coords = np.array([[0, 0], [1, 0], [0, 1], [2, 2]], dtype=np.int64)
    eu, ev = _kernels.lattice_edges(coords)
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
        eu, ev = _kernels.lattice_edges(coords)
        assert sorted(zip(eu.tolist(), ev.tolist())) == brute_force_edges(coords)


def test_lattice_edges_wide_box():
    """The A_45 level-1 set: 0 and the 2 070 roots +-(e_i + ... + e_j).  Its
    box has 45 coordinates of width 3, so mixed-radix keys over the box
    would need 3^45 > 2^63 values."""
    coords = np.array(chain_level_one_rows(45), dtype=np.int64)
    assert coords.shape == (2071, 45)
    eu, ev = _kernels.lattice_edges(coords)
    got = sorted(zip(eu.tolist(), ev.tolist()))
    assert len(got) == 4050
    assert got == brute_force_edges(coords)
