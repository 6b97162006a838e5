import random

import numpy as np
import pytest

from gradedroots import _kernels


def random_posdef(rng, s):
    """Random positive-definite integer matrix (A^T A + identity)."""
    A = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)]
    Q = [[sum(A[k][i] * A[k][j] for k in range(s)) + (i == j)
          for j in range(s)] for i in range(s)]
    return Q


def test_box_scan_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        s = rng.randint(1, 4)
        Q = random_posdef(rng, s)
        c = [rng.randint(-4, 4) for _ in range(s)]
        lo = [rng.randint(-3, 0) for _ in range(s)]
        hi = [l + rng.randint(0, 4) for l in lo]
        limit = rng.randint(-2, 30)
        coords, h = _kernels.box_scan(Q, c, limit, lo, hi)
        import itertools
        expect = []
        for x in itertools.product(*[range(l, u + 1) for l, u in zip(lo, hi)]):
            val = (sum(Q[i][j] * x[i] * x[j] for i in range(s) for j in range(s))
                   - sum(ci * xi for ci, xi in zip(c, x)))
            if val <= limit:
                expect.append((x, val))
        got = sorted((tuple(row), int(v)) for row, v in zip(coords.tolist(), h.tolist()))
        assert got == sorted(expect)


def test_box_scan_backends_and_object_agree():
    rng = random.Random(11)
    for _ in range(10):
        s = rng.randint(1, 3)
        Q = random_posdef(rng, s)
        c = [rng.randint(-3, 3) for _ in range(s)]
        lo = [-2] * s
        hi = [3] * s
        results = []
        for exact_object in (False, True):
            coords, h = _kernels.box_scan(Q, c, 9, lo, hi, exact_object=exact_object)
            results.append(sorted((tuple(r), int(v))
                                  for r, v in zip(coords.tolist(), h.tolist())))
        assert results[0] == results[1]


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
    s = 45
    rows = [[0] * s]
    for i in range(s):
        for j in range(i, s):
            for sign in (1, -1):
                rows.append([sign if i <= d <= j else 0 for d in range(s)])
    coords = np.array(rows, dtype=np.int64)
    assert coords.shape == (2071, 45)
    eu, ev = _kernels.lattice_edges(coords)
    got = sorted(zip(eu.tolist(), ev.tolist()))
    assert len(got) == 4050
    assert got == brute_force_edges(coords)
