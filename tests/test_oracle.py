import math
import re

import numpy as np
import pytest

from conftest import (chain_graph, chain_level_one_rows, e8_graph, leaves, random_rational_tree,
                      random_small_tree, random_star, remark56_graph)
from gradedroots import engine, oracle, plumbing, spinc
from gradedroots.plumbing import (LatticeVector, build_graph, canonical_class,
                                  characteristic_from_pairings, chi_k)
from gradedroots.roots import ray_root, shift_root
from slow_reference import adjugate, lattice_edges, union_find_root


def test_single_vertex_levels():
    g = build_graph([(0, -2)], [])
    K = canonical_class(g)
    lev0 = oracle.enumerate_sublevel(g, K, 0)
    assert lev0.coords.ravel().tolist() == [0]
    lev1 = oracle.enumerate_sublevel(g, K, 1)
    assert sorted(lev1.coords.ravel().tolist()) == [-1, 0, 1]
    assert len(set(lev1.labels.tolist())) == 1


def test_rational_zero_level_single_component(rng):
    """#chi_can^{-1}(0)-component count is 1 exactly for rational graphs."""
    for _ in range(10):
        g = random_rational_tree(rng, s_max=5)
        lev = oracle.enumerate_sublevel(g, canonical_class(g), 0)
        assert len(set(lev.labels.tolist())) == 1


def test_root_oracle_rational_is_ray(rng):
    assert oracle.root_oracle(e8_graph(), canonical_class(e8_graph()), 1) == ray_root(0)
    for _ in range(5):
        g = random_rational_tree(rng, s_max=5)
        assert oracle.root_oracle(g, canonical_class(g), 1) == ray_root(0)


def test_root_oracle_remark56():
    g = remark56_graph()
    root = oracle.root_oracle(g, canonical_class(g), 2)
    assert not root.truncated  # canonical class, n_max >= 1
    mins = sorted(root.chi[v] for v in leaves(root))
    assert mins == [0, 0]
    # the two chi = 0 minima are the zero cycle and Artin's fundamental cycle
    from gradedroots.engine import fundamental_cycle
    lev = oracle.enumerate_sublevel(g, canonical_class(g), 0)
    labels = set(lev.labels.tolist())
    assert len(labels) == 2
    zero_comp = lev.component_of([0] * g.s)
    xmin_comp = lev.component_of(fundamental_cycle(g))
    assert zero_comp != xmin_comp


def test_level_too_large():
    g = e8_graph()
    with pytest.raises(oracle.LevelTooLarge):
        oracle.enumerate_sublevel(g, canonical_class(g), 3, point_cap=100)


def test_level_too_large_reports_visited_depth_and_cap():
    g = e8_graph()
    with pytest.raises(oracle.LevelTooLarge) as info:
        oracle.enumerate_sublevel(g, canonical_class(g), 2, point_cap=5000)
    m = re.fullmatch(r"the enumeration visits (\d+) nodes by depth (\d+) of 8, "
                     r"over the point cap 5000", str(info.value))
    assert m is not None, str(info.value)
    assert int(m.group(1)) > 5000 and 1 <= int(m.group(2)) <= 8


def random_posdef(rng, s):
    """Random positive-definite integer matrix (A^T A + identity)."""
    A = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)]
    Q = [[sum(A[k][i] * A[k][j] for k in range(s)) + (i == j)
          for j in range(s)] for i in range(s)]
    return Q


def brute_force_region(Q, c, limit):
    """Every (x, h(x)) with h(x) = x^T Q x - c.x <= limit, by scanning a
    cube.  Q = A^T A + I has least eigenvalue >= 1, so h(x) >= |x|^2 - |c||x|
    and every solution has |x| <= (|c| + sqrt(|c|^2 + 4 limit)) / 2."""
    s = len(c)
    c2 = sum(v * v for v in c)
    if c2 + 4 * limit < 0:
        return []
    R = (math.isqrt(c2) + math.isqrt(c2 + 4 * limit) + 2) // 2
    axis = np.arange(-R, R + 1, dtype=np.int64)
    x = np.stack(np.meshgrid(*[axis] * s, indexing="ij"), axis=-1).reshape(-1, s)
    h = ((x @ np.array(Q, dtype=np.int64)) * x).sum(axis=1) - x @ np.array(c, dtype=np.int64)
    keep = h <= limit
    return sorted(zip(map(tuple, x[keep].tolist()), h[keep].tolist()))


def test_fincke_pohst_matches_brute_force(rng, monkeypatch):
    """The enumeration against a cube scan on random forms, s = 1..5, with
    one to three (c, limit) starts in one walk; each case again with Q, c
    and the limits scaled by 10^7, which drives the enumeration onto object
    integers: the same points for each start, h scaled by 10^7."""
    dtypes = []
    proven = oracle._proven_dtype

    def recording(*args):
        dtypes.append(proven(*args))
        return dtypes[-1]

    monkeypatch.setattr(oracle, "_proven_dtype", recording)
    for _ in range(40):
        s = rng.randint(1, 5)
        Q = random_posdef(rng, s)
        starts = [([rng.randint(-3, 3) for _ in range(s)], rng.randint(-4, 16 if s < 5 else 8))
                  for _ in range(rng.randint(1, 3))]
        expect = [brute_force_region(Q, c, limit) for c, limit in starts]
        for scale in (1, 10 ** 7):
            walk = oracle._fincke_pohst([[v * scale for v in row] for row in Q],
                                        [([v * scale for v in c], limit * scale)
                                         for c, limit in starts], 10 ** 7)
            coords = np.stack(walk.columns(), axis=1).reshape(len(walk.h), s)
            for i, region in enumerate(expect):
                mine = walk.start == i
                got = sorted(zip(map(tuple, coords[mine].tolist()), walk.h[mine].tolist()))
                assert got == [(x, v * scale) for x, v in region]
    assert np.int64 in dtypes and object in dtypes


def test_tree_edges_match_reference(rng):
    """The edges read off the walk's tree equal, as sets, the sorting
    reference slow_reference.lattice_edges run on each start's points
    alone: on random positive-definite forms with one to four starts per
    walk, and on the A_45 level-1 set, whose box has 45 coordinates of
    width 3, too wide for mixed-radix keys.  Scaling Q, c and the limits
    by 10^7 moves a walk onto object integers and must give the same
    edges."""
    cases = []
    for _ in range(40):
        s = rng.randint(1, 6)
        Q = random_posdef(rng, s)
        cases.append((Q, [([rng.randint(-3, 3) for _ in range(s)], rng.randint(0, 12))
                          for _ in range(rng.randint(1, 4))]))
    B = chain_graph(45).form.B
    cases.append(([[-v for v in row] for row in B], [([0] * 45, 2)]))
    several = 0
    for Q, starts in cases:
        walk = oracle._fincke_pohst(Q, starts, 10 ** 7)
        coords = np.stack(walk.columns(), axis=1).reshape(len(walk.h), len(Q))
        expect = set()
        for i in range(len(starts)):
            rows = np.flatnonzero(walk.start == i)
            eu, ev = lattice_edges(coords[rows])
            expect |= set(zip(rows[eu].tolist(), rows[ev].tolist()))
        got = list(zip(walk.eu.tolist(), walk.ev.tolist()))
        assert len(got) == len(set(got)) and set(got) == expect
        several += len(starts) > 1 and len(walk.h) > 1
        if len(Q) <= 6:
            scaled = oracle._fincke_pohst([[v * 10 ** 7 for v in row] for row in Q],
                                          [([v * 10 ** 7 for v in c], limit * 10 ** 7)
                                           for c, limit in starts], 10 ** 7)
            assert list(zip(scaled.eu.tolist(), scaled.ev.tolist())) == got
    assert several >= 15
    assert sorted(coords.tolist()) == sorted(chain_level_one_rows(45))
    assert len(got) == 4050


def test_graph_roots_match_per_orbit_reference(rng):
    """graph_roots, one walk and one sweep for every orbit of a graph,
    against a per-orbit reference on 40 random AR trees, every orbit,
    three levels above min chi: each orbit's points enumerated alone, put
    in (chi, lexicographic) order by Python's sort, joined by
    slow_reference.lattice_edges and swept by the union-find
    (slow_reference.union_find_root).  The roots and the point counts
    must be identical, and enumerate_sublevel must list the points in
    that order."""
    graphs = []
    while len(graphs) < 40:
        g = random_small_tree(rng, s_max=5) if len(graphs) % 2 else random_star(rng, 1)
        if g.form.order <= 12 and engine.classify(g).is_ar():
            graphs.append(g)
    orbits = 0
    for g in graphs:
        K = canonical_class(g).pairings
        ks = [orb.k_r for orb in spinc.enumerate_spinc(g)]
        n_maxes = [oracle.min_chi(g, k) + 3 for k in ks]
        for k, n_max, (root, n_points) in zip(ks, n_maxes, oracle.graph_roots(g, ks, n_maxes)):
            lev = oracle.enumerate_sublevel(g, k, n_max)
            listed = list(zip(lev.chi_values.tolist(), map(tuple, lev.coords.tolist())))
            points = sorted(listed)
            assert listed == points
            chi = np.array([c for c, _ in points], dtype=np.int64)
            eu, ev = lattice_edges(np.array([x for _, x in points], dtype=np.int64))
            expect = union_find_root(chi, eu, ev, top=n_max,
                                     truncated=not (k.pairings == K and n_max >= 1))
            assert (root.chi, root.edges, root.top_level, root.truncated) == \
                (expect.chi, expect.edges, expect.top_level, expect.truncated)
            assert n_points == len(points)
            orbits += 1
    assert orbits > 2 * len(graphs)


def _walk_nodes(g, k, n):
    """The nodes that the walk of (k, n) alone visits."""
    walk, _ = oracle._enumerate_points(g, [k], [n], oracle.DEFAULT_POINT_CAP)
    return sum(len(p) for p in walk.parent)


def test_point_cap_splits_a_walk(monkeypatch):
    """With the cap at the largest single orbit's node count, one walk for
    all eleven orbits of the remark-5.6 graph goes over it and is split
    into halves until each walk fits; the roots equal the uncapped ones."""
    g = remark56_graph()
    ks = [orb.k_r for orb in spinc.enumerate_spinc(g)]
    n_maxes = [oracle.min_chi(g, k) + 6 for k in ks]
    nodes = [_walk_nodes(g, k, n) for k, n in zip(ks, n_maxes)]
    cap = max(nodes)
    assert sum(nodes) > cap
    walks = []
    enumerate_points = oracle._enumerate_points

    def counting(graph, ks, levels, point_cap):
        walks.append(len(ks))
        return enumerate_points(graph, ks, levels, point_cap)

    monkeypatch.setattr(oracle, "_enumerate_points", counting)
    capped = list(oracle.graph_roots(g, ks, n_maxes, point_cap=cap))
    monkeypatch.undo()
    assert capped == list(oracle.graph_roots(g, ks, n_maxes))
    assert walks[0] == len(ks) and len(walks) > 2


def test_point_cap_first_orbit_over_it_fails_as_alone():
    """A single orbit over the cap raises exactly the LevelTooLarge of
    root_oracle on that orbit alone, and the first such orbit is the one
    reported.  At verify --oracle's levels on the remark-5.6 graph, with
    the cap below its two largest (conjugate) orbits, through graph_roots
    and verify_oracle_graph; then with two orbits raised above the cap by
    different amounts, whose messages differ, through graph_roots."""
    from gradedroots.cli import ORACLE_LEVEL_OFFSET, verify_oracle_graph
    g = remark56_graph()
    cls = engine.classify(g)
    orbits = spinc.enumerate_spinc(g)
    ks = [orb.k_r for orb in orbits]
    cuts = [engine.analyze_orbit(g, orb, cls).min_tau + ORACLE_LEVEL_OFFSET for orb in orbits]
    nodes = [_walk_nodes(g, k, n) for k, n in zip(ks, cuts)]
    cap = max(n for n in nodes if n < max(nodes))
    first = nodes.index(max(nodes))
    with pytest.raises(oracle.LevelTooLarge) as alone:
        oracle.root_oracle(g, ks[first], cuts[first], point_cap=cap)
    with pytest.raises(oracle.LevelTooLarge) as passes:
        list(oracle.graph_roots(g, ks, cuts, point_cap=cap))
    with pytest.raises(oracle.LevelTooLarge) as verified:
        verify_oracle_graph(g, point_cap=cap)
    assert str(passes.value) == str(verified.value) == str(alone.value)
    assert f"over the point cap {cap}" in str(alone.value)

    levels = list(cuts)
    levels[1] += 1
    levels[8] += 2
    cap = max(nodes)
    assert min(_walk_nodes(g, ks[i], levels[i]) for i in (1, 8)) > cap
    messages = []
    for i in (1, 8):
        with pytest.raises(oracle.LevelTooLarge) as alone:
            oracle.root_oracle(g, ks[i], levels[i], point_cap=cap)
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    with pytest.raises(oracle.LevelTooLarge) as passes:
        list(oracle.graph_roots(g, ks, levels, point_cap=cap))
    assert str(passes.value) == messages[0]


def test_leading_adjugates_by_bordering(rng):
    """Every leading (adj, det) pair that plumbing._leading_adjugates gives
    equals the reference Bareiss adjugate of that block, on random
    positive-definite forms with s <= 16 and on -B of A_16."""
    forms = [random_posdef(rng, rng.randint(1, 16)) for _ in range(40)]
    B = chain_graph(16).form.B
    forms.append([[-v for v in row] for row in B])
    for Q in forms:
        blocks = plumbing._leading_adjugates(Q)
        assert len(blocks) == len(Q)
        for j, block in enumerate(blocks):
            assert block == adjugate([row[:j + 1] for row in Q[:j + 1]])


def test_chain_level_one_is_output_sensitive():
    """A_35 at level 1 has 1 261 points, well within the default cap, and
    the A_45 level-1 set is 0 and the 2 070 roots."""
    g = chain_graph(35)
    lev = oracle.enumerate_sublevel(g, canonical_class(g), 1)
    assert (len(lev.chi_values), len(set(lev.labels.tolist()))) == (1261, 1)
    g = chain_graph(45)
    lev = oracle.enumerate_sublevel(g, canonical_class(g), 1)
    assert sorted(lev.coords.tolist()) == sorted(chain_level_one_rows(45))


def test_shift_law_randomized(rng):
    """root(k + 2 i(l)) = root(k)[-chi_k(l)] (Prop-3.7 style)."""
    for _ in range(8):
        g = random_small_tree(rng, s_max=4)
        orb = spinc.enumerate_spinc(g)[0]
        k = orb.k_r
        l = LatticeVector([rng.randint(-1, 1) for _ in range(g.s)])
        shift = -chi_k(g, k, l)
        k2 = characteristic_from_pairings(
            g, tuple(c + 2 * p for c, p in zip(k.pairings, g.pairings(l))))
        n_max = oracle.min_chi(g, k) + 3
        r1 = oracle.root_oracle(g, k, n_max)
        r2 = oracle.root_oracle(g, k2, n_max + shift)
        assert shift_root(r1, shift).truncate(n_max + shift) == r2.truncate(n_max + shift)


def test_restricted_skeleton_surjects(rng):
    """Components computed from the S_[k]-points of the sublevel set cover
    every component (Thm-5.1(b) style check)."""
    import numpy as np
    for _ in range(8):
        g = random_small_tree(rng, s_max=4)
        for orb in spinc.enumerate_spinc(g)[:3]:
            lev = oracle.enumerate_sublevel(g, orb.k_r, 1)
            B = np.array(g.form.B, dtype=np.int64)
            pair = lev.coords @ B + np.array(orb.pairings, dtype=np.int64)
            in_s = (pair <= 0).all(axis=1)
            assert set(lev.labels[in_s].tolist()) == set(lev.labels.tolist())


def test_component_zero_structure(rng):
    assert oracle.component_zero_structure(e8_graph())["ok"]
    assert oracle.component_zero_structure(remark56_graph())["ok"]
    for _ in range(3):
        g = random_small_tree(rng, s_max=5)
        assert oracle.component_zero_structure(g)["ok"]


def test_canonical_connected_above_zero(rng):
    """L-bar_{K,<=n} is connected for every n >= 1 (Thm-5.1(d) style)."""
    for _ in range(6):
        g = random_small_tree(rng, s_max=4)
        K = canonical_class(g)
        for n in (1, 2):
            assert len(set(oracle.enumerate_sublevel(g, K, n).labels.tolist())) == 1


def test_min_chi_zero_for_rational(rng):
    for _ in range(5):
        g = random_rational_tree(rng, s_max=5)
        for orb in spinc.enumerate_spinc(g):
            assert oracle.min_chi(g, orb.k_r) == 0


def test_blow_up_root_multiset_invariance(rng):
    """Multisets of truncated oracle roots agree before/after one blow-up."""
    from gradedroots.plumbing import blow_up

    def multiset(graph, offset=4):
        out = []
        for orb in spinc.enumerate_spinc(graph):
            base = oracle.min_chi(graph, orb.k_r)
            root = oracle.root_oracle(graph, orb.k_r, base + offset)
            out.append(root.truncate(base + offset).canonical_key())
        return sorted(out)

    for _ in range(5):
        g = random_small_tree(rng, s_max=4)
        if g.form.order > 12:
            continue
        if rng.random() < 0.5:
            site = rng.randrange(g.s)
        else:
            site = tuple(g.labels[i] for i in rng.choice(g.edges))
        assert multiset(g) == multiset(blow_up(g, site))


@pytest.mark.parametrize("bad, message", [(0, "need n_max >= min chi_k + 1"),
                                          (-1, "empty sublevel set")])
def test_walk_roots_fails_after_a_good_start(bad, message):
    """A start below min chi + 1 (E8: min chi = 0), or below min chi, after
    a good one: the good start's root is yielded first, then the walk
    raises for the bad one."""
    g = e8_graph()
    K = canonical_class(g)
    roots = oracle.graph_roots(g, [K, K], [2, bad])
    root, points = next(roots)
    assert root == oracle.root_oracle(g, K, 2) and points > 1
    with pytest.raises(ValueError, match=re.escape(message)):
        next(roots)
