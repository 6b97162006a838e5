import os
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gradedroots import engine
from gradedroots.plumbing import graph_from_json
from gradedroots.spinc import enumerate_spinc
from gradedroots.roots import (ConditionViolated, EmptyTau, GradedRoot,
                               SweepIndexError, TauFunction, ZUModule,
                               descent_prefix, dot_export, label_sweep,
                               level_sweep, merge_tree, module_of_root,
                               rank_red_from_tau, ray_root, root_from_minima,
                               root_from_tau, segment_sweeps, shift_root, tau_towers)
from conftest import leaves
from slow_reference import canonical_key_dfs, module_of_root_greedy, union_find_root

R1_TAU = (-3, -1, -2, 0, -2)
R2_TAU = (-3, 0, -2, -1, -2)


def n_data_from_tau(vals):
    """Independent route: the (n_i, n_ij) gluing data of a tau function."""
    m = len(vals)
    n_ij = [[max(vals[min(i, j):max(i, j) + 1]) for j in range(m)] for i in range(m)]
    return list(vals), n_ij


def check_root_axioms(root):
    """The axioms read off the edges: each joins adjacent levels, every
    vertex below top_level has exactly one neighbour above it and no
    vertex on top_level has one."""
    chi = root.chi
    ups = Counter()
    for u, v in root.edges:
        assert abs(chi[u] - chi[v]) == 1
        ups[u if chi[u] < chi[v] else v] += 1
    for v in range(len(chi)):
        assert ups[v] == (chi[v] < root.top_level)


def relabelled(root, rng):
    """The same root with its vertex ids permuted and ``parents`` remapped."""
    perm = list(range(len(root.chi)))
    rng.shuffle(perm)
    new = {v: i for i, v in enumerate(perm)}
    new[None] = None
    return GradedRoot(chi=tuple(root.chi[v] for v in perm),
                      parents=tuple(new[root.parents[v]] for v in perm),
                      top_level=root.top_level, truncated=root.truncated)


def test_root_from_tau_r1_structure():
    r = root_from_tau(TauFunction(R1_TAU))
    check_root_axioms(r)
    minima = sorted(r.chi[v] for v in leaves(r))
    assert minima == [-3, -2, -2]
    assert r.min_chi() == -3
    assert r.top_level == 0


def test_r1_r2_same_module_different_roots():
    r1 = root_from_tau(TauFunction(R1_TAU))
    r2 = root_from_tau(TauFunction(R2_TAU))
    assert r1 != r2
    m1, m2 = module_of_root(r1), module_of_root(r2)
    assert m1 == m2
    assert m1 == ZUModule(Fraction(-6), ((Fraction(-4), 1), (Fraction(-4), 2)))
    assert m1.pretty() == "T+[-6] (+) T[-4](1) (+) T[-4](2)"


def test_constant_tau_gives_ray():
    assert root_from_tau(TauFunction((0, 0, 0))) == ray_root(0)
    assert root_from_tau(TauFunction((5,))) == ray_root(5)


def test_alternating_tau():
    r = root_from_tau(TauFunction((0, 1, 0)))
    mins = [r.chi[v] for v in leaves(r)]
    assert mins == [0, 0]
    assert module_of_root(r) == ZUModule(Fraction(0), ((Fraction(0), 1),))


def test_empty_tau():
    with pytest.raises(EmptyTau):
        TauFunction(())


def test_root_from_minima_examples():
    assert root_from_minima([7], [[7]]) == ray_root(7)
    weak = root_from_minima([0, 0], [[0, 1], [1, 0]])
    assert module_of_root(weak) == ZUModule(Fraction(0), ((Fraction(0), 1),))
    # rebuild R1 from its own merge data
    n_i, n_ij = n_data_from_tau(R1_TAU)
    assert root_from_minima(n_i, n_ij) == root_from_tau(TauFunction(R1_TAU))


def test_root_from_minima_conditions():
    with pytest.raises(ConditionViolated):
        root_from_minima([0, 0], [[0, -1], [-1, 0]])  # n_ij < max(n_i, n_j)
    with pytest.raises(ConditionViolated):
        root_from_minima([0, 1], [[1, 2], [2, 1]])    # n_ii != n_i
    with pytest.raises(ConditionViolated):
        # ultrametric violation: n_12 > max(n_01, n_02)
        root_from_minima([0, 0, 0], [[0, 1, 1], [1, 0, 5], [1, 5, 0]])


def test_minima_matches_tau_route_randomized():
    rng = random.Random(7)
    for _ in range(200):
        vals = [rng.randint(-4, 4) for _ in range(rng.randint(1, 9))]
        tau = TauFunction(tuple(vals))
        n_i, n_ij = n_data_from_tau(vals)
        assert root_from_minima(n_i, n_ij) == root_from_tau(tau)


def test_module_of_ray():
    assert module_of_root(ray_root(0)) == ZUModule(Fraction(0))
    assert module_of_root(ray_root(-3)) == ZUModule(Fraction(-6))


def test_weakly_elliptic_module_many_branches():
    for l in (1, 2, 3, 5):
        m = l + 1
        n_ij = [[0 if i == j else 1 for j in range(m)] for i in range(m)]
        root = root_from_minima([0] * m, n_ij)
        mod = module_of_root(root)
        assert mod == ZUModule(Fraction(0), tuple((Fraction(0), 1) for _ in range(l)))


def test_rank_red_from_tau():
    assert rank_red_from_tau(TauFunction(R1_TAU + (0, 1))) == (3, -3)
    assert rank_red_from_tau(TauFunction((0, 0, 0))) == (0, 0)
    # tau(1) <= tau(0): the same closed form
    assert rank_red_from_tau(TauFunction((0, 0, 1, 0, 1))) == (1, 0)


def test_rank_matches_module_randomized():
    rng = random.Random(12)
    for _ in range(1000):
        vals = [0] + [rng.randint(-3, 5) for _ in range(rng.randint(1, 10))]
        tau = TauFunction(tuple(vals))
        rank, mtau = rank_red_from_tau(tau)
        mod = module_of_root(root_from_tau(tau))
        assert rank == mod.rank_reduced()
        assert mtau == min(vals)
        assert mod.tower_degree == 2 * mtau


def _random_tau(rng):
    """A seeded random tau of one of five shapes: small steps (plateaus and
    equal births), one value, all rising, a flat run with dips to one
    level, or wide jumps."""
    shape, m = rng.randrange(5), rng.randint(1, 40)
    if shape == 0:
        vals = [rng.randint(-2, 2) for _ in range(m)]
    elif shape == 1:
        vals = [rng.randint(-5, 5)] * m
    elif shape == 2:
        vals = sorted(rng.randint(-9, 9) for _ in range(m))
    elif shape == 3:
        vals = [rng.choice((0, 0, 3)) for _ in range(m)]
    else:
        vals = [rng.randint(-300, 300) for _ in range(m)]
    return tuple(vals)


def _tau_module(vals):
    return ZUModule(2 * min(vals), tuple(tau_towers(vals)))


def test_tau_towers_match_module_of_root():
    """The towers read off the tau path equal the module of the root built
    from it, on 2 000 seeded random taus; past the last strict descent the
    towers do not change."""
    rng = random.Random(26)
    for _ in range(2000):
        vals = _random_tau(rng)
        expect = module_of_root(root_from_tau(vals))
        assert _tau_module(vals) == expect, vals
        assert _tau_module(descent_prefix(vals)) == expect, vals
        assert tau_towers(vals) == sorted(tau_towers(vals))
    assert tau_towers((4,)) == [] and tau_towers((0, 1, 2)) == []
    assert tau_towers((0, 2, 0)) == [(0, 2)] and tau_towers((1, 1, 1)) == []


def test_tau_towers_on_golden_orbits():
    """On every orbit of the golden graphs the towers read off tau equal
    the module of R_tau and its greedy reference (69 orbits)."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    seen = 0
    for name in ("e8", "sigma237", "star5", "star51"):
        with open(os.path.join(golden, f"{name}.json")) as f:
            g = graph_from_json(f.read())
        cls = engine.classify(g)
        for orb in enumerate_spinc(g):
            vals = engine.tau(g, cls.j0, orb).values
            root = root_from_tau(vals)
            assert _tau_module(vals) == module_of_root(root) == module_of_root_greedy(root)
            seen += 1
    assert seen == 69


def test_shift_root_and_module():
    r = root_from_tau(TauFunction(R1_TAU))
    mod = module_of_root(r)
    for shift in (0, 1, Fraction(-5, 4)):
        shifted = mod.shifted(2 * shift)
        assert shifted.tower_degree == mod.tower_degree + 2 * shift
        assert all(b - a == 2 * shift
                   for (a, _), (b, _) in zip(mod.finite, shifted.finite))
    r_up = shift_root(r, 3)
    assert r_up.min_chi() == r.min_chi() + 3
    assert module_of_root(r_up) == mod.shifted(6)


def test_equality_is_structural():
    r = root_from_tau(TauFunction(R1_TAU))
    # relabel the vertices by a permutation; canonical form must not care
    relabeled = relabelled(r, random.Random(3))
    assert relabeled == r
    assert module_of_root(relabeled) == module_of_root(r)


def test_deep_roots_compare_and_hash():
    """Two branches that span 3 000 levels: the flat key compares and
    hashes them without recursion, and tells a one-level difference in a
    minimum apart."""
    deep, shallower = root_from_tau([0, 3000, 0]), root_from_tau([0, 3000, 1])
    assert deep != shallower
    assert deep == root_from_tau([0, 3000, 0])
    assert hash(deep) == hash(root_from_tau([0, 3000, 0]))
    assert isinstance(hash(shallower), int)
    assert module_of_root(deep) != module_of_root(shallower)


def test_truncate_and_pad():
    r = root_from_tau(TauFunction(R1_TAU))
    cut = r.truncate(-1)
    assert cut.truncated and cut.top_level == -1
    assert sorted(cut.chi[v] for v in leaves(cut)) == [-3, -2, -2]
    padded = ray_root(0).truncate(4)
    assert padded.truncated and padded.top_level == 4
    assert len(padded.chi) == 5
    with pytest.raises(ValueError):
        cut.truncate(5)  # cannot extend a truncated root


def test_random_tau_axioms():
    rng = random.Random(99)
    for _ in range(300):
        vals = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12))]
        check_root_axioms(root_from_tau(TauFunction(tuple(vals))))


def test_invalid_roots_rejected():
    GradedRoot(chi=(0, 1), parents=(1, None), top_level=1)  # the valid shape
    with pytest.raises(ValueError, match="one level up"):
        # a parent two levels up
        GradedRoot(chi=(0, 2), parents=(1, None), top_level=2)
    with pytest.raises(ValueError, match="one level up"):
        # a parent that is no vertex
        GradedRoot(chi=(0, 1), parents=(-1, None), top_level=1)
    with pytest.raises(ValueError, match="has no parent"):
        # a non-top vertex with no way up
        GradedRoot(chi=(0, 1), parents=(None, None), top_level=1)
    with pytest.raises(ValueError, match="has a parent"):
        GradedRoot(chi=(0, 1, 2), parents=(1, 2, 0), top_level=2, truncated=True)
    with pytest.raises(ValueError, match="single ray"):
        GradedRoot(chi=(0, 1, 1, 0), parents=(1, None, None, 2), top_level=1,
                   truncated=False)
    GradedRoot(chi=(0, 1, 1, 0), parents=(1, None, None, 2), top_level=1, truncated=True)
    with pytest.raises(ValueError, match="above top_level"):
        GradedRoot(chi=(0, 1), parents=(None, None), top_level=0, truncated=True)
    with pytest.raises(ValueError, match="3 parents for 2 vertices"):
        GradedRoot(chi=(0, 1), parents=(1, None, None), top_level=1)


def test_dot_export():
    d0 = dot_export(ray_root(0))
    assert d0.count("chi=") == 1 and "ray" in d0
    r1 = root_from_tau(TauFunction(R1_TAU))
    d1 = dot_export(r1, degree_shift=Fraction(3, 2))
    assert d1 == dot_export(r1, degree_shift=Fraction(3, 2))  # deterministic
    assert d1.count("[label=\"chi=") == 7
    assert "deg=15/2" in d1  # -2 * (-3) + 3/2
    y = dot_export(root_from_minima([0, 0], [[0, 1], [1, 0]]))
    assert y.count("->") == 3  # two branch edges + ray link


# ---------------------------------------------------------------------------
# the merge tree against its definition


def brute_force_root(levels, edges, edge_levels, top, truncated):
    """Raw (chi, edges, top_level, truncated) of a root, straight from the
    definition: the components of {level <= n} by graph search for every
    n, vertices numbered by (level, smallest element of the component),
    and a non-truncated root cut at the last level where the number of
    components changes."""
    lo = min(levels)
    comps = []
    for n in range(lo, top + 1):
        adj = {p: [] for p, l in enumerate(levels) if l <= n}
        for (u, v), l in zip(edges, edge_levels):
            if l <= n:
                adj[u].append(v)
                adj[v].append(u)
        comp = {}
        for p in sorted(adj):
            if p in comp:
                continue
            comp[p] = p
            stack = [p]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in comp:
                        comp[y] = p
                        stack.append(y)
        comps.append(comp)
    counts = [len(set(c.values())) for c in comps]
    stop = len(comps) - 1
    if not truncated and counts[-1] == 1:
        stop = max(i for i in range(len(counts)) if i == 0 or counts[i] != counts[i - 1])
    ids, chi, out = {}, [], []
    for i in range(stop + 1):
        for r in sorted(set(comps[i].values())):
            ids[i, r] = len(chi)
            chi.append(lo + i)
    for i in range(stop):
        for r in sorted(set(comps[i].values())):
            out.append((ids[i, r], ids[i + 1, comps[i + 1][r]]))
    return tuple(chi), tuple(out), lo + stop, truncated


def raw(root):
    return root.chi, root.edges, root.top_level, root.truncated


def test_root_from_tau_matches_definition():
    rng = random.Random(31)
    for _ in range(300):
        vals = [rng.randint(-4, 6) for _ in range(rng.randint(1, 12))]
        certified = rng.random() < 0.7
        truncate_at = rng.randint(min(vals), max(vals) + 3) if rng.random() < 0.3 else None
        root = root_from_tau(TauFunction(tuple(vals), certified), truncate_at=truncate_at)
        path = [(i, i + 1) for i in range(len(vals) - 1)]
        expect = brute_force_root(vals, path, [max(vals[i], vals[i + 1]) for i, _ in path],
                                  max(vals) if truncate_at is None else truncate_at,
                                  truncate_at is not None or not certified)
        assert raw(root) == expect, vals


def random_ultrametric(rng, m):
    """(n_i, n_ij) from random merges of clusters, each at or above the
    levels of the two clusters it joins."""
    n_i = [rng.randint(-3, 3) for _ in range(m)]
    N = [[n_i[i] if i == j else None for j in range(m)] for i in range(m)]
    clusters = [([i], n_i[i]) for i in range(m)]
    while len(clusters) > 1:
        a, b = rng.sample(range(len(clusters)), 2)
        (ma, la), (mb, lb) = clusters[a], clusters[b]
        level = max(la, lb) + rng.randint(0, 3)
        for i in ma:
            for j in mb:
                N[i][j] = N[j][i] = level
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append((ma + mb, level))
    return n_i, N


def test_root_from_minima_matches_definition():
    rng = random.Random(32)
    for _ in range(200):
        m = rng.randint(1, 7)
        n_i, N = random_ultrametric(rng, m)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        expect = brute_force_root(n_i, pairs, [N[i][j] for i, j in pairs],
                                  max(max(row) for row in N), False)
        assert raw(root_from_minima(n_i, N)) == expect, (n_i, N)


def test_root_oracle_matches_definition(rng):
    """Oracle roots of small AR trees, every orbit, three levels above min
    chi: the weakly elliptic remark-5.6 graph, a homology sphere whose root
    changes when the vertices of a level are numbered in another order, and
    random stars and trees."""
    from conftest import random_small_tree, random_star, remark56_graph
    from gradedroots import engine, oracle, spinc
    from gradedroots.plumbing import build_graph, canonical_class
    from slow_reference import lattice_edges
    graphs = [remark56_graph(),
              build_graph(list(enumerate((-1, -4, -2, -2, -5, -4))),
                          [(0, 1), (0, 3), (0, 4), (1, 2), (4, 5)])]
    while len(graphs) < 16:
        if len(graphs) % 2:
            g = random_star(rng, max_leg_len=1)
        else:
            g = random_small_tree(rng, s_max=5)
        if g.form.order <= 12 and engine.classify(g).is_ar():
            graphs.append(g)
    branched = 0
    for g in graphs:
        K = canonical_class(g)
        for orb in spinc.enumerate_spinc(g):
            k = orb.k_r
            n_max = oracle.min_chi(g, k) + 3
            lev = oracle.enumerate_sublevel(g, k, n_max)
            points = sorted(zip(lev.chi_values.tolist(), map(tuple, lev.coords.tolist())))
            eu, ev = lattice_edges(np.array([x for _, x in points], dtype=np.int64))
            edges = list(zip(eu.tolist(), ev.tolist()))
            levels = [c for c, _ in points]
            expect = brute_force_root(
                levels, edges, [max(levels[u], levels[v]) for u, v in edges], n_max,
                not (tuple(k.pairings) == tuple(K.pairings) and n_max >= 1))
            assert raw(oracle.root_oracle(g, k, n_max)) == expect
            branched += len(set(expect[0])) < len(expect[0])
    assert branched >= 5


def test_label_sweep_rejects_what_int32_cannot_hold():
    """label_sweep casts labels and edge ends to int32, which wraps
    silently: 2**40 + 5 would become 5.  An edge end outside the elements
    is refused before the cast."""
    levels = np.array([0, 1, 2], dtype=np.int64)
    for eu, ev in (([0], [2 ** 40 + 5]), ([2 ** 40 + 5], [0]), ([-1], [1]), ([0, 1], [1, 3])):
        with pytest.raises(SweepIndexError):
            next(label_sweep(levels, np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64)))
    assert [n for n, _ in label_sweep(levels, np.array([0, 1]), np.array([1, 2]))] == [0, 1, 2]


def test_label_sweep_narrows_the_whole_int64_range():
    """label_sweep sorts levels - min(levels) in the narrowest unsigned
    dtype; levels spanning all of int64 still sweep in order, in the
    caller's units."""
    levels = np.array([2 ** 63 - 1, -2 ** 63, 0], dtype=np.int64)
    swept = [(n, lab.tolist()) for n, lab in label_sweep(levels, np.array([1]), np.array([2]))]
    assert swept == [(-2 ** 63, [0, 1, 2]), (0, [0, 1, 1]), (2 ** 63 - 1, [0, 1, 1])]


def test_segment_sweeps_match_level_sweep():
    """The array sweep of one segment against the union-find and a
    per-level search, on seeded random filtrations with tied and negative
    levels, several components, isolated points and edges entering at
    their higher end, up to a random top below or above the highest
    level, truncated or not: the roots agree field by field, and each
    level's labels are the smallest member of each component.  The levels
    are drawn in nondecreasing order, as segment_sweeps takes them, and it
    is given the sublevel set up to the top, as the oracle gives it."""
    from test_kernels import bfs_labels

    def built(steps):
        try:
            return raw(merge_tree(steps, top=top, truncated=truncated))
        except ValueError as exc:  # no vertex, or no single ray at the top
            return str(exc)

    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        size = rng.randint(1, 30)
        levels = sorted(rng.randint(-4, 3) for _ in range(size))
        edges = [(rng.randrange(size), rng.randrange(size))
                 for _ in range(rng.randint(0, 2 * size))]
        eu = np.array([u for u, _ in edges], dtype=np.int64)
        ev = np.array([v for _, v in edges], dtype=np.int64)
        top = rng.choice([None, rng.randint(min(levels), max(levels) + 2)])
        truncated = rng.random() < 0.5
        links = sorted((max(levels[u], levels[v]), u, v) for u, v in edges)
        expect = built(level_sweep(size, sorted(zip(levels, range(size))), links, top))
        inside = sum(top is None or v <= top for v in levels)
        kept = (eu < inside) & (ev < inside)
        steps = segment_sweeps(levels[:inside], eu[kept], ev[kept], [inside] if inside else [])
        assert built(steps[0] if steps else []) == expect
        if isinstance(expect, tuple):
            seen.add((truncated, top is None or top >= max(levels),
                      len(set(expect[0])) < len(expect[0])))
        else:
            seen.add(expect)
        swept = [(n, [int(lab[p]) if levels[p] <= n else -1 for p in range(size)])
                 for n, lab in label_sweep(levels, eu, ev, top)]
        assert swept == [(n, bfs_labels(levels, edges, n))
                         for n in sorted(set(levels)) if top is None or n <= top]
    assert len(seen) == 9  # 8 kinds of root, and no single ray at the top


def test_segment_sweeps_match_per_segment_union_find():
    """One sweep over many segments against the union-find on each
    segment alone, on seeded random multi-segment filtrations as one
    oracle walk makes them: nondecreasing levels inside each segment,
    negative and differing minima, levels skipped inside some segments,
    single-point segments, edges in random order across segments and a
    top of each segment's own, at or above its highest level.  Each
    segment's root equals its union-find root field by field, or both
    refuse it (no single ray at the top of a non-truncated root)."""

    def built(make, *graph, **options):
        try:
            return raw(make(*graph, **options))
        except ValueError as exc:
            return str(exc)

    rng = random.Random(61)
    single = skipped = branched = 0
    for _ in range(150):
        levels, edges, bounds = [], [], []
        for _ in range(rng.randint(1, 6)):
            size = rng.choice([1, rng.randint(1, 25)])
            low = rng.randint(-6, 6)
            allowed = rng.choice([range(4), [0, 2, 3, 6], [0, 5]])
            seg = sorted(low + rng.choice(allowed) for _ in range(size))
            base = len(levels)
            edges += [(base + rng.randrange(size), base + rng.randrange(size))
                      for _ in range(rng.randint(0, 2 * size))]
            levels += seg
            bounds.append((base, len(levels), max(seg) + rng.randint(0, 2),
                           rng.random() < 0.5))
            single += size == 1
            skipped += any(b - a > 1 for a, b in zip(sorted(set(seg)), sorted(set(seg))[1:]))
        rng.shuffle(edges)
        eu = np.array([u for u, _ in edges], dtype=np.int64)
        ev = np.array([v for _, v in edges], dtype=np.int64)
        steps = segment_sweeps(np.array(levels), eu, ev, [hi for _, hi, _, _ in bounds])
        for own, (lo, hi, top, truncated) in zip(steps, bounds):
            inside = (eu >= lo) & (eu < hi)
            expect = built(union_find_root, levels[lo:hi], eu[inside] - lo, ev[inside] - lo,
                           top=top, truncated=truncated)
            assert built(merge_tree, own, top=top, truncated=truncated) == expect
            branched += isinstance(expect, tuple) and len(set(expect[0])) < len(expect[0])
    assert single >= 20 and skipped >= 50 and branched >= 50
    with pytest.raises(ValueError, match="must not decrease"):
        segment_sweeps([0, 1, 0, 2, 1], np.array([0]), np.array([1]), [2, 5])


def test_descent_prefix_keeps_the_root():
    """The root of a certified tau cut one past its last strict descent
    equals the root of the whole tau, field by field, on seeded random
    taus of every shape: rising tails, no descent at all, plateaus."""
    rng = random.Random(67)
    cut = 0
    for _ in range(2000):
        vals = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 10)))
        vals += tuple(sorted(rng.randint(max(vals[-1], -5), 8)
                             for _ in range(rng.randint(0, 12))))
        prefix = descent_prefix(vals)
        assert vals[:len(prefix)] == prefix
        assert raw(root_from_tau(prefix)) == raw(root_from_tau(vals))
        cut += len(prefix) < len(vals)
    assert cut > 1000
    assert descent_prefix((3, 1, 2, 2, 5)) == (3, 1)
    assert descent_prefix((0, 1, 1)) == (0,)


def test_library_dot_golden():
    """DOT text of asymmetric roots from all three constructions, byte-identical
    to the recorded file."""
    import os
    from conftest import remark56_graph
    from gradedroots import oracle, spinc
    from gradedroots.plumbing import canonical_class
    parts = []
    for vals in [(-3, -1, -2, 0, -2), (-3, 0, -2, -1, -2), (0, 2, -1, 3, 1, 4, -2, 2, 5),
                 (2, 0, 1, 0, 3, -1, 4)]:
        parts.append(dot_export(root_from_tau(TauFunction(vals)), 1))
        parts.append(dot_export(root_from_tau(TauFunction(vals, certified=False))))
        parts.append(dot_export(root_from_tau(TauFunction(vals), truncate_at=3), "-1/2"))
    parts.append(dot_export(root_from_minima(
        [2, 0, 1, 0], [[2, 3, 3, 4], [3, 0, 1, 4], [3, 1, 1, 4], [4, 4, 4, 0]])))
    g = remark56_graph()
    parts.append(dot_export(oracle.root_oracle(g, canonical_class(g), 2)))
    for orb in spinc.enumerate_spinc(g)[:3]:
        parts.append(dot_export(oracle.root_oracle(g, orb.k_r,
                                                   oracle.min_chi(g, orb.k_r) + 3)))
    path = os.path.join(os.path.dirname(__file__), "golden", "library_roots.dot")
    with open(path) as f:
        assert "".join(parts) == f.read()


def test_truncation_below_the_root_is_refused():
    """root_from_tau(truncate_at) below min tau, and GradedRoot.truncate
    below the whole root, raise ValueError."""
    tau = [0, -2, 1, -1, 3]
    with pytest.raises(ValueError, match="below min tau"):
        root_from_tau(tau, truncate_at=-3)
    root = root_from_tau(tau, truncate_at=-2)
    assert root.min_chi() == -2
    with pytest.raises(ValueError, match="below the whole root"):
        root_from_tau(tau).truncate(-3)


def agrees_with_references(root, rng):
    """The one-pass module and key of ``root`` and of a relabelled copy
    against the greedy module and the depth-first key; counts the root as
    stabilized (module and key compared) or truncated (key only)."""
    key = canonical_key_dfs(root)
    for r in (root, relabelled(root, rng)):
        assert r.canonical_key() == canonical_key_dfs(r) == key
        if r.truncated:
            with pytest.raises(ValueError, match="truncated"):
                module_of_root(r)
        else:
            assert module_of_root(r) == module_of_root_greedy(r)
    return Counter(["truncated" if root.truncated else "stabilized"])


def test_one_pass_matches_references_on_taus():
    """Random taus of 1-14 terms in -6..6, certified or not, and their
    truncations at a random level."""
    rng = random.Random(2320)
    seen = Counter()
    for _ in range(600):
        vals = [rng.randint(-6, 6) for _ in range(rng.randint(1, 14))]
        root = root_from_tau(TauFunction(tuple(vals), certified=rng.random() < 0.8))
        seen += agrees_with_references(root, rng)
        cut = rng.randint(min(vals), root.top_level + 2 * (not root.truncated))
        seen += agrees_with_references(root.truncate(cut), rng)
    assert seen == Counter(stabilized=473, truncated=727)


def test_one_pass_matches_references_on_minima():
    """Random valid (n_i, n_ij) data of 1-8 rays, and their truncations."""
    rng = random.Random(2321)
    seen = Counter()
    for _ in range(400):
        root = root_from_minima(*random_ultrametric(rng, rng.randint(1, 8)))
        seen += agrees_with_references(root, rng)
        seen += agrees_with_references(root.truncate(rng.randint(root.min_chi(),
                                                                 root.top_level + 2)), rng)
    assert seen == Counter(stabilized=400, truncated=400)


def test_one_pass_matches_references_on_oracle_roots():
    """The oracle roots of every orbit of the golden graphs, cut above min
    tau as ``verify --oracle`` cuts them, and the engine's roots."""
    import os
    from gradedroots import engine, oracle
    from gradedroots.cli import ORACLE_LEVEL_OFFSET
    from gradedroots.plumbing import graph_from_json
    rng = random.Random(2322)
    seen = Counter()
    for name in ("e8", "sigma237", "star5", "star51"):
        with open(os.path.join(os.path.dirname(__file__), "golden", f"{name}.json")) as f:
            g = graph_from_json(f.read())
        _, reports = engine.analyze_all(g)
        cuts = [rep.min_tau + ORACLE_LEVEL_OFFSET for rep in reports]
        for rep, (root, _) in zip(reports, oracle.graph_roots(
                g, [rep.orbit.k_r for rep in reports], cuts)):
            seen += agrees_with_references(root, rng)
            seen += agrees_with_references(rep.root, rng)
    assert seen == Counter(stabilized=73, truncated=65)
