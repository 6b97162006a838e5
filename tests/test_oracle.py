import re


import pytest

from conftest import e8_graph, random_rational_tree, random_small_tree, remark56_graph
from gradedroots import oracle, spinc
from gradedroots.plumbing import (LatticeVector, build_graph, canonical_class,
                                  characteristic_from_pairings, chi_k)
from gradedroots.roots import ray_root, shift_root


def test_single_vertex_levels():
    g = build_graph([(0, -2)], [])
    K = canonical_class(g)
    lev0 = oracle.enumerate_sublevel(g, K, 0)
    assert lev0.coords.ravel().tolist() == [0]
    lev1 = oracle.enumerate_sublevel(g, K, 1)
    assert sorted(lev1.coords.ravel().tolist()) == [-1, 0, 1]
    assert lev1.n_components == 1


def test_rational_zero_level_single_component(rng):
    """#chi_can^{-1}(0)-component count is 1 exactly for rational graphs."""
    for _ in range(10):
        g = random_rational_tree(rng, s_max=5)
        lev = oracle.enumerate_sublevel(g, canonical_class(g), 0)
        assert lev.n_components == 1


def test_root_oracle_rational_is_ray(rng):
    assert oracle.root_oracle(e8_graph(), canonical_class(e8_graph()), 1) == ray_root(0)
    for _ in range(5):
        g = random_rational_tree(rng, s_max=5)
        assert oracle.root_oracle(g, canonical_class(g), 1) == ray_root(0)


def test_root_oracle_remark56():
    g = remark56_graph()
    root = oracle.root_oracle(g, canonical_class(g), 2)
    assert not root.truncated  # canonical class, n_max >= 1
    mins = sorted(root.chi[v] for v in root.local_minima())
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


def test_level_too_large_reports_volume_budget_and_cap():
    g = e8_graph()
    with pytest.raises(oracle.LevelTooLarge) as info:
        oracle.enumerate_sublevel(g, canonical_class(g), 2, point_cap=5000)
    m = re.fullmatch(r"a leaf box of volume (\d+) exceeds the (\d+) left of "
                     r"the point cap 5000", str(info.value))
    assert m is not None, str(info.value)
    volume, left = int(m.group(1)), int(m.group(2))
    assert left < volume and left <= 5000


def test_component_zero_structure_level_zero_only():
    with pytest.raises(ValueError):
        oracle.component_zero_structure(e8_graph(), n=1)


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
            assert oracle.enumerate_sublevel(g, K, n).n_components == 1


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
