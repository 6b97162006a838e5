import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import (e8_graph, fraction_inverse, random_small_tree,
                      random_star)
from gradedroots.plumbing import (DualVector, GraphSchemaError, InvalidSite, LatticeVector, NotATree,
                                  NotBlowDownable, NotNegativeDefinite,
                                  ParityViolation, _build_form, blow_down, blow_up,
                                  build_graph, canonical_class,
                                  casson_walker, characteristic_from_pairings,
                                  chi_k, graph_from_json,
                                  k_squared_plus_s, laufer_ascent)
from gradedroots.spinc import smith_normal_form
from gradedroots.lens import dedekind_sum
from slow_reference import (B_inv, _eliminate, adjugate, build_form_by_elimination,
                            invert_form)


def test_single_vertex_m2():
    g = build_graph([(0, -2)], [])
    assert g.form.det == -2
    assert g.form.B == ((-2,),)


def test_single_vertex_zero_rejected():
    with pytest.raises(NotNegativeDefinite):
        build_graph([(0, 0)], [])
    with pytest.raises(NotNegativeDefinite) as ex:
        build_graph([(0, -2), (1, 2)], [(0, 1)])
    assert "2" in str(ex.value)  # failing minor index named


def test_e8_determinant():
    assert abs(e8_graph().form.det) == 1


def test_tree_validation():
    with pytest.raises(NotATree, match="duplicate vertex"):
        build_graph([(0, -2), (0, -2)], [])
    with pytest.raises(NotATree, match="unknown vertex"):
        build_graph([(0, -2)], [(0, 1)])
    with pytest.raises(NotATree, match="self-loop"):
        build_graph([(0, -2)], [(0, 0)])
    with pytest.raises(NotATree, match="cycle"):
        build_graph([(0, -2), (1, -2), (2, -2)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATree, match="disconnected"):
        build_graph([(0, -2), (1, -2)], [])
    with pytest.raises(NotATree, match="duplicate edge"):
        build_graph([(0, -2), (1, -2)], [(0, 1), (1, 0)])


def _union_find_tree_message(ids, edges):
    """The tree check of build_graph as a union-find over the edges in input
    order, kept as the reference for its messages (None for a tree)."""
    index = {v: i for i, v in enumerate(ids)}
    parent = list(range(len(ids)))
    adj = [[] for _ in ids]
    norm_edges = []

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def path(a, b):
        prev = {a: None}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for w in adj[u]:
                if w not in prev:
                    prev[w] = u
                    stack.append(w)
        walk = [b]
        while prev[walk[-1]] is not None:
            walk.append(prev[walk[-1]])
        return [(ids[u], ids[v]) for u, v in zip(walk, walk[1:])] + [(ids[a], ids[b])]

    for a, b in edges:
        if a not in index or b not in index:
            return f"edge ({a}, {b}) references unknown vertex id"
        ia, ib = index[a], index[b]
        if ia == ib:
            return f"self-loop at vertex {a}"
        pair = (min(ia, ib), max(ia, ib))
        if pair in norm_edges:
            return f"duplicate edge ({a}, {b})"
        ra, rb = find(ia), find(ib)
        if ra == rb:
            return f"cycle through edges {path(ia, ib)}"
        parent[ra] = rb
        adj[ia].append(ib)
        adj[ib].append(ia)
        norm_edges.append(pair)
    comps = {}
    for i in range(len(ids)):
        comps.setdefault(find(i), []).append(ids[i])
    if len(comps) > 1:
        return f"graph is disconnected; components {sorted(comps.values())}"
    return None


def test_tree_messages_match_union_find_reference():
    """Seeded random edge lists (trees, trees plus one edge, forests and
    mixed lists with unknown ids, self-loops and duplicates): build_graph
    accepts exactly the trees and names the same certificate as the
    union-find reference."""
    rng = random.Random(6006)
    kinds = {"tree": 0, "tree+1": 0, "forest": 0, "mixed": 0}
    outcomes = set()
    for trial in range(800):
        s = rng.randint(1, 12)
        ids = rng.sample(range(100), s)
        tree = [(ids[i], ids[rng.randrange(i)]) for i in range(1, s)]
        kind = list(kinds)[trial % 4]
        edges = list(tree)
        if kind == "tree+1":
            edges.append((rng.choice(ids), rng.choice(ids)))
        elif kind == "forest":
            edges = rng.sample(tree, rng.randint(0, len(tree)))
        elif kind == "mixed":
            for _ in range(rng.randint(1, 4)):
                edges.append(rng.choice([(rng.choice(ids), rng.choice(ids)),
                                         (rng.choice(ids), 100 + rng.randrange(5)),
                                         rng.choice(tree) if tree else (ids[0], ids[0])]))
            edges = rng.sample(edges, rng.randint(0, len(edges)))
        edges = [e[::-1] if rng.random() < 0.5 else e for e in rng.sample(edges, len(edges))]
        kinds[kind] += 1
        expect = _union_find_tree_message(ids, edges)
        verts = [(v, -(s + 1)) for v in ids]
        if expect is None:
            g = build_graph(verts, edges)
            assert len(g.edges) == s - 1
            outcomes.add("tree")
        else:
            with pytest.raises(NotATree) as ex:
                build_graph(verts, edges)
            assert str(ex.value) == expect, (ids, edges)
            outcomes.add(expect.split(" ")[0])
    assert outcomes == {"tree", "edge", "self-loop", "duplicate", "cycle", "graph"}


def test_invert_form_examples():
    assert invert_form([[-2]]) == ((Fraction(-1, 2),),)
    inv = invert_form([[-2, 1], [1, -2]])
    assert inv == ((Fraction(-2, 3), Fraction(-1, 3)),
                   (Fraction(-1, 3), Fraction(-2, 3)))
    # |det| = 1 forces an integral inverse on E8
    for row in B_inv(e8_graph().form):
        assert all(v.denominator == 1 for v in row)


def test_inverse_identity_and_sign(rng):
    for _ in range(25):
        g = random_small_tree(rng)
        B, Binv = g.form.B, B_inv(g.form)
        s = g.s
        for i in range(s):
            for j in range(s):
                acc = sum(Fraction(B[i][t]) * Binv[t][j] for t in range(s))
                assert acc == (1 if i == j else 0)
                assert Binv[i][j] <= 0


def _leibniz_det(M):
    s = len(M)
    total = 0
    for perm in itertools.permutations(range(s)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(s) for j in range(i + 1, s))
        for i, p in enumerate(perm):
            term *= M[i][p]
        total += term
    return total


def _check_adjugate(M):
    """adjugate(M) against M adj = det I and the Fraction inverse; the
    determinant, with its sign, by the Leibniz formula up to size 6."""
    s = len(M)
    adj, det = adjugate(M)
    if s <= 6:
        assert det == _leibniz_det(M)
    for i in range(s):
        for j in range(s):
            assert sum(M[i][t] * adj[t][j] for t in range(s)) == (det if i == j else 0)
    inv = fraction_inverse(M)
    assert [[Fraction(a, det) for a in row] for row in adj] == inv
    return adj, det


def test_adjugate_matches_fraction_inverse(rng):
    swapped = 0
    for _ in range(150):
        s = rng.randint(1, 6)
        M = [[rng.randint(-4, 4) for _ in range(s)] for _ in range(s)]
        planted = rng.random() < 0.5
        if planted:
            # row k vanishes on the leading (k+1) x (k+1) block, so that
            # leading minor is 0 and the elimination must swap rows
            k = rng.randrange(s)
            for j in range(k + 1):
                M[k][j] = 0
        try:
            fraction_inverse(M)
        except StopIteration:  # singular
            with pytest.raises(ZeroDivisionError):
                adjugate(M)
            continue
        swapped += planted
        _check_adjugate(M)
    assert swapped > 20


def test_adjugate_unimodular_smith_factor(rng):
    for _ in range(30):
        s = rng.randint(2, 6)
        A = [[rng.randint(-5, 5) for _ in range(s)] for _ in range(s)]
        _, U, V = smith_normal_form(A)
        for W in (U, V):
            adj, det = _check_adjugate(W)
            assert abs(det) == 1


def test_adjugate_negative_definite_trees(rng):
    for _ in range(25):
        g = random_small_tree(rng, s_max=9) if rng.random() < 0.5 else random_star(rng, 4)
        adj, det = _check_adjugate([list(r) for r in g.form.B])
        assert det == g.form.det and (det > 0) == (g.s % 2 == 0)
        assert g.form.adjugate_neg == tuple(tuple((1 if det < 0 else -1) * v for v in r)
                                            for r in adj)
        assert all(v >= 0 for r in g.form.adjugate_neg for v in r)


def _tree_form(rng, s):
    """The form B of a random tree on s vertices, e_j in -4..1, with vertex
    i joined to a vertex before it, so every leading block is a tree."""
    B = [[0] * s for _ in range(s)]
    for i in range(s):
        B[i][i] = rng.randint(-4, 1)
        if i:
            j = rng.randrange(i)
            B[i][j] = B[j][i] = 1
    return B


def _plant_minor(B, k, zero):
    """Set e_{k-1} so that the leading minor of size k vanishes (``zero``)
    or has the wrong sign for a negative-definite form, (-1)^(k-1).  The
    minor is e_{k-1} d + d0, with d the minor of size k - 1 and d0 the
    minor of size k at e_{k-1} = 0; returns False where no integer e_{k-1}
    does it."""
    B[k - 1][k - 1] = 0
    d0 = _eliminate([row[:k] for row in B[:k]])[1]
    d = _eliminate([row[:k - 1] for row in B[:k - 1]])[1] if k > 1 else 1
    if d == 0 or (zero and d0 % d):
        return False
    if zero:
        e = -d0 // d
    else:  # the e nearest the root of e d + d0 that gives it the sign (-1)^(k-1)
        sign = -1 if k % 2 == 0 else 1
        X, t = -sign * d0, sign * d
        e = X // t + 1 if t > 0 else -(-X // t) - 1
    B[k - 1][k - 1] = e
    return True


def test_bordering_form_matches_elimination(rng):
    """The form that _build_form reads off the bordering pass, det and
    adjugate_neg, equals the one of the reference Bareiss elimination on
    seeded random trees; on the non-definite ones both raise
    NotNegativeDefinite with the same message and minor index, also where
    a zero or a wrong-sign leading minor is planted."""
    definite, zeros, wrong = 0, 0, 0
    for _ in range(1500):
        s = rng.randint(1, 7)
        B = _tree_form(rng, s)
        plant = rng.choice((None, "zero", "wrong"))
        k = rng.randint(1, s)
        if plant and not _plant_minor(B, k, plant == "zero"):
            plant = None
        try:
            expect = build_form_by_elimination(B)
        except NotNegativeDefinite as exc:
            with pytest.raises(NotNegativeDefinite) as got:
                _build_form(B)
            assert str(got.value) == str(exc)
            index = int(re.search(r"size (\d+)", str(exc)).group(1))
            zeros += plant == "zero" and index == k
            wrong += plant == "wrong" and index == k
            continue
        form = _build_form(B)
        assert (form.adjugate_neg, form.det) == expect
        definite += 1
    assert definite > 80 and zeros > 150 and wrong > 200


def _ascent_by_smallest_index(B, x, pair, skip=None):
    """Laufer's ascent as first written: one b_j at a time, smallest j first."""
    while True:
        j = next((i for i, p in enumerate(pair) if p > 0 and i != skip), None)
        if j is None:
            return
        x[j] += 1
        pair = [p + B[i][j] for i, p in enumerate(pair)]


def test_laufer_ascent_matches_one_push_at_a_time(rng):
    for _ in range(60):
        g = random_small_tree(rng, s_max=8) if rng.random() < 0.5 else random_star(rng, 3)
        B = g.form.B
        skip = rng.choice([None, rng.randrange(g.s)])
        x0 = [rng.randint(-3, 3) for _ in range(g.s)]
        c = [rng.randint(-6, 6) for _ in range(g.s)]
        pair0 = [ci + sum(B[i][j] * xj for j, xj in enumerate(x0)) for i, ci in enumerate(c)]
        x_slow = list(x0)
        _ascent_by_smallest_index(B, x_slow, list(pair0), skip)
        x, pair = list(x0), list(pair0)
        laufer_ascent(g.e, g.adjacency, x, pair, skip)
        assert x == x_slow
        assert pair == [ci + sum(B[i][j] * xj for j, xj in enumerate(x))
                        for i, ci in enumerate(c)]


def test_canonical_class_examples():
    g = build_graph([(0, -2)], [])
    assert g.dual_from_pairings(canonical_class(g).pairings).coeffs == (Fraction(0),)
    g1 = build_graph([(0, -1)], [])
    assert g1.dual_from_pairings(canonical_class(g1).pairings).coeffs == (Fraction(1),)
    E8 = e8_graph()
    assert all(c == 0 for c in E8.dual_from_pairings(canonical_class(E8).pairings).coeffs)


def test_chi_examples():
    g = build_graph([(0, -2)], [])
    K = canonical_class(g)
    assert chi_k(g, K, (1,)) == 1
    assert chi_k(g, K, LatticeVector([0])) == 0
    E8 = e8_graph()
    KE = canonical_class(E8)
    for j in range(8):
        assert chi_k(E8, KE, tuple(int(i == j) for i in range(8))) == 1


def test_chi_parity_violation():
    g = build_graph([(0, -2)], [])
    with pytest.raises(ParityViolation):
        characteristic_from_pairings(g, (1,))
    K = canonical_class(g)
    bad = type(K)(pairings=(1,))
    with pytest.raises(ParityViolation):
        chi_k(g, bad, (1,))


def test_chi_bilinearity(rng):
    for _ in range(20):
        g = random_small_tree(rng)
        K = canonical_class(g)
        x = LatticeVector([rng.randint(-3, 3) for _ in range(g.s)])
        y = LatticeVector([rng.randint(-3, 3) for _ in range(g.s)])
        assert chi_k(g, K, x + y) == chi_k(g, K, x) + chi_k(g, K, y) - g.pairing(x, y)


def test_vector_types_and_operators():
    """The two coefficient vectors keep their types, reprs, hashes and
    equality: equal coefficients in different types are unequal, and each
    operator returns the type of its left operand."""
    lv, dv = LatticeVector([1, 2]), DualVector([1, 2])
    assert lv != dv and dv != lv
    assert not isinstance(lv, DualVector) and not isinstance(dv, LatticeVector)
    assert type(lv + lv) is LatticeVector and (lv + lv).coeffs == (2, 4)
    assert type(lv - lv) is LatticeVector and type(-lv) is LatticeVector
    assert type(3 * lv) is LatticeVector and (3 * lv).coeffs == (3, 6)
    half = DualVector([Fraction(1, 2), 1])
    assert type(half + lv) is DualVector and (half + lv).coeffs == (Fraction(3, 2), 3)
    assert type(half + (1, 1)) is DualVector and (half - (1, 1)).coeffs == (Fraction(-1, 2), 0)
    assert type(-half) is DualVector and (Fraction(2) * half).coeffs == (1, 2)
    assert repr(lv) == "LatticeVector([1, 2])"
    assert repr(half) == "DualVector(['1/2', '1'])"
    assert hash(lv) == hash(lv.coeffs) and hash(half) == hash(half.coeffs)
    assert lv <= LatticeVector([1, 3]) and LatticeVector([2, 2]) >= lv
    with pytest.raises(TypeError):
        half <= half
    assert list(lv) == [1, 2] and len(half) == 2 and half[0] == Fraction(1, 2)


def test_lattice_vector_refuses_non_integers():
    """A lattice vector refuses a coefficient that is not an integer,
    naming its position and value, and converts an integral one of any
    type; an operator with a rational right operand goes through the same
    check."""
    with pytest.raises(ValueError, match=r"coefficient 0 .* Fraction\(1, 2\), not an integer"):
        LatticeVector([Fraction(1, 2)])
    with pytest.raises(ValueError, match=r"coefficient 1 .* 2\.5, not an integer"):
        LatticeVector([1, 2.5])
    with pytest.raises(ValueError, match=r"coefficient 0 .* Fraction\(3, 2\)"):
        LatticeVector([1, 2]) + DualVector([Fraction(1, 2), 1])
    with pytest.raises(ValueError, match="coefficient 1"):
        Fraction(1, 2) * LatticeVector([2, 3])
    v = LatticeVector([np.int64(3), Fraction(4, 2), 5])
    assert v.coeffs == (3, 2, 5) and all(type(c) is int for c in v)
    assert LatticeVector([1, 2]) + DualVector([1, 1]) == LatticeVector([2, 3])
    assert Fraction(1, 2) * LatticeVector([2, 4]) == LatticeVector([1, 2])


def test_blow_up_invalid_sites():
    """Each bad site raises InvalidSite with its own message: an edge site
    with an unknown end, a pair of vertices that is no edge, and a label
    that is neither."""
    chain = build_graph([(0, -2), (1, -2), (2, -2)], [(0, 1), (1, 2)])
    for site, message in (((0, 9), "edge site (0, 9) references unknown vertex"),
                          ([7, 1], "edge site [7, 1] references unknown vertex"),
                          ((0, 2), "no edge between 0 and 2"),
                          ((1, 1), "no edge between 1 and 1"),
                          (9, "site 9 is neither a vertex label nor an edge"),
                          ((0, 1, 2), "site (0, 1, 2) is neither a vertex label nor an edge")):
        with pytest.raises(InvalidSite, match=re.escape(message)):
            blow_up(chain, site)


def test_pairing_is_dense_form(rng):
    """(y, x) equals the dense y^T B x on random trees, for integer and
    rational y."""
    for _ in range(40):
        g = random_small_tree(rng)
        B = g.form.B
        x = LatticeVector([rng.randint(-3, 3) for _ in range(g.s)])
        for y in (LatticeVector([rng.randint(-3, 3) for _ in range(g.s)]),
                  DualVector([Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                              for _ in range(g.s)])):
            dense = sum(y[i] * B[i][j] * x[j] for i in range(g.s) for j in range(g.s))
            assert g.pairing(y, x) == dense


def test_pairing_refuses_wrong_lengths():
    """A vector with more or fewer coefficients than the graph has vertices
    raises ValueError in pairings, in either slot of pairing and in chi_k,
    instead of being cut or padded."""
    g = build_graph([(0, -2), (1, -2), (2, -2)], [(0, 1), (1, 2)])
    K = canonical_class(g)
    for bad in ((1, 1), (1, 1, 1, 9)):
        with pytest.raises(ValueError, match="coefficients for a graph of 3 vertices"):
            g.pairings(bad)
        with pytest.raises(ValueError):
            g.pairing((1, 0, 1), bad)
        with pytest.raises(ValueError):
            g.pairing(bad, (1, 0, 1))
        with pytest.raises(ValueError):
            chi_k(g, K, bad)


def test_k_squared_plus_s_examples():
    assert k_squared_plus_s(build_graph([(0, -1)], [])) == 0
    g = build_graph([(0, -2)], [])
    val = k_squared_plus_s(g)
    assert val == 1
    # lens closed form for L(2,1): (K^2+s)/4 = (p-1)/(2p) - 3 s(q,p)
    assert val / 4 == Fraction(1, 4) - 3 * dedekind_sum(1, 2)
    assert k_squared_plus_s(e8_graph()) == 8


def test_casson_walker_examples():
    assert casson_walker(build_graph([(0, -2)], [])) == 0
    for p in (2, 3, 5, 7, 11):
        chain = build_graph([(0, -p)], [])
        assert casson_walker(chain) == Fraction(p) * dedekind_sum(1, p) / 2


def test_blow_up_vertex_and_edge():
    g = build_graph([(0, -1)], [])
    b = blow_up(g, 0)
    assert sorted(zip(b.labels, b.e)) == [(0, -2), (1, -1)]
    assert b.edges == ((0, 1),)

    chain = build_graph([(0, -2), (1, -2)], [(0, 1)])
    b2 = blow_up(chain, (0, 1))
    assert sorted(zip(b2.labels, b2.e)) == [(0, -3), (1, -3), (2, -1)]
    assert set(b2.edges) == {(0, 2), (1, 2)}

    with pytest.raises(InvalidSite):
        blow_up(chain, 9)
    with pytest.raises(InvalidSite):
        blow_up(chain, (0, 9))


def test_blow_down_roundtrip():
    g = build_graph([(0, -1)], [])
    assert blow_down(blow_up(g, 0), 1) == g
    chain = build_graph([(0, -2), (1, -2)], [(0, 1)])
    assert blow_down(blow_up(chain, (0, 1)), 2) == chain
    E8 = e8_graph()
    assert blow_down(blow_up(E8, 4), 8) == E8
    with pytest.raises(NotBlowDownable):
        blow_down(chain, 0)
    with pytest.raises(NotBlowDownable):
        blow_down(g, 0)  # last vertex


def test_blow_up_invariance_100_random(rng):
    """K^2+s, Casson-Walker and |det| are blow-up invariants."""
    for _ in range(100):
        g = random_small_tree(rng, s_max=5)
        k2s, lam, det = k_squared_plus_s(g), casson_walker(g), g.form.order
        if rng.random() < 0.5:
            site = rng.randrange(g.s)
        else:
            site = tuple(g.labels[i] for i in rng.choice(g.edges))
        b = blow_up(g, site)
        assert k_squared_plus_s(b) == k2s
        assert casson_walker(b) == lam
        assert b.form.order == det


def test_json_roundtrip_and_unknown_keys():
    g = e8_graph()
    assert graph_from_json(g.to_json()) == g
    with pytest.raises(ValueError, match="unknown keys"):
        graph_from_json({"vertices": [{"id": 0, "e": -2}], "edges": [], "extra": 1})
    with pytest.raises(ValueError, match="unknown keys"):
        graph_from_json({"vertices": [{"id": 0, "e": -2, "genus": 1}], "edges": []})


def test_graph_schema():
    """Vertex ids load as integers or strings; an Euler number that is not
    an integer is refused by graph_from_json and by build_graph alike, and
    never truncated."""
    g = graph_from_json('{"vertices": [{"id": "a", "e": -2}, {"id": 7, "e": -3}],'
                        ' "edges": [["a", 7]]}')
    assert (g.labels, g.e) == (("a", 7), (-2, -3))
    for e in (-2.5, -2.0, True, None, "-2"):
        with pytest.raises(GraphSchemaError, match=r"vertices\[1\]: 'e' must be an integer"):
            graph_from_json({"vertices": [{"id": 0, "e": -2}, {"id": 1, "e": e}],
                             "edges": [[0, 1]]})
    for e in (-2.5, -2.0, Fraction(-2), True, "-2"):
        with pytest.raises(GraphSchemaError, match="vertex 1: Euler number"):
            build_graph([(0, -2), (1, e)], [(0, 1)])
