import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import e8_graph, non_ar_graph_a, non_ar_graph_b, pad_chain, random_small_tree
from gradedroots import engine, spinc
from gradedroots.lens import LensSpace
from gradedroots.plumbing import (DualVector, InvariantViolated, LatticeVector, build_graph,
                                  canonical_class, characteristic_from_pairings, chi_k)
from gradedroots.spinc import (NotIntegral, distinguished_rep, enumerate_spinc,
                               m_k, smith_decompose,
                               smith_normal_form)
from gradedroots.seifert import brieskorn
from slow_reference import adjugate, orbit_of, smith_coords, spinc_records


def brute_min_rep(graph, l_prime):
    """Independent oracle for the distinguished representative: the minimum
    of (l' + L) n S_Q has all pairings in [e_j + 1, 0], so enumerate that
    box of pairing vectors, keep the ones congruent to l' mod B L, and pick
    the componentwise-least coefficient vector."""
    c = [int(v) for v in graph.pairings(l_prime)]
    cands = []
    for p in itertools.product(*[range(e + 1, 1) for e in graph.e]):
        diff = [pi - ci for pi, ci in zip(p, c)]
        x = graph.dual_from_pairings(diff)
        if all(a.denominator == 1 for a in x):
            cands.append(l_prime + x)
    best = None
    for cand in cands:
        if all(all(a <= b for a, b in zip(cand.coeffs, other.coeffs))
               for other in cands):
            assert best is None
            best = cand
    assert best is not None, "minimum must lie in the Prop-4.8(a) box"
    return best


def test_smith_examples():
    diag, _, _ = smith_normal_form([[-1]])
    assert diag == [1]
    H = smith_decompose([[-2]])
    assert H.order == 2 and tuple(d for d in H.smith_diag if d > 1) == (2,)
    g = build_graph([(0, -2), (1, -3)], [(0, 1)])
    H = smith_decompose(g.form.B)
    assert H.order == 5
    assert tuple(d for d in H.smith_diag if d > 1) == (5,)


def test_smith_inverse_comes_off_v(rng):
    """smith_decompose reads U^{-1} off V, as B V D^{-1}; it equals the
    reference adjugate of the unimodular U on seeded random nonsingular
    integer matrices, definite or not, and on graph forms."""
    indefinite = 0
    for _ in range(120):
        s = rng.randint(1, 6)
        M = [[rng.randint(-5, 5) for _ in range(s)] for _ in range(s)]
        if rng.random() < 0.3:
            M = [list(r) for r in random_small_tree(rng, s_max=8).form.B]
        diag, U, _ = smith_normal_form(M)
        if 0 in diag:
            continue
        adj, det = adjugate(U)
        assert abs(det) == 1
        assert smith_decompose(M).U_inv == tuple(tuple(v * det for v in r) for r in adj)
        indefinite += any(row[i] >= 0 for i, row in enumerate(M))  # not negative definite
    assert indefinite > 40


def test_smith_inverse_checks_the_division(monkeypatch):
    """A Smith diagonal that does not divide B V is an internal failure."""
    monkeypatch.setattr(spinc, "smith_normal_form",
                        lambda M: ([1, 3], [[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    with pytest.raises(InvariantViolated, match="not divisible"):
        smith_decompose([[-2, 1], [1, -2]])


def exact_det(M):
    m = [[Fraction(v) for v in row] for row in M]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_smith_randomized(rng):
    for _ in range(50):
        n = rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        diag, U, V = smith_normal_form(A)
        # U A V == D
        import numpy as np
        D = np.array(U) @ np.array(A) @ np.array(V)
        assert D.shape == (n, n)
        for i in range(n):
            for j in range(n):
                assert D[i][j] == (diag[i] if i == j else 0)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
        assert abs(exact_det(U)) == 1
        assert abs(exact_det(V)) == 1


def test_enumerate_counts():
    assert len(enumerate_spinc(build_graph([(0, -1)], []))) == 1
    assert len(enumerate_spinc(build_graph([(0, -2)], []))) == 2
    g = build_graph([(0, -2), (1, -3)], [(0, 1)])
    orbs = enumerate_spinc(g)
    assert len(orbs) == 5
    coords = smith_coords(g)
    keys = {coords(o.pairings) for o in orbs}
    assert len(keys) == 5  # pairwise inequivalent


def test_trivial_orbit_rep():
    g = build_graph([(0, -1)], [])
    (orb,) = enumerate_spinc(g)
    assert all(c == 0 for c in orb.l_prime_min.coeffs)


def test_distinguished_rep_zero():
    g = e8_graph()
    zero = DualVector([0] * g.s)
    assert distinguished_rep(g, zero) == zero


def test_distinguished_rep_lens_top_orbit():
    # l'_[-(p-1) g_s] = -((k_1 - 1) g_1 + sum_{i >= 2} (k_i - 2) g_i)
    from gradedroots.lens import LensSpace
    for (p, q) in [(5, 3), (7, 4), (12, 5), (11, 3)]:
        L = LensSpace(p, q)
        g = L.graph
        s = L.s
        gs = g.dual_from_pairings([0] * (s - 1) + [1])  # g_s
        rep = distinguished_rep(g, -(p - 1) * gs)
        expect = [-(L.cf[0] - 1)] + [-(k - 2) for k in L.cf[1:]]
        assert [int(v) for v in g.pairings(rep)] == expect


def test_distinguished_rep_matches_brute_force(rng):
    for _ in range(40):
        g = random_small_tree(rng, s_max=4)
        for orb in enumerate_spinc(g):
            assert orb.l_prime_min == brute_min_rep(g, orb.l_prime_min)


def test_distinguished_rep_idempotent(rng):
    for _ in range(20):
        g = random_small_tree(rng, s_max=5)
        for orb in enumerate_spinc(g):
            assert distinguished_rep(g, orb.l_prime_min) == orb.l_prime_min


def test_not_integral():
    g = build_graph([(0, -2)], [])
    with pytest.raises(NotIntegral):
        distinguished_rep(g, DualVector([Fraction(1, 3)]))


def test_orbit_invariants(rng):
    for _ in range(20):
        g = random_small_tree(rng, s_max=6)
        for orb in enumerate_spinc(g):
            pmin = orb.pairings
            assert all(p <= 0 for p in pmin)                 # in S_Q
            assert all(c >= 0 for c in orb.l_prime_min.coeffs)
            assert all(p >= g.e[j] + 1 for j, p in enumerate(pmin))
            for j in range(g.s):                              # k_r characteristic
                assert (orb.k_r.pairings[j] + g.e[j]) % 2 == 0


def test_orbit_data_matches_dual_vectors(rng):
    """The integer orbit data against the Fraction definitions: the
    pairings of l'_[k], and k_r = K + 2 l'_[k] as a dual vector."""
    for _ in range(20):
        g = random_small_tree(rng, s_max=7)
        K = canonical_class(g)
        orbits = enumerate_spinc(g)
        assert len(orbits) == g.form.order
        for orb in orbits:
            assert orb.pairings == tuple(int(v) for v in g.pairings(orb.l_prime_min))
            assert orb.k_r == characteristic_from_pairings(g, orb.k_r.pairings)
            assert (g.dual_from_pairings(orb.k_r.pairings)
                    == g.dual_from_pairings(K.pairings) + 2 * orb.l_prime_min)
            assert distinguished_rep(g, orb.l_prime_min) == orb.l_prime_min
            assert distinguished_rep(g, orb.l_prime_min) == brute_min_rep(g, orb.l_prime_min)


def test_kr_versus_square(rng):
    """k_r(x) >= (x,x) and chi_{k_r}(-x) >= 0 for small effective x."""
    for _ in range(10):
        g = random_small_tree(rng, s_max=4)
        for orb in enumerate_spinc(g):
            for coeffs in itertools.product(range(3), repeat=g.s):
                x = LatticeVector(coeffs)
                kx = sum(c * v for c, v in zip(orb.k_r.pairings, coeffs))
                assert kx >= g.pairing(x, x)
                assert chi_k(g, orb.k_r, -x) >= 0


def test_involution_permutes_orbits(rng):
    for _ in range(15):
        g = random_small_tree(rng, s_max=5)
        orbs = enumerate_spinc(g)
        images = set()
        for orb in orbs:
            img = orbit_of(g, orbs, -orb.l_prime_min)
            images.add(img.orbit_index)
        assert images == {o.orbit_index for o in orbs}


def test_enumerate_spinc_stays_on_integer_pairings(monkeypatch):
    """enumerate_spinc carries each orbit on its integer pairing vector: no
    _integral_pairings round trip, and no DualVector at all, since an
    orbit builds l'_[k] only when ``l_prime_min`` is read."""
    from gradedroots import plumbing, spinc
    g = build_graph([(0, -2), (1, -3), (2, -5), (3, -7)], [(0, 1), (0, 2), (0, 3)])
    calls = {"dual": 0, "integral": 0}
    init, integral = DualVector.__init__, spinc._integral_pairings

    def counting_init(self, coeffs):
        calls["dual"] += 1
        init(self, coeffs)

    def counting_integral(*args):
        calls["integral"] += 1
        return integral(*args)

    monkeypatch.setattr(plumbing.DualVector, "__init__", counting_init)
    monkeypatch.setattr(spinc, "_integral_pairings", counting_integral)
    orbits = enumerate_spinc(g)
    assert len(orbits) == g.form.order == 139
    assert calls["integral"] == 0
    assert calls["dual"] == 0
    assert orbits[1].l_prime_min == g.dual_from_pairings(orbits[1].pairings)
    assert calls["dual"] == 2


def test_mk_rational_is_zero():
    g = e8_graph()
    for orb in enumerate_spinc(g):
        assert m_k(g, orb.k_r, method="engine") == 0
        assert m_k(g, orb.k_r, method="oracle") == 0


def test_mk_shift_law(rng):
    from gradedroots.plumbing import characteristic_from_pairings
    for _ in range(8):
        g = random_small_tree(rng, s_max=4)
        orbs = enumerate_spinc(g)
        orb = orbs[rng.randrange(len(orbs))]
        base = m_k(g, orb.k_r, method="oracle")
        l = LatticeVector([rng.randint(-2, 2) for _ in range(g.s)])
        shifted = characteristic_from_pairings(
            g, tuple(c + 2 * p for c, p in zip(orb.k_r.pairings, g.pairings(l))))
        assert m_k(g, shifted, method="oracle") == base - chi_k(g, orb.k_r, l)


def test_mk_engine_oracle_agree(rng):
    from gradedroots import engine
    for _ in range(10):
        g = random_small_tree(rng, s_max=5)
        if not engine.classify(g).is_ar():
            continue
        for orb in enumerate_spinc(g):
            assert m_k(g, orb.k_r, method="engine") == m_k(g, orb.k_r, method="oracle")


def _agreement_graphs(rng):
    """Seeded random trees, lens chains, |H| = 1 graphs and s = 1 graphs."""
    graphs = [random_small_tree(rng, s_max=7) for _ in range(25)]
    graphs += [LensSpace(p, q).graph for p, q in ((7, 3), (13, 5), (29, 12), (40, 9))]
    graphs += [e8_graph(), brieskorn(2, 3, 7).graph, brieskorn(5, 7, 11).graph]
    return graphs + [build_graph([(0, e)], []) for e in range(-1, -8, -1)]


def _assert_records(g, orbits):
    """The orbits of ``g`` orbit by orbit against the per-orbit definitions:
    pairings, l'_[k], k_r and k_r^2."""
    records = spinc_records(g)
    assert len(orbits) == len(records) == g.form.order
    for index, (orb, (pairings, l_prime, k_r, kr2)) in enumerate(zip(orbits, records)):
        assert orb.orbit_index == index
        assert orb.pairings == pairings
        assert orb.l_prime_min == l_prime
        assert orb.k_r == k_r
        assert orb.kr2s == kr2 + g.s


def test_batched_pass_matches_per_orbit_definitions(rng):
    """enumerate_spinc's one simultaneous ascent against the per-orbit
    scalar ascent, dual_from_pairings, characteristic_from_pairings and
    form.square, on every orbit; the padded non-AR graph has 10 752 orbits
    on a four-column Smith grid, H = Z/2 + Z/4 + Z/4 + Z/336."""
    big = pad_chain(non_ar_graph_b(), 0, 6, e=-2)
    assert [d for d in spinc.smith_decompose(big.form.B).smith_diag if d > 1] == [2, 4, 4, 336]
    for g in _agreement_graphs(rng) + [big]:
        _assert_records(g, enumerate_spinc(g))


def test_batched_pass_on_object_integers(rng, monkeypatch):
    """Forced onto object dtype, the pass, the l' strings, the batch-of-one
    callers and the Seifert minimality check give what int64 gives."""
    from gradedroots import engine, seifert
    graphs = _agreement_graphs(rng)[::3]
    want = [(enumerate_spinc(g), m_k(g, canonical_class(g), method="oracle")) for g in graphs]
    want_strings = [spinc.l_prime_strings(g, orbits) for g, (orbits, _) in zip(graphs, want)]
    data = seifert.SeifertData(e0=-2, legs=((3, 1), (5, 2), (7, 3)))
    want_seifert = seifert.enumerate_seifert_spinc(data)
    monkeypatch.setattr(spinc, "_int_dtype", lambda bound: object)
    assert spinc._pass_dtype(graphs[0], 0) is object
    for g, (orbits, mk), strings in zip(graphs, want, want_strings):
        got = enumerate_spinc(g)
        assert got == orbits
        _assert_records(g, got)
        assert spinc.l_prime_strings(g, got) == strings
        assert m_k(g, canonical_class(g), method="oracle") == mk
        assert engine.canonical_orbit_data(g).kr2s == orbits[0].kr2s
        for orb in got[:3]:
            assert distinguished_rep(g, orb.l_prime_min) == orb.l_prime_min
    assert seifert.enumerate_seifert_spinc(data) == want_seifert


def test_int_dtype_bounds():
    """int64 below 2^62 and object from there on; _pass_dtype and
    l_prime_strings go to object when the starting pairings, the adjugate
    or |H| pass the bound, on stand-in forms (no large allocation)."""
    assert spinc._int_dtype((1 << 62) - 1) is np.int64
    assert spinc._int_dtype(1 << 62) is object
    g = e8_graph()
    assert spinc._pass_dtype(g, 0) is np.int64
    assert spinc._pass_dtype(g, 1 << 30) is np.int64
    assert spinc._pass_dtype(g, 1 << 62) is object

    def stand_in(adj, order, e=(-3, -2)):
        return SimpleNamespace(s=2, e=e, degrees=(1, 1),
                               form=SimpleNamespace(adjugate_neg=adj, order=order))
    assert spinc._pass_dtype(stand_in(((2, 1), (1, 3)), 5), 1) is np.int64
    assert spinc._pass_dtype(stand_in(((1 << 60, 1), (1, 3)), 5), 1) is object
    assert spinc._pass_dtype(stand_in(((2, 1), (1, 3)), 1 << 62), 1) is object
    # c = 0 and |H| = a keep N, x and P small; only |H| k_r^2 <= s k (s a k)
    # passes 2^62 once k = 4m does
    wide = ((1 << 40, 1), (1, 3))
    assert spinc._pass_dtype(stand_in(wide, 1 << 40, e=(-(1 << 6), -2)), 0) is np.int64
    assert spinc._pass_dtype(stand_in(wide, 1 << 40, e=(-(1 << 10), -2)), 0) is object
    # l' numerators in [0, s a w] = [0, 2^61], and |H| past 2^62
    huge = stand_in(((1 << 60, 1), (1, 3)), 3 << 62)
    orbits = [SimpleNamespace(l_prime_num=(6 << 62, 1)), SimpleNamespace(l_prime_num=(0, 3))]
    assert spinc.l_prime_strings(huge, orbits) == [["2", f"1/{3 << 62}"], ["0", f"1/{1 << 62}"]]
    small = stand_in(((2, 1), (1, 3)), 5)
    assert spinc.l_prime_strings(small, [SimpleNamespace(l_prime_num=(10, 4))]) == [["2", "4/5"]]


def test_m_k_engine_needs_ar():
    """method="engine" on a graph that does not certify AR raises NotAR;
    "auto" falls back to the oracle."""
    g = non_ar_graph_a()
    k = enumerate_spinc(g)[0].k_r
    with pytest.raises(engine.NotAR, match="did not certify"):
        m_k(g, k, method="engine")
    assert m_k(g, k) == m_k(g, k, method="oracle")
