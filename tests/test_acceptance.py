"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Set
GRADEDROOTS_ACC_FAST=1 to shrink the randomized sample sizes during
development; the default sizes are the contractual ones.
"""

import math
import os
import random
import time
from fractions import Fraction


from conftest import (e8_graph, random_rational_tree, random_seifert,
                      random_small_tree, random_star, remark56_graph)
from gradedroots import engine, lens, oracle, seifert, spinc
from gradedroots.plumbing import (blow_up, canonical_class,
                                  chi_k, k_squared_plus_s)
from gradedroots.roots import (TauFunction, ZUModule, module_of_root,
                               rank_red_from_tau, ray_root, root_from_tau)
import slow_reference

FAST = bool(os.environ.get("GRADEDROOTS_ACC_FAST"))


def scaled(n):
    return max(5, n // 10) if FAST else n


def report(n, msg):
    print(f"PASS criterion {n}: {msg}")


def test_criterion_1_example_29b():
    """tau = (-3,-1,-2,0,-2) vs (-3,0,-2,-1,-2): different roots, equal
    modules T+[-6] (+) T[-4](1) (+) T[-4](2); Cor-2.10 rank 3; < 1 ms."""
    t1 = TauFunction((-3, -1, -2, 0, -2))
    t2 = TauFunction((-3, 0, -2, -1, -2))

    def compute():
        r1, r2 = root_from_tau(t1), root_from_tau(t2)
        return r1, r2, module_of_root(r1), module_of_root(r2)

    r1, r2, m1, m2 = compute()
    assert r1 != r2
    expected = ZUModule(Fraction(-6), ((Fraction(-4), 1), (Fraction(-4), 2)))
    assert m1 == m2 == expected
    assert rank_red_from_tau(t1)[0] == 3 == rank_red_from_tau(t2)[0]
    best = min(_time_once(compute) for _ in range(100))
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    report(1, f"roots differ, modules equal ({m1.pretty()}), rank 3, "
              f"{best * 1e6:.0f} us per evaluation")


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_rationality_suite():
    """-E8 and 200 random -e_j >= delta_j trees: Rational, R_can = R0,
    H_red = 0, all three Thm-5.2 predicates agreeing; < 10 s."""
    t0 = time.perf_counter()
    rng = random.Random(252)
    graphs = [e8_graph()] + [random_rational_tree(rng, s_max=8)
                             for _ in range(scaled(200))]
    for g in graphs:
        cls = engine.classify(g)
        a_pred = chi_k(g, canonical_class(g), engine.fundamental_cycle(g)) == 1
        orb = engine.canonical_orbit_data(g)
        tau = engine.tau(g, cls.j0 if cls.is_ar() else 0, orb)
        root = root_from_tau(tau)
        b_pred = root == ray_root(0)
        hc_pred = module_of_root(root).rank_reduced() == 0
        assert cls.kind == "rational"
        assert a_pred and b_pred and hc_pred
    took = time.perf_counter() - t0
    assert took < 10, f"took {took:.1f}s"
    report(2, f"{len(graphs)} graphs all Rational with R_can = R0, "
              f"H_red = 0 ({took:.1f}s)")


def test_criterion_3_weakly_elliptic():
    """Remark-5.6 graph: WeaklyElliptic l=1, canonical module
    T+[0] (+) T[0](1), minima = zero cycle and x_min."""
    g = remark56_graph()
    cls = engine.classify(g)
    assert cls.kind == "weakly-elliptic" and cls.l == 1
    orb = engine.canonical_orbit_data(g)
    tau = engine.tau(g, cls.j0, orb)
    mod = module_of_root(root_from_tau(tau))
    assert mod == ZUModule(Fraction(0), ((Fraction(0), 1),))
    lev = oracle.enumerate_sublevel(g, canonical_class(g), 0)
    assert len(set(lev.labels.tolist())) == 2
    zero_comp = lev.component_of([0] * g.s)
    xmin_comp = lev.component_of(engine.fundamental_cycle(g))
    assert zero_comp != xmin_comp
    report(3, "WeaklyElliptic l=1, module T+[0] (+) T[0](1), "
              "level-0 components = {0-cycle, x_min}")


def test_criterion_4_oracle_equivalence():
    """>= 300 random AR trees (s <= 6), every orbit: engine root equals
    the brute-force sublevel root truncated at min tau + 6; < 10 min."""
    t0 = time.perf_counter()
    rng = random.Random(44)
    target = scaled(300)
    n_graphs = n_orbits = draws = 0
    while n_graphs < target:
        draws += 1
        g = random_small_tree(rng, s_max=6) if draws % 2 else random_star(rng)
        if g.s > 6 or g.form.order > 20:
            continue
        cls = engine.classify(g)
        if not cls.is_ar():
            continue
        n_graphs += 1
        orbits = spinc.enumerate_spinc(g)
        reports = [engine.analyze_orbit(g, orb, cls) for orb in orbits]
        cuts = [rep.min_tau + 6 for rep in reports]
        roots = oracle.graph_roots(g, [orb.k_r for orb in orbits], cuts)
        for orb, rep, cut, (orc, _) in zip(orbits, reports, cuts, roots):
            assert rep.root.truncate(cut) == orc.truncate(cut), \
                f"mismatch: graph {g.to_json()}, orbit {orb.orbit_index}"
            n_orbits += 1
    took = time.perf_counter() - t0
    assert took < 600, f"took {took:.1f}s"
    report(4, f"{n_graphs} AR graphs / {n_orbits} orbits, engine == oracle "
              f"at min tau + 6 ({took:.1f}s)")


def test_criterion_5_blowup_invariance():
    """100 random small graphs: the multiset of per-orbit truncated oracle
    roots is invariant under one random blow-up."""
    t0 = time.perf_counter()
    rng = random.Random(55)

    def multiset(graph, offset=4):
        ks = [orb.k_r for orb in spinc.enumerate_spinc(graph)]
        tops = [oracle.min_chi(graph, k) + offset for k in ks]
        return sorted(root.truncate(top).canonical_key()
                      for top, (root, _) in zip(tops, oracle.graph_roots(graph, ks, tops)))

    done = 0
    while done < scaled(100):
        g = random_small_tree(rng, s_max=4)
        if g.form.order > 12:
            continue
        if rng.random() < 0.5:
            site = rng.randrange(g.s)
        else:
            site = tuple(g.labels[i] for i in rng.choice(g.edges))
        assert multiset(g) == multiset(blow_up(g, site)), \
            f"blow-up at {site} changed roots: {g.to_json()}"
        done += 1
    report(5, f"{done} random blow-ups preserve the root multiset "
              f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_6_lens_sweep():
    """All p <= 200, all q, all a: sw identity exact, sum T = 0 exact,
    Casson-Walker chain formula exact, Fourier torsion within 1e-9;
    < 5 min."""
    t0 = time.perf_counter()
    p_max = 60 if FAST else 200
    assert lens.FOURIER_TOL == 1e-9
    stats = lens.verify_lens_sweep(p_max)
    took = time.perf_counter() - t0
    assert took < 300, f"took {took:.1f}s"
    report(6, f"p <= {p_max}: {stats['pairs']} lens spaces, "
              f"{stats['orbits']} orbits, identities exact ({took:.1f}s)")


SEIFERT_SUITE = (
    seifert.brieskorn(2, 3, 5),
    seifert.brieskorn(2, 3, 7),
    seifert.brieskorn(2, 3, 11),
    seifert.SeifertData(e0=-2, legs=((2, 1), (3, 1), (5, 1))),  # |H| = 29
)


def test_criterion_7_seifert_identities():
    """Sigma(2,3,5), Sigma(2,3,7), Sigma(2,3,11) and a nu=3 datum with
    |H| > 1: the torsion/Casson-Walker/HF identity exact on every orbit,
    numeric extrapolation within 1e-6; < 2 min."""
    t0 = time.perf_counter()
    total = 0
    assert seifert.NUMERIC_TOL == 1e-6
    for data in SEIFERT_SUITE:
        rep = seifert.verify_sw_identity(data)
        assert rep["ok"]
        total += len(rep["orbits"])
    took = time.perf_counter() - t0
    assert took < 120, f"took {took:.1f}s"
    report(7, f"4 Seifert data / {total} orbits, exact (*) and Cor-11.16, "
              f"numeric limits within 1e-6 ({took:.1f}s)")


def test_criterion_8_cross_formulas():
    """K^2+s from the Seifert closed form vs the plumbing formula vs the
    lens closed form on overlapping inputs; Prop-11.10 closed-form x(i)
    equals the Laufer ascent on all Seifert test orbits."""
    for data in SEIFERT_SUITE:
        assert seifert.seifert_k2s(data) == k_squared_plus_s(data.graph)
    for p, q in [(2, 1), (5, 3), (7, 4), (12, 5), (25, 11)]:
        L = lens.LensSpace(p, q)
        assert slow_reference.k2s_quarter(L) * 4 == k_squared_plus_s(L.graph)
    checked = 0
    for data in SEIFERT_SUITE:
        g = data.graph
        orbits = spinc.enumerate_spinc(g)
        for sp in seifert.enumerate_seifert_spinc(data):
            orb = slow_reference.orbit_of(g, orbits, slow_reference.lprime_vector(data, sp))
            stop = min(seifert.tau_stop_index(data, sp), 20)
            xs = engine.x_sequence(g, 0, orb, stop)
            for i, x in enumerate(xs):
                assert slow_reference.x_closed_form(data, sp, i) == x
            checked += 1
    report(8, f"K^2+s triple agreement and x(i) closed form == ascent on "
              f"{checked} Seifert orbits")


def test_criterion_9_dp_invariant():
    """DP(Sigma(2,3,5)) = 0, DP(Sigma(2,3,7)) = 1, both equal to
    chi(HF+(-M, can)) - min chi_can from the engine."""
    values = {}
    for data, expected in [(SEIFERT_SUITE[0], 0), (SEIFERT_SUITE[1], 1)]:
        dp = seifert.dp_invariant(data)
        assert dp == expected
        rep = engine.analyze_orbit(data.graph,
                                   engine.canonical_orbit_data(data.graph))
        assert dp == rep.rank_red - rep.min_tau
        values[data.describe()] = dp
    report(9, f"DP values {values} match the engine identity")


def test_criterion_10_suite_is_headless():
    """All Invariants & Properties sections run as automated tests: the
    per-module suites (plumbing, roots, spinc, kernels, oracle, engine,
    lens, seifert, cli) plus this file; everything is exact arithmetic
    except the two labelled numeric oracles (1e-9 Fourier, 1e-6 limit)."""
    here = os.path.dirname(__file__)
    modules = sorted(f for f in os.listdir(here)
                     if f.startswith("test_") and f.endswith(".py"))
    assert {"test_plumbing.py", "test_roots.py", "test_spinc.py",
            "test_kernels.py", "test_oracle.py", "test_engine.py",
            "test_lens.py", "test_seifert.py", "test_cli.py",
            "test_acceptance.py"} <= set(modules)
    report(10, f"property suites present and headless: {', '.join(modules)}")


def test_criterion_11_engine_vs_lens_closed_forms():
    """Every L(p, q) with p <= 40: each engine orbit on the chain graph
    matches the lens row a with l'_[k] = l'_[-a g_s] = -sum E(a)_j g_j, by
    its integer pairings -E(a), with |H| l'_[k] equal to the row's -A c
    (A = adjugate_neg), equal d, rank_red = 0 and the single ray from min
    tau as its root; < 30 s (about 3 s on a 2-core host)."""
    t0 = time.perf_counter()
    p_max = 20 if FAST else 40
    n_spaces = n_orbits = 0
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            L = lens.LensSpace(p, q)
            rows = {tuple(-e for e in lens.spinc_coeffs(L, a).E): a for a in range(p)}
            _, reports = engine.analyze_all(L.graph)
            matched = set()
            for rep in reports:
                where = f"{L}, engine orbit {rep.orbit.orbit_index}"
                c = tuple(rep.orbit.pairings)
                a = rows.get(c)
                assert a is not None, f"{where}: no lens row with its pairings"
                l_num = tuple(-v for v in L.graph.form.numerators(c))
                assert rep.orbit.l_prime_num == l_num, f"{where}: |H| l' != -A c of row {a}"
                inv = lens.lens_invariants(L, a, check_numeric=False)
                assert rep.d == inv.d, f"{where}: engine d {rep.d} != lens row {a} d {inv.d}"
                assert rep.rank_red == 0, f"{where}: rank_red {rep.rank_red}"
                assert rep.root == ray_root(rep.min_tau), f"{where}: root is not a ray"
                matched.add(a)
                n_orbits += 1
            assert matched == set(range(p)) and len(reports) == p, str(L)
            n_spaces += 1
    took = time.perf_counter() - t0
    assert took < 30, f"took {took:.1f}s"
    report(11, f"p <= {p_max}: {n_spaces} lens spaces / {n_orbits} orbits, engine == "
               f"lens table on d, rank_red = 0 and root ({took:.1f}s)")


def test_criterion_12_engine_vs_seifert_closed_forms():
    """60 seeded random Seifert data (nu = 3-4, alpha_l <= 7, |H| <= 60):
    every engine orbit matches one Seifert solution by the pairings of
    l'_[k], with equal min tau, rank_red, d and graded root; < 30 s
    (about 1 s on a 2-core host)."""
    t0 = time.perf_counter()
    rng = random.Random(1212)
    n_data = scaled(60)
    n_orbits = 0
    for _ in range(n_data):
        data = random_seifert(rng, 3, 4, 7, 60)
        k2s = seifert.seifert_k2s(data)
        closed = {sp.pairings: seifert.seifert_orbit(data, sp, k2s)
                  for sp in seifert.enumerate_seifert_spinc(data)}
        _, reports = engine.analyze_all(data.graph)
        matched = set()
        for rep in reports:
            where = f"{data.describe()}, engine orbit {rep.orbit.orbit_index}"
            orb = closed.get(rep.orbit.pairings)
            assert orb is not None, f"{where}: no Seifert solution with its l'"
            assert (rep.min_tau, rep.rank_red, rep.d) == (orb.min_tau, orb.rank_red, orb.d), \
                f"{where}: engine {(rep.min_tau, rep.rank_red, rep.d)} != closed form " \
                f"{(orb.min_tau, orb.rank_red, orb.d)}"
            assert rep.root == root_from_tau(orb.tau), f"{where}: roots differ"
            matched.add(rep.orbit.pairings)
            n_orbits += 1
        assert matched == set(closed) and len(reports) == data.h_order, data.describe()
    took = time.perf_counter() - t0
    assert took < 30, f"took {took:.1f}s"
    report(12, f"{n_data} Seifert data / {n_orbits} orbits, engine == closed "
               f"forms on min tau, rank_red, d and root ({took:.1f}s)")
