import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (e8_graph, fraction_inverse, non_ar_graph_a, non_ar_graph_b,
                      pad_chain, random_rational_tree, random_small_tree,
                      random_star, remark56_graph)
from gradedroots import engine, oracle, spinc
from gradedroots.plumbing import (LatticeVector, PlumbingGraph, build_graph,
                                  canonical_class, chi_k, graph_from_json, k_squared_plus_s)
from gradedroots.roots import module_of_root, ray_root, root_from_tau
from gradedroots.seifert import brieskorn

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_fundamental_cycle_single_vertex():
    g = build_graph([(0, -2)], [])
    assert engine.fundamental_cycle(g) == LatticeVector([1])


def test_fundamental_cycle_sum_of_basis(rng):
    """-e_j >= delta_j for all j forces x_min = sum b_j."""
    for _ in range(10):
        g = random_rational_tree(rng, s_max=6)
        assert engine.fundamental_cycle(g) == LatticeVector([1] * g.s)


def test_fundamental_cycle_e8():
    g = e8_graph()
    xm = engine.fundamental_cycle(g)
    assert xm.coeffs == (2, 4, 6, 5, 4, 3, 2, 3)
    assert chi_k(g, canonical_class(g), xm) == 1
    # brute-force minimality: no smaller positive cycle pairs nonpositively
    for cand in itertools.product(*[range(c + 1) for c in xm.coeffs]):
        x = LatticeVector(cand)
        if not any(cand) or x == xm:
            continue
        pair = g.pairings(x)
        if all(p <= 0 for p in pair):
            assert x >= xm or not (x <= xm and x != xm), "smaller cycle found"
            assert not (x <= xm and x != xm)


def test_fundamental_cycle_lower_bound(rng):
    for _ in range(10):
        g = random_small_tree(rng)
        assert engine.fundamental_cycle(g) >= LatticeVector([1] * g.s)


def test_classify_examples():
    assert engine.classify(e8_graph()).kind == "rational"
    cls = engine.classify(remark56_graph())
    assert cls.kind == "weakly-elliptic" and cls.l == 1
    assert engine.classify(non_ar_graph_a()).kind == "not-ar-certified"
    assert engine.classify(non_ar_graph_b()).kind == "not-ar-certified"


def test_find_ar_vertex_rational_identity():
    cls = engine.classify(e8_graph())
    assert cls.kind == "rational" and cls.e_prime == e8_graph().e[cls.j0]


def _fundamental_cycle_slow(graph):
    """Laufer's algorithm from b_0, one basis vector at a time, smallest
    index first, on the dense form."""
    B = graph.form.B
    x = LatticeVector([1] + [0] * (graph.s - 1))
    while True:
        pair = graph.pairings(x)
        j = next((i for i, p in enumerate(pair) if p > 0), None)
        if j is None:
            return x
        x = x + LatticeVector(int(i == j) for i in range(graph.s))


def _find_ar_vertex_by_trial_graphs(graph, max_decrements=engine.DEFAULT_AR_DECREMENT_CAP):
    """The AR vertex search as first written: one decorated PlumbingGraph,
    with its own form, per decrement."""
    cxm = chi_k(graph, canonical_class(graph), _fundamental_cycle_slow(graph))
    if cxm == 1:
        return engine.Classification(kind="rational", j0=0, e_prime=graph.e[0])
    for j0 in range(graph.s):
        e_mod = graph.e[j0]
        for _ in range(max_decrements + 1):
            e = list(graph.e)
            e[j0] = e_mod
            mod = PlumbingGraph(labels=graph.labels, e=tuple(e), edges=graph.edges)
            xm = _fundamental_cycle_slow(mod)
            if xm[j0] == 1:
                if chi_k(mod, canonical_class(mod), xm) == 1:
                    if cxm != 0:
                        return engine.Classification(kind="almost-rational", j0=j0,
                                                     e_prime=e_mod)
                    # the elliptic length by the root-and-module route
                    t = engine.tau(graph, j0, engine.canonical_orbit_data(graph))
                    l = module_of_root(root_from_tau(t)).rank_reduced()
                    return engine.Classification(kind="weakly-elliptic", j0=j0,
                                                 e_prime=e_mod, l=l)
                break
            e_mod -= 1
    return engine.Classification(kind="not-ar-certified", bound=max_decrements)


def test_find_ar_vertex_matches_trial_graph_search(rng):
    graphs = [e8_graph(), remark56_graph(), non_ar_graph_a(), non_ar_graph_b(),
              pad_chain(non_ar_graph_a(), 2, 8), pad_chain(non_ar_graph_b(), 0, 8),
              brieskorn(2, 3, 7).graph, brieskorn(5, 7, 11).graph]
    graphs += [random_small_tree(rng, s_max=7) for _ in range(40)]
    graphs += [random_star(rng, 3) for _ in range(10)]
    kinds = set()
    for g in graphs:
        for cap in (engine.DEFAULT_AR_DECREMENT_CAP, 2):
            cls = engine.classify(g, max_decrements=cap)
            assert cls == _find_ar_vertex_by_trial_graphs(g, cap)
            kinds.add(cls.kind)
        assert engine.fundamental_cycle(g) == _fundamental_cycle_slow(g)
    assert kinds == {"rational", "weakly-elliptic", "almost-rational", "not-ar-certified"}


def test_negative_ar_cap_is_refused():
    """A negative decrement cap is bad input, not a classification, even
    for a rational graph that needs no decrement."""
    for g in (e8_graph(), non_ar_graph_a()):
        with pytest.raises(ValueError, match="cap >= 0, got -5$"):
            engine.classify(g, max_decrements=-5)
    assert engine.classify(non_ar_graph_a(), max_decrements=0).bound == 0


def test_certified_stop_index_matches_fraction_formula(rng):
    graphs = [remark56_graph(), brieskorn(5, 7, 11).graph]
    graphs += [g for g in (random_star(rng, 2) for _ in range(30)) if g.form.order <= 400]
    graphs += [g for g in (random_small_tree(rng, s_max=6) for _ in range(30))
               if engine.classify(g).is_ar()]
    orbits = positive = 0
    for g in graphs:
        j0 = engine.classify(g).j0
        Binv = fraction_inverse(g.form.B)
        for orb in spinc.enumerate_spinc(g):
            c = orb.k_r.pairings
            val = sum(Binv[j0][j] * Fraction(g.e[j] - c[j], 2) for j in range(g.s))
            stop = engine.certified_stop_index(g, j0, orb)
            assert stop == max(0, math.floor(val))
            orbits += 1
            positive += stop > 0
    assert orbits > 200 and positive > 20


def test_star_shaped_is_ar(rng):
    for _ in range(10):
        g = random_star(rng)
        cls = engine.classify(g)
        assert cls.is_ar()


def test_x_sequence_properties(rng):
    for _ in range(8):
        g = random_small_tree(rng, s_max=5)
        cls = engine.classify(g)
        if not cls.is_ar():
            continue
        for orb in spinc.enumerate_spinc(g)[:4]:
            xs = engine.x_sequence(g, cls.j0, orb, 6)
            b0 = LatticeVector(int(i == cls.j0) for i in range(g.s))
            assert xs[0][cls.j0] == 0
            for i, x in enumerate(xs):
                assert all(a >= 0 for a in x)
                assert x[cls.j0] == i
            for x, y in zip(xs, xs[1:]):
                assert y >= x + b0


def test_x_sequence_minimality_via_oracle(rng):
    """chi_k(x) >= chi_k(x(i)) for every x with coefficient i at j0
    (Lemma-9.1(a) style): the enumerated minimum over the slice
    m_{j0} = i is attained exactly at tau(i)."""
    for _ in range(6):
        g = random_small_tree(rng, s_max=4)
        cls = engine.classify(g)
        if not cls.is_ar():
            continue
        orb = spinc.enumerate_spinc(g)[0]
        t = engine.tau(g, cls.j0, orb)
        upto = min(3, len(t.values) - 1)
        xs = engine.x_sequence(g, cls.j0, orb, upto)
        lev = oracle.enumerate_sublevel(g, orb.k_r, max(t.values[:upto + 1]) + 2)
        for i, x in enumerate(xs):
            assert t.values[i] == chi_k(g, orb.k_r, x)
            sel = lev.coords[:, cls.j0] == i
            assert sel.any()  # x(i) itself is within the enumerated level
            assert int(lev.chi_values[sel].min()) == t.values[i]


def test_connecting_sequence_chi_monotone(rng):
    """Along the ascent from x(i)+b_0 to x(i+1), chi never increases
    (Lemma-7.6 style), and the first step jump equals the tau increment."""
    from gradedroots.plumbing import LatticeVector

    def replay(g, j0, orb, i_max):
        B = g.form.B
        x = [0] * g.s
        pair = list(orb.pairings)

        def push(j):
            x[j] += 1
            pair[j] += B[j][j]
            for nb in g.adjacency[j]:
                pair[nb] += 1

        def ascend_record():
            vals = []
            while True:
                j = next((t for t in range(g.s)
                          if t != j0 and pair[t] > 0), None)
                if j is None:
                    return vals
                push(j)
                vals.append(chi_k(g, orb.k_r, LatticeVector(x)))

        ascend_record()
        for i in range(i_max):
            before = chi_k(g, orb.k_r, LatticeVector(x))
            push(j0)
            first = chi_k(g, orb.k_r, LatticeVector(x))
            trail = [first] + ascend_record()
            assert all(b <= a for a, b in zip(trail, trail[1:]))
            yield before, first, trail[-1]

    for _ in range(6):
        g = random_small_tree(rng, s_max=5)
        cls = engine.classify(g)
        if not cls.is_ar():
            continue
        orb = spinc.enumerate_spinc(g)[0]
        t = engine.tau(g, cls.j0, orb)
        upto = min(5, len(t.values) - 1)
        for i, (before, first, last) in enumerate(replay(g, cls.j0, orb, upto)):
            assert before == t.values[i]
            assert first == t.values[i + 1]  # Lemma-9.1(c): flat after step one
            assert last == t.values[i + 1]


def test_tau_rational_nondecreasing(rng):
    for _ in range(6):
        g = random_rational_tree(rng, s_max=5)
        cls = engine.classify(g)
        for orb in spinc.enumerate_spinc(g):
            t = engine.tau(g, cls.j0, orb)
            assert t.certified
            assert all(b >= a for a, b in zip(t.values, t.values[1:]))
            assert root_from_tau(t) == ray_root(0)


def test_tau_remark56_minima_are_zero_and_xmin():
    g = remark56_graph()
    cls = engine.classify(g)
    orb = engine.canonical_orbit_data(g)
    t = engine.tau(g, cls.j0, orb)
    zero_indices = [i for i, v in enumerate(t.values) if v == 0]
    # runs of zeros: exactly two (the zero cycle and the fundamental cycle)
    runs = []
    for i in zero_indices:
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    assert len(runs) == 2
    xs = engine.x_sequence(g, cls.j0, orb, runs[1][-1])
    assert not any(xs[runs[0][0]])
    assert xs[runs[1][-1]] == engine.fundamental_cycle(g)


def test_thm52_predicates_agree(rng):
    """rational <=> single-ray canonical root <=> H_red(R_can) = 0."""
    seen_nonrational = 0
    for i in range(60):
        g = random_small_tree(rng, s_max=5) if i % 2 else random_star(rng)
        cls = engine.classify(g)
        if not cls.is_ar():
            continue
        is_rational = cls.kind == "rational"
        orb = engine.canonical_orbit_data(g)
        t = engine.tau(g, cls.j0, orb)
        root = root_from_tau(t)
        mod = module_of_root(root)
        assert (root == ray_root(min(t.values))) == is_rational
        assert (mod.rank_reduced() == 0) == is_rational
        if not is_rational:
            seen_nonrational += 1
    assert seen_nonrational >= 3


def test_min_tau_sign_characterization(rng):
    """min tau_can >= 0 exactly for rational or weakly elliptic graphs."""
    for i in range(60):
        g = random_small_tree(rng, s_max=5) if i % 2 else random_star(rng)
        cls = engine.classify(g)
        if not cls.is_ar():
            continue
        orb = engine.canonical_orbit_data(g)
        t = engine.tau(g, cls.j0, orb)
        expected = cls.kind in ("rational", "weakly-elliptic")
        assert (min(t.values) >= 0) == expected
        if expected:
            assert min(t.values) == 0


def test_analyze_rational_module():
    g = e8_graph()
    cls, reports = engine.analyze_all(g)
    (rep,) = reports
    assert rep.d == Fraction(k_squared_plus_s(g), 4) == 2
    assert rep.rank_red == 0 and rep.module.finite == ()
    assert rep.module.tower_degree == -rep.d
    assert rep.sw_osz == -1


def test_analyze_l21_canonical():
    g = build_graph([(0, -2)], [])
    cls, reports = engine.analyze_all(g)
    by_lp = {r.orbit.pairings: r for r in reports}
    assert by_lp[(0,)].d == Fraction(1, 4)
    assert by_lp[(-1,)].d == Fraction(-1, 4)


def test_analyze_sigma237():
    g = build_graph([(0, -1), (1, -2), (2, -3), (3, -7)], [(0, 1), (0, 2), (0, 3)])
    cls, reports = engine.analyze_all(g)
    (rep,) = reports
    assert rep.rank_red == 1
    assert rep.min_tau == 0
    assert rep.d == 0
    assert len(rep.module.finite) == 1 and rep.module.finite[0][1] == 1


def test_ar_vertex_choice_independent():
    """A rational graph certifies at any vertex; the root must not care."""
    g = e8_graph()
    orb = engine.canonical_orbit_data(g)
    roots = []
    for j0 in (0, 3, 7):
        cls = engine.Classification(kind="rational", j0=j0, e_prime=g.e[j0])
        rep = engine.analyze_orbit(g, orb, cls)
        roots.append(rep.root)
    assert roots[0] == roots[1] == roots[2]


def test_not_ar_raises():
    g = non_ar_graph_a()
    orb = engine.canonical_orbit_data(g)
    with pytest.raises(engine.NotAR):
        engine.analyze_orbit(g, orb)


def test_engine_root_multiset_blowup_invariant():
    """Blow-ups preserve the root multiset; check through the engine on
    graphs where the blow-up stays AR."""
    from gradedroots.plumbing import blow_up
    for g in (e8_graph(), remark56_graph()):
        _, reports = engine.analyze_all(g)
        before = sorted(r.root.canonical_key() for r in reports)
        for site in (0, tuple(g.labels[i] for i in g.edges[0])):
            b = blow_up(g, site)
            _, reports_b = engine.analyze_all(b)
            after = sorted(r.root.canonical_key() for r in reports_b)
            assert before == after


def test_report_json_schema(tmp_path):
    """The orbit records of `analyze --format json` carry the report's
    fields as strings, ints and bools, and agree with its Fraction views."""
    from gradedroots.cli import main
    from gradedroots.roots import _fmt_q
    g = remark56_graph()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    _, reports = engine.analyze_all(g)
    for js, rep in zip(json.loads(out.getvalue())["orbits"], reports, strict=True):
        assert set(js) == {"orbit", "l_prime", "d", "rank_red", "chi_hf", "sw_osz", "tau",
                           "certified", "l_prime_pairings", "module"}
        assert isinstance(js["d"], str) and isinstance(js["certified"], bool)
        assert (js["d"], js["sw_osz"], js["rank_red"]) == (_fmt_q(rep.d), _fmt_q(rep.sw_osz),
                                                           rep.rank_red)
        assert js["module"] == {"tower": _fmt_q(rep.module.tower_degree),
                                "finite": [[_fmt_q(a), n] for a, n in rep.module.finite]}


def test_report_module_matches_root(rng):
    """The report's module, read off tau in integers, is the root's module
    shifted by -(k_r^2 + s)/4, with the tower in degree -d, on every orbit
    of the golden graphs and of six seeded random stars with |H| <= 600."""
    graphs = []
    for name in ("e8", "sigma237", "star5", "star51"):
        with open(os.path.join(GOLDEN, f"{name}.json")) as f:
            graphs.append(graph_from_json(f.read()))
    while len(graphs) < 10:
        g = random_star(rng, max_leg_len=3)
        if g.form.order <= 600:
            graphs.append(g)
    for g in graphs:
        _, reports = engine.analyze_all(g)
        for rep in reports:
            expect = module_of_root(root_from_tau(rep.tau)).shifted(-rep.kr2s / 4)
            assert rep.module == expect
            assert rep.module.tower_degree == -rep.d
            assert rep.module.rank_reduced() == rep.rank_red
            assert rep.sw_osz == rep.rank_red - rep.d / 2


def test_rank_check_survives_optimize():
    """Under python -O towers read off tau (roots.tau_towers) whose total
    length disagrees with the Cor-2.10 rank still raise InvariantViolated."""
    snippet = """
from gradedroots import build_graph, engine, spinc
from gradedroots.plumbing import InvariantViolated
g = build_graph([(0, -2)], [])
engine.tau_towers = lambda values: [(0, 1)]
try:
    engine.analyze_orbit(g, spinc.enumerate_spinc(g)[0])
except InvariantViolated:
    raise SystemExit(0)
raise SystemExit(1)
"""
    src_dir = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-O", "-c", snippet], env=env, timeout=120)
    assert proc.returncode == 0
