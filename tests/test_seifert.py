import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_seifert
from gradedroots import engine, oracle, seifert, spinc
from gradedroots.plumbing import casson_walker, k_squared_plus_s
from gradedroots.seifert import (IdentityViolated, PositiveOrbifoldEuler, SeifertData,
                                 brieskorn, dp_invariant,
                                 enumerate_seifert_spinc,
                                 seifert_chi_lprime, seifert_k2s,
                                 seifert_tau, seifert_torsion_limit,
                                 tau_stop_index, torsion_limit_numeric,
                                 verify_sw_identity)
from series_reference import seifert_torsion_limit_series
from slow_reference import (chi_rational, lens_n, lprime_vector, orbit_of,
                            torsion_limit_numeric_per_term, x_closed_form)

S235 = brieskorn(2, 3, 5)
S237 = brieskorn(2, 3, 7)
S2311 = brieskorn(2, 3, 11)
NU3_H29 = SeifertData(e0=-2, legs=((2, 1), (3, 1), (5, 1)))
RANDOM_DATA = [
    SeifertData(e0=-2, legs=((2, 1), (3, 2), (7, 3))),
    SeifertData(e0=-2, legs=((3, 1), (4, 3), (5, 2))),
    SeifertData(e0=-3, legs=((2, 1), (2, 1), (2, 1))),
    SeifertData(e0=-3, legs=((2, 1), (3, 2), (3, 2), (3, 2))),
]


def test_brieskorn_data():
    assert S235.e0 == -2 and S235.legs == ((2, 1), (3, 2), (5, 4))
    assert S235.e == Fraction(-1, 30) and S235.h_order == 1
    assert S237.e == Fraction(-1, 42) and S237.h_order == 1
    assert S2311.e == Fraction(-1, 66)


def test_graph_shapes():
    g = S235.graph
    assert all(e == -2 for e in g.e) and g.form.order == 1
    assert g.s == 8
    g7 = S237.graph
    assert g7.s == 4 and g7.e == (-1, -2, -3, -7)


def test_validation():
    with pytest.raises(ValueError, match="lens"):
        SeifertData(e0=-1, legs=((2, 1), (3, 1)))
    with pytest.raises(PositiveOrbifoldEuler):
        SeifertData(e0=0, legs=((2, 1), (3, 1), (7, 1)))
    with pytest.raises(ValueError):
        SeifertData(e0=-2, legs=((4, 2), (3, 1), (5, 1)))  # not coprime


def test_enumeration_counts():
    assert len(enumerate_seifert_spinc(S235)) == 1
    sps = enumerate_seifert_spinc(NU3_H29)
    assert len(sps) == 29 == NU3_H29.h_order
    for data in RANDOM_DATA:
        sps = enumerate_seifert_spinc(data)
        assert len(sps) == data.h_order
        for sp in sps:
            assert 0 <= sp.a0 <= -1 - data.e0
            assert int(data.alpha_lcm * sp.atilde) == data.alpha_lcm * sp.atilde


def test_canonical_is_enumerated_first():
    sps = enumerate_seifert_spinc(NU3_H29)
    assert sps[0].a0 == 0 and not any(sps[0].a)


def test_leg_inequalities():
    """(SI): partial sums of the leg coefficients stay under the n-table."""
    for data in RANDOM_DATA:
        for sp in enumerate_seifert_spinc(data):
            for leg, E in zip(data.leg_lens, sp.E):
                s = leg.s
                for i in range(1, s + 1):
                    acc = sum(lens_n(leg, t + 1, s) * E[t - 1] for t in range(i, s + 1))
                    assert acc < lens_n(leg, i, s)


def test_spinc_matches_graph_orbits():
    """The (SI_red) solutions hit every spin^c orbit of the star graph."""
    for data in (NU3_H29, RANDOM_DATA[1]):
        g = data.graph
        orbits = spinc.enumerate_spinc(g)
        reps = {orb.l_prime_min for orb in orbits}
        ours = {lprime_vector(data, sp) for sp in enumerate_seifert_spinc(data)}
        assert ours == reps


def test_chi_lprime_matches_plumbing():
    for data in (S235, S237, NU3_H29) + tuple(RANDOM_DATA):
        g = data.graph
        for sp in enumerate_seifert_spinc(data):
            assert seifert_chi_lprime(data, sp) == chi_rational(g, lprime_vector(data, sp))


def test_chi_relative_step():
    """chi(l'_[k_l^-]) - chi(l'_[k]) = chi(g^l_s) + atilde/(e alpha_l)
    - {omega'_l a_l / alpha_l} whenever a_l > 0."""
    for data in (NU3_H29, RANDOM_DATA[0], RANDOM_DATA[1]):
        sps = {(sp.a0, sp.a): sp for sp in enumerate_seifert_spinc(data)}
        for (a0, avec), sp in sps.items():
            for l in range(data.nu):
                if avec[l] == 0:
                    continue
                down = list(avec)
                down[l] -= 1
                key = (a0, tuple(down))
                if key not in sps:
                    continue
                alpha, _ = data.legs[l]
                wp = data.omega_prime[l]
                chi_g = (Fraction(1, 2) + data.eps / (2 * alpha)
                         - Fraction(1, 2 * data.e * alpha * alpha))
                step = (chi_g + sp.atilde / (data.e * alpha)
                        - Fraction((wp * avec[l]) % alpha, alpha))
                assert (seifert_chi_lprime(data, sps[key])
                        - seifert_chi_lprime(data, sp)) == step


def test_single_nonzero_a_formula():
    """-chi = 1/2 + eps/(2 alpha) + 1/(2 e alpha^2) - {omega'/alpha} for
    the orbit with one a_l = 1 and everything else zero."""
    data = NU3_H29
    sps = {(sp.a0, sp.a): sp for sp in enumerate_seifert_spinc(data)}
    for l in range(data.nu):
        avec = [0] * data.nu
        avec[l] = 1
        key = (0, tuple(avec))
        if key not in sps:
            continue
        alpha, _ = data.legs[l]
        wp = data.omega_prime[l]
        expect = (Fraction(1, 2) + data.eps / (2 * alpha)
                  + Fraction(1, 2 * data.e * alpha * alpha)
                  - Fraction(wp % alpha, alpha))
        assert -seifert_chi_lprime(data, sps[key]) == expect


def test_k2s_closed_form():
    assert seifert_k2s(S235) == 8
    assert seifert_k2s(S237) == 0
    for data in (S2311, NU3_H29) + tuple(RANDOM_DATA):
        assert seifert_k2s(data) == k_squared_plus_s(data.graph)


def test_tau_first_step():
    for data in (NU3_H29, RANDOM_DATA[1]):
        for sp in enumerate_seifert_spinc(data):
            t = seifert_tau(data, sp)
            if len(t.values) > 1:
                assert t.values[1] - t.values[0] == 1 + sp.a0


def test_tau_235_and_237():
    t = seifert_tau(S235, enumerate_seifert_spinc(S235)[0])
    assert t.values[0] == 0 and t.values[1] == 1
    assert min(t.values) == 0
    assert all(b >= a for a, b in zip(t.values, t.values[1:]))
    t7 = seifert_tau(S237, enumerate_seifert_spinc(S237)[0])
    assert min(t7.values) == 0
    assert t7.values[1] == 1 and t7.values[2] == 0


def test_tau_matches_engine():
    for data in (S235, S237, NU3_H29, RANDOM_DATA[1]):
        g = data.graph
        cls = engine.classify(g)
        assert cls.is_ar() and cls.j0 == 0  # centre is the AR vertex
        orbits = spinc.enumerate_spinc(g)
        for sp in enumerate_seifert_spinc(data):
            orb = orbit_of(g, orbits, lprime_vector(data, sp))
            te = engine.tau(g, 0, orb)
            ts = seifert_tau(data, sp)
            m = min(len(te.values), len(ts.values))
            assert te.values[:m] == ts.values[:m]
            # both certified: the roots they generate must agree
            from gradedroots.roots import root_from_tau
            assert root_from_tau(te) == root_from_tau(ts)


def test_x_closed_form_matches_ascent():
    for data in (S235, NU3_H29, RANDOM_DATA[0]):
        g = data.graph
        orbits = spinc.enumerate_spinc(g)
        for sp in enumerate_seifert_spinc(data):
            orb = orbit_of(g, orbits, lprime_vector(data, sp))
            stop = tau_stop_index(data, sp)
            xs = engine.x_sequence(g, 0, orb, min(stop, 12))
            for i, x in enumerate(xs):
                assert x_closed_form(data, sp, i) == x


def test_dp_invariant_values():
    assert dp_invariant(S235) == 0
    assert dp_invariant(S237) == 1
    assert dp_invariant(S2311) == 1


def test_dp_matches_engine():
    for data in (S235, S237, S2311, NU3_H29):
        g = data.graph
        rep = engine.analyze_orbit(g, engine.canonical_orbit_data(g))
        assert dp_invariant(data) == rep.rank_red - rep.min_tau


def test_torsion_limit_values():
    (sp,) = enumerate_seifert_spinc(S235)
    lam = casson_walker(S235.graph)
    assert seifert_torsion_limit(S235, sp) == lam + Fraction(seifert_k2s(S235), 8)
    assert seifert_torsion_limit(S235, sp) == 0


def test_torsion_limit_relative_identity():
    """(r*): L_[k] - L_[K] = -chi(l'_[k]) for every orbit."""
    data = NU3_H29
    sps = enumerate_seifert_spinc(data)
    can = next(sp for sp in sps if sp.a0 == 0 and not any(sp.a))
    L_can = seifert_torsion_limit(data, can)
    for sp in sps:
        L = seifert_torsion_limit(data, sp)
        assert L - L_can == -seifert_chi_lprime(data, sp)


def test_torsion_limit_a0_orbit():
    """An orbit with a0 > 0 and all a_l = 0 has
    L - L_can = a0^2/(2e) + (a0/2)(1 + eps)."""
    data = SeifertData(e0=-3, legs=((2, 1), (3, 1), (5, 1)))
    sps = enumerate_seifert_spinc(data)
    can = next(sp for sp in sps if sp.a0 == 0 and not any(sp.a))
    found = 0
    L_can = seifert_torsion_limit(data, can)
    for sp in sps:
        if sp.a0 > 0 and all(v == 0 for v in sp.a):
            a0 = sp.a0
            expect = Fraction(a0 * a0, 1) / (2 * data.e) + Fraction(a0, 2) * (1 + data.eps)
            assert seifert_torsion_limit(data, sp) - L_can == expect
            found += 1
    assert found >= 1


def test_torsion_limit_closed_form_matches_series_reference():
    """The closed-form limit equals the Laurent-series expansion it
    replaced, as exact Fractions, on every orbit of the criterion-7 data
    and of seeded random data (nu = 3-5, alpha_l <= 9)."""
    rng = random.Random(606)
    suite = [S235, S237, S2311, NU3_H29]
    datas = suite + [random_seifert(rng, 3, 5, 9, 16) for _ in range(30)]
    checked = 0
    for data in datas:
        for sp in enumerate_seifert_spinc(data):
            fast = seifert_torsion_limit(data, sp)
            slow = seifert_torsion_limit_series(data, sp)
            assert type(fast) is Fraction and fast == slow, \
                f"{data.describe()} orbit {sp.a0};{sp.a}: {fast} != {slow}"
            checked += 1
    assert checked >= 250


def test_numeric_limit_agrees():
    for data, sp_idx in [(S235, 0), (NU3_H29, 3)]:
        sps = enumerate_seifert_spinc(data)
        sp = sps[sp_idx]
        exact = seifert_torsion_limit(data, sp)
        assert abs(torsion_limit_numeric(data, sp) - float(exact)) < 1e-6


def test_numeric_limit_without_mpmath(monkeypatch):
    """The numeric oracle runs on numpy and exact integers alone."""
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert verify_sw_identity(S2311)["ok"]
    sp = enumerate_seifert_spinc(NU3_H29)[3]
    exact = seifert_torsion_limit(NU3_H29, sp)
    assert abs(torsion_limit_numeric(NU3_H29, sp) - float(exact)) < 1e-6


@pytest.mark.parametrize("legs", [((5, 2), (7, 1), (11, 5)), ((5, 1), (7, 1), (11, 1))])
def test_verify_sw_identity_numeric_near_poles(legs):
    """Sigma(5,7,11) (o = 1, alpha = 385) and (-1; 5/1, 7/1, 11/1) (o =
    |H| = 218): the double-precision P1/|H| and the three-node Neville
    fit once put the numeric limit 5.7e-6 and 3.6e-5 off the exact one."""
    data = SeifertData(e0=-1, legs=legs)
    rep = verify_sw_identity(data)
    assert rep["ok"] and len(rep["orbits"]) == data.h_order


def test_numeric_blocks_match_per_term(monkeypatch):
    """The periodic block sum of torsion_limit_numeric equals the per-term
    long-double sum at the same nodes h = c/(o alpha), on every orbit of
    seeded random data with alpha <= 60.  Coarse c keep the per-term sums
    short; the data are built inside the patch, so no cached weights of
    other nodes reach them."""
    steps = (1.0, 0.1, 0.01)
    monkeypatch.setattr(seifert, "NUMERIC_STEPS", steps)
    rng = random.Random(1111)
    datas = []
    while len(datas) < 10:
        data = random_seifert(rng, 3, 4, 12, 12)
        if data.alpha_lcm <= 60:
            datas.append(data)
    full = partial_only = False
    orbits = 0
    for data in datas:
        fresh = SeifertData(e0=data.e0, legs=data.legs)
        nodes = [c / (data.o * data.alpha_lcm) for c in steps]
        for sp in enumerate_seifert_spinc(data):
            fast = torsion_limit_numeric(fresh, sp)
            slow = torsion_limit_numeric_per_term(data, sp, nodes)
            assert abs(fast - slow) < 1e-10, f"{data.describe()} orbit {sp.a0};{sp.a}"
            orbits += 1
        L, rows = fresh.numeric_weights
        full |= rows[-1][1] > L          # whole blocks at the finest node
        partial_only |= rows[0][1] < L   # one partial block at the coarsest
    assert full and partial_only and orbits >= 40


def test_numeric_limit_scan_at_large_alpha():
    """Nodes scaled by 1/(o alpha) resolve every datum: on the first two
    orbits of 30 seeded random data with 3-5 legs, alpha_l <= 19 and |H| <=
    60 (alpha up to 7 752) the numeric limit stays within NUMERIC_TOL of
    the exact one.  The fixed nodes h = 1e-3 ... 1e-6 missed it by up to
    5.4e-4 here."""
    rng = random.Random(5)
    datas = [random_seifert(rng, 3, 5, 19, 60) for _ in range(30)]
    assert max(data.alpha_lcm for data in datas) > 5000
    orbits = 0
    for data in datas:
        for sp in enumerate_seifert_spinc(data)[:2]:
            exact = float(seifert_torsion_limit(data, sp))
            approx = torsion_limit_numeric(data, sp)
            assert abs(approx - exact) < seifert.NUMERIC_TOL, \
                f"{data.describe()} orbit {sp.a0};{sp.a}: {approx} vs {exact}"
            orbits += 1
    assert orbits == 59


def test_numeric_periodicity_guard():
    """A wrong o breaks c(i + alpha) = c(i) + o on the block."""
    data = SeifertData(e0=-2, legs=((2, 1), (3, 1), (5, 1)))
    sp = enumerate_seifert_spinc(data)[3]
    data.__dict__["o"] = data.o + 1
    with pytest.raises(IdentityViolated, match=r"c\(i \+ alpha\) != c\(i\) \+ o"):
        torsion_limit_numeric(data, sp)


def test_verify_sw_identity_small():
    rep = verify_sw_identity(NU3_H29)
    assert rep["ok"] and len(rep["orbits"]) == 29
    assert rep["lambda"] == casson_walker(NU3_H29.graph)


def test_oracle_root_matches_seifert_tau():
    """Closed-form tau generates the same truncated root as the sublevel
    oracle on the star graph."""
    from gradedroots.roots import root_from_tau
    data = RANDOM_DATA[1]
    g = data.graph
    orbits = spinc.enumerate_spinc(g)
    for sp in enumerate_seifert_spinc(data)[:6]:
        orb = orbit_of(g, orbits, lprime_vector(data, sp))
        t = seifert_tau(data, sp)
        cut = min(t.values) + 4
        orc = oracle.root_oracle(g, orb.k_r, cut)
        assert root_from_tau(t).truncate(cut) == orc.truncate(cut)


def test_minimality_check_names_a_non_minimal_solution(monkeypatch):
    """The one batched ascent of enumerate_seifert_spinc flags a solution
    whose pairings are those of l'_[k] + b_0, in the same class but not
    minimal, and names it."""
    data = SeifertData(e0=-2, legs=((3, 1), (5, 2), (7, 3)))
    exact = seifert._spinc_from_solution
    shifted = seifert.enumerate_seifert_spinc(data)[5]

    def moved(data_, a0, avec):
        sp = exact(data_, a0, avec)
        if (a0, tuple(avec)) != (shifted.a0, shifted.a):
            return sp
        pairings = [p + b for p, b in zip(sp.pairings, data_.graph.form.B[0])]
        return seifert.SeifertSpinc(a0=sp.a0, a=sp.a, atilde=sp.atilde, E=sp.E,
                                    pairings=tuple(pairings))
    monkeypatch.setattr(seifert, "_spinc_from_solution", moved)
    with pytest.raises(seifert.CountMismatch,
                       match=re.escape(f"{shifted.a0};{shifted.a} is not a minimal representative")):
        seifert.enumerate_seifert_spinc(data)


def test_numeric_limit_double_fallback(monkeypatch):
    """Without an extended long double, torsion_limit_numeric sums in
    double on the first three nodes; on (-2; 2/1, 3/1, 5/1) its first five
    orbits stay within NUMERIC_TOL of the exact limit.  The weights are
    cached per datum, so the datum is built under the patch."""
    monkeypatch.setattr(seifert, "_float_dtype", lambda: np.float64)
    data = SeifertData(e0=NU3_H29.e0, legs=NU3_H29.legs)
    for sp in enumerate_seifert_spinc(data)[:5]:
        exact = seifert_torsion_limit(data, sp)
        assert abs(torsion_limit_numeric(data, sp) - float(exact)) < seifert.NUMERIC_TOL
    L, rows = data.numeric_weights
    assert len(rows) == 3 and all(row[3].dtype == np.float64 for row in rows)
