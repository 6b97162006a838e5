import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gradedroots import engine, spinc
from gradedroots import lens as lens_mod
from gradedroots.lens import (LensIdentityError, LensSpace, NotCoprime, RangeError,
                              casson_walker_chain_formula, dedekind_sum,
                              lens_invariants, neg_cf, spinc_coeffs,
                              torsion_fourier_all, verify_lens_sweep)
from gradedroots.plumbing import casson_walker as cw_graph
from gradedroots.plumbing import k_squared_plus_s
from slow_reference import (B_inv, casson_walker, cf_value, chi_lprime, chi_lprime_table,
                            chi_rational, dedekind_sum_direct, generalized_cf_string,
                            k2s_quarter, lprime_of, torsion, torsion_fourier)


def test_neg_cf_examples():
    assert neg_cf(2, 1) == [2]
    assert neg_cf(5, 3) == [2, 3]
    assert neg_cf(7, 4) == [2, 4]
    with pytest.raises(NotCoprime):
        neg_cf(4, 2)
    with pytest.raises(RangeError):
        neg_cf(3, 5)


def test_cf_roundtrip(rng):
    for _ in range(50):
        p = rng.randint(2, 500)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) != 1:
            continue
        ks = neg_cf(p, q)
        assert all(k >= 2 for k in ks)
        assert cf_value(ks) == Fraction(p, q)


def test_ntable_identities(rng):
    for _ in range(20):
        p = rng.randint(2, 120)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) != 1:
            continue
        L = LensSpace(p, q)
        s = L.s
        assert L.n(1, s) == p and L.n(2, s) == q
        assert (q * L.q_prime) % p == 1
        for i in range(1, s + 1):
            for j in range(i, s + 1):
                assert L.n(i, j) == L.cf[j - 1] * L.n(i, j - 1) - L.n(i, j - 2)


def test_spinc_coeffs_examples():
    L = LensSpace(5, 3)
    assert spinc_coeffs(L, 0).E == (0, 0)
    assert spinc_coeffs(L, 4).E == (L.cf[0] - 1, L.cf[1] - 2)
    for a in range(5):
        spinc_coeffs(L, a)  # both generation methods asserted internally
    with pytest.raises(RangeError):
        spinc_coeffs(L, 5)


def test_chi_lprime_examples():
    assert chi_lprime(LensSpace(5, 3), 0) == 0
    assert chi_lprime(LensSpace(2, 1), 1) == Fraction(1, 4)


def test_chi_sum_identity(rng):
    for p, q in [(7, 3), (12, 5), (25, 7), (40, 11)]:
        L = LensSpace(p, q)
        total = sum(chi_lprime_table(L))
        assert total == Fraction(p - 1, 4) - p * dedekind_sum(q, p)


def test_chi_matches_plumbing(rng):
    for p, q in [(5, 3), (7, 4), (11, 4), (18, 7)]:
        L = LensSpace(p, q)
        g = L.graph
        for a in range(p):
            lp = lprime_of(L, a)
            assert chi_rational(g, lp) == chi_lprime(L, a)


def test_dedekind_examples():
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum_direct(1, 3) == Fraction(1, 18)


def test_dedekind_direct_vs_reciprocity(rng):
    for _ in range(60):
        p = rng.randint(1, 400)
        q = rng.randint(0, p) or 1
        if math.gcd(p, q) != 1:
            continue
        assert dedekind_sum(q, p) == dedekind_sum_direct(q % p if p > 1 else 0, p)
    with pytest.raises(NotCoprime):
        dedekind_sum(2, 4)


def test_lens_invariants_l21():
    L = LensSpace(2, 1)
    inv0 = lens_invariants(L, 0)
    assert (inv0.d, inv0.lam, inv0.torsion) == (Fraction(1, 4), 0, Fraction(1, 8))
    inv1 = lens_invariants(L, 1)
    assert inv1.d == Fraction(-1, 4)
    assert inv1.sw_osz == inv1.sw_tcw


def test_sum_torsion_zero(rng):
    for p, q in [(9, 2), (16, 7), (31, 12)]:
        L = LensSpace(p, q)
        assert sum(torsion(L, a) for a in range(p)) == 0


def test_floor_identity_small(rng):
    """[a q'/p] = sum_t a_t n_{t+1, s-1} for all a (Lemma-10.7 style)."""
    for p, q in [(5, 2), (12, 7), (23, 9), (40, 17)]:
        L = LensSpace(p, q)
        s = L.s
        for a in range(p):
            E = spinc_coeffs(L, a).E
            assert sum(E[t - 1] * L.n(t + 1, s - 1) for t in range(1, s + 1)) \
                == (a * L.q_prime) // p


def test_k2s_matches_plumbing():
    for p, q in [(2, 1), (5, 3), (11, 4), (18, 7)]:
        L = LensSpace(p, q)
        assert k2s_quarter(L) == k_squared_plus_s(L.graph) / 4


def test_casson_walker_matches_plumbing():
    for p, q in [(2, 1), (5, 3), (11, 4), (25, 9)]:
        L = LensSpace(p, q)
        lam = casson_walker(L)
        assert lam == cw_graph(L.graph)
        assert lam == casson_walker_chain_formula(L)


def test_chain_binv_closed_form(rng):
    for p, q in [(7, 3), (13, 5), (30, 11)]:
        L = LensSpace(p, q)
        Binv = B_inv(L.graph.form)
        s = L.s
        for i in range(1, s + 1):
            for j in range(i, s + 1):
                closed = Fraction(-L.n(1, i - 1) * L.n(j + 1, s), p)
                assert Binv[i - 1][j - 1] == closed


def test_distinguished_rep_matches_E(rng):
    for p, q in [(7, 4), (12, 5)]:
        L = LensSpace(p, q)
        g = L.graph
        gs = g.dual_from_pairings([0] * (L.s - 1) + [1])
        for a in range(p):
            rep = spinc.distinguished_rep(g, -a * gs)
            assert rep == lprime_of(L, a)


def test_engine_d_matches_lens(rng):
    """ar-engine d on the chain graph equals the closed form, matching
    orbits through l'_[k]."""
    for p, q in [(5, 3), (7, 4), (12, 7), (25, 11)]:
        L = LensSpace(p, q)
        g = L.graph
        cls, reports = engine.analyze_all(g)
        assert cls.kind == "rational"
        by_lp = {r.orbit.l_prime_min: r for r in reports}
        for a in range(p):
            rep = by_lp[lprime_of(L, a)]
            inv = lens_invariants(L, a, check_numeric=False)
            assert rep.d == inv.d
            assert rep.rank_red == 0


def test_torsion_fourier_single():
    L = LensSpace(12, 5)
    for a in (0, 3, 11):
        assert abs(torsion_fourier(L, a) - float(torsion(L, a))) < 1e-9


def test_torsion_fourier_all():
    for p, q in [(9, 2), (40, 17)]:
        L = LensSpace(p, q)
        approx = torsion_fourier_all(L)
        for a in range(p):
            assert abs(approx[a] - float(torsion(L, a))) < 1e-9


def test_lens_invariants_runs_fft_once_per_space(monkeypatch):
    """Reading every row of L(p, 3) with the default check_numeric runs the
    FFT torsion once, through LensSpace.fourier_torsion, not once per row."""
    calls = []
    monkeypatch.setattr(lens_mod, "torsion_fourier_all",
                        lambda L: calls.append(L) or torsion_fourier_all(L))
    p = 101
    L = LensSpace(p, 3)
    rows = [lens_invariants(L, a) for a in range(p)]
    assert len(calls) == 1
    assert [r.torsion for r in rows] == [torsion(L, a) for a in range(p)]


def test_small_sweep():
    stats = verify_lens_sweep(25)
    assert stats["pairs"] == sum(1 for p in range(2, 26)
                                 for q in range(1, p) if math.gcd(p, q) == 1)


def test_fractional_identity():
    """{a q'/p} = (sum_t a_t n_{1,t-1})/p companion to the floor identity."""
    for p, q in [(7, 3), (18, 5), (31, 22)]:
        L = LensSpace(p, q)
        for a in range(p):
            E = spinc_coeffs(L, a).E
            acc = sum(E[t - 1] * L.n(1, t - 1) for t in range(1, L.s + 1))
            assert acc == (a * L.q_prime) % p


def test_generalized_cf_string():
    L = LensSpace(5, 3)
    text = generalized_cf_string(L, 4)
    assert text.startswith("4/5 = ")
    assert generalized_cf_string(L, 0).startswith("0/5")
    # display only: digits come from E(a)
    assert "1" in text


def test_table_matches_slow_definitions(rng):
    """Every row of the lens table equals the per-a reference definitions,
    on seeded random coprime (p, q) with p <= 400 and on p = 2."""
    pairs = [(2, 1)]
    while len(pairs) < 11:
        p = rng.randint(3, 400)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    for p, q in pairs:
        L = LensSpace(p, q)
        lam, k2q = casson_walker(L), k2s_quarter(L)
        chis = chi_lprime_table(L)
        for a in range(p):
            inv = lens_invariants(L, a, check_numeric=False)
            chi = chi_lprime(L, a)
            assert inv.chi == chis[a] == chi, (p, q, a)
            assert inv.d == k2q - 2 * chi, (p, q, a)
            assert inv.torsion == torsion(L, a), (p, q, a)
            assert inv.lam == lam, (p, q, a)
            assert inv.sw_osz == -inv.d / 2 == inv.sw_tcw == -inv.torsion + lam / p


def test_lens_invariants_range():
    with pytest.raises(RangeError):
        lens_invariants(LensSpace(7, 3), 7)
    with pytest.raises(RangeError):
        lens_invariants(LensSpace(7, 3), -1)


def test_object_dtype_table_agrees(monkeypatch):
    """The exact object-integer path, taken beyond the int64 bound, gives
    the same table and the same sweep as int64."""
    spaces = [(2, 1), (12, 5), (31, 22), (97, 40)]
    fixed = {pq: LensSpace(*pq).table for pq in spaces}
    swept = verify_lens_sweep(20)
    monkeypatch.setattr(lens_mod, "_int_dtype", lambda p: object)
    for pq in spaces:
        tab, ref = LensSpace(*pq).table, fixed[pq]
        assert tab.chi.dtype == object
        assert (tab.den, tab.s_num) == (ref.den, ref.s_num)
        for field in ("chi", "d", "torsion"):
            assert getattr(tab, field).tolist() == getattr(ref, field).tolist()
    assert verify_lens_sweep(20) == swept


def test_corrupted_e_table_raises(monkeypatch):
    """A wrong descending generation of E(a) raises the named error, both
    in spinc_coeffs and in the sweep."""
    honest = LensSpace._e_table.func

    def corrupted(self):
        tab = list(honest(self))
        tab[1] = tab[1][:-1] + (tab[1][-1] + 1,)
        return tuple(tab)

    monkeypatch.setattr(LensSpace, "_e_table", property(corrupted))
    with pytest.raises(LensIdentityError, match="generations"):
        spinc_coeffs(LensSpace(5, 3), 1)
    with pytest.raises(LensIdentityError, match="generations"):
        verify_lens_sweep(5)


def test_identity_checks_survive_optimize():
    """Under python -O, where assert statements are stripped, a corrupted
    E(a) table still raises LensIdentityError."""
    snippet = """
from gradedroots.lens import LensIdentityError, LensSpace, spinc_coeffs
L = LensSpace(5, 3)
vars(L)["_e_table"] = (L._e_table[0], (9, 9)) + L._e_table[2:]
try:
    spinc_coeffs(L, 1)
except LensIdentityError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    src_dir = os.path.dirname(os.path.dirname(lens_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-O", "-c", snippet], env=env, timeout=120)
    assert proc.returncode == 0
