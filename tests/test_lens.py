import contextlib
import io
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gradedroots import cli, engine, spinc
from gradedroots import lens as lens_mod
from gradedroots.lens import (LensIdentityError, LensSpace, NotCoprime, RangeError,
                              dedekind_numerator, dedekind_sum, lens_invariants, neg_cf,
                              spinc_coeffs, torsion_fourier_all, verify_lens_sweep)
from gradedroots.plumbing import casson_walker as cw_graph
from gradedroots.plumbing import k_squared_plus_s
from slow_reference import (B_inv, casson_walker, casson_walker_chain_formula, cf_value,
                            chi_lprime, chi_lprime_table, chi_rational, dedekind_sum_direct,
                            dedekind_sum_reciprocity, descending_e_table,
                            generalized_cf_string, k2s_quarter, lprime_of, os_d_numerators,
                            lens_n, torsion, torsion_fourier, verify_lens_sweep_per_space)


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
        assert lens_n(L, 1, s) == p and lens_n(L, 2, s) == q
        assert (q * L.q_prime) % p == 1
        for i in range(1, s + 1):
            for j in range(i, s + 1):
                assert lens_n(L, i, j) == L.cf[j - 1] * lens_n(L, i, j - 1) - lens_n(L, i, j - 2)


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
            assert sum(E[t - 1] * lens_n(L, t + 1, s - 1) for t in range(1, s + 1)) \
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
                closed = Fraction(-lens_n(L, 1, i - 1) * lens_n(L, j + 1, s), p)
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
            acc = sum(E[t - 1] * lens_n(L, 1, t - 1) for t in range(1, L.s + 1))
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


def _lens_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_int_dtype_reads_the_one_threshold(monkeypatch):
    """lens._int_dtype(p) is spinc._int_dtype(30 p^3): int64 for every
    p < 2^19 and up to 535 689, the last p with 30 p^3 < 2^62, object from
    535 690; patching the spinc threshold reaches it."""
    for p in (2, 5, 2003, (1 << 19) - 1, 1 << 19, 535689):
        assert lens_mod._int_dtype(p) is np.int64
    assert lens_mod._int_dtype(535690) is object
    monkeypatch.setattr(spinc, "_int_dtype", lambda bound: object)
    assert lens_mod._int_dtype(5) is object


def test_object_dtype_table_agrees(monkeypatch):
    """The exact object-integer path, taken beyond the int64 bound, gives
    the same table, the same batched sweep and the same rendered rows as
    int64."""
    spaces = [(2, 1), (12, 5), (31, 22), (97, 40)]
    fixed = {pq: LensSpace(*pq).table for pq in spaces}
    rendered = {pq: _lens_cli(["lens", *map(str, pq), "--table", "--format", "json"])
                for pq in spaces}
    swept = verify_lens_sweep(20)
    monkeypatch.setattr(lens_mod, "_int_dtype", lambda p: object)
    dtypes = set()
    honest = lens_mod._e_failures

    def recording(p, qs, E, *rest):
        dtypes.add(E.dtype)
        return honest(p, qs, E, *rest)

    monkeypatch.setattr(lens_mod, "_e_failures", recording)
    for pq in spaces:
        tab, ref = LensSpace(*pq).table, fixed[pq]
        assert tab.chi.dtype == object
        assert (tab.den, tab.s_num) == (ref.den, ref.s_num)
        for field in ("chi", "d", "torsion"):
            assert getattr(tab, field).tolist() == getattr(ref, field).tolist()
        assert _lens_cli(["lens", *map(str, pq), "--table", "--format", "json"]) == rendered[pq]
    assert verify_lens_sweep(20) == swept
    assert dtypes == {np.dtype(object)}


def _double_e1(honest):
    """The floor digits with E(1) = (0, ..., 0, 1) doubled, that is one
    added to its last entry."""
    def corrupted(w, p):
        E = honest(w, p)
        E[:, :, 1] *= 2
        return E
    return corrupted


def test_corrupted_e_table_raises(monkeypatch):
    """A wrong E(a) table raises the named error, both in spinc_coeffs and
    in the sweep."""
    monkeypatch.setattr(lens_mod, "_e_digits", _double_e1(lens_mod._e_digits))
    with pytest.raises(LensIdentityError, match="generations"):
        spinc_coeffs(LensSpace(5, 3), 1)
    with pytest.raises(LensIdentityError, match="generations"):
        verify_lens_sweep(5)


def test_sweep_refuses_small_pmax():
    """A sweep needs p_max >= 2; below it the error names the value."""
    for p_max in (1, 0, -3):
        with pytest.raises(RangeError, match=f"got p_max={p_max}$"):
            verify_lens_sweep(p_max)
    assert verify_lens_sweep(2) == {"pairs": 1, "orbits": 2}


def test_identity_checks_survive_optimize():
    """Under python -O, where assert statements are stripped, a corrupted
    E(a) table still raises LensIdentityError."""
    snippet = """
from gradedroots import lens
from gradedroots.lens import LensIdentityError, LensSpace, spinc_coeffs
honest = lens._e_digits

def corrupted(w, p):
    E = honest(w, p)
    E[:, :, 1] = 9
    return E

lens._e_digits = corrupted
try:
    spinc_coeffs(LensSpace(5, 3), 1)
except LensIdentityError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    src_dir = os.path.dirname(os.path.dirname(lens_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-O", "-c", snippet], env=env, timeout=120)
    assert proc.returncode == 0


def test_dedekind_numerator_matches_fraction_reciprocity(rng):
    """The integer chain 12p s(q, p) equals 12p times the Fraction
    reciprocity for every coprime pair with p <= 60 and for seeded random
    pairs with p <= 5000; dedekind_sum reads it over 12p."""
    pairs = [(p, q) for p in range(1, 61) for q in range(1 if p > 1 else 0, max(p, 1))
             if math.gcd(p, q) == 1]
    while len(pairs) < 2000:
        p = rng.randint(2, 5000)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    for p, q in pairs:
        s = dedekind_sum_reciprocity(q, p)
        assert dedekind_numerator(q, p) == 12 * p * s, (p, q)
        assert dedekind_sum(q, p) == s, (p, q)
        if p <= 60:
            assert dedekind_sum_direct(q, p) == s, (p, q)


def test_sweep_matches_per_space_reference(rng):
    """The batched sweep gives the counters and the verdict of the sweep one
    space at a time, on seeded p-ranges."""
    for p_max in [2, 3] + [rng.randint(4, 45) for _ in range(3)]:
        assert verify_lens_sweep(p_max) == verify_lens_sweep_per_space(p_max), p_max


def test_e_table_matches_descending_generation(rng):
    """E(a) as checked floor digits equals the table generated downward from
    E(p-1), on seeded random spaces with p <= 400 and every space p <= 12."""
    spaces = [(p, q) for p in range(2, 13) for q in range(1, p) if math.gcd(p, q) == 1]
    while len(spaces) < 80:
        p = rng.randint(13, 400)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) == 1:
            spaces.append((p, q))
    for p, q in spaces:
        L = LensSpace(p, q)
        assert L.e_table == descending_e_table(L), (p, q)


def _picked(p, q):
    """The spaces the corruption tests break.  At p = 21 the chains are
    checked in buckets of lengths 1, 2-3, 4-7, ..., so the sweep meets
    q = 11 (s = 2) before q = 5 (s = 5)."""
    return p >= 21 and q % 6 == 5


# the families checked bucket by bucket, where the first corrupted space
# met is not the first in q order
BUCKETED = ("endpoints", "q'", "generations", "(SI)", "floor", "fractional")


def _rows_of(N, k):
    """(p, q, s) of each row of a batch of n-tables."""
    s = np.count_nonzero(k, axis=1)
    return [(int(N[b, 1, s[b] + 1]), int(N[b, 2, s[b] + 1]), int(s[b])) for b in range(len(s))]


def _corrupt_tables(edit):
    def hook(honest, hit):
        def wrapped(k):
            N = honest(k)
            for b, (p, q, s) in enumerate(_rows_of(N, k)):
                if _picked(p, q) and edit(N, b, s):
                    hit.append((p, q))
            return N
        return wrapped
    return "_n_tables", hook


def _corrupt_columns(honest, hit):
    def wrapped(N, s):
        ns, v, r, qp = honest(N, s)
        for b in range(len(s)):
            p, q = int(ns[0, b]), int(ns[1, b])
            if _picked(p, q):
                qp[b] += p
                hit.append((p, q))
        return ns, v, r, qp
    return wrapped


def _corrupt_dedekind(honest, hit):
    def wrapped(q, p):
        if _picked(p, q):
            hit.append((p, q))
            return honest(q, p) + 2
        return honest(q, p)
    return wrapped


def _corrupt_digits(honest, hit):
    def wrapped(w, p):
        E = honest(w, p)
        for b, q in enumerate(w[0].tolist()):
            if _picked(p, q):
                E[:, b, 1] *= 2
                hit.append((p, q))
        return E
    return wrapped


def _corrupt_e_input(edit):
    def hook(honest, hit):
        def wrapped(p, qs, E, k, s, ns, v, r, qp):
            ns, v, r = ns.copy(), v.copy(), r.copy()
            for b, q in enumerate(qs):
                if _picked(p, q) and edit(b, int(s[b]), E.shape[0], ns, v, r):
                    hit.append((p, q))
            return honest(p, qs, E, k, s, ns, v, r, qp)
        return wrapped
    return "_e_failures", hook


def _corrupt_table(field):
    def hook(honest, hit):
        def wrapped(p, qs, qp, s_num):
            chi, d, tors, found = honest(p, qs, qp, s_num)
            for b, q in enumerate(qs):
                if _picked(p, q):
                    {"chi": chi, "torsion": tors}[field][b, 0] += 1
                    hit.append((p, q))
            return chi, d, tors, found
        return wrapped
    return "_tables", hook


def _corrupt_fourier(honest, hit):
    def wrapped(p, qs):
        out = honest(p, qs)
        for b, q in enumerate(qs):
            if _picked(p, q):
                out[b, 0] += 1e-6
                hit.append((p, q))
        return out
    return wrapped


def _shift_q(N, b, s):
    """n(2, s) = q + 1."""
    N[b, 2, s + 1] += 1
    return True


def _interior(N, b, s):
    """n(2, 2), inside the table but in no column the other checks read."""
    if s < 4:
        return False
    N[b, 2, 3] += 1
    return True


def _widen(b, s, S, ns, v, r):
    """n(2, s) + 1 as the weight of a_1 and the bound of (SI) at i = 2."""
    if s < 2:
        return False
    ns[1, b] += 1
    return True


def _drop_last_weight(b, s, S, ns, v, r):
    """n(s+1, s) = 0 as the weight of a_s, on the longest chains of a bucket,
    where it bounds no (SI)."""
    if s < S:
        return False
    ns[s, b] = 0
    return True


def _bump(name):
    def edit(b, s, S, ns, v, r):
        {"v": v, "r": r}[name][0, b] += 1
        return True
    return edit


CORRUPTIONS = {
    "endpoints": (_corrupt_tables(_shift_q), "n-table endpoints"),
    "symmetry": (_corrupt_tables(_interior), "n symmetry at (2,2)"),
    "q'": (("_chain_columns", _corrupt_columns), "q' = n(1,s-1) = "),
    "Casson-Walker": (("dedekind_numerator", _corrupt_dedekind), "Casson-Walker chain formula"),
    "generations": (("_e_digits", _corrupt_digits),
                    "floor and descending generations of E(a) disagree at a="),
    "(SI)": (_corrupt_e_input(_widen), "(SI) at a="),
    "a-sum": (_corrupt_e_input(_drop_last_weight), "a = sum_t n_(t+1,s) a_t at a="),
    "floor": (_corrupt_e_input(_bump("v")), "floor identity at a="),
    "fractional": (_corrupt_e_input(_bump("r")), "fractional identity at a="),
    "sum T": (_corrupt_table("torsion"), "sum of torsions != 0"),
    "sum chi": (_corrupt_table("chi"), "sum of chi"),
    "Fourier": (("_fourier", _corrupt_fourier), "Fourier torsion off by "),
}


@pytest.mark.parametrize("family", sorted(CORRUPTIONS))
def test_sweep_names_first_failing_space(monkeypatch, family):
    """One input of the batched sweep, corrupted on the spaces _picked (for
    some families only where the input exists), raises the family's
    LensIdentityError for the first corrupted L(p, q) in (p, q) order,
    although each p checks its chains bucket by bucket."""
    (name, hook), stem = CORRUPTIONS[family]
    hit = []
    monkeypatch.setattr(lens_mod, name, hook(getattr(lens_mod, name), hit))
    with pytest.raises(LensIdentityError) as err:
        verify_lens_sweep(40)
    p, q = min(hit)
    assert str(err.value).startswith(f"L({p},{q}): {stem}"), (str(err.value), hit)
    assert len(set(hit)) > 1
    if family in BUCKETED:
        assert hit[0] != min(hit)


def test_q_prime_checks_the_row_recurrence(monkeypatch):
    """LensSpace.q_prime raises when n(1, s-1) is not the inverse of q."""
    monkeypatch.setattr(LensSpace, "cf", property(lambda self: (2, 2, 2)))
    with pytest.raises(LensIdentityError, match=r"L\(21,8\): q' = n\(1,s-1\) = 3 is not"):
        LensSpace(21, 8).q_prime


def _os_mismatches(p_max, shift=0, sign=-1):
    """The L(p, q), p <= p_max, whose lens-table d, shifted by ``shift``/(12p),
    is not sign * d_OS(p, q, .) as a multiset."""
    memo, bad = {}, []
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            d = LensSpace(p, q).table.d + shift  # 12p d
            os_d = 3 * sign * os_d_numerators(p, q, memo)  # 12p d_OS
            if Counter(d.tolist()) != Counter(os_d.tolist()):
                bad.append((p, q))
    return bad


def test_lens_table_matches_os_recursion():
    """The lens table's d is -d_OS(p, q, .) of the Ozsvath-Szabo recursion
    as a multiset for every L(p, q) with p <= 200, on integer numerators
    (d_OS of L(p, q) is d of L(p, p - q), the other orientation).  The
    comparison fails on a d shifted by 1/(12p) and on the + sign."""
    assert _os_mismatches(200) == []
    spaces = sum(1 for p in range(2, 31) for q in range(1, p) if math.gcd(p, q) == 1)
    assert len(_os_mismatches(30, shift=1)) == spaces
    assert len(_os_mismatches(30, sign=1)) > 0.9 * spaces
