"""Hand-known values for the benchmark's references.

    python3 -m pytest perfbench -q
"""

import os
import random
import sys
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402


def test_os_recursion_small_lens_spaces():
    assert sorted(ref.os_lens_d(2, 1, i) for i in range(2)) == [Fraction(-1, 4), Fraction(1, 4)]
    assert [ref.os_lens_d(3, 1, i) for i in range(3)] == [Fraction(1, 2), Fraction(-1, 6),
                                                          Fraction(-1, 6)]
    # L(p, 1): one step down to L(1, 0)
    for p in (5, 8):
        for i in range(p):
            assert ref.os_lens_d(p, 1, i) == Fraction(-1, 4) + Fraction((2 * i - p) ** 2, 4 * p)


@pytest.mark.parametrize("p,q", [(7, 3), (12, 5), (25, 11), (101, 37)])
def test_program_lens_d_is_negated_recursion(p, q):
    from gradedroots import lens
    L = lens.LensSpace(p, q)
    program = Counter(lens.lens_invariants(L, a, check_numeric=False).d for a in range(p))
    assert program == Counter(-ref.os_lens_d(p, q, i) for i in range(p))


def test_dedekind_sums():
    assert ref.dedekind_sum(1, 3) == Fraction(1, 18)
    assert ref.dedekind_sum(1, 5) == Fraction(1, 5)
    assert ref.dedekind_sum(2, 5) == 0
    for p in (7, 11, 30):
        assert ref.dedekind_sum(1, p) == Fraction((p - 1) * (p - 2), 12 * p)
    # reciprocity: s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq)) / 12
    for p, q in [(7, 3), (25, 11), (101, 37)]:
        lhs = ref.dedekind_sum(q, p) + ref.dedekind_sum(p % q, q)
        assert lhs == Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
    assert ref.lens_casson_walker(5, 1) == Fraction(1, 2)


def test_lattice_counts():
    assert [ref.e8_sublevel_count(L) for L in range(1, 6)] == [241, 2401, 9121, 26641, 56881]
    assert [ref.an_level1_count(n) for n in (10, 20, 30)] == [111, 421, 931]


def test_forms():
    e8 = ref.form_matrix([(i, -2) for i in range(8)],
                         [(i, i + 1) for i in range(6)] + [(2, 7)])
    assert ref.h_order(e8) == 1 and ref.is_negative_definite(e8)
    a5 = ref.form_matrix([(i, -2) for i in range(5)], [(i, i + 1) for i in range(4)])
    assert ref.h_order(a5) == 6
    adj = ref.adjugate(a5)
    d = ref.det(a5)
    assert all(sum(a5[i][k] * adj[k][j] for k in range(5)) == d * (i == j)
               for i in range(5) for j in range(5))
    assert not ref.is_negative_definite(ref.form_matrix([(0, -1), (1, -1)], [(0, 1)]))


def test_seifert_and_brieskorn():
    assert ref.brieskorn_data(2, 3, 5) == (-2, ((2, 1), (3, 2), (5, 4)))
    assert ref.brieskorn_data(2, 3, 7) == (-1, ((2, 1), (3, 1), (7, 1)))
    assert ref.seifert_h_order(-2, ((2, 1), (3, 1), (5, 1))) == 29
    assert ref.seifert_h_order(-2, ((3, 1), (3, 1), (4, 1))) == 39
    assert ref.seifert_h_order(*ref.brieskorn_data(5, 7, 11)) == 1
    assert ref.brieskorn_235_family(5) == (1, 2, 0, -1)
    assert ref.brieskorn_235_family(7) == (1, 0, 1, -1)
    assert ref.brieskorn_235_family(11) == (2, 2, 1, -2)
    assert ref.brieskorn_235_family(13) == (2, 0, 2, -2)
    assert ref.negative_cf(5, 4) == [2, 2, 2, 2]
    assert ref.negative_cf(7, 3) == [3, 2, 2]


def test_sweep_counts():
    assert ref.lens_sweep_counts(30) == (277, 5600)
    assert ref.lens_sweep_counts(50) == (773, 26020)


def test_casson_walker_on_s13_star(tmp_path):
    """The analyze check on the s = 13 star (|H| = 486): the orbit sum of
    -rank_red - d/2 is lambda = -369/2."""
    import workloads
    v, e = workloads.star(-3, [[-2, -2, -2, -3]] * 3)
    assert ref.h_order(ref.form_matrix(v, e)) == 486
    op = workloads._analyze_op(workloads.GraphFiles(str(tmp_path)), random.Random(1),
                               "star s=13", v, e)
    rc, out = op.run()
    assert rc == 0
    op.check(out)
    assert '"casson_walker": "-369/2"' in out


def test_last_descent_terms():
    assert tracing._last_descent_terms((0,)) == 1
    assert tracing._last_descent_terms((0, -1, 0, 1, 2)) == 2
    assert tracing._last_descent_terms((0, -1, 0, -2, -1, 0)) == 4


@pytest.mark.parametrize("name", ["analyze", "oracle-check", "closed-forms"])
def test_batches_are_seeded(name, tmp_path):
    import workloads
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _, ops_a = workloads.make_batch(name, random.Random(5), str(a))
    _, ops_b = workloads.make_batch(name, random.Random(5), str(b))
    assert len(ops_a) == workloads.BATCH_SIZE
    assert [op.label for op in ops_a] == [op.label for op in ops_b]
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for f in os.listdir(a):
        assert (a / f).read_text() == (b / f).read_text()
