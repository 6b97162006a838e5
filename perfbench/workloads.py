"""The three workloads: batches of operations made from a seed, with checks.

A batch is a fixed list of operation slots.  The seed decides

* the vertex ids, the order in which vertices and edges are listed and the
  orientation of each edge of every graph file (an isomorphic relabelling,
  so the program sees a different input describing the same manifold),
* the order of the operations in the batch,
* the free parameters of the slots that have them: the Euler numbers of
  the random stars of ``analyze`` and the q of each lens table of
  ``closed-forms``, drawn from classes of near-equal cost.

Slots whose cost swings widely with the input (random AR trees, the
Brieskorn spheres, the lattice enumerations, the Seifert data) are fixed
structures that the seed only relabels, so that every seed measures the
same amount of work and the spread between seeds stays inside the bounds
of ``BENCHMARK.json``.

Each operation is timed alone; its output is kept and checked after the
timed rounds against :mod:`reference`, which shares no code with the
program.  The expected values are computed inside each ``check``, so that
set-up times only the inputs and the program, not the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import reference as ref

# the program is imported by run.py before this module is used
from gradedroots import cli, plumbing

BATCH_SIZE = 40


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One operation of a batch.

    ``run`` performs it and returns (exit code, payload); ``expect_rc`` is
    the exit code of a successful run and ``check`` validates the payload."""

    label: str
    run: Callable[[], tuple]
    expect_rc: int
    check: Callable[[object], None]


def call_cli(argv):
    """``gradedroots.cli.main(argv)`` in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# graph construction and relabelling


def relabel(rng, vertices, edges):
    """An isomorphic copy with fresh ids and shuffled vertex and edge order."""
    ids = rng.sample(range(10 * len(vertices) + 10), len(vertices))
    new = {v: ids[i] for i, (v, _) in enumerate(vertices)}
    verts = [(new[v], e) for v, e in vertices]
    rng.shuffle(verts)
    eds = [(new[a], new[b]) if rng.random() < 0.5 else (new[b], new[a])
           for a, b in edges]
    rng.shuffle(eds)
    return verts, eds


def graph_json(vertices, edges):
    return {"vertices": [{"id": v, "e": e} for v, e in vertices],
            "edges": [[a, b] for a, b in edges]}


class GraphFiles:
    """Writes graph JSON files into one work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.n = 0

    def write(self, vertices, edges):
        path = os.path.join(self.workdir, f"g{self.n:03d}.json")
        self.n += 1
        with open(path, "w") as f:
            json.dump(graph_json(vertices, edges), f)
        return path


def chain(es):
    return [(i, e) for i, e in enumerate(es)], [(i, i + 1) for i in range(len(es) - 1)]


def star(centre, legs):
    """Star with the given centre decoration and legs (lists of decorations)."""
    vertices, edges, nxt = [(0, centre)], [], 1
    for leg in legs:
        prev = 0
        for e in leg:
            vertices.append((nxt, e))
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return vertices, edges


def pad_chain(vertices, edges, at, n, e=-4):
    """Attach a chain of n vertices decorated e at vertex id ``at``."""
    vertices, edges = list(vertices), list(edges)
    nxt, prev = max(v for v, _ in vertices) + 1, at
    for _ in range(n):
        vertices.append((nxt, e))
        edges.append((prev, nxt))
        prev, nxt = nxt, nxt + 1
    return vertices, edges


def e8():
    vertices = [(i, -2) for i in range(8)]
    return vertices, [(i, i + 1) for i in range(6)] + [(2, 7)]


def non_ar_a():
    """Two (-1) vertices of degree 3 on a chain; not almost-rational."""
    return ([(0, -2), (1, -1), (2, -13), (3, -1), (4, -2), (5, -3), (6, -3)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)])


def non_ar_b():
    """Two (-2) vertices of degree 4; not almost-rational."""
    return ([(0, -4), (1, -2), (2, -2), (3, -4), (4, -4), (5, -4), (6, -4), (7, -4)],
            [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (2, 6), (2, 7)])


def random_star(rng, h_lo, h_hi):
    """Random negative-definite three-legged star (always almost-rational)
    with centre -2 or -3, legs of length 1-2 and |H| in [h_lo, h_hi].  A -1
    centre lengthens tau and multiplies the cost by up to ten."""
    while True:
        legs = [[-rng.randint(2, 5) for _ in range(rng.randint(1, 2))] for _ in range(3)]
        vertices, edges = star(-rng.randint(2, 3), legs)
        B = ref.form_matrix(vertices, edges)
        if ref.is_negative_definite(B) and h_lo <= ref.h_order(B) <= h_hi:
            return vertices, edges


# Criterion-4-style almost-rational trees (s <= 6, |H| <= 20), drawn once
# from random small trees and random stars and classified by the program.
# Their oracle cost spreads over two orders of magnitude, so the family is
# fixed and the seed only relabels it.  Each entry: Euler numbers, edges.
AR_TREES = (
    ((-2, -2, -2), ((0, 1), (0, 2))),  # s, |H| = 3,4
    ((-2, -2, -3), ((0, 1), (0, 2))),  # s, |H| = 3,7
    ((-3, -2, -3), ((0, 1), (1, 2))),  # s, |H| = 3,12
    ((-3, -4, -2), ((0, 1), (1, 2))),  # s, |H| = 3,19
    ((-2, -4, -1, -1), ((0, 1), (1, 2), (1, 3))),  # s, |H| = 4,3
    ((-2, -2, -2, -2), ((0, 1), (0, 3), (1, 2))),  # s, |H| = 4,5
    ((-2, -2, -4, -1), ((0, 1), (1, 2), (2, 3))),  # s, |H| = 4,7
    ((-2, -2, -2, -3), ((0, 1), (1, 2), (2, 3))),  # s, |H| = 4,9
    ((-3, -2, -2, -2), ((0, 1), (0, 3), (1, 2))),  # s, |H| = 4,11
    ((-3, -3, -3, -1), ((0, 1), (0, 3), (1, 2))),  # s, |H| = 4,13
    ((-2, -3, -2, -3), ((0, 1), (0, 2), (0, 3))),  # s, |H| = 4,15
    ((-3, -2, -2, -3), ((0, 1), (1, 2), (2, 3))),  # s, |H| = 4,16
    ((-3, -3, -2, -2), ((0, 1), (0, 2), (2, 3))),  # s, |H| = 4,18
    ((-2, -3, -2, -3), ((0, 1), (1, 2), (2, 3))),  # s, |H| = 4,19
    ((-3, -3, -2, -2), ((0, 1), (0, 2), (0, 3))),  # s, |H| = 4,20
    ((-1, -3, -2, -2, -1), ((0, 1), (1, 2), (2, 3), (3, 4))),  # s, |H| = 5,1
    ((-3, -4, -1, -1, -1), ((0, 1), (0, 2), (0, 3), (1, 4))),  # s, |H| = 5,2
    ((-3, -2, -3, -1, -1), ((0, 1), (0, 2), (1, 4), (2, 3))),  # s, |H| = 5,3
    ((-3, -1, -3, -3, -1), ((0, 1), (0, 2), (0, 4), (2, 3))),  # s, |H| = 5,5
    ((-2, -2, -5, -1, -1), ((0, 1), (1, 2), (2, 3), (2, 4))),  # s, |H| = 5,7
    ((-3, -4, -2, -1, -1), ((0, 1), (0, 2), (1, 3), (1, 4))),  # s, |H| = 5,8
    ((-3, -1, -2, -2, -3), ((0, 1), (0, 2), (2, 3), (3, 4))),  # s, |H| = 5,9
    ((-2, -3, -2, -2, -2), ((0, 1), (0, 2), (2, 3), (3, 4))),  # s, |H| = 5,11
    ((-2, -1, -3, -3, -3), ((0, 1), (0, 2), (2, 3), (2, 4))),  # s, |H| = 5,12
    ((-5, -2, -3, -1, -1), ((0, 1), (0, 2), (0, 3), (0, 4))),  # s, |H| = 5,13
    ((-2, -2, -2, -2, -4), ((0, 1), (0, 2), (0, 4), (2, 3))),  # s, |H| = 5,14
    ((-4, -2, -1, -2, -3), ((0, 1), (0, 2), (1, 3), (3, 4))),  # s, |H| = 5,16
    ((-3, -2, -1, -3, -3), ((0, 1), (0, 2), (0, 3), (3, 4))),  # s, |H| = 5,18
    ((-3, -2, -4, -1, -2), ((0, 1), (0, 2), (0, 4), (2, 3))),  # s, |H| = 5,20
    ((-5, -1, -1, -1, -2, -1), ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))),  # s, |H| = 6,1
    ((-3, -2, -2, -1, -3, -1), ((0, 1), (0, 2), (0, 4), (1, 3), (2, 5))),  # s, |H| = 6,2
    ((-3, -4, -1, -1, -2, -1), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))),  # s, |H| = 6,3
)


# ---------------------------------------------------------------------------
# analyze


def _check_analyze(vertices, edges, literature=None):
    def check(out):
        B = ref.form_matrix(vertices, edges)
        order = ref.h_order(B)
        adj = ref.adjugate(B)
        kp = ref.canonical_pairings(B)
        data = json.loads(out)
        orbits = data["orbits"]
        require(len(orbits) == order, f"{len(orbits)} orbits, |det B| = {order}")
        total = sum(-o["rank_red"] - ref.parse_q(o["d"]) / 2 for o in orbits)
        cw = ref.parse_q(data["casson_walker"])
        require(total == cw, f"sum(-rank_red - d/2) = {total} != lambda = {cw}")
        require(all(o["certified"] for o in orbits), "uncertified tau")
        by_class = {ref.class_key(adj, order, o["l_prime_pairings"]): o for o in orbits}
        require(len(by_class) == order, "two orbits in one class of L'/L")
        for key, o in by_class.items():
            # [k] -> [-k] sends l' to -K - l'
            conj = [-a - b for a, b in zip(kp, o["l_prime_pairings"])]
            c = by_class[ref.class_key(adj, order, conj)]
            require((c["d"], c["rank_red"]) == (o["d"], o["rank_red"]),
                    f"conjugation: orbit {o['orbit']} vs {c['orbit']}")
        if literature is not None:
            _, d, rank, lam = literature
            o = orbits[0]
            require(ref.parse_q(o["d"]) == d and o["rank_red"] == rank and cw == lam,
                    f"literature d={d} rank={rank} lambda={lam}, got {o['d']} "
                    f"{o['rank_red']} {cw}")
    return check


def _check_not_ar(out):
    require("did not certify almost-rational" in out, "non-AR message missing")


def _analyze_op(files, rng, label, vertices, edges, expect_rc=0, literature=None):
    verts, eds = relabel(rng, vertices, edges)
    path = files.write(verts, eds)
    check = _check_not_ar if expect_rc == 2 else _check_analyze(verts, eds, literature)
    return Op(label, lambda: call_cli(["analyze", path, "--format", "json"]),
              expect_rc, check)


# The batch in cost order: 26 operations of 10-35 ms (random stars, Seifert
# stars, the small Brieskorn spheres), so that op_p50_ms (ranks 20-21 of 40)
# reads a cluster of like operations; then seven of 170-200 ms (six copies
# of the |H| = 150 star and Sigma(2,3,31)) around rank 30, which op_tail_ms
# reads; then the seven costliest (Sigma(2,3,11), Sigma(2,3,37), the non-AR
# graphs, the |H| = 294 star, Sigma(5,7,11)).
CENTRE3_STARS = (1, 1, 1, 1, 1, 1, 2)        # legs [-2]*n + [-3]
BRIESKORN = ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (2, 3, 19), (2, 3, 31),
             (2, 3, 37), (2, 5, 7), (3, 4, 5), (5, 7, 11))
SEIFERT_STARS = ((-2, ((2, 1), (3, 1), (5, 1))), (-2, ((3, 1), (3, 1), (4, 1))),
                 (-2, ((2, 1), (3, 1), (7, 1))), (-2, ((3, 1), (3, 1), (5, 1))),
                 (-2, ((2, 1), (4, 1), (5, 1))), (-2, ((3, 2), (3, 1), (4, 1))),
                 (-2, ((3, 1), (4, 1), (4, 1))), (-2, ((2, 1), (3, 2), (7, 2))),
                 (-3, ((2, 1), (3, 1), (4, 1))))
NON_AR = (("a", 2, 8), ("b", 0, 8), ("a", 2, 12))   # base graph, attach at, chain length
RANDOM_STAR_H = (10, 30)


def analyze_batch(rng, files):
    ops = []
    for n in CENTRE3_STARS:
        v, e = star(-3, [[-2] * n + [-3]] * 3)
        ops.append(_analyze_op(files, rng, f"star(-3;[-2]*{n},-3)", v, e))
    for alphas in BRIESKORN:
        v, e = ref.seifert_star(*ref.brieskorn_data(*alphas))
        lit = ref.brieskorn_235_family(alphas[2]) if alphas[:2] == (2, 3) else None
        ops.append(_analyze_op(files, rng, f"Sigma{alphas}", v, e,
                               literature=lit))
    for e0, legs in SEIFERT_STARS:
        v, e = ref.seifert_star(e0, legs)
        ops.append(_analyze_op(files, rng, f"Seifert({e0};{legs})", v, e))
    for base, at, pad in NON_AR:
        v, e = pad_chain(*(non_ar_a() if base == "a" else non_ar_b()), at, pad)
        ops.append(_analyze_op(files, rng, f"non_ar_{base}+{pad}", v, e,
                               expect_rc=2))
    while len(ops) < BATCH_SIZE:
        v, e = random_star(rng, *RANDOM_STAR_H)
        ops.append(_analyze_op(files, rng, "random star", v, e))
    return ops


def analyze_warmup(rng, files):
    v, e = ref.seifert_star(*ref.brieskorn_data(2, 3, 7))
    return _analyze_op(files, rng, "Sigma(2,3,7)", v, e,
                       literature=ref.brieskorn_235_family(7))


# ---------------------------------------------------------------------------
# oracle-check


_ORACLE_LINE = re.compile(r"orbit 0: min chi = (-?\d+), \|sublevel\((\d+)\)\| = (\d+), "
                          r"components = (\d+)")


def _lattice_op(files, rng, label, vertices, edges, level, count, size):
    """``count(size)`` is the expected number of points."""
    verts, eds = relabel(rng, vertices, edges)
    path = files.write(verts, eds)

    def check(out):
        expected_points = count(size)
        m = _ORACLE_LINE.search(out)
        require(m is not None, f"no oracle line in {out[:200]!r}")
        min_chi, lev, points, comps = map(int, m.groups())
        require(min_chi == 0 and lev == level, f"min chi {min_chi}, level {lev}")
        require(points == expected_points, f"{points} points, expected {expected_points}")
        require(comps == 1, f"sublevel set has {comps} components")
    return Op(label,
              lambda: call_cli(["oracle", path, "--level", str(level), "--orbit", "0"]),
              0, check)


def _tree_op(rng, label, vertices, edges):
    verts, eds = relabel(rng, vertices, edges)
    data = graph_json(verts, eds)

    def run():
        return 0, cli.verify_oracle_graph(plumbing.graph_from_json(data))

    def check(rep):
        order = ref.h_order(ref.form_matrix(verts, eds))
        require(rep["ok"] and rep["zero_component"]["ok"], "oracle report not ok")
        require(rep["orbits_checked"] == list(range(order)),
                f"checked {len(rep['orbits_checked'])} orbits of {order}")
    return Op(label, run, 0, check)


E8_LEVELS = (1, 2, 3, 4, 5)
AN_CHAINS = (12, 14, 16)


def oracle_batch(rng, files):
    ops = [_lattice_op(files, rng, f"E8 level {L}", *e8(), L, ref.e8_sublevel_count, L)
           for L in E8_LEVELS]
    ops += [_lattice_op(files, rng, f"A_{n} level 1", *chain([-2] * n), 1,
                        ref.an_level1_count, n) for n in AN_CHAINS]
    ops += [_tree_op(rng, f"AR tree {i}", list(enumerate(es)), list(eds))
            for i, (es, eds) in enumerate(AR_TREES)]
    return ops


def oracle_warmup(rng, files):
    return _lattice_op(files, rng, "E8 level 1", *e8(), 1, ref.e8_sublevel_count, 1)


# ---------------------------------------------------------------------------
# closed-forms


def _lens_op(p, q):
    def check(out):
        expected_d = Counter(-ref.os_lens_d(p, q, i) for i in range(p))
        lam = ref.lens_casson_walker(p, q)
        rows = json.loads(out)
        require([r["a"] for r in rows] == list(range(p)), "lens table rows")
        d = Counter(ref.parse_q(r["d"]) for r in rows)
        require(d == expected_d, f"L({p},{q}): d multiset differs from the recursion")
        require(all(ref.parse_q(r["lambda"]) == lam for r in rows),
                f"L({p},{q}): lambda != p s(q,p)/2 = {lam}")
        require(sum(ref.parse_q(r["torsion"]) for r in rows) == 0,
                f"L({p},{q}): torsions do not sum to 0")
        require(all(r["rank_red"] == 0 for r in rows), "lens rank_red != 0")
    return Op(f"L({p},{q})",
              lambda: call_cli(["lens", str(p), str(q), "--table", "--format", "json"]),
              0, check)


_SEIFERT_LINE = re.compile(r"sw identity exact on (\d+) orbits; lambda = (\S+),")


def _seifert_op(label, e0, legs, lam=None):
    argv = ["verify", "seifert", "--e0", str(e0)]
    for a, w in legs:
        argv += ["--leg", f"{a}/{w}"]

    def check(out):
        order = ref.seifert_h_order(e0, legs)
        m = _SEIFERT_LINE.search(out)
        require(m is not None, f"no verify line in {out[:200]!r}")
        require(int(m.group(1)) == order, f"{m.group(1)} orbits, |H| = {order}")
        if lam is not None:
            require(ref.parse_q(m.group(2)) == lam, f"lambda {m.group(2)} != {lam}")
    return Op(label, lambda: call_cli(argv), 0, check)


def _sweep_op(p_max):
    def check(out):
        pairs, orbits = ref.lens_sweep_counts(p_max)
        require(f"lens sweep ok: {pairs} spaces, {orbits} orbits" in out,
                f"sweep line {out.strip()!r}, expected {pairs} spaces, {orbits} orbits")
    return Op(f"verify lens {p_max}",
              lambda: call_cli(["verify", "lens", str(p_max)]), 0, check)


def euclid_steps(p, q):
    n = 0
    while q:
        p, q = q, p % q
        n += 1
    return n


def lens_q(rng, p, steps=4):
    """A q coprime to p for which Euclid's algorithm on (p, q) takes
    ``steps`` divisions.  Each table row evaluates s(q, p) by reciprocity,
    one step per division, so this fixes the cost class of the table."""
    while True:
        q = rng.randrange(2, p - 1)
        if math.gcd(p, q) == 1 and euclid_steps(p, q) == steps:
            return q


# Lens tables in cost order.  Ranks 20-21 of the 40 operations (op_p50_ms)
# fall in the middle of the fifteen p = 151 tables and rank 30 (op_tail_ms)
# on the third of the five p = 601 tables, so both percentiles are medians
# over several seeded q rather than one table's q.
LENS_P = ((31, 37, 41, 47, 53, 59, 61, 67, 71, 79, 89, 97)
          + (151,) * 15 + (601,) * 5 + (1009, 1009, 1009, 2003))
SEIFERT_BRIESKORN = ((2, 3, 11), (2, 3, 13))
SEIFERT_DATA = ((-2, ((2, 1), (3, 1), (5, 1))),)    # |H| = 29
SWEEP_P = 50


def closed_forms_batch(rng, files):
    ops = [_sweep_op(SWEEP_P)]
    for alphas in SEIFERT_BRIESKORN:
        ops.append(_seifert_op(f"Sigma{alphas}", *ref.brieskorn_data(*alphas),
                               lam=ref.brieskorn_235_family(alphas[2])[3]))
    ops += [_seifert_op(f"Seifert({e0};{legs})", e0, legs) for e0, legs in SEIFERT_DATA]
    ops += [_lens_op(p, lens_q(rng, p)) for p in LENS_P]
    return ops


def closed_forms_warmup(rng, files):
    return _lens_op(53, lens_q(rng, 53))


WORKLOADS = {
    "analyze": (analyze_batch, analyze_warmup),
    "oracle-check": (oracle_batch, oracle_warmup),
    "closed-forms": (closed_forms_batch, closed_forms_warmup),
}


def make_batch(name, rng, workdir):
    """(warm-up op, batch) of a workload, in the seed's order."""
    make, warm = WORKLOADS[name]
    files = GraphFiles(workdir)
    warmup = warm(rng, files)
    ops = make(rng, files)
    if len(ops) != BATCH_SIZE:
        raise ValueError(f"{name}: {len(ops)} operations, expected {BATCH_SIZE}")
    rng.shuffle(ops)
    return warmup, ops


