"""Batch front end: analyze plumbing graphs, export roots, verify identities.

Subcommands
-----------
analyze  GRAPH.json            classification + per-orbit invariant table
root     GRAPH.json -o PREFIX  DOT file per selected orbit (PREFIX_orbit<i>.dot)
lens     P Q [--spinc A|--table]   closed-form lens invariants
seifert  --e0 E0 --leg a/w ...     closed-form Seifert reports
oracle   GRAPH.json [--level N]    brute-force sublevel/root data
verify   lens PMAX | seifert ... | --oracle GRAPH.json   identity suites

Exit codes: 0 success, 1 input error, 2 graph did not certify
almost-rational (analyze/root only; rerun with `oracle`), 3 internal
invariant failed (a bug, not bad input).  Rationals are
printed as "p/q" strings; the only floating-point outputs are the numeric
oracle columns explicitly labelled approx.  Files are written to a
temporary path and renamed, so failures leave no partial output.

Implementation notes (kept out of --help)
-----------------------------------------
``--format json`` output is byte-identical to ``json.dumps(payload,
indent=2)``; :func:`_json_text` writes it with C-level formatters, not the
stdlib's pure-Python indent encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import engine, lens as lens_mod, oracle, seifert as seifert_mod, spinc
from .plumbing import (InvariantViolated, canonical_class, casson_walker, graph_from_json,
                       k_squared_plus_s)
from .roots import _fmt_q, _fmt_ratios, dot_export


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-gradedroots-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_graph(path):
    # the text, parsed once: a file holding a JSON string is not a graph
    with open(path) as f:
        return graph_from_json(f.read())


def _check_orbit(index, count):
    if not 0 <= index < count:
        raise ValueError(f"no orbit {index}; the graph has {count} orbits")


def _orbit_filter(text, count):
    """The --orbits selection among ``count`` orbits: a function that keeps
    the reports of the comma-separated indices, or all of them for 'all'."""
    if text == "all":
        return list
    wanted = [int(v) for v in text.split(",") if v != ""]
    for index in wanted:
        _check_orbit(index, count)
    return lambda reports: [r for r in reports if r.orbit.orbit_index in wanted]


_STR = json.encoder.encode_basestring_ascii
_SCALARS = {str: _STR, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _not_json(value):
    return TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(k):
    if type(k) is not str:
        raise _not_json(k)
    return _STR(k)


def _json_text(obj, depth=0):
    """``json.dumps(obj, indent=2)``, byte for byte, for str, int, bool and
    None in lists, tuples and str-keyed dicts; any other type (a float, a
    numpy scalar, a non-str key) raises TypeError.  The stdlib runs its
    pure-Python encoder once ``indent`` is set; here every scalar goes
    through one C-level formatter and every container through one join."""
    t = type(obj)
    if t in _SCALARS:
        return _SCALARS[t](obj)
    if t is dict:
        return _json_items((obj,), depth)[0] if obj else "{}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        close = "\n" + "  " * depth
        inner = close + "  "
        return "[" + inner + ("," + inner).join(_json_items(obj, depth + 1)) + close + "]"
    raise _not_json(obj)


def _json_items(values, depth):
    """The texts of the non-empty sequence ``values`` at ``depth``: one map
    of one formatter for scalars of one type; dicts of one key order column
    by column, one %-template per row; anything else value by value."""
    types = set(map(type, values))
    t = types.pop() if len(types) == 1 else None
    if t in _SCALARS:
        return list(map(_SCALARS[t], values))
    if t is dict:
        keys = tuple(values[0])
        if keys and all(tuple(v) == keys for v in values):
            inner = "\n" + "  " * (depth + 1)
            row = "{" + inner + ("," + inner).join(
                [_key(k).replace("%", "%%") + ": %s" for k in keys]) + inner[:-2] + "}"
            columns = [_json_items(col, depth + 1) for col in zip(*map(dict.values, values))]
            return list(map(row.__mod__, zip(*columns)))
    return [_json_text(v, depth) for v in values]


def _emit(fmt, header, rows, payload, preamble):
    """Print ``payload`` as json, or the ``header`` columns of the dict
    ``rows`` as csv, or as a table under the ``preamble`` lines."""
    if fmt == "json":
        print(_json_text(payload))
        return
    cells = [header] + [[str(row[h]) for h in header] for row in rows]
    if fmt == "csv":
        print("\n".join(",".join(r) for r in cells))
        return
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    print("\n".join(preamble + ["  ".join(v.ljust(w) for v, w in zip(r, widths))
                                for r in cells]))


# ---------------------------------------------------------------------------
# analyze / root


def cmd_analyze(args):
    graph = _load_graph(args.graph)
    select = _orbit_filter(args.orbits, graph.form.order)
    cls = engine.classify(graph, max_decrements=args.ar_cap)
    if not cls.is_ar():
        print(f"classification: {cls.describe()}")
        print("graph did not certify almost-rational; "
              "the `oracle` subcommand still enumerates sublevel roots")
        return 2
    cls, reports = engine.analyze_all(graph, cls)
    chosen = select(reports)
    orbits = []
    for r, l_prime in zip(chosen, spinc.l_prime_strings(graph, [r.orbit for r in chosen])):
        entry = r.to_json(l_prime)
        # orbits are rendered both as b-coordinates and pairing vectors
        entry["l_prime_pairings"] = list(r.orbit.pairings)
        entry["module"] = r.module.to_json()
        orbits.append(entry)
    k2s, lam = _fmt_q(k_squared_plus_s(graph)), _fmt_q(casson_walker(graph))
    payload = {"classification": cls.describe(), "k2_plus_s": k2s,
               "casson_walker": lam, "orbits": orbits}
    _emit(args.format, ["orbit", "d", "rank_red", "chi_hf", "sw_osz", "certified"],
          orbits, payload, [f"classification: {cls.describe()}",
                            f"K^2+s = {k2s}, lambda = {lam}, |H| = {graph.form.order}"])
    return 0


def cmd_root(args):
    graph = _load_graph(args.graph)
    select = _orbit_filter(args.orbits, graph.form.order)
    cls = engine.classify(graph, max_decrements=args.ar_cap)
    if not cls.is_ar():
        if not args.oracle:
            print(f"classification: {cls.describe()}; rerun with --oracle "
                  "to export brute-force truncated roots")
            return 2
        K = canonical_class(graph)
        root = oracle.root_oracle(graph, K, 1, point_cap=args.point_cap)
        path = f"{args.out}_canonical.dot"
        _write_atomic(path, dot_export(root, k_squared_plus_s(graph) / 4))
        print(f"wrote {path}")
        return 0
    cls, reports = engine.analyze_all(graph, cls)
    for r in select(reports):
        path = f"{args.out}_orbit{r.orbit.orbit_index}.dot"
        _write_atomic(path, dot_export(r.root, r.kr2s / 4))
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# lens / seifert reports


def cmd_lens(args):
    p, q = args.p, args.q
    L = lens_mod.LensSpace(p, q)
    if args.spinc is not None:
        lens_mod.check_spinc(L, args.spinc)
    orbits = list(range(p)) if (args.table or args.spinc is None) else [args.spinc]
    tab = L.table
    d, torsion = _fmt_ratios(tab.d[orbits], tab.den), _fmt_ratios(tab.torsion[orbits], tab.den)
    # lambda = p s(q,p)/2 = s_num/24
    (lam,) = _fmt_ratios(np.array([tab.s_num]), 24)
    rows = [{"p": p, "q": q, "a": a, "d": d[i], "rank_red": 0, "torsion": torsion[i],
             "lambda": lam} for i, a in enumerate(orbits)]
    if not args.no_numeric:
        approx = L.fourier_torsion[orbits].tolist()
        for row, value in zip(rows, approx):
            row["torsion_approx"] = repr(value)
    _emit(args.format, list(rows[0]), rows, rows, [])
    return 0


def cmd_seifert(args):
    data = seifert_mod.SeifertData(e0=args.e0, legs=tuple(args.leg))
    k2s = seifert_mod.seifert_k2s(data)
    rows = []
    for idx, sp in enumerate(seifert_mod.enumerate_seifert_spinc(data)):
        orb = seifert_mod.seifert_orbit(data, sp, k2s)
        rank = orb.rank_red
        rows.append({"orbit": idx, "a0": sp.a0,
                     "a": ";".join(str(v) for v in sp.a),
                     "d": _fmt_q(orb.d), "rank_red": rank, "chi_hf": rank,
                     "sw_osz": _fmt_q(rank - orb.d / 2),
                     "torsion": _fmt_q(orb.torsion), "torsion_limit": _fmt_q(orb.limit),
                     "certified": orb.tau.certified})
    dp = seifert_mod.dp_invariant(data)
    payload = {"data": data.describe(), "k2_plus_s": _fmt_q(k2s),
               "casson_walker": _fmt_q(casson_walker(data.graph)),
               "h_order": data.h_order, "dp_invariant": dp, "orbits": rows}
    _emit(args.format, list(rows[0]), rows, payload,
          [f"{data.describe()}  e = {_fmt_q(data.e)}  |H| = {data.h_order}  DP = {dp}"])
    return 0


# ---------------------------------------------------------------------------
# oracle command


def cmd_oracle(args):
    g = _load_graph(args.graph)
    if args.orbit is not None:
        _check_orbit(args.orbit, g.form.order)
    orbits = spinc.enumerate_spinc(g)
    chosen = orbits if args.orbit is None else [orbits[args.orbit]]
    for orb in chosen:
        n_max = args.level
        if n_max is None:
            n_max = oracle.min_chi(g, orb.k_r, point_cap=args.point_cap) + 6
        # one enumeration of the top level gives the root, whose lowest
        # level is min chi, and the point count; the components at n_max
        # are the root's vertices there
        root, n_points = next(oracle.graph_roots(g, [orb.k_r], [n_max], args.point_cap))
        min_c = root.min_chi()
        components = sum(1 for c in root.truncate(n_max).chi if c == n_max)
        print(f"orbit {orb.orbit_index}: min chi = {min_c}, "
              f"|sublevel({n_max})| = {n_points}, "
              f"components = {components}, root = {root!r}")
        if args.dot:
            path = f"{args.dot}_orbit{orb.orbit_index}.dot"
            _write_atomic(path, dot_export(root, orb.kr2s / 4))
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# verify suites


# verify --oracle compares the roots up to this many levels above min tau.
ORACLE_LEVEL_OFFSET = 6


def verify_oracle_graph(graph, point_cap=oracle.DEFAULT_POINT_CAP):
    """Engine-vs-oracle equivalence on every orbit of an AR graph: the
    engine root truncated at min tau + ORACLE_LEVEL_OFFSET must equal the
    enumerated sublevel root.  Returns a report dict; raises
    :class:`InvariantViolated` with the offending orbit otherwise."""
    cls, reports = engine.analyze_all(graph)
    cuts = [rep.min_tau + ORACLE_LEVEL_OFFSET for rep in reports]
    orc_roots = oracle.graph_roots(graph, [rep.orbit.k_r for rep in reports], cuts, point_cap)
    checked = []
    for rep, cut, (orc_root, _) in zip(reports, cuts, orc_roots):
        if rep.root.truncate(cut) != orc_root.truncate(cut):
            raise InvariantViolated(f"orbit {rep.orbit.orbit_index}: engine root != oracle "
                                    f"root at level {cut}")
        checked.append(rep.orbit.orbit_index)
    zero = oracle.component_zero_structure(graph, point_cap=point_cap)
    if not zero["ok"]:
        raise InvariantViolated(f"zero-component structure violated: {zero}")
    return {"classification": cls.describe(), "orbits_checked": checked,
            "zero_component": zero, "ok": True}


def cmd_verify(args):
    legs = args.what != "seifert" and (args.e0 is not None or args.leg)
    given = [name for name, on in (("lens", args.what == "lens"), ("--e0/--leg", legs),
                                   ("seifert", args.what == "seifert"),
                                   ("--oracle", args.oracle_graph is not None)) if on]
    if len(given) > 1:
        raise ValueError(f"verify runs one target, got {' and '.join(given)}")
    if args.what == "lens":
        if args.pmax is None:
            raise ValueError("verify lens needs PMAX")
        stats = lens_mod.verify_lens_sweep(args.pmax)
        print(f"lens sweep ok: {stats['pairs']} spaces, {stats['orbits']} orbits, "
              "all identities exact, Fourier torsion within 1e-9")
    elif args.what == "seifert":
        if not args.leg or args.e0 is None:
            raise ValueError("verify seifert needs --e0 and >= 3 --leg")
        rep = seifert_mod.verify_sw_identity(
            seifert_mod.SeifertData(e0=args.e0, legs=tuple(args.leg)))
        print(f"{rep['data']}: sw identity exact on {len(rep['orbits'])} orbits; "
              f"lambda = {_fmt_q(rep['lambda'])}, K^2+s = {_fmt_q(rep['k2s'])}")
    elif args.oracle_graph is not None:
        rep = verify_oracle_graph(_load_graph(args.oracle_graph), point_cap=args.point_cap)
        print(f"oracle equivalence ok: {rep['classification']}, "
              f"orbits {rep['orbits_checked']}")
    else:
        raise ValueError("verify needs 'lens PMAX', 'seifert ...' or '--oracle GRAPH'")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _leg(text):
    a, _, w = text.partition("/")
    return (int(a), int(w))


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="gradedroots",
                                 description=__doc__.split("\n\nImplementation notes")[0],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    # options shared by several subcommands; each names the ones it takes
    shared = {
        "--format": dict(choices=["table", "json", "csv"], default="table"),
        "--orbits": dict(default="all", help="comma-separated orbit indices, or 'all'"),
        "--point-cap": dict(type=int, default=oracle.DEFAULT_POINT_CAP,
                            help="the most nodes the oracle's enumeration may visit "
                                 "(default %(default)s)"),
        "--ar-cap": dict(type=int, default=engine.DEFAULT_AR_DECREMENT_CAP,
                         help="max decrements in the almost-rational vertex search"),
    }

    def add_graph(p, *options):
        p.add_argument("graph", help="path to a graph JSON file")
        for name in options:
            p.add_argument(name, **shared[name])

    p = sub.add_parser("analyze", help="classification and per-orbit invariants")
    p.set_defaults(run=cmd_analyze)
    add_graph(p, "--format", "--orbits", "--ar-cap")

    p = sub.add_parser("root", help="export graded roots as DOT")
    p.set_defaults(run=cmd_root)
    add_graph(p, "--orbits", "--point-cap", "--ar-cap")
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.add_argument("--oracle", action="store_true",
                   help="fall back to brute-force roots when not AR")

    p = sub.add_parser("lens", help="closed-form lens space invariants")
    p.set_defaults(run=cmd_lens)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--spinc", type=int, default=None, help="single orbit a")
    p.add_argument("--table", action="store_true", help="all orbits")
    p.add_argument("--format", **shared["--format"])
    p.add_argument("--no-numeric", action="store_true",
                   help="skip the approx Fourier torsion column")

    p = sub.add_parser("seifert", help="closed-form Seifert reports")
    p.set_defaults(run=cmd_seifert)
    p.add_argument("--e0", type=int, required=True)
    p.add_argument("--leg", type=_leg, action="append", required=True,
                   metavar="a/w", help="one leg as alpha/omega (repeat >= 3 times)")
    p.add_argument("--format", **shared["--format"])

    p = sub.add_parser("oracle", help="brute-force sublevel enumeration")
    p.set_defaults(run=cmd_oracle)
    add_graph(p, "--point-cap")
    p.add_argument("--level", type=int, default=None,
                   help="sublevel cutoff (default: min chi + 6)")
    p.add_argument("--orbit", type=int, default=None, help="single orbit index")
    p.add_argument("--dot", default=None, help="write DOT files with this prefix")

    p = sub.add_parser("verify", help="identity and oracle-equivalence suites")
    p.set_defaults(run=cmd_verify)
    p.add_argument("what", nargs="?", choices=["lens", "seifert"], default=None)
    p.add_argument("pmax", nargs="?", type=int, default=None,
                   help="lens sweep bound (with 'verify lens')")
    p.add_argument("--e0", type=int, default=None)
    p.add_argument("--leg", type=_leg, action="append", default=None, metavar="a/w")
    p.add_argument("--oracle", dest="oracle_graph", default=None, metavar="GRAPH",
                   help="graph JSON for the engine-vs-oracle suite")
    p.add_argument("--point-cap", **shared["--point-cap"])
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except engine.NotAR as exc:
        print(f"not almost-rational: {exc}", file=sys.stderr)
        return 2
    except InvariantViolated as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
