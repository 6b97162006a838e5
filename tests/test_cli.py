import contextlib
import copy
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from io import StringIO

import pytest

from conftest import e8_graph, non_ar_graph_a, random_star, remark56_graph
from gradedroots import oracle, spinc
from gradedroots.cli import main, verify_oracle_graph


def run_cli(args):
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def e8_file(tmp_path):
    path = tmp_path / "e8.json"
    path.write_text(json.dumps(e8_graph().to_json()))
    return str(path)


@pytest.fixture
def notar_file(tmp_path):
    path = tmp_path / "notar.json"
    path.write_text(json.dumps(non_ar_graph_a().to_json()))
    return str(path)


def test_analyze_e8(e8_file):
    code, out, _ = run_cli(["analyze", e8_file])
    assert code == 0
    assert "Rational" in out and "2" in out


def test_analyze_json_format(e8_file):
    code, out, _ = run_cli(["analyze", e8_file, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Rational"
    assert payload["orbits"][0]["d"] == "2"
    assert payload["orbits"][0]["l_prime_pairings"] == [0] * 8
    assert payload["orbits"][0]["module"] == {"tower": "-2", "finite": []}


def test_analyze_byte_stable(e8_file):
    runs = [run_cli(["analyze", e8_file, "--format", "json"])[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_analyze_not_ar_exit_2(notar_file):
    code, out, _ = run_cli(["analyze", notar_file])
    assert code == 2
    assert "oracle" in out  # fallback suggestion


def test_analyze_weakly_elliptic(tmp_path):
    path = tmp_path / "g56.json"
    path.write_text(json.dumps(remark56_graph().to_json()))
    code, out, _ = run_cli(["analyze", str(path)])
    assert code == 0
    assert "WeaklyElliptic l=1" in out


def test_bad_input_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [{"id": 0, "e": -2}], "edges": [], "junk": 1}')
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 1 and "unknown keys" in err
    code, _, err = run_cli(["analyze", str(tmp_path / "missing.json")])
    assert code == 1


def _mutate(rng, data):
    """A copy of the graph object ``data`` with one field broken: a key
    dropped, a type changed, a value nested, null, a float or a bool in its
    place, or a third end on an edge.  Returns the copy and the texts that
    the error must hold to name the field."""
    d = copy.deepcopy(data)
    how = rng.choice(("drop", "type", "nest", "null", "float", "bool"))
    where = rng.choice(("file", "top", "vertex", "vertex", "edge", "edge"))
    if where == "file":
        return rng.choice((None, [d], 3, "graph")), ["graph file"]
    if where == "top":
        key = rng.choice(("vertices", "edges"))
        if how == "drop":
            del d[key]
        else:
            d[key] = {"type": "x", "nest": {key: d[key]}, "null": None, "float": 1.5,
                      "bool": True}[how]
        return d, [repr(key)]
    if where == "vertex":
        i = rng.randrange(len(d["vertices"]))
        v, key = d["vertices"][i], rng.choice(("id", "e"))
        if how == "drop":
            del v[key]
        else:
            v[key] = {"type": str(v[key]) if key == "e" else {"id": v[key]},
                      "nest": [v[key]], "null": None,
                      "float": rng.choice((float(v[key]), v[key] + 0.5)),
                      "bool": rng.choice((True, False))}[how]
        return d, [f"vertices[{i}]", repr(key)]
    j = rng.randrange(len(d["edges"]))
    edge = d["edges"][j]
    if how == "drop":  # no key to drop on an edge: a third end instead
        edge.append(edge[0])
    elif rng.random() < 0.5:
        d["edges"][j] = {"type": edge[0], "nest": [edge], "null": None, "float": 0.5,
                         "bool": False}[how]
    else:
        t = rng.randrange(2)
        edge[t] = {"type": {"id": edge[t]}, "nest": [edge[t]], "null": None,
                   "float": float(edge[t]), "bool": True}[how]
    return d, [f"edges[{j}]"]


def test_graph_file_mutations_exit_1(tmp_path, rng):
    """Seeded mutations of the golden graph files: every one exits 1 with
    an error that names the broken field, and none raises."""
    path = tmp_path / "g.json"
    seen = set()
    for _ in range(300):
        name = rng.choice(("e8", "sigma237", "star5", "star51"))
        data, names = _mutate(rng, json.loads(_golden(f"{name}.json")))
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["analyze", str(path)])
        assert (code, out) == (1, ""), (data, err)
        assert err.startswith("error: ") and all(n in err for n in names), (data, err)
        seen.add(re.sub(r"\[\d+\]", "[i]", err))
    assert len(seen) >= 35  # kinds of failure, positions aside
    # the Euler number -2.5 was once analyzed as -2
    path.write_text('{"vertices": [{"id": 0, "e": -2.5}], "edges": []}')
    assert run_cli(["analyze", str(path)]) == (
        1, "", "error: vertices[0]: 'e' must be an integer, not a float\n")


def test_root_writes_dot(e8_file, tmp_path):
    prefix = str(tmp_path / "e8root")
    code, out, _ = run_cli(["root", e8_file, "-o", prefix])
    assert code == 0
    dot = (tmp_path / "e8root_orbit0.dot").read_text()
    assert dot.startswith("digraph")
    # byte stability across runs
    run_cli(["root", e8_file, "-o", prefix])
    assert (tmp_path / "e8root_orbit0.dot").read_text() == dot


def test_orbit_selection(tmp_path):
    path = tmp_path / "chain.json"
    import gradedroots
    g = gradedroots.build_graph([(0, -2), (1, -3)], [(0, 1)])
    path.write_text(json.dumps(g.to_json()))
    code, out, _ = run_cli(["analyze", str(path), "--orbits", "1,3",
                            "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 chosen orbits
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "3"]


def test_root_oracle_fallback(notar_file, tmp_path):
    prefix = str(tmp_path / "na")
    code, out, _ = run_cli(["root", notar_file, "-o", prefix])
    assert code == 2
    code, out, _ = run_cli(["root", notar_file, "-o", prefix, "--oracle"])
    assert code == 0
    assert (tmp_path / "na_canonical.dot").read_text().startswith("digraph")


def test_lens_csv():
    code, out, _ = run_cli(["lens", "5", "3", "--table", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,q,a,d,rank_red,torsion,lambda")
    assert len(lines) == 6
    assert lines[1].split(",")[3] == "2/5"


def test_lens_single_orbit():
    code, out, _ = run_cli(["lens", "7", "4", "--spinc", "2", "--no-numeric"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("p", [151, 601])
def test_lens_table_json_matches_slow_rendering(p, rng):
    """`lens p q --table --format json` equals a row-by-row rendering from
    the per-a definitions, for two seeded q."""
    from gradedroots.lens import LensSpace, torsion_fourier_all
    from gradedroots.roots import _fmt_q
    from slow_reference import casson_walker, chi_lprime, k2s_quarter, torsion
    qs = []
    while len(qs) < 2:
        q = rng.randint(2, p - 2)
        if math.gcd(p, q) == 1 and q not in qs:
            qs.append(q)
    for q in qs:
        L = LensSpace(p, q)
        k2q, lam = k2s_quarter(L), casson_walker(L)
        approx = torsion_fourier_all(L)
        rows = [{"p": p, "q": q, "a": a, "d": _fmt_q(k2q - 2 * chi_lprime(L, a)),
                 "rank_red": 0, "torsion": _fmt_q(torsion(L, a)), "lambda": _fmt_q(lam),
                 "torsion_approx": repr(float(approx[a]))} for a in range(p)]
        code, out, _ = run_cli(["lens", str(p), str(q), "--table", "--format", "json"])
        assert code == 0
        assert out == json.dumps(rows, indent=2) + "\n", (p, q)


def test_seifert_command():
    code, out, _ = run_cli(["seifert", "--e0", "-1", "--leg", "2/1",
                            "--leg", "3/1", "--leg", "7/1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dp_invariant"] == 1
    assert payload["orbits"][0]["d"] == "0"


JSON_ALPHABET = ["a", "Z", " ", "%", "%s", "%%", "%(a)s", '"', "\\", "/", "\n", "\t",
                 "\x00", "\x1f", "\x7f", "é", "€", "\U0001F600", "\ud800"]
JSON_KINDS = ["str", "int", "bool", "none"]


def _json_scalar(rng, kind):
    if kind == "str":
        return "".join(rng.choice(JSON_ALPHABET) for _ in range(rng.randint(0, 6)))
    if kind == "int":
        return rng.choice([rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70),
                           2 ** 63 + rng.randint(0, 9), -2 ** 64 - rng.randint(0, 9)])
    if kind == "bool":
        return rng.random() < 0.5
    return None


def _json_payload(rng, depth=0):
    """A random payload: scalars, flat lists of one type, mixed lists (bool
    next to int), empty containers, dicts, and lists of rows with one key
    order, two key orders, or nested columns."""
    shape = rng.choice(["scalar", "flat", "mixed", "empty"]
                       + (["dict", "rows", "rows"] if depth < 3 else []))
    n = rng.randint(1, 5)
    if shape == "scalar":
        return _json_scalar(rng, rng.choice(JSON_KINDS))
    if shape in ("flat", "mixed"):
        kinds = [rng.choice(JSON_KINDS)] if shape == "flat" else ["int", "bool", "none", "str"]
        values = [_json_scalar(rng, rng.choice(kinds)) for _ in range(n)]
        return tuple(values) if rng.random() < 0.3 else values
    if shape == "empty":
        return rng.choice([{}, [], ()])
    if shape == "dict":
        return {_json_scalar(rng, "str"): _json_payload(rng, depth + 1) for _ in range(n)}
    keys = list(dict.fromkeys(_json_scalar(rng, "str") for _ in range(rng.randint(0, 4))))
    kinds = {k: rng.choice(JSON_KINDS + ["bool_int", "nested"]) for k in keys}

    def cell(kind):
        if kind == "nested":
            return _json_payload(rng, depth + 1)
        if kind == "bool_int":
            return rng.choice([True, False, 0, 1, -1])
        return _json_scalar(rng, kind)
    rows = [{k: cell(kinds[k]) for k in keys} for _ in range(n)]
    if len(keys) > 1 and rng.random() < 0.3:
        rows[rng.randrange(n)] = {k: cell(kinds[k]) for k in reversed(keys)}
    return rows


def test_json_text_matches_json_dumps(rng, monkeypatch):
    """cli._json_text gives the bytes of json.dumps(indent=2): on 5 000 seeded
    random payloads, and on the payloads of three real reports (analyze of
    star51.json, an L(601, q) table and a Seifert report); it raises
    TypeError on a float, a numpy scalar and a non-str key."""
    import numpy as np
    from gradedroots import cli
    for _ in range(5000):
        obj = _json_payload(rng)
        assert cli._json_text(obj) == json.dumps(obj, indent=2), obj
    emit, seen = cli._emit, []
    monkeypatch.setattr(cli, "_emit", lambda fmt, header, rows, payload, preamble: (
        seen.append(payload), emit(fmt, header, rows, payload, preamble)))
    for argv in (["analyze", os.path.join(GOLDEN, "star51.json"), "--format", "json"],
                 ["lens", "601", str(rng.choice([7, 24, 233, 388])), "--table",
                  "--format", "json"],
                 ["seifert", *S5711, "--format", "json"]):
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out == json.dumps(seen[-1], indent=2) + "\n", argv
    assert len(seen) == 3 and len(seen[0]["orbits"]) == 51 and len(seen[1]) == 601
    for bad in (1.5, np.int64(1), {1: "a"}, [{"a": 0.5}], [{"a": 1}, {"a": {2: 3}}],
                [{1: "a"}, {1: "b"}], ("x", [np.str_("y")])):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(bad)


def test_verify_lens():
    code, out, _ = run_cli(["verify", "lens", "20"])
    assert code == 0 and "lens sweep ok" in out


def test_verify_seifert():
    code, out, _ = run_cli(["verify", "seifert", "--e0", "-2",
                            "--leg", "2/1", "--leg", "3/1", "--leg", "5/1"])
    assert code == 0 and "sw identity exact on 29 orbits" in out


def test_verify_oracle(tmp_path):
    path = tmp_path / "g56.json"
    path.write_text(json.dumps(remark56_graph().to_json()))
    code, out, _ = run_cli(["verify", "--oracle", str(path)])
    assert code == 0 and "oracle equivalence ok" in out


def test_oracle_command(e8_file):
    code, out, _ = run_cli(["oracle", e8_file, "--level", "1"])
    assert code == 0
    assert "min chi = 0" in out


def test_oracle_command_counts_match_sublevel(tmp_path, rng):
    """`oracle` reads the point and component counts of the top level off
    the one enumeration that builds the root; they equal those of
    enumerate_sublevel at that level, for truncated roots and for
    stabilized ones whose top sits below the level."""
    stars = [g for g in (random_star(rng) for _ in range(40)) if 3 <= g.form.order <= 30]
    cases = [(remark56_graph(), 1), (remark56_graph(), 3), (e8_graph(), 3),
             (non_ar_graph_a(), 0), (stars[0], 1), (stars[1], None)]
    seen_components = set()
    for g, level in cases:
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json()))
        argv = ["oracle", str(path)] + ([] if level is None else ["--level", str(level)])
        code, out, _ = run_cli(argv)
        assert code == 0
        orbits = spinc.enumerate_spinc(g)
        lines = out.splitlines()
        assert len(lines) == len(orbits)
        for orb, line in zip(orbits, lines):
            m = re.match(r"orbit (\d+): min chi = (-?\d+), \|sublevel\((-?\d+)\)\| = (\d+), "
                         r"components = (\d+), root = ", line)
            assert m and int(m.group(1)) == orb.orbit_index, line
            lev = oracle.enumerate_sublevel(g, orb.k_r, int(m.group(3)))
            components = len(set(lev.labels.tolist()))
            assert (int(m.group(4)), int(m.group(5))) == (len(lev.chi_values), components)
            seen_components.add(components)
    assert len(seen_components) > 1


def test_oracle_check_survives_optimize(tmp_path):
    """Under python -O, a wrong oracle root still makes verify_oracle_graph
    raise InvariantViolated, and `verify --oracle` exits 3."""
    path = tmp_path / "g56.json"
    path.write_text(json.dumps(remark56_graph().to_json()))
    snippet = f"""
import sys
from gradedroots import cli, oracle
from gradedroots.plumbing import InvariantViolated, graph_from_json
from gradedroots.roots import ray_root
if not sys.flags.optimize:
    raise SystemExit(2)
oracle.graph_roots = lambda graph, ks, n_maxes, point_cap=None: (
    (ray_root(n - 5), 1) for n in n_maxes)
try:
    cli.verify_oracle_graph(graph_from_json(open({str(path)!r}).read()))
except InvariantViolated as exc:
    print(exc)
else:
    raise SystemExit(1)
raise SystemExit(10 + cli.main(["verify", "--oracle", {str(path)!r}]))
"""
    src_dir = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-O", "-c", snippet], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 13, proc.stderr
    assert "engine root != oracle root" in proc.stdout
    assert "internal invariant failed" in proc.stderr


def test_console_entry_point(e8_file):
    proc = subprocess.run([sys.executable, "-m", "gradedroots.cli",
                           "analyze", e8_file], capture_output=True, text=True)
    assert proc.returncode == 0 and "Rational" in proc.stdout


def test_verify_oracle_graph_function():
    rep = verify_oracle_graph(remark56_graph())
    assert rep["ok"] and rep["zero_component"]["ok"]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as f:
        return f.read()


@pytest.mark.parametrize("graph, orbits", [("sigma237", 1), ("star5", 16)])
def test_root_dot_golden(tmp_path, graph, orbits):
    """DOT files of `root` are byte-identical to the recorded ones (all
    orbits concatenated in orbit order); the vertex names follow the
    (chi, vertex id) order, so this pins the vertex order of the root
    constructions."""
    prefix = str(tmp_path / graph)
    code, _, _ = run_cli(["root", os.path.join(GOLDEN, f"{graph}.json"), "-o", prefix])
    assert code == 0
    got = "".join((tmp_path / f"{graph}_orbit{i}.dot").read_text() for i in range(orbits))
    assert got == _golden(f"{graph}_root.dot")


def test_oracle_dot_golden(tmp_path):
    prefix = str(tmp_path / "e8")
    code, _, _ = run_cli(["oracle", os.path.join(GOLDEN, "e8.json"), "--level", "2",
                          "--dot", prefix])
    assert code == 0
    assert (tmp_path / "e8_orbit0.dot").read_text() == _golden("e8_oracle_level2.dot")


S235 = ["--e0", "-2", "--leg", "2/1", "--leg", "3/2", "--leg", "5/4"]
S237 = ["--e0", "-1", "--leg", "2/1", "--leg", "3/1", "--leg", "7/1"]
SEIFERT_3_7_2 = ["--e0", "-2", "--leg", "2/1", "--leg", "3/1", "--leg", "7/2"]
S5711 = ["--e0", "-1", "--leg", "5/2", "--leg", "7/1", "--leg", "11/5"]


def _formats(name, argv):
    return {f"{name}_{fmt}": argv + ["--format", fmt] for fmt in ("table", "csv", "json")}


# transcript name -> argv, run in a directory that holds the golden graphs
CLI_CASES = {
    **_formats("analyze_e8", ["analyze", "e8.json"]),
    **_formats("analyze_sigma237", ["analyze", "sigma237.json"]),
    **_formats("analyze_star5", ["analyze", "star5.json"]),
    "analyze_star5_orbits": ["analyze", "star5.json", "--orbits", "1,3", "--format", "csv"],
    "analyze_star5_ar_cap": ["analyze", "star5.json", "--ar-cap", "0"],
    # |H| = 51: l' entries over 17 and 51, not halves only
    "analyze_star51_json": ["analyze", "star51.json", "--format", "json"],
    "analyze_star51_table": ["analyze", "star51.json"],
    "root_sigma237": ["root", "sigma237.json", "-o", "s237"],
    "root_star5_orbits": ["root", "star5.json", "--orbits", "0,2", "-o", "star5"],
    **_formats("lens_5_3", ["lens", "5", "3"]),
    **_formats("lens_7_4_spinc", ["lens", "7", "4", "--spinc", "2", "--no-numeric"]),
    **_formats("seifert_sigma235", ["seifert"] + S235),
    **_formats("seifert_3_7_2", ["seifert"] + SEIFERT_3_7_2),
    "oracle_e8": ["oracle", "e8.json", "--level", "1"],
    "oracle_e8_dot": ["oracle", "e8.json", "--level", "2", "--dot", "e8"],
    "oracle_point_cap": ["oracle", "sigma237.json", "--point-cap", "10"],
    "verify_lens": ["verify", "lens", "12"],
    "verify_seifert": ["verify", "seifert"] + S237,
    "verify_seifert_sigma5711": ["verify", "seifert"] + S5711,
    "verify_oracle": ["verify", "--oracle", "star5.json"],
    "error_missing_file": ["analyze", "missing.json"],
    "error_bad_orbits": ["analyze", "star5.json", "--orbits", "1,x"],
    "error_gcd": ["lens", "6", "4"],
    "error_few_legs": ["seifert", "--e0", "-1", "--leg", "2/1", "--leg", "3/1"],
    "error_verify_no_target": ["verify"],
    "error_verify_seifert_no_legs": ["verify", "seifert", "--e0", "-1"],
    "error_verify_lens_no_pmax": ["verify", "lens"],
    "error_verify_lens_small_pmax": ["verify", "lens", "1"],
    "error_analyze_negative_ar_cap": ["analyze", "star5.json", "--ar-cap", "-5"],
    "error_oracle_no_orbit": ["oracle", "e8.json", "--orbit", "1"],
    "error_oracle_negative_orbit": ["oracle", "e8.json", "--orbit", "-1"],
    "error_analyze_no_orbit": ["analyze", "e8.json", "--orbits", "5"],
    "error_root_no_orbit": ["root", "e8.json", "--orbits", "5", "-o", "e8"],
    "error_lens_spinc_table": ["lens", "5", "2", "--spinc", "9", "--table"],
    "error_verify_lens_and_oracle": ["verify", "lens", "5", "--oracle", "star5.json"],
    "error_verify_lens_and_legs": ["verify", "lens", "5", "--e0", "-2", "--leg", "2/1"],
    "error_usage": ["lens", "5"],
    "help": ["--help"],
    **{f"help_{cmd}": [cmd, "--help"]
       for cmd in ("analyze", "root", "lens", "seifert", "oracle", "verify")},
}


def cli_transcript(argv):
    """The invocation, its exit code, stdout and stderr as one text."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return (f"$ gradedroots {shlex.join(argv)}\n[exit {code}]\n"
            f"[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_transcript_golden(name, tmp_path, monkeypatch):
    """Every subcommand in every format, and the error paths, print exactly
    the recorded transcript (golden/cli/NAME.txt)."""
    for graph in ("e8", "sigma237", "star5", "star51"):
        shutil.copy(os.path.join(GOLDEN, f"{graph}.json"), tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_transcript(CLI_CASES[name]) == _golden(os.path.join("cli", f"{name}.txt"))


def test_verify_lens_needs_pmax():
    code, out, err = run_cli(["verify", "lens"])
    assert (code, out, err) == (1, "", "error: verify lens needs PMAX\n")


def test_root_bad_orbit_writes_nothing(tmp_path, e8_file):
    code, out, err = run_cli(["root", e8_file, "--orbits", "0,5", "-o", str(tmp_path / "e8")])
    assert (code, out, err) == (1, "", "error: no orbit 5; the graph has 1 orbits\n")
    assert sorted(os.listdir(tmp_path)) == ["e8.json"]


def test_write_atomic_failure_leaves_no_temporary(tmp_path):
    """A failed write or rename re-raises and removes its temporary file."""
    from gradedroots.cli import _write_atomic
    with pytest.raises(TypeError):
        _write_atomic(str(tmp_path / "out.dot"), None)
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        _write_atomic(str(tmp_path / "dir"), "text")
    assert sorted(os.listdir(tmp_path)) == ["dir"] and not os.listdir(tmp_path / "dir")
