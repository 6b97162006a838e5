import contextlib
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
    for graph in ("e8", "sigma237", "star5"):
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
