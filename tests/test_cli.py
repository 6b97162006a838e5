import json
import math
import subprocess
import sys

import pytest

from conftest import e8_graph, non_ar_graph_a, remark56_graph
from gradedroots.cli import main, verify_oracle_graph


def run_cli(args):
    from io import StringIO
    import contextlib
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
    from gradedroots.lens import (LensSpace, casson_walker, chi_lprime, k2s_quarter,
                                  torsion, torsion_fourier_all)
    from gradedroots.roots import _fmt_q
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


def test_console_entry_point(e8_file):
    proc = subprocess.run([sys.executable, "-m", "gradedroots.cli",
                           "analyze", e8_file], capture_output=True, text=True)
    assert proc.returncode == 0 and "Rational" in proc.stdout


def test_verify_oracle_graph_function():
    rep = verify_oracle_graph(remark56_graph())
    assert rep["ok"] and rep["zero_component"]["ok"]
