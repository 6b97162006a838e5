"""Run sets of benchmark runs and compare them against BENCHMARK.json.

    python3 perfbench/compare.py              # two sets of ten runs per workload
    python3 perfbench/compare.py --trace      # one traced run per workload

Two sets of ten runs each are made of the same code.  Each run is
``run.py`` in a fresh process with its own seed; set k uses seeds
1000 k + 1, ..., 1000 k + 10, and the sets take turns, so that a slow
spell of the machine falls on both.  For every workload and end-to-end
metric it prints the median of each set and the spread, the distance
between the first and third quartiles as a share of the median.  The
comparison fails when

* a run is not correct (a wrong output or a failed operation),
* the share of failed operations differs between the sets,
* the two medians differ, either way, by more than the metric's bound, or
* a spread exceeds the bound.  The spread of ``setup_s`` is printed but
  not held to its bound: set-up is a few short process starts, whose
  spread on a shared host is larger than that of the timed rounds, and
  only its median is compared between sets.

Results are written to ``perfbench/out/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true", help="one traced run per workload")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = {"runs": {}, "verdict": {}}
    ok = True

    if args.trace:
        for w in names:
            res = one_run(w, 1, seconds, True)
            ok &= res["correct"]
            out["runs"][w] = res
            print(f"== {w} (traced): attempted {res['attempted']}, failed {res['failed']}")
            for k, m in res["metrics"].items():
                print(f"  {k:26s} {m['value']:14.6g} {m['unit']}")
    else:
        for w in names:
            sets = [[] for _ in range(SETS)]
            for i in range(RUNS):
                for k, results in enumerate(sets):
                    res = one_run(w, 1000 * k + i + 1, seconds, False)
                    ok &= res["correct"]
                    results.append(res)
                    print(f"{w} set {k} seed {1000 * k + i + 1}: " + ", ".join(
                        f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                        file=sys.stderr, flush=True)
            out["runs"][w] = sets
            shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                      for s in sets]
            print(f"== {w}: failed share per set {shares}")
            ok &= len(set(shares)) == 1
            for metric in bench["end_to_end"]:
                n, bound = metric["name"], metric["bound"]
                vals = [[r["metrics"][n]["value"] for r in s] for s in sets]
                meds = [statistics.median(v) for v in vals]
                spreads = [spread(v) for v in vals]
                drift = abs(meds[1] - meds[0]) / meds[0]
                good = drift <= bound and (n == "setup_s" or max(spreads) <= bound)
                ok &= good
                out["verdict"][f"{w}/{n}"] = {"medians": meds, "spreads": spreads,
                                              "drift": drift, "bound": bound, "ok": good}
                steady = max(spreads) <= bound / 3
                print(f"  {n:12s} medians {['%.4g' % m for m in meds]} spreads "
                      f"{['%.3f' % s for s in spreads]} drift {drift:.3f} bound {bound} "
                      f"{'ok' if good else 'FAIL'}{'' if steady else ' (spread > bound/3)'}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as f:
        json.dump(out, f, indent=1)
    print("all within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
