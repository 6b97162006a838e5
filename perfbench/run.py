"""The gradedroots benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  After set-up the run repeats whole rounds of the workload's batch
(see ``workloads.py``), one operation at a time from a single thread, until
``--seconds`` have passed, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median of five set-ups, each a fresh interpreter that
  imports the program, makes the inputs, writes the graph files and runs
  one warm-up operation,
* ``wall_s``: median time of one round, the time to finish the batch,
* ``op_p50_ms``: median latency of an operation; each of the 40
  operations of the batch enters at its median over the rounds,
* ``op_tail_ms``: the 75th percentile of the same 40 latencies, the 30th
  in ascending order, with ten beyond it,
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` every round is traced, and the metrics are the
per-layer ones of ``tracing.py``.  Spans are written to ``perfbench/out/``.

``correct`` is false when an output disagrees with the reference or an
operation fails: every operation of these workloads is expected to succeed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["analyze", "oracle-check", "closed-forms"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, run the warm-up operation and exit (one setup_s sample)")
    return ap.parse_args(argv)


def import_program():
    """The program from this checkout's ``src/``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    import gradedroots.cli
    if not os.path.abspath(gradedroots.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"gradedroots imported from {gradedroots.cli.__file__}")
    import workloads
    return workloads


def set_up(workloads, name, seed, workdir):
    warmup, ops = workloads.make_batch(name, random.Random(seed), workdir)
    rc, _ = warmup.run()
    if rc != warmup.expect_rc:
        raise RuntimeError(f"warm-up {warmup.label} exited {rc}")
    return ops


def setup_seconds(args):
    """Median wall time of SETUP_SAMPLES fresh set-up processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", "0", "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Round:
    """Latencies and failures of one pass over the batch.  The first round
    keeps its outputs for checking; later rounds compare theirs to it."""

    def __init__(self, ops, first=None, tracer=None):
        self.latencies = []
        self.outputs = []
        self.failures = []
        self.differs = []
        t_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                rc, payload = op.run()
            except Exception as exc:  # counted as a failed operation
                rc, payload = None, f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - t0)
            if rc != op.expect_rc:
                self.failures.append(f"{op.label}: exit {rc}: {str(payload)[:300]}")
                payload = None
            if first is None:
                self.outputs.append(payload)
            elif payload is not None and first.outputs[i] is not None \
                    and payload != first.outputs[i]:
                self.differs.append(f"{op.label}: output differs between rounds")
        self.wall = time.perf_counter() - t_start


def check_outputs(ops, rounds):
    """Check the first round's outputs against the references; later rounds
    were compared with the first as they ran.  Returns error messages."""
    errors = []
    for op, out in zip(ops, rounds[0].outputs):
        if out is None:
            continue
        try:
            op.check(out)
        except Exception as exc:  # a wrong or unreadable output
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return errors + [d for r in rounds for d in r.differs]


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        rounds.append(Round(ops, rounds[0] if rounds else None, tracer))
    return rounds


def end_to_end(rounds, setup_s):
    """Latency percentiles are taken over the batch's operations, each at
    its median latency over the rounds, which damps machine noise."""
    per_op = sorted(statistics.median(lat) for lat in zip(*(r.latencies for r in rounds)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (per_op[len(per_op) - TAIL_BEYOND - 1] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(ops, seconds, args, out_dir):
    """Traced rounds until ``seconds`` have passed."""
    from tracing import Tracer, unit
    tracer = Tracer()
    tracer.install()
    try:
        rounds = run_rounds(ops, seconds, tracer)
    finally:
        tracer.uninstall()
    metrics = {k: (v, unit(k)) for k, v in tracer.metrics(len(rounds)).items()}
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                 "ops": [op.label for op in ops]})
    return rounds, metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 3
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        ops = set_up(workloads, args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            rounds, metrics = traced(ops, args.seconds, args, os.path.join(HERE, "out"))
        else:
            setup_s = setup_seconds(args)
            rounds = run_rounds(ops, args.seconds)
            metrics = end_to_end(rounds, setup_s)
        errors = check_outputs(ops, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for r in rounds for f in r.failures]
    for msg in (failures + errors)[:20]:
        print(msg, file=sys.stderr)
    result = {"correct": not errors and not failures,
              "attempted": sum(len(r.latencies) for r in rounds),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
