"""Run one distreg benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload rates --seed 1 --seconds 45 --trace 0

Run from the root of a source tree: the package is imported from ``src/``.
The workload's inputs are generated from ``--seed`` into a scratch folder
under ``.bench_work/`` and removed at the end.  Rounds of the workload's
operations (``distreg`` subcommands called in-process through
``distreg.cli.main``) run back to back until ``--seconds`` have passed;
every round repeats the same operations, so their outputs must match.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes that import the package and write the inputs), ``wall_s``
and ``cpu_s`` (median per round) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced rounds and reports per-layer calls, self
times and counters from the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYERS, Tracer
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "weights.points_scanned": "count",
    "weights.kept_share": "ratio",
    "measures.atoms_in": "count",
    "ot.exact.calls": "count",
    "ot.exact.self_s": "s",
    "ot.exact.cells": "count",
    "ot.line.self_s": "s",
    "ot.analytic.self_s": "s",
    "ot.sliced.self_s": "s",
    "functionals.atoms": "count",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "experiments.replications": "count",
    "synth.rows_sampled": "count",
    "trace.wall_s": "s",
    "trace.outside_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs and short studies, for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import the package, write the inputs into DIR and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import every distreg layer from ./src, or exit 2 if there is none."""
    if not os.path.isfile(os.path.join(SRC, "distreg", "__init__.py")):
        print(f"benchmark: no package source at {SRC}/distreg", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import distreg.cli  # noqa: F401  (imports every layer)

    return sys.modules["distreg.cli"]


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is an operation failure
            code = "exception"
            print(f"{type(exc).__name__}: {exc}", file=err)
    return Outcome(code, out.getvalue(), err.getvalue())


def run_round(cli, ops):
    """Run the operations back to back; returns wall, CPU and outcomes."""
    cpu0, t0 = os.times(), time.perf_counter()
    outcomes = [run_op(cli, op) for op in ops]
    t1, cpu1 = time.perf_counter(), os.times()
    cpu = sum(cpu1[i] - cpu0[i] for i in range(4))
    for op, res in zip(ops, outcomes):
        for path in op.writes:
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    res.files[path] = handle.read()
    return t1 - t0, cpu, outcomes


def io_bytes(ops, outcomes):
    read = sum(os.path.getsize(p) for op in ops for p in op.reads)
    written = sum(
        len(res.stdout.encode()) + len(res.stderr.encode())
        + sum(len(text.encode()) for text in res.files.values())
        for res in outcomes
    )
    return read, written


def setup_probe(args, workdir, index) -> float:
    """Wall time of a fresh process that imports the package and writes the inputs."""
    target = os.path.join(workdir, f"setup-{index}")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only", target]
    if args.reduced:
        cmd.append("--reduced")
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(target)
    return elapsed


def environment() -> str:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={len(os.sched_getaffinity(0))} git={sha}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        os.makedirs(args.setup_only)
        workload.setup(args.setup_only, args.seed, args.reduced)
        return 0

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.setup(workdir, args.seed, args.reduced)
        result, lines = measure(args, cli, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)  # left in place while another run uses it
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " + environment())
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def measure(args, cli, workload, workdir):
    errors = []
    walls, cpus, traced_walls, summaries = [], [], [], []
    reference = None  # signatures of the first round
    first_ops = first_outcomes = None
    setups = []
    attempted = failed = rounds = 0
    measured = 0.0
    while rounds == 0 or measured < args.seconds:
        for traced in ((False, True) if args.trace else (False,)):
            ops = workload.ops(traced=bool(args.trace))
            if traced:
                tracer = Tracer()
                with tracer:
                    wall, _, outcomes = run_round(cli, ops)
                summary = tracer.summary(wall)
                summary["cli.bytes_read"], summary["cli.bytes_written"] = io_bytes(ops, outcomes)
                summaries.append(summary)
                traced_walls.append(wall)
            else:
                wall, cpu, outcomes = run_round(cli, ops)
                walls.append(wall)
                cpus.append(cpu)
            measured += wall
            signatures = [res.signature() for res in outcomes]
            if reference is None:
                reference, first_ops, first_outcomes = signatures, ops, outcomes
            elif signatures != reference:
                errors.append(f"round {rounds}: outputs differ from the first round")
            for op, res in zip(ops, outcomes):
                attempted += 1
                if res.exit_code != op.expect_exit:
                    failed += 1
                    if not op.known_fault:
                        errors.append(f"{op.name}: exit {res.exit_code}: {res.stderr.strip()}")
        if not args.trace and len(setups) < SETUP_PROBES:
            # set-up samples spread between rounds see the same machine
            # conditions as the rounds; a probe holds no more memory than
            # this process, so it leaves peak_rss_mb unchanged
            setups.append(setup_probe(args, workdir, rounds))
        rounds += 1

    if not args.trace:
        while len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args, workdir, len(setups)))
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    if not errors:
        errors += workload.check(first_ops, first_outcomes)

    if args.trace:
        metrics = {key: statistics.median(s[key] for s in summaries)
                   for key in summaries[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = PER_LAYER_UNITS
        for name, unit in units.items():
            if unit in ("count", "bytes") and float(metrics[name]).is_integer():
                metrics[name] = int(metrics[name])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END_UNITS
    lines = [f"rounds={rounds} attempted={attempted} failed={failed}",
             "round wall s: " + " ".join(f"{w:.3f}" for w in walls + traced_walls)]
    lines += [f"error: {e}" for e in errors]
    lines += [f"{name} = {metrics[name]:.6g} {unit}" if isinstance(metrics[name], float)
              else f"{name} = {metrics[name]} {unit}" for name, unit in units.items()]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
