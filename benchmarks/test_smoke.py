"""Smoke test of the benchmark itself.

    python3 -m pytest benchmarks/test_smoke.py -q

A reduced run of every workload must complete with correct outputs, and a
planted wrong answer must make the output checks fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("rates", "predict-distance")


def _bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=root,
    )


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_completes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--reduced")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    known_faults = len(workloads.FAULT_FILES) if workload == "predict-distance" else 0
    ops = result["attempted"] // (2 if trace else 1)
    assert result["failed"] == known_faults * (result["attempted"] // ops)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workloads_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "rates", "--seed", "1", "--seconds", "1",
                  "--trace", "0", root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _first_round(workload, tmp_path):
    cli = run.import_program()
    workload.setup(str(tmp_path), 4, reduced=True)
    ops = workload.ops(traced=False)
    _, _, outcomes = run.run_round(cli, ops)
    assert workload.check(ops, outcomes) == []
    return ops, outcomes


def test_planted_risk_error_is_caught(tmp_path):
    workload = workloads.WORKLOADS["rates"]()
    ops, outcomes = _first_round(workload, tmp_path)
    (csv_path,) = [p for p in ops[0].writes if p.endswith(".csv")]
    lines = outcomes[0].files[csv_path].splitlines()
    n, param, mean, stderr = lines[1].split(",")
    lines[1] = ",".join([n, param, repr(float(mean) * (1 + 1e-6)), stderr])
    outcomes[0].files[csv_path] = "\n".join(lines) + "\n"
    assert any("risk at n=" in e for e in workload.check(ops, outcomes))


def test_planted_distance_error_is_caught(tmp_path):
    workload = workloads.WORKLOADS["predict-distance"]()
    ops, outcomes = _first_round(workload, tmp_path)
    names = [op.name for op in ops]
    for name in ("distance large exact", "distance line quantile p=2"):
        res = outcomes[names.index(name)]
        good = res.stdout
        res.stdout = f"{float(good) * (1 + 1e-6):.12g}\n"
        assert workload.check(ops, outcomes), name
        res.stdout = good
    assert workloads.check_distance(1.0, 1.0 + 1e-6, "planted")


def test_swapped_tied_neighbour_is_caught(tmp_path):
    # rows 0, 1 and 2 are exactly equally far from the query; the tie rule
    # keeps the two smallest indices
    xs = np.array([[0.25], [0.75], [0.75], [1.0]])
    ys = np.array([1.0, 2.0, 3.0, 4.0])
    queries = np.array([0.5])
    select = lambda q: oracles.knn_indices(xs, np.array([q]), 2)  # noqa: E731
    train, query_file = tmp_path / "train.csv", tmp_path / "q.csv"
    workloads._write_csv(str(train), ["x1", "y1"], zip(xs[:, 0].tolist(), ys.tolist()))
    workloads._write_csv(str(query_file), ["x1"], [(0.5,)])
    cli = run.import_program()
    op = workloads.Op("predict", ("predict", "--train", str(train), "--queries",
                                  str(query_file), "--scheme", "knn", "--kappa", "2"))
    program = run.run_op(cli, op)
    assert program.exit_code == 0
    assert workloads.check_full_prediction(program.stdout, ys, queries, select) == []
    swapped = "query,y1,weight\n0,1,0.5\n0,3,0.5\n"
    assert workloads.check_full_prediction(swapped, ys, queries, select)
