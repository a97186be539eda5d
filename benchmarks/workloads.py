"""The benchmark's workloads: generated inputs, operations and output checks.

An operation is one ``distreg`` subcommand given as an argv list.  Each
workload writes its inputs from the run's seed, lists the operations of one
round and checks the outputs of a round against the oracles in
``oracles.py`` or against properties the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call; ``expect_exit`` is the exit code a correct program gives."""

    name: str
    argv: tuple[str, ...]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    expect_exit: int = 0
    known_fault: bool = False


@dataclass
class Outcome:
    exit_code: int | str  # "exception" when the CLI raised
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)  # written path -> text

    def signature(self):
        return (self.exit_code, self.stdout, tuple(sorted(self.files.items())))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(repr(v) for v in row) + "\n")


def _philox(root: int, *path: int) -> np.random.Generator:
    """The counter-based stream the package documents for its studies."""
    seq = np.random.SeedSequence(entropy=int(root), spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# Rate studies

# Synthetic models of the presets, restated from the package's documented
# definitions: p(x) or mean(x) is intercept + coefs . x.
MODELS = {
    "binary-k1": dict(kind="binary", intercept=0.5, coefs=(0.25,), high=2.0),
    "binary-k2": dict(kind="binary", intercept=0.5, coefs=(0.125, 0.125), high=2.0),
    "gaussian-k1": dict(kind="gaussian", intercept=0.0, coefs=(0.9,), sigma=0.25),
}

# preset -> model, weight family, grid exponents, replications, test points,
# the paper's exponent
PRESETS = {
    "binary-k2-knn": ("binary-k2", "knn", (9, 15), 40, 32, -0.25),
    "binary-k1-kernel": ("binary-k1", "kernel", (9, 15), 40, 32, -1.0 / 3.0),
    "gaussian-k1-kernel": ("gaussian-k1", "kernel", (8, 13), 24, 16, -1.0 / 3.0),
}

# Replication caps: 10 of binary-k2-knn's 40 replications keep its study
# near 4 s serial.  Over 20 seeds the fitted slope then spreads by 0.013
# (sd), a sixth of the 0.08 tolerance.
REPLICATIONS = {"binary-k2-knn": 10}

# Reduced studies for the smoke test: short grids make slopes noisy, so the
# verdict tolerance is widened for them alone.
REDUCED = dict(grid_span=3, replications=6, tolerance=0.5)

_TAG_TRAIN, _TAG_TEST = 11, 12


def _schedule(family: str, n: int) -> float:
    if family == "knn":
        return max(1, min(n, int(np.ceil(1.0 * float(n) ** 0.5))))
    return 1.0 * float(n) ** (-1.0 / 3.0)


def _replication_errors(model: dict, family: str, n: int, test_points: int,
                        seed: int, n_index: int, rep: int) -> float:
    """Mean W1 error of one replication, recomputed by the oracles."""
    import oracles

    k = len(model["coefs"])
    rng = _philox(seed, _TAG_TRAIN, n_index, rep)
    xs = rng.random((n, k))
    level = model["intercept"] + xs @ np.asarray(model["coefs"])
    if model["kind"] == "binary":
        ys = np.where(rng.random(n) < level, model["high"], 0.0)
    else:
        ys = level + model["sigma"] * rng.standard_normal(n)
    queries = _philox(seed, _TAG_TEST, n_index, rep).random((test_points, k))
    param = _schedule(family, n)
    errs = []
    for q in queries:
        if family == "knn":
            idx = oracles.knn_indices(xs, q, int(param))
        else:
            idx = oracles.ball_indices(xs, q, param)
        truth = model["intercept"] + q @ np.asarray(model["coefs"])
        if model["kind"] == "binary":
            share = np.count_nonzero(ys[idx] == model["high"]) / idx.shape[0]
            errs.append(model["high"] * abs(share - truth))
        else:
            atoms, weights = oracles.uniform_prediction(ys, idx)
            errs.append(oracles.w1_to_normal(atoms, weights, truth, model["sigma"]))
    return float(np.mean(errs))


class RatesWorkload:
    """``distreg rates`` on shipped presets; one operation per preset."""

    def __init__(self, presets: tuple[str, ...]):
        self.presets = presets

    def setup(self, workdir: str, seed: int, reduced: bool) -> None:
        self.seed = seed
        self.reduced = reduced
        self.configs = {}
        for preset in self.presets:
            model, family, (lo, hi), reps, tp, target = PRESETS[preset]
            lines = [f"preset={preset}", f"seed={seed}"]
            if reduced:
                hi = lo + REDUCED["grid_span"] - 1
                reps = REDUCED["replications"]
                grid = ",".join(str(2**e) for e in range(lo, hi + 1))
                lines += [f"n_grid={grid}", f"replications={reps}",
                          f"tolerance={REDUCED['tolerance']}"]
            elif preset in REPLICATIONS:
                reps = REPLICATIONS[preset]
                lines.append(f"replications={reps}")
            prefix = os.path.join(workdir, preset)
            lines.append(f"out_prefix={prefix}")
            path = prefix + ".cfg"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            self.configs[preset] = (path, prefix, (lo, hi), reps, tp)

    def ops(self, traced: bool) -> list[Op]:
        # one worker: a process pool on a machine with few cores times the
        # scheduler more than the program, and spans recorded in pool
        # workers would be lost
        out = []
        for preset, (path, prefix, *_rest) in self.configs.items():
            out.append(Op(
                name=f"rates {preset}",
                argv=("rates", "--config", path, "--workers", "1"),
                reads=(path,),
                writes=(prefix + ".csv", prefix + ".json"),
            ))
        return out

    def check(self, ops: list[Op], outcomes: list[Outcome]) -> list[str]:
        import oracles  # scipy.stats and scipy.optimize stay out of set-up

        errors = []
        for op, res in zip(ops, outcomes):
            preset = op.name.split()[1]
            model_name, family, _, _, _, target = PRESETS[preset]
            _, prefix, (lo, hi), reps, tp = self.configs[preset]
            tolerance = REDUCED["tolerance"] if self.reduced else 0.08
            report = json.loads(res.files[prefix + ".json"])
            rows = list(csv.DictReader(io.StringIO(res.files[prefix + ".csv"])))
            ns = [int(r["n"]) for r in rows]
            means = [float(r["risk_mean"]) for r in rows]
            if ns != [2**e for e in range(lo, hi + 1)]:
                errors.append(f"{preset}: grid {ns}")
                continue
            if abs(report["slope"] - target) > tolerance:
                errors.append(f"{preset}: slope {report['slope']} not within "
                              f"{tolerance} of {target}")
            if not _close(oracles.loglog_slope(ns, means), report["slope"]):
                errors.append(f"{preset}: reported slope disagrees with its own CSV")
            if "verdict=pass" not in res.stdout:
                errors.append(f"{preset}: verdict line {res.stdout!r}")
            # the smallest grid point, recomputed replication by replication
            n = ns[0]
            if not _close(float(rows[0]["param"]), _schedule(family, n)):
                errors.append(f"{preset}: schedule value {rows[0]['param']} at n={n}")
            per_rep = np.array([
                _replication_errors(MODELS[model_name], family, n, tp, self.seed, 0, rep)
                for rep in range(reps)
            ])
            mean = float(per_rep.mean())
            stderr = float(per_rep.std(ddof=1) / np.sqrt(reps))
            if not _close(mean, means[0]):
                errors.append(f"{preset}: risk at n={n} is {means[0]}, oracle {mean}")
            if abs(stderr - float(rows[0]["risk_stderr"])) > REL_TOL * mean:
                errors.append(f"{preset}: stderr at n={n} is {rows[0]['risk_stderr']}, "
                              f"oracle {stderr}")
        return errors


# ---------------------------------------------------------------------------
# Prediction and distances on files


# Inputs that a correct program rejects with exit 3.  They do not depend on
# the seed, so every run attempts the same failing operations.
FAULT_FILES = {
    "nan-atom": "y1,weight\n0.0,0.5\nnan,0.5\n",
    "nan-weight": "y1,weight\n0.0,0.5\n1.0,0.5\n2.0,nan\n",
    "inf-atom": "y1,weight\n0.0,0.5\ninf,0.5\n",
}
FAULT_REFERENCE = "y1,weight\n0.25,0.5\n0.75,0.5\n"


class PredictDistanceWorkload:
    """``distreg predict`` and ``distreg distance`` on generated CSV files."""

    FULL = dict(train=20_000, queries=200, line=(3000, 4000))
    SMALL = dict(train=2_000, queries=20, line=(300, 400))
    # (name, size a, size b, dimension, order, mean shift of b, methods)
    PAIRS = (
        ("tiny", 5, 6, 2, 1.0, (0.5, 0.0), ("exact",)),
        ("small", 25, 30, 2, 1.0, (0.5, 0.0), ("exact",)),
        ("large", 150, 150, 2, 1.0, (0.5, 0.0), ("exact",)),
        ("plane", 60, 60, 2, 2.0, (1.0, 0.3), ("exact", "sliced", "max-sliced")),
        ("space", 30, 30, 3, 2.0, (1.0, 0.3, -0.5), ("exact", "sliced", "max-sliced")),
    )
    KERNEL_FULL_H = 0.02
    KNN_KAPPA = 100
    KERNEL_CTE_H = 0.05

    def setup(self, workdir: str, seed: int, reduced: bool) -> None:
        size = self.SMALL if reduced else self.FULL
        rng = np.random.default_rng([seed, 2302])
        self.seed = seed
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        self.train_path, self.queries_path = path("train.csv"), path("queries.csv")
        n = size["train"]
        self.xs = rng.random(n)
        self.ys = 0.9 * self.xs + 0.25 * rng.standard_normal(n)
        self.queries = rng.random(size["queries"])
        _write_csv(self.train_path, ["x1", "y1"], zip(self.xs.tolist(), self.ys.tolist()))
        _write_csv(self.queries_path, ["x1"], ((q,) for q in self.queries.tolist()))
        self.pred_path = path("pred_full.csv")

        self.measures = {}
        for name, ma, mb, d, _, shift, _ in self.PAIRS:
            self.measures[name] = (
                self._measure(rng, path(f"{name}_a.csv"), ma, d, np.zeros(d)),
                self._measure(rng, path(f"{name}_b.csv"), mb, d, np.asarray(shift)),
            )
        la, lb = size["line"]
        self.measures["line"] = (
            self._measure(rng, path("line_a.csv"), la, 1, np.zeros(1)),
            self._measure(rng, path("line_b.csv"), lb, 1, np.full(1, 0.5), scale=1.3),
        )
        self.fault_paths = {}
        for name, text in FAULT_FILES.items():
            self.fault_paths[name] = path(f"{name}.csv")
            with open(self.fault_paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        self.fault_reference = path("fault_reference.csv")
        with open(self.fault_reference, "w", encoding="utf-8") as handle:
            handle.write(FAULT_REFERENCE)

    @staticmethod
    def _measure(rng, path, m, d, shift, scale=1.0):
        atoms = rng.standard_normal((m, d)) * scale + shift[None, :]
        weights = rng.random(m) + 0.05
        weights /= weights.sum()
        header = [f"y{i + 1}" for i in range(d)] + ["weight"]
        _write_csv(path, header, (tuple(a) + (w,) for a, w in
                                  zip(atoms.tolist(), weights.tolist())))
        return path, atoms, weights

    def ops(self, traced: bool) -> list[Op]:
        train = ("--train", self.train_path, "--queries", self.queries_path)
        reads = (self.train_path, self.queries_path)
        out = [
            Op("predict kernel full", ("predict",) + train + (
                "--scheme", "kernel", "--bandwidth", repr(self.KERNEL_FULL_H),
                "--out", self.pred_path), reads, (self.pred_path,)),
            Op("predict knn pwm", ("predict",) + train + (
                "--scheme", "knn", "--kappa", str(self.KNN_KAPPA),
                "--functional", "pwm:1:2"), reads),
            Op("predict kernel cte", ("predict",) + train + (
                "--scheme", "kernel", "--bandwidth", repr(self.KERNEL_CTE_H),
                "--functional", "cte:0.9"), reads),
        ]
        for name, _, _, _, order, _, methods in self.PAIRS:
            (pa, *_), (pb, *_) = self.measures[name]
            for method in methods:
                argv = ("distance", pa, pb, "--method", method, "--order", repr(order))
                if method in ("sliced", "max-sliced"):
                    argv += ("--seed", str(self.seed))
                if method == "max-sliced" and name == "space":
                    # each ascent start costs from 20 ms to 200 ms depending
                    # on the instance; two starts keep that out of the spread
                    argv += ("--directions", "2")
                out.append(Op(f"distance {name} {method}", argv, (pa, pb)))
        (pa, *_), (pb, *_) = self.measures["line"]
        for method, order in (("quantile", 1.0), ("quantile", 2.0), ("cdf", 1.0)):
            out.append(Op(f"distance line {method} p={order:g}",
                          ("distance", pa, pb, "--method", method, "--order", repr(order)),
                          (pa, pb)))
        for name, fpath in self.fault_paths.items():
            out.append(Op(f"distance {name}", ("distance", fpath, self.fault_reference),
                          (fpath, self.fault_reference), expect_exit=3, known_fault=True))
        return out

    def check(self, ops: list[Op], outcomes: list[Outcome]) -> list[str]:
        import oracles  # scipy.stats and scipy.optimize stay out of set-up

        errors = []
        by_name = {op.name: res for op, res in zip(ops, outcomes)}
        covariates = self.xs[:, None]
        errors += check_full_prediction(
            by_name["predict kernel full"].files[self.pred_path], self.ys, self.queries,
            lambda q: oracles.ball_indices(covariates, np.array([q]), self.KERNEL_FULL_H))
        errors += check_functional_values(
            by_name["predict knn pwm"].stdout, self.queries,
            lambda q: oracles.pwm(*oracles.uniform_prediction(
                self.ys, oracles.knn_indices(covariates, np.array([q]), self.KNN_KAPPA)),
                1.0, 2.0),
            "pwm:1:2")
        errors += check_functional_values(
            by_name["predict kernel cte"].stdout, self.queries,
            lambda q: oracles.tail_expectation(*oracles.uniform_prediction(
                self.ys, oracles.ball_indices(covariates, np.array([q]), self.KERNEL_CTE_H)),
                0.9),
            "cte:0.9")

        for name, _, _, _, order, _, methods in self.PAIRS:
            (_, aa, wa), (_, ab, wb) = self.measures[name]
            exact = oracles.transport_lp(aa, wa, ab, wb, order)
            values = {m: _first_float(by_name[f"distance {name} {m}"].stdout)
                      for m in methods}
            errors += check_distance(values["exact"], exact, f"{name} exact")
            if "sliced" in values:
                slack = 1.0 + REL_TOL
                if not values["sliced"] <= values["max-sliced"] * slack:
                    errors.append(f"{name}: sliced {values['sliced']} > "
                                  f"max-sliced {values['max-sliced']}")
                if not values["max-sliced"] <= values["exact"] * slack:
                    errors.append(f"{name}: max-sliced {values['max-sliced']} > "
                                  f"exact {values['exact']}")
        (_, aa, wa), (_, ab, wb) = self.measures["line"]
        xa, xb = aa[:, 0], ab[:, 0]
        line = {
            "quantile p=1": oracles.w1_line(xa, wa, xb, wb),
            "quantile p=2": oracles.wp_line(xa, wa, xb, wb, 2.0),
            "cdf p=1": oracles.w1_line(xa, wa, xb, wb),
        }
        for label, expected in line.items():
            value = _first_float(by_name[f"distance line {label}"].stdout)
            errors += check_distance(value, expected, f"line {label}")
        return errors


def _first_float(text: str) -> float:
    try:
        return float(text.split()[0])
    except (IndexError, ValueError):
        return float("nan")


def check_distance(value: float, expected: float, label: str) -> list[str]:
    if np.isfinite(value) and _close(value, expected):
        return []
    return [f"distance {label}: printed {value!r}, oracle {expected!r}"]


def check_full_prediction(text: str, responses, queries, select) -> list[str]:
    """Long-format predictions against the oracle's selected responses.

    Atoms must be the training responses bit for bit (17 significant digits
    round-trip), weights must agree to REL_TOL.
    """
    import oracles

    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["query", "y1", "weight"]:
        return [f"full prediction header {rows[:1]}"]
    data = np.array(rows[1:], dtype=float).reshape(-1, 3)
    errors = []
    qid = data[:, 0].astype(int)
    for i, q in enumerate(queries):
        mine = data[qid == i]
        atoms, weights = oracles.uniform_prediction(responses, select(q))
        if mine.shape[0] != atoms.shape[0] or not np.array_equal(mine[:, 1], atoms):
            errors.append(f"query {i}: predicted support differs from the oracle's")
        elif not np.allclose(mine[:, 2], weights, rtol=REL_TOL, atol=0.0):
            errors.append(f"query {i}: predicted weights differ from the oracle's")
        if len(errors) >= 3:
            break
    if not errors and np.unique(qid).shape[0] != len(queries):
        errors.append("full prediction does not cover every query")
    return errors


def check_functional_values(text: str, queries, oracle, label: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["query", "value"] or len(rows) != len(queries) + 1:
        return [f"{label}: output has {len(rows)} rows for {len(queries)} queries"]
    errors = []
    for i, (row, q) in enumerate(zip(rows[1:], queries)):
        expected = oracle(q)
        value = float(row[1])
        if int(row[0]) != i or abs(value - expected) > REL_TOL * max(1.0, abs(expected)):
            errors.append(f"{label}: query {i} gives {value!r}, oracle {expected!r}")
            if len(errors) >= 3:
                break
    return errors


WORKLOADS = {
    "rates": lambda: RatesWorkload(
        ("binary-k2-knn", "binary-k1-kernel", "gaussian-k1-kernel")),
    "predict-distance": PredictDistanceWorkload,
}
