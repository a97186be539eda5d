"""Command-line interface: distances, prediction, rate studies, bounds.

Exit codes: 0 success (or verdict pass), 1 verdict fail, 2 usage error,
3 data error.  All CSV output uses 17 significant digits so doubles
round-trip losslessly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import os
import sys

import numpy as np

from .bounds import ClassParams, kernel_bound, knn_bound
from .experiments import (
    BandwidthPowerSchedule,
    ExperimentPlan,
    FixedNeighborSchedule,
    NeighborPowerSchedule,
    _fmt,
    bound_rows_csv,
    bound_vs_risk,
    make_experiment_preset,
    rate_study,
)
from .functionals import FunctionalSpec, evaluate_functional
from .measures import DiscreteDistribution, make_discrete
from .ot import SlicedConfig, max_sliced_wp, sliced_wp, w1_cdf, wp_exact, wp_quantile
from .regressor import Dataset, fit, predict_many
from .synth import PRESETS, certify_class, make_preset
from .weights import KernelScheme, KnnScheme, stone_diagnostics

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class DataError(Exception):
    """Malformed input file; reported with the offending line."""


def _finite(text: str, name: str = "value") -> float:
    """Parse a float; malformed text, nan and infinities raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for float flags: nan and infinities are usage errors."""
    try:
        return _finite(text)
    except ValueError as exc:  # argparse would replace the message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite_floats(text: str) -> list[float]:
    """argparse type for a comma-separated list of finite floats."""
    return [_finite_float(v) for v in text.split(",")]


def _default_seed() -> int:
    text = os.environ.get("DISTREG_SEED", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"DISTREG_SEED must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# CSV input / output


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows[0], rows[1:]


def _parse_floats(path: str, row: list[str], line: int) -> list[float]:
    try:
        vals = [float(v) for v in row]
    except ValueError as exc:
        raise DataError(f"{path}: line {line}: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise DataError(f"{path}: line {line}: values must be finite")
    return vals


def read_distribution(path: str) -> DiscreteDistribution:
    """Read a discrete measure from CSV with columns y1..yd,weight."""
    header, rows = _read_rows(path)
    if len(header) < 2 or header[-1] != "weight":
        raise DataError(f"{path}: expected columns y1..yd,weight")
    d = len(header) - 1
    if [h for h in header[:-1]] != [f"y{i + 1}" for i in range(d)]:
        raise DataError(f"{path}: expected columns y1..yd,weight")
    atoms, weights = [], []
    for line, row in enumerate(rows, start=2):
        if len(row) != d + 1:
            raise DataError(f"{path}: line {line}: expected {d + 1} columns")
        vals = _parse_floats(path, row, line)
        atoms.append(vals[:-1])
        weights.append(vals[-1])
    try:
        return make_discrete(atoms, weights)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_distribution(dist: DiscreteDistribution, out) -> None:
    writer = csv.writer(out)
    writer.writerow([f"y{i + 1}" for i in range(dist.dim)] + ["weight"])
    for atom, weight in zip(dist.atoms, dist.weights):
        writer.writerow([_fmt(a) for a in atom] + [_fmt(weight)])


def read_dataset(path: str) -> Dataset:
    """Read a training sample from CSV with columns x1..xk,y1..yd."""
    header, rows = _read_rows(path)
    k = sum(1 for h in header if h.startswith("x"))
    d = sum(1 for h in header if h.startswith("y"))
    expected = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(d)]
    if k == 0 or d == 0 or header != expected:
        raise DataError(f"{path}: expected columns x1..xk,y1..yd")
    xs, ys = [], []
    for line, row in enumerate(rows, start=2):
        if len(row) != k + d:
            raise DataError(f"{path}: line {line}: expected {k + d} columns")
        vals = _parse_floats(path, row, line)
        xs.append(vals[:k])
        ys.append(vals[k:])
    if not xs:
        raise DataError(f"{path}: no observations")
    return Dataset(np.array(xs), np.array(ys))


def read_queries(path: str, k: int) -> np.ndarray:
    header, rows = _read_rows(path)
    if header != [f"x{i + 1}" for i in range(k)]:
        raise DataError(f"{path}: expected columns x1..x{k}")
    out = []
    for line, row in enumerate(rows, start=2):
        if len(row) != k:
            raise DataError(f"{path}: line {line}: expected {k} columns")
        out.append(_parse_floats(path, row, line))
    if not out:
        raise DataError(f"{path}: no query points")
    return np.array(out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_distance(args) -> int:
    a = read_distribution(args.file_a)
    b = read_distribution(args.file_b)
    if a.dim != b.dim:
        raise DataError(f"dimension mismatch: {a.dim} vs {b.dim}")
    method = args.method
    if method == "auto":
        if a.dim == 1:
            method = "quantile"
        elif a.support_size * b.support_size <= 40_000:
            method = "exact"
        else:
            method = "sliced"
    if method in ("quantile", "cdf") and a.dim != 1:
        raise ValueError(f"method {method!r} requires one-dimensional measures")
    if method in ("sliced", "max-sliced") and a.dim < 2:
        raise ValueError(f"method {method!r} requires dimension >= 2")
    if method == "cdf" and args.order != 1.0:
        raise ValueError("the cdf method is an order-1 formula")

    if method == "quantile":
        value = wp_quantile(a, b, args.order)
    elif method == "cdf":
        value = w1_cdf(a, b)
    elif method == "exact":
        value, _ = wp_exact(a, b, args.order)
    else:
        cfg = SlicedConfig(
            p=args.order, num_directions=args.directions, seed=args.seed
        )
        if method == "sliced":
            est = sliced_wp(a, b, cfg)
            print(f"{est.value:.12g} {est.stderr:.12g}")
            return EXIT_OK
        value = max_sliced_wp(a, b, cfg)
    print(f"{value:.12g}")
    return EXIT_OK


def _scheme_from_args(args, n: int):
    if args.scheme == "knn":
        if args.kappa is None:
            raise ValueError("--kappa is required for the knn scheme")
        if args.kappa > n:
            raise ValueError(f"kappa = {args.kappa} exceeds sample size {n}")
        return KnnScheme(kappa=args.kappa)
    if args.bandwidth is None:
        raise ValueError("--bandwidth is required for the kernel scheme")
    return KernelScheme(bandwidth=args.bandwidth)


def cmd_predict(args) -> int:
    ds = read_dataset(args.train)
    queries = read_queries(args.queries, ds.k)
    reg = fit(ds, _scheme_from_args(args, ds.n))
    spec = FunctionalSpec.parse(args.functional) if args.functional else None
    preds = predict_many(reg, queries)
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        if spec is None:
            writer.writerow(
                ["query"] + [f"y{i + 1}" for i in range(ds.d)] + ["weight"]
            )
            for qid, pred in enumerate(preds):
                for atom, weight in zip(pred.atoms, pred.weights):
                    writer.writerow([qid] + [_fmt(a) for a in atom] + [_fmt(weight)])
        else:
            writer.writerow(["query", "value"])
            for qid, pred in enumerate(preds):
                writer.writerow([qid, _fmt(evaluate_functional(pred, spec))])
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _parse_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"{path}: line {line_no}: expected key=value")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return cfg


def _parse_schedule(text: str):
    parts = text.split(":")
    try:
        if parts[0] == "h":
            return "kernel", BandwidthPowerSchedule(_finite(parts[1]), _finite(parts[2]))
        if parts[0] == "kappa":
            return "knn", NeighborPowerSchedule(_finite(parts[1]), _finite(parts[2]))
        if parts[0] == "kappa-fixed":
            return "knn", FixedNeighborSchedule(int(parts[1]))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"cannot parse schedule {text!r}: {exc}") from exc
    raise ValueError(f"unknown schedule form {text!r}")


# keys a preset config may set; a spelled-out study also takes the rest
_PRESET_KEYS = {"preset", "n_grid", "replications", "test_points", "seed", "tolerance",
                "out_prefix"}
_STUDY_KEYS = _PRESET_KEYS - {"preset"} | {"model", "schedule", "order", "target"}


def _plan_from_config(cfg: dict[str, str], seed: int) -> ExperimentPlan:
    allowed = _PRESET_KEYS if "preset" in cfg else _STUDY_KEYS
    rejected = sorted(set(cfg) - allowed)
    if rejected:
        raise ValueError(
            f"unknown or ignored rates config key(s) {', '.join(rejected)}; "
            f"this config takes {', '.join(sorted(allowed))}"
        )
    if "preset" in cfg:
        plan = make_experiment_preset(cfg["preset"], seed=int(cfg.get("seed", seed)))
        overrides = {}
        if "n_grid" in cfg:
            overrides["n_grid"] = tuple(int(v) for v in cfg["n_grid"].split(","))
        for key in ("replications", "test_points"):
            if key in cfg:
                overrides[key] = int(cfg[key])
        if "tolerance" in cfg:
            overrides["tolerance"] = _finite(cfg["tolerance"], "tolerance")
        return dataclasses.replace(plan, **overrides)
    required = ("model", "schedule", "n_grid")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"config must set preset= or the keys {missing}")
    family, schedule = _parse_schedule(cfg["schedule"])
    return ExperimentPlan(
        model=make_preset(cfg["model"]),
        family=family,
        schedule=schedule,
        n_grid=tuple(int(v) for v in cfg["n_grid"].split(",")),
        replications=int(cfg.get("replications", "16")),
        test_points=int(cfg.get("test_points", "16")),
        seed=int(cfg.get("seed", seed)),
        p=_finite(cfg.get("order", "1"), "order"),
        target_exponent=_finite(cfg["target"], "target") if "target" in cfg else None,
        tolerance=_finite(cfg.get("tolerance", "0.08"), "tolerance"),
    )


def cmd_rates(args) -> int:
    cfg = _parse_config(args.config)
    plan = _plan_from_config(cfg, _default_seed())
    if args.dry_run:
        print(f"model={plan.model.name} family={plan.family}")
        print(f"n_grid={','.join(str(n) for n in plan.n_grid)}")
        print(
            f"replications={plan.replications} test_points={plan.test_points} "
            f"seed={plan.seed} order={plan.p:g}"
        )
        target = "none" if plan.target_exponent is None else f"{plan.target_exponent:.6g}"
        print(f"target={target} tolerance={plan.tolerance:g}")
        return EXIT_OK
    report = rate_study(plan, workers=args.workers)
    prefix = cfg.get("out_prefix", "rates")
    csv_path, json_path = report.write(prefix)
    target = report.theoretical
    target_text = "none" if target is None else f"{target:.6g}"
    verdict = "pass" if report.passed else "fail"
    print(
        f"slope={report.slope:.6g} stderr={report.slope_stderr:.6g} "
        f"target={target_text} verdict={verdict}"
    )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


def cmd_bounds(args) -> int:
    params = ClassParams(
        holder=args.holder,
        lipschitz=args.lipschitz,
        dispersion=args.dispersion,
        dim=args.dim,
    )
    ns = [int(v) for v in args.n.split(",")]
    if args.family == "knn" and args.dim >= 2 and args.tilde_ck is None:
        raise ValueError("--tilde-ck is required for knn bounds with dim >= 2")
    if args.family == "knn" and not all(kappa.is_integer() for kappa in args.param):
        raise ValueError(f"knn --param must list whole neighbour counts, got {args.param}")
    # every row is computed before anything is written, so a bad (n, param)
    # pair leaves no partial table behind
    if args.family == "kernel":
        ck = args.ck if args.ck is not None else float(args.dim) ** (args.dim / 2.0)
        header = ["n", "bandwidth", "bound", "covering_const"]
        rows = [
            [n, _fmt(h), _fmt(kernel_bound(params, n, h, args.ck)), _fmt(ck)]
            for n in ns
            for h in args.param
        ]
    else:
        header = ["n", "kappa", "bound"]
        rows = [
            [n, int(kappa), _fmt(knn_bound(params, n, int(kappa), args.tilde_ck))]
            for n in ns
            for kappa in args.param
        ]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_stone_check(args) -> int:
    model = make_preset(args.model)
    if args.family == "knn":
        if args.kappa_schedule is not None:
            _, schedule = _parse_schedule(f"kappa:{args.kappa_schedule}")
        elif args.kappa is not None:
            schedule = FixedNeighborSchedule(args.kappa)
        else:
            raise ValueError("knn diagnostics need --kappa or --kappa-schedule")
        scheme_for_n = lambda n: KnnScheme(kappa=int(schedule(n)))  # noqa: E731
    else:
        if args.bandwidth_schedule is not None:
            _, schedule = _parse_schedule(f"h:{args.bandwidth_schedule}")
        elif args.bandwidth is not None:
            schedule = BandwidthPowerSchedule(args.bandwidth, 0.0)
        else:
            raise ValueError("kernel diagnostics need --bandwidth or --bandwidth-schedule")
        scheme_for_n = lambda n: KernelScheme(bandwidth=float(schedule(n)))  # noqa: E731
    n_grid = [int(v) for v in args.n_grid.split(",")]
    rows = stone_diagnostics(
        scheme_for_n,
        model,
        n_grid,
        eps=args.eps,
        replications=args.replications,
        seed=args.seed,
    )
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "max_weight", "max_weight_se", "far_weight", "far_weight_se"])
    for row in rows:
        writer.writerow(
            [
                row.n,
                _fmt(row.max_weight),
                _fmt(row.max_weight_se),
                _fmt(row.far_weight),
                _fmt(row.far_weight_se),
            ]
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    model = make_preset(args.model)
    report = certify_class(model, resolution=args.resolution)
    print(f"model={report.model} resolution=1/{report.resolution}")
    print(f"max_ratio={report.max_ratio:.6g} (margin {report.ratio_margin:.3%})")
    print(
        f"max_dispersion={report.max_dispersion:.6g} "
        f"declared={report.declared.dispersion:.6g} "
        f"(margin {report.dispersion_margin:.3%})"
    )
    print(f"passes={report.passes}")
    return EXIT_OK if report.passes else EXIT_VERDICT_FAIL


def cmd_bound_check(args) -> int:
    plan = make_experiment_preset(args.preset, seed=args.seed)
    rows = bound_vs_risk(
        plan, neighbor_const=args.tilde_ck, workers=args.workers
    )
    sys.stdout.write(bound_rows_csv(rows))
    violated = any(row.violated for row in rows)
    return EXIT_VERDICT_FAIL if violated else EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distreg",
        description="Nonparametric distributional regression toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="Wasserstein distance between two measures")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--order", type=_finite_float, default=1.0)
    p.add_argument(
        "--method",
        choices=["auto", "quantile", "cdf", "exact", "sliced", "max-sliced"],
        default="auto",
    )
    p.add_argument("--directions", type=int, default=256)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("predict", help="fit and predict conditional distributions")
    p.add_argument("--train", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--scheme", choices=["knn", "kernel"], required=True)
    p.add_argument("--kappa", type=int)
    p.add_argument("--bandwidth", type=_finite_float)
    p.add_argument("--functional")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("rates", help="run a convergence-rate study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("bounds", help="tabulate closed-form risk bounds")
    p.add_argument("--family", choices=["kernel", "knn"], required=True)
    p.add_argument("--holder", type=_finite_float, required=True)
    p.add_argument("--lipschitz", type=_finite_float, required=True)
    p.add_argument("--dispersion", type=_finite_float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument(
        "--param", required=True, type=_finite_floats,
        help="comma-separated h or kappa values",
    )
    p.add_argument("--tilde-ck", type=_finite_float, dest="tilde_ck")
    p.add_argument("--ck", type=_finite_float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("stone-check", help="weight-consistency diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--family", choices=["knn", "kernel"], required=True)
    p.add_argument("--kappa", type=int)
    p.add_argument("--kappa-schedule", help="COEF:EXP for kappa(n)")
    p.add_argument("--bandwidth", type=_finite_float)
    p.add_argument("--bandwidth-schedule", help="COEF:EXP for h(n)")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--replications", type=int, default=16)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_stone_check)

    p = sub.add_parser("certify", help="check a preset against its declared class")
    p.add_argument("--model", required=True, choices=sorted(PRESETS))
    p.add_argument("--resolution", type=int, default=64)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bound-check", help="Monte-Carlo risk vs closed-form bound")
    p.add_argument("--preset", required=True)
    p.add_argument("--tilde-ck", type=_finite_float, dest="tilde_ck")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bound_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an omitted --seed is read from the environment here, inside the
        # error handling, so a malformed DISTREG_SEED is a usage error
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
