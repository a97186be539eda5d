"""Command-line interface: distances, prediction, rate studies, bounds.

Exit codes: 0 success (or verdict pass), 1 verdict fail, 2 usage error,
3 data error: an input file that is missing, not UTF-8, malformed or
non-finite, or an output file that cannot be written.  Every table goes
through one writer: a header row, floats to 17 significant digits so
doubles round-trip losslessly, and rows ending in ``\r\n``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from ._table import write_table
from .bounds import ClassParams, covering_constant, kernel_bound, knn_bound
from .experiments import (
    BandwidthPowerSchedule,
    FixedNeighborSchedule,
    bound_rows_csv,
    bound_vs_risk,
    finite,
    make_experiment_preset,
    parse_schedule,
    plan_from_config,
    rate_study,
    scheme_at,
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


def _finite_float(text: str) -> float:
    """argparse type for float flags: nan and infinities are usage errors."""
    try:
        return finite(text)
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


def _read_table(path: str, expected, columns: str, rows_name: str):
    """Read a CSV file whose header equals ``expected(header)`` (spelled
    ``columns`` in the error) and whose rows, at least one, are finite
    floats; returns the header and the (rows, columns) array."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if header != expected(header):
                raise DataError(f"{path}: expected columns {columns}")
            width, rows = len(header), []
            for line, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise DataError(f"{path}: line {line}: expected {width} columns")
                try:
                    vals = list(map(float, row))
                except ValueError as exc:
                    raise DataError(f"{path}: line {line}: {exc}") from exc
                if not all(map(math.isfinite, vals)):
                    raise DataError(f"{path}: line {line}: values must be finite")
                rows.append(vals)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no {rows_name}")
    return header, np.array(rows, dtype=float)


def read_distribution(path: str) -> DiscreteDistribution:
    """Read a discrete measure from CSV with columns y1..yd,weight."""
    _, values = _read_table(
        path,
        lambda h: [f"y{i + 1}" for i in range(max(len(h) - 1, 1))] + ["weight"],
        "y1..yd,weight",
        "atoms",
    )
    try:
        return make_discrete(values[:, :-1], values[:, -1])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_distribution(dist: DiscreteDistribution, out) -> None:
    header = [f"y{i + 1}" for i in range(dist.dim)] + ["weight"]
    write_table(out, header, [*dist.atoms.T, dist.weights])


def _dataset_header(header: list[str]) -> list[str] | None:
    k = sum(1 for h in header if h.startswith("x"))
    d = sum(1 for h in header if h.startswith("y"))
    if k == 0 or d == 0:
        return None
    return [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(d)]


def read_dataset(path: str) -> Dataset:
    """Read a training sample from CSV with columns x1..xk,y1..yd."""
    header, values = _read_table(path, _dataset_header, "x1..xk,y1..yd", "observations")
    k = header.index("y1")
    return Dataset(values[:, :k].copy(), values[:, k:].copy())


def read_queries(path: str, k: int) -> np.ndarray:
    expected = [f"x{i + 1}" for i in range(k)]
    return _read_table(path, lambda h: expected, f"x1..x{k}", "query points")[1]


def _write_output(path: str | None, header: list[str], columns) -> None:
    """Write a table to the file ``path``, or to stdout when it is None."""
    if path is None:
        write_table(sys.stdout, header, columns)
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as out:
            write_table(out, header, columns)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


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

    try:
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
    except OverflowError as exc:
        raise DataError(str(exc)) from None
    print(f"{value:.12g}")
    return EXIT_OK


def _scheme_from_args(args):
    unread = ("--bandwidth", args.bandwidth) if args.scheme == "knn" else ("--kappa", args.kappa)
    if unread[1] is not None:
        raise ValueError(f"{unread[0]} does not apply to the {args.scheme} scheme")
    if args.scheme == "knn":
        if args.kappa is None:
            raise ValueError("--kappa is required for the knn scheme")
        return KnnScheme(kappa=args.kappa)
    if args.bandwidth is None:
        raise ValueError("--bandwidth is required for the kernel scheme")
    return KernelScheme(bandwidth=args.bandwidth)


def cmd_predict(args) -> int:
    # a malformed scheme or spec fails before any file is read
    scheme = _scheme_from_args(args)
    spec = FunctionalSpec.parse(args.functional) if args.functional else None
    ds = read_dataset(args.train)
    queries = read_queries(args.queries, ds.k)
    reg = fit(ds, scheme)
    preds = predict_many(reg, queries)
    if spec is None:
        header = ["query"] + [f"y{i + 1}" for i in range(ds.d)] + ["weight"]
        columns = [preds.rows, *preds.atoms.T, preds.weights]
    else:
        header = ["query", "value"]
        columns = [np.arange(len(preds)), evaluate_functional(preds, spec)]
    _write_output(args.out, header, columns)
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
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    return cfg


def cmd_rates(args) -> int:
    cfg = _parse_config(args.config)
    plan = plan_from_config(cfg, _default_seed())
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
    try:
        csv_path, json_path = report.write(prefix)
    except OSError as exc:
        raise DataError(f"{prefix}: {exc}") from exc
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
    unread = ("--tilde-ck", args.tilde_ck) if args.family == "kernel" else ("--ck", args.ck)
    if unread[1] is not None:
        raise ValueError(f"{unread[0]} does not apply to {args.family} bounds")
    if args.family == "knn" and not all(kappa.is_integer() for kappa in args.param):
        raise ValueError(f"knn --param must list whole neighbour counts, got {args.param}")
    # every row is computed before anything is written, so a bad (n, param)
    # pair leaves no partial table behind
    if args.family == "kernel":
        ck = args.ck if args.ck is not None else covering_constant(args.dim)
        header = ["n", "bandwidth", "bound", "covering_const"]
        rows = [
            (n, h, kernel_bound(params, n, h, args.ck), ck)
            for n in ns
            for h in args.param
        ]
    else:
        header = ["n", "kappa", "bound"]
        rows = [
            (n, int(kappa), knn_bound(params, n, int(kappa), args.tilde_ck))
            for n in ns
            for kappa in args.param
        ]
    _write_output(args.out, header, list(zip(*rows)))
    return EXIT_OK


# the weight flags of each stone-check family: a fixed value and a schedule
_STONE_FLAGS = {"knn": ("--kappa", "--kappa-schedule"),
                "kernel": ("--bandwidth", "--bandwidth-schedule")}


def _stone_schedule(args):
    """The schedule of the one weight flag given to stone-check."""
    own = _STONE_FLAGS[args.family]
    given = [flag for flags in _STONE_FLAGS.values() for flag in flags
             if getattr(args, flag[2:].replace("-", "_")) is not None]
    for flag in given:
        if flag not in own:
            raise ValueError(f"{flag} does not apply to --family {args.family}")
    if len(given) != 1:
        raise ValueError(f"{args.family} diagnostics need exactly one of {own[0]} and {own[1]}")
    if args.family == "knn":
        if args.kappa is not None:
            return FixedNeighborSchedule(args.kappa)
        return parse_schedule(f"kappa:{args.kappa_schedule}")
    if args.bandwidth is not None:
        return BandwidthPowerSchedule(args.bandwidth, 0.0)
    return parse_schedule(f"h:{args.bandwidth_schedule}")


def cmd_stone_check(args) -> int:
    model = make_preset(args.model)
    schedule = _stone_schedule(args)
    n_grid = [int(v) for v in args.n_grid.split(",")]
    rows = stone_diagnostics(
        lambda n: scheme_at(schedule, n),
        model,
        n_grid,
        eps=args.eps,
        replications=args.replications,
        seed=args.seed,
    )
    header = ["n", "max_weight", "max_weight_se", "far_weight", "far_weight_se"]
    columns = [[getattr(row, name) for row in rows] for name in header]
    write_table(sys.stdout, header, columns)
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
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
