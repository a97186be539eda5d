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
import io
import math
import os
import sys

import numpy as np

from ._table import write_table
from .bounds import ClassParams, covering_constant, kernel_bound, knn_bound
from .experiments import (
    bound_rows_csv,
    bound_vs_risk,
    finite,
    make_experiment_preset,
    parse_schedule,
    plan_from_config,
    rate_study,
    scheme_at,
    whole,
    whole_list,
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
    return whole(os.environ.get("DISTREG_SEED", "1"), "DISTREG_SEED")


# ---------------------------------------------------------------------------
# CSV input / output


def _read_table(path: str, expected, columns: str, rows_name: str):
    """Read a CSV file whose header equals ``expected(header)`` (spelled
    ``columns`` in the error) and whose rows, at least one, are finite
    floats; returns the header and the (rows, columns) array.

    The file is read and decoded whole, so a byte that is not UTF-8 is
    reported at its offset in the file.  A plain text is then parsed in
    bulk (:func:`_plain_table`); any other text, and any plain text that
    the bulk path does not accept, goes through the csv module's reader a
    row at a time (:func:`_csv_table`), which gives the error message."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    table = _plain_table(text)
    if table is None or table[0] != expected(table[0]):
        table = _csv_table(path, text, expected, columns, rows_name)
    return table


def _plain_table(text: str):
    """The header and the rows of ``text`` as :func:`_csv_table` reads
    them, or None when the text is not plain or not a table of finite
    floats with at least one row.

    A plain text is ASCII, holds no ``"`` and ends its lines in ``\\n`` or
    ``\\r\\n``, never in a lone ``\\r``; the csv reader then splits each
    line at its commas and nothing else.  Every line, the header included,
    must have the header's number of commas, and every field must be
    shorter than the csv field limit.  The fields below the header are
    converted in one call, which calls ``float`` on each as the row parser
    does, and must all be finite."""
    crlf = text.count("\r\n")
    if not text.isascii() or '"' in text or text.count("\r") != crlf:
        return None
    if crlf:
        text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    # each line ends in a "\n", the last one in the one after the text
    ends = np.append(codes[seps], ord("\n"))
    width = int(np.argmax(ends == ord("\n"))) + 1
    if len(ends) % width or len(ends) == width:
        return None
    ends = ends.reshape(-1, width)
    if np.any(ends[:, :-1] != ord(",")) or np.any(ends[:, -1] != ord("\n")):
        return None
    fields = np.diff(seps, prepend=-1, append=len(codes)) - 1
    if fields.max() >= csv.field_size_limit():
        return None
    cells = text.replace("\n", ",").split(",")
    try:
        values = np.array(cells[width:], dtype=float).reshape(-1, width)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return cells[:width], values


def _csv_table(path: str, text: str, expected, columns: str, rows_name: str):
    """:func:`_read_table` on the decoded text, a row at a time through the
    csv module's reader; every fault is a DataError naming its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
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
    given = vars(args)  # holds --seed and --directions only when given
    unread = [flag for flag in ("seed", "directions") if flag in given]
    if unread and method not in ("sliced", "max-sliced"):
        raise ValueError(f"--{unread[0]} does not apply to the {method} method")
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
                p=args.order,
                num_directions=given.get("directions", 256),
                seed=given["seed"] if "seed" in given else _default_seed(),
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
    target, stderr = report.theoretical, report.slope_stderr
    target_text = "none" if target is None else f"{target:.6g}"
    stderr_text = "none" if stderr is None else f"{stderr:.6g}"
    verdict = "pass" if report.passed else "fail"
    print(
        f"slope={report.slope:.6g} stderr={stderr_text} "
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
    ns = whole_list(args.n, "--n")
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


def cmd_stone_check(args) -> int:
    model = make_preset(args.model)
    schedule = parse_schedule(args.schedule)
    n_grid = whole_list(args.n_grid, "--n-grid")
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
    # unset unless given, so that the methods which do not read them can
    # reject them; cmd_distance, not main, reads an omitted seed
    p.add_argument("--directions", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
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
    p.add_argument(
        "--schedule", required=True,
        help="h:COEF:EXP (kernel), kappa:COEF:EXP or kappa-fixed:K (k-NN)",
    )
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
