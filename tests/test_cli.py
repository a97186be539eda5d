import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distreg
from distreg import make_discrete
from distreg.cli import main, read_distribution, write_distribution

from conftest import random_discrete


def write(path, text):
    path.write_text(text)
    return str(path)


def dist_csv(path, dist):
    with open(path, "w", newline="") as handle:
        write_distribution(dist, handle)
    return str(path)


@st.composite
def line_measure(draw):
    """A measure on the line with 1-8 atoms, on a half grid (ties) or not."""
    m = draw(st.integers(1, 8))
    atom = st.one_of(
        st.integers(-4, 4).map(lambda v: v / 2.0),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    atoms = draw(st.lists(atom, min_size=m, max_size=m))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    return make_discrete(atoms, weights / weights.sum())


def cli_distance(a, b, *args) -> float:
    """What ``distreg distance`` prints for two measures, as a float."""
    with tempfile.TemporaryDirectory() as tmp:
        files = [
            dist_csv(os.path.join(tmp, f"{name}.csv"), d)
            for name, d in (("a", a), ("b", b))
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["distance", *files, *args]) == 0
    return float(out.getvalue())


class TestDistributionIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        for dim in (1, 2, 3):
            d = random_discrete(rng, max_support=9, dim=dim)
            path = dist_csv(tmp_path / f"d{dim}.csv", d)
            back = read_distribution(path)
            assert np.array_equal(back.atoms, d.atoms)
            assert np.array_equal(back.weights, d.weights)

    def test_schema_errors(self, tmp_path):
        from distreg.cli import DataError

        bad = write(tmp_path / "bad.csv", "a,weight\n0,1\n")
        with pytest.raises(DataError, match="y1"):
            read_distribution(bad)

    def test_header_without_atoms(self, tmp_path, capsys):
        empty = write(tmp_path / "empty.csv", "y1,weight\n")
        good = write(tmp_path / "good.csv", "y1,weight\n0,1\n")
        assert main(["distance", empty, good]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {empty}: no atoms\n"

    @pytest.mark.parametrize("which", ["measure", "train", "queries"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, which):
        files = {
            "measure": write(tmp_path / "m.csv", "y1,weight\n0,1\n"),
            "train": write(tmp_path / "t.csv", "x1,y1\n0.1,0\n0.9,1\n"),
            "queries": write(tmp_path / "q.csv", "x1\n0.5\n"),
        }
        with open(files[which], "wb") as handle:
            handle.write(b"x1,y1\n0.1,\xff\n")
        if which == "measure":
            argv = ["distance", files["measure"], files["measure"]]
        else:
            argv = ["predict", "--train", files["train"], "--queries", files["queries"],
                    "--scheme", "knn", "--kappa", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert files[which] in captured.err and "UTF-8" in captured.err

    def test_bad_byte_is_reported_at_its_offset_in_the_file(self, tmp_path, capsys):
        # past the first 8 KiB, where a chunked decoder counts from its chunk
        body = b"y1,weight\n" + b"0,0.001\n" * 3000
        path = tmp_path / "late.csv"
        path.write_bytes(body[:16014] + b"\xff" + body[16014:])
        assert main(["distance", str(path), str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"data error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 16014: invalid start byte\n"
        )

    def test_bad_config_byte_is_reported_at_its_offset_in_the_file(self, tmp_path, capsys):
        # the config is decoded whole, as a table is: past the first 8 KiB a
        # chunked decoder counts from its chunk
        body = b"preset=binary-k1-kernel\r\n" + b"# a comment line\r\n" * 1000
        path = tmp_path / "late.cfg"
        path.write_bytes(body[:16013] + b"\xff" + body[16013:])
        for dry in (["--dry-run"], []):
            assert main(["rates", "--config", str(path), *dry]) == 3
            assert capsys.readouterr() == (
                "",
                f"data error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                "in position 16013: invalid start byte\n",
            )

    def test_config_lines_are_split_as_in_text_mode(self, tmp_path, capsys):
        # \r\n, \r and \n end a line; \x1c, on which str.splitlines also
        # splits, does not
        path = tmp_path / "r.cfg"
        path.write_bytes(b"preset=binary-k1-kernel\r\n# one\x1cseed=9\rseed=3\n\r\nseed=4\n")
        assert main(["rates", "--config", str(path), "--dry-run"]) == 3
        assert capsys.readouterr() == (
            "", f"data error: {path}: line 5: key 'seed' is already set on line 3\n"
        )

    def test_field_over_the_csv_limit(self, tmp_path, capsys):
        huge = write(tmp_path / "huge.csv", "y1,weight\n0,0.5\n" + "1" * 200_000 + ",0.5\n")
        assert main(["distance", huge, huge]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"data error: {huge}: line 3: field larger than field limit" in captured.err


class TestDistanceCommand:
    def test_dirac_pair(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", "y1,weight\n0,1\n")
        b = write(tmp_path / "b.csv", "y1,weight\n1,1\n")
        assert main(["distance", a, b, "--order", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_quantile_equals_cdf_route(self, tmp_path, capsys, rng):
        da = random_discrete(rng, max_support=10)
        db = random_discrete(rng, max_support=10)
        a = dist_csv(tmp_path / "a.csv", da)
        b = dist_csv(tmp_path / "b.csv", db)
        main(["distance", a, b, "--method", "quantile", "--order", "1"])
        v1 = float(capsys.readouterr().out)
        main(["distance", a, b, "--method", "cdf"])
        v2 = float(capsys.readouterr().out)
        assert abs(v1 - v2) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(a=line_measure(), b=line_measure(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    # both cumulative weights are 19/35 but one rounding step apart, so W_2^2
    # is off by 4e-17 between the routes and W_2 by 6e-9 after the root
    @example(
        a=make_discrete([0.0, 0.5, 1.0], np.array([0.75, 0.2, 0.8]) / 1.75),
        b=make_discrete(
            [0.0, 1.30505052e-52, 0.5, 1.0], np.array([0.4, 0.35, 0.2, 0.8]) / 1.75
        ),
        p=2.0,
    )
    def test_every_route_agrees_where_it_applies(self, a, b, p):
        # on the line: quantile and exact at any order, cdf at order 1
        routes = ("quantile", "exact", "cdf") if p == 1.0 else ("quantile", "exact")
        values = [cli_distance(a, b, "--method", r, "--order", repr(p)) for r in routes]
        if p == 1.0:
            for value in values[1:]:
                assert value == pytest.approx(values[0], rel=1e-9, abs=1e-11)
            return
        # for p > 1 the routes agree in W_p^p, where both are backward stable;
        # the p-th root magnifies an absolute gap near zero
        top = max(np.abs(a.xs).max(), np.abs(b.xs).max())
        for value in values[1:]:
            assert value**p == pytest.approx(
                values[0] ** p, rel=1e-9, abs=1e-12 * (1.0 + top) ** p
            )

    @pytest.mark.parametrize(
        "method,dim,order",
        [("quantile", 1, "1e308"), ("exact", 1, "1e308"), ("sliced", 2, "1000"),
         ("max-sliced", 2, "1000"), ("exact", 2, "1000")],
    )
    def test_order_whose_power_overflows_is_a_usage_error(
        self, tmp_path, capsys, method, dim, order
    ):
        # {0, 1} against {0, 3} on the line or on its diagonal in the plane:
        # the largest gap, at least 2, to the power p is beyond the double
        # range, and so is the transported gap 1 -> 3 (2, or 2 sqrt 2 in the
        # plane) that the exact plan keeps
        if dim == 1:
            a = write(tmp_path / "a.csv", "y1,weight\n0,0.5\n1,0.5\n")
            c = write(tmp_path / "c.csv", "y1,weight\n0,0.5\n3,0.5\n")
        else:
            a = write(tmp_path / "a.csv", "y1,y2,weight\n0,0,0.5\n1,1,0.5\n")
            c = write(tmp_path / "c.csv", "y1,y2,weight\n0,0,0.5\n3,3,0.5\n")
        before = sorted(tmp_path.iterdir())
        argv = ["distance", a, c, "--method", method, "--order", order]
        if method in ("sliced", "max-sliced"):
            argv += ["--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"order p = {float(order):g} is too large" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    def test_large_order_in_range_keeps_its_value(self, tmp_path, capsys):
        # 2^1000 fits in a double: W_1000 = (2^1000 / 2)^(1/1000)
        a = write(tmp_path / "a.csv", "y1,weight\n0,0.5\n1,0.5\n")
        c = write(tmp_path / "c.csv", "y1,weight\n0,0.5\n3,0.5\n")
        assert main(["distance", a, c, "--method", "quantile", "--order", "1000"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0 * 0.5**0.001)

    def test_exact_order_that_only_an_unused_cell_overflows(self, tmp_path, capsys):
        # 0 -> 3 would cost 3^1000, beyond the double range, but the optimal
        # plan moves 1 -> 3 and pays 2^1000, as the quantile route does
        a = write(tmp_path / "a.csv", "y1,weight\n0,0.5\n1,0.5\n")
        c = write(tmp_path / "c.csv", "y1,weight\n0,0.5\n3,0.5\n")
        printed = []
        for method in ("quantile", "exact"):
            assert main(["distance", a, c, "--method", method, "--order", "1000"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed == ["1.99861418598\n"] * 2

    @pytest.mark.parametrize("m, n", [(1, 1), (7, 5), (40, 40), (1500, 1200)])
    def test_exact_on_the_line_prints_what_quantile_prints(self, tmp_path, capsys, m, n):
        # on the line exact is the quantile route: 1500 x 1200 atoms are
        # beyond the size guard of the simplex, which the line does not run
        rng = np.random.default_rng([m, n])
        files, sizes = [], []
        for name, size in (("a", m), ("b", n)):
            # atoms on a grid of 1e-4 repeat now and then
            w = rng.random(size) + 0.05
            d = make_discrete(np.round(rng.normal(size=size), 4), w / w.sum())
            files.append(dist_csv(tmp_path / f"{name}.csv", d))
            sizes.append(d.support_size)
        assert (sizes[0] * sizes[1] > 10**6) == (m * n > 10**6)
        for order in ("1", "2", "3.5"):
            printed = []
            for method in ("quantile", "exact"):
                code = main(["distance", *files, "--method", method, "--order", order])
                printed.append((code, *capsys.readouterr()))
            assert printed[0] == printed[1]
            assert printed[0][0] == 0

    @pytest.mark.parametrize("method", ["cdf", "exact"])
    @pytest.mark.parametrize(
        "rows_a, rows_b, value",
        [("-1e200,1", "1e200,1", "2e+200"),
         ("0,0.5\n1e200,0.5", "1,0.5\n1e200,0.5", "0.5")],
        ids=["far-pair", "near-pair-beside-far-ones"],
    )
    def test_atoms_whose_squared_difference_overflows_keep_their_distance(
        self, tmp_path, capsys, method, rows_a, rows_b, value
    ):
        # (2e200)^2 and (1e200)^2 are beyond the double range, but 2e200 is
        # not, and the transported gap 0 -> 1 beside 1e200 keeps its value
        a = write(tmp_path / "a.csv", f"y1,weight\n{rows_a}\n")
        b = write(tmp_path / "b.csv", f"y1,weight\n{rows_b}\n")
        printed = []
        for route in ("quantile", method):
            assert main(["distance", a, b, "--method", route]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed == [f"{value}\n"] * 2

    @pytest.mark.parametrize(
        "method, printed",
        [("exact", "1e-200\n"), ("max-sliced", "7.07106781187e-201\n"),
         ("sliced", "7.07106781187e-201 0\n")],
        ids=["exact", "max-sliced", "sliced"],
    )
    def test_distance_whose_powers_underflow_in_the_plane(self, tmp_path, capsys, method, printed):
        a = write(tmp_path / "a.csv", "y1,y2,weight\n1e-200,0,0.5\n0,1e-200,0.5\n")
        b = write(tmp_path / "b.csv", "y1,y2,weight\n0,0,1\n")
        assert main(["distance", a, b, "--method", method, "--order", "2"]) == 0
        assert capsys.readouterr() == (printed, "")

    def test_exact_distance_whose_squares_overflow_in_the_plane(self, tmp_path, capsys):
        # both coordinates differ by 3e200: the gap is 3e200 sqrt 2
        a = write(tmp_path / "a.csv", "y1,y2,weight\n-1e200,-1e200,1\n")
        b = write(tmp_path / "b.csv", "y1,y2,weight\n2e200,2e200,1\n")
        assert main(["distance", a, b, "--method", "exact"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(3e200 * 2**0.5, rel=1e-11)

    @pytest.mark.parametrize("method", ["quantile", "cdf", "exact"])
    def test_atoms_whose_difference_overflows_are_a_data_error(
        self, tmp_path, capsys, method
    ):
        # W_1 = 2e308 is beyond the double range
        a = write(tmp_path / "a.csv", "y1,weight\n-1e308,1\n")
        b = write(tmp_path / "b.csv", "y1,weight\n1e308,1\n")
        assert main(["distance", a, b, "--method", method]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: the atoms are too far apart" in captured.err

    def test_sliced_standard_error_of_large_powers_stays_finite(self, tmp_path, capsys):
        # every projected 1000-th power fits in a double, but its square does
        # not; the same measures shrunk by 4 give each power times 2^-2000
        texts = {
            "a": "y1,y2,weight\n0,0,0.5\n1,0,0.5\n",
            "b": "y1,y2,weight\n0,0,0.5\n3,0,0.5\n",
            "qa": "y1,y2,weight\n0,0,0.5\n0.25,0,0.5\n",
            "qb": "y1,y2,weight\n0,0,0.5\n0.75,0,0.5\n",
        }
        paths = {name: write(tmp_path / f"{name}.csv", text) for name, text in texts.items()}
        printed = []
        for pair in (("a", "b"), ("qa", "qb")):
            argv = ["distance", paths[pair[0]], paths[pair[1]], "--method", "sliced",
                    "--order", "1000", "--seed", "1"]
            assert main(argv) == 0
            printed.append([float(v) for v in capsys.readouterr().out.split()])
        (value, se), (small_value, small_se) = printed
        assert np.isfinite(se) and se > 0
        assert value == pytest.approx(4.0 * small_value, rel=1e-9)
        assert se == pytest.approx(np.ldexp(small_se, 2000), rel=1e-9)

    def test_malformed_weight_column(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", "y1,weight\n0,1\n")
        bad = write(tmp_path / "bad.csv", "y1,weight\n0,0.5\n1,zzz\n")
        assert main(["distance", a, bad]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("nan-atom", "y1,weight\n0.0,0.5\nnan,0.5\n", 3),
            ("nan-weight", "y1,weight\n0.0,0.5\n1.0,0.5\n2.0,nan\n", 4),
            ("inf-atom", "y1,weight\n0.0,0.5\ninf,0.5\n", 3),
        ],
    )
    def test_non_finite_values_are_data_errors(self, tmp_path, capsys, name, text, line):
        bad = write(tmp_path / f"{name}.csv", text)
        good = write(tmp_path / "good.csv", "y1,weight\n0.25,0.5\n0.75,0.5\n")
        assert main(["distance", bad, good]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {line}" in captured.err

    def test_sliced_prints_stderr_column(self, tmp_path, capsys):
        a = dist_csv(tmp_path / "a.csv", make_discrete([[0.0, 0.0]], [1.0]))
        b = dist_csv(tmp_path / "b.csv", make_discrete([[1.0, 0.0]], [1.0]))
        assert (
            main(["distance", a, b, "--method", "sliced", "--order", "2",
                  "--directions", "512", "--seed", "4"])
            == 0
        )
        parts = capsys.readouterr().out.split()
        assert len(parts) == 2
        assert abs(float(parts[0]) - np.sqrt(0.5)) < 0.05

    def test_method_dimension_mismatch(self, tmp_path, capsys):
        a = dist_csv(tmp_path / "a.csv", make_discrete([0.0, 1.0], [0.5, 0.5]))
        b = dist_csv(tmp_path / "b.csv", make_discrete([0.5], [1.0]))
        assert main(["distance", a, b, "--method", "sliced"]) == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "-3"), ("--directions", "-5")])
    @pytest.mark.parametrize(
        "method, dim, resolved",
        [("quantile", 1, "quantile"), ("cdf", 1, "cdf"), ("exact", 2, "exact"),
         ("auto", 1, "quantile"), ("auto", 2, "exact")],
    )
    def test_flag_the_method_does_not_read_is_a_usage_error(
        self, tmp_path, capsys, method, dim, resolved, flag, value
    ):
        # only the sliced methods draw directions from a seed
        a = dist_csv(tmp_path / "a.csv", make_discrete(np.eye(2)[:, :dim], [0.5, 0.5]))
        argv = ["distance", a, a, "--method", method, flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} does not apply to the {resolved} method\n"

    def test_auto_picks_exact_for_small_2d(self, tmp_path, capsys):
        a = dist_csv(tmp_path / "a.csv", make_discrete([[0.0, 0.0]], [1.0]))
        b = dist_csv(tmp_path / "b.csv", make_discrete([[3.0, 4.0]], [1.0]))
        assert main(["distance", a, b, "--order", "2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(5.0)


class TestPredictCommand:
    def test_marginal_median_with_full_neighborhood(self, tmp_path, capsys):
        train = write(
            tmp_path / "train.csv",
            "x1,y1\n0.1,5\n0.5,1\n0.9,3\n",
        )
        queries = write(tmp_path / "q.csv", "x1\n0.2\n0.8\n")
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "3", "--functional", "quantile:0.5"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "query,value"
        assert [line.split(",")[1] for line in lines[1:]] == ["3", "3"]

    def test_long_format_weights(self, tmp_path, capsys):
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\n0.2,10\n0.9,100\n")
        queries = write(tmp_path / "q.csv", "x1\n0.15\n")
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "query,y1,weight"
        assert out[1:] == ["0,0,0.5", "0,10,0.5"]

    def test_cte_stays_in_response_range(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = "".join(
            f"{x:.6f},{y}\n"
            for x, y in zip(rng.random(40), rng.choice([0.0, 2.0], size=40))
        )
        train = write(tmp_path / "train.csv", "x1,y1\n" + rows)
        queries = write(tmp_path / "q.csv", "x1\n0.5\n")
        main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "kernel", "--bandwidth", "0.3", "--functional", "cte:0.9"]
        )
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert 0.0 <= value <= 2.0

    def test_deterministic_outputs(self, tmp_path):
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\n0.2,10\n0.9,100\n")
        queries = write(tmp_path / "q.csv", "x1\n0.15\n0.6\n")
        out1, out2 = str(tmp_path / "o1.csv"), str(tmp_path / "o2.csv")
        for out in (out1, out2):
            main(
                ["predict", "--train", train, "--queries", queries,
                 "--scheme", "kernel", "--bandwidth", "0.25", "--out", out]
            )
        with open(out1) as a, open(out2) as b:
            assert a.read() == b.read()

    def test_nan_covariate_is_a_data_error(self, tmp_path, capsys):
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\nnan,10\n0.9,100\n")
        queries = write(tmp_path / "q.csv", "x1\n0.15\n")
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "2"]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3" in captured.err

    @pytest.mark.parametrize(
        "spec", ["pwm:nan:1", "pwm:inf:1", "pwm:1:nan", "pwm:1e308:1"]
    )
    def test_bad_pwm_order_is_a_usage_error(self, tmp_path, capsys, spec):
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\n0.2,10\n0.9,100\n")
        queries = write(tmp_path / "q.csv", "x1\n0.15\n")
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "2", "--functional", spec]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pwm" in captured.err

    @pytest.mark.parametrize(
        "spec", ["cte:0.9:foo", "quantile:0.5:0.6", "pwm:1:2:3", "cov:1", "pwm:1", "cte"]
    )
    def test_wrong_field_count_fails_before_reading(self, tmp_path, capsys, spec):
        # the data files do not exist: the spec must be rejected first
        missing = str(tmp_path / "missing.csv")
        rc = main(
            ["predict", "--train", missing, "--queries", missing,
             "--scheme", "knn", "--kappa", "2", "--functional", spec]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot parse functional spec {spec!r}")

    def test_large_pwm_order_prints_the_correct_value(self, tmp_path, capsys):
        # u^p (1 - u) puts all weight next to u = 1, so the PWM is the top
        # atom times B(p + 1, 2) = 1 / ((p + 1)(p + 2))
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\n0.2,10\n0.9,100\n")
        queries = write(tmp_path / "q.csv", "x1\n0.15\n")
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "2", "--functional", "pwm:1e15:1"]
        )
        assert rc == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(10.0 / ((1e15 + 1) * (1e15 + 2)), rel=1e-9, abs=0)

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_a_data_error(self, tmp_path, capsys, where):
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\n0.2,10\n0.9,100\n")
        queries = write(tmp_path / "q.csv", "x1\n0.15\n")
        out = str(tmp_path / "missing" / "p.csv") if where == "missing-directory" else str(tmp_path)
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "2", "--out", out]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {out}: ")

    def test_kappa_exceeding_n(self, tmp_path, capsys):
        train = write(tmp_path / "train.csv", "x1,y1\n0.1,0\n")
        queries = write(tmp_path / "q.csv", "x1\n0.2\n")
        rc = main(
            ["predict", "--train", train, "--queries", queries,
             "--scheme", "knn", "--kappa", "5"]
        )
        assert rc == 2


class TestRatesCommand:
    def test_dry_run_touches_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", "preset=binary-k1-kernel\n")
        assert main(["rates", "--config", cfg, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "binary-k1" in out
        assert not list(tmp_path.glob("*.csv"))

    def test_small_run_writes_files(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "r.cfg",
            "preset=binary-k1-kernel\n"
            "n_grid=128,256,512\n"
            "replications=6\n"
            "test_points=8\n"
            "tolerance=0.5\n"
            f"out_prefix={tmp_path / 'rates'}\n",
        )
        rc = main(["rates", "--config", cfg])
        assert rc == 0
        with open(tmp_path / "rates.json") as handle:
            payload = json.load(handle)
        assert payload["passed"] is True
        assert len(payload["points"]) == 3
        assert (tmp_path / "rates.csv").exists()

    def test_two_point_grid_writes_strict_json(self, tmp_path, capsys):
        # two grid points leave the slope no residual degree of freedom, so
        # it has no standard error: null in the file, none on stdout
        cfg = write(
            tmp_path / "r.cfg",
            "preset=binary-k1-kernel\nn_grid=4,8\nreplications=3\ntest_points=2\n"
            f"out_prefix={tmp_path / 'rates'}\n",
        )
        main(["rates", "--config", cfg])
        assert " stderr=none " in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        with open(tmp_path / "rates.json") as handle:
            payload = json.load(handle, parse_constant=reject)
        assert payload["slope_stderr"] is None

    def test_invalid_schedule_exit_code(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "r.cfg",
            "model=binary-k1\n"
            "schedule=kappa-fixed:5\n"
            "n_grid=128,512,2048\n"
            "replications=8\n"
            "test_points=8\n"
            "target=-0.3333333\n"
            f"out_prefix={tmp_path / 'rates'}\n",
        )
        assert main(["rates", "--config", cfg]) == 1

    def test_bad_config_key_combination(self, tmp_path, capsys):
        cfg = write(tmp_path / "r.cfg", "model=binary-k1\n")
        assert main(["rates", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "schedule", ["h:1:-0.3:junk", "kappa:1:0.5:2", "kappa-fixed:5:7", "h:1", "kappa-fixed"]
    )
    def test_schedule_with_wrong_field_count(self, tmp_path, capsys, monkeypatch, schedule):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", f"model=binary-k1\nschedule={schedule}\nn_grid=128\n")
        assert main(["rates", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot parse schedule {schedule!r}" in captured.err
        assert not list(tmp_path.glob("rates.*"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "lines",
        [
            "preset=binary-k1-kernel\ntolerance=V\n",
            "model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128\ntolerance=V\n",
            "model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128\norder=V\n",
            "model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128\ntarget=V\n",
            "model=binary-k1\nschedule=kappa:V:0.5\nn_grid=128\n",
            "model=binary-k1\nschedule=h:1:V\nn_grid=128\n",
        ],
        ids=["preset-tolerance", "tolerance", "order", "target", "kappa-schedule",
             "bandwidth-schedule"],
    )
    def test_non_finite_config_float_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, lines, value
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", lines.replace("V", value))
        assert main(["rates", "--config", cfg]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("rates.*"))


    @pytest.mark.parametrize(
        "lines,key",
        [
            ("preset=binary-k1-kernel\norder=2\n", "order"),
            ("preset=binary-k1-kernel\ntarget=-0.5\n", "target"),
            ("preset=binary-k1-kernel\nmodel=binary-k2\n", "model"),
            ("preset=binary-k1-kernel\nschedule=h:1:-0.5\n", "schedule"),
            ("preset=binary-k1-kernel\nreplicatons=3\n", "replicatons"),
            ("model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128,256\n"
             "replicatons=3\n", "replicatons"),
            ("model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128,256\n"
             "Tolerance=0.1\n", "Tolerance"),
        ],
        ids=["preset-order", "preset-target", "preset-model", "preset-schedule",
             "preset-misspelt", "study-misspelt", "study-wrong-case"],
    )
    def test_unknown_or_ignored_config_key_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, lines, key
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", lines)
        assert main(["rates", "--config", cfg, "--dry-run"]) == 2
        assert key in capsys.readouterr().err
        assert main(["rates", "--config", cfg]) == 2
        assert not list(tmp_path.glob("rates.*"))

    @pytest.mark.parametrize(
        "lines",
        [
            "preset=binary-k1-kernel\ntest_points=0\n",
            "preset=binary-k1-kernel\ntolerance=-1\n",
            "preset=binary-k1-kernel\nn_grid=0,128\n",
            "model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128,256\ntest_points=0\n",
            "model=binary-k1\nschedule=kappa-fixed:5\nn_grid=128,256\ntolerance=-1\n",
        ],
        ids=["preset-test-points", "preset-tolerance", "preset-zero-n",
             "study-test-points", "study-tolerance"],
    )
    def test_out_of_range_plan_value_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, lines
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", lines)
        assert main(["rates", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("rates.*"))

    @pytest.mark.parametrize("schedule", ["kappa-fixed:0", "kappa-fixed:-4", "kappa:0:0.5"])
    def test_neighbor_count_below_one_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, schedule
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write(
            tmp_path / "r.cfg", f"model=binary-k1\nschedule={schedule}\nn_grid=128,256\n"
        )
        assert main(["rates", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert not list(tmp_path.glob("rates.*"))

    def test_out_prefix_in_missing_directory_is_a_data_error(self, tmp_path, capsys):
        prefix = tmp_path / "missing" / "rates"
        cfg = write(
            tmp_path / "r.cfg",
            "preset=binary-k1-kernel\nn_grid=128,256\nreplications=2\ntest_points=2\n"
            f"out_prefix={prefix}\n",
        )
        assert main(["rates", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {prefix}: ")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_bytes(b"preset=binary-k1-kernel\n# caf\xe9\n")
        assert main(["rates", "--config", str(cfg), "--dry-run"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cfg) in captured.err and "UTF-8" in captured.err

    def test_order_two_study_doubles_the_binary_order_one_risk(self, tmp_path, capsys):
        # on the support {0, 2}, W2^2 = 4 |p_hat - p| = 2 W1 in every replication
        means = {}
        for order in ("1", "2"):
            prefix = tmp_path / f"order{order}"
            cfg = write(
                tmp_path / f"order{order}.cfg",
                "model=binary-k1\nschedule=kappa:1:0.5\nn_grid=128,256\n"
                f"replications=3\ntest_points=4\norder={order}\nout_prefix={prefix}\n",
            )
            assert main(["rates", "--config", cfg]) == 0
            with open(f"{prefix}.json") as handle:
                means[order] = [pt["mean"] for pt in json.load(handle)["points"]]
        capsys.readouterr()
        assert means["2"] == pytest.approx([2.0 * m for m in means["1"]], rel=1e-12)

    def test_order_whose_power_overflows_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the binary support {0, 2} puts a gap of 2 between prediction and
        # truth, and 2^3000 is beyond the double range
        monkeypatch.chdir(tmp_path)
        cfg = write(
            tmp_path / "r.cfg",
            "model=binary-k1\nschedule=kappa:1:0.5\nn_grid=16,32\norder=3000\n",
        )
        assert main(["rates", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "order p = 3000 is too large" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.cfg"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.chdir(tmp_path)
        cfg = write(
            tmp_path / "r.cfg",
            "preset=binary-k1-kernel\nn_grid=128,256\nreplications=2\ntest_points=2\n",
        )
        assert main(["rates", "--config", cfg, f"--workers={workers}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--workers must be >= 1, got {workers}" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.cfg"]

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("model=binary-k1\nschedule=kappa:1:0.5\nn_grid=16,32\norder=0.5\n",
             "order p must be finite and >= 1"),
            ("model=gaussian-k1\nschedule=kappa:1:0.5\nn_grid=16,32\norder=2\n",
             "orders p > 1 are only evaluated against discrete conditional laws"),
            ("model=gaussian-pair-k1\nschedule=kappa:1:0.5\nn_grid=16,32\n",
             "paired responses have no scalar conditional law"),
        ],
        ids=["order-below-one", "order-two-analytic-law", "paired-responses"],
    )
    def test_dry_run_rejects_what_the_run_rejects(
        self, tmp_path, capsys, monkeypatch, lines, message
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", lines)

        def sampled(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(distreg.experiments, "_fit_and_predict", sampled)
        for dry in (["--dry-run"], []):
            assert main(["rates", "--config", cfg, *dry]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.cfg"]

    def test_config_key_given_twice_is_a_data_error(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "r.cfg", "preset=binary-k1-kernel\nseed=3\n\n# again\nseed = 4\n"
        )
        for dry in (["--dry-run"], []):
            assert main(["rates", "--config", cfg, *dry]) == 3
            assert capsys.readouterr() == (
                "", f"data error: {cfg}: line 5: key 'seed' is already set on line 2\n"
            )

    def test_every_documented_preset_override_is_accepted(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "r.cfg",
            "preset=binary-k1-kernel\nn_grid=128,256\nreplications=3\n"
            "test_points=4\nseed=2\ntolerance=0.5\n"
            f"out_prefix={tmp_path / 'rates'}\n",
        )
        assert main(["rates", "--config", cfg, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "n_grid=128,256" in out and "tolerance=0.5" in out


class TestBoundsCommand:
    def test_kernel_echoes_covering_constant(self, capsys):
        rc = main(
            ["bounds", "--family", "kernel", "--holder", "1", "--lipschitz", "1",
             "--dispersion", "1", "--dim", "1", "--n", "100,200", "--param", "0.1"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,bandwidth,bound,covering_const"
        assert len(lines) == 3
        assert all(line.endswith(",1") for line in lines[1:])

    def test_knn_requires_tilde_ck_in_dim2(self, capsys):
        rc = main(
            ["bounds", "--family", "knn", "--holder", "1", "--lipschitz", "1",
             "--dispersion", "1", "--dim", "2", "--n", "100", "--param", "10"]
        )
        assert rc == 2
        rc = main(
            ["bounds", "--family", "knn", "--holder", "1", "--lipschitz", "1",
             "--dispersion", "1", "--dim", "2", "--n", "100", "--param", "10",
             "--tilde-ck", "4"]
        )
        assert rc == 0

    def test_fractional_kappa_is_a_usage_error(self, capsys):
        rc = main(
            ["bounds", "--family", "knn", "--holder", "1", "--lipschitz", "1",
             "--dispersion", "1", "--dim", "1", "--n", "100", "--param", "3,2.5"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "whole neighbour counts" in captured.err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_bad_pair_writes_nothing(self, tmp_path, capsys, to_file):
        # the good pairs come first, so a streaming writer would have begun
        out = tmp_path / "bounds.csv"
        argv = ["bounds", "--family", "kernel", "--holder", "1", "--lipschitz", "1",
                "--dispersion", "1", "--dim", "1", "--n", "100,0", "--param", "0.1"]
        rc = main(argv + (["--out", str(out)] if to_file else []))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 1" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("family,param", [("kernel", "0.1"), ("knn", "3")])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_a_data_error(self, tmp_path, capsys, family, param, where):
        out = str(tmp_path / "missing" / "b.csv") if where == "missing-directory" else str(tmp_path)
        rc = main(
            ["bounds", "--family", family, "--holder", "1", "--lipschitz", "1",
             "--dispersion", "1", "--dim", "1", "--n", "100", "--param", param,
             "--out", out]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {out}: ")

    def test_bound_decreases_in_n_at_fixed_param(self, capsys):
        main(
            ["bounds", "--family", "knn", "--holder", "1", "--lipschitz", "1",
             "--dispersion", "1", "--dim", "1", "--n", "100,1000,10000",
             "--param", "30"]
        )
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        vals = [float(line.split(",")[2]) for line in lines]
        assert vals == sorted(vals, reverse=True)


BOUNDS = ["bounds", "--family", "kernel", "--holder", "1", "--lipschitz", "1",
          "--dim", "1", "--n", "100"]


BOUND_CLASS = ["--holder", "1", "--lipschitz", "1", "--dispersion", "1", "--n", "100"]
KERNEL_BOUNDS = ["bounds", "--family", "kernel", *BOUND_CLASS]
KNN_BOUNDS = ["bounds", "--family", "knn", *BOUND_CLASS, "--dim", "2", "--param", "10"]
KNN_K1_BOUNDS = ["bounds", "--family", "knn", *BOUND_CLASS, "--dim", "1", "--param", "10"]
# "TRAIN" and "QUERIES" stand for small valid files
PREDICT = ["predict", "--train", "TRAIN", "--queries", "QUERIES"]
STONE = ["stone-check", "--model", "binary-k1", "--n-grid", "64", "--replications", "2"]


class TestOutOfRangeSchedulesAndBounds:
    # "schedule=..." stands for a rates config file holding that schedule
    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--config", "schedule=kappa:1:1e10", "--dry-run"],
            ["rates", "--config", "schedule=kappa:1e308:2", "--dry-run"],
            ["stone-check", "--model", "binary-k1", "--schedule", "kappa:1e308:2",
             "--n-grid", "10,20", "--replications", "2"],
            STONE + ["--schedule", "kappa-fixed:" + "9" * 400],
            KNN_BOUNDS + ["--tilde-ck", "-1"],
            KNN_BOUNDS + ["--tilde-ck", "0"],
            ["bound-check", "--preset", "binary-k2-knn", "--tilde-ck", "-1"],
            ["bound-check", "--preset", "binary-k2-knn", "--tilde-ck", "0"],
            KERNEL_BOUNDS + ["--dim", "1", "--param", "0.1", "--ck", "-1"],
            KERNEL_BOUNDS + ["--dim", "1", "--param", "0.1", "--ck", "0"],
            KERNEL_BOUNDS + ["--dim", "2", "--param", "1e300"],
            KERNEL_BOUNDS + ["--dim", "2", "--param", "1e-300"],
            KERNEL_BOUNDS + ["--dim", "400", "--param", "0.1"],
            # a flag or constant that the command would not read
            PREDICT + ["--scheme", "knn", "--kappa", "2", "--bandwidth", "0.1"],
            PREDICT + ["--scheme", "kernel", "--bandwidth", "0.1", "--kappa", "2"],
            KERNEL_BOUNDS + ["--dim", "1", "--param", "0.1", "--tilde-ck", "4"],
            KNN_K1_BOUNDS + ["--tilde-ck", "4"],
            KNN_K1_BOUNDS + ["--ck", "2"],
            KNN_BOUNDS + ["--tilde-ck", "4", "--ck", "3"],
            ["bound-check", "--preset", "binary-k1-kernel", "--tilde-ck", "4"],
            ["bound-check", "--preset", "binary-k1-knn", "--tilde-ck", "4"],
        ],
        ids=["kappa-exponent", "kappa-coef", "stone-kappa-coef", "stone-kappa-fixed-beyond-doubles",
             "bounds-tilde-ck-negative", "bounds-tilde-ck-0", "bound-check-tilde-ck-negative",
             "bound-check-tilde-ck-0", "ck-negative", "ck-0", "large-bandwidth", "small-bandwidth",
             "dim-400", "predict-knn-bandwidth", "predict-kernel-kappa", "bounds-kernel-tilde-ck",
             "bounds-knn-k1-tilde-ck", "bounds-knn-ck", "bounds-knn-k2-ck",
             "bound-check-kernel-tilde-ck", "bound-check-knn-k1-tilde-ck"],
    )
    def test_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        files = {
            "TRAIN": write(tmp_path / "t.csv", "x1,y1\n0.1,0\n0.5,1\n0.9,1\n"),
            "QUERIES": write(tmp_path / "q.csv", "x1\n0.5\n"),
        }
        argv = [
            write(tmp_path / "r.cfg", f"model=binary-k1\n{a}\nn_grid=128,256\n")
            if a.startswith("schedule=") else files.get(a, a)
            for a in argv
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestNonFiniteFlags:
    # "V" marks where the non-finite value goes; "--flag=V" keeps argparse
    # from reading "-inf" as an option
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "A", "B", "--method", "quantile", "--order=V"],
            ["distance", "A2", "B2", "--method", "sliced", "--seed", "1", "--order=V"],
            ["predict", "--train", "T", "--queries", "Q", "--scheme", "kernel",
             "--bandwidth=V"],
            BOUNDS + ["--param", "0.1", "--dispersion=V"],
            BOUNDS + ["--dispersion", "1", "--param=0.1,V"],
        ],
        ids=["quantile-order", "sliced-order", "bandwidth", "dispersion", "param"],
    )
    def test_non_finite_flag_is_a_usage_error(self, tmp_path, capsys, argv, value):
        files = {
            "A": write(tmp_path / "a.csv", "y1,weight\n0,1\n"),
            "B": write(tmp_path / "b.csv", "y1,weight\n1,1\n"),
            "A2": write(tmp_path / "a2.csv", "y1,y2,weight\n0,0,0.5\n1,1,0.5\n"),
            "B2": write(tmp_path / "b2.csv", "y1,y2,weight\n0,1,0.5\n1,0,0.5\n"),
            "T": write(tmp_path / "t.csv", "x1,y1\n0.1,0\n0.9,1\n"),
            "Q": write(tmp_path / "q.csv", "x1\n0.5\n"),
        }
        argv = [files.get(a, a.replace("V", value)) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_stone_bandwidth_is_a_usage_error(self, capsys, value):
        # a schedule is parsed by the command, not by argparse
        assert main(STONE + [f"--schedule=h:{value}:0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_nan_order_with_exact_method_exits_promptly(self, tmp_path):
        a = write(tmp_path / "a.csv", "y1,y2,weight\n0,0,0.5\n1,1,0.5\n")
        b = write(tmp_path / "b.csv", "y1,y2,weight\n0,1,0.5\n1,0,0.5\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(distreg.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "distreg.cli", "distance", a, b,
             "--method", "exact", "--order", "nan"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 2
        assert out.stdout == ""


class TestSeedsAndWholeNumbers:
    # "cfg:LINE" stands for a preset config file that also holds LINE; "A2"
    # and "B2" for two small measures in the plane
    @pytest.mark.parametrize(
        "env_seed, argv, message",
        [
            (None, ["rates", "--config", "cfg:seed=-1", "--dry-run"], "seed must be >= 0, got -1"),
            (None, ["rates", "--config", "cfg:seed=-1"], "seed must be >= 0, got -1"),
            ("-2", ["rates", "--config", "cfg:", "--dry-run"], "seed must be >= 0, got -2"),
            (None, ["distance", "A2", "B2", "--method", "sliced", "--seed", "-3"],
             "seed must be >= 0, got -3"),
            ("-2", STONE + ["--schedule", "kappa:1:0.5"], "seed must be >= 0, got -2"),
            (None, STONE + ["--schedule", "kappa:1:0.5", "--seed", "-3"],
             "seed must be >= 0, got -3"),
            (None, ["rates", "--config", "cfg:replications=two", "--dry-run"],
             "cannot parse replications 'two': "),
            (None, ["rates", "--config", "cfg:test_points=1.5", "--dry-run"],
             "cannot parse test_points '1.5': "),
            (None, ["rates", "--config", "cfg:n_grid=64,x", "--dry-run"],
             "cannot parse n_grid '64,x': "),
            (None, ["rates", "--config", "cfg:seed=1e3", "--dry-run"], "cannot parse seed '1e3': "),
            (None, ["rates", "--config", "cfg:tolerance=abc", "--dry-run"],
             "cannot parse tolerance 'abc': "),
            (None, ["stone-check", "--model", "binary-k1", "--schedule", "kappa:1:0.5",
                    "--n-grid", "64,x"], "cannot parse --n-grid '64,x': "),
            (None, ["bounds", "--family", "kernel", "--holder", "1", "--lipschitz", "1",
                    "--dispersion", "1", "--dim", "1", "--param", "0.1", "--n", "10,x"],
             "cannot parse --n '10,x': "),
        ],
        ids=["rates-dry-run-seed", "rates-seed", "rates-env-seed", "sliced-seed",
             "stone-env-seed", "stone-seed", "replications", "test-points", "n-grid",
             "seed-float", "tolerance", "stone-n-grid", "bounds-n"],
    )
    def test_is_a_usage_error_naming_the_value(
        self, tmp_path, capsys, monkeypatch, env_seed, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        if env_seed is None:
            monkeypatch.delenv("DISTREG_SEED", raising=False)
        else:
            monkeypatch.setenv("DISTREG_SEED", env_seed)
        files = {
            "A2": write(tmp_path / "a2.csv", "y1,y2,weight\n0,0,0.5\n1,1,0.5\n"),
            "B2": write(tmp_path / "b2.csv", "y1,y2,weight\n0,1,0.5\n1,0,0.5\n"),
        }
        argv = [
            write(tmp_path / "r.cfg", f"preset=binary-k1-kernel\n{a[4:]}\n")
            if a.startswith("cfg:") else files.get(a, a)
            for a in argv
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert not list(tmp_path.glob("rates.*"))


class TestSampleSizesBelowOne:
    # every study checks its sample sizes in one place, with one message
    SCHEDULES = ["h:1:-0.25", "h:1:0.5", "kappa:1:0.5", "kappa-fixed:3"]

    @pytest.mark.parametrize("n_grid, n", [("0", 0), ("-5", -5), ("64,0", 0)])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_stone_check(self, capsys, schedule, n_grid, n):
        argv = ["stone-check", "--model", "binary-k1", "--replications", "2",
                "--schedule", schedule, f"--n-grid={n_grid}"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: sample sizes must be >= 1, got {n}\n")

    @pytest.mark.parametrize("dry", [["--dry-run"], []], ids=["dry-run", "run"])
    @pytest.mark.parametrize("n_grid, n", [("0,8", 0), ("-5,8", -5)])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_rates(self, tmp_path, capsys, monkeypatch, schedule, n_grid, n, dry):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "r.cfg", f"model=binary-k1\nschedule={schedule}\nn_grid={n_grid}\n")
        assert main(["rates", "--config", cfg, *dry]) == 2
        assert capsys.readouterr() == ("", f"error: sample sizes must be >= 1, got {n}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.cfg"]


class TestOtherCommands:
    def test_stone_check(self, capsys):
        rc = main(
            ["stone-check", "--model", "binary-k1", "--schedule", "kappa:1:0.5",
             "--n-grid", "64,256", "--replications", "4", "--seed", "2"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,max_weight")
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "flags, rows",
        [(["--model", "binary-k2", "--schedule", "h:1:-0.25", "--n-grid", "64,512",
           "--replications", "5", "--seed", "3"],
          ["64,0.052565656517118288,0.0034024599109846298,0.91192978498263355,"
           "0.0073747395875134155",
           "512,0.016748158830598561,0.00071918085521474389,0.73287150762161857,"
           "0.015694814686238994"]),
         # a bandwidth so small that some rows fall back to the whole sample
         (["--model", "binary-k1", "--schedule", "h:0.01:0", "--n-grid", "50",
           "--replications", "2"],
          ["50,0.36166666666666669,0.023333333333333341,0.29000000000000004,"
           "0.054999999999999986"])],
        ids=["kernel-k2", "fallback"],
    )
    def test_stone_check_prints_pinned_rows(self, capsys, flags, rows):
        assert main(["stone-check", *flags]) == 0
        header = "n,max_weight,max_weight_se,far_weight,far_weight_se"
        assert capsys.readouterr().out == "\r\n".join([header, *rows, ""])

    @pytest.mark.parametrize(
        "flags",
        [["--schedule", "kappa-fixed:0"], ["--schedule", "kappa-fixed:-4"],
         ["--schedule", "kappa:0:0.5"], ["--schedule=kappa:-1:0.5"]],
        ids=["kappa-0", "kappa-negative", "schedule-coef-0", "schedule-coef-negative"],
    )
    def test_stone_check_neighbor_count_below_one(self, capsys, flags):
        rc = main(
            ["stone-check", "--model", "binary-k1", *flags,
             "--n-grid", "64,256", "--replications", "2", "--seed", "2"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [["--schedule", "h:1:-0.3:9"], ["--schedule", "kappa:1:0.5:2"],
         ["--schedule", "kappa:1"]],
        ids=["bandwidth-extra-field", "kappa-extra-field", "kappa-missing-field"],
    )
    def test_stone_check_schedule_with_wrong_field_count(self, capsys, flags):
        rc = main(
            ["stone-check", "--model", "binary-k1", *flags,
             "--n-grid", "64,256", "--replications", "2", "--seed", "2"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse schedule" in captured.err and flags[-1] in captured.err

    def test_stone_check_needs_a_schedule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(STONE)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --schedule" in captured.err

    def test_bound_check_workers_below_one_is_a_usage_error(self, capsys):
        argv = ["bound-check", "--preset", "binary-k1-kernel", "--workers", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers must be >= 1, got 0" in captured.err

    def test_certify(self, capsys):
        assert main(["certify", "--model", "binary-k1", "--resolution", "32"]) == 0
        assert "passes=True" in capsys.readouterr().out

    @pytest.mark.parametrize("resolution", ["0", "-1"])
    def test_certify_needs_a_grid(self, capsys, resolution):
        rc = main(["certify", "--model", "binary-k1", "--resolution", resolution])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resolution must be >= 1" in captured.err

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["frobnicate"], 2)])
    def test_python_dash_m_runs_the_cli(self, argv, code):
        src = os.path.dirname(os.path.dirname(os.path.abspath(distreg.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "distreg", *argv],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == code
        assert "usage: distreg" in out.stdout + out.stderr

    def test_malformed_env_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DISTREG_SEED", "abc")
        a = dist_csv(tmp_path / "a.csv", make_discrete([[0.0, 0.0]], [1.0]))
        b = dist_csv(tmp_path / "b.csv", make_discrete([[1.0, 0.0]], [1.0]))
        argv = ["distance", a, b, "--method", "sliced", "--directions", "8"]
        assert main(argv) == 2
        assert "DISTREG_SEED" in capsys.readouterr().err
        # an explicit --seed does not read the environment
        assert main(argv + ["--seed", "3"]) == 0

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DISTREG_SEED", "99")
        from distreg.cli import _default_seed

        assert _default_seed() == 99
