"""CLI: golden table values, determinism, table/figure consistency,
spectrum generation, atomic output, and the verify exit-code contract."""

import io
import json
import math
import os
import subprocess
import sys

import pytest

from rieszbounds import cli, spectra, verify
from rieszbounds.errors import DomainError
from oracles import spectrum_csv, spectrum_json, spectrum_text


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTables:
    def test_table1_golden_row_d2(self, capsys):
        code, out, _ = run_cli(capsys, "table", "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,k,eq_3_4_j1,cy_av,her2,ab94_avg,fk_weyl_avg"
        assert lines[1] == "2,127,142.875,190.5,163.962,339.852,43.9204"
        assert len(lines) == 7

    def test_table2_golden(self, capsys):
        _, out, _ = run_cli(capsys, "table", "table2")
        rows = {line.split(",")[0]: line for line in out.strip().splitlines()}
        assert rows["2"] == "2,5,2.53014,3.08587"
        assert rows["7"] == "7,14,2.31003,2.58414"

    def test_table3_golden(self, capsys):
        _, out, _ = run_cli(capsys, "table", "table3")
        rows = {line.split(",")[0]: line for line in out.strip().splitlines()}
        assert rows["4"] == "4,2.99694,3.67049"

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "table", "table3", "--format", "json")
        payload = json.loads(out)
        assert payload["columns"][0] == "d"
        assert payload["rows"][0][1] == pytest.approx(3.25304, rel=1e-5)

    def test_full_precision_longer(self, capsys):
        _, short, _ = run_cli(capsys, "table", "table1")
        _, full, _ = run_cli(capsys, "table", "table1", "--full-precision")
        assert len(full) > len(short)
        assert "142.875" in short


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "table", "table1")
        _, second, _ = run_cli(capsys, "table", "table1")
        assert first == second

    def test_figure_table_consistency(self, capsys):
        # fig2 row at k = 127 must equal table1 row d = 4, column for column
        _, fig, _ = run_cli(capsys, "figure", "fig2")
        _, tab, _ = run_cli(capsys, "table", "table1")
        fig_row = next(line for line in fig.splitlines()
                       if line.startswith("127,"))
        tab_row = next(line for line in tab.splitlines()
                       if line.startswith("4,127,"))
        assert fig_row.split(",")[1:] == tab_row.split(",")[2:]


class TestFigures:
    def test_fig1_monotone_decreasing(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "fig1")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        col1 = [float(r[1]) for r in rows]
        col2 = [float(r[2]) for r in rows]
        assert col1 == sorted(col1, reverse=True)
        assert col2 == sorted(col2, reverse=True)

    def test_fig3_crossover(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "fig3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ab = [float(r[1]) for r in rows]
        cy = [float(r[2]) for r in rows]
        # doubling bound is below Cheng-Yang for small k, above for large k
        assert ab[0] < cy[0]
        assert ab[-1] > cy[-1]


class TestSpectrumCommand:
    def test_box_hand_enumeration(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--box", str(math.pi), str(math.pi),
            "--lambda-max", "10.5", "--format", "csv")
        assert code == 0
        ks = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert ks == ["1", "2", "3", "4", "5", "6"]

    def test_ball_single_eigenvalue(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--ball", "--dim", "3",
                            "--radius", "1", "--lambda-max", "12",
                            "--format", "csv", "--full-precision")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert float(rows[0].split(",")[1]) == pytest.approx(math.pi ** 2,
                                                             rel=1e-10)

    def test_ball_of_dimension_342(self, capsys):
        # Gamma(172) overflows, so the volume is taken in logs; below 33000
        # lie j_{170,1}^2 once and j_{171,1}^2 with multiplicity 342
        code, out, _ = run_cli(capsys, "spectrum", "--ball", "--dim", "342",
                               "--lambda-max", "33000")
        assert code == 0
        lines = out.splitlines()
        header = dict(line.split(": ") for line in lines[:3])
        values = [float(line) for line in lines[3:]]
        assert header["dim"] == "342"
        assert 0 < float(header["volume"]) == pytest.approx(8.30e-225,
                                                            rel=1e-3)
        assert len(values) == 343
        assert values[0] == pytest.approx(32568.237, abs=1e-3)
        assert values[1:] == [values[1]] * 342
        assert values[1] == pytest.approx(32937.340, abs=1e-3)

    def test_ball_of_dimension_435(self, capsys):
        # the last unit-ball volume in the normal float range
        code, out, _ = run_cli(capsys, "spectrum", "--ball", "--dim", "435",
                               "--lambda-max", "53000")
        assert code == 0
        header = dict(line.split(": ") for line in out.splitlines()[:3])
        assert float(header["volume"]) == pytest.approx(4.205e-308, rel=1e-3)

    @pytest.mark.parametrize("d, lam_max", [("436", "52300"),
                                            ("452", "57000"),
                                            ("453", "56400")])
    def test_ball_of_subnormal_volume(self, capsys, d, lam_max):
        # V_436 = 5.0e-309 and V_452 = 7.97e-324 are subnormal, and V_453
        # underflows to 0: none could be written as it is
        code, out, err = run_cli(capsys, "spectrum", "--ball", "--dim", d,
                                 "--lambda-max", lam_max)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the volume ")
        assert f"in dimension {d} underflows" in err

    def test_empty_spectrum_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--box", "1", "1",
                               "--lambda-max", "0.1")
        assert code == 2
        assert "error" in err

    def test_native_format_round_trips(self, capsys, tmp_path):
        path = tmp_path / "sq.txt"
        code, _, _ = run_cli(capsys, "spectrum", "--box", "1", "1",
                             "--lambda-max", "100", "--output", str(path))
        assert code == 0
        loaded = spectra.load_spectrum(str(path))
        assert loaded.lambda_1 == pytest.approx(2 * math.pi ** 2, rel=1e-12)

    def test_output_atomic_no_leftovers(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        run_cli(capsys, "table", "table1", "--output", str(path))
        assert path.exists()
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.startswith(".rieszbounds-")]
        assert leftovers == []


class TestRieszCommand:
    def test_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "riesz", "--box", str(math.pi), str(math.pi),
            "--lambda-max", "200", "--sigma", "1", "--z", "9",
            "--full-precision")
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(16.0, rel=1e-12)
        assert row[3] == "4"

    def test_legendre(self, capsys):
        _, out, _ = run_cli(
            capsys, "riesz", "--box", str(math.pi), str(math.pi),
            "--lambda-max", "200", "--legendre", "2.5")
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(9.5, rel=1e-12)


class TestBoundsCommand:
    def test_list_census(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--list")
        payload = json.loads(out)
        assert len(payload["bounds"]) >= 18

    def test_list_labels_comparison_expressions(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--list")
        validity = {b["id"]: b["validity"]
                    for b in json.loads(out)["bounds"]}
        assert validity["ab94_avg"] == (
            "k >= 1 (comparison expression, not a bound: below "
            "mean_k/lambda_1 at k = 1)")
        assert validity["fk_weyl"] == "k >= 1 (asymptotic expression)"

    def test_eval(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--eval", "cheng_yang",
                            "--arg", "d=2", "--arg", "k=127")
        assert json.loads(out)["value"] == 381.0

    def test_eval_validity_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--eval", "mean_ratio",
                               "--arg", "d=2", "--arg", "j=5", "--arg", "k=3")
        assert code == 2
        assert "error" in err

    def test_eval_unknown_id(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--eval", "nope")
        assert code == 2
        assert out == ""
        assert "unknown bound id 'nope'" in err

    @pytest.mark.parametrize("args", [
        ["--arg", "d=2", "--arg", "k=abc"],
        ["--arg", "d=2", "--arg", "k"],
        ["--arg", "d=2", "--arg", "k=1e400"],
        ["--arg", "d=2", "--arg", "k=1" + "0" * 400],
        ["--arg", "d=2"],
        ["--arg", "d=2", "--arg", "k=3", "--arg", "q=1"],
    ])
    def test_eval_bad_args(self, capsys, args):
        code, out, err = run_cli(capsys, "bounds", "--eval", "cheng_yang",
                                 *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad ")

    @pytest.mark.parametrize("args", [
        ["berezin_li_yau", "--arg", "d=2", "--arg", "volume=1e-320",
         "--arg", "k=1"],
        ["riesz_upper", "--arg", "sigma=2.0", "--arg", "d=2",
         "--arg", "volume=1e300", "--arg", "z=1e10"],
        ["counting_lower_j", "--arg", "d=2", "--arg", "j=1",
         "--arg", "mean_j=1e-320", "--arg", "z=1e300"],
    ], ids=lambda args: args[0])
    def test_eval_overflow_exits_2(self, capsys, args):
        # an overflow through * or / gives inf, not OverflowError
        code, out, err = run_cli(capsys, "bounds", "--eval", *args)
        assert code == 2
        assert out == ""
        assert f"bound {args[0]!r} leaves the float range" in err
        assert "value inf" in err

    def test_eval_large_d_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--eval", "abhh",
                                 "--arg", "d=11", "--arg", "k=100",
                                 "--arg", "allow_large_d=1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad arguments for bound 'abhh'")
        code, out, err = run_cli(capsys, "bounds", "--eval", "abhh",
                                 "--arg", "d=11", "--arg", "k=100")
        assert code == 2
        assert out == ""
        assert "d=11 exceeds the checked range 1..10" in err

    @pytest.mark.parametrize("order", ["1e17", "1e300"])
    def test_bessel_zero_of_huge_order_exits_2(self, capsys, monkeypatch,
                                               order):
        def no_bessel(*args):
            raise AssertionError("J evaluated before the range check")

        monkeypatch.setattr(cli.specfun, "_jv", no_bessel)
        code, out, err = run_cli(capsys, "bounds", "--bessel-zeros", order,
                                 "--zero-count", "1")
        assert code == 2
        assert out == ""
        assert "< 2^20" in err

    def test_bessel_zero_export(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--bessel-zeros", "0,1",
                            "--zero-count", "2", "--full-precision")
        lines = out.strip().splitlines()
        assert lines[0] == "nu,p,zero"
        first = float(lines[1].split(",")[2])
        assert first == pytest.approx(2.404825557695773, abs=1e-10)

    def test_bessel_zero_export_rows_are_the_per_zero_values(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--bessel-zeros", "0,0.5,7,0",
                            "--zero-count", "12", "--full-precision")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(float(nu), int(p)) for nu, p, _ in rows] == [
            (nu, p) for nu in (0.0, 0.5, 7.0, 0.0) for p in range(1, 13)]
        for nu, p, zero in rows:
            assert float(zero) == cli.specfun.bessel_zero(float(nu),
                                                          int(p)).value

    @pytest.mark.parametrize("argv", [
        # order 2^20 - 1 needs its chain from 2^20 - 512 up, past the cap;
        # the root 2^20 - 512 has fewer than 10 zeros below 2^20
        ("--bessel-zeros", "1048575"),
        ("--bessel-zeros", "1048064", "--zero-count", "10")])
    def test_zero_past_2_20_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("orders, count, reason", [
        ("0", cli.MAX_EXPORT_ZEROS + 1, "exceeds cap"),
        ("0,1", cli.MAX_EXPORT_ZEROS // 2 + 1, "exceeds cap"),
        # order 1 needs zero p + 1 of order 0, and one zero of order 511
        # needs 131,328 zeros of its chain
        ("0,1", cli.MAX_EXPORT_ZEROS // 2, "exceeds cap"),
        ("511", 1, "exceeds cap"),
        ("0", 0, "must be >= 1"),
        ("0", -5, "must be >= 1"),
    ])
    def test_zero_count_fails_before_any_zero(self, capsys, monkeypatch,
                                              orders, count, reason):
        def no_zero(*args):
            raise AssertionError("a zero was computed")

        monkeypatch.setattr(cli.specfun, "bessel_zero", no_zero)
        monkeypatch.setattr(cli.specfun, "bessel_zeros", no_zero)
        code, out, err = run_cli(capsys, "bounds", "--bessel-zeros", orders,
                                 "--zero-count", str(count))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --zero-count")
        assert reason in err


class TestBadInput:
    """Non-finite or malformed input exits 2 with an error that names the
    offending argument, instead of hanging, crashing or printing nonsense."""

    BOX = ("riesz", "--box", "1", "1", "--lambda-max", "100")

    @pytest.mark.parametrize("argv, name", [
        (BOX + ("--z", "nan"), "z"),
        (BOX + ("--z", "50", "--sigma", "nan"), "sigma"),
        (BOX + ("--legendre", "nan"), "w"),
        (BOX + ("--legendre", "inf"), "w"),
        (("riesz", "--box", "1", "nan", "--lambda-max", "100", "--z", "5"),
         "sides"),
        (("riesz", "--box", "1", "1", "--lambda-max", "nan", "--z", "5"),
         "lam_max"),
        (("riesz", "--ball", "--dim", "2", "--lambda-max", "nan", "--z", "5"),
         "lam_max"),
        (("riesz", "--ball", "--dim", "2", "--radius", "nan",
          "--lambda-max", "100", "--z", "5"), "radius"),
        (("bounds", "--bessel-zeros", "nan"), "nu"),
        (("bounds", "--bessel-zeros", "inf"), "nu"),
        (("bounds", "--bessel-zeros", "1,a"), "--bessel-zeros"),
        # ab_ratio(3)^1000 leaves the float range
        (("bounds", "--eval", "ab94", "--arg", "d=3", "--arg", "m=1000"),
         "m="),
        (("bounds", "--bessel-zeros", "0", "--zero-count", "100000000"),
         "--zero-count"),
        (("bounds", "--bessel-zeros", "0", "--zero-count", "0"),
         "--zero-count"),
        (("bounds", "--eval", "riesz_upper", "--arg", "sigma=2", "--arg",
          "d=2", "--arg", "volume=1", "--arg", "z=1e308"), "riesz_upper"),
        (("bounds", "--eval", "cheng_yang", "--arg", "d=1", "--arg",
          "k=1e300"), "cheng_yang"),
        (("verify", "--z-points", "400000000"), "z_points"),
        (BOX + ("--z", "50", "--means", "3"), "got --z, --means"),
        (("verify", "--seed", "-1"), "seed"),
        (("spectrum", "--box", "1e-200", "1", "--lambda-max", "1e5"),
         "box side 1e-200"),
        (("spectrum", "--ball", "--dim", "3", "--radius", "1e-300",
          "--lambda-max", "1e5"), "radius 1e-300"),
        (BOX + ("--z", "50", "--sigma", "1e3"), "riesz_mean"),
        (BOX + ("--z", "50", "--sigma", "1e3", "--format", "json"),
         "riesz_mean"),
        (("spectrum", "--box", "1e160", "1", "--lambda-max", "1e5"),
         "box side 1e+160"),
        (("spectrum", "--ball", "--dim", "3", "--radius", "1e200",
          "--lambda-max", "1e5"), "radius 1e+200"),
        (("riesz", "--box", "1e200", "1", "--lambda-max", "100", "--z", "5"),
         "box side 1e+200"),
        # each square is finite, the product of the sides is not
        (("spectrum", "--box", "1e100", "1e100", "1e100", "1e100",
          "--lambda-max", "1e5"), "volume"),
        # radius**2 is finite, pi radius**2 is not
        (("spectrum", "--ball", "--dim", "2", "--radius", "1e154",
          "--lambda-max", "1e5"), "radius 1e+154"),
        (BOX + ("--means", "3", "--legendre", "1"), "got --means, --legendre"),
        (BOX + ("--z", "50", "--legendre", "1"), "got --z, --legendre"),
        (BOX, "exactly one of --z, --means, --legendre"),
        (("bounds", "--eval", "lambda_next_over_mean", "--arg", "d=2",
          "--arg", "j=2", "--arg", "k=3.5"), "k must be an integer"),
        (("bounds", "--eval", "cheng_yang", "--arg", "d=2", "--arg", "k=3",
          "--arg", "k=4"), "repeated --arg 'k'"),
    ])
    def test_exit_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert name in err

    @pytest.mark.parametrize("values, query, name", [
        ("1e200 2e200 3e200", ("--means", "3"), "mean_sq"),
        # the squares are finite, their sum is not
        ("1e154 1.2e154 1.3e154", ("--means", "3"), "mean_sq"),
        ("1e-3 2e-3", ("--z", "1.3e154", "--sigma", "2"), "riesz_mean"),
        # 1 / 1e-320 overflows; the two reciprocals of 1e-308 sum past
        # the float range
        ("1e-320 2", ("--means", "2"), "sum of reciprocals"),
        ("1e-308 1e-308", ("--means", "2"), "sum of reciprocals"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_value_outside_float_range_exits_2(self, capsys, tmp_path, fmt,
                                               values, query, name):
        path = tmp_path / "spectrum.txt"
        path.write_text("dim: 1\ncomplete_below: 1e300\n"
                        + "\n".join(values.split()) + "\n")
        code, out, err = run_cli(capsys, "riesz", "--load", str(path),
                                 *query, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert name in err


def _adversarial_invocations():
    """Adversarial invocations of the subcommands that do not verify: NaN,
    inf, huge and negative values for each numeric flag, and the Weyl
    counts whose power overflows."""
    box = ("--box", "1", "1", "--lambda-max", "100")
    ball = ("--ball", "--dim", "2", "--lambda-max", "100")
    for bad in ("nan", "inf", "1e308", "-1"):
        yield "spectrum", "--box", bad, "1", "--lambda-max", "100"
        yield "spectrum", "--box", "1", "1", "--lambda-max", bad
        yield "spectrum", "--ball", "--dim", "2", "--radius", bad, \
            "--lambda-max", "100"
        yield "spectrum", "--ball", "--dim", "2", "--lambda-max", bad
        yield "riesz", *box, "--z", "50", "--sigma", bad
        yield "riesz", *box, "--legendre", bad
        yield "bounds", "--bessel-zeros", bad
        yield "bounds", "--eval", "cheng_yang", "--arg", f"d={bad}", \
            "--arg", "k=3"
        yield "bounds", "--eval", "riesz_upper", "--arg", f"sigma={bad}", \
            "--arg", "d=2", "--arg", "volume=1", "--arg", "z=10"
        yield "bounds", "--eval", "riesz_upper", "--arg", "sigma=1", \
            "--arg", "d=2", "--arg", f"volume={bad}", "--arg", "z=10"
    for bad in ("nan", "inf", "1e308"):    # R_sigma(-1) = 0 is a value
        yield "riesz", *box, "--z", bad
        yield "riesz", *ball, "--z", bad
        yield "bounds", "--eval", "riesz_upper", "--arg", "sigma=1", \
            "--arg", "d=2", "--arg", "volume=1", "--arg", f"z={bad}"
    for bad in ("nan", "inf", str(10**30), "-1"):
        yield "spectrum", "--ball", "--dim", bad, "--lambda-max", "100"
        yield "riesz", *box, "--means", bad
        yield "bounds", "--bessel-zeros", "0", "--zero-count", bad
    # (lam_max / 4 pi)^(d/2) overflows: ~10^205 eigenvalues of the cube
    # lie below 1e4, none of the 1000-ball below 100
    yield "spectrum", "--ball", "--dim", "1000", "--lambda-max", "100"
    yield "spectrum", "--box", *["1"] * 400, "--lambda-max", "1e4"
    yield "riesz", "--box", *["1"] * 400, "--lambda-max", "1e4", "--z", "5"
    for kind in ("table", "figure"):
        for bad in ("nan", "inf", "1e308", "-1"):
            yield kind, bad
    yield "table", "table1", "--format", "text"
    yield "figure", "fig1", "--full-precision", "17"


class TestUnreadFlags:
    """A flag that the chosen mode does not read exits 2, with nothing on
    stdout and an ``error:`` line that names the flag; the three modes of
    ``bounds`` exclude each other."""

    EVAL = ("bounds", "--eval", "cheng_yang", "--arg", "d=2", "--arg", "k=3")
    BOX = ("--box", "1", "1", "--lambda-max", "100")

    @pytest.mark.parametrize("argv, flag", [
        (("bounds", "--list", *EVAL[1:]), "--eval"),
        (("bounds", "--list", "--bessel-zeros", "0", "--zero-count", "2"),
         "--bessel-zeros"),
        (("bounds", "--eval", "cheng_yang", "--bessel-zeros", "0"),
         "--bessel-zeros"),
        (("bounds", "--arg", "d=2"), "--arg"),
        (("bounds", "--zero-count", "5"), "--zero-count"),
        (("bounds", "--bessel-zeros", "0", "--arg", "d=2"), "--arg"),
        (EVAL + ("--zero-count", "4"), "--zero-count"),
        (("riesz", *BOX, "--means", "3", "--sigma", "2"), "--sigma"),
        (("riesz", *BOX, "--legendre", "2", "--sigma", "3"), "--sigma"),
        (("spectrum", "--box", "1", "1", "--lambda-max", "60", "--dim", "3",
          "--radius", "5"), "--dim"),
        (("spectrum", "--box", "1", "1", "--lambda-max", "60", "--radius",
          "5"), "--radius"),
        (("spectrum", "--load", "{path}", "--lambda-max", "10"),
         "--lambda-max"),
        (("spectrum", "--load", "{path}", "--radius", "3"), "--radius"),
        (("riesz", "--load", "{path}", "--dim", "2", "--z", "5"), "--dim"),
    ])
    def test_exits_2(self, capsys, spec_file, argv, flag):
        try:
            code = cli.main([a.format(path=spec_file) for a in argv])
        except SystemExit as exc:    # argparse rejects the combination
            code = exc.code
        out = capsys.readouterr()
        lines = [line for line in out.err.splitlines() if "error:" in line]
        assert code == 2
        assert out.out == ""
        assert len(lines) == 1 and flag in lines[0]

    @pytest.mark.parametrize("argv, row", [
        (("riesz", *BOX, "--z", "50"), "1,50,"),
        (("bounds", "--bessel-zeros", "0"), "0,10,"),
    ])
    def test_defaults_apply_in_the_mode_that_reads_them(self, capsys, argv,
                                                        row):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert row in out


class TestExitCodeTable:
    """Every adversarial invocation exits 2 with one ``error:`` line on
    stderr, last, and no traceback; exit 1 means a failed inequality."""

    @pytest.mark.parametrize(
        "argv", list(_adversarial_invocations()),
        ids=lambda argv: " ".join(
            argv if len(argv) < 20 else (*argv[:3], "...", *argv[-3:])))
    def test_exits_2(self, capsys, argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:    # argparse rejects the argument
            code = exc.code
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert code == 2
        assert out.out == ""
        assert "Traceback" not in out.err
        assert [line for line in lines if "error:" in line] == lines[-1:]

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--ball", "--dim", "1000", "--lambda-max", "100"),
        ("riesz", "--load", "{path}", "--means", "2"),
    ])
    def test_in_a_fresh_process(self, tmp_path, argv):
        # a separate interpreter shows every traceback and warning that
        # would reach stderr: 1 / 1e-320 overflows in numpy
        path = tmp_path / "subnormal.txt"
        path.write_text("dim: 2\ncomplete_below: 1e308\n1e-320\n2\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        done = subprocess.run(
            [sys.executable, "-m", "rieszbounds.cli",
             *(arg.format(path=path) for arg in argv)],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("error:")


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "square.txt"
    spec = spectra.box_spectrum([1.0, 1.0], 900.0)
    spectra.write_spectrum(spec, str(path))
    return str(path)


class TestFormatChoice:
    """Each subcommand, and each mode of ``bounds``, writes some formats:
    an explicit ``--format`` that it would ignore exits 2 with an argparse
    error before any work, and every value that it writes is honoured,
    its default the same bytes as no ``--format`` at all."""

    BOX = ("--box", "1", "1", "--lambda-max", "100")
    EVAL = ("bounds", "--eval", "cheng_yang", "--arg", "d=2", "--arg", "k=3")

    @pytest.mark.parametrize("argv, fmt, name", [
        (("verify",), "csv", "verify"),
        (("riesz", *BOX, "--z", "50"), "text", "riesz"),
        (("riesz", *BOX, "--means", "3"), "text", "riesz"),
        (("riesz", *BOX, "--legendre", "1.5"), "text", "riesz"),
        (("table", "table1"), "text", "table"),
        (("figure", "fig1"), "text", "figure"),
        (("bounds", "--bessel-zeros", "0"), "text", "bounds --bessel-zeros"),
        (("bounds", "--list"), "csv", "bounds --list"),
        (("bounds", "--list"), "text", "bounds --list"),
        (("bounds",), "csv", "bounds --list"),
        (EVAL, "csv", "bounds --eval"),
        (EVAL, "text", "bounds --eval"),
    ])
    def test_ignored_value_exits_2(self, capsys, monkeypatch, argv, fmt,
                                   name):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.verify, "default_spectra", no_work)
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--format", fmt])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: rieszbounds")
        assert (f"error: argument --format: invalid choice for {name}: "
                f"{fmt!r}") in err

    @pytest.mark.parametrize("argv, fmt", [
        (("spectrum", *BOX), "text"),
        (("spectrum", *BOX), "csv"),
        (("spectrum", *BOX), "json"),
        (("riesz", *BOX, "--z", "50"), "csv"),
        (("riesz", *BOX, "--z", "50"), "json"),
        (("riesz", *BOX, "--means", "3"), "csv"),
        (("riesz", *BOX, "--means", "3"), "json"),
        (("riesz", *BOX, "--legendre", "1.5"), "csv"),
        (("riesz", *BOX, "--legendre", "1.5"), "json"),
        (("table", "table1"), "csv"),
        (("table", "table1"), "json"),
        (("figure", "fig1"), "csv"),
        (("figure", "fig1"), "json"),
        (("bounds", "--bessel-zeros", "0"), "csv"),
        (("bounds", "--bessel-zeros", "0"), "json"),
        (("bounds", "--list"), "json"),
        (("bounds",), "json"),
        (EVAL, "json"),
        (("verify", "--z-points", "20"), "text"),
        (("verify", "--z-points", "20"), "json"),
    ])
    def test_honoured_value(self, capsys, spec_file, argv, fmt):
        if argv[0] == "verify":
            argv = (*argv, "--spectrum", spec_file)
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            assert "," in out.splitlines()[0] and not out.startswith("{")
        else:
            assert out.startswith(("dim: 2\n", "inequality "))
        default = {"spectrum": "text", "verify": "text",
                   "bounds": "csv" if "--bessel-zeros" in argv else "json"}
        if fmt == default.get(argv[0], "csv"):
            assert run_cli(capsys, *argv)[1] == out


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "verify", "--spectrum", spec_file,
                               "--z-points", "20")
        assert code == 0
        assert "ALL PASS" in out

    def test_inject_corruption_nonzero_exit(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "verify", "--spectrum", spec_file,
                               "--z-points", "15", "--inject-corruption")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("flags, name", [
        (("--z-points", "1"), "z_points"),
        (("--z-points", "400000000"), "z_points"),
        (("--z-max", "nan"), "z_max"),
        (("--z-max", "inf"), "z_max"),
        (("--seed", "-1"), "seed"),
    ])
    @pytest.mark.parametrize("source", [(), ("--spectrum", "square.txt")])
    def test_config_checked_before_any_spectrum(self, capsys, monkeypatch,
                                                source, flags, name):
        def no_spectrum(*args):
            raise AssertionError("a spectrum was built")

        monkeypatch.setattr(cli.verify, "default_spectra", no_spectrum)
        monkeypatch.setattr(cli.spectra, "load_spectrum", no_spectrum)
        code, out, err = run_cli(capsys, "verify", *source, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert name in err

    def test_repeated_label_exits_2_before_any_spectrum(self, capsys,
                                                        monkeypatch,
                                                        tmp_path):
        # a spectrum is labelled by its file name: a/s.txt and b/s.txt
        # would share one entry, and one of them would go unverified
        def no_spectrum(*args):
            raise AssertionError("a spectrum was loaded")

        monkeypatch.setattr(cli.spectra, "load_spectrum", no_spectrum)
        first = str(tmp_path / "a" / "s.txt")
        second = str(tmp_path / "b" / "s.txt")
        code, out, err = run_cli(capsys, "verify", "--spectrum", first,
                                 "--spectrum", second)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert first in err and second in err

    @pytest.mark.parametrize("text, reason", [
        ("dim: 2\ncomplete_below: 10\n2.0\n1.0\n", "nondecreasing"),
        ("dim: 2\ncomplete_below: nan\n1.0\n", "finite"),
        ("dim: 0\ncomplete_below: 10\n1.0\n", "dimension"),
        ("dim: 2\ncomplete_below: 10\n1.0\ndim: 3\n", "repeated header"),
    ])
    def test_bad_file_named_among_several(self, capsys, tmp_path, spec_file,
                                          text, reason):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--spectrum", spec_file,
                                 "--spectrum", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}")
        assert reason in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitude_exits_2(self, capsys, tmp_path, scale):
        # R_sigma(z) / z**p overflows at 1e200 and divides by zero at
        # 1e-200: an error naming the check and the point, not exit 1
        square = spectra.box_spectrum([1.0, 1.0], 900.0)
        path = str(tmp_path / "scaled.txt")
        spectra.write_spectrum(spectra.Spectrum(
            dimension=2, eigenvalues=square.eigenvalues * scale,
            complete_below=900.0 * scale,
            domain=spectra.DomainSpec("file", 2)), path)
        code, out, err = run_cli(capsys, "verify", "--spectrum", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: thm21_mono1 cannot be evaluated")
        assert "scaled.txt" in err and "'sigma'" in err

    @staticmethod
    def _scaled_square(tmp_path, e):
        """README's scaling example: the unit square below 900 with its
        eigenvalues and threshold scaled by 10^e and its volume by 10^-e,
        written to a file."""
        square = spectra.box_spectrum([1.0, 1.0], 900.0)
        path = str(tmp_path / f"square-e{e}.txt")
        spectra.write_spectrum(spectra.Spectrum(
            dimension=2, eigenvalues=square.eigenvalues * 10.0 ** e,
            complete_below=900.0 * 10.0 ** e,
            domain=spectra.DomainSpec("file", 2), volume=10.0 ** -e), path)
        return path

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("e, check_id, witness", [
        (60, "thm21_diff2", {"sigma": 5.0, "z": 8.979957299856315e+61}),
        (100, "thm21_diff2", {"sigma": 3.0, "z": 3.445082741887978e+102})])
    def test_overflowing_riesz_sum_names_its_point(self, capsys, tmp_path,
                                                   e, check_id, witness):
        # a Riesz sum that overflows is named where a margin reads it, and
        # the point named cannot be evaluated either
        path = self._scaled_square(tmp_path, e)
        code, out, err = run_cli(capsys, "verify", "--spectrum", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {check_id} cannot be evaluated on "
                              f"'square-e{e}.txt' at {witness}: ")
        with pytest.raises(DomainError, match=check_id):
            verify.reevaluate(spectra.load_spectrum(path), check_id, witness)

    def test_overflowing_terms_print_only_the_error(self, tmp_path):
        # R_2 terms near 1e400 overflow to inf in numpy; a separate
        # interpreter shows every warning that would reach stderr
        square = spectra.box_spectrum([1.0, 1.0], 900.0)
        path = str(tmp_path / "scaled.txt")
        spectra.write_spectrum(spectra.Spectrum(
            dimension=2, eigenvalues=square.eigenvalues * 1e200,
            complete_below=900.0 * 1e200,
            domain=spectra.DomainSpec("file", 2)), path)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        done = subprocess.run(
            [sys.executable, "-m", "rieszbounds.cli", "verify", "--spectrum",
             path], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("error: thm21_mono1 cannot be evaluated")

    def test_json_report_without_points_is_strict_json(self, capsys,
                                                        tmp_path):
        # cor32_abhh and eq36_next have no points on three eigenvalues;
        # their worst margin is NaN, which JSON cannot hold
        path = str(tmp_path / "three.txt")
        spectra.write_spectrum(spectra.Spectrum(
            dimension=2, eigenvalues=[2.0, 5.0, 5.0], complete_below=900.0,
            domain=spectra.DomainSpec("file", 2)), path)

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "verify", "--spectrum", path,
                               "--format", "json")
        assert code == 1
        checks = {c["id"]: c for c in
                  json.loads(out, parse_constant=reject)["checks"]}
        for check_id in ("cor32_abhh", "eq36_next"):
            assert checks[check_id]["n_points"] == 0
            assert checks[check_id]["worst_margin"] is None
        assert all(c["worst_margin"] is not None for c in checks.values()
                   if c["n_points"])
        _, out, _ = run_cli(capsys, "verify", "--spectrum", path)
        assert [line.split()[3] for line in out.splitlines()
                if line.startswith(("cor32_abhh ", "eq36_next "))] == \
            ["nan", "nan"]

    def test_check_without_points_is_not_applicable(self, capsys, tmp_path):
        # the [pi, pi] square below 10 has no eq36_next point (k runs
        # from 4 to n - 1 = 3); every other check passes
        path = str(tmp_path / "square_pi.txt")
        spectra.write_spectrum(spectra.box_spectrum([math.pi, math.pi],
                                                    10.0), path)
        code, out, _ = run_cli(capsys, "verify", "--spectrum", path)
        assert code == 0
        rows = {line.split()[0]: line.split()[1:4]
                for line in out.splitlines()[1:]
                if not line.startswith(("negative", "suite"))}
        assert rows["eq36_next"] == ["0", "N/A", "nan"]
        assert all(row[1] == "PASS" for name, row in rows.items()
                   if name != "eq36_next")
        assert out.endswith("suite result: ALL PASS\n")
        code, out, _ = run_cli(capsys, "verify", "--spectrum", path,
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        checks = {c["id"]: c for c in report["checks"]}
        assert checks["eq36_next"]["passed"] is None
        assert all(c["passed"] is True for name, c in checks.items()
                   if name != "eq36_next")

    def test_control_counts_only_checks_with_points(self, capsys,
                                                    tmp_path):
        # the [pi, pi] square below 10 with no volume: 21 checks, of which
        # eq36_next has no point on the twin either
        path = tmp_path / "square_pi.txt"
        path.write_text("dim: 2\ncomplete_below: 10\n2\n5\n5\n8\n")
        code, out, _ = run_cli(capsys, "verify", "--spectrum", str(path))
        assert code == 0
        assert "negative control [square_pi.txt]: 18/20 checks failed " \
            "(ok)\n" in out
        code, out, _ = run_cli(capsys, "verify", "--spectrum", str(path),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["controls"] == [
            {"spectrum": "square_pi.txt", "n_checks": 20, "n_failed": 18}]

    def test_z_max_config_error(self, capsys, spec_file):
        for z_max in ("5000", "nan"):
            code, _, err = run_cli(capsys, "verify", "--spectrum", spec_file,
                                   "--z-max", z_max)
            assert code == 2
            assert "error" in err


class TestSpectrumText:
    def test_output_and_stdout_equal_write_spectrum(self, capsys, tmp_path,
                                                    writer_cases):
        # more eigenvalues than one write chunk
        args = ["spectrum", "--box", "1", "1", "--lambda-max", "3e5"]
        spec = spectra.box_spectrum([1.0, 1.0], 3e5)
        assert len(spec) > spectra._WRITE_CHUNK
        ref = tmp_path / "ref.txt"
        spectra.write_spectrum(spec, str(ref))
        out_path = tmp_path / "cli.txt"
        code, _, _ = run_cli(capsys, *args, "--output", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == ref.read_bytes()
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == ref.read_text()
        assert not [f for f in os.listdir(tmp_path)
                    if f.startswith(".rieszbounds-")]
        # runs of equal eigenvalues: text (stdout and --output) and CSV at
        # both precisions against one format call per line
        for name, case in writer_cases.items():
            text = spectrum_text(case)
            ref.write_text(text)
            load = ("spectrum", "--load", str(ref))
            code, _, _ = run_cli(capsys, *load, "--output", str(out_path))
            assert code == 0
            assert out_path.read_bytes() == text.encode(), name
            assert run_cli(capsys, *load) == (0, text, ""), name
            for full in (False, True):
                csv = spectrum_csv(case, full)
                buf = io.StringIO()
                spectra._write_csv(case, buf, full)
                assert buf.getvalue() == csv, name
                flags = ("--format", "csv") + ("--full-precision",) * full
                assert run_cli(capsys, *load, *flags) == (0, csv, ""), name


class TestSpectrumCsv:
    def test_output_and_stdout_equal_oracle(self, capsys, tmp_path):
        # more rows than one write chunk, with runs of equal eigenvalues
        args = ["spectrum", "--box", "1", "1", "--lambda-max", "3e5"]
        spec = spectra.box_spectrum([1.0, 1.0], 3e5)
        assert len(spec) > spectra._WRITE_CHUNK
        path = tmp_path / "out.csv"
        for full in (False, True):
            flags = ("--format", "csv") + ("--full-precision",) * full
            csv = spectrum_csv(spec, full)
            assert run_cli(capsys, *args, *flags) == (0, csv, "")
            code, _, _ = run_cli(capsys, *args, *flags, "--output", str(path))
            assert code == 0
            assert path.read_bytes() == csv.encode()
        assert os.listdir(tmp_path) == ["out.csv"]


class TestSpectrumJson:
    """``spectrum --format json`` writes the bytes of one ``json.dumps``
    of the payload, to stdout and to --output."""

    @pytest.mark.parametrize("argv, spec", [
        # more eigenvalues than one write chunk
        (("--box", "1", "1", "--lambda-max", "3e5"),
         lambda: spectra.box_spectrum([1.0, 1.0], 3e5)),
        (("--ball", "--dim", "2", "--lambda-max", "2e4"),
         lambda: spectra.ball_spectrum(2, 1.0, 2e4)),
        (("--ball", "--dim", "3", "--lambda-max", "3e3"),
         lambda: spectra.ball_spectrum(3, 1.0, 3e3)),
    ], ids=["box", "disk", "ball3"])
    def test_generated(self, capsys, tmp_path, argv, spec):
        ref = spectrum_json(spec())
        code, out, _ = run_cli(capsys, "spectrum", *argv, "--format", "json")
        assert (code, out) == (0, ref)
        path = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "spectrum", *argv, "--format", "json",
                             "--output", str(path))
        assert code == 0
        assert path.read_bytes() == ref.encode()
        assert json.loads(ref)["eigenvalues"] == spec().eigenvalues.tolist()

    def test_loaded_without_volume(self, capsys, tmp_path):
        path = tmp_path / "novol.txt"
        path.write_text("dim: 3\ncomplete_below: 50\n"
                        + "3.5\n" * 3 + "7.25\n10.0\n")
        spec = spectra.load_spectrum(str(path))
        assert spec.volume is None
        code, out, _ = run_cli(capsys, "spectrum", "--load", str(path),
                               "--format", "json")
        assert (code, out) == (0, spectrum_json(spec))
        assert json.loads(out)["volume"] is None

    def test_writer_cases(self, writer_cases):
        for name, case in writer_cases.items():
            buf = io.StringIO()
            spectra._write_json(case, buf)
            assert buf.getvalue() == spectrum_json(case), name


class TestIOErrors:
    """A spectrum file that cannot be read, or an output path that cannot
    be written, exits 2 with an error that names the path."""

    def _exit_2(self, capsys, path, *argv):
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert str(path) in err

    def test_load_missing_file(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        self._exit_2(capsys, path, "--load", str(path))

    def test_load_directory(self, capsys, tmp_path):
        self._exit_2(capsys, tmp_path, "--load", str(tmp_path))

    def test_load_undecodable_byte(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"dim: 2\ncomplete_below: 10\n1.0\n\xff\n")
        self._exit_2(capsys, path, "--load", str(path))

    def test_output_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "dir.txt"
        self._exit_2(capsys, path, "--box", "1", "1", "--lambda-max", "100",
                     "--output", str(path))

    def test_output_onto_a_directory(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "keep").write_text("")
        self._exit_2(capsys, target, "--box", "1", "1", "--lambda-max", "100",
                     "--output", str(target))
        assert sorted(os.listdir(tmp_path)) == ["taken"]
