import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herop import cli, operators, series
from herop.cli import RunConfig, dumps_canonical, main
from herop.conditions import check_hypotheses_A, check_hypotheses_B
from herop.model import build_model
from herop.operators import (
    Direction,
    shift_membership_backward,
    shift_membership_forward,
    shift_section,
    write_matrix_csv,
)
from herop.series import invert_kernel, reciprocal
from herop.specdsl import elaborate, parse_kernel_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_quiet(capsys, *argv):
    """(exit code, stderr), failing on any warning the command raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err and "Traceback" not in err
    return code, err


def run_cli_checked(*argv):
    """(exit code, stdout, stderr), failing on any warning or traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


_ORTHOGONAL = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))[0]


class TestCanonicalJson:
    def test_float_formatting(self):
        assert dumps_canonical(0.5) == "0.5"
        assert dumps_canonical(1.0 / 3.0) == format(1.0 / 3.0, ".17g")
        assert dumps_canonical(float("inf")) == '"inf"'
        assert dumps_canonical(float("nan")) == '"nan"'

    def test_sorted_keys_and_types(self):
        text = dumps_canonical({"b": [1, 2.5], "a": {"y": True, "x": None}})
        assert text == '{"a":{"x":null,"y":true},"b":[1,2.5]}'

    def test_numpy_scalars(self):
        text = dumps_canonical({"v": np.float64(0.25), "n": np.int64(3), "f": np.bool_(False)})
        assert text == '{"f":false,"n":3,"v":0.25}'

    # the reports print their dataclasses; each dict below is the one the
    # CLI wrote out field by field before

    def test_condition_report_prints_its_fields(self):
        pair = reciprocal(elaborate(parse_kernel_spec("pow1mt(0.5)"), 64), 64)
        for report in (check_hypotheses_A(pair), check_hypotheses_B(pair)):
            hand = {
                "condition_id": report.condition_id,
                "verdict": report.verdict.value,
                "witness": report.witness,
                "N_used": report.N_used,
            }
            assert dumps_canonical([report]) == dumps_canonical([hand])

    def test_kernel_flags_print_their_fields(self):
        flags = reciprocal(elaborate(parse_kernel_spec("poly[1,-1,-1]"), 16), 16).flags
        hand = {
            "is_np": flags.is_np,
            "is_wiener_alpha": flags.is_wiener_alpha,
            "is_wiener_k": flags.is_wiener_k,
            "type": flags.type,
        }
        assert dumps_canonical({"flags": flags}) == dumps_canonical({"flags": hand})

    @pytest.mark.parametrize("runner", [shift_membership_backward, shift_membership_forward])
    def test_membership_report_prints_its_fields(self, runner):
        alpha = elaborate(parse_kernel_spec("pow1mt(0.5)"), 256)
        kappa = elaborate(parse_kernel_spec("pow1mt(-0.75)"), 256)
        report = runner(alpha, kappa)
        hand = {
            "direction": report.direction.value,
            "in_Cw": report.in_Cw,
            "in_Cw_plus": report.in_Cw_plus,
            "sup_ratio": report.sup_ratio,
            "min_coefficient": report.min_coefficient,
            "argmin": report.argmin,
            "witness": report.witness,
            "N_used": report.N_used,
        }
        assert dumps_canonical(report) == dumps_canonical(hand)
        assert dumps_canonical({**cli._fields(report), "N": 256}) == dumps_canonical({**hand, "N": 256})

    def test_enum_prints_its_value(self):
        assert dumps_canonical(Direction.FORWARD) == '"Forward"'
        assert dumps_canonical({"d": [Direction.BACKWARD]}) == '{"d":["Backward"]}'


class TestRunConfig:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            RunConfig(model_tol=0.0)


class TestExitCodes:
    def test_all_holds_exits_zero(self, capsys):
        code, out = run_cli(capsys, "kernel", "check", "--spec", "pow1mt(0.5)", "-N", "256")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        verdicts = {r["condition_id"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["NPType"] == "Holds"
        assert verdicts["HypA"] == "Holds"
        assert payload["reports"][0]["condition_id"] == "CriticalType"  # sorted

    def test_failure_exits_one(self, capsys):
        code, _ = run_cli(capsys, "kernel", "check", "--spec", "poly[1,-2]", "-N", "64")
        assert code == 1

    def test_usage_error_exits_three(self, capsys):
        assert main(["ergodic", "probe", "--spec", "pow1mt(-0.5)", "--badflag"]) == 3

    def test_malformed_spec_exits_three(self, capsys):
        code, _ = run_cli(capsys, "kernel", "check", "--spec", "pow1mt(", "-N", "64")
        assert code == 3

    def test_missing_subcommand_exits_three(self, capsys):
        assert main(["kernel"]) == 3

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tolerance_not_finite_positive_exits_three(self, capsys, tol):
        code, err = run_cli_quiet(
            capsys, "kernel", "check", "--spec", "pow1mt(0.5)", "-N", "64", "--tol", tol
        )
        assert code == 3
        assert "finite and positive" in err

    @pytest.mark.parametrize("nmax", ["0", "4", "8"])
    def test_nmax_below_nine_exits_three(self, capsys, nmax):
        code, err = run_cli_quiet(
            capsys, "ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", nmax
        )
        assert code == 3
        assert "--nmax" in err

    def test_nmax_nine_runs(self, capsys):
        code, err = run_cli_quiet(
            capsys, "ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", "9"
        )
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "spec, degree",
        [("poly[1,-1,-1]", 1476), ("pow1mt(300)", 1050)],  # Fibonacci; (1-t)**-300
    )
    def test_inversion_overflow_is_one_error_line(self, spec, degree):
        # overflow is a numerical failure, not a usage error: exit 1 and a
        # one-line report whose error and witness name the first bad degree
        code, out, err = run_cli_checked("kernel", "check", "--spec", spec, "-N", "4096")
        assert code == 1 and err == "" and out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == f"inversion overflowed at degree {degree}"
        assert payload["witness"] == {"degree": degree} and payload["reports"] == []

    def test_binomial_overflow_is_one_error_line(self):
        code, out, err = run_cli_checked("kernel", "check", "--spec", "pow1mt(1e308)", "-N", "4096")
        assert code == 1 and err == "" and out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"] == "coefficient window is not finite at degree 2"
        assert payload["witness"] == {"degree": 2} and payload["reports"] == []

    @pytest.mark.parametrize(
        "argv, error, degree",
        [
            (["kernel", "invert", "--spec", "pow1mt(300)", "-N", "2000"],
             "inversion overflowed", 1050),
            (["kernel", "invert", "--spec", "pow1mt(1e308)", "-N", "512"],
             "coefficient window is not finite", 2),
            # Cesaro numbers of order 1e308 overflow; every probe used to read
            # DecaysToZero on NaN values
            (["ergodic", "probe", "--kernel", "pow1mt(-2)", "--a", "1e308", "--nmax", "200",
              "-N", "64"], "Cesaro numbers of order 1e+308 overflowed", 2),
            # gamma_n / kappa_n leaves float range; this used to read
            # sup_ratio "inf" with in_Cw TrendHolds
            (["shift", "membership", "--spec", "tail(poly[1,0.5,0.3,2],1e300,1.5,3)", "--kappa",
              "poly[1.0]*tail(pow1mt(0.3)*pow1mt(-300),0.05,1.5,5)", "-N", "512"],
             "gamma / kappa overflowed", 6),
        ],
        ids=["invert-inverse", "invert-window", "probe-cesaro", "membership-ratio"],
    )
    def test_numerical_failure_is_an_exit_one_report(self, argv, error, degree):
        code, out, err = run_cli_checked(*argv)
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["command"] == " ".join(argv[:2])
        assert payload["error"] == f"{error} at degree {degree}"
        assert payload["witness"] == {"degree": degree} and payload["reports"] == []

    @pytest.mark.parametrize(
        "spec, error",
        [
            ('poly[1]/file("{zero}")', "offset 7: division by a series with zero constant term"),
            ('inv(file("{zero}"))', "offset 0: division by a series with zero constant term"),
            ('inv(file("{missing}"))', "[Errno 2] No such file or directory: '{missing}'"),
        ],
        ids=["divide", "inverse", "missing"],
    )
    def test_division_by_a_coefficient_file_reads_its_constant_term(self, capsys, tmp_path, spec, error):
        paths = {"zero": tmp_path / "zero.txt", "missing": tmp_path / "missing.txt"}
        paths["zero"].write_text("0.0\n0.5\n", encoding="utf-8")
        code, err = run_cli_quiet(capsys, "kernel", "check", "--spec", spec.format(**paths), "-N", "8")
        assert (code, err) == (3, f"herop: error: {error.format(**paths)}\n")

    def test_non_finite_coefficient_file_line_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1.0\ninf\n", encoding="utf-8")
        code, err = run_cli_quiet(capsys, "kernel", "check", "--spec", f'file("{path}")', "-N", "8")
        assert code == 3
        assert err == f"herop: error: {path}:2: not a finite number: 'inf'\n"

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["model", "build", "--kernel", "pow1mt(-0.5)", "--section", "0", "-N", "63"],
             "section dimension"),
            (["model", "build", "--kernel", "pow1mt(-0.5)", "--section", "8", "--degree", "-1",
              "-N", "63"], "degree cap"),
            (["ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", "64",
              "--vectors", "-3"], "--vectors"),
            (["example", "signs", "--pattern=--", "-N", "64"], '--pattern " --"'),
            (["example", "signs", "--pattern=", "-N", "64"], '--pattern " --"'),
        ],
        ids=["section-zero", "degree-negative", "vectors-negative", "pattern-dashes",
             "pattern-empty"],
    )
    def test_out_of_range_flag_is_one_error_line(self, capsys, argv, what):
        code, err = run_cli_quiet(capsys, *argv)
        assert code == 3
        assert err.startswith("herop: error: ") and err.count("\n") == 1 and what in err

    @pytest.mark.parametrize(
        "flags",
        [["--a", "nan"], ["--a", "inf"], ["--a", "0.8", "--p", "inf"], ["--a", "0.8", "--p", "nan"]],
        ids=["a-nan", "a-inf", "p-inf", "p-nan"],
    )
    def test_non_finite_probe_order_is_one_error_line(self, capsys, flags):
        argv = ["ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--nmax", "50", *flags]
        code, err = run_cli_quiet(capsys, *argv)
        assert code == 3
        assert err.startswith("herop: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec, n", [("pow1mt(300)", "600"), ("pow1mt(200)", "800")])
    def test_overflowing_kernel_products_skip_kernel_side_conditions(self, spec, n):
        # k_j k_{n-j} leaves float range; the six kernel-side conditions are
        # skipped with the reason named, and the pair conditions decide
        code, out, _ = run_cli_checked("report", "bundle", "--spec", spec, "-N", n)
        payload = json.loads(out)
        assert any("products overflow" in v for v in payload["violations"])
        assert code == run_cli_checked("kernel", "check", "--spec", spec, "-N", n)[0]

    def test_banach_rows_past_float_range_skip_kernel_side_conditions(self):
        # k_n = 1.9^n: at N = 1095 the pair-decay half sums stay finite, but
        # BanachAlg's row sums k_j k_{n-j} / k_n do not; that is the same
        # skip, and the four pair reports stand
        code, out, err = run_cli_checked("report", "bundle", "--spec", "poly[1,-1.9]", "-N", "1095")
        payload = json.loads(out)
        assert code == 1 and err == "" and "error" not in payload
        assert [r["condition_id"] for r in payload["reports"]] == ["CriticalType", "HypA", "HypB", "NPType"]
        assert payload["violations"] == ["kernel-side conditions skipped: kernel coefficient products overflow"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bundle_below_the_pair_decay_grid_names_its_flag(self, n):
        # the pair-decay grid starts at m = 4, which needs N >= 8, whether
        # the kernel is positive or not
        for spec in ("pow1mt(0.5)", "tail(poly[1,-0.5],0.05,2,2)"):
            code, out, err = run_cli_checked("report", "bundle", "--spec", spec, "-N", str(n))
            if n < 8:
                assert code == 3 and out == ""
                assert err == f"herop: error: -N must be at least 8 for report bundle, got {n}\n"
            else:
                assert code in (0, 1, 2) and err == ""

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1,x\n", ":1:2: not a complex number: 'x'"),
            ("# header\n0.5,0\n0,1+i\n", ":3:2: not a complex number: '1+i'"),
            ("1,2\n", ": a 1x2 matrix is not square"),
            ("1,2\n3\n", ":2: 1 entries, the first row has 2"),
            (b"1,\xff\n0,1\n", ":1:2: not a complex number: '\ufffd'"),
        ],
        ids=["bad-token", "bad-token-after-comment", "not-square", "ragged", "not-utf8"],
    )
    def test_malformed_operator_csv_names_the_file(self, capsys, tmp_path, text, where):
        path = tmp_path / "op.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = ["model", "build", "--kernel", "pow1mt(-0.5)", "--operator", str(path), "-N", "64"]
        code, err = run_cli_quiet(capsys, *argv)
        assert code == 3
        assert err == f"herop: error: {path}{where}\n"

    @pytest.mark.parametrize("flag", ["--csv-dir", "--out"])
    def test_unwritable_output_path_is_one_error_line(self, capsys, tmp_path, flag):
        target = tmp_path / "taken"  # a file where a directory is wanted, and vice versa
        if flag == "--csv-dir":
            target.write_text("")
        else:
            target.mkdir()
        argv = ["kernel", "invert", "--spec", "poly[1,-1,-1]", "-N", "16", flag, str(target)]
        code, err = run_cli_quiet(capsys, *argv)
        assert code == 3
        assert err.startswith("herop: error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("report", "bundle", "--spec", "poly[1,-0.25,-0.125]", "-N", "512", "--seed", "7")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2
        assert out1 == out2
        assert json.loads(out1)["seed"] == 7


class TestSubcommands:
    def test_kernel_invert(self, capsys, tmp_path):
        csv_dir = tmp_path / "csv"
        code, out = run_cli(
            capsys,
            "kernel", "invert", "--spec", "poly[1,-1,-1]", "-N", "16",
            "--csv-dir", str(csv_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k_head"][:6] == [1, 1, 2, 3, 5, 8]
        table = (csv_dir / "kernel.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "index,value"
        assert table[1] == "0,1"

    def test_shift_membership_shortcut(self, capsys):
        code, out = run_cli(capsys, "shift", "membership", "--a", "0.5", "--s", "0.75", "-N", "512")
        assert code == 0
        assert json.loads(out)["in_Cw_plus"] == "Holds"
        code_bad, out_bad = run_cli(capsys, "shift", "membership", "--a", "1.0", "--s", "0.5", "-N", "512")
        assert code_bad == 1
        assert json.loads(out_bad)["in_Cw_plus"] == "Fails"

    def test_forward_membership_on_an_uncertified_symbol_is_a_trend(self, capsys):
        # the binomial times poly[1,-0.2] has no certified absolute tail, so
        # the coefficients' sign is a trend verdict
        code, out = run_cli(
            capsys, "shift", "membership", "--direction", "forward", "--spec", "pow1mt(0.5)*poly[1,-0.2]",
            "--kappa", "pow1mt(-0.5)", "-N", "256",
        )
        payload = json.loads(out)
        assert payload["witness"]["certified_tails"] is False
        assert (code, payload["in_Cw_plus"]) == (2, "TrendHolds")

    @pytest.mark.parametrize("a", ["0.5", "1"])
    def test_shift_membership_shortcut_forms_no_direct_product(self, capsys, monkeypatch, a):
        # pow1mt(a) is NP-signed for 0 < a <= 1, and pow1mt(a) * pow1mt(-s) has a closed form
        def refuse(*args, **kwargs):
            raise AssertionError("a direct product was formed")

        from herop import operators, series

        for owner in (series, operators):
            monkeypatch.setattr(owner, "_convolve", refuse)
        monkeypatch.setattr(np, "convolve", refuse)
        code, out = run_cli(capsys, "shift", "membership", "--a", a, "--s", "0.75", "-N", "2000")
        assert (code, json.loads(out)["in_Cw_plus"]) == ((0, "Holds") if a == "0.5" else (1, "Fails"))

    def test_model_build_on_section(self, capsys):
        code, out = run_cli(
            capsys,
            "model", "build", "--kernel", "tail(poly[1,0.4,0.16],0.05,2.0,3)",
            "--section", "24", "-N", "128",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["diagnostics"]["intertwine_residual"] <= 1e-10
        assert payload["minimality"]["minimal"] is True

    def test_model_build_on_section_refuses_an_ill_defined_isometry(self, capsys):
        # a cap below the nilpotency index leaves W = diag(0, ..., 0, 1, ..., 1):
        # ||W e_11|| = 1 while W T e_11 = 0.  The transform norm (ModelInvalidError)
        # and the PSD floor of I - V*V (NotPSDError) are checked first and hold
        code, out = run_cli(
            capsys,
            "model", "build", "--kernel", "pow1mt(-0.5)", "--section", "64", "-N", "255",
            "--degree", "10",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "S is not well defined at this tolerance: ||Wx|| != ||WTx||"
        assert payload["witness"] == {"well_definedness_residual": 1.0}

    def test_model_build_csvs_on_section_match_the_dense_build(self, tmp_path):
        spec = "tail(poly[1,0.4,0.16],0.05,2.0,3)"
        code, _, _ = run_cli_checked(
            "model", "build", "--kernel", spec, "--section", "64", "-N", "255",
            "--csv-dir", str(tmp_path),
        )
        assert code == 0
        k = elaborate(parse_kernel_spec(spec), 255)
        T = shift_section(k, Direction.BACKWARD, 64)
        dense = build_model(invert_kernel(k).alpha, k, T.operator())
        expected = {
            name: mat
            for name, mat in (
                ("defect", dense.D.entries),
                ("complement", dense.W.entries),
                ("transform", dense.V),
                ("isometry", dense.S),
            )
            if mat.size
        }
        assert sorted(os.listdir(tmp_path)) == sorted(f"{name}.csv" for name in expected)
        for name, mat in expected.items():
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            got = np.array([[complex(cell) for cell in line.split(",")] for line in lines])
            assert got.shape == mat.shape, name
            assert np.max(np.abs(got - mat)) <= 1e-14, name

    def test_model_build_from_operator_csv(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mat *= 0.8 / np.linalg.norm(mat, 2)
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), mat)
        code, out = run_cli(
            capsys,
            "model", "build", "--kernel", "pow1mt(-1)", "--operator", str(path),
            "--degree", "256", "-N", "512",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["defect_relation"]["residual"] <= 1e-8

    def test_model_build_on_contraction_takes_geometric_tail(self, capsys, tmp_path):
        # alpha = 1/k keeps its Binomial(0.5) tag, so its certified tail
        # lets the hereditary sum stop geometrically, not at float underflow
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        mat *= 0.7 / np.linalg.norm(mat, 2)
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), mat)
        code, out = run_cli(
            capsys, "model", "build", "--kernel", "pow1mt(-0.5)", "--operator", str(path), "-N", "1023"
        )
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert payload["diagnostics"]["policy"] == "GeometricTail"
        assert payload["defect_relation"]["alpha_one_certified"] is True

    @pytest.mark.parametrize(
        "mat, kernel, n, what, keys",
        [
            (_ORTHOGONAL, "pow1mt(-0.5)", "64", "no contractive power found", {"powers_walked", "smallest_norm"}),
            (0.999 * _ORTHOGONAL, "inv(poly[1,-0.5])", "64", "no contractive power found",
             {"powers_walked", "smallest_norm"}),
            (np.diag([0.99, 0.5, 0.3]), "inv(poly[1,-0.5])", "64", "kernel growth past the window", {"q"}),
            (np.diag([0.99, 0.5, 0.3]), "tail(poly[1,0.4,0.16],0.05,2.0,3)", "64",
             "degree tail bound never met", {"window_end", "smallest_bound", "tol"}),
            (np.diag([0.99, 0.5, 0.3]), "pow1mt(-0.5)", "16", "tail bound not met",
             {"window_end", "smallest_bound", "tol"}),
            (np.diag([0.99, 0.5, 0.3]), "pow1mt(-0.5)", "1023", "degree tail bound never met",
             {"window_end", "smallest_bound", "tol"}),
            (0.999 * _ORTHOGONAL, "pow1mt(-0.5)", "64", "no contractive power found",
             {"powers_walked", "smallest_norm"}),
        ],
        ids=["orthogonal", "near-orthogonal-cap", "diagonal-derived-kernel", "diagonal-cap-window",
             "diagonal-16", "diagonal-1023", "near-orthogonal-sum"],
    )
    def test_model_build_reports_uncertified_tails(self, tmp_path, mat, kernel, n, what, keys):
        # a verdict with exit 1 and a JSON report, like a ModelInvalidError,
        # whose witness holds the finite numbers behind the message
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), mat)
        code, out, err = run_cli_checked("model", "build", "--kernel", kernel, "--operator", str(path), "-N", n)
        payload = json.loads(out)
        assert code == 1 and err == ""
        witness = payload["witness"]
        assert what in payload["error"] and set(witness) == keys
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in witness.values())
        if "window_end" in witness:  # the window's end, and the tol its bounds missed
            assert witness["window_end"] == int(n)
            assert witness.get("smallest_bound", math.inf) > witness["tol"]
        if "smallest_norm" in witness:  # no Frobenius-contractive power in the walk
            assert witness["smallest_norm"] >= 1.0
        if "q" in witness:
            assert 0.0 < witness["q"] < 1.0

    @pytest.mark.parametrize("seed", [0, 2, 3, 4, 5])
    def test_model_build_on_unitary_with_vanishing_hereditary_sum(self, tmp_path, seed):
        # alpha = (1-t)**2 gives alpha(U*, U) = (I - U*U)**2 = 0 on a unitary:
        # symmetry and the PSD floor are judged against the summed terms
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), _fuzz_operator("unitary", 5, np.random.default_rng(seed)))
        code, out, err = run_cli_checked(
            "model", "build", "--kernel", "pow1mt(-2)", "--operator", str(path), "-N", "64"
        )
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["passed"] is True and payload["defect_rank"] == 0

    def test_model_build_refuses_nonpositive_kernel_on_operator(self, tmp_path):
        # k = (1-t)**1.5 has k_1 = -1.5, which has no square root in the transform
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), 0.8 * mat / np.linalg.norm(mat, 2))
        code, out, err = run_cli_checked(
            "model", "build", "--kernel", "pow1mt(1.5)", "--operator", str(path), "-N", "255"
        )
        assert code == 3 and out == ""
        assert err.startswith("herop: error: ") and err.count("\n") == 1 and "positive" in err

    def test_ergodic_probe(self, capsys, tmp_path):
        csv_dir = tmp_path / "probes"
        code, out = run_cli(
            capsys,
            "ergodic", "probe", "--kernel", "pow1mt(-0.5)",
            "--a", "0.8", "--p", "2", "--nmax", "512",
            "--csv-dir", str(csv_dir), "--vectors", "1",
        )
        assert code == 0
        payload = json.loads(out)
        kinds = {row["vector"]: row["trend"] for row in payload["probes"]}
        assert kinds["moving_basis"] in ("Bounded", "DecaysToZero")
        assert (csv_dir / "probe_moving_basis.csv").exists()

    def test_example_signs(self, capsys):
        code, out = run_cli(
            capsys,
            "example", "signs", "--pattern", "+-+", "--eps", "1e-3", "-N", "256",
        )
        assert code == 0
        payload = json.loads(out)
        head = payload["alpha_head"]
        assert head[2] > 0 and head[3] < 0 and head[4] > 0
        assert payload["inversion_residual"] <= 1e-10

    def test_example_signs_overflow_exhausts_the_budget(self):
        code, out, err = run_cli_checked("example", "signs", "--pattern", "+-+", "--eps", "1e300")
        payload = json.loads(out)
        assert code == 1 and err == "" and payload["error"] == "halving budget exhausted"
        assert payload["witness"] == {"epsilon": 1e300 / 2.0**60, "halvings": 60, "overflow_degree": 4}

    def test_example_signs_with_leading_dashes(self, capsys):
        code, out = run_cli(capsys, "example", "signs", "--pattern", " --", "-N", "256")
        assert code == 0
        assert json.loads(out)["alpha_head"][2:4] == [-0.125, -0.125]

    def test_report_bundle_csvs(self, capsys, tmp_path):
        csv_dir = tmp_path / "bundle"
        code, out = run_cli(
            capsys,
            "report", "bundle", "--spec", "poly[1,-0.5]", "-N", "256",
            "--csv-dir", str(csv_dir),
        )
        payload = json.loads(out)
        ids = [r["condition_id"] for r in payload["reports"]]
        assert ids == sorted(ids)
        assert len(ids) == 10
        assert (csv_dir / "HypB.csv").exists()

    def test_report_bundle_on_underflowing_kernel(self, capsys):
        # the kernel of this subcritical symbol is subnormal from n = 8503 on
        code, err = run_cli_quiet(
            capsys, "report", "bundle", "--spec", "poly[1,-0.6,-0.3]", "-N", "16384"
        )
        assert code == 2 and err == ""

    @pytest.mark.parametrize("spec", ["inv(poly[1,-0.5])", "inv(poly[1,0.5,0.25])"])
    def test_kernel_check_on_kernel_with_zero_coefficients(self, capsys, spec):
        # kernels 1 - 0.5t and 1 + 0.5t + 0.25t^2: exact zeros past the head
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["kernel", "check", "--spec", spec, "-N", "512"])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == [] and captured.err == ""
        assert code == 1
        hyp_b = next(r for r in json.loads(captured.out)["reports"] if r["condition_id"] == "HypB")
        assert hyp_b["verdict"] == "Indeterminate"
        assert "nan" not in json.dumps(hyp_b)

    @pytest.mark.parametrize("command", ["kernel check", "report bundle"])
    def test_gamma_overflow_cuts_the_hypb_window(self, capsys, command):
        # gamma = |alpha| * k passes float range at degree 585 for this kernel
        code = main([*command.split(), "--spec", "pow1mt(300)", "-N", "600"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""  # NPType fails, as before the cut
        hyp_b = next(r for r in json.loads(captured.out)["reports"] if r["condition_id"] == "HypB")
        assert hyp_b["verdict"] == "Indeterminate"
        assert hyp_b["witness"]["gamma_overflow_index"] == 585 and hyp_b["N_used"] == 584
        assert "inf" not in json.dumps(hyp_b["witness"])

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            capsys,
            "kernel", "check", "--spec", "pow1mt(0.5)", "-N", "128",
            "--out", str(out_path),
        )
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["command"] == "kernel check"

    def test_spec_file_flag(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text("pow1mt(0.5)\n", encoding="utf-8")
        code, out = run_cli(capsys, "kernel", "check", "--spec-file", str(spec_path), "-N", "128")
        assert code == 0


README_COMMANDS = [
    'kernel check --spec "pow1mt(0.5)" -N 4096',
    'kernel invert --spec "poly[1,-1,-1]" -N 16 --csv-dir {out}',
    "shift membership --a 0.5 --s 0.75 -N 2000",
    'shift membership --spec "poly[1,-1]" --kappa "pow1mt(-1)" --direction forward',
    'model build --kernel "tail(poly[1,0.4,0.16],0.05,2.0,3)" --section 64 -N 255',
    'ergodic probe --kernel "pow1mt(-0.5)" --a 0.8 --p 2 --nmax 2000 --csv-dir {out}',
    'example signs --pattern "+-+" --eps 1e-3 -N 512',
    'report bundle --spec "pow1mt(0.5)" -N 4096 --csv-dir {out}',
]


def _per_cell_matrix_csv(mat) -> str:
    """The earlier write_matrix_csv: one f-string per cell."""
    return "".join(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n" for row in mat)


def _per_cell_rows_csv(rows, key) -> str:
    """The earlier cli._write_csv: one f-string per row of numbers."""
    return f"{key},value\n" + "".join(f"{int(i)},{format(float(v), '.17g')}\n" for i, v in rows)


def _awkward_values(size, seed):
    """Signed zeros, infinities, nan, extremes and random scales."""
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308, 1 / 3, 1e22]
    rng = np.random.default_rng(seed)
    n = size - len(special)
    return np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)])


class TestCsvSidecarBytes:
    @pytest.mark.parametrize("kind", ["complex", "real", "transposed"])
    def test_matrix_csv_matches_the_per_cell_formatter(self, tmp_path, kind):
        mat = _awkward_values(64, seed=3).reshape(8, 8)
        if kind != "real":  # parts set apart: 1j * inf would be nan + inf j
            mat = mat.astype(np.complex128)
            mat.imag = _awkward_values(64, seed=4)[::-1].reshape(8, 8)
        if kind == "transposed":
            mat = mat.T
        write_matrix_csv(str(tmp_path / "m.csv"), mat)
        assert (tmp_path / "m.csv").read_bytes() == _per_cell_matrix_csv(mat).encode()

    def test_row_csv_matches_the_per_cell_formatter(self, tmp_path):
        values = _awkward_values(40, seed=5)
        cases = {
            "lists": [[i, float(v)] for i, v in enumerate(values)],
            "numpy-scalars": list(zip(np.arange(values.size) * 3, values)),
            "python-floats": list(enumerate(values.tolist())),
        }
        config = RunConfig(csv_dir=str(tmp_path))
        for name, rows in cases.items():
            cli._write_csv(config, f"{name}.csv", rows, key="n")
            assert (tmp_path / f"{name}.csv").read_bytes() == _per_cell_rows_csv(rows, "n").encode()

    def test_row_blocks_match_the_per_row_format(self, tmp_path):
        # two whole blocks and a partial third, signed zeros and subnormals
        # among the values, against the one-%-per-row writer it replaced
        n = 2 * cli._CSV_BLOCK + 17
        values = _awkward_values(n, seed=6)
        values[[1, cli._CSV_BLOCK - 1, cli._CSV_BLOCK, n - 1]] = [-0.0, 5e-324, -2.2250738585072e-309, -0.0]
        for name, rows in {"numpy": enumerate(values), "python": enumerate(values.tolist())}.items():
            cli._write_csv(RunConfig(csv_dir=str(tmp_path)), f"{name}.csv", rows)
            per_row = "index,value\n" + "".join("%d,%.17g\n" % (i, v) for i, v in enumerate(values))
            assert (tmp_path / f"{name}.csv").read_bytes() == per_row.encode()


def _read_tree(path):
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


class TestParserReuse:
    """main builds the argument parser once per process; every later call
    must behave as the first call of a fresh process."""

    def test_parser_is_built_once(self, monkeypatch):
        built = []
        init = cli._ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        argv = ["shift", "membership", "--a", "0.5", "--s", "0.6", "-N", "64"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            one_tree = len(built)
            for _ in range(4):
                assert main(argv) == 0
        assert built.count("herop") == 1 and len(built) == one_tree

    def test_usage_error_leaves_no_state(self, src_env):
        argv = ["kernel", "check", "--spec", "pow1mt(0.5)", "-N", "256"]
        assert run_cli_checked("kernel", "check", "--bogus")[0] == 3
        assert run_cli_checked(*argv) == _fresh_process(src_env, argv)

    def test_norm_power_alias_does_not_stick(self, capsys):
        base = ["ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", "64"]
        code, out = run_cli(capsys, *base, "--q", "1.5")
        assert code == 0 and json.loads(out)["p"] == 1.5
        code, out = run_cli(capsys, *base)
        assert code == 0 and json.loads(out)["p"] == 2.0

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: herop")

    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_readme_commands_repeat_the_fresh_process_bytes(self, src_env, tmp_path, command):
        runs = []
        for where in ("fresh", "first", "second"):
            out_dir = tmp_path / where
            argv = [a.replace("{out}", str(out_dir)) for a in shlex.split(command)]
            if where == "fresh":
                result = _fresh_process(src_env, argv)
            else:
                result = run_cli_checked(*argv)
            text = [r.replace(str(out_dir), "{out}") if isinstance(r, str) else r for r in result]
            runs.append((text, _read_tree(out_dir) if out_dir.exists() else None))
        assert runs[0] == runs[1] == runs[2]


def _fresh_process(env, argv):
    """(exit code, stdout, stderr) of python -m herop.cli in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "herop.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


def _fuzz_operator(kind, d, rng):
    if kind == "unitary":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q
    if kind == "diagonal":
        return np.diag(rng.uniform(-1.0, 1.0, d) * np.exp(2j * np.pi * rng.random(d)))
    if kind == "nilpotent":
        return np.triu(rng.standard_normal((d, d)), 1)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g * (rng.uniform(0.1, 0.99) / np.linalg.norm(g, 2))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["unitary", "diagonal", "nilpotent", "contraction"]),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(0.05, 2.5),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.sampled_from([8, 16, 64, 255]),
)
def test_model_build_on_any_operator_keeps_the_contract(kind, d, seed, s, sign, n):
    """Exit code 0-3, no traceback or warning, and a JSON report for 0-2."""
    mat = _fuzz_operator(kind, d, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.csv")
        write_matrix_csv(path, mat)
        code, out, _ = run_cli_checked(
            "model", "build", "--kernel", f"pow1mt({sign * s!r})", "--operator", path, "-N", str(n)
        )
    assert code in (0, 1, 2, 3)
    if code != 3:
        assert isinstance(json.loads(out), dict)


def _stdout_under_one_and_two_blas_threads(env, argv):
    code = "import sys; from herop.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    return outputs


def test_long_products_do_not_depend_on_blas_threads(src_env):
    """Long products are GEMMs, which split their output, never a sum, over
    threads, so one and two BLAS threads print the same bytes.  This symbol
    and weight are dense windows with no closed-form product."""
    argv = ["shift", "membership", "--spec", "pow1mt(0.5)*poly[1,0.3]", "--kappa", "pow1mt(-0.6)", "-N", "65536"]
    one, two = _stdout_under_one_and_two_blas_threads(src_env, argv)
    assert one == two


def test_closed_form_membership_does_not_depend_on_blas_threads(src_env):
    """A binomial pair's product is a closed form and its gamma the NP
    identity, with no BLAS call in between."""
    argv = ["shift", "membership", "--a", "0.5", "--s", "0.6", "-N", "65536"]
    one, two = _stdout_under_one_and_two_blas_threads(src_env, argv)
    assert one == two


def test_long_probes_do_not_depend_on_blas_threads(src_env):
    """Past 10,000 entries a walk norm or a Cesaro sum taken as one ddot is
    split over threads; the fixed-order dot prints the same bytes under one
    and two BLAS threads."""
    argv = ["ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", "10500"]
    one, two = _stdout_under_one_and_two_blas_threads(src_env, argv)
    assert one == two


def test_short_probes_print_the_plain_dot_bytes(capsys, monkeypatch):
    """Up to a chunk the fixed-order dot is one plain ddot, so a probe whose
    vectors are that short prints what np.dot and np.linalg.norm print."""
    from herop import ergodic, operators

    argv = ["ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", "2000"]
    fixed = run_cli(capsys, *argv)
    for module in (operators, ergodic):
        monkeypatch.setattr(module, "_vector_norm", lambda v: float(np.linalg.norm(v)))
    monkeypatch.setattr(ergodic, "_dot", np.dot)
    assert run_cli(capsys, *argv) == fixed


class TestNoUnreadPair:
    """model build reads alpha = 1/k alone, and inv(...) reads the kernel
    alone: neither assembles a KernelPair.  Each prints what the route
    through the assembled pair printed, whose section defect took the
    direct product of the two windows."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("make_kernel_pair called")

    @pytest.mark.parametrize("kernel", ["pow1mt(-0.5)", "tail(poly[1,0.4,0.16],0.05,2.0,3)"])
    @pytest.mark.parametrize("where", ["section", "operator"])
    def test_model_build(self, monkeypatch, tmp_path, where, kernel):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        write_matrix_csv(str(tmp_path / "T.csv"), g * (0.7 / np.linalg.norm(g, 2)))
        target = ["--section", "64"] if where == "section" else ["--operator", str(tmp_path / "T.csv")]

        def run(out_dir):
            result = run_cli_checked("model", "build", "--kernel", kernel, *target, "-N", "255",
                                     "--csv-dir", str(tmp_path / out_dir))
            return result, _read_tree(tmp_path / out_dir)

        with monkeypatch.context() as pair_route:
            pair_route.setattr(cli, "_inverse", lambda k, n_max: series.invert_kernel(k, n_max).alpha)
            pair_route.setattr(operators, "_product", lambda f, g, n: series._convolve(f.coeffs, g.coeffs, n))
            reference = run("pair")
        monkeypatch.setattr(series, "make_kernel_pair", self._refuse)
        assert run("alpha") == reference and reference[0][0] == 0

    @pytest.mark.parametrize("spec", ["inv(poly[1,-0.5])", "inv(pow1mt(0.5)*poly[1,0.3])"])
    def test_inverse_spec(self, monkeypatch, spec):
        child = elaborate(parse_kernel_spec(spec[4:-1]), 512)
        reference = reciprocal(child, 512).k
        monkeypatch.setattr(series, "make_kernel_pair", self._refuse)
        got = elaborate(parse_kernel_spec(spec), 512)
        np.testing.assert_array_equal(got.coeffs, reference.coeffs)
        assert got.generator == reference.generator


def test_probe_and_bundle_leave_numpy_ma_unimported(src_env):
    """np.unique imports numpy.ma, 10-19 ms per process; sorted sets of ints
    give the same grids without it."""
    code = (
        "import sys; from herop.cli import main; "
        "main(['ergodic', 'probe', '--kernel', 'pow1mt(-0.5)', '--a', '0.8', '--nmax', '64']); "
        "main(['report', 'bundle', '--spec', 'pow1mt(0.5)', '-N', '256']); "
        "sys.exit('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr


# --- the CLI contract on any spec ----------------------------------------------

# exponents and coefficients; amplitudes, epsilons and tail exponents
# must be positive, and negative ones only reach a usage error
_REALS = st.floats(-3.0, 3.0) | st.floats(-300.0, 300.0) | st.sampled_from([1e308, -1e308])
_POSITIVE = st.floats(1e-3, 3.0) | st.floats(1e-3, 300.0) | st.just(1e308)


def _spec_terms(inner):
    return st.one_of(
        st.builds("inv({})".format, inner),
        st.builds("{}*{}".format, inner, inner),
        st.builds("tail({},{!r},{!r},{})".format, inner, _POSITIVE, _REALS, st.integers(1, 8)),
    )


_SPECS = st.recursive(
    st.one_of(
        st.builds("pow1mt({!r})".format, _REALS),
        st.builds(lambda cs: "poly[" + ",".join(map(repr, cs)) + "]",
                  st.lists(_REALS, min_size=1, max_size=4)),
    ),
    _spec_terms,
    max_leaves=4,
)


@st.composite
def _any_command(draw):
    """argv of one of the seven subcommands on a spec from the DSL grammar."""
    command = draw(st.sampled_from([
        "kernel check", "kernel invert", "report bundle", "shift membership", "model build",
        "ergodic probe", "example signs",
    ]))
    spec = draw(_SPECS)

    def real(flag, values=_POSITIVE):  # "--a=-1e+308": argparse reads "-1e+308" as a flag
        return f"{flag}={draw(values)!r}"

    if command == "shift membership":
        direction = draw(st.sampled_from(["backward", "forward"]))
        args = ["--spec", spec, "--kappa", draw(_SPECS), "--direction", direction]
    elif command == "model build":
        args = ["--kernel", spec, "--section", str(draw(st.integers(1, 16)))]
    elif command == "ergodic probe":
        args = ["--kernel", spec, real("--a", _REALS), "--nmax", str(draw(st.sampled_from([9, 64, 200])))]
    elif command == "example signs":
        pattern = draw(st.text("+-", min_size=1, max_size=5))
        args = [f"--pattern={pattern}", real("--eps"), real("--a"), real("--b")]
    else:
        args = ["--spec", spec]
    return [*command.split(), *args, "-N", str(draw(st.sampled_from([8, 64, 512])))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_any_command())
def test_every_subcommand_keeps_the_contract(argv):
    """Exit code 0-3, no traceback or warning, a JSON report for 0-2, and a
    numerical failure never passed off as a usage error."""
    code, out, err = run_cli_checked(*argv)
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert not any(word in err for word in ("overflowed", "non-finite", "Hermitian symmetry"))
    else:
        assert isinstance(json.loads(out), dict)
