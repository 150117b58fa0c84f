import json
import warnings

import numpy as np
import pytest

from herop.cli import RunConfig, dumps_canonical, main
from herop.operators import write_matrix_csv


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
