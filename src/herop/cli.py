"""Command line: parse kernel specs, dispatch checks/builds/probes, and emit
versioned JSON reports (schema 1) with CSV trend-table sidecars.

Exit codes: 0 all verdicts hold (possibly as trends), 1 any failure,
2 indeterminate results only, 3 usage error.  A numerical failure
(series.NumericalFailure: overflow, non-finite coefficients, lost Hermitian
symmetry, a model identity or tail bound that does not hold) is a failure:
exit 1 with the report {"error": message, "witness": {...}, "reports": []}
beside the usual schema, command, seed and N keys.  Malformed input (a
ValueError or OSError) is a usage error: exit 3 and one "herop: error:" line
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from itertools import chain, islice
from typing import Optional, Sequence

import numpy as np

from . import conditions as cond
from .conditions import ConditionReport, SignPattern, Verdict
from .ergodic import MOVING_BASIS, cesaro_probe, default_n_grid
from .model import Transform, build_model, minimality_check, verify_relation_DCW
from .operators import (
    Direction,
    read_matrix_csv,
    write_matrix_csv,
    seeded_unit_vectors,
    shift_membership_backward,
    shift_membership_forward,
    shift_section,
)
from .series import NumericalFailure, TruncatedSeries, _inverse, kernel_underflow_index, reciprocal
from .specdsl import SpecSemanticError, elaborate, parse_kernel_spec

__all__ = ["main", "RunConfig", "dumps_canonical"]

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Run-wide settings from the common flags (-N, --tol, --out, --csv-dir,
    --seed); reports echo N and the seed."""

    truncation: int = 1024
    model_tol: float = 1e-8
    out: Optional[str] = None
    csv_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.model_tol) and self.model_tol > 0):
            raise ValueError("tolerances must be finite and positive")


# --- canonical JSON ----------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _fields(obj) -> dict:
    """A dataclass's fields by name, their values as they are."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits, a
    dataclass as the object of its fields and an Enum as its value."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (np.floating, float)):
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{dumps_canonical(v)}" for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(dumps_canonical(v) for v in seq) + "]"
    if is_dataclass(obj):
        return dumps_canonical(_fields(obj))
    if isinstance(obj, Enum):
        return dumps_canonical(obj.value)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(command: str, config: RunConfig, reports: Sequence[ConditionReport], extra: dict) -> None:
    """The schema-1 report, to --out or stdout."""
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": config.seed,
        "N": config.truncation,
        "reports": reports,
        **extra,
    }
    text = dumps_canonical(payload) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_CSV_BLOCK = 1024  # rows per % format


def _write_csv(config: RunConfig, name: str, rows, key: str = "index") -> None:
    """(index, value) rows as a CSV sidecar under --csv-dir, when one is given:
    one % format per block of rows, each row '%d,%.17g'."""
    if not config.csv_dir:
        return
    os.makedirs(config.csv_dir, exist_ok=True)
    with open(os.path.join(config.csv_dir, name), "w", encoding="utf-8") as fh:
        fh.write(f"{key},value\n")
        rows = iter(rows)
        while block := tuple(islice(rows, _CSV_BLOCK)):
            fh.write("%d,%.17g\n" * len(block) % tuple(chain.from_iterable(block)))


def _write_trend_csvs(reports: Sequence[ConditionReport], config: RunConfig) -> None:
    if config.csv_dir:  # the directory exists even when no report has a table
        os.makedirs(config.csv_dir, exist_ok=True)
    for report in reports:
        table = report.trend_table()
        if table:
            _write_csv(config, f"{report.condition_id}.csv", table)


def _exit_code(verdicts: Sequence[Verdict]) -> int:
    if any(v in (Verdict.FAILS, Verdict.TREND_FAILS) for v in verdicts):
        return 1
    if any(v is Verdict.INDETERMINATE for v in verdicts):
        return 2
    return 0


def _series_from_flags(args) -> TruncatedSeries:
    text = args.spec
    if text is None and args.spec_file:
        with open(args.spec_file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    if text is None:
        raise SpecSemanticError(0, "missing --spec")
    return elaborate(parse_kernel_spec(text), args.truncation)


# --- subcommand runners -------------------------------------------------------
#
# Each runner returns (exit code, condition reports, extra payload keys);
# main names the command and emits the one report.


def _run_kernel_check(args, config: RunConfig, bundle: bool = False) -> tuple[int, list, dict]:
    """The four pair conditions; `report bundle` adds the six kernel-side ones."""
    if bundle and config.truncation < 8:  # the pair-decay grid starts at m = 4, n = 2m
        raise ValueError(f"-N must be at least 8 for report bundle, got {config.truncation}")
    pair = reciprocal(_series_from_flags(args), config.truncation)
    reports = [
        cond.check_hypotheses_A(pair),
        cond.check_hypotheses_B(pair),
        cond.classify_np(pair.alpha),
        cond.classify_critical(pair),
    ]
    violations = list(pair.violations)
    if bundle and np.all(pair.k.coeffs > 0.0) and kernel_underflow_index(pair.k.coeffs) is None:
        # the kernel-side conditions presume positive coefficients above
        # float underflow (1/k_n must stay finite) whose pair products
        # k_j k_{n-j} stay inside float range: an overflow, or BanachAlg's
        # refusal of its row sums k_j k_{n-j} / k_n past float range, skips them
        omega = TruncatedSeries(1.0 / pair.k.coeffs, None)
        m_grid = [m for m in (4, 8, 16, 32) if 2 * m <= config.truncation]
        try:
            with np.errstate(over="raise", invalid="raise"):
                reports += [
                    cond.muller_condition_estimate(pair.k, m_grid),
                    cond.muller_sufficient_check(pair.k, [1.5, 2.0, 3.0]),
                    cond.banach_algebra_condition(omega),
                    cond.tau_condition_check(omega),
                    cond.reciprocal_summability_check(omega),
                    cond.holder_exponent_estimate(pair.k, [0.1, 0.2, 0.3, 0.4, 0.5]),
                ]
        except (FloatingPointError, NumericalFailure):
            violations.append("kernel-side conditions skipped: kernel coefficient products overflow")
    reports.sort(key=lambda r: r.condition_id)
    _write_trend_csvs(reports, config)
    return _exit_code([r.verdict for r in reports]), reports, {"violations": violations}


def _run_kernel_invert(args, config: RunConfig) -> tuple[int, list, dict]:
    alpha = _series_from_flags(args)
    pair = reciprocal(alpha, config.truncation)
    extra = {
        "inversion_residual": pair.inversion_residual,
        "flags": pair.flags,
        "k_head": pair.k.coeffs[:16],
        "violations": list(pair.violations),
    }
    _write_csv(config, "kernel.csv", enumerate(pair.k.coeffs))
    return (1 if pair.violations else 0), [], extra


def _run_shift_membership(args, config: RunConfig) -> tuple[int, list, dict]:
    if args.a is not None and args.s is not None:
        alpha = elaborate(parse_kernel_spec(f"pow1mt({args.a})"), config.truncation)
        kappa = elaborate(parse_kernel_spec(f"pow1mt({-args.s})"), config.truncation)
    else:
        alpha = _series_from_flags(args)
        if not args.kappa:
            raise SpecSemanticError(0, "need --kappa (or the --a/--s shortcut)")
        kappa = elaborate(parse_kernel_spec(args.kappa), config.truncation)
    runner = shift_membership_backward if args.direction == "backward" else shift_membership_forward
    report = runner(alpha, kappa)
    return _exit_code([report.in_Cw, report.in_Cw_plus]), [], _fields(report)


def _kernel_text(args) -> str:  # model build's and ergodic probe's kernel
    spec_text = args.kernel or args.spec
    if spec_text is None:
        raise SpecSemanticError(0, "missing --kernel/--spec")
    return spec_text


def _run_model_build(args, config: RunConfig) -> tuple[int, list, dict]:
    k = elaborate(parse_kernel_spec(_kernel_text(args)), config.truncation)
    alpha = _inverse(k, k.degree)
    if args.operator:
        T = read_matrix_csv(args.operator)
    else:
        T = shift_section(k, Direction.BACKWARD, 32 if args.section is None else args.section)
    bundle = build_model(alpha, k, T, M=args.degree, model_tol=config.model_tol)
    mini = minimality_check(bundle)
    if config.csv_dir:
        os.makedirs(config.csv_dir, exist_ok=True)
        names = ("defect", "complement", "transform", "isometry")
        for name, mat in zip(names, (bundle.D, bundle.W, bundle.V, bundle.S)):
            # V goes out block by block; a section's dense matrices are built here
            rows = mat.blocks() if isinstance(mat, Transform) else getattr(mat, "entries", mat)
            if isinstance(mat, Transform) or rows.size:
                write_matrix_csv(os.path.join(config.csv_dir, f"{name}.csv"), rows)
    probes = seeded_unit_vectors(T.dim, 16, seed=config.seed)
    relation = verify_relation_DCW(alpha, T, bundle.C, bundle.W, probes)
    diag = dict(bundle.diagnostics)
    checked = ("isometry_residual", "intertwine_residual", "S_welldef_residual")
    passed = all(diag[key] <= config.model_tol for key in checked)
    extra = {
        "diagnostics": diag,
        "defect_rank": bundle.defect_rank,
        "w_rank": bundle.w_rank,
        "degree_cap": bundle.M,
        "kind": bundle.kind,
        "minimality": mini,
        "defect_relation": relation,
        "passed": passed,
    }
    return (0 if passed and mini["minimal"] else 1), [], extra


def _run_ergodic_probe(args, config: RunConfig) -> tuple[int, list, dict]:
    spec_text = _kernel_text(args)
    if args.q is not None:
        args.p = args.q
    n_max = args.nmax
    if n_max < 9:  # the probe grid starts at n = 8 and needs two points
        raise ValueError(f"--nmax must be at least 9, got {n_max}")
    if args.vectors < 0:
        raise ValueError(f"--vectors must be non-negative, got {args.vectors}")
    kappa = elaborate(parse_kernel_spec(spec_text), max(n_max + 1, config.truncation))
    section = shift_section(kappa, Direction.BACKWARD, n_max + 1)
    grid = default_n_grid(n_max)
    probes = [cesaro_probe(section, MOVING_BASIS, args.a, args.p, grid)]
    if args.vectors > 0:
        fixed = seeded_unit_vectors(n_max + 1, args.vectors, seed=config.seed, complex_entries=False)
        probes.append(cesaro_probe(section, fixed, args.a, args.p, grid))
    rows = []
    for probe in probes:
        for label, values, trend in zip(probe.vector_labels, probe.samples, probe.trends):
            rows.append(
                {
                    "vector": label,
                    "trend": trend.kind,
                    "statistic": trend.statistic,
                    "r2": trend.r2,
                    "values": values,
                }
            )
            _write_csv(config, f"probe_{label}.csv", zip(probe.n_grid, values), key="n")
    return 0, [], {"a": args.a, "p": args.p, "n_grid": list(grid), "probes": rows}


def _run_example_signs(args, config: RunConfig) -> tuple[int, list, dict]:
    # argparse drops a bare "--" value, so --pattern=-- arrives as []
    if not isinstance(args.pattern, str) or not args.pattern.strip():
        raise ValueError('--pattern must be a non-empty string of + and -; '
                         'write a pattern of leading dashes as --pattern " --"')
    pattern = SignPattern.from_string(
        args.pattern, epsilon=args.eps, tail_amplitude=args.a, tail_exponent=args.b
    )
    pair, report = cond.generate_sign_pattern_kernel(pattern, config.truncation)
    _write_trend_csvs([report], config)
    extra = {
        "alpha_head": pair.alpha.coeffs[:16],
        "inversion_residual": pair.inversion_residual,
        "violations": list(pair.violations),
    }
    return _exit_code([report.verdict]), [report], extra


# --- argument parsing ----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-N", "--truncation", type=int, default=1024)
    parser.add_argument("--tol", type=float, default=1e-8, help="model tolerance")
    parser.add_argument("--out", default=None)
    parser.add_argument("--csv-dir", default=None)
    parser.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> _ArgumentParser:
    """The herop argument parser, built once per process and shared by
    every main(argv) call in it (the first call pays for the build).
    parse_args keeps no state between calls; callers must not modify it."""
    parser = _ArgumentParser(prog="herop", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    kernel = top.add_parser("kernel", help="kernel pair checks").add_subparsers(
        dest="action", required=True
    )
    for action in ("check", "invert"):
        sub = kernel.add_parser(action)
        sub.add_argument("--spec", default=None)
        sub.add_argument("--spec-file", default=None)
        _add_common(sub)

    shift = top.add_parser("shift", help="weighted shift membership").add_subparsers(
        dest="action", required=True
    )
    sub = shift.add_parser("membership")
    sub.add_argument("--spec", default=None, help="symbol spec")
    sub.add_argument("--spec-file", default=None)
    sub.add_argument("--kappa", default=None, help="weight spec")
    sub.add_argument("--a", type=float, default=None, help="binomial symbol order")
    sub.add_argument("--s", type=float, default=None, help="binomial weight order")
    sub.add_argument("--direction", choices=("backward", "forward"), default="backward")
    _add_common(sub)

    model = top.add_parser("model", help="explicit model construction").add_subparsers(
        dest="action", required=True
    )
    sub = model.add_parser("build")
    sub.add_argument("--kernel", default=None, help="kernel spec (alias of --spec)")
    sub.add_argument("--spec", default=None)
    sub.add_argument("--operator", default=None, help="CSV matrix path")
    sub.add_argument("--section", type=int, default=None, help="backward section dimension")
    sub.add_argument("--degree", type=int, default=None, help="degree cap M")
    _add_common(sub)

    ergodic = top.add_parser("ergodic", help="Cesaro mean probes").add_subparsers(
        dest="action", required=True
    )
    sub = ergodic.add_parser("probe")
    sub.add_argument("--kernel", default=None, help="weight spec (alias of --spec)")
    sub.add_argument("--spec", default=None)
    sub.add_argument("--a", type=float, required=True, help="mean order")
    sub.add_argument("--p", type=float, default=2.0, help="norm power")
    sub.add_argument("--q", type=float, default=None, help="norm power (alias of --p)")
    sub.add_argument("--nmax", type=int, default=4096)
    sub.add_argument("--vectors", type=int, default=2)
    _add_common(sub)

    example = top.add_parser("example", help="constructive examples").add_subparsers(
        dest="action", required=True
    )
    sub = example.add_parser("signs")
    sub.add_argument("--pattern", required=True)
    sub.add_argument("--eps", type=float, default=1e-3)
    sub.add_argument("--a", type=float, default=0.05, help="tail amplitude")
    sub.add_argument("--b", type=float, default=2.0, help="tail exponent")
    _add_common(sub)

    report = top.add_parser("report", help="aggregate condition reports").add_subparsers(
        dest="action", required=True
    )
    sub = report.add_parser("bundle")
    sub.add_argument("--spec", default=None)
    sub.add_argument("--spec-file", default=None)
    _add_common(sub)

    return parser


_RUNNERS = {
    ("kernel", "check"): _run_kernel_check,
    ("kernel", "invert"): _run_kernel_invert,
    ("shift", "membership"): _run_shift_membership,
    ("model", "build"): _run_model_build,
    ("ergodic", "probe"): _run_ergodic_probe,
    ("example", "signs"): _run_example_signs,
    ("report", "bundle"): functools.partial(_run_kernel_check, bundle=True),
}


def _floating_point_failure(err: str, flag: int) -> None:
    """numpy's error callback under main.  An overflow, invalid value or
    division by zero that no herop function expects (those that expect one
    run under np.errstate) becomes a NumericalFailure naming the function,
    not a RuntimeWarning and a non-finite number inside a verdict."""
    frame = sys._getframe(1)
    while frame and not frame.f_globals.get("__name__", "").startswith("herop."):
        frame = frame.f_back
    where = f"{frame.f_globals['__name__']}.{frame.f_code.co_name}" if frame else "numpy"
    raise NumericalFailure(f"floating-point {err} in {where}", {"floating_point": err, "in": where})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    runner = _RUNNERS[(args.group, args.action)]
    try:
        config = RunConfig(
            truncation=args.truncation,
            model_tol=args.tol,
            out=args.out,
            csv_dir=args.csv_dir,
            seed=args.seed,
        )
        try:
            with np.errstate(over="call", invalid="call", divide="call", call=_floating_point_failure):
                code, reports, extra = runner(args, config)
        except NumericalFailure as exc:
            code, reports, extra = 1, [], {"error": str(exc), "witness": exc.witness}
        _emit(f"{args.group} {args.action}", config, reports, extra)
        return code
    except (OSError, ValueError) as exc:  # spec and shift errors are ValueErrors
        sys.stderr.write(f"herop: error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
