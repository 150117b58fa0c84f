"""Judge one job execution without trusting herop.

A job fails when main() raised, stderr holds a traceback, stdout is not
one JSON object, or the exit code or verdicts differ from the reference:
a closed form where one exists (oracles.py), otherwise the outcome
recorded from the reference commit (reference_outcomes.json).  Exit codes
1 and 2 are verdicts, not failures.  Passing checks also yield the job's
worst relative residual against its closed form, for `accuracy_digits`.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracles

CIRCLE_SAMPLES = 2048  # herop's RunConfig.circle_samples
INTERIOR_RADII = ("0.5", "0.9", "0.99")
MODEL_RESIDUALS = ("isometry_residual", "intertwine_residual", "S_welldef_residual", "sw_residual")


class CheckFailed(Exception):
    pass


def outcome(exit_code: int, payload: dict) -> dict:
    """The verdict-level content of a report: what recorded references hold."""
    out = {"exit": exit_code}
    if payload.get("reports"):
        out["verdicts"] = {r["condition_id"]: r["verdict"] for r in payload["reports"]}
    for key in ("violations", "in_Cw", "in_Cw_plus", "direction", "passed", "defect_rank",
                "w_rank", "kind", "error", "flags"):
        if key in payload:
            out[key] = payload[key]
    if "minimality" in payload:
        out["minimal"] = payload["minimality"]["minimal"]
    if "probes" in payload:
        out["trends"] = {row["vector"]: row["trend"] for row in payload["probes"]}
    return out


def parse_report(text: str) -> dict:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckFailed("stdout is not a JSON object")
    return payload


def _read_index_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise CheckFailed(f"{os.path.basename(path)}: bad header {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    if [int(i) for i, _ in rows] != list(range(len(rows))):
        raise CheckFailed(f"{os.path.basename(path)}: indices out of order")
    return np.array([oracles.LD(v.strip()) for _, v in rows], dtype=oracles.LD)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _kernel_verdicts(check, payload, out_dir):
    closed = check["closed"]
    hyp_a = [r for r in payload["reports"] if r["condition_id"] == "HypA"]
    grid = hyp_a[0]["witness"].get("circle_grid_min") if hyp_a else None
    if closed is None or grid is None:
        return 0.0
    worst = 0.0
    for r in INTERIOR_RADII:
        ref = oracles.circle_min(closed["binom"], closed["poly"], float(r), CIRCLE_SAMPLES)
        worst = max(worst, oracles.rel_err(grid[r], ref))
    return worst


def _invert(check, payload, out_dir):
    n = check["N"]
    if "a" in check:
        ref = oracles.cesaro(check["a"], n)
    else:
        ref = np.array([oracles.LD(x.numerator) / oracles.LD(x.denominator)
                        for x in oracles.poly_inverse(check["poly"], n)], dtype=oracles.LD)
    sidecar = _read_index_csv(os.path.join(out_dir, "kernel.csv"))
    _expect(sidecar.size == n + 1, f"kernel.csv has {sidecar.size} rows, want {n + 1}")
    head = payload["k_head"]
    return max(oracles.max_rel_err(sidecar, ref), oracles.max_rel_err(head, ref[: len(head)]))


def _membership(check, payload, out_dir):
    ref = oracles.shift_product_min(check["a"], check["s"], payload["N_used"])
    return oracles.rel_err(payload["min_coefficient"], ref)


def _model(check, payload, out_dir):
    _expect(payload.get("passed") is True, "model not passed")
    _expect(payload["minimality"]["minimal"] is True, "model not minimal")
    tol = check["tol"]
    resid = {k: payload["diagnostics"][k] for k in MODEL_RESIDUALS}
    resid["defect_relation"] = payload["defect_relation"]["residual"]
    over = {k: v for k, v in resid.items() if not v <= tol}
    _expect(not over, f"residuals above tol {tol:g}: {over}")
    if check["defect_rank"] is not None:
        # D^2 = sum alpha_n T*^n T^n: the rank-one projection onto e_0 for a
        # backward section, and >= (1 - ||T||^2)^s > 0 for a strict contraction
        _expect(payload["defect_rank"] == check["defect_rank"],
                f"defect rank {payload['defect_rank']}, want {check['defect_rank']}")
        _expect(payload["w_rank"] == 0, f"w_rank {payload['w_rank']}, want 0")
    if check["s"] is None:
        return 0.0
    relation = payload["defect_relation"]
    # alpha = (1-t)^s: certified alpha(1) is exactly 0; the uncertified
    # estimate is the window's partial sum
    ref = 0 if relation["alpha_one_certified"] else oracles.alpha_partial_sum(check["s"], check["N"])
    return oracles.rel_err(relation["alpha_at_one"], ref)


def _probe(check, payload, out_dir):
    s, a, p = check["s"], check["a"], check["p"]
    grid = payload["n_grid"]
    _expect(grid == sorted(set(grid)) and grid[0] >= 1 and grid[-1] == check["nmax"], f"bad n_grid {grid}")
    rows = [row for row in payload["probes"] if row["vector"] == "moving_basis"]
    _expect(len(rows) == 1, "no moving-basis probe")
    row = rows[0]
    bounded = row["trend"] in ("Bounded", "DecaysToZero")
    _expect(bounded == oracles.probe_bounded(s, a, p),
            f"moving-basis trend {row['trend']} but a={a} vs p(1-s)/2={p * (1 - s) / 2:g}")
    return oracles.max_rel_err(row["values"], oracles.probe_moving_basis(s, a, p, grid))


_CLOSED_FORM = {
    "kernel_verdicts": _kernel_verdicts,
    "invert_binom": _invert,
    "invert_poly": _invert,
    "membership": _membership,
    "model": _model,
    "probe": _probe,
    "recorded": lambda check, payload, out_dir: 0.0,
}


def check_execution(job: dict, execution: dict, references: dict) -> tuple[bool, str, float]:
    """(passed, reason, worst relative residual) for one execution of `job`."""
    try:
        if execution.get("exception"):
            raise CheckFailed("main() raised: " + execution["exception"].strip().splitlines()[-1])
        if "Traceback (most recent call last)" in execution["stderr"]:
            raise CheckFailed("traceback on stderr")
        payload = parse_report(execution["stdout"])
        got = outcome(execution["exit"], payload)
        if job["key"] is not None:
            if job["key"] not in references:
                raise CheckFailed("no recorded reference outcome for this job")
            want = references[job["key"]]
            if got != want:
                diff = {k: (got.get(k), want.get(k)) for k in set(got) | set(want) if got.get(k) != want.get(k)}
                raise CheckFailed(f"outcome differs from the reference: {diff}")
        elif execution["exit"] != 0:
            raise CheckFailed(f"exit code {execution['exit']}, want 0")
        residual = _CLOSED_FORM[job["check"]["kind"]](job["check"], payload, execution["out_dir"])
        if not np.isfinite(residual):
            raise CheckFailed(f"residual {residual}")
        return True, "", residual
    except CheckFailed as exc:
        return False, str(exc), 0.0
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return False, f"malformed report: {type(exc).__name__}: {exc}", 0.0
