"""One workload run in a fresh interpreter: warm-up, timed decks, traced decks.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) names herop's source directory, the warm-up
argv lists and the decks.  Every job is `herop.cli.main(argv)` in this one
process, with stdout and stderr captured: a closed loop with one client.
Every deck in the plan runs, whole and in order.  With tracing on, the
decks run untraced and then again traced, so the two throughputs compare
like work.
The result holds every execution; traced spans go to spans.npz in the
work directory.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import sys
import time
import traceback

import numpy as np


def blas_info() -> dict:
    """BLAS name and version from numpy's build, threads from the library."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:  # the libraries loaded into this process
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def run_job(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exception = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException:  # noqa: BLE001 - any escape is a job failure, recorded below
            code = None
            exception = traceback.format_exc()
    wall = time.perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exception": exception, "wall": wall}


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Runner:
    def __init__(self, cli, workdir: str):
        self.cli = cli  # looked up per job, so a traced `cli.main` is the one called
        self.workdir = workdir
        self.executions = []

    def execute(self, argv, phase, deck, slot, tracer=None):
        out_dir = os.path.join(self.workdir, "out", f"{phase}{deck}_{slot}")
        os.makedirs(out_dir, exist_ok=True)
        if tracer is not None:
            tracer.job_id = len(self.executions)
        record = run_job(self.cli.main, [a.replace("{out}", out_dir) for a in argv])
        record.update(index=len(self.executions), phase=phase, deck=deck, slot=slot, out_dir=out_dir,
                      csv_bytes=_dir_bytes(out_dir))
        self.executions.append(record)
        return record

    def decks(self, decks, phase, tracer=None) -> float:
        """Run every deck; returns the summed wall time of its jobs."""
        elapsed = 0.0
        for r, deck in enumerate(decks):
            for slot, job in enumerate(deck):
                elapsed += self.execute(job, phase, r, slot, tracer)["wall"]
        return elapsed


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import herop.cli

    runner = Runner(herop.cli, plan["workdir"])
    for i, argv in enumerate(plan["warmup"]):
        runner.execute(argv, "w", 0, i)
    decks = plan["decks"]
    result = {"blas": blas_info(), "timed_seconds": runner.decks(decks, "u")}
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced_seconds"] = runner.decks(decks, "t", tracer=tracer)
        finally:
            tracer.uninstall()
        np.savez(os.path.join(plan["workdir"], "spans.npz"), **tracer.arrays())
    result["executions"] = runner.executions
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
