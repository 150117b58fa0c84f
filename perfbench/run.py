"""herop benchmark: seeded CLI job decks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kernel-scan --seed 1 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the root of a herop checkout; herop is imported from ./src.  Each
workload run spawns one fresh worker process (worker.py) that calls
`herop.cli.main(argv)` job after job.  This process generates the inputs
from the seed, measures set-up time in fresh interpreters, reads the
worker's peak RSS, checks every output against closed forms or recorded
outcomes (checks.py) and prints one line per metric, then a JSON summary
as the last line.  With `--trace 1` the summary holds the per-layer
metrics derived from the traced half of the run (tracing.py) instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E = (
    ("jobs_per_s", "jobs/s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_digits", "digits"),
)
_TIMES = tuple(f"{layer}.{fn}.s" for layer, fns in tracing.TIMED.items() for fn in fns)
PER_LAYER = (
    tuple((f"{layer}.self_s", "s/job") for layer in tracing.LAYERS)
    + tuple((name, "s/job") for name in _TIMES)
    + (
        ("cli.report_bytes", "B/job"),
        ("cli.csv_bytes", "B/job"),
        ("series.inverted_coeffs", "coeffs/job"),
        ("series.circle_terms", "terms/job"),
        ("operators.hereditary_apply.calls", "calls/job"),
        ("operators.section_apply.calls", "calls/job"),
        ("model.defect_builds_per_model", "ratio"),
        ("ergodic.probe_vectors", "vectors/job"),
        ("ergodic.applies_per_vector", "ratio"),
    )
    + tuple((f"{layer}.errors", "count/job") for layer in tracing.LAYERS)
    + (("trace.overhead_frac", "ratio"),)
)
SETUP_RUNS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import herop.cli; herop.cli.build_parser()"
WORKER_TIMEOUT_S = 170.0
RESIDUAL_FLOOR = 1e-30  # keeps accuracy_digits finite when every residual is exactly zero
REFERENCES = os.path.join(BENCH_DIR, "reference_outcomes.json")


class BenchError(RuntimeError):
    pass


def environment(root: str, threads: int) -> dict:
    src = os.path.join(root, "src", "herop")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": threads,
        "blas_threads_pinned": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_herop_lines": lines,
        "load": "closed loop, 1 client, 1 process",
    }


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def measure_setup(root: str, env: dict) -> list:
    """Wall time of fresh interpreters importing herop.cli and building its parser."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return times


def run_worker(plan_path: str, result_path: str, root: str, env: dict) -> float:
    """Run worker.py to completion; returns its peak RSS in MiB."""
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path, result_path],
                            cwd=root, env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0  # KiB on Linux


def tail(times: list) -> tuple[float, int, int]:
    """(value, percentile, jobs beyond): the highest whole percentile with
    at least ten jobs above it."""
    n = len(times)
    pct = max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0
    value = float(np.percentile(times, pct, method="lower"))
    return value, pct, sum(t > value for t in times)


def judge(decks: list, executions: list, references: dict):
    """Check every timed and traced execution (warm-up is not judged).

    Returns ({phase: [(execution, passed)]}, failure lines, (worst
    residual, argv text of the job that had it))."""
    timed = {"u": [], "t": []}
    failures = []
    worst = (0.0, None)
    for ex in executions:
        if ex["phase"] == "w":
            continue
        job = decks[ex["deck"]][ex["slot"]]
        ok, reason, residual = checks.check_execution(job, ex, references)
        timed[ex["phase"]].append((ex, ok))
        if not ok:
            failures.append(f"{' '.join(job['argv'])}: {reason}")
        elif residual > worst[0]:
            worst = (residual, " ".join(job["argv"]))
    return timed, failures, worst


def run_workload(root: str, name: str, seed: int, trace: bool, threads: int, references: dict) -> dict:
    env = child_env(threads)
    workdir = os.path.join(root, ".perfbench_work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    decks = workloads.make_decks(name, seed, os.path.join(workdir, "matrices"))
    if trace:  # the worker runs them twice
        decks = decks[: max(1, len(decks) // 2)]
    plan = {
        "src": os.path.join(root, "src"),
        "workdir": workdir,
        "trace": trace,
        "warmup": [job["argv"] for job in workloads.warmup_jobs(name, os.path.join(workdir, "matrices"))],
        "decks": [[job["argv"] for job in deck] for deck in decks],
    }
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    setup = measure_setup(root, env)
    peak_mb = run_worker(plan_path, result_path, root, env)
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)

    timed, failures, worst = judge(decks, result["executions"], references)
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    shutil.rmtree(os.path.join(workdir, "matrices"), ignore_errors=True)

    runs = timed["u"]
    walls = [ex["wall"] for ex, _ in runs]
    passed = sum(ok for _, ok in runs)
    attempted = len(runs) + len(timed["t"])
    failed = len(failures)
    for line in failures[:20]:
        print(f"FAILED {name}: {line}")
    jobs_per_s = passed / result["timed_seconds"]
    tail_value, tail_pct, beyond = tail(walls)
    n = len(walls)
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "blas": result["blas"],
    }
    e2e = {
        "jobs_per_s": (jobs_per_s, f"{passed} passed jobs / {result['timed_seconds']:.2f} s, "
                                   f"{len(decks)} decks of {len(decks[0])}"),
        "job_s.p50": (float(np.median(walls)), f"median of {n} jobs"),
        "job_s.tail": (tail_value, f"p{tail_pct} of {n} jobs, {beyond} jobs beyond"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (peak_mb, "high-water RSS of the worker process"),
        "fail_frac": (failed / attempted, f"{failed} of {attempted} jobs failed the check"),
        "accuracy_digits": (-math.log10(max(worst[0], RESIDUAL_FLOOR)),
                            f"worst relative residual {worst[0]:.3e} in: {worst[1]}"),
    }
    units = dict(E2E, fail_frac="ratio")
    if trace:
        spans = dict(np.load(os.path.join(workdir, "spans.npz")))
        traced = [ex for ex, _ in timed["t"]]
        extra = {
            "cli.report_bytes": statistics.fmean(len(ex["stdout"].encode()) for ex in traced),
            "cli.csv_bytes": statistics.fmean(ex["csv_bytes"] for ex in traced),
            "trace.overhead_frac": result["traced_seconds"] / result["timed_seconds"] - 1.0,
        }
        metrics = tracing.derive(spans, len(traced), extra)
        _print_layers(name, spans, traced)
        report["metrics"] = {m: {"value": metrics[m], "unit": u} for m, u in PER_LAYER}
        for m, u in PER_LAYER:
            print(f"{name:15s} {m:40s} {metrics[m]:14.6g} {u}")
    else:
        report["metrics"] = {m: {"value": e2e[m][0], "unit": u} for m, u in E2E}
    for m, (value, note) in e2e.items():
        if trace and m in ("jobs_per_s", "job_s.p50", "job_s.tail"):
            note += " (untraced half)"
        print(f"{name:15s} {m:16s} {value:12.6g} {units[m]:7s} {note}")
    return report


def _print_layers(name: str, spans: dict, traced: list) -> None:
    """Layer shares of self time, overall and in the median traced job."""
    by_job = tracing.layer_self_by_job(spans)
    totals = dict.fromkeys(tracing.LAYERS, 0.0)
    for row in by_job.values():
        for layer, v in row.items():
            totals[layer] += v
    whole = sum(totals.values()) or 1.0
    shares = ", ".join(f"{k} {v / whole:.1%}" for k, v in sorted(totals.items(), key=lambda kv: -kv[1]))
    print(f"{name:15s} layer self-time shares: {shares}")
    if traced:
        median_job = sorted(traced, key=lambda ex: ex["wall"])[len(traced) // 2]
        row = by_job[median_job["index"]]
        top = max(row, key=row.get)
        print(f"{name:15s} median traced job ({median_job['wall']:.4f} s): largest layer {top} "
            f"({row[top]:.4f} s self)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    # BENCHMARK.json's run_seconds; the run length is set by workloads.DECKS
    # instead, so that every commit times the same jobs
    parser.add_argument("--seconds", type=float, help="accepted and ignored")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "herop", "cli.py")):
        sys.stderr.write("perfbench: no herop source at ./src/herop; run from the root of a herop checkout\n")
        return 2
    threads = len(os.sched_getaffinity(0))
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        references = json.load(fh)
    env = environment(root, threads)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = {n: run_workload(root, n, args.seed, bool(args.trace), threads, references)
                   for n in names}
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    env["blas"] = next(iter(reports.values()))["blas"]
    print("environment " + json.dumps(env, sort_keys=True))
    if len(reports) == 1:
        rep = reports[names[0]]
        metrics = rep["metrics"]
    else:
        rep = {"correct": all(r["correct"] for r in reports.values()),
               "attempted": sum(r["attempted"] for r in reports.values()),
               "failed": sum(r["failed"] for r in reports.values())}
        metrics = {f"{n}/{m}": v for n, r in reports.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"], "failed": rep["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
