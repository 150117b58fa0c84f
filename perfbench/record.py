"""Record reference outcomes for every catalogued job that has no closed form.

    python3 perfbench/record.py

Run from the root of a herop checkout at the reference commit.  Each job in
`workloads.catalog()` runs once through `herop.cli.main`; its exit code and
verdicts (`checks.outcome`) go to perfbench/reference_outcomes.json, which
run.py compares later runs against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_job  # noqa: E402


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import herop.cli

    out_dir = os.path.join(root, ".perfbench_work", "record")
    path = os.path.join(BENCH_DIR, "reference_outcomes.json")
    references = {}
    invalid = []
    catalog = workloads.catalog()
    for i, (key, job) in enumerate(sorted(catalog.items())):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        ex = run_job(herop.cli.main, [a.replace(workloads.OUT, out_dir) for a in job["argv"]])
        sys.stderr.write(f"[{i + 1}/{len(catalog)}] {ex['wall']:.2f}s exit {ex['exit']} {key}\n")
        try:
            if ex["exception"] or "Traceback" in ex["stderr"]:
                raise checks.CheckFailed("raised")
            references[key] = checks.outcome(ex["exit"], checks.parse_report(ex["stdout"]))
        except checks.CheckFailed as exc:
            invalid.append(f"{key}: {exc}\n{ex['exception'] or ex['stderr']}")
    shutil.rmtree(out_dir, ignore_errors=True)
    if invalid:
        # a job that cannot produce a report is not a valid benchmark job
        sys.stderr.write("no reference outcome for:\n" + "\n".join(invalid) + "\n")
        return 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
