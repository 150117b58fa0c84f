"""Corrupted reports and wrong exit codes are failures; correct ones pass."""

import copy
import json
import os

import pytest

import checks
import run
import workloads
from worker import run_job


@pytest.fixture(scope="module")
def herop_main():
    import herop.cli

    return herop.cli.main


def _execute(main, job, tmp_path):
    out_dir = str(tmp_path)
    ex = run_job(main, [a.replace(workloads.OUT, out_dir) for a in job["argv"]])
    ex.update(out_dir=out_dir, phase="u", deck=0, slot=0)
    return ex


def test_closed_form_jobs_pass_with_small_residuals(herop_main, tmp_path):
    for i, job in enumerate([
        workloads.probe((0.5, 0.8, 2.0), 300),
        workloads.kernel_invert_binom(0.35, 512),
        workloads.model_section(0.5, 24, 127),
        workloads.readme_job(1, (1, 1)),
    ]):
        job["key"] = None
        ex = _execute(herop_main, job, tmp_path / str(i))
        ok, reason, residual = checks.check_execution(job, ex, {})
        assert ok, reason
        assert residual < 1e-10


def test_corruptions_fail(herop_main, tmp_path):
    job = workloads.kernel_verdicts("kernel check", "binom", 0.5, 256)
    good = _execute(herop_main, job, tmp_path)
    refs = {job["key"]: checks.outcome(good["exit"], json.loads(good["stdout"]))}
    assert checks.check_execution(job, good, refs)[0]

    bad = []
    truncated = dict(good, stdout=good["stdout"][: len(good["stdout"]) // 2])
    bad.append(truncated)
    bad.append(dict(good, exit=1))
    bad.append(dict(good, stderr="Traceback (most recent call last):\n  ...\nValueError: x\n"))
    bad.append(dict(good, exception="Traceback (most recent call last):\nRuntimeError: boom\n", exit=None))
    payload = json.loads(good["stdout"])
    flipped = copy.deepcopy(payload)
    flipped["reports"][0]["verdict"] = "Fails"
    bad.append(dict(good, stdout=json.dumps(flipped)))
    for ex in bad:
        assert not checks.check_execution(job, ex, refs)[0]
    # a job whose reference was never recorded is not silently passed
    assert not checks.check_execution(job, good, {})[0]

    decks = [[job]]
    executions = [dict(good, phase="w"), good] + [dict(ex, phase="u") for ex in bad]
    timed, failures, _ = run.judge(decks, executions, refs)
    assert len(timed["u"]) == 1 + len(bad)
    assert len(failures) == len(bad)


def test_wrong_probe_verdict_fails(herop_main, tmp_path):
    job = workloads.probe((0.5, 0.8, 2.0), 300)
    job["key"] = None
    ex = _execute(herop_main, job, tmp_path)
    payload = json.loads(ex["stdout"])
    payload["probes"][0]["trend"] = "PowerGrowth"
    assert not checks.check_execution(job, dict(ex, stdout=json.dumps(payload)), {})[0]


def test_wrong_kernel_sidecar_row_count_fails(herop_main, tmp_path):
    job = workloads.kernel_invert_binom(0.35, 64)
    job["key"] = None
    ex = _execute(herop_main, job, tmp_path)
    path = os.path.join(ex["out_dir"], "kernel.csv")
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert not checks.check_execution(job, ex, {})[0]


def test_every_catalogued_job_has_a_recorded_outcome():
    with open(run.REFERENCES) as fh:
        refs = json.load(fh)
    assert set(workloads.catalog()) == set(refs)


def test_tail_percentile_leaves_ten_jobs_beyond():
    times = [float(i) for i in range(1, 31)]
    value, pct, beyond = run.tail(times)
    assert beyond >= 10 and pct == 66 and value == 20.0
