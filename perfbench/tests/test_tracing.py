import io
import contextlib

import numpy as np
import pytest

import tracing


def _spans(rows, names):
    """rows: (name index, start, end, parent, job, error, work)."""
    cols = list(zip(*rows))
    return {
        "names": np.array(names),
        "name": np.array(cols[0], dtype=np.int32),
        "start": np.array(cols[1], dtype=float),
        "end": np.array(cols[2], dtype=float),
        "parent": np.array(cols[3], dtype=np.int64),
        "job": np.array(cols[4], dtype=np.int64),
        "error": np.array(cols[5], dtype=bool),
        "work": np.array(cols[6], dtype=np.int64),
    }


NAMES = ["cli.main", "series.reciprocal", "series.make_kernel_pair", "conditions.check_hypotheses_A",
         "specdsl.elaborate"]


def _nested():
    # job 0: main [0, 10] > reciprocal [1, 5] > make_kernel_pair [2, 3]
    #                    > check_hypotheses_A [6, 9] (raises into cli)
    #                    > elaborate [0.5, 0.9] > elaborate [0.6, 0.8] (recursion)
    # job 1: main [20, 22]
    return _spans([
        (0, 0.0, 10.0, -1, 0, False, 0),
        (1, 1.0, 5.0, 0, 0, False, 101),
        (2, 2.0, 3.0, 1, 0, False, 0),
        (3, 6.0, 9.0, 0, 0, True, 0),
        (4, 0.5, 0.9, 0, 0, False, 0),
        (4, 0.6, 0.8, 4, 0, False, 0),
        (0, 20.0, 22.0, -1, 1, False, 0),
    ], NAMES)


def test_self_times_subtract_direct_children():
    got = tracing.self_times(_nested())
    np.testing.assert_allclose(got, [10 - 4 - 3 - 0.4, 4 - 1, 1, 3, 0.4 - 0.2, 0.2, 2])


def test_derived_layer_metrics():
    m = tracing.derive(_nested(), jobs=2)
    assert m["cli.self_s"] == pytest.approx((2.6 + 2) / 2)
    assert m["series.self_s"] == pytest.approx((3 + 1) / 2)
    assert m["conditions.self_s"] == pytest.approx(3 / 2)
    assert m["specdsl.self_s"] == pytest.approx(0.4 / 2)
    # inclusive time counts the outermost call of a recursion once
    assert m["specdsl.elaborate.s"] == pytest.approx(0.4 / 2)
    assert m["series.reciprocal.s"] == pytest.approx(4 / 2)
    assert m["series.inverted_coeffs"] == pytest.approx(101 / 2)
    assert m["conditions.errors"] == pytest.approx(1 / 2)
    assert m["series.errors"] == 0
    assert m["model.defect_builds_per_model"] == 0.0
    by_job = tracing.layer_self_by_job(_nested())
    assert by_job[1]["cli"] == pytest.approx(2)
    assert sum(by_job[0].values()) == pytest.approx(10)


def test_tracer_wraps_every_binding_and_restores_them():
    import herop.cli
    import herop.series

    originals = (herop.cli.reciprocal, herop.series.reciprocal, herop.cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert herop.cli.reciprocal is herop.series.reciprocal is not originals[0]
        tracer.job_id = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert herop.cli.main(["kernel", "check", "--spec", "pow1mt(0.5)", "-N", "64"]) == 0
    finally:
        tracer.uninstall()
    assert (herop.cli.reciprocal, herop.series.reciprocal, herop.cli.main) == originals
    spans = tracer.arrays()
    names = [str(spans["names"][i]) for i in spans["name"]]
    assert names[0] == "cli.main" and spans["parent"][0] == -1
    assert "series.reciprocal" in names and "conditions.check_hypotheses_A" in names
    m = tracing.derive(spans, jobs=1)
    assert m["series.inverted_coeffs"] == 65
    assert m["series.circle_terms"] == 4 * 2048 * 65
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(spans["end"][0] - spans["start"][0])


def test_section_apply_and_defect_builds_are_counted():
    import herop.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            herop.cli.main(["model", "build", "--kernel", "pow1mt(-0.5)", "--section", "16", "-N", "63"])
            herop.cli.main(["ergodic", "probe", "--kernel", "pow1mt(-0.5)", "--a", "0.8", "--nmax", "50"])
    finally:
        tracer.uninstall()
    m = tracing.derive(tracer.arrays(), jobs=2)
    assert m["model.defect_builds_per_model"] == 2.0
    assert m["operators.hereditary_apply.calls"] == 1.0  # two per model build, over two jobs
    grid_vectors = len(__import__("herop.ergodic", fromlist=["x"]).default_n_grid(50))
    assert m["ergodic.probe_vectors"] == (grid_vectors + 2) / 2
    assert m["ergodic.applies_per_vector"] > 0
