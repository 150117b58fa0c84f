
import dataclasses
import tracemalloc

import numpy as np
import pytest

from herop.ergodic import (
    MOVING_BASIS,
    OracleKind,
    UnsupportedRegimeError,
    cesaro1_norm_table,
    cesaro_probe,
    classify_trend,
    default_n_grid,
    shift_threshold_oracle,
    trichotomy_test,
)
from herop.model import build_model, bundle_direct_sum
from herop.operators import (
    BlockDiagOperator,
    DenseOperator,
    Direction,
    seeded_unit_vectors,
    shift_section,
)
from herop.series import PowSign, binomial_series, cesaro_numbers, invert_kernel
from herop.specdsl import elaborate, parse_kernel_spec

ASSANI = np.array([[-1.0, 2.0], [0.0, -1.0]], dtype=complex)


def backward(s, d, extra=0):
    return shift_section(
        binomial_series(s, PowSign.MINUS, d + extra), Direction.BACKWARD, d
    )


def diag_unitary(phases):
    return DenseOperator(np.diag(np.exp(1j * np.asarray(phases, dtype=float))))


class TestCesaroWeightIdentity:
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.0])
    def test_partial_sums_telescope(self, a):
        ka = cesaro_numbers(a, 10_000)
        ka1 = cesaro_numbers(a + 1.0, 10_000)
        sums = np.cumsum(ka)
        rel = np.abs(sums - ka1) / ka1
        assert float(np.max(rel)) <= 1e-12


class TestCesaroProbe:
    def test_isometry_identity_exact(self):
        U = diag_unitary([0.4, 1.3, 2.2, 5.0])
        x = seeded_unit_vectors(4, 1, seed=2)[0]
        for a, p in ((0.3, 1.0), (0.5, 2.0), (1.7, 2.0)):
            probe = cesaro_probe(U, x, a, p, default_n_grid(10_000))
            assert float(np.max(np.abs(probe.samples[0] - 1.0))) <= 1e-12
            assert probe.trends[0].kind == "Bounded"

    def test_fixed_vector_decays_above_threshold(self):
        T = backward(0.5, 2048)
        x = np.zeros(2048)
        x[100] = 1.0
        probe = cesaro_probe(T, x, 0.6, 2.0, default_n_grid(10_000))
        assert probe.trends[0].kind == "DecaysToZero"

    def test_moving_basis_log_growth_at_threshold(self):
        T = backward(0.5, 4096)
        probe = cesaro_probe(T, MOVING_BASIS, 0.5, 2.0, default_n_grid(4000))
        trend = probe.trends[0]
        assert trend.kind == "LogGrowth"
        # the values dominate a multiple of log(n + 2), as the bound says
        n = np.array(probe.n_grid, dtype=float)
        ratio = probe.samples[0] / np.log(n + 2.0)
        assert float(np.min(ratio)) > 0.1

    def test_moving_basis_power_growth_below_threshold(self):
        T = backward(0.5, 4096)
        probe = cesaro_probe(T, MOVING_BASIS, 0.2, 2.0, default_n_grid(4000))
        assert probe.trends[0].kind == "PowerGrowth"
        assert probe.trends[0].statistic == pytest.approx(0.3, abs=0.08)

    def test_moving_basis_mean_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        a, p, n = 0.45, 1.5, 4000
        T = shift_section(
            elaborate(parse_kernel_spec("pow1mt(-0.5)"), n + 1), Direction.BACKWARD, n + 1
        )
        with mpmath.workdps(50):
            half, ma = mpmath.mpf(1) / 2, mpmath.mpf(a)
            k, ka, ka1 = [mpmath.mpf(1)], [mpmath.mpf(1)], [mpmath.mpf(1)]
            for m in range(1, n + 1):
                k.append(k[-1] * (m - half) / m)
                ka.append(ka[-1] * (m - 1 + ma) / m)
                ka1.append(ka1[-1] * (m + ma) / m)
            q = mpmath.mpf(p) / 2
            ref = float(mpmath.fsum(ka[i] * (k[i] / k[n]) ** q for i in range(n + 1)) / ka1[n])
        closed = cesaro_probe(T, MOVING_BASIS, a, p, [8, n]).samples[0][-1]
        # a one-block direct sum has no closed form, so it walks e_n
        walk = cesaro_probe(BlockDiagOperator((T,)), MOVING_BASIS, a, p, [8, n]).samples[0][-1]
        assert abs(closed - ref) <= 1e-13 * ref
        assert abs(closed - ref) <= abs(walk - ref)

    def test_moving_basis_requires_room(self):
        with pytest.raises(ValueError):
            cesaro_probe(backward(0.5, 64), MOVING_BASIS, 0.5, 2.0, [32, 128])

    def test_multiple_vectors(self):
        U = diag_unitary([0.1, 0.9])
        vecs = seeded_unit_vectors(2, 3, seed=0)
        probe = cesaro_probe(U, vecs, 1.0, 2.0, default_n_grid(256))
        assert len(probe.samples) == 3 and len(probe.trends) == 3


class TestThresholdOracles:
    def test_quadratic_law(self):
        assert shift_threshold_oracle(0.5, 0.6, None, OracleKind.QUADRATIC_MEANS).bounded
        assert not shift_threshold_oracle(0.5, 0.5, None, OracleKind.QUADRATIC_MEANS).bounded
        assert not shift_threshold_oracle(0.5, 0.3, None, OracleKind.QUADRATIC_MEANS).bounded

    def test_general_law_boundary_excluded(self):
        assert not shift_threshold_oracle(0.5, 0.25, 1.0, OracleKind.GENERAL_MEANS).bounded
        assert shift_threshold_oracle(0.5, 0.26, 1.0, OracleKind.GENERAL_MEANS).bounded

    def test_refuses_out_of_range(self):
        with pytest.raises(UnsupportedRegimeError):
            shift_threshold_oracle(1.5, 0.5, None, OracleKind.QUADRATIC_MEANS)
        with pytest.raises(UnsupportedRegimeError):
            shift_threshold_oracle(0.5, 0.5, 3.0, OracleKind.GENERAL_MEANS)


class TestOracleAgreementSample:
    @pytest.mark.parametrize("s,a", [(0.25, 0.3), (0.25, 1.2), (0.75, 0.1), (0.75, 0.5)])
    def test_quadratic_sample_points(self, s, a):
        T = backward(s, 2048)
        oracle = shift_threshold_oracle(s, a, None, OracleKind.QUADRATIC_MEANS)
        probe = cesaro_probe(T, MOVING_BASIS, a, 2.0, default_n_grid(2000))
        assert probe.trends[0].bounded == oracle.bounded

    def test_adjoint_escapes_growth(self):
        # the adjoint section sends the constant slot up the basis with
        # growing norms, witnessing the asymmetry of the positive class
        T = backward(0.5, 512)
        adj = DenseOperator(T.operator().entries.conj().T)
        e0 = np.zeros(512, dtype=complex)
        e0[0] = 1.0
        norms = [1.0]
        v = e0
        for _ in range(400):
            v = adj.entries @ v
            norms.append(float(np.linalg.norm(v)))
        kappa = cesaro_numbers(0.5, 400)
        assert norms[-1] == pytest.approx(kappa[400] ** -0.5, rel=1e-8)
        assert norms[-1] > 4.0 * norms[0]


class TestTrichotomy:
    def make_mixed(self, d_shift=256, n_weights=2048):
        alpha = binomial_series(0.5, PowSign.PLUS, n_weights)
        k = binomial_series(0.5, PowSign.MINUS, n_weights)
        section = shift_section(k, Direction.BACKWARD, d_shift)
        unitary = diag_unitary([0.8, 2.4])
        b_shift = build_model(alpha, k, section)
        b_unit = build_model(alpha, k, unitary, M=n_weights)
        bundle, t_sum = bundle_direct_sum(b_shift, b_unit, section, unitary)
        block = BlockDiagOperator((section, unitary))
        return block, bundle, d_shift

    def test_pure_shift_vectors_mark_absent(self):
        block, bundle, d = self.make_mixed()
        x = np.zeros(d + 2)
        x[:d] = np.random.default_rng(0).standard_normal(d)
        x /= np.linalg.norm(x)
        report = trichotomy_test(block, bundle, [x], n_max=4000)
        row = report["rows"][0]
        assert row["consistent"]
        assert all(row["indicators_absent"].values())

    def test_unitary_vectors_mark_present(self):
        block, bundle, d = self.make_mixed()
        x = np.zeros(d + 2)
        x[d] = 1.0
        report = trichotomy_test(block, bundle, [x], n_max=4000)
        row = report["rows"][0]
        assert row["consistent"]
        assert not any(row["indicators_absent"].values())
        assert row["min_power_norm"] == pytest.approx(1.0, rel=1e-9)

    def test_mixed_vectors_stay_consistent(self):
        block, bundle, d = self.make_mixed()
        vectors = seeded_unit_vectors(d + 2, 6, seed=4)
        report = trichotomy_test(block, bundle, vectors, n_max=4000)
        assert report["consistent"]
        # the three ratios measure the same isometric component
        for row in report["rows"]:
            ratios = row["indicator_ratios"]
            assert ratios["power"] == pytest.approx(ratios["complement"], abs=1e-6)
            assert ratios["cesaro"] <= ratios["power"] + 0.02


    @pytest.mark.parametrize("degree", [None, 10], ids=["critical", "degree-10"])
    def test_section_bundle_builds_no_dense_w(self, degree):
        # W is a diagonal SparseMatrix: its norm is read off and W x summed
        # from the triplets, and the rows are those of the same bundle with
        # W stored dense
        d = 1000
        k = binomial_series(0.5, PowSign.MINUS, 1023)
        section = shift_section(k, Direction.BACKWARD, d)
        bundle = build_model(invert_kernel(k).alpha, k, section, M=degree, model_tol=2.0)
        vectors = seeded_unit_vectors(d, 2, seed=1)
        tracemalloc.start()
        try:
            report = trichotomy_test(section, bundle, vectors, n_max=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d * d  # one d x d complex matrix
        dense = dataclasses.replace(bundle, W=DenseOperator(bundle.W.entries))
        assert report == trichotomy_test(section, dense, vectors, n_max=64)
        assert (bundle.w_rank > 0) == (degree is not None)


class TestAssaniMatrix:
    def test_means_bounded_but_powers_grow(self):
        grid = sorted(set(default_n_grid(100_000, points=40) + list(range(1, 65))))
        table = cesaro1_norm_table(DenseOperator(ASSANI), grid)
        sup = max(table["mean_norms"].values())
        assert sup <= 1.0 + 1e-12
        n_last = max(table["power_norms"])
        assert table["power_norms"][n_last] / n_last == pytest.approx(2.0, abs=1e-6)

    def test_odd_means_have_unit_norm(self):
        # closed form: at odd n the order-1 mean is exactly the off-diagonal
        # unit block, giving norm 1
        table = cesaro1_norm_table(DenseOperator(ASSANI), [101, 1001])
        for value in table["mean_norms"].values():
            assert value == pytest.approx(1.0, rel=1e-12)


class TestTrendClassifier:
    def test_flat_is_bounded(self):
        grid = default_n_grid(10_000)
        trend = classify_trend(grid, np.ones(len(grid)))
        assert trend.kind == "Bounded"

    def test_saturating_is_bounded(self):
        grid = np.array(default_n_grid(10_000), dtype=float)
        trend = classify_trend(grid, 2.0 - grid**-0.1)
        assert trend.kind == "Bounded"

    def test_power_and_log(self):
        grid = np.array(default_n_grid(10_000), dtype=float)
        assert classify_trend(grid, grid**0.3).kind == "PowerGrowth"
        assert classify_trend(grid, np.log(grid)).kind == "LogGrowth"
        assert classify_trend(grid, 5.0 / grid).kind == "DecaysToZero"
