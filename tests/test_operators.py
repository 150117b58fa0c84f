import math

import numpy as np
import pytest

from herop.conditions import SignPattern, Verdict, generate_sign_pattern_kernel
from herop.operators import (
    BlockDiagOperator,
    ConvergenceNotCertifiedError,
    DenseOperator,
    Direction,
    ExactNilpotent,
    ExactPolynomial,
    GeometricTail,
    NotPSDError,
    Truncated,
    UnboundedShiftError,
    class_membership,
    direct_sum,
    hereditary_apply,
    hermitian_sqrt,
    is_psd,
    operator_norm,
    read_matrix_csv,
    seeded_unit_vectors,
    shift_membership_backward,
    shift_membership_forward,
    shift_section,
    spectral_radius,
    spectral_radius_gelfand,
    write_matrix_csv,
)
from herop.series import (
    Polynomial,
    PowSign,
    TruncatedSeries,
    binomial_series,
    cesaro_numbers,
)

POSITIVE = (Verdict.HOLDS, Verdict.TREND_HOLDS)


def poly(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=float), Polynomial(len(coeffs) - 1))


def backward(s, n_weights, d):
    return shift_section(binomial_series(s, PowSign.MINUS, n_weights), Direction.BACKWARD, d)


class TestShiftSection:
    def test_hardy_section(self):
        sec = shift_section(binomial_series(1.0, PowSign.MINUS, 8), Direction.BACKWARD, 3)
        mat = sec.operator().entries
        assert mat[0, 1] == 1.0 and mat[1, 2] == 1.0
        assert operator_norm(sec) == pytest.approx(1.0)
        assert sec.is_part

    def test_half_order_couplings(self):
        sec = backward(0.5, 8, 3)
        np.testing.assert_allclose(sec.couplings, [math.sqrt(2.0), math.sqrt(4.0 / 3.0)])

    def test_forward_section_norm_dominated(self):
        kappa = binomial_series(2.0, PowSign.MINUS, 16)
        sec = shift_section(kappa, Direction.FORWARD, 4)
        assert not sec.is_part
        mat = sec.operator().entries
        power = np.eye(4, dtype=complex)
        for m in range(1, 5):
            power = power @ mat
            bound = math.sqrt(kappa.coeffs[m]) if m < 4 else 0.0
            sec_norm = np.linalg.norm(power, 2)
            assert sec_norm <= math.sqrt(kappa.coeffs[m]) + 1e-12
        # the fourth power of a 4-section vanishes outright
        assert np.linalg.norm(power) == 0.0

    def test_apply_matches_matrix(self):
        sec = backward(0.5, 32, 16)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(sec.apply(v), sec.operator().entries @ v, atol=1e-14)

    def test_nilpotency_order(self):
        sec = backward(0.5, 16, 5)
        mat = sec.operator().entries
        assert np.linalg.norm(np.linalg.matrix_power(mat, 5)) == 0.0
        assert np.linalg.norm(np.linalg.matrix_power(mat, 4)) > 0.0

    def test_power_norm_law(self):
        # operator norm of the m-th power is kappa_m^(-1/2) for order 1/2
        sec = backward(0.5, 128, 64)
        kappa = cesaro_numbers(0.5, 64)
        mat = sec.operator().entries
        power = np.eye(64, dtype=complex)
        for m in range(1, 20):
            power = power @ mat
            assert np.linalg.norm(power, 2) == pytest.approx(
                kappa[m] ** -0.5, rel=1e-10
            )


class TestHereditaryApply:
    def test_linear_symbol_exact(self):
        rng = np.random.default_rng(0)
        T = DenseOperator(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        res = hereditary_apply(poly(1.0, -1.0), T)
        expected = np.eye(6) - T.entries.conj().T @ T.entries
        np.testing.assert_allclose(res.value.entries, expected, atol=1e-12)
        assert isinstance(res.policy_used, ExactPolynomial)

    def test_membership_threshold_on_sections(self):
        T = backward(0.5, 64, 16)
        inside = hereditary_apply(binomial_series(0.5, PowSign.PLUS, 63), T)
        assert isinstance(inside.policy_used, ExactNilpotent)
        assert np.min(np.linalg.eigvalsh(inside.value.entries)) >= -1e-10
        outside = hereditary_apply(binomial_series(0.7, PowSign.PLUS, 63), T)
        assert np.min(np.linalg.eigvalsh(outside.value.entries)) < -1e-6

    def test_projection_identity_for_matched_pair(self):
        # the hereditary sum of the symbol against its own kernel section is
        # the orthogonal projection onto the constant slot
        k = binomial_series(0.5, PowSign.MINUS, 64)
        alpha = binomial_series(0.5, PowSign.PLUS, 64)
        T = shift_section(k, Direction.BACKWARD, 24)
        res = hereditary_apply(alpha, T)
        expected = np.zeros((24, 24))
        expected[0, 0] = 1.0
        assert np.max(np.abs(res.value.entries - expected)) <= 1e-10

    def test_geometric_policy_scalar(self):
        T = DenseOperator(np.array([[0.6 + 0.0j]]))
        alpha = binomial_series(0.5, PowSign.PLUS, 512)
        res = hereditary_apply(alpha, T, tol=1e-12)
        assert isinstance(res.policy_used, GeometricTail)
        # scalar oracle: sum alpha_n q^(2n) = (1 - q^2)^0.5
        assert res.value.entries[0, 0].real == pytest.approx((1 - 0.36) ** 0.5, abs=1e-10)

    def test_truncated_policy_on_unitary(self):
        U = DenseOperator(np.diag(np.exp(1j * np.arange(1.0, 5.0))))
        alpha = binomial_series(0.5, PowSign.PLUS, 256)
        res = hereditary_apply(alpha, U)
        assert isinstance(res.policy_used, Truncated)
        partial = float(np.sum(alpha.coeffs))
        np.testing.assert_allclose(res.value.entries, partial * np.eye(4), atol=1e-12)

    def test_n_cap_error_carries_partial(self):
        T = DenseOperator(np.array([[0.999 + 0.0j]]))
        alpha = binomial_series(0.5, PowSign.PLUS, 2048)
        with pytest.raises(ConvergenceNotCertifiedError) as info:
            hereditary_apply(alpha, T, tol=1e-14, n_cap=8)
        assert info.value.partial.value.entries.shape == (1, 1)

    def test_direct_sum_additivity(self):
        alpha = binomial_series(0.5, PowSign.PLUS, 32)
        t1 = backward(0.5, 32, 6)
        t2 = backward(1.0, 32, 5)
        combined = hereditary_apply(alpha, direct_sum(t1.operator(), t2.operator()))
        block = direct_sum(
            hereditary_apply(alpha, t1).value, hereditary_apply(alpha, t2).value
        )
        assert np.max(np.abs(combined.value.entries - block.entries)) <= 1e-12


class TestClassMembership:
    def test_unitary_with_summable_symbol(self):
        rng = np.random.default_rng(2)
        U = DenseOperator(np.diag(np.exp(2j * np.pi * rng.random(6))))
        probes = seeded_unit_vectors(6, 4, seed=1)
        pos = class_membership(poly(1.0, -0.5), U, probes)
        assert pos.in_Cw is Verdict.HOLDS and pos.in_Cw_plus is Verdict.HOLDS
        neg = class_membership(poly(1.0, -2.0), U, probes)
        assert neg.in_Cw is Verdict.HOLDS and neg.in_Cw_plus is Verdict.FAILS

    def test_expansive_scalar_fails_positivity(self):
        T = DenseOperator(np.array([[2.0 + 0.0j]]))
        report = class_membership(poly(1.0, -1.0), T, [np.array([1.0 + 0.0j])])
        assert report.in_Cw is Verdict.HOLDS  # finite sum always converges
        assert report.in_Cw_plus is Verdict.FAILS

    def test_nilpotent_with_nonsummable_symbol(self):
        n = np.arange(1.0, 65.0)
        alpha = TruncatedSeries(np.concatenate([[1.0], -1.0 / np.sqrt(n)]), None)
        T = backward(0.5, 64, 8)
        report = class_membership(alpha, T, seeded_unit_vectors(8, 4, seed=0))
        assert report.in_Cw is Verdict.HOLDS
        assert spectral_radius(T) <= 1e-8  # spectrum inside the open disc

    def test_requires_unit_probes(self):
        with pytest.raises(ValueError):
            class_membership(poly(1.0, -1.0), DenseOperator(np.eye(2)), [np.ones(2)])

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize(
        "alpha",
        [
            binomial_series(0.5, PowSign.PLUS, 63),
            binomial_series(0.7, PowSign.PLUS, 63),
            poly(1.0, -0.5, -0.25),
            poly(1.0, -2.0),
            TruncatedSeries(np.concatenate([[1.0], -1.0 / np.arange(1.0, 64.0)]), None),
            TruncatedSeries(np.array([1.0, -0.5, -0.2, -0.1]), None),
        ],
        ids=["binom-half", "binom-0.7", "poly", "poly-expansive", "bare", "bare-short"],
    )
    def test_section_and_its_matrix_agree(self, direction, alpha):
        # closed-form section powers against the dense products of operator()
        T = shift_section(binomial_series(0.5, PowSign.MINUS, 64), direction, 24)
        probes = seeded_unit_vectors(24, 6, seed=3)
        fast = class_membership(alpha, T, probes)
        slow = class_membership(alpha, T.operator(), probes)
        assert (fast.in_Cw, fast.in_Cw_plus) == (slow.in_Cw, slow.in_Cw_plus)
        assert fast.witness["policy"] == slow.witness["policy"]
        np.testing.assert_allclose(
            fast.witness["per_vector_sums"], slow.witness["per_vector_sums"], rtol=1e-12
        )
        assert fast.witness["min_eigenvalue"] == pytest.approx(
            slow.witness["min_eigenvalue"], abs=1e-12 * slow.witness["value_norm"]
        )


class TestShiftMembershipBackward:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0])
    def test_order_threshold(self, a, s):
        alpha = binomial_series(a, PowSign.PLUS, 512)
        kappa = binomial_series(s, PowSign.MINUS, 512)
        report = shift_membership_backward(alpha, kappa)
        assert report.member == (a <= s)

    def test_matched_pair_is_member(self):
        alpha = poly(1.0, -1.0)
        kappa = binomial_series(1.0, PowSign.MINUS, 256)
        report = shift_membership_backward(alpha, kappa)
        assert report.in_Cw_plus is Verdict.HOLDS
        assert report.min_coefficient >= -1e-14

    def test_generated_pair_is_member(self):
        pair, _ = generate_sign_pattern_kernel(SignPattern.from_string("+-"), 256)
        report = shift_membership_backward(pair.alpha, pair.k)
        assert report.in_Cw_plus is Verdict.HOLDS

    def test_unbounded_weights_raise(self):
        kappa = TruncatedSeries(1.0 / np.cumprod(np.concatenate([[1.0], np.arange(1.0, 64.0)])), None)
        with pytest.raises(UnboundedShiftError):
            shift_membership_backward(poly(1.0, -1.0), kappa)


class TestShiftMembershipForward:
    def test_expansive_weight_fails(self):
        kappa = TruncatedSeries(np.arange(1.0, 257.0), None)
        report = shift_membership_forward(poly(1.0, -1.0), kappa)
        assert report.in_Cw_plus is Verdict.FAILS
        assert report.min_coefficient == pytest.approx(-1.0)

    def test_contractive_weight_holds(self):
        kappa = TruncatedSeries(2.0 ** -np.arange(0.0, 257.0), None)
        report = shift_membership_forward(poly(1.0, -1.0), kappa)
        assert report.in_Cw_plus is Verdict.HOLDS

    def test_half_order_against_brute_force(self):
        n_big = 100_000
        alpha = binomial_series(0.5, PowSign.PLUS, 512)
        kappa = binomial_series(0.5, PowSign.MINUS, 1024)
        report = shift_membership_forward(alpha, kappa)
        assert report.in_Cw_plus is Verdict.HOLDS
        # brute-force oracle at much larger truncation, for a few m
        a_big = binomial_series(0.5, PowSign.PLUS, n_big).coeffs
        k_big = cesaro_numbers(0.5, n_big + 8)
        for m in (0, 1, 5):
            value = float(np.dot(a_big, k_big[m : m + n_big + 1]))
            # analytic tail: |alpha| tail * decreasing kappa
            tail = abs(float(np.sum(a_big))) * k_big[m + n_big]
            assert value >= -tail - 1e-12


class TestSpectralQuantities:
    def test_sqrt_identity(self):
        root = hermitian_sqrt(np.eye(3))
        np.testing.assert_allclose(root.entries, np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        root = hermitian_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(root.entries, np.diag([2.0, 3.0]), atol=1e-13)

    def test_defect_square_roundtrip(self):
        T = shift_section(binomial_series(1.0, PowSign.MINUS, 8), Direction.BACKWARD, 4)
        mat = T.operator().entries
        gram = np.eye(4) - mat.conj().T @ mat
        root = hermitian_sqrt(gram)
        np.testing.assert_allclose(root.entries @ root.entries, gram, atol=1e-12)
        np.testing.assert_allclose(root.entries, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotPSDError) as info:
            hermitian_sqrt(np.diag([1.0, -0.5]))
        assert info.value.min_eigenvalue == pytest.approx(-0.5)

    def test_is_psd(self):
        assert is_psd(np.diag([1.0, 0.0]))
        assert not is_psd(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gelfand_matches_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(8, 64))
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho_eig = float(np.max(np.abs(np.linalg.eigvals(mat))))
        rho_gel = spectral_radius_gelfand(mat, tol=1e-8)
        assert rho_gel == pytest.approx(rho_eig, rel=1e-5)

    def test_radius_of_nilpotent_is_zero(self):
        assert spectral_radius(backward(0.5, 16, 8)) <= 1e-12


class TestPartInheritance:
    @pytest.mark.parametrize("a,s", [(0.25, 0.5), (0.5, 0.5), (0.75, 1.0), (0.25, 1.0)])
    def test_leading_sections_inherit_membership(self, a, s):
        alpha = binomial_series(a, PowSign.PLUS, 32)
        kappa = binomial_series(s, PowSign.MINUS, 32)
        big = hereditary_apply(alpha, shift_section(kappa, Direction.BACKWARD, 12))
        small = hereditary_apply(alpha, shift_section(kappa, Direction.BACKWARD, 6))
        if np.min(np.linalg.eigvalsh(big.value.entries)) >= -1e-12:
            assert np.min(np.linalg.eigvalsh(small.value.entries)) >= -1e-12
        # the smaller section is the leading principal block of the larger
        np.testing.assert_allclose(
            big.value.entries[:6, :6], small.value.entries, atol=1e-12
        )

    def test_radius_bounded_by_symbol_convergence_radius(self):
        # positive-class members have squared spectral radius at most the
        # convergence radius of the symbol (estimated from coefficients)
        alpha = binomial_series(0.5, PowSign.PLUS, 256)
        r_est = float(np.abs(alpha.coeffs[-1]) ** (-1.0 / alpha.degree))
        for T in (backward(0.5, 32, 8), DenseOperator(np.diag(np.exp(1j * np.arange(3.0))))):
            rho = spectral_radius(T)
            assert rho**2 <= r_est + 0.05


class TestBlockDiagAndIO:
    def test_blockdiag_apply(self):
        sec = backward(0.5, 16, 8)
        U = DenseOperator(np.diag(np.exp(1j * np.array([0.3, 1.1]))))
        block = BlockDiagOperator((sec, U))
        rng = np.random.default_rng(7)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        np.testing.assert_allclose(block.apply(v), block.operator().entries @ v, atol=1e-13)

    def test_matrix_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), mat)
        back = read_matrix_csv(str(path))
        np.testing.assert_allclose(back.entries, mat, rtol=1e-15)


class TestIsometryDecidability:
    """On an isometry the hereditary value is the symbol's boundary value
    times the identity, so certified boundary values decide membership."""

    def test_critical_symbol_holds_exactly(self):
        rng = np.random.default_rng(2)
        U = DenseOperator(np.diag(np.exp(2j * np.pi * rng.random(6))))
        probes = seeded_unit_vectors(6, 4, seed=1)
        report = class_membership(binomial_series(0.5, PowSign.PLUS, 1024), U, probes)
        assert report.in_Cw is Verdict.HOLDS
        assert report.in_Cw_plus is Verdict.HOLDS
        assert report.witness["boundary_value"] == 0.0

    def test_uncertified_symbol_stays_trend(self):
        rng = np.random.default_rng(3)
        U = DenseOperator(np.diag(np.exp(2j * np.pi * rng.random(4))))
        n = np.arange(1.0, 257.0)
        alpha = TruncatedSeries(np.concatenate([[1.0], -0.4 * 2.0**-n]), None)
        report = class_membership(alpha, U, seeded_unit_vectors(4, 3, seed=2))
        assert report.in_Cw_plus in (Verdict.TREND_HOLDS, Verdict.TREND_FAILS)
