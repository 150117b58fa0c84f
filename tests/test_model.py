import math
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herop.conditions import SignPattern, generate_sign_pattern_kernel
from herop.model import (
    ModelBundle,
    ModelInvalidError,
    TailUncertifiableError,
    build_W_S,
    build_defect,
    build_model,
    build_transform,
    bundle_direct_sum,
    minimality_check,
    model_backward_matrix,
    verify_np_contraction,
    verify_relation_DCW,
)
from herop.operators import (
    ConvergenceNotCertifiedError,
    DenseOperator,
    ExactNilpotent,
    direct_sum,
    Direction,
    hereditary_apply,
    NotPSDError,
    operator_norm,
    seeded_unit_vectors,
    shift_section,
)
from herop.series import (
    Polynomial,
    reciprocal,
    PowSign,
    TruncatedSeries,
    binomial_series,
    evaluate,
    invert_kernel,
)


def poly(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=float), Polynomial(len(coeffs) - 1))


def hardy_section(d, n_weights=64):
    return shift_section(binomial_series(1.0, PowSign.MINUS, n_weights), Direction.BACKWARD, d)


def half_order_setup(d, n=127):
    alpha = binomial_series(0.5, PowSign.PLUS, n)
    k = binomial_series(0.5, PowSign.MINUS, n)
    return alpha, k, shift_section(k, Direction.BACKWARD, d)


def mueller_kernel(n=256):
    kc = (np.arange(0.0, n + 1.0) + 1.0) ** -2
    k = TruncatedSeries(kc, None)
    return invert_kernel(k), k


def random_unitary(d, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return DenseOperator(q)


class TestBuildDefect:
    def test_hardy_linear_symbol_rank_one(self):
        d_op, basis, _ = build_defect(poly(1.0, -1.0), hardy_section(4))
        np.testing.assert_allclose(d_op.entries, np.diag([1.0, 0, 0, 0]), atol=1e-12)
        assert basis.shape == (4, 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12  # constant-slot direction

    def test_half_order_square_roundtrip(self):
        alpha, _, T = half_order_setup(8)
        d_op, basis, hered = build_defect(alpha, T)
        assert basis.shape[1] == 1
        residual = np.max(np.abs(d_op.entries @ d_op.entries - hered.value.entries))
        assert residual <= 1e-12

    def test_unitary_subcritical_full_rank(self):
        (pair, k) = mueller_kernel()
        U = random_unitary(6, seed=3)
        d_op, basis, _ = build_defect(pair.alpha, U)
        alpha_one = float(np.sum(pair.alpha.coeffs))
        np.testing.assert_allclose(
            d_op.entries, np.sqrt(alpha_one) * np.eye(6), atol=1e-10
        )
        assert basis.shape[1] == 6

    def test_not_psd_raises(self):
        T = DenseOperator(2.0 * np.eye(2))
        with pytest.raises(NotPSDError):
            build_defect(poly(1.0, -1.0), T)


class TestBuildTransform:
    def test_nilpotent_exact_tail(self):
        alpha, k, T = half_order_setup(6)
        _, basis, _ = build_defect(alpha, T)
        c_mat = basis.conj().T  # D has rank one with unit eigenvalue
        V, M, tail = build_transform(c_mat, k, T)
        assert M == 5 and tail == 0.0

    def test_identity_on_matched_section(self):
        alpha, k, T = half_order_setup(16)
        d_op, basis, _ = build_defect(alpha, T)
        c_mat = basis.conj().T @ d_op.entries
        V, M, _ = build_transform(c_mat, k, T)
        sign = np.sign(V[0, 0].real)
        np.testing.assert_allclose(sign * V, np.eye(16), atol=1e-10)

    def test_scalar_closed_form(self):
        # rank-one data: ||V x||^2 = c^2 * k(q^2) * x^2 up to the tail cap
        q, c = 0.6, 0.8
        k = binomial_series(0.5, PowSign.MINUS, 512)
        T = DenseOperator(np.array([[q + 0.0j]]))
        V, M, tail = build_transform(np.array([[c + 0.0j]]), k, T, tol=1e-12)
        norm_sq = float(np.linalg.norm(V @ np.array([1.0 + 0.0j])) ** 2)
        expected = c * c * evaluate(k, q * q).value.real
        assert norm_sq == pytest.approx(expected, abs=1e-10)
        assert tail is not None and tail <= 1e-12

    def test_uncertifiable_tail_raises(self):
        U = random_unitary(3, seed=1)
        k = binomial_series(0.5, PowSign.MINUS, 64)
        with pytest.raises(TailUncertifiableError):
            build_transform(np.eye(3, dtype=complex), k, U)


class TestNPContraction:
    def test_half_order_section_contraction(self):
        alpha, k, T = half_order_setup(32)
        bundle = build_model(alpha, k, T)
        report = verify_np_contraction(alpha, T, bundle.V)
        assert report["passed"] and report["contraction_excess"] <= 1e-8

    def test_generic_contraction(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mat *= 0.9 / np.linalg.norm(mat, 2)
        T = DenseOperator(mat)
        k = binomial_series(1.0, PowSign.MINUS, 256)
        bundle = build_model(poly(1.0, -1.0), k, T, M=200)
        report = verify_np_contraction(poly(1.0, -1.0), T, bundle.V)
        assert report["contraction_excess"] <= 1e-10

    def test_refuses_non_member(self):
        T = DenseOperator(1.5 * hardy_section(8).operator().entries)
        alpha = binomial_series(0.5, PowSign.PLUS, 64)
        with pytest.raises(ModelInvalidError):
            verify_np_contraction(alpha, T, np.eye(8, dtype=complex))


class TestBuildWS:
    def test_unitary_trivial_model(self):
        # C = 0 leaves W = I and S = T
        U = random_unitary(5, seed=7)
        V = np.zeros((0, 5), dtype=complex)
        w_op, basis, s_hat, info = build_W_S(V, U)
        np.testing.assert_allclose(w_op.entries, np.eye(5), atol=1e-12)
        s_full = basis @ s_hat @ basis.conj().T
        np.testing.assert_allclose(s_full, U.entries, atol=1e-10)
        assert info["S_welldef_residual"] <= 1e-10

    def test_critical_shift_complement_vanishes(self):
        alpha, k, T = half_order_setup(32)
        bundle = build_model(alpha, k, T)
        assert operator_norm(bundle.W) <= 1e-8
        assert bundle.S.shape == (0, 0)

    def test_well_definedness_guard(self):
        # an expansive operator breaks ||Wx|| = ||WTx|| at once
        T = DenseOperator(np.diag([2.0 + 0.0j, 0.5]))
        V = np.zeros((0, 2), dtype=complex)
        with pytest.raises(ModelInvalidError):
            build_W_S(V, T)


class TestVerifyModel:
    def test_matched_section_residuals(self):
        (pair, k) = mueller_kernel()
        T = shift_section(k, Direction.BACKWARD, 64)
        bundle = build_model(pair.alpha, k, T)
        diag = bundle.diagnostics
        assert diag["intertwine_residual"] <= 1e-10
        assert diag["isometry_residual"] <= 1e-8
        assert diag["sw_residual"] <= 1e-8

    def test_unitary_model_residuals(self):
        (pair, k) = mueller_kernel(1024)
        U = random_unitary(4, seed=9)
        bundle = build_model(pair.alpha, k, U, M=1024)
        diag = bundle.diagnostics
        # truncation-dominated: residuals shrink like the kernel tail
        assert diag["isometry_residual"] <= 5e-3
        assert diag["sw_residual"] <= 1e-8

    def test_perturbation_sensitivity(self):
        (pair, k) = mueller_kernel()
        mat = np.array(shift_section(k, Direction.BACKWARD, 16).operator().entries)
        mat[3, 1] += 0.1
        try:
            bundle = build_model(pair.alpha, k, DenseOperator(mat))
        except (NotPSDError, ModelInvalidError):
            return  # refusal is the expected sensitivity signal
        diag = bundle.diagnostics
        assert max(diag["intertwine_residual"], diag["isometry_residual"]) > 1e-3

    def test_unitary_invariance_of_diagnostics(self):
        (pair, k) = mueller_kernel()
        T = shift_section(k, Direction.BACKWARD, 24)
        base = build_model(pair.alpha, k, T).diagnostics
        q = random_unitary(24, seed=11).entries
        conj = DenseOperator(q @ T.operator().entries @ q.conj().T)
        rotated = build_model(pair.alpha, k, conj).diagnostics
        for key in ("intertwine_residual", "isometry_residual", "sw_residual"):
            assert abs(base[key] - rotated[key]) <= 1e-9


class TestDefectRelation:
    def test_subcritical_unitary_with_trivial_model(self):
        (pair, k) = mueller_kernel(2048)
        rng = np.random.default_rng(1)
        U = DenseOperator(np.diag(np.exp(2j * np.pi * rng.random(8))))
        probes = seeded_unit_vectors(8, 100, seed=3)
        report = verify_relation_DCW(pair.alpha, U, np.zeros((1, 8)), np.eye(8), probes)
        assert report["residual"] <= 1e-10

    def test_subcritical_section_with_defect_transform(self):
        (pair, k) = mueller_kernel()
        T = shift_section(k, Direction.BACKWARD, 32)
        d_op, _, _ = build_defect(pair.alpha, T)
        probes = seeded_unit_vectors(32, 20, seed=5)
        report = verify_relation_DCW(
            pair.alpha, T, d_op.entries, np.zeros((32, 32)), probes
        )
        assert report["residual"] <= 1e-8

    def test_critical_case_forces_equal_norms(self):
        alpha, k, T = half_order_setup(16)
        d_op, _, _ = build_defect(alpha, T)
        probes = seeded_unit_vectors(16, 20, seed=6)
        report = verify_relation_DCW(alpha, T, d_op.entries, np.eye(16), probes)
        # alpha(1) = 0 exactly, so W drops out and ||Dx|| = ||Cx||
        assert report["alpha_at_one"] == 0.0
        assert report["residual"] <= 1e-8


class TestMinimality:
    def test_constructed_bundle_minimal(self):
        alpha, k, T = half_order_setup(16)
        bundle = build_model(alpha, k, T)
        assert minimality_check(bundle)["minimal"]

    def test_padded_defect_space_fails(self):
        alpha, k, T = half_order_setup(8)
        bundle = build_model(alpha, k, T)
        padded_basis = np.hstack([bundle.defect_basis, np.zeros((8, 1))])
        padded_c = np.vstack([bundle.C, np.zeros((1, 8))])
        fake = ModelBundle(
            D=bundle.D,
            defect_basis=padded_basis,
            C=padded_c,
            V=bundle.V,
            W=bundle.W,
            w_basis=bundle.w_basis,
            S=bundle.S,
            k=bundle.k,
            M=bundle.M,
            kind=bundle.kind,
            diagnostics=bundle.diagnostics,
        )
        assert not minimality_check(fake)["minimal"]

    def test_unitary_bundle_minimal(self):
        (pair, k) = mueller_kernel(1024)
        U = random_unitary(4, seed=13)
        bundle = build_model(pair.alpha, k, U, M=1024)
        assert minimality_check(bundle)["minimal"]


class TestSectionScaleEquivalence:
    """Model residuals and membership agree on kernel sections, including
    the two-dimensional auxiliary-space variant."""

    def test_tensor_two_sections(self):
        (pair, k) = mueller_kernel()
        t1 = shift_section(k, Direction.BACKWARD, 24)
        bundle1 = build_model(pair.alpha, k, t1)
        combined, t_sum = bundle_direct_sum(bundle1, bundle1, t1, t1)
        diag = combined.diagnostics
        assert diag["intertwine_residual"] <= 1e-10
        assert diag["isometry_residual"] <= 1e-8
        assert combined.defect_rank == 2

    def test_failing_membership_refuses_model(self):
        alpha = binomial_series(0.7, PowSign.PLUS, 64)
        k = binomial_series(0.5, PowSign.MINUS, 64)
        T = shift_section(k, Direction.BACKWARD, 16)
        with pytest.raises((NotPSDError, ModelInvalidError)):
            build_model(alpha, k, T)

    def test_diagonal_invariant_subspace_part(self):
        # a part that is not a plain leading section: the diagonal copy
        # {(f, c f)} inside the two-fold sum is invariant and modelable
        (pair, k) = mueller_kernel()
        d = 20
        section = shift_section(k, Direction.BACKWARD, d)
        t_sum = direct_sum(section.operator(), section.operator()).entries
        c = 0.75
        basis = np.zeros((2 * d, d), dtype=complex)
        basis[:d] = np.eye(d) / math.sqrt(1 + c * c)
        basis[d:] = c * np.eye(d) / math.sqrt(1 + c * c)
        # invariance of the subspace under the sum
        residual = t_sum @ basis - basis @ (basis.conj().T @ t_sum @ basis)
        assert np.linalg.norm(residual) <= 1e-12
        part = DenseOperator(basis.conj().T @ t_sum @ basis)
        bundle = build_model(pair.alpha, k, part)
        assert bundle.defect_rank == 1
        assert bundle.diagnostics["isometry_residual"] <= 1e-10
        assert bundle.diagnostics["intertwine_residual"] <= 1e-10


class TestTwoModelsSubcritical:
    def test_unitary_admits_two_verified_models(self):
        """In the subcritical case minimality does not pin the model: the
        trivial isometric model and the defect-transform model both verify,
        with residuals at the truncation scale."""
        (pair, k) = mueller_kernel(8192)
        rng = np.random.default_rng(21)
        U = DenseOperator(np.diag(np.exp(2j * np.pi * rng.random(4))))

        # model 1: C = 0, W = I, S = U
        w_op, basis, s_hat, info = build_W_S(np.zeros((0, 4), dtype=complex), U)
        assert info["S_welldef_residual"] <= 1e-10
        np.testing.assert_allclose(w_op.entries, np.eye(4), atol=1e-12)

        # model 2: V_D is an isometry up to the kernel tail
        bundle = build_model(pair.alpha, k, U, M=8192)
        assert bundle.diagnostics["isometry_residual"] <= 1e-3
        assert bundle.diagnostics["sw_residual"] <= 1e-8
        assert bundle.kind == "Subcritical"


class TestRandomInstancePipeline:
    """End-to-end property: any small sign-definite symbol yields a kernel
    whose backward section is modelable with machine-precision residuals and
    an identity transform."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_np_symbols_model_exactly(self, seed):
        rng = np.random.default_rng(seed)
        deg = int(rng.integers(1, 6))
        tail = rng.uniform(0.0, 1.0, deg)
        tail *= rng.uniform(0.3, 0.9) / max(tail.sum(), 1e-9)
        alpha = TruncatedSeries(
            np.concatenate([[1.0], -tail]), Polynomial(deg)
        )
        pair = reciprocal(alpha, 96)
        assert not pair.violations
        from herop.operators import shift_membership_backward

        membership = shift_membership_backward(pair.alpha, pair.k)
        assert membership.member  # alpha * k = 1 has non-negative coefficients
        d = int(rng.integers(4, 17))
        section = shift_section(pair.k, Direction.BACKWARD, d)
        bundle = build_model(pair.alpha, pair.k, section)
        assert bundle.diagnostics["isometry_residual"] <= 1e-10
        assert bundle.diagnostics["intertwine_residual"] <= 1e-10
        sign = np.sign(bundle.V[0, 0].real)
        assert np.max(np.abs(sign * bundle.V[:d, :d] - np.eye(d))) <= 1e-9


def random_weights(rng, n, drift):
    """Positive weights whose log-ratios scatter around drift."""
    return np.exp(np.cumsum(rng.uniform(drift - 0.3, drift + 0.3, n)))


def hereditary_or_partial(alpha, T):
    try:
        return hereditary_apply(alpha, T), False
    except ConvergenceNotCertifiedError as exc:
        return exc.partial, True


class TestStructuredPowersMatchDense:
    """Sections take closed-form powers; their dense matrices take products.
    Both must give the same hereditary sums, policies and transforms."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 128),
        forward=st.booleans(),
        drift=st.sampled_from([-0.6, -0.3, 0.0, 0.3, 0.6]),
        symbol=st.sampled_from(["binomial", "polynomial", "bare"]),
        symbol_len=st.integers(2, 160),
        degree=st.one_of(st.none(), st.integers(0, 140)),
    )
    # contracting powers: a geometric tail, and a dust-rule index below d
    @example(seed=1, d=128, forward=False, drift=0.6, symbol="binomial", symbol_len=160, degree=None)
    @example(seed=2, d=128, forward=True, drift=-0.6, symbol="bare", symbol_len=160, degree=None)
    # a certified symbol tail that the window ends before meeting
    @example(seed=3, d=64, forward=False, drift=0.0, symbol="binomial", symbol_len=20, degree=None)
    def test_sections_against_their_matrices(
        self, seed, d, forward, drift, symbol, symbol_len, degree
    ):
        rng = np.random.default_rng(seed)
        k = TruncatedSeries(random_weights(rng, d + 8, drift), None)
        section = shift_section(k, Direction.FORWARD if forward else Direction.BACKWARD, d)
        dense = section.operator()
        if symbol == "binomial":
            alpha = binomial_series(rng.uniform(0.1, 2.0), PowSign.PLUS, symbol_len)
        else:
            coeffs = rng.standard_normal(symbol_len) * 0.8 ** np.arange(symbol_len)
            gen = Polynomial(symbol_len - 1) if symbol == "polynomial" else None
            alpha = TruncatedSeries(coeffs, gen)

        fast, fast_raised = hereditary_or_partial(alpha, section)
        slow, slow_raised = hereditary_or_partial(alpha, dense)
        assert fast_raised == slow_raised
        assert type(fast.policy_used) is type(slow.policy_used)
        for field in ("order", "M"):
            assert getattr(fast.policy_used, field, None) == getattr(slow.policy_used, field, None)
        scale = np.abs(slow.abs_value.entries)
        for a, b in ((fast.value, slow.value), (fast.abs_value, slow.abs_value)):
            assert np.all(np.abs(a.entries - b.entries) <= 1e-12 * scale)

        if degree is not None and degree + 1 > k.trunc_len:
            return
        C = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        V_fast, M_fast, tail_fast = build_transform(C, k, section, M=degree)
        V_slow, M_slow, tail_slow = build_transform(C, k, dense, M=degree)
        assert M_fast == M_slow
        assert tail_fast == pytest.approx(tail_slow, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(V_fast, V_slow, rtol=1e-12, atol=0.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 48), forward=st.booleans())
    def test_unitary_conjugate_keeps_the_nilpotency_index(self, seed, d, forward):
        # Q B Q* leaves float dust far above 1e-300 in its d-th power; the
        # relative dust rule still reads the index d from the dense powers
        rng = np.random.default_rng(seed)
        k = TruncatedSeries(random_weights(rng, d + 4, 0.0), None)
        section = shift_section(k, Direction.FORWARD if forward else Direction.BACKWARD, d)
        Q = random_unitary(d, seed=seed % 1000).entries
        conjugate = DenseOperator(Q @ section.operator().entries @ Q.conj().T)
        C = np.ones((1, d), dtype=complex)
        _, M_section, tail_section = build_transform(C, k, section)
        _, M_conj, tail_conj = build_transform(C @ Q.conj().T, k, conjugate)
        assert M_section == M_conj == d - 1
        assert tail_section == 0.0 and tail_conj <= 1e-20
        alpha = binomial_series(0.5, PowSign.PLUS, 2 * d)
        assert isinstance(hereditary_apply(alpha, section).policy_used, ExactNilpotent)


class TestModelShiftMatrix:
    def test_blocks_match_kron(self):
        k = binomial_series(0.5, PowSign.MINUS, 8)
        mat = model_backward_matrix(k, 4, 2)
        assert mat.shape == (8, 8)
        # scalar couplings repeat along the auxiliary dimension
        assert mat[0, 2] == pytest.approx(np.sqrt(k.coeffs[0] / k.coeffs[1]))
        assert mat[1, 3] == pytest.approx(np.sqrt(k.coeffs[0] / k.coeffs[1]))
        assert mat[2, 4] == pytest.approx(np.sqrt(k.coeffs[1] / k.coeffs[2]))
