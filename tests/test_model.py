import math
import tracemalloc
import unittest.mock
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herop import model, operators
from herop.model import (
    _norm2,
    ModelBundle,
    ModelInvalidError,
    TailUncertifiableError,
    build_W_S,
    build_defect,
    build_model,
    build_transform,
    bundle_direct_sum,
    minimality_check,
    verify_model,
    verify_relation_DCW,
)
from herop.operators import (
    ConvergenceNotCertifiedError,
    DenseOperator,
    ExactNilpotent,
    ExactPolynomial,
    GeometricTail,
    HereditaryResult,
    direct_sum,
    Direction,
    hereditary_apply,
    NotPSDError,
    operator_norm,
    seeded_unit_vectors,
    shift_section,
    ShiftSection,
    SparseMatrix,
    Truncated,
)
from herop.specdsl import elaborate, parse_kernel_spec
from herop.series import (
    NumericalFailure,
    Polynomial,
    abs_tail_bound,
    reciprocal,
    PowSign,
    TruncatedSeries,
    binomial_series,
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
        expected = c * c * np.sum(k.coeffs * (q * q) ** np.arange(k.trunc_len))
        assert norm_sq == pytest.approx(expected, abs=1e-10)
        assert tail is not None and tail <= 1e-12

    def test_nonpositive_kernel_refused(self):
        # (1-t)**1.5 has k_1 = -1.5: refused before its square root is taken
        k = binomial_series(1.5, PowSign.PLUS, 64)
        T = DenseOperator(0.5 * np.eye(2))
        with pytest.raises(ValueError, match="must be positive"):
            build_transform(np.eye(2, dtype=complex), k, T, M=4)

    def test_uncertifiable_tail_raises(self):
        U = random_unitary(3, seed=1)
        k = binomial_series(0.5, PowSign.MINUS, 64)
        with pytest.raises(TailUncertifiableError):
            build_transform(np.eye(3, dtype=complex), k, U)


class TestNPContraction:
    """For a Nevanlinna-Pick symbol the model transform V is a contraction."""

    def test_half_order_section_contraction(self):
        alpha, k, T = half_order_setup(32)
        bundle = build_model(alpha, k, T)
        assert np.linalg.norm(bundle.V, 2) <= 1.0 + 1e-8

    def test_generic_contraction(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mat *= 0.9 / np.linalg.norm(mat, 2)
        T = DenseOperator(mat)
        k = binomial_series(1.0, PowSign.MINUS, 256)
        bundle = build_model(poly(1.0, -1.0), k, T, M=200)
        assert np.linalg.norm(bundle.V, 2) <= 1.0 + 1e-10


class TestBuildWS:
    def test_unitary_trivial_model(self):
        # C = 0 leaves W = I and S = T
        U = random_unitary(5, seed=7)
        V = np.zeros((0, 5), dtype=complex)
        w_op, basis, s_hat, info, _ = build_W_S(V, U)
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

    def test_infinite_alpha_at_one_against_vanishing_wx_is_still_checked(self):
        # alpha = 1/(1-t) has alpha(1) = inf; on T = 0, D = I while C = W = 0,
        # so ||Dx||^2 = 1 and the relation fails by 1.  The term
        # alpha(1) ||Wx||^2 = inf * 0 must count as 0, not as a skipped NaN
        alpha = binomial_series(1.0, PowSign.MINUS, 8)
        zero = np.zeros((1, 1))
        report = verify_relation_DCW(alpha, DenseOperator(zero), zero, zero, [np.ones(1)])
        assert report["alpha_at_one"] == math.inf
        assert report["residual"] == 1.0


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
        w_op, basis, s_hat, info, _ = build_W_S(np.zeros((0, 4), dtype=complex), U)
        assert info["S_welldef_residual"] <= 1e-10
        np.testing.assert_allclose(w_op.entries, np.eye(4), atol=1e-12)

        # model 2: V_D is an isometry up to the kernel tail
        bundle = build_model(pair.alpha, k, U, M=8192)
        assert bundle.diagnostics["isometry_residual"] <= 1e-3
        assert bundle.diagnostics["sw_residual"] <= 1e-8
        assert bundle.kind == "Subcritical"


class TestNoEigensolve:
    def test_build_and_relation_solve_no_eigenvalue_problem(self, monkeypatch):
        # the walk's own norms certify every tail: neither the model, nor
        # the defect relation, nor the degree cap asks for T's eigenvalues
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: shapes.append(m.shape) or eigvals(m))
        g = np.random.default_rng(4).standard_normal((8, 8))
        T = DenseOperator(0.7 * g / np.linalg.norm(g, 2))
        alpha = binomial_series(1.0, PowSign.PLUS, 255)
        k = binomial_series(1.0, PowSign.MINUS, 255)
        bundle = build_model(alpha, k, T)
        probes = seeded_unit_vectors(8, 4, seed=1)
        verify_relation_DCW(alpha, T, bundle.C, bundle.W.entries, probes)
        assert shapes == []


class TestNorm2:
    """The Gram route for tall matrices against the SVD it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 40),
        st.integers(-250, 250),
        st.integers(0, 2**32 - 1),
    )
    @example(n=24, ratio=40, exponent=-200, seed=0)
    @example(n=3, ratio=2, exponent=250, seed=1)
    def test_matches_the_svd_norm(self, n, ratio, exponent, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(n, ratio * n + 1))
        x = 10.0**exponent * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        assert _norm2(x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-14, abs=0.0)

    def test_zero_matrix(self):
        assert _norm2(np.zeros((40, 4), dtype=complex)) == 0.0

    def test_tiny_residual_does_not_underflow(self):
        # an unscaled Gram squares the entries to ~1e-400, i.e. to 0
        x = 1e-200 * np.random.default_rng(3).standard_normal((120, 6)).astype(complex)
        assert np.linalg.eigvalsh(x.conj().T @ x)[-1] == 0.0
        assert _norm2(x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-14, abs=0.0)


class TestNoTallSVD:
    def test_dense_model_takes_no_svd_of_a_tall_matrix(self, monkeypatch):
        # the intertwining residual and V are (M+1)*d x d here: their norms
        # come from Grams, and ||V|| is computed once, by build_W_S.  Of the
        # square SVDs only minimality's of C and S W - W T's are left, and
        # build_W_S solves one Hermitian eigenproblem, that of I - V*V
        g = np.random.default_rng(4).standard_normal((12, 12))
        T = DenseOperator(0.7 * g / np.linalg.norm(g, 2))
        linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        svd = np.linalg.svd
        shapes = []
        in_w_s = []
        solves = {"eigh": 0, "eigvalsh": 0}

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def solver(name):
            solve = getattr(np.linalg, name)

            def run(a, *args, **kwargs):
                solves[name] += bool(in_w_s)
                return solve(a, *args, **kwargs)

            return run

        build_w_s = model.build_W_S

        def traced_w_s(*args, **kwargs):
            in_w_s.append(True)
            try:
                return build_w_s(*args, **kwargs)
            finally:
                in_w_s.pop()

        monkeypatch.setattr(linalg, "svd", counted)  # what np.linalg.norm calls
        monkeypatch.setattr(np.linalg, "svd", counted)
        for name in solves:
            monkeypatch.setattr(np.linalg, name, solver(name))
        monkeypatch.setattr(model, "build_W_S", traced_w_s)
        alpha = binomial_series(1.0, PowSign.PLUS, 255)
        k = binomial_series(1.0, PowSign.MINUS, 255)
        bundle = build_model(alpha, k, T)
        minimality_check(bundle)
        probes = seeded_unit_vectors(12, 4, seed=1)
        verify_relation_DCW(alpha, T, bundle.C, bundle.W.entries, probes)
        assert bundle.defect_rank == 12 and bundle.V.shape[0] > 12
        assert shapes and all(rows <= cols for rows, cols in shapes)
        assert sum(rows == cols for rows, cols in shapes) <= 2
        assert solves == {"eigh": 1, "eigvalsh": 0}
        monkeypatch.undo()
        excess = max(0.0, float(np.linalg.norm(bundle.V, 2)) - 1.0)
        assert abs(bundle.diagnostics["contraction_excess"] - excess) <= 1e-14


def tall_residuals(T, bundle):
    """The intertwining and isometry residuals from the whole (M+1)*r x d
    matrices and their SVDs, as formed before the products went by chunks."""
    mat = T.operator().entries
    r, V = bundle.defect_rank, bundle.V
    kc = bundle.k.coeffs[: bundle.M + 1]
    shifted = np.zeros_like(V)
    if bundle.M >= 1:
        shifted[: bundle.M * r] = np.repeat(np.sqrt(kc[:-1] / kc[1:]), r)[:, None] * V[r:]
    w_mat = bundle.W.entries
    joint = V.conj().T @ V + w_mat @ w_mat - np.eye(mat.shape[0])
    return np.linalg.norm(shifted - V @ mat, 2), np.linalg.norm(joint, 2)


def residual_bundle(rng, T, r, M, scale):
    """A bundle of the model's shapes with random V (times scale), W and k."""
    d = T.dim
    V = scale * (rng.standard_normal(((M + 1) * r, d)) + 1j * rng.standard_normal(((M + 1) * r, d)))
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return ModelBundle(
        D=DenseOperator(np.eye(d)),
        defect_basis=np.zeros((d, r), dtype=complex),
        C=np.zeros((r, d), dtype=complex),
        V=V,
        W=DenseOperator(0.25 * (h + h.conj().T)),
        w_basis=np.zeros((d, 0), dtype=complex),
        S=np.zeros((0, 0), dtype=complex),
        k=TruncatedSeries(random_weights(rng, M + 1, 0.0), None),
        M=M,
        kind="Subcritical",
        diagnostics={},
    )


class TestChunkedResiduals:
    """verify_model's row-chunked products against the tall formulas."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["dense", "backward", "forward"]),
        d=st.integers(1, 128),
        M=st.integers(0, 30),
        exponent=st.integers(-200, 0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="dense", d=48, M=0, exponent=-200, seed=0)
    @example(kind="dense", d=48, M=30, exponent=0, seed=1)
    @example(kind="backward", d=128, M=0, exponent=0, seed=2)
    @example(kind="forward", d=128, M=30, exponent=-200, seed=3)
    def test_match_the_tall_formulas(self, kind, d, M, exponent, seed):
        rng = np.random.default_rng(seed)
        if kind == "dense":  # r = d
            d = min(d, 48)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            T, r = DenseOperator(0.7 * g / np.linalg.norm(g, 2)), d
        else:  # r = 1
            kappa = TruncatedSeries(random_weights(rng, d + 4, 0.0), None)
            direction = Direction.BACKWARD if kind == "backward" else Direction.FORWARD
            T, r = shift_section(kappa, direction, d), 1
        bundle = residual_bundle(rng, T, r, M, 10.0**exponent)
        intertwine, isometry = tall_residuals(T, bundle)
        for gram in (None, bundle.V.conj().T @ bundle.V):
            got = verify_model(T, bundle, gram)
            # abs=0: pytest's default absolute 1e-12 would pass any tiny residual
            assert got["intertwine_residual"] == pytest.approx(intertwine, rel=1e-14, abs=0.0)
            assert got["isometry_residual"] == pytest.approx(isometry, rel=1e-14, abs=0.0)

    def test_traced_peak_stays_below_eight_squares(self, monkeypatch):
        # V is (M+1) d x d; every temporary of build_W_S and verify_model is
        # at most d x d, and at most eight of them are alive at once
        d = 48
        rng = np.random.default_rng(4)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        T = DenseOperator(0.7 * g / np.linalg.norm(g, 2))
        k = binomial_series(0.5, PowSign.MINUS, 1023)
        peaks = {}

        def traced(name):
            stage = getattr(model, name)

            def run(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = stage(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
                return out

            return run

        for name in ("build_W_S", "verify_model"):
            monkeypatch.setattr(model, name, traced(name))
        tracemalloc.start()
        try:
            bundle = build_model(invert_kernel(k).alpha, k, T)
        finally:
            tracemalloc.stop()
        square = d * d * 16
        assert bundle.defect_rank == d and bundle.M >= 20
        assert bundle.V.nbytes == (bundle.M + 1) * square
        assert set(peaks) == {"build_W_S", "verify_model"}
        assert all(peak < 8 * square for peak in peaks.values()), peaks


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
        # sum_{n <= M} |alpha_n| T*^n T^n over the terms the policy summed
        policy = slow.policy_used
        top = policy.order if isinstance(policy, ExactNilpotent) else policy.M
        mat = dense.entries
        power = np.eye(d, dtype=complex)
        scale = abs(alpha.coeffs[0]) * power
        for n in range(1, top + 1):
            power = power @ mat
            scale += abs(alpha.coeffs[n]) * (power.conj().T @ power)
        diff = np.abs(fast.value.entries - slow.value.entries)
        assert np.all(diff <= 1e-12 * np.abs(scale))

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


class WalkedSection:
    """A section read one power at a time: the Gram diagonal of T^n is
    k_{j-n}/k_j at j >= n (backward) or k_{j+n}/k_j at j < d-n (forward),
    and ||T^n||_F the square root of its sum.  The Grams go out as diagonal
    matrices, so hereditary_apply adds them by its general loop."""

    def __init__(self, section):
        self.section, self.dim = section, section.dim

    def diagonals(self):
        """(||T^n||_F, the Gram diagonal of T^n) for n = 1..d."""
        k, d = self.section.kappa.coeffs[: self.dim], self.dim
        for n in range(1, d + 1):
            gram = np.zeros(d)
            if self.section.direction is Direction.BACKWARD:
                gram[n:] = k[: d - n] / k[n:]
            else:
                gram[: d - n] = k[n:] / k[: d - n]
            yield math.sqrt(float(np.sum(gram))), gram

    def powers(self, grams=False):
        for fro, gram in self.diagonals():
            yield fro, (np.diag(gram) if grams else None)


def degree_cap_or_refusal(c_norm, k, T, M):
    try:
        return model._degree_cap(c_norm, k, T, M, 1e-10)
    except (TailUncertifiableError, ValueError) as exc:
        return type(exc), str(exc)


def assert_norms_match_the_walk(section):
    """The section's norms within 1e-13 relative of the walk's, with the
    same zeros."""
    norms = np.array([fro for fro, _ in section.powers()])
    walk_norms = np.array([fro for fro, _ in WalkedSection(section).powers()])
    assert np.array_equal(norms == 0.0, walk_norms == 0.0)
    np.testing.assert_allclose(norms, walk_norms, rtol=1e-13, atol=0.0)


def assert_sum_within_gamma(section, coeffs, h, walk_h):
    """h and walk_h, two sums of the terms coeffs[n] T*^n T^n, within
    4 (d + len(coeffs)) u of the sum of their absolute values."""
    bound = 4 * (section.dim + coeffs.size) * 2.0**-53 * section.gram_sum(np.abs(coeffs))
    assert np.all(np.abs(h - walk_h) <= bound)


def sums_against_walk(seed, d, forward, drift, symbol, limit, degree):
    """Compare a section's two products with the walk that forms and adds
    one Gram diagonal per power: the norms, the hereditary sum's raised
    flag, policy, terms and diagonal, and _degree_cap's M and tail.
    Returns the walk's policy."""
    rng = np.random.default_rng(seed)
    k = TruncatedSeries(random_weights(rng, d + 8, drift), None)
    if symbol == "binomial":
        alpha = binomial_series(rng.uniform(0.1, 2.0), PowSign.PLUS, limit)
    else:
        coeffs = rng.standard_normal(limit + 1) * 0.8 ** np.arange(limit + 1)
        alpha = TruncatedSeries(coeffs, Polynomial(limit) if symbol == "polynomial" else None)
    section = shift_section(k, Direction.FORWARD if forward else Direction.BACKWARD, d)
    walked = WalkedSection(section)
    assert_norms_match_the_walk(section)

    c_norm = rng.uniform(0.1, 2.0)
    cap = degree_cap_or_refusal(c_norm, k, section, degree)
    walk_cap = degree_cap_or_refusal(c_norm, k, walked, degree)
    if isinstance(walk_cap[0], type) or walk_cap[1] is None:
        assert cap == walk_cap
    else:
        assert cap[0] == walk_cap[0]
        assert cap[1] == pytest.approx(walk_cap[1], rel=1e-12, abs=0.0)

    new, new_raised = hereditary_or_partial(alpha, section)
    walk, walk_raised = hereditary_or_partial(alpha, walked)
    assert new_raised == walk_raised
    policy, walk_policy = new.policy_used, walk.policy_used
    assert type(policy) is type(walk_policy)
    assert getattr(policy, "M", None) == getattr(walk_policy, "M", None)
    assert getattr(policy, "order", None) == getattr(walk_policy, "order", None)
    assert new.terms == pytest.approx(walk.terms, rel=1e-12, abs=0.0)
    kept = policy.order - 1 if isinstance(policy, ExactNilpotent) else policy.M
    walk_h = walk.value.entries.diagonal().real
    assert_sum_within_gamma(section, alpha.coeffs[: kept + 1], new.value.vals, walk_h)
    return walk_policy


class TestSectionSumsMatchTheWalk:
    """A section's norms and hereditary diagonal are two products of its
    weights (series._convolve); both must match, to rounding, the walk that
    forms and adds one Gram diagonal per power, and choose what it chooses."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 64),
        forward=st.booleans(),
        drift=st.sampled_from([-2.0, -0.6, -0.3, 0.0, 0.3, 0.6]),
        symbol=st.sampled_from(["binomial", "polynomial", "bare"]),
        limit=st.integers(1, 63),
        degree=st.one_of(st.none(), st.integers(0, 70)),
    )
    # steeply decreasing forward weights: a certified geometric tail at M = 14
    @example(seed=2, d=64, forward=True, drift=-2.0, symbol="binomial", limit=63, degree=None)
    def test_hereditary_sum_and_degree_cap(self, seed, d, forward, drift, symbol, limit, degree):
        sums_against_walk(seed, d, forward, drift, symbol, min(limit, d - 1), degree)

    def test_steep_forward_weights_reach_the_geometric_tail(self):
        policy = sums_against_walk(2, 64, True, -2.0, "binomial", 63, None)
        assert isinstance(policy, GeometricTail) and policy.M == 14 and policy.tail_bound > 0.0

    @pytest.mark.parametrize("direction", list(Direction))
    def test_blocked_products_match_the_walk(self, direction):
        # d = 9000 puts both products on series._blocked_product's GEMMs
        d = 9000
        k = TruncatedSeries(random_weights(np.random.default_rng(9), d, 0.0), None)
        section = shift_section(k, direction, d)
        assert_norms_match_the_walk(section)
        coeffs = binomial_series(0.5, PowSign.PLUS, d - 1).coeffs
        walk_h = coeffs[0] * np.ones(d)
        for c, (_, gram) in zip(coeffs[1:], WalkedSection(section).diagonals()):
            walk_h += c * gram
        assert_sum_within_gamma(section, coeffs, section.gram_sum(coeffs), walk_h)

    @pytest.mark.parametrize(
        "weights, direction, what, degree",
        [
            ([1e-300, 1e-305, 1e-309], Direction.BACKWARD, "reciprocal", 2),
            ([1e-300, 1e-305, 1e-309], Direction.FORWARD, "reciprocal", 2),
            ([1.0, 1e300, 1e-300], Direction.BACKWARD, "power norm", 1),
        ],
    )
    def test_norms_past_float_range_are_refused(self, weights, direction, what, degree):
        # 1 / 1e-309 overflows; so does k_1 * (1 / k_2) = 1e600
        section = shift_section(TruncatedSeries(np.array(weights), None), direction, 3)
        with pytest.raises(NumericalFailure, match=f"{what} overflowed at degree {degree}") as exc:
            hereditary_apply(poly(1.0, -0.5, 0.1), section)
        assert exc.value.witness == {"degree": degree}


def build_or_refusal(alpha, k, T, M=None):
    try:
        return build_model(alpha, k, T, M=M)
    except (ModelInvalidError, NotPSDError, TailUncertifiableError, ConvergenceNotCertifiedError,
            ValueError) as exc:
        return exc


RESIDUALS = (
    "intertwine_residual", "isometry_residual", "sw_residual", "S_welldef_residual",
    "polar_correction", "contraction_excess", "truncation_tail_bound",
)


class TestSectionModelMatchesDense:
    """build_model builds a section in closed form; on the section's dense
    matrix it runs the dense pipeline.  Both must give the same model."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 128),
        forward=st.booleans(),
        weights=st.sampled_from(["k", "binomial", "random"]),
        s=st.sampled_from([0.25, 0.5, 1.0]),
        degree=st.one_of(st.none(), st.integers(0, 140)),
    )
    # rank 1 (kappa = k), rank d backward and forward, and a cap below d
    @example(seed=0, d=128, forward=False, weights="k", s=0.5, degree=None)
    @example(seed=1, d=128, forward=False, weights="binomial", s=0.5, degree=None)
    @example(seed=2, d=96, forward=True, weights="binomial", s=0.25, degree=None)
    @example(seed=3, d=64, forward=False, weights="k", s=0.5, degree=10)
    def test_against_the_dense_pipeline(self, seed, d, forward, weights, s, degree):
        rng = np.random.default_rng(seed)
        n = d + 8
        alpha, k = binomial_series(s, PowSign.PLUS, n), binomial_series(s, PowSign.MINUS, n)
        if weights == "k":
            kappa = k
        elif weights == "binomial":  # (alpha * kappa)_j >= 0 backward: rank d
            kappa = binomial_series(s + rng.uniform(0.1, 1.0), PowSign.MINUS, n)
        else:
            kappa = TruncatedSeries(random_weights(rng, n + 1, 0.0), None)
        section = shift_section(kappa, Direction.FORWARD if forward else Direction.BACKWARD, d)
        fast = build_or_refusal(alpha, k, section, degree)
        slow = build_or_refusal(alpha, k, section.operator(), degree)
        assert type(fast) is type(slow)
        if isinstance(fast, Exception):
            for key, value in getattr(slow, "witness", {}).items():
                assert fast.witness[key] == pytest.approx(value, rel=0.0, abs=1e-12)
            return
        assert (fast.defect_rank, fast.w_rank, fast.M) == (slow.defect_rank, slow.w_rank, slow.M)
        assert fast.diagnostics["policy"] == slow.diagnostics["policy"]
        assert minimality_check(fast) == minimality_check(slow)
        for name in ("D", "W"):
            got, want = getattr(fast, name).entries, getattr(slow, name).entries
            assert np.max(np.abs(got - want)) <= 1e-12, name
        assert fast.V.shape == slow.V.shape
        assert np.max(np.abs(fast.V - slow.V), initial=0.0) <= 1e-12
        for key in RESIDUALS:
            want = pytest.approx(slow.diagnostics[key], rel=0.0, abs=1e-12)
            assert fast.diagnostics[key] == want, key
        passed = [
            all(b.diagnostics[key] <= 1e-8 for key in RESIDUALS[:2] + ("S_welldef_residual",))
            for b in (fast, slow)
        ]
        assert passed[0] == passed[1]

    @pytest.mark.parametrize(
        "scale, error, message",
        [
            (1.1, ModelInvalidError, "transform norm"),  # norm first: I - V*V is not PSD either
            (1.0 + 1e-9, NotPSDError, "most negative eigenvalue"),
        ],
    )
    def test_refusals_come_in_the_dense_order(self, scale, error, message):
        # k scaled up makes V*V = scale * I.  The symmetry check between the
        # two cannot fire on a section, whose V*V is real and diagonal
        alpha, k, T = half_order_setup(32)
        scaled = TruncatedSeries(scale * k.coeffs, None)
        for op in (T, T.operator()):
            with pytest.raises(error, match=message):
                build_model(alpha, scaled, op)

    def test_section_with_an_isometry(self):
        # a cap below the nilpotency index with a loose tolerance: W is
        # diag(0, ..., 0, 1, ..., 1) and S a shift with one completed column
        # (any isometric completion is admissible; here S W - W T has one
        # entry per row and column whichever is taken)
        alpha, k, T = half_order_setup(24)
        bundle = build_model(alpha, k, T, M=9, model_tol=2.0)
        dense = build_model(alpha, k, T.operator(), M=9, model_tol=2.0)
        assert bundle.w_rank == dense.w_rank == 14
        assert np.array_equal(bundle.S.conj().T @ bundle.S, np.eye(14))
        for key in RESIDUALS:
            want = pytest.approx(dense.diagnostics[key], rel=0.0, abs=1e-12)
            assert bundle.diagnostics[key] == want, key


class TestSectionTakesNoFactorisation:
    @pytest.mark.parametrize("case", ["rank one", "rank d", "forward", "with S"])
    def test_no_dense_solver_runs(self, monkeypatch, case):
        alpha, k = binomial_series(0.5, PowSign.PLUS, 255), binomial_series(0.5, PowSign.MINUS, 255)
        kappa, direction, M, tol = k, Direction.BACKWARD, None, 1e-8
        if case in ("rank d", "forward"):
            kappa = binomial_series(1.0, PowSign.MINUS, 255)
            direction = Direction.FORWARD if case == "forward" else Direction.BACKWARD
        if case == "with S":
            M, tol = 10, 2.0
        T = shift_section(kappa, direction, 64)
        linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        calls = []

        def counted(name, solve):
            return lambda *args, **kwargs: calls.append(name) or solve(*args, **kwargs)

        for module in (np.linalg, linalg):  # np.linalg.norm calls the inner svd
            for name in ("eigh", "eigvalsh", "svd", "pinv"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        bundle = build_model(alpha, k, T, M=M, model_tol=tol)
        assert minimality_check(bundle)["minimal"]
        verify_relation_DCW(alpha, T, bundle.C, bundle.W.entries, seeded_unit_vectors(64, 16))
        assert bundle.defect_rank == (1 if case in ("rank one", "with S") else 64)
        assert bundle.w_rank == (53 if case == "with S" else 0)
        assert calls == []


class TestSectionModelMemory:
    @pytest.mark.parametrize("M, tol", [(None, 1e-8), (10, 2.0)], ids=["rank one", "with S"])
    def test_no_square_array_is_alive(self, M, tol):
        # the CLI's section build without --csv-dir: the model, its minimality
        # and the defect relation keep every array O(d), so the traced peak
        # stays below one real d x d matrix (8 d^2 bytes)
        d = 2000
        k = binomial_series(0.5, PowSign.MINUS, 2047)
        alpha = invert_kernel(k).alpha
        T = shift_section(k, Direction.BACKWARD, d)
        probes = seeded_unit_vectors(d, 16)
        tracemalloc.start()
        try:
            bundle = build_model(alpha, k, T, M=M, model_tol=tol)
            mini = minimality_check(bundle)
            relation = verify_relation_DCW(alpha, T, bundle.C, bundle.W, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mini["minimal"] and relation["residual"] <= 1e-12
        assert (bundle.defect_rank, bundle.w_rank) == ((1, 0) if M is None else (1, d - 11))
        assert peak < 8 * d * d, peak

    def test_unknown_attributes_do_not_build_the_dense_matrix(self):
        d = 2000
        k = binomial_series(0.5, PowSign.MINUS, 2047)
        bundle = build_model(invert_kernel(k).alpha, k, shift_section(k, Direction.BACKWARD, d))
        tracemalloc.start()
        try:
            assert not hasattr(bundle.W, "no_such_name")
            with pytest.raises(AttributeError, match="'entires'"):
                bundle.W.entires
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "entries" not in bundle.W.__dict__
        assert peak < 2**20, peak
        assert bundle.W.conj().shape == (d, d)  # a forwarded name still reads it


def dense_defect(alpha, T):
    """build_defect with D handed over as a DenseOperator of its matrix."""
    d_op, basis, hered = build_defect(alpha, T)
    return DenseOperator(d_op.entries), basis, hered


class TestStructuredRelationMatchesDense:
    """verify_relation_DCW multiplies a SparseMatrix D, C or W through its
    triplets.  With real values each entry is one rounded product, so the
    residual carries the dense products' bits: this is what keeps section
    reports byte-identical."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 128),
        forward=st.booleans(),
        symbol=st.sampled_from(["binomial", "polynomial"]),
        s=st.sampled_from([0.25, 0.5, 1.0]),
        r=st.integers(0, 4),
    )
    # binomial: rank 1 backward, rank d forward (s < 1) and rank 1 forward
    # (s = 1); polynomial: rank d both ways, with alpha(1) > 0 reading W
    @example(seed=0, d=128, forward=False, symbol="binomial", s=0.5, r=1)
    @example(seed=1, d=128, forward=True, symbol="binomial", s=0.5, r=4)
    @example(seed=2, d=96, forward=True, symbol="binomial", s=1.0, r=2)
    @example(seed=3, d=128, forward=False, symbol="polynomial", s=0.25, r=3)
    @example(seed=4, d=128, forward=True, symbol="polynomial", s=1.0, r=0)
    def test_same_residual_bits(self, seed, d, forward, symbol, s, r):
        rng = np.random.default_rng(seed)
        n = d + 8
        if symbol == "binomial":
            alpha, kappa = binomial_series(s, PowSign.PLUS, n), binomial_series(s, PowSign.MINUS, n)
        else:  # 1 - c t against kappa_(j+1)/kappa_j < 1 + s: h > 1 - 2c > 0
            alpha = poly(1.0, -rng.uniform(0.05, 0.45))
            kappa = binomial_series(1.0 + s / 2, PowSign.MINUS, n)
        T = shift_section(kappa, Direction.FORWARD if forward else Direction.BACKWARD, d)
        rank = build_defect(alpha, T)[1].shape[1]
        assert rank == (d if symbol == "polynomial" or (forward and s < 1.0) else 1)
        C = SparseMatrix(np.arange(r), rng.integers(0, d, r), rng.standard_normal(r), (r, d))
        W = SparseMatrix.diagonal(rng.uniform(0.0, 1.0, d))
        probes = seeded_unit_vectors(d, 16, seed=seed % 1000)
        structured = verify_relation_DCW(alpha, T, C, W, probes)
        with unittest.mock.patch.object(model, "build_defect", dense_defect):
            dense = verify_relation_DCW(alpha, T, C.entries, W.entries, probes)
        assert structured == dense

    def test_a_field_is_built_once(self):
        alpha, k, T = half_order_setup(64)
        bundle = build_model(alpha, k, T)
        assert isinstance(bundle.V, SparseMatrix)
        first = np.asarray(bundle.V)
        assert bundle.V.entries is first and np.asarray(bundle.V) is first
        assert bundle.V[:64, :64].base is first  # indexing reads the same matrix
        assert not first.flags.writeable and first.dtype == np.complex128
        assert bundle.W.entries is bundle.W.entries and bundle.D.entries is bundle.D.entries
        assert np.array(bundle.V) is not first  # a requested copy is a copy


# --- the shared truncation policy against the two copies it replaced ---------
#
# The degree cap and the hereditary sum as they were before both read one
# tail certificate, kept here as the reference.  Only their calls of
# T.powers differ from the originals: sections no longer take a grams flag,
# and dense operators leave the Grams out by default.  The spectral radius
# that gated them, once an operator property, is computed inline.


def _reference_radius(T):
    if isinstance(T, ShiftSection):
        return 0.0  # sections are nilpotent
    return float(np.max(np.abs(np.linalg.eigvals(T.entries))))


def _reference_contraction_envelope(fro):
    m0 = len(fro) - 1
    q = fro[m0] ** (1.0 / m0)
    return q, (max(fro) * q ** (1 - m0)) ** 2


def _reference_certified_degree_cap(c_norm, k, T, tol):
    rho = _reference_radius(T)
    if rho >= 1.0 - 1e-8:
        raise TailUncertifiableError(
            f"spectral radius estimate {rho:.6f} leaves the degree tail uncertified"
        )
    kc = k.coeffs
    # contraction envelope from the first Frobenius-contractive power
    fro = [1.0]
    for norm, _ in islice(T.powers(), 512):
        fro.append(norm)
        if norm < 1.0:
            break
    else:
        raise TailUncertifiableError("no contractive power found within 512 steps")
    m0 = len(fro) - 1
    q, env = _reference_contraction_envelope(fro)
    n_max = kc.size - 1
    weights = kc * q ** (2.0 * np.arange(n_max + 1))
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    beyond = k.certifier.weighted_tail(kc, q * q)
    if beyond is None:
        raise TailUncertifiableError(
            "kernel growth past the window is uncertified for this generator"
        )
    for m in range(m0, n_max):
        bound = c_norm**2 * env * (suffix[m + 1] + beyond)
        if bound <= tol:
            return m, bound
    raise TailUncertifiableError("degree tail bound never met inside the kernel window")


def _reference_degree_cap(c_norm, k, T, M, tol):
    if M is not None and M < 0:
        raise ValueError(f"degree cap M must be non-negative, got {M}")
    d = T.dim
    tail_bound = None
    nil, dust, peak = None, 0.0, 1.0
    cap = d if M is None else min(M + 1, d)
    for n, (fro, _) in enumerate(islice(T.powers(), cap), 1):
        peak = max(peak, fro)
        if fro <= 1e-12 * peak:
            nil, dust = n, fro
            break
    if M is None:
        if nil is not None:
            M = nil - 1
            window = float(np.sum(k.coeffs[: min(nil + 1, k.trunc_len)]))
            tail_bound = (c_norm * dust) ** 2 * window  # exact 0 for true sections
        else:
            M, tail_bound = _reference_certified_degree_cap(c_norm, k, T, tol / 10.0)
    elif nil is not None:
        tail_bound = 0.0
    if M + 1 > k.trunc_len:
        raise ValueError(f"kernel window too short for degree cap M={M}")
    if np.any(k.coeffs[: M + 1] <= 0.0):
        raise ValueError(f"kernel coefficients up to the degree cap M={M} must be positive")
    return M, tail_bound


def _reference_geometric_tail(coeffs, n_done, limit, q, env, sup_beyond):
    powers = q ** (2.0 * np.arange(n_done + 1, limit + 1))
    known = float(np.dot(np.abs(coeffs[n_done + 1 : limit + 1]), powers))
    beyond = sup_beyond * q ** (2.0 * (limit + 1)) / (1.0 - q * q)
    return env * (known + beyond)


def _reference_hereditary_apply(alpha, T, tol):
    d = T.dim
    coeffs = alpha.coeffs
    limit = coeffs.size - 1
    rho = _reference_radius(T)
    geometric = rho < 1.0 - 10.0 * tol
    section = isinstance(T, ShiftSection)
    value = None if section else coeffs[0] * np.eye(d, dtype=np.complex128)
    terms = abs(coeffs[0]) * d
    fro_norms = [math.sqrt(d)]
    policy = None
    sup_beyond = alpha.certifier.sup_tail(coeffs, limit)
    envelope = None
    kept = 0
    for n, (fro, gram) in enumerate(islice(T.powers() if section else T.powers(grams=True), limit), 1):
        fro_norms.append(fro)
        if fro <= operators._NILPOTENT_TOL:
            policy = ExactNilpotent(order=n)
            break
        if not section:
            value += coeffs[n] * gram
        kept = n
        terms += abs(coeffs[n]) * fro * fro
        if not geometric or sup_beyond is None:
            continue
        if envelope is None:
            if fro < 1.0:
                envelope = _reference_contraction_envelope(fro_norms)
            continue
        tail = _reference_geometric_tail(coeffs, n, limit, *envelope, sup_beyond)
        if tail <= tol:
            policy = GeometricTail(M=n, tail_bound=tail)
            break
    if section:
        value = SparseMatrix.diagonal(T.gram_sum(coeffs[: kept + 1]))
    else:
        value = operators._owned(operators._symmetrize(value, terms, 2e-12))
    if policy is None:
        if abs_tail_bound(alpha, limit) == 0.0:
            policy = ExactPolynomial(limit)
        elif geometric and sup_beyond is not None:
            partial = HereditaryResult(
                value,
                Truncated(limit, "symbol window ended before the tail was certified"),
                terms,
            )
            raise ConvergenceNotCertifiedError(
                f"tail bound not met within the symbol window (n <= {limit})", partial, {}
            )
        else:
            policy = Truncated(
                limit,
                f"spectral radius estimate {rho:.6f} and symbol tail do not certify "
                f"convergence, sum truncated at {limit}",
            )
    return HereditaryResult(value, policy, terms)


def _counting_draws(T, run):
    """(run(), powers drawn from T's walks while it ran)."""
    cls, drawn = type(T), [0]
    original = cls.powers

    def powers(self, *args, **kwargs):
        for item in original(self, *args, **kwargs):
            drawn[0] += 1
            yield item

    with unittest.mock.patch.object(cls, "powers", powers):
        try:
            out = run()
        except (TailUncertifiableError, ConvergenceNotCertifiedError, ValueError) as exc:
            out = exc
    return out, drawn[0]


def _cap_outcome(out):
    if isinstance(out, Exception):
        return type(out), str(out)
    M, tail = out
    return M, None if tail is None else np.float64(tail).view(np.int64)


def _assert_cap_no_later(new, ref):
    """The cap against the reference's, where the reference's radius gate
    did not refuse.  The envelope is no looser, so the same walk refuses
    alike, a bound the reference never met may now be met, and a cap comes
    no later, with no larger a tail at the same cap (to rounding: where
    both envelopes are one power's norm, each rounds it its own way)."""
    cap_tol = 1e-11  # _degree_cap certifies to tol / 10
    if isinstance(ref, Exception):
        if "never met" in str(ref) and not isinstance(new, Exception):
            assert new[1] <= cap_tol
        else:
            assert _cap_outcome(new) == _cap_outcome(ref)
        return
    assert not isinstance(new, Exception) and new[0] <= ref[0]
    assert (new[1] is None) == (ref[1] is None)
    if new[1] is not None:
        assert new[1] <= (ref[1] * (1.0 + 1e-12) if new[0] == ref[0] else cap_tol)


def _hereditary_outcome(out):
    """(raised, policy, where the sum stopped, the tail bound or None,
    and the bits of the terms and the value)."""
    raised = isinstance(out, ConvergenceNotCertifiedError)
    result = out.partial if raised else out
    policy = result.policy_used
    stop = policy.order if isinstance(policy, ExactNilpotent) else policy.M
    bound = policy.tail_bound if isinstance(policy, GeometricTail) else None
    bits = np.float64(result.terms).view(np.int64), result.value.entries.view(np.int64).tobytes()
    return raised, policy, stop, bound, bits


def _assert_hereditary_no_later(new, ref, ref_gated):
    """The hereditary sum against the reference's.  Its certificates are
    no looser, so it stops no later; where it stops at the same power by
    the same rule, it gives the same bits.  It refuses only where the
    reference refused or the reference's radius gate truncated; where the
    reference refused, it certifies, or no contractive power in the window
    proved convergence."""
    raised, policy, stop, _, bits = _hereditary_outcome(new)
    ref_raised, ref_policy, ref_stop, _, ref_bits = _hereditary_outcome(ref)
    assert stop <= ref_stop
    if (raised, type(policy), stop) == (ref_raised, type(ref_policy), ref_stop):
        assert bits == ref_bits
    if raised:
        assert ref_raised or ref_gated
    elif ref_raised:
        assert isinstance(policy, GeometricTail) or "no contractive power" in policy.warning
    elif isinstance(ref_policy, (GeometricTail, ExactNilpotent)):
        assert isinstance(policy, (GeometricTail, type(ref_policy)))


@st.composite
def _policy_operators(draw):
    """Dense contractions, nilpotents, Jordan blocks, unitaries and
    near-unitaries, or sections in both directions, with a kernel for the
    cap."""
    kind = draw(st.sampled_from(["contraction", "upper", "jordan", "unitary", "near-unitary", "section"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 16))
    if kind == "section":
        k = TruncatedSeries(random_weights(rng, d + 8, draw(st.sampled_from([-2.0, -0.3, 0.0, 0.3]))), None)
        return shift_section(k, draw(st.sampled_from(list(Direction))), d), k
    if kind == "contraction":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = g * (draw(st.floats(0.05, 1.2)) / np.linalg.norm(g, 2))
    elif kind == "upper":
        mat = np.triu(rng.standard_normal((d, d)), 1) * draw(st.floats(1e-3, 1.0))
    elif kind == "jordan":
        mat = np.eye(d, k=1) * draw(st.floats(1e-3, 1.0))
    else:
        mat = random_unitary(d, seed=int(rng.integers(1000))).entries
        if kind == "near-unitary":
            mat = mat * draw(st.floats(0.99, 0.9999))
    spec = draw(st.sampled_from(["pow1mt(-0.5)", "pow1mt(-1.5)", "tail(poly[1,0.4,0.16],0.05,2.0,3)",
                                 "pow1mt(-0.5)*poly[1,0.3]", "poly[1,0.5,0.25]"]))
    return DenseOperator(mat), elaborate(parse_kernel_spec(spec), draw(st.integers(3, 300)))


class TestOnePolicyMatchesTheTwoCopies:
    """The degree cap and the hereditary sum read one tail certificate,
    anchored on the walk's own norms; against the two copies it replaced,
    whose radius gate is gone, both draw no more powers, keep every
    refusal that the gate did not decide, and certify every geometric tail
    to tol."""

    @settings(max_examples=300, deadline=None)
    @given(
        op=_policy_operators(),
        symbol=st.sampled_from(["binomial", "polynomial", "bare"]),
        limit=st.integers(1, 200),
        degree=st.one_of(st.none(), st.integers(0, 70)),
        c_norm=st.floats(0.1, 2.0),
        tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(op=(DenseOperator(0.01 * np.eye(100, k=1)), binomial_series(0.5, PowSign.MINUS, 255)),
             symbol="binomial", limit=200, degree=None, c_norm=1.0, tol=1e-10, seed=0)
    @example(op=(random_unitary(5, seed=3), binomial_series(0.5, PowSign.MINUS, 255)),
             symbol="binomial", limit=200, degree=8, c_norm=1.0, tol=1e-10, seed=0)
    def test_same_choices(self, op, symbol, limit, degree, c_norm, tol, seed):
        T, k = op
        new, new_draws = _counting_draws(T, lambda: model._degree_cap(c_norm, k, T, degree, 1e-10))
        ref, ref_draws = _counting_draws(T, lambda: _reference_degree_cap(c_norm, k, T, degree, 1e-10))
        if not (isinstance(ref, TailUncertifiableError) and "spectral radius" in str(ref)):
            _assert_cap_no_later(new, ref)
            assert new_draws <= ref_draws

        rng = np.random.default_rng(seed)
        if symbol == "binomial":
            alpha = binomial_series(rng.uniform(0.1, 2.0), PowSign.PLUS, limit)
        else:
            coeffs = rng.standard_normal(limit + 1) * 0.8 ** np.arange(limit + 1)
            alpha = TruncatedSeries(coeffs, Polynomial(limit) if symbol == "polynomial" else None)
        new, new_draws = _counting_draws(T, lambda: hereditary_apply(alpha, T, tol))
        ref, ref_draws = _counting_draws(T, lambda: _reference_hereditary_apply(alpha, T, tol))
        ref_gated = _reference_radius(T) >= 1.0 - 10.0 * tol
        _assert_hereditary_no_later(new, ref, ref_gated)
        assert new_draws <= ref_draws
        bound = _hereditary_outcome(new)[3]
        assert bound is None or bound <= tol


def test_degree_cap_takes_the_dust_rule_before_the_certificate():
    # on 0.01 J (J the nilpotent Jordan block, d = 100, ||C|| = 1) the
    # relative dust rule reads T^7 as the nilpotency index: M = 6, where
    # the certificate alone would stop at M = 4
    k = binomial_series(0.5, PowSign.MINUS, 255)
    T = DenseOperator(0.01 * np.eye(100, k=1))
    M, tail = model._degree_cap(1.0, k, T, None, 1e-8)
    assert M == 6 and 0.0 < tail < 1e-20
    assert _reference_certified_degree_cap(1.0, k, T, 1e-9)[0] == 4
