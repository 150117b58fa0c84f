import math
import tracemalloc
import unittest.mock
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herop import model, operators
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
    _convolve,
    _inverse,
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

    @pytest.mark.parametrize("seed", range(8))
    def test_canonical_phases_match_the_column_loop(self, monkeypatch, seed):
        # the one broadcast multiply against the per-column loop it replaced,
        # bit for bit, on a random complex basis with columns of any scale
        # and one zero column (eigh stubbed to return it, all kept)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 40))
        vec = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 10.0 ** rng.integers(-100, 100, d)
        vec[:, rng.integers(d)] = 0.0
        want = vec.copy()
        for j in range(d):
            lead = want[np.argmax(np.abs(want[:, j])), j]
            if abs(lead) > 0:
                want[:, j] *= np.conj(lead) / abs(lead)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.linspace(1.0, 2.0, d), vec))
        basis = build_defect(poly(1.0), DenseOperator(np.zeros((d, d))))[1]
        assert basis.tobytes() == want.tobytes()


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
        w_op, basis, s_hat, info, _ = build_W_S(np.zeros((5, 5), dtype=complex), U)
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
        with pytest.raises(ModelInvalidError):
            build_W_S(np.zeros((2, 2), dtype=complex), T)


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
            gram=bundle.gram,
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
        w_op, basis, s_hat, info, _ = build_W_S(np.zeros((4, 4), dtype=complex), U)
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


def gram_norm_by_chunks(x, rows):
    """_gram_norm of x fed as copies of its chunks `rows` rows high (it
    scales its chunks in place)."""
    return model._gram_norm((x[lo : lo + rows].copy() for lo in range(0, x.shape[0], rows)), x.shape[1])


class TestNorm2:
    """_gram_norm's running scale: the Gram route for tall matrices against
    the SVD it replaces."""

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
        rows = int(rng.integers(1, n + 1))
        assert gram_norm_by_chunks(x, rows) == pytest.approx(np.linalg.norm(x, 2), rel=1e-14, abs=0.0)

    def test_zero_matrix(self):
        assert gram_norm_by_chunks(np.zeros((40, 4), dtype=complex), 4) == 0.0

    def test_tiny_residual_does_not_underflow(self):
        # an unscaled Gram squares the entries to ~1e-400, i.e. to 0
        x = 1e-200 * np.random.default_rng(3).standard_normal((120, 6)).astype(complex)
        assert np.linalg.eigvalsh(x.conj().T @ x)[-1] == 0.0
        assert gram_norm_by_chunks(x, 6) == pytest.approx(np.linalg.norm(x, 2), rel=1e-14, abs=0.0)


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
        gram=_gram(V, r),
        W=DenseOperator(0.25 * (h + h.conj().T)),
        w_basis=np.zeros((d, 0), dtype=complex),
        S=np.zeros((0, 0), dtype=complex),
        k=TruncatedSeries(random_weights(rng, M + 1, 0.0), None),
        M=M,
        kind="Subcritical",
        diagnostics={},
    )


class TestChunkedResiduals:
    """The chunked intertwining residual, and verify_model's isometry
    residual from the bundle's V*V, against the tall formulas."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["dense", "section"]),
        d=st.integers(1, 128),
        M=st.integers(0, 30),
        exponent=st.integers(-200, 0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="dense", d=48, M=0, exponent=-200, seed=0)
    @example(kind="dense", d=48, M=30, exponent=0, seed=1)
    @example(kind="section", d=128, M=0, exponent=0, seed=2)
    @example(kind="section", d=128, M=30, exponent=-200, seed=3)
    def test_match_the_tall_formulas(self, kind, d, M, exponent, seed):
        rng = np.random.default_rng(seed)
        if kind == "dense":  # r = d
            d = min(d, 48)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            T, r = DenseOperator(0.7 * g / np.linalg.norm(g, 2)), d
        else:  # r = 1
            kappa = TruncatedSeries(random_weights(rng, d + 4, 0.0), None)
            T, r = shift_section(kappa, Direction.BACKWARD, d), 1
        bundle = residual_bundle(rng, T, r, M, 10.0**exponent)
        intertwine, isometry = tall_residuals(T, bundle)
        got = {"intertwine_residual": chunk_residual(bundle.V, T, bundle.k.coeffs[: M + 1], r)}
        got.update(verify_model(T, bundle))
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


# --- the streamed transform against the tall V it replaced --------------------
#
# build_transform stored V = [sqrt(k_n) C T^n] whole, build_W_S summed V*V
# over d-row chunks of it, and verify_model formed shifted - V T over row
# chunks of max(r, d // 4) rows.  Kept here as the reference.


def _tall_transform(C, kc, mat):
    r = C.shape[0]
    root_k = np.sqrt(kc)
    V = np.empty((kc.size * r, C.shape[1]), dtype=np.complex128)
    block = np.array(C)
    V[0:r] = root_k[0] * block
    for n in range(1, kc.size):
        block = block @ mat
        V[n * r : (n + 1) * r] = root_k[n] * block
    return V


def _gram(x, step):
    gram = np.zeros((x.shape[1], x.shape[1]), dtype=np.complex128)
    for lo in range(0, x.shape[0], step):
        gram += x[lo : lo + step].conj().T @ x[lo : lo + step]
    return gram


def _intertwine_chunks(V, mat, coup, r, step):
    rows = V.shape[0]
    buf = np.empty((min(step, rows), V.shape[1]), dtype=np.complex128)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        chunk = np.matmul(V[lo:hi], mat, out=buf[: hi - lo])
        np.negative(chunk, out=chunk)
        top = min(hi, rows - r)
        if top > lo:
            chunk[: top - lo] += coup[lo:top, None] * V[lo + r : top + r]
        yield chunk


def chunk_residual(V, T, kc, r):
    """The intertwining residual of a plain tall V, its r-row degree blocks
    taken as the chunks coup_n V_(n+1) - V_n T."""
    mat = T.operator().entries
    coup = np.repeat(np.sqrt(kc[:-1] / kc[1:]), r)
    return model._gram_norm(_intertwine_chunks(np.asarray(V), mat, coup, r, max(r, 1)), mat.shape[0])


def tall_pipeline(T, bundle, tol):
    """(V, V*V, W, diagnostics) of the tall-V pipeline for bundle's C, k and
    M; the isometry and S residuals are verify_model's, which is unchanged."""
    mat = T.operator().entries
    d, r = mat.shape[0], bundle.defect_rank
    kc = bundle.k.coeffs[: bundle.M + 1]
    V = _tall_transform(bundle.C, kc, mat)
    gram = _gram(V, d)
    w_op, w_basis, s_hat, info, hermitian = build_W_S(gram, T, tol=tol)
    coup = np.repeat(np.sqrt(kc[:-1] / kc[1:]), r)
    intertwine = model._gram_norm(_intertwine_chunks(V, mat, coup, r, max(r, d // 4, 1)), d)
    tall = replace(bundle, V=V, gram=hermitian, W=w_op, w_basis=w_basis, S=s_hat)
    return V, gram, w_op, {"intertwine_residual": intertwine, **verify_model(T, tall), **info}


def contraction(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DenseOperator(0.7 * g / np.linalg.norm(g, 2))


def conjugated_sections(d1, d2, seed):
    """Q (B_k + B_kappa) Q*: the backward sections of k = (1-t)^(-1/2) (rank
    one defect) and of a steeper binomial kappa (rank d2), conjugated dense."""
    k = binomial_series(0.5, PowSign.MINUS, 64)
    blocks = [shift_section(k, Direction.BACKWARD, d1).operator()]
    if d2:
        kappa = binomial_series(0.5 + np.random.default_rng(seed).uniform(0.1, 1.0), PowSign.MINUS, 64)
        blocks.append(shift_section(kappa, Direction.BACKWARD, d2).operator())
    Q = random_unitary(d1 + d2, seed=seed).entries
    return DenseOperator(Q @ direct_sum(*blocks).entries @ Q.conj().T)


# the diagnostics read from V; truncation_tail_bound is the degree cap's
FIELDS = (
    "intertwine_residual", "isometry_residual", "sw_residual", "S_welldef_residual",
    "polar_correction", "contraction_excess",
)


def moved_residual_bound(bundle, T):
    """How far the Transform pass's intertwining residual may sit from the
    chunk pass's on the tall V.  The two differ only in the chunks n < M,
    two roundings of zero: X_n = coup_n V_(n+1) - V_n T against
    Y_n = c_n raw_(n+1); chunk M is V_M T in both.  With rho^2 the largest
    eigenvalue of the sum of the chunks' Grams, |rho - rho'| <= (||X||^2 +
    ||Y||^2) / (rho + rho') for X and Y stacked, plus 4 d u rho' for the
    rounding of each norm.  0 unless bundle.V is a Transform."""
    if not isinstance(bundle.V, model.Transform):
        return 0.0
    mat, r, kc = T.operator().entries, bundle.defect_rank, bundle.k.coeffs[: bundle.M + 1]
    blocks = np.asarray(bundle.V).reshape(bundle.M + 1, r, T.dim)
    coup, root_k = np.sqrt(kc[:-1] / kc[1:]), np.sqrt(kc)
    x = [coup[n] * blocks[n + 1] - blocks[n] @ mat for n in range(bundle.M)]
    y = [(coup[n] * root_k[n + 1] - root_k[n]) / root_k[n + 1] * blocks[n + 1] for n in range(bundle.M)]
    small = sum(np.linalg.norm(np.vstack(z), 2) ** 2 for z in (x, y) if z)
    rho, ref = bundle.diagnostics["intertwine_residual"], chunk_residual(bundle.V, T, kc, r)
    return small / max(rho + ref, 1e-300) + 4 * T.dim * 2.0**-53 * ref


class TestStreamedTransformMatchesTheTallV:
    """build_model streams V's degree blocks into V*V and the intertwining
    residual, and builds the tall V only when it is read."""

    @pytest.mark.parametrize(
        "d, seed, kernel, M, tol",
        [
            (8, 0, "binomial", None, 1e-8),
            (33, 1, "binomial", None, 1e-8),
            (64, 2, "binomial", None, 1e-8),
            (40, 3, "mueller", None, 1e-8),
            (24, 4, "hardy", 1, 2.0),  # V*V = I - T*^2 T^2: W != 0 and S is solved
        ],
    )
    def test_full_rank_keeps_every_bit(self, d, seed, kernel, M, tol):
        # r = d: every row chunk of the tall products was one degree block
        if kernel == "binomial":
            k = binomial_series(0.5, PowSign.MINUS, 255)
            alpha = invert_kernel(k).alpha
        elif kernel == "hardy":
            alpha, k = poly(1.0, -1.0), binomial_series(1.0, PowSign.MINUS, 255)
        else:
            (pair, k) = mueller_kernel(255)
            alpha = pair.alpha
        T = contraction(d, seed)
        bundle = build_model(alpha, k, T, M=M, model_tol=tol)
        assert isinstance(bundle.V, model.Transform) and "entries" not in bundle.V.__dict__
        V, gram, w_op, want = tall_pipeline(T, bundle, tol)
        assert bundle.defect_rank == d and (bundle.w_rank > 0) == (M is not None)
        streamed = model._sums(bundle.V, k.coeffs[: bundle.M + 1], T.entries)[0]
        assert np.array_equal(streamed, gram)
        assert np.array_equal(np.asarray(bundle.V), V)
        assert np.array_equal(bundle.W.entries, w_op.entries)
        kept = FIELDS[1:]  # all but intertwine_residual, which the Transform pass measures its own way
        assert {key: bundle.diagnostics[key] for key in kept} == {key: want[key] for key in kept}
        got = bundle.diagnostics["intertwine_residual"]
        assert abs(got - want["intertwine_residual"]) <= moved_residual_bound(bundle, T)

    @pytest.mark.parametrize("d1, d2, seed", [(40, 0, 0), (40, 0, 1), (24, 16, 2), (24, 16, 3)])
    def test_rank_deficient_agrees_to_rounding(self, d1, d2, seed):
        # r < d: V*V sums r-row blocks, not d-row chunks, and the residual
        # chunks are one block, not max(r, d // 4) rows.  The digits move in
        # the fields read from those sums: intertwine_residual,
        # isometry_residual, and contraction_excess (from I - V*V's smallest
        # eigenvalue).  Both residuals are rounding, so they are compared at
        # the unit scale of the model's contractions, not to their own size.
        # W = 0 here (T is nilpotent, so V*V = I), and the S fields keep
        # their bits.
        moved = ("intertwine_residual", "isometry_residual", "contraction_excess")
        k = binomial_series(0.5, PowSign.MINUS, 64)
        T = conjugated_sections(d1, d2, seed)
        d = T.dim
        bundle = build_model(binomial_series(0.5, PowSign.PLUS, 64), k, T)
        V, gram, w_op, want = tall_pipeline(T, bundle, 1e-8)
        r, M = bundle.defect_rank, bundle.M
        assert r == 1 + d2 < d and M == max(d1, d2) - 1
        tol = 4 * (M + 1) * d * 2.0**-53
        streamed = model._sums(bundle.V, k.coeffs[: M + 1], T.entries)[0]
        assert np.max(np.abs(streamed - gram)) <= tol * np.max(np.abs(np.diag(gram)))
        assert np.array_equal(np.asarray(bundle.V), V)  # the chain itself is unchanged
        assert np.array_equal(bundle.W.entries, w_op.entries)
        for key in FIELDS:
            got = bundle.diagnostics[key]
            if key in moved:
                assert abs(got - want[key]) <= tol, key
            else:
                assert got == want[key], key

    def test_the_tall_V_is_built_only_when_read(self):
        d = 200
        T = contraction(d, 4)
        k = binomial_series(0.5, PowSign.MINUS, 1023)
        alpha = invert_kernel(k).alpha
        tracemalloc.start()
        try:
            bundle = build_model(alpha, k, T)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            first = np.asarray(bundle.V)
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tall = (bundle.M + 1) * bundle.defect_rank * d * 16
        assert bundle.defect_rank == d and bundle.M >= 12
        assert built < tall, (built, tall)  # no array of (M+1) r d entries was alive
        assert read >= tall
        assert bundle.V.entries is first and np.asarray(bundle.V) is first
        assert not first.flags.writeable and first.shape == bundle.V.shape


# --- the direct sum against the composite pass it replaced ----------------------
#
# bundle_direct_sum sent the assembled (M+1)*r x d V through a pass in r-row
# slices, which summed V*V and the intertwining chunks, and took ||V|| from
# _norm2, a second pass over d-row chunks of it.  Kept here as the reference.


def composite_pass(bundle, t_sum):
    V, r = np.asarray(bundle.V), bundle.defect_rank
    tall = replace(bundle, gram=_gram(V, max(r, 1)))
    want = {"intertwine_residual": chunk_residual(V, t_sum, bundle.k.coeffs[: bundle.M + 1], r)}
    want.update(verify_model(t_sum, tall))
    want["contraction_excess"] = max(0.0, gram_norm_by_chunks(V, t_sum.dim) - 1.0)
    return want


def section_and_unitary(n_weights, phases):
    """Criterion 09's summands: the order-1/2 backward section (d = 256)
    and a diagonal unitary built at the degree cap n_weights."""
    alpha = binomial_series(0.5, PowSign.PLUS, n_weights)
    k = binomial_series(0.5, PowSign.MINUS, n_weights)
    section = shift_section(k, Direction.BACKWARD, 256)
    unitary = DenseOperator(np.diag(np.exp(1j * np.asarray(phases))))
    return build_model(alpha, k, section), build_model(alpha, k, unitary, M=n_weights), section, unitary


def section_twice():
    (pair, k) = mueller_kernel()
    section = shift_section(k, Direction.BACKWARD, 24)
    bundle = build_model(pair.alpha, k, section)
    return bundle, bundle, section, section


def section_and_contraction(seed):
    k = binomial_series(0.5, PowSign.MINUS, 255)
    alpha = invert_kernel(k).alpha
    section, T = shift_section(k, Direction.BACKWARD, 24), contraction(40, seed)
    return build_model(alpha, k, section), build_model(alpha, k, T), section, T


def padded_blocks(b1, b2):
    """The summands' tall V's as (degree, row, column) blocks, side by side
    and zero past each summand's degree cap."""
    (m1, r1, d1), (m2, r2, d2) = ((b.M + 1, b.defect_rank, b.V.shape[1]) for b in (b1, b2))
    blocks = np.zeros((max(m1, m2), r1 + r2, d1 + d2), dtype=complex)
    blocks[:m1, :r1, :d1] = np.asarray(b1.V).reshape(m1, r1, d1)
    blocks[:m2, r1:, d1:] = np.asarray(b2.V).reshape(m2, r2, d2)
    return blocks.reshape(-1, d1 + d2)


class TestDirectSumReadsTheSummandsPasses:
    """bundle_direct_sum takes V*V and the intertwining residual from each
    summand's own pass, as block_diag(G1, G2) and the larger residual."""

    @pytest.mark.parametrize(
        "make, caps",
        [
            (lambda: section_and_unitary(4096, 2.0 * np.pi * np.random.default_rng(23).random(2)), (255, 4096)),
            (lambda: section_and_unitary(2048, [0.8, 2.4]), (255, 2048)),
            (section_twice, (23, 23)),
            (lambda: section_and_contraction(5), (23, 30)),
        ],
        ids=["criterion-09", "trichotomy-2048", "section-twice", "section-and-contraction"],
    )
    def test_same_residual_bits_as_the_composite_pass(self, make, caps):
        b1, b2, T1, T2 = make()
        assert (b1.M, b2.M) == caps
        bundle, t_sum = bundle_direct_sum(b1, b2, T1, T2)
        assert np.array_equal(bundle.V, padded_blocks(b1, b2))
        got, want = bundle.diagnostics, composite_pass(bundle, t_sum)
        for key in ("isometry_residual", "sw_residual"):
            assert got[key] == want[key], key
        # a Transform summand's residual comes from its own pass (0 bound
        # where there is none): section-and-contraction's contraction
        moved = max(moved_residual_bound(b1, T1), moved_residual_bound(b2, T2))
        assert abs(got["intertwine_residual"] - want["intertwine_residual"]) <= moved
        # ||V|| from V*V's eigensolve, not from chunks of V: rounding at ||V|| ~ 1
        assert abs(got["contraction_excess"] - want["contraction_excess"]) <= t_sum.dim * 2.0**-52

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("first", ["section", "contraction"])
    def test_other_contractions_agree_to_rounding(self, seed, first):
        # the summand's pass scales its chunks by its own largest entry and
        # eigensolves a 40-square Gram, the composite pass by both summands'
        # entries and a 64-square one, so the residual's last bit can move.
        # The isometry and S residuals are compared at the unit scale
        b1, b2, T1, T2 = section_and_contraction(seed)
        if first == "contraction":  # the larger residual is the first summand's
            b1, b2, T1, T2 = b2, b1, T2, T1
        bundle, t_sum = bundle_direct_sum(b1, b2, T1, T2)
        got, want = bundle.diagnostics, composite_pass(bundle, t_sum)
        unit = t_sum.dim * 2.0**-52
        moved = max(moved_residual_bound(b1, T1), moved_residual_bound(b2, T2))  # the contraction's own pass
        rho = want["intertwine_residual"]
        assert abs(got["intertwine_residual"] - rho) <= 4 * 2.0**-52 * rho + moved
        for key in ("isometry_residual", "sw_residual", "contraction_excess"):
            assert abs(got[key] - want[key]) <= unit, key

    @pytest.mark.parametrize("first", ["unitary", "section"])
    def test_a_rank_zero_summand(self, first):
        # alpha = 1 - t vanishes on a unitary: its model has D = 0, a V of no
        # rows and M = 0, and the section's blocks fill the composite V
        k = elaborate(parse_kernel_spec("pow1mt(-1)"), 63)
        alpha = invert_kernel(k).alpha
        unitary = DenseOperator(np.diag(np.exp(2j * np.pi * np.array([0.3, 0.7]))))
        section = shift_section(k, Direction.BACKWARD, 16)
        parts = [(build_model(alpha, k, unitary), unitary), (build_model(alpha, k, section), section)]
        assert (parts[0][0].defect_rank, parts[0][0].M, parts[0][0].V.shape) == (0, 0, (0, 2))
        if first == "section":
            parts.reverse()
        (b1, T1), (b2, T2) = parts
        bundle, t_sum = bundle_direct_sum(b1, b2, T1, T2)
        assert bundle.V.shape == (16, 18) and np.array_equal(bundle.V, padded_blocks(b1, b2))
        got, want = bundle.diagnostics, composite_pass(bundle, t_sum)
        assert got == {
            "intertwine_residual": 0.0, "isometry_residual": 0.0, "sw_residual": 1.5700924586837752e-16,
            "contraction_excess": 0.0, "truncation_tail_bound": 0.0, "type": "Critical",
        }
        for key in want:
            assert got[key] == want[key], key

    def test_runs_no_pass_over_V(self, monkeypatch):
        b1, b2, T1, T2 = section_and_contraction(0)

        def refuse(*args):
            raise AssertionError("a pass over V ran")

        monkeypatch.setattr(model, "_sums", refuse)
        bundle, _ = bundle_direct_sum(b1, b2, T1, T2)
        rho = max(b.diagnostics["intertwine_residual"] for b in (b1, b2))
        assert bundle.diagnostics["intertwine_residual"] == rho
        assert np.array_equal(bundle.gram, model._block_diag(b1.gram, b2.gram))


class TestSectionGram:
    @pytest.mark.parametrize(
        "s, kappa, flip, r",
        [(0.5, 0.5, False, 1), (0.5, 1.5, False, 24), (1.0, 1.0, True, 1), (1.0, 0.5, True, 24)],
    )
    def test_diagonal_is_the_gram_of_the_dense_V(self, s, kappa, flip, r):
        # V*V from the section's vectors against the dense V's Gram summed
        # by degree blocks, as a pass over the r-row blocks sums it; flip
        # takes the reversed window, the forward compression's J F J
        k = binomial_series(s, PowSign.MINUS, 255)
        weights = binomial_series(kappa, PowSign.MINUS, 255)
        if flip:
            weights = TruncatedSeries(weights.coeffs[23::-1], None)
        T = shift_section(weights, Direction.BACKWARD, 24)
        bundle = build_model(invert_kernel(k).alpha, k, T)
        assert isinstance(bundle.gram, SparseMatrix) and bundle.defect_rank == r
        V = np.asarray(bundle.V)
        assert np.asarray(bundle.gram).tobytes() == _gram(V, r).tobytes()
        if r == 1:  # one entry per column: one product gives the same bits
            assert np.asarray(bundle.gram).tobytes() == (V.conj().T @ V).tobytes()


class TestTransformPassReadsTheCouplings:
    """The Transform pass reads chunk n < M as c_n raw_(n+1), c_n a rounding
    of zero.  A coupling index shifted by one, or blocks scaled by another
    kernel's weights, make c_n large: the residual must read above the model
    tolerance, as the chunk pass on the tall V does."""

    @pytest.mark.parametrize("fault", ["shifted coupling", "wrong k"])
    def test_a_fault_reads_above_model_tol(self, fault):
        d = 24
        T = contraction(d, 7)
        k = binomial_series(0.5, PowSign.MINUS, 255)
        bundle = build_model(invert_kernel(k).alpha, k, T)
        M, V, kc = bundle.M, bundle.V, k.coeffs[: bundle.M + 1]
        assert bundle.diagnostics["intertwine_residual"] <= 1e-8 and M >= 2
        if fault == "shifted coupling":  # coup_n read as coup_(n+1) = sqrt(k_(n+1) / k_(n+2))
            kc = k.coeffs[1 : M + 2]
        else:
            V = replace(V, kc=binomial_series(0.75, PowSign.MINUS, 255).coeffs[: M + 1])
        rho = model._sums(V, kc, T.entries)[1]
        assert rho > 1e-8
        assert rho == pytest.approx(chunk_residual(V, T, kc, d), rel=1e-6, abs=0.0)


class TestDenseBuildProducts:
    def test_one_gram_per_defect_walk_under_pow1mt_minus_one(self, monkeypatch):
        # alpha = 1 - t: of each defect walk's powers only T*T enters the
        # sum, so only its Gram is formed; the degree cap's walk forms none
        d = 64
        T = contraction(d, 8)
        k = elaborate(parse_kernel_spec("pow1mt(-1)"), 1023)
        alpha = invert_kernel(k).alpha
        walks, walk = [], DenseOperator.powers

        def counted(self, *args, **kwargs):
            walks.append([])
            for fro, gram in walk(self, *args, **kwargs):
                walks[-1].append(gram is not None)
                yield fro, gram

        monkeypatch.setattr(DenseOperator, "powers", counted)
        bundle = build_model(alpha, k, T)
        verify_relation_DCW(alpha, T, bundle.C, bundle.W.entries, seeded_unit_vectors(d, 3, seed=1))
        defect_walks = [w for w in walks if any(w)]
        assert len(walks) == 3 and len(defect_walks) == 2
        assert all(w[0] and sum(w) == 1 and len(w) >= 3 for w in defect_walks)

    def test_two_products_per_degree(self):
        # every matmul of the pass, logged by whether T is its right factor:
        # the chain's M and chunk M's products with T, and M + 2 Grams
        # (V*V's M + 1 terms and chunk M's), where the chunk pass took
        # 2M + 1 and 2M + 2
        d = 40
        T = contraction(d, 9)
        k = binomial_series(0.5, PowSign.MINUS, 255)
        bundle = build_model(invert_kernel(k).alpha, k, T)
        V, M, log = bundle.V, bundle.M, []

        class Logged(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if ufunc is np.matmul:
                    log.append(inputs[1] is V.mat)
                plain = [x.view(np.ndarray) if isinstance(x, Logged) else x for x in inputs]
                if out is not None:
                    kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, Logged) else x for x in out)
                result = getattr(ufunc, method)(*plain, **kwargs)
                if out is not None:
                    return out[0]
                return result.view(Logged) if isinstance(result, np.ndarray) else result

        logged = model.Transform(V.C.view(Logged), V.mat, V.kc)
        gram, rho = model._sums(logged, V.kc, V.mat)
        want_gram, want_rho = model._sums(V, V.kc, V.mat)
        assert gram.tobytes() == want_gram.tobytes() and rho == want_rho
        assert M >= 20 and log.count(True) == M + 1 and log.count(False) == M + 2


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
        drift=st.sampled_from([-0.6, -0.3, 0.0, 0.3, 0.6]),
        symbol=st.sampled_from(["binomial", "polynomial", "bare"]),
        symbol_len=st.integers(2, 160),
        degree=st.one_of(st.none(), st.integers(0, 140)),
    )
    # contracting powers: a geometric tail, and a dust-rule index below d
    @example(seed=1, d=128, drift=0.6, symbol="binomial", symbol_len=160, degree=None)
    @example(seed=2, d=128, drift=-0.6, symbol="bare", symbol_len=160, degree=None)
    # a certified symbol tail that the window ends before meeting
    @example(seed=3, d=64, drift=0.0, symbol="binomial", symbol_len=20, degree=None)
    def test_sections_against_their_matrices(self, seed, d, drift, symbol, symbol_len, degree):
        rng = np.random.default_rng(seed)
        k = TruncatedSeries(random_weights(rng, d + 8, drift), None)
        section = shift_section(k, Direction.BACKWARD, d)
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
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 48))
    def test_unitary_conjugate_keeps_the_nilpotency_index(self, seed, d):
        # Q B Q* leaves float dust far above 1e-300 in its d-th power; the
        # relative dust rule still reads the index d from the dense powers
        rng = np.random.default_rng(seed)
        k = TruncatedSeries(random_weights(rng, d + 4, 0.0), None)
        section = shift_section(k, Direction.BACKWARD, d)
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
    k_{j-n}/k_j at j >= n, and ||T^n||_F the square root of its sum.  The Grams go out as diagonal
    matrices, so hereditary_apply adds them by its general loop."""

    def __init__(self, section):
        self.section, self.dim = section, section.dim

    def diagonals(self):
        """(||T^n||_F, the Gram diagonal of T^n) for n = 1..d."""
        k, d = self.section.kappa.coeffs[: self.dim], self.dim
        for n in range(1, d + 1):
            gram = np.zeros(d)
            gram[n:] = k[: d - n] / k[n:]
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


def direct_section_sum(section, a):
    """The diagonal (a * k)_j / k_j of sum_n a_n T*^n T^n on a section, as
    direct sums."""
    k = section.kappa.coeffs[: section.dim]
    return _convolve(a, k, section.dim) / k


def assert_sum_within_gamma(section, coeffs, h, walk_h):
    """h and walk_h, two sums of the terms coeffs[n] T*^n T^n, within
    4 (d + len(coeffs)) u of the sum of their absolute values."""
    bound = 4 * (section.dim + coeffs.size) * 2.0**-53 * direct_section_sum(section, np.abs(coeffs))
    assert np.all(np.abs(h - walk_h) <= bound)


def sums_against_walk(seed, d, drift, symbol, limit, degree, flip=False):
    """Compare a section's two products with the walk that forms and adds
    one Gram diagonal per power: the norms, the hereditary sum's raised
    flag, policy, terms and diagonal, and _degree_cap's M and tail.  flip
    takes the section of the reversed window k_{d-1}..k_0, which is J F J
    for F the forward compression of k.  Returns the walk's policy."""
    rng = np.random.default_rng(seed)
    k = TruncatedSeries(random_weights(rng, d + 8, drift), None)
    if symbol == "binomial":
        alpha = binomial_series(rng.uniform(0.1, 2.0), PowSign.PLUS, limit)
    else:
        coeffs = rng.standard_normal(limit + 1) * 0.8 ** np.arange(limit + 1)
        alpha = TruncatedSeries(coeffs, Polynomial(limit) if symbol == "polynomial" else None)
    section = shift_section(TruncatedSeries(k.coeffs[d - 1 :: -1], None) if flip else k, Direction.BACKWARD, d)
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
        drift=st.sampled_from([-2.0, -0.6, -0.3, 0.0, 0.3, 0.6]),
        symbol=st.sampled_from(["binomial", "polynomial", "bare"]),
        limit=st.integers(1, 63),
        degree=st.one_of(st.none(), st.integers(0, 70)),
    )
    def test_hereditary_sum_and_degree_cap(self, seed, d, drift, symbol, limit, degree):
        sums_against_walk(seed, d, drift, symbol, min(limit, d - 1), degree)

    def test_steep_forward_weights_reach_the_geometric_tail(self):
        # steeply decreasing weights, flipped: the forward compression, whose
        # powers contract, reaches a certified geometric tail at M = 14
        policy = sums_against_walk(2, 64, -2.0, "binomial", 63, None, flip=True)
        assert isinstance(policy, GeometricTail) and policy.M == 14 and policy.tail_bound > 0.0

    @pytest.mark.parametrize("flip", [False, True], ids=["backward", "flipped"])
    def test_blocked_products_match_the_walk(self, flip):
        # d = 9000 puts both products on series._blocked_product's GEMMs
        d = 9000
        weights = random_weights(np.random.default_rng(9), d, 0.0)
        k = TruncatedSeries(weights[::-1] if flip else weights, None)
        section = shift_section(k, Direction.BACKWARD, d)
        assert_norms_match_the_walk(section)
        coeffs = binomial_series(0.5, PowSign.PLUS, d - 1).coeffs
        walk_h = coeffs[0] * np.ones(d)
        for c, (_, gram) in zip(coeffs[1:], WalkedSection(section).diagonals()):
            walk_h += c * gram
        assert_sum_within_gamma(section, coeffs, direct_section_sum(section, coeffs), walk_h)

    @pytest.mark.parametrize(
        "weights, what, degree",
        [
            ([1e-300, 1e-305, 1e-309], "reciprocal", 2),
            ([1e-309, 1e-305, 1e-300], "reciprocal", 0),
            ([1.0, 1e300, 1e-300], "power norm", 1),
        ],
    )
    def test_norms_past_float_range_are_refused(self, weights, what, degree):
        # 1 / 1e-309 overflows, at either end of the window (the reversed
        # window is the forward compression's flip); so does k_1 * (1 / k_2) = 1e600
        section = shift_section(TruncatedSeries(np.array(weights), None), Direction.BACKWARD, 3)
        with pytest.raises(NumericalFailure, match=f"{what} overflowed at degree {degree}") as exc:
            hereditary_apply(poly(1.0, -0.5, 0.1), section)
        assert exc.value.witness == {"degree": degree}


def _direct_product(f, g, n):  # series._product without its closed form
    return _convolve(f.coeffs, g.coeffs, n)


def _choices(bundle):  # what build_model chose, or how it refused
    if isinstance(bundle, Exception):
        return type(bundle), str(bundle)
    return bundle.diagnostics["policy"], bundle.M, bundle.defect_rank, bundle.w_rank


def _binomial_window_rounding(e, n):
    """First-order bound on the relative error of each coefficient of the
    window (1-t)**e to degree n, as the recurrence c_m = c_(m-1) (m - e - 1) / m
    rounds it: m - e, its difference with 1, the quotient and the product
    each round once.  Small |e| cancels in m - e - 1 at m = 1, so c_1 is off
    by up to u / |e| relative; a factor that is exactly 0 ends the window's
    non-zero part."""
    m = np.arange(1.0, n + 1.0)
    gap = np.abs(m - e - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(gap > 0.0, np.abs(m - e) / gap + 3.0, 0.0)
    return 2.0**-53 * np.concatenate([[0.0], np.cumsum(step)])


class TestClosedFormSectionSum:
    """A whole-section hereditary sum takes series._product: for a binomial
    pair with alpha = 1/k, the closed form (1-t)**0, so the diagonal is e_0
    exactly.  Against _convolve's direct sums it is within
    gamma_(d+1) (|alpha| * k)_j / k_j plus what the rounding of the two
    windows moves, and build_model chooses the same policy, degree cap and
    ranks.  Any other kernel, and any kept window shorter than d, gives the
    direct sums bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["binomial", "binomial", "tail", "inv-poly", "product"]),
        s=st.floats(1e-6, 2.0),
        d=st.integers(2, 4096),
        extra=st.integers(0, 400),
        cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    @example(kind="binomial", s=0.5, d=4096, extra=351, cut=None)
    @example(kind="binomial", s=2.0, d=3, extra=0, cut=0.0)
    def test_against_the_direct_sums(self, kind, s, d, extra, cut):
        spec = {"binomial": f"pow1mt({-s!r})", "tail": "tail(poly[1,0.4,0.16],0.05,2.0,3)",
                "inv-poly": "inv(poly[1,-0.9])", "product": f"pow1mt({-s!r})*poly[1,0.3]"}[kind]
        k = elaborate(parse_kernel_spec(spec), d - 1 + extra)
        alpha = _inverse(k, k.degree)
        if cut is not None and d > 2:  # a symbol window that ends before T^(d-1)
            alpha = TruncatedSeries(alpha.coeffs[: 2 + int(cut * (d - 3))], alpha.generator)
        T = shift_section(k, Direction.BACKWARD, d)
        kd = k.coeffs[:d]
        result, _ = hereditary_or_partial(alpha, T)
        policy = result.policy_used
        kept = policy.order - 1 if isinstance(policy, ExactNilpotent) else policy.M
        h, direct = result.value.vals, _convolve(alpha.coeffs[: kept + 1], kd, d) / kd
        if kind != "binomial" or kept + 1 < d:
            np.testing.assert_array_equal(h, direct)
            return
        np.testing.assert_array_equal(h, np.eye(1, d)[0])
        gamma = (d + 1) * 2.0**-53 / (1.0 - (d + 1) * 2.0**-53)
        a_abs = np.abs(alpha.coeffs[:d])
        windows = (_convolve(_binomial_window_rounding(s, d - 1) * a_abs, kd, d)
                   + _convolve(a_abs, _binomial_window_rounding(-s, d - 1) * kd, d))
        assert np.all(np.abs(h - direct) <= (gamma * _convolve(a_abs, kd, d) + windows) / kd)
        bundle = build_or_refusal(alpha, k, T)
        with unittest.mock.patch.object(operators, "_product", _direct_product):
            ref = build_or_refusal(alpha, k, T)
        assert _choices(bundle) == _choices(ref)


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
        weights=st.sampled_from(["k", "binomial", "random"]),
        s=st.sampled_from([0.25, 0.5, 1.0]),
        degree=st.one_of(st.none(), st.integers(0, 140)),
    )
    # rank 1 (kappa = k), rank d, and a cap below d
    @example(seed=0, d=128, weights="k", s=0.5, degree=None)
    @example(seed=1, d=128, weights="binomial", s=0.5, degree=None)
    @example(seed=2, d=96, weights="binomial", s=0.25, degree=None)
    @example(seed=3, d=64, weights="k", s=0.5, degree=10)
    def test_against_the_dense_pipeline(self, seed, d, weights, s, degree):
        rng = np.random.default_rng(seed)
        n = d + 8
        alpha, k = binomial_series(s, PowSign.PLUS, n), binomial_series(s, PowSign.MINUS, n)
        if weights == "k":
            kappa = k
        elif weights == "binomial":  # (alpha * kappa)_j >= 0 backward: rank d
            kappa = binomial_series(s + rng.uniform(0.1, 1.0), PowSign.MINUS, n)
        else:
            kappa = TruncatedSeries(random_weights(rng, n + 1, 0.0), None)
        section = shift_section(kappa, Direction.BACKWARD, d)
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
        assert np.max(np.abs(np.asarray(fast.V) - np.asarray(slow.V)), initial=0.0) <= 1e-12
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
        kappa, M, tol = k, None, 1e-8
        if case == "rank d":
            kappa = binomial_series(1.0, PowSign.MINUS, 255)
        if case == "forward":  # the forward compression of k, flipped: k's window reversed
            kappa = TruncatedSeries(k.coeffs[63::-1], None)
        if case == "with S":
            M, tol = 10, 2.0
        T = shift_section(kappa, Direction.BACKWARD, 64)
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


class TestForwardCompressionIsAFlip:
    """The forward compression F of kappa, entry (i+1, i) =
    sqrt(kappa_(i+1) / kappa_i), is J B J: J the basis reversal and B the
    backward section of the reversed window.  shift_section refuses F and
    names the flip, and build_model makes the same choices on F and on B."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 96),
        weights=st.sampled_from(["k", "binomial", "random"]),
        s=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @example(seed=2, d=96, weights="binomial", s=0.25)  # rank d
    def test_build_model_makes_the_same_choices(self, seed, d, weights, s):
        rng = np.random.default_rng(seed)
        n = d + 8
        alpha, k = binomial_series(s, PowSign.PLUS, n), binomial_series(s, PowSign.MINUS, n)
        if weights == "k":
            kappa = k
        elif weights == "binomial":
            kappa = binomial_series(s + rng.uniform(0.1, 1.0), PowSign.MINUS, n)
        else:
            kappa = TruncatedSeries(random_weights(rng, n + 1, 0.0), None)
        w = kappa.coeffs[:d]
        F = np.zeros((d, d))
        F[np.arange(1, d), np.arange(d - 1)] = np.sqrt(w[1:] / w[:-1])
        B = shift_section(TruncatedSeries(w[::-1], None), Direction.BACKWARD, d)
        flipped = F[::-1, ::-1]
        assert np.all(np.abs(flipped - B.operator().entries) <= np.spacing(flipped))  # one ulp
        with pytest.raises(ValueError, match=r"J B J.*shift_section\(kappa\[d-1::-1\], Direction.BACKWARD"):
            shift_section(kappa, Direction.FORWARD, d)
        dense, section = (build_or_refusal(alpha, k, T) for T in (DenseOperator(F), B))
        assert type(dense) is type(section)
        if not isinstance(dense, Exception):
            assert dense.diagnostics["policy"] == section.diagnostics["policy"]
            assert (dense.M, dense.defect_rank, dense.w_rank) == (section.M, section.defect_rank, section.w_rank)


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
        symbol=st.sampled_from(["binomial", "polynomial"]),
        s=st.sampled_from([0.25, 0.5, 1.0]),
        r=st.integers(0, 4),
    )
    # binomial: rank 1; polynomial: rank d, with alpha(1) > 0 reading W
    @example(seed=0, d=128, symbol="binomial", s=0.5, r=1)
    @example(seed=2, d=96, symbol="binomial", s=1.0, r=2)
    @example(seed=3, d=128, symbol="polynomial", s=0.25, r=3)
    @example(seed=4, d=128, symbol="polynomial", s=1.0, r=0)
    def test_same_residual_bits(self, seed, d, symbol, s, r):
        rng = np.random.default_rng(seed)
        n = d + 8
        if symbol == "binomial":
            alpha, kappa = binomial_series(s, PowSign.PLUS, n), binomial_series(s, PowSign.MINUS, n)
        else:  # 1 - c t against kappa_(j+1)/kappa_j < 1 + s: h > 1 - 2c > 0
            alpha = poly(1.0, -rng.uniform(0.05, 0.45))
            kappa = binomial_series(1.0 + s / 2, PowSign.MINUS, n)
        T = shift_section(kappa, Direction.BACKWARD, d)
        rank = build_defect(alpha, T)[1].shape[1]
        assert rank == (d if symbol == "polynomial" else 1)
        C = SparseMatrix(np.arange(r), rng.integers(0, d, r), rng.standard_normal(r), (r, d))
        W = SparseMatrix.diagonal(rng.uniform(0.0, 1.0, d))
        probes = seeded_unit_vectors(d, 16, seed=seed % 1000)
        structured = verify_relation_DCW(alpha, T, C, W, probes)
        with unittest.mock.patch.object(model, "build_defect", dense_defect):
            dense = verify_relation_DCW(alpha, T, C.entries, W.entries, probes)
        assert structured == dense

    def test_triplets_sharing_a_row_are_summed(self):
        # C = [1 1]: Cx = x_0 + x_1, not the last triplet's product alone.
        # With T = 0 and alpha = 1, D = I, so the residual is
        # | ||x||^2 - |x_0 + x_1|^2 | = |1 - 2| on x = (1, 1) / sqrt(2)
        C = SparseMatrix(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]), (1, 2))
        T, W = DenseOperator(np.zeros((2, 2))), np.zeros((2, 2))
        probes = [np.array([1.0, 1.0]) / math.sqrt(2.0)]
        sparse = verify_relation_DCW(poly(1.0, 0.0), T, C, W, probes)
        dense = verify_relation_DCW(poly(1.0, 0.0), T, C.entries, W, probes)
        assert sparse["residual"] == dense["residual"] == pytest.approx(1.0, rel=1e-15)

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
        value = SparseMatrix.diagonal(direct_section_sum(T, coeffs[: kept + 1]))
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
    near-unitaries, or sections, with a kernel for the cap."""
    kind = draw(st.sampled_from(["contraction", "upper", "jordan", "unitary", "near-unitary", "section"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 16))
    if kind == "section":
        k = TruncatedSeries(random_weights(rng, d + 8, draw(st.sampled_from([-2.0, -0.3, 0.0, 0.3]))), None)
        return shift_section(k, Direction.BACKWARD, d), k
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
