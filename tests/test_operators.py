import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ShiftSection,
    SparseMatrix,
    Truncated,
    UnboundedShiftError,
    _basis_orbit_norms,
    _eigen_sqrt,
    _orbit_norms,
    _symmetrize,
    _vector_norm,
    direct_sum,
    hereditary_apply,
    operator_norm,
    read_matrix_csv,
    seeded_unit_vectors,
    shift_membership_backward,
    shift_membership_forward,
    shift_section,
    write_matrix_csv,
)
from herop.series import (
    NumericalFailure,
    Polynomial,
    PowSign,
    TruncatedSeries,
    _dot,
    binomial_series,
    cesaro_numbers,
)


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
        alpha = binomial_series(0.5, PowSign.PLUS, 8)  # a window of 9 coefficients
        with pytest.raises(ConvergenceNotCertifiedError) as info:
            hereditary_apply(alpha, T, tol=1e-14)
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


@st.composite
def _stable_operators(draw):
    """Matrices with spectral radius below 1 and d <= 64: random
    contractions, upper-triangular matrices, Jordan blocks c J + lam I,
    whose powers grow before they decay, and weighted cycles, whose powers
    rise and fall with period d."""
    kind = draw(st.sampled_from(["contraction", "upper", "jordan", "cycle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "jordan":
        d = draw(st.integers(2, 12))
        return DenseOperator(draw(st.floats(0.1, 3.0)) * np.eye(d, k=1) + draw(st.floats(0.0, 0.9)) * np.eye(d))
    if kind == "cycle":  # T^d = (product of the weights) I, below 1
        w = 10.0 ** rng.uniform(-3.0, 1.0, draw(st.integers(2, 12)))
        w[-1] = min(w[-1], 0.99 / np.prod(w[:-1]))
        return DenseOperator(np.roll(np.diag(w), 1, axis=0))
    d = draw(st.integers(1, 64))
    if kind == "contraction":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return DenseOperator(g * (draw(st.floats(0.05, 0.95)) / np.linalg.norm(g, 2)))
    strict = np.triu(rng.standard_normal((d, d)), 1) * (draw(st.floats(0.0, 1.0)) / math.sqrt(d))
    return DenseOperator(strict + np.diag(rng.uniform(-0.9, 0.9, d)))


class TestTailCertificate:
    @settings(max_examples=60, deadline=None)
    @given(T=_stable_operators(), a=st.floats(0.1, 2.0), limit=st.integers(8, 300),
           tol=st.sampled_from([1e-12, 1e-8, 1e-4]))
    @example(T=DenseOperator(2.0 * np.eye(8, k=1) + 0.5 * np.eye(8)), a=0.5, limit=300, tol=1e-10)
    @example(T=DenseOperator(np.array([[0.6 + 0.0j]])), a=0.5, limit=300, tol=1e-12)
    @example(T=DenseOperator(np.array([[0.0, 10.0], [1e-3, 0.0]])), a=0.5, limit=300, tol=1e-10)
    def test_geometric_tail_bounds_the_walked_tail(self, T, a, limit, tol):
        # the bound of every GeometricTail stop against the true tail
        # sum_{n>M} |alpha_n| ||T^n||_F^2, walked until ||T^n||_F^2 underflows;
        # where the bound is exact (a scalar T) the two differ by rounding
        try:
            policy = hereditary_apply(binomial_series(a, PowSign.PLUS, limit), T, tol).policy_used
        except ConvergenceNotCertifiedError:
            return
        if not isinstance(policy, GeometricTail):
            return
        norms = [fro for fro, _ in itertools.takewhile(lambda p: p[0] >= 1e-155, T.powers())]
        walked = len(norms)
        coeffs = np.abs(binomial_series(a, PowSign.PLUS, max(walked, limit)).coeffs)
        tail = float(np.sum(coeffs[policy.M + 1 : walked + 1] * np.square(norms[policy.M :])))
        assert policy.tail_bound <= tol and policy.tail_bound * (1.0 + 1e-12) >= tail

    @pytest.mark.parametrize("d", [64, 300])
    def test_a_dense_contraction_stops_within_16_powers(self, d):
        # a seeded complex Gaussian of spectral norm 0.7 (rho near 0.36),
        # as in CI's scaled dense build, against alpha = 1/k of pow1mt(-0.5)
        # at the defect sum's tol: anchored once at the first contractive
        # power, with ||T^0|| counted as sqrt(d), it stopped at 34 and 120
        rng = np.random.default_rng([1, 7])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        T = DenseOperator(g * (0.7 / np.linalg.norm(g, 2)))
        policy = hereditary_apply(binomial_series(0.5, PowSign.PLUS, 1023), T, tol=1e-10).policy_used
        assert isinstance(policy, GeometricTail) and policy.M <= 16


def _normal_contraction(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    eig = 0.95 * rng.random(d) * np.exp(2j * np.pi * rng.random(d))
    return DenseOperator((q * eig) @ q.conj().T)


class TestOrbitNorms:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: backward(0.5, 64, 24),
            lambda: shift_section(binomial_series(0.5, PowSign.MINUS, 64), Direction.FORWARD, 24),
            lambda: _normal_contraction(12, seed=5),
            lambda: BlockDiagOperator(
                (backward(0.5, 64, 16), DenseOperator(np.diag(np.exp(1j * np.array([0.3, 1.1])))))
            ),
        ],
        ids=["backward", "forward", "dense-contraction", "block-diagonal"],
    )
    def test_walk_matches_matrix_powers(self, make):
        T = make()
        mat = T.operator().entries
        x = seeded_unit_vectors(T.dim, 1, seed=8)[0]
        walk = _orbit_norms(T, x, 40)
        dense = [np.linalg.norm(np.linalg.matrix_power(mat, j) @ x) for j in range(41)]
        np.testing.assert_allclose(walk, dense, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_walk_stops_at_the_exact_zero(self, direction):
        section = shift_section(binomial_series(0.5, PowSign.MINUS, 64), direction, 24)
        calls = []

        class Counted:
            def apply(self, v, out=None):
                calls.append(1)
                return section.apply(v, out=out)

        norms = _orbit_norms(Counted(), seeded_unit_vectors(24, 1, seed=9)[0], 60)
        assert np.all(norms[:24] > 0.0) and np.all(norms[24:] == 0.0)
        assert len(calls) == 24


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _allocating_apply(T, v):
    """T v as each operator computed it before apply took an out buffer:
    a new array every step."""
    if isinstance(T, ShiftSection):
        out = np.zeros_like(v, dtype=np.result_type(v, T.couplings))
        if T.direction is Direction.BACKWARD:
            out[:-1] = T.couplings * v[1:]
        else:
            out[1:] = v[:-1] / T.couplings
        return out
    if isinstance(T, BlockDiagOperator):
        out = np.empty_like(v, dtype=np.complex128)
        at = 0
        for block in T.blocks:
            out[at : at + block.dim] = _allocating_apply(block, v[at : at + block.dim])
            at += block.dim
        return out
    return T.entries @ v


def _reference_walk(T, x, n_max):
    v = np.asarray(x)
    out = np.zeros(n_max + 1)
    out[0] = float(np.linalg.norm(v))
    for j in range(1, n_max + 1):
        v = _allocating_apply(T, v)
        out[j] = float(np.linalg.norm(v))
        if out[j] == 0.0:
            break
    return out


def forward(s, n_weights, d):
    return shift_section(binomial_series(s, PowSign.MINUS, n_weights), Direction.FORWARD, d)


def _scattered(d, seed):
    """A SparseMatrix with two entries in some rows and none in others."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(d * d, size=2 * d, replace=False)
    vals = rng.standard_normal(cells.size) + 1j * rng.standard_normal(cells.size)
    return SparseMatrix(cells // d, cells % d, vals, (d, d))


_WALKED = {
    "backward": lambda: backward(0.5, 64, 24),
    "forward": lambda: forward(0.5, 64, 24),
    "dense": lambda: _normal_contraction(12, seed=5),
    "block-diagonal": lambda: BlockDiagOperator(
        (backward(0.5, 64, 9), forward(0.25, 64, 7), _normal_contraction(3, seed=2))
    ),
}


class TestVectorNorm:
    @pytest.mark.parametrize(
        "v",
        [
            np.random.default_rng(1).standard_normal(4099),
            np.array([1.0, 1j]) @ np.random.default_rng(2).standard_normal((2, 4099)),
            np.zeros(17),
            np.array([-0.0, 0.0, -0.0]),
            np.zeros(9, dtype=np.complex128),
            np.full(33, 5e-324),
            np.random.default_rng(3).random(65) * 1e-310 * (1 - 1j),
            np.full(3, 1e154),
            np.full(5, 1e154),
            np.array([8e153 + 8e153j, -8e153j]),
            np.array([1.7e308, -1.7e308j]),
        ],
        ids=["real", "complex", "zero", "signed-zero", "complex-zero", "subnormal",
             "complex-subnormal", "near-overflow", "overflow", "complex-near-overflow",
             "complex-overflow"],
    )
    def test_matches_numpy_bit_for_bit(self, v):
        with np.errstate(over="ignore"):  # both overflow to inf alike
            assert _same_bits(_vector_norm(v), float(np.linalg.norm(v)))

    @settings(max_examples=60, deadline=None)
    @given(
        exponents=st.lists(st.floats(-330.0, 160.0), min_size=1, max_size=300),
        complex_entries=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_numpy_on_any_scale(self, exponents, complex_entries, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(len(exponents)) * 10.0 ** np.array(exponents)
        if complex_entries:
            v = v + 1j * rng.standard_normal(v.size) * 10.0 ** np.array(exponents[::-1])
        with np.errstate(over="ignore"):
            assert _same_bits(_vector_norm(v), float(np.linalg.norm(v)))

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_long_vectors_take_the_fixed_order_dot(self, complex_entries):
        """Past a dot chunk, the norm and the walk's norms of x and T x are
        the fixed-order sums (a square root often rounds two sums to one
        norm, so several vectors are taken)."""
        T = backward(0.5, 20002, 20001)
        for seed in range(8):
            z = np.random.default_rng(seed).standard_normal((2, 20001)) * np.geomspace(1.0, 1e3, 20001)
            x = z[0] + 1j * z[1] if complex_entries else z[0]
            want = [math.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag)) for v in (x, T.apply(x))]
            assert _same_bits(_vector_norm(x), want[0])
            assert _same_bits(_orbit_norms(T, x, 1), np.array(want))


class TestWalkAgainstTheAllocatingWalk:
    @pytest.mark.parametrize("name", list(_WALKED))
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n_max", [0, 1, 10, 40])
    def test_same_bits(self, name, complex_entries, n_max):
        # n_max 40 walks every section past its exact zero
        T = _WALKED[name]()
        x = seeded_unit_vectors(T.dim, 1, seed=6, complex_entries=complex_entries)[0]
        assert _same_bits(_orbit_norms(T, x, n_max), _reference_walk(T, x, n_max))

    @settings(max_examples=30, deadline=None)
    @given(
        log_k=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=128),
        direction=st.sampled_from(list(Direction)),
        complex_entries=st.booleans(),
        in_block=st.booleans(),
    )
    def test_same_bits_on_any_weights(self, log_k, direction, complex_entries, in_block):
        T = shift_section(TruncatedSeries(10.0 ** np.array(log_k), None), direction, len(log_k))
        if in_block:
            T = BlockDiagOperator((T, _normal_contraction(2, seed=1)))
        x = seeded_unit_vectors(T.dim, 1, seed=len(log_k), complex_entries=complex_entries)[0]
        assert _same_bits(_orbit_norms(T, x, T.dim + 2), _reference_walk(T, x, T.dim + 2))


class TestApplyOut:
    @pytest.mark.parametrize("name", [*_WALKED, "sparse"])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_out_is_returned_with_the_same_bits(self, name, complex_entries):
        T = _scattered(10, seed=4) if name == "sparse" else _WALKED[name]()
        v = seeded_unit_vectors(T.dim, 1, seed=7, complex_entries=complex_entries)[0]
        fresh = T.apply(v)
        buf = np.full_like(fresh, np.nan)
        assert T.apply(v, out=buf) is buf
        assert _same_bits(buf, fresh)
        np.testing.assert_allclose(fresh, T.operator().entries @ v, rtol=1e-14, atol=1e-15)


def _basis(d, n, dtype=np.complex128):
    e_n = np.zeros(d, dtype=dtype)
    e_n[n] = 1.0
    return e_n


# log10 of the weights: every ratio k_i/k_j stays within 1e+-300, a normal float
_LOG_WEIGHTS = st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=256)


class TestBasisOrbitNorms:
    @settings(max_examples=30, deadline=None)
    @given(log_k=_LOG_WEIGHTS, direction=st.sampled_from(list(Direction)))
    @example(log_k=[150.0, -150.0] * 128, direction=Direction.BACKWARD)
    @example(log_k=[150.0, -150.0] * 128, direction=Direction.FORWARD)
    def test_closed_form_matches_the_walk(self, log_k, direction):
        kappa = TruncatedSeries(10.0 ** np.array(log_k), None)
        section = shift_section(kappa, direction, len(log_k))
        for n in range(section.dim):
            closed = _basis_orbit_norms(section, n)
            walk = _orbit_norms(section, _basis(section.dim, n, float), n)
            np.testing.assert_array_equal(closed == 0.0, walk == 0.0)
            np.testing.assert_allclose(closed, walk, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _normal_contraction(12, seed=5),
            lambda: BlockDiagOperator(
                (backward(0.5, 64, 16), DenseOperator(np.diag(np.exp(1j * np.array([0.3, 1.1])))))
            ),
        ],
        ids=["dense-contraction", "block-diagonal"],
    )
    def test_other_operators_walk_the_basis_vector(self, make):
        T = make()
        for n in range(T.dim):
            np.testing.assert_array_equal(
                _basis_orbit_norms(T, n), _orbit_norms(T, _basis(T.dim, n), n)
            )

    def test_section_never_applies(self, monkeypatch):
        section = backward(0.5, 64, 32)
        monkeypatch.setattr(type(section), "apply", None)
        assert _basis_orbit_norms(section, 31).shape == (32,)


class TestSectionApplyDtype:
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_apply_keeps_the_input_dtype(self, direction, dtype):
        section = shift_section(binomial_series(0.5, PowSign.MINUS, 64), direction, 24)
        v = seeded_unit_vectors(24, 1, seed=3, complex_entries=dtype is np.complex128)[0]
        out = section.apply(v)
        assert v.dtype == dtype and out.dtype == dtype
        np.testing.assert_allclose(out, section.operator().entries @ v, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_real_walk_matches_the_complex_walk(self, direction):
        section = shift_section(binomial_series(0.5, PowSign.MINUS, 64), direction, 24)
        x = seeded_unit_vectors(24, 1, seed=4, complex_entries=False)[0]
        real = _orbit_norms(section, x, 30)
        np.testing.assert_allclose(real, _orbit_norms(section, x.astype(np.complex128), 30),
                                   rtol=1e-15, atol=0.0)


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


def eigen_root(mat):
    """The non-negative square root, eigenvalues within 1e-10 of zero clipped."""
    mat = np.asarray(mat, dtype=np.complex128)
    return _eigen_sqrt(*np.linalg.eigh(mat), 1e-10, "most negative eigenvalue")[0].entries


class TestSpectralQuantities:
    def test_sqrt_identity(self):
        root = eigen_root(np.eye(3))
        np.testing.assert_allclose(root, np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        root = eigen_root(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-13)

    def test_defect_square_roundtrip(self):
        T = shift_section(binomial_series(1.0, PowSign.MINUS, 8), Direction.BACKWARD, 4)
        mat = T.operator().entries
        gram = np.eye(4) - mat.conj().T @ mat
        root = eigen_root(gram)
        np.testing.assert_allclose(root @ root, gram, atol=1e-12)
        np.testing.assert_allclose(root, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotPSDError) as info:
            eigen_root(np.diag([1.0, -0.5]))
        assert info.value.min_eigenvalue == pytest.approx(-0.5)

    def test_symmetrize_is_the_hermitian_part_up_to_rel_scale(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        asym = float(np.linalg.norm(m - m.conj().T, "fro"))
        np.testing.assert_array_equal(_symmetrize(m, asym, 1.0), 0.5 * (m + m.conj().T))
        with pytest.raises(NumericalFailure, match="lost Hermitian symmetry") as info:
            _symmetrize(m, asym, 0.99)
        assert info.value.witness == {"asymmetry": asym, "bound": 0.99 * asym}


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


class TestBlockDiagAndIO:
    def test_blockdiag_apply(self):
        sec = backward(0.5, 16, 8)
        U = DenseOperator(np.diag(np.exp(1j * np.array([0.3, 1.1]))))
        block = BlockDiagOperator((sec, U))
        rng = np.random.default_rng(7)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        np.testing.assert_allclose(block.apply(v), block.operator().entries @ v, atol=1e-13)

    def test_matrix_csv_takes_every_complex_literal(self, tmp_path):
        # complex() spellings beyond the writer's: bare j, capital J,
        # parentheses, and spaces inside a cell
        path = tmp_path / "op.csv"
        path.write_text("j, 1+2J\n(1+2j), 1 + 2j \n")
        np.testing.assert_array_equal(
            read_matrix_csv(str(path)).entries, np.array([[1j, 1 + 2j], [1 + 2j, 1 + 2j]])
        )

    def test_matrix_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "op.csv"
        write_matrix_csv(str(path), mat)
        back = read_matrix_csv(str(path))
        np.testing.assert_allclose(back.entries, mat, rtol=1e-15)
