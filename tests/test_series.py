import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herop.series import (
    Binomial,
    Derived,
    FileList,
    NumericalFailure,
    OutOfDomainError,
    Polynomial,
    PowSign,
    PowerTail,
    SingularAtOriginError,
    TruncatedSeries,
    abs_tail_bound,
    alpha_at_one,
    binomial_series,
    cauchy_product,
    cesaro_number,
    cesaro_number_gamma,
    cesaro_numbers,
    evaluate_on_circle,
    invert_kernel,
    read_coefficient_file,
    reciprocal,
)
from herop.specdsl import elaborate, parse_kernel_spec


def poly(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=float), Polynomial(len(coeffs) - 1))


def brute_convolution(a, b, n_max):
    """Independent O(N^2) double-loop product, the inversion oracle."""
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        for j in range(n + 1):
            aj = a[j] if j < len(a) else 0.0
            bk = b[n - j] if n - j < len(b) else 0.0
            out[n] += aj * bk
    return out


class TestBinomialSeries:
    def test_geometric(self):
        s = binomial_series(1.0, PowSign.MINUS, 4)
        np.testing.assert_allclose(s.coeffs, [1, 1, 1, 1, 1])

    def test_square_inverse(self):
        s = binomial_series(2.0, PowSign.MINUS, 3)
        np.testing.assert_allclose(s.coeffs, [1, 2, 3, 4])

    def test_half_order_against_gamma(self):
        # third coefficient of (1-t)^(-1/2) is Gamma(2.5)/(Gamma(0.5)Gamma(3))
        s = binomial_series(0.5, PowSign.MINUS, 2)
        expected = math.gamma(2.5) / (math.gamma(0.5) * math.gamma(3))
        assert expected == pytest.approx(3 / 8, rel=1e-15)
        np.testing.assert_allclose(s.coeffs, [1.0, 0.5, expected], rtol=1e-14)

    def test_plus_minus_symmetry(self):
        plus = binomial_series(0.7, PowSign.PLUS, 32)
        minus = binomial_series(-0.7, PowSign.MINUS, 32)
        np.testing.assert_array_equal(plus.coeffs, minus.coeffs)

    def test_rejects_nonfinite_exponent(self):
        with pytest.raises(ValueError):
            binomial_series(math.inf, PowSign.PLUS, 4)

    def test_recurrence_validated_on_construction(self):
        good = binomial_series(0.5, PowSign.PLUS, 8)
        bad = np.array(good.coeffs)
        bad[5] *= 1.0 + 1e-9
        with pytest.raises(ValueError):
            TruncatedSeries(bad, Binomial(0.5))


class TestCauchyProduct:
    def test_telescoping_geometric(self):
        one_minus_t = poly(1.0, -1.0, *([0.0] * 6))
        ones = binomial_series(1.0, PowSign.MINUS, 7)
        prod = cauchy_product(one_minus_t, ones)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(prod.coeffs, expected, atol=1e-15)

    def test_small_square(self):
        f = poly(1.0, 1.0, 0.0)
        prod = cauchy_product(f, f)
        np.testing.assert_allclose(prod.coeffs, [1, 2, 1])

    def test_binomial_cancellation(self):
        f = binomial_series(0.3, PowSign.PLUS, 256)
        g = binomial_series(0.3, PowSign.MINUS, 256)
        prod = cauchy_product(f, g).coeffs
        expected = np.zeros(257)
        expected[0] = 1.0
        assert np.max(np.abs(prod - expected)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_commutative_associative(self, seed):
        rng = np.random.default_rng(seed)
        f, g, h = (TruncatedSeries(rng.uniform(-1, 1, 256), None) for _ in range(3))
        fg = cauchy_product(f, g).coeffs
        gf = cauchy_product(g, f).coeffs
        assert np.max(np.abs(fg - gf)) <= 1e-13
        left = cauchy_product(cauchy_product(f, g), h).coeffs
        right = cauchy_product(f, cauchy_product(g, h)).coeffs
        scale = max(1.0, np.max(np.abs(left)))
        assert np.max(np.abs(left - right)) <= 1e-13 * scale


class TestReciprocal:
    def test_geometric(self):
        pair = reciprocal(poly(1.0, -1.0), 8)
        np.testing.assert_allclose(pair.k.coeffs, np.ones(9))
        assert pair.inversion_residual <= 1e-14

    def test_fibonacci_with_brute_force_oracle(self):
        alpha = poly(1.0, -1.0, -1.0)
        pair = reciprocal(alpha, 5)
        np.testing.assert_allclose(pair.k.coeffs, [1, 1, 2, 3, 5, 8])
        conv = brute_convolution(alpha.coeffs, pair.k.coeffs, 5)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.max(np.abs(conv - expected)) <= 1e-14

    def test_square_gives_linear_kernel(self):
        pair = reciprocal(poly(1.0, -2.0, 1.0), 6)
        np.testing.assert_allclose(pair.k.coeffs, np.arange(1.0, 8.0))

    def test_singular_at_origin(self):
        with pytest.raises(SingularAtOriginError):
            reciprocal(poly(0.0, 1.0), 4)

    def test_nonpositive_kernel_reported_not_raised(self):
        pair = reciprocal(poly(1.0, 2.0), 6)  # k alternates sign
        assert any("nonpositive" in v for v in pair.violations)
        assert pair.inversion_residual <= 1e-12

    def test_flags_np_and_critical(self):
        pair = reciprocal(binomial_series(0.5, PowSign.PLUS, 128), 128)
        assert pair.flags.is_np
        assert pair.flags.type == "Critical"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_on_random_np_symbols(self, seed):
        rng = np.random.default_rng(seed)
        tail = rng.uniform(0.0, 1.0, 63)
        tail *= 0.9 / max(tail.sum(), 1e-9)
        alpha = TruncatedSeries(np.concatenate([[1.0], -tail]), None)
        pair = reciprocal(alpha, 256)
        assert pair.inversion_residual <= 1e-10
        assert np.all(pair.k.coeffs[1:] >= 0.0)


class TestCesaroNumbers:
    def test_first_order_is_flat(self):
        assert cesaro_number(1.0, 7) == pytest.approx(1.0, rel=1e-15)

    def test_second_order_is_linear(self):
        assert cesaro_number(2.0, 5) == pytest.approx(6.0, rel=1e-15)

    def test_half_order(self):
        assert cesaro_number(0.5, 2) == pytest.approx(0.375, rel=1e-14)

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.5, 2.0])
    def test_recurrence_matches_gamma_formula(self, a):
        values = cesaro_numbers(a, 10_000)
        checked = np.arange(0, 10_001, 37)
        for n in checked:
            assert values[n] == pytest.approx(cesaro_number_gamma(a, int(n)), rel=1e-10)

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.8, 1.0])
    def test_gautschi_sandwich(self, a):
        n = np.arange(1, 10_001, dtype=float)
        values = cesaro_numbers(a, 10_000)[1:]
        gamma_a = math.gamma(a)
        lower = (n + 1.0) ** (a - 1.0) / gamma_a
        upper = n ** (a - 1.0) / gamma_a
        assert np.all(lower <= values)
        assert np.all(values <= upper)

    def test_gamma_path_rejects_poles(self):
        with pytest.raises(ValueError):
            cesaro_number_gamma(-2.0, 5)


def value_at(f, z):
    """f(z) at one real point of the disc: a one-sample circle of radius z."""
    return evaluate_on_circle(f, z, 1)[0]


class TestEvaluate:
    def test_critical_value_at_one(self):
        assert value_at(poly(1.0, -1.0), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_origin_value(self):
        f = binomial_series(0.5, PowSign.PLUS, 2000)
        assert value_at(f, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert abs_tail_bound(f) < 1e-1

    def test_against_direct_power(self):
        f = binomial_series(0.5, PowSign.MINUS, 2000)
        assert abs(value_at(f, 0.5) - 0.5**-0.5) <= 1e-6

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            evaluate_on_circle(poly(1.0, 1.0), 1.5, 8)


class TestWienerNorm:
    """The Wiener norm sum |c_n| is the window's partial sum plus the
    certified tail that abs_tail_bound gives."""

    def test_polynomial_exact(self):
        f = poly(1.0, -1.0)
        assert float(np.sum(np.abs(f.coeffs))) == pytest.approx(2.0)
        assert abs_tail_bound(f) == 0.0

    def test_divergent_kernel_detected(self):
        assert abs_tail_bound(binomial_series(0.5, PowSign.MINUS, 4096)) == math.inf
        # partial sums grow like sqrt(N): quadrupling N doubles the sum
        s1 = float(np.sum(binomial_series(0.5, PowSign.MINUS, 1024).coeffs))
        s2 = float(np.sum(binomial_series(0.5, PowSign.MINUS, 4096).coeffs))
        assert s2 / s1 == pytest.approx(2.0, rel=0.07)

    def test_power_tail_certified(self):
        n = np.arange(1.0, 2049.0)
        coeffs = np.concatenate([[1.0], 0.1 * n**-2.0])
        tail = abs_tail_bound(TruncatedSeries(coeffs, PowerTail(0.1, 2.0, 1)))
        analytic_tail = 0.1 * (np.pi**2 / 6 - float(np.sum(n**-2.0)))
        assert analytic_tail <= tail < math.inf

    def test_binomial_tail_is_exact_partial_sum(self):
        series = binomial_series(0.5, PowSign.PLUS, 512)
        # all coefficients past the exponent share one sign and sum to -1,
        # so the absolute tail equals the partial sum exactly
        assert abs_tail_bound(series) == pytest.approx(float(np.sum(series.coeffs)), abs=1e-12)


class TestAlphaAtOne:
    def test_binomial_critical_certified(self):
        est = alpha_at_one(binomial_series(0.5, PowSign.PLUS, 64))
        assert est.certified and est.type == "Critical" and est.value == 0.0

    def test_polynomial_subcritical(self):
        est = alpha_at_one(poly(1.0, -0.5))
        assert est.certified and est.type == "Subcritical"
        assert est.value == pytest.approx(0.5)

    def test_trend_subcritical_without_generator(self):
        coeffs = np.concatenate([[1.0], -0.4 * 2.0 ** -np.arange(1.0, 257.0)])
        est = alpha_at_one(TruncatedSeries(coeffs, None))
        assert est.type == "Subcritical" and not est.certified


class TestCoefficientFile:
    def test_roundtrip_with_comments(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("# kernel head\n1.0\n0.5  # second\n\n0.375\n", encoding="utf-8")
        series = read_coefficient_file(str(path))
        np.testing.assert_allclose(series.coeffs, [1.0, 0.5, 0.375])

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_coefficient_file(str(path))

    def test_non_finite_line_reports_location(self, tmp_path):
        # user input, so a ValueError (usage error), not a NumericalFailure
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n0.5\n-inf  # overflowed upstream\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.txt:3: not a finite number: '-inf'$"):
            read_coefficient_file(str(path))


class TestImmutability:
    def test_coefficients_are_read_only(self):
        s = binomial_series(1.0, PowSign.MINUS, 4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 2.0

    def test_rejects_nan(self):
        with pytest.raises(NumericalFailure, match="not finite at degree 1$"):
            TruncatedSeries(np.array([1.0, math.nan]), None)


class TestPairTypeEstimate:
    def test_divergent_kernel_side_certifies_critical(self):
        from herop.series import invert_kernel, pair_type_estimate

        kernel = binomial_series(0.5, PowSign.MINUS, 511)
        pair = invert_kernel(kernel)
        est = pair_type_estimate(pair.alpha, pair.k)
        assert est.certified and est.type == "Critical" and est.value == 0.0

    def test_summable_kernel_side_certifies_subcritical(self):
        from herop.series import invert_kernel, pair_type_estimate

        n = np.arange(1.0, 513.0)
        kernel = TruncatedSeries(
            np.concatenate([[1.0], 0.05 * n**-2.0]), PowerTail(0.05, 2.0, 1)
        )
        pair = invert_kernel(kernel)
        est = pair_type_estimate(pair.alpha, pair.k)
        assert est.certified and est.type == "Subcritical"
        # bracket: alpha(1) = 1/k(1) with the certified kernel tail
        total = float(np.sum(kernel.coeffs))
        assert est.value == pytest.approx(1.0 / total, rel=1e-12)

    def test_untrusted_pair_falls_back_to_symbol(self):
        from herop.series import pair_type_estimate

        alpha = TruncatedSeries(np.array([1.0, -0.5, 0.1]), None)
        bad_k = binomial_series(0.5, PowSign.MINUS, 2)  # not the inverse
        est = pair_type_estimate(alpha, bad_k, trusted=False)
        assert not est.certified


# --- generator certificates -------------------------------------------------


def _certificate_window(name: str, n: int) -> TruncatedSeries:
    exponents = {"binom_neg": -0.5, "binom_steep": -1.5, "binom_frac": 0.5, "binom_big": 1.5}
    if name in exponents:
        e = exponents[name]
        return binomial_series(abs(e), PowSign.PLUS if e > 0 else PowSign.MINUS, n)
    specs = {
        "poly": "poly[1,-0.5,0.25]",
        "poly_zero": "poly[1,-2]",
        "tail_heavy": "tail(poly[1,-0.5],0.05,0.8,2)",
        "tail_light": "tail(poly[1,-0.5],0.05,2.0,2)",
    }
    if name in specs:
        return elaborate(parse_kernel_spec(specs[name]), n)
    decay = 0.5 ** np.arange(n + 1.0)
    if name == "tail_gap":  # the power law starts past the window
        return TruncatedSeries(decay, PowerTail(0.05, 2.0, n + 5))
    if name == "file":
        return TruncatedSeries(decay, FileList("k.txt"))
    return TruncatedSeries(2.0 * (np.arange(n + 1) == 0) - decay, Derived("cauchy_product"))


inf = math.inf

# Answers recorded from the code that held these rules before they moved onto
# the generators: abs_tail_bound, the sup-tail helper of operators.py, the
# weighted kernel tail of model.py, alpha_at_one, the root and binomial
# branches of check_hypotheses_A and the default b of trichotomy_test.  One
# entry differs on purpose: for (1-t)**0.5, whose coefficients past n = 0 are
# negative, the old weighted tail returned the signed c_N x**(N+1) / (1 - x),
# which bounds nothing; the decreasing envelope gives |c_N| x**(N+1) / (1 - x).
# The tail_gap rows of at_one were recorded certified too, although nothing
# is known between the window end and the start of the power law; they now
# carry the uncertified partial-sum answer, like an untagged window.  The
# binom_steep sup_tail rows were recorded as |c_N|, but the coefficients of
# (1-t)**-1.5 grow, so no window-end value bounds the tail: they are None.
RECORDED_CERTIFICATES = {
    ('binom_neg', 16): {'abs_tail': (inf, inf), 'sup_tail': (0.196380615234375, 0.13994993409141898), 'weighted_tail': (1.0861544411273905e-11, 0.0204863419850513), 'disc_zero_free': (True, {'binomial_exponent': -0.5}), 'kernel_order': 0.5, 'at_one': (inf, inf, True, 'Indeterminate')},
    ('binom_neg', 64): {'abs_tail': (inf, inf), 'sup_tail': (0.0993467537479669, 0.07038609217001518), 'weighted_tail': (6.894871143525808e-41, 4.171185268714434e-07), 'disc_zero_free': (True, {'binomial_exponent': -0.5}), 'kernel_order': 0.5, 'at_one': (inf, inf, True, 'Indeterminate')},
    ('binom_steep', 16): {'abs_tail': (inf, inf), 'sup_tail': (None, None), 'weighted_tail': (3.726262513372681e-10, 0.7957040263043371), 'disc_zero_free': (True, {'binomial_exponent': -1.5}), 'kernel_order': 1.5, 'at_one': (inf, inf, True, 'Indeterminate')},
    ('binom_steep', 64): {'abs_tail': (inf, inf), 'sup_tail': (None, None), 'weighted_tail': (8.985842734275765e-39, 5.60606252517412e-05), 'disc_zero_free': (True, {'binomial_exponent': -1.5}), 'kernel_order': 1.5, 'at_one': (inf, inf, True, 'Indeterminate')},
    ('binom_frac', 16): {'abs_tail': (0.1963806152343759, 0.13994993409142067), 'sup_tail': (0.013092041015625, 0.004514514002948999), 'weighted_tail': (3.5037240036367434e-13, 0.0006608497414532677), 'disc_zero_free': (True, {'binomial_exponent': 0.5}), 'kernel_order': None, 'at_one': (0.0, 0.0, True, 'Critical')},
    ('binom_frac', 64): {'abs_tail': (0.0993467537479702, 0.07038609217002165), 'sup_tail': (0.0015769325991740776, 0.0005542211981890958), 'weighted_tail': (5.4290323964770124e-43, 3.284397849381444e-09), 'disc_zero_free': (True, {'binomial_exponent': 0.5}), 'kernel_order': None, 'at_one': (0.0, 0.0, True, 'Critical')},
    ('binom_big', 16): {'abs_tail': (0.0130920410156259, 0.0045145140029506994), 'sup_tail': (0.003021240234375, 0.0004670186899602413), 'weighted_tail': (3.6245420727276656e-14, 6.836376635723458e-05), 'disc_zero_free': (True, {'binomial_exponent': 1.5}), 'kernel_order': None, 'at_one': (0.0, 0.0, True, 'Critical')},
    ('binom_big', 64): {'abs_tail': (0.0015769325991773777, 0.000554221198195802), 'sup_tail': (7.755406225446284e-05, 1.3301308756538291e-05), 'weighted_tail': (1.3029677751544823e-44, 7.882554838515459e-11), 'disc_zero_free': (True, {'binomial_exponent': 1.5}), 'kernel_order': None, 'at_one': (0.0, 0.0, True, 'Critical')},
    ('poly', 16): {'abs_tail': (0.0, 0.0), 'sup_tail': (0.0, 0.0), 'weighted_tail': (0.0, 0.0), 'disc_zero_free': (True, {'min_root_modulus': 2.0}), 'kernel_order': None, 'at_one': (0.75, 0.0, True, 'Subcritical')},
    ('poly', 64): {'abs_tail': (0.0, 0.0), 'sup_tail': (0.0, 0.0), 'weighted_tail': (0.0, 0.0), 'disc_zero_free': (True, {'min_root_modulus': 2.0}), 'kernel_order': None, 'at_one': (0.75, 0.0, True, 'Subcritical')},
    ('poly_zero', 16): {'abs_tail': (0.0, 0.0), 'sup_tail': (0.0, 0.0), 'weighted_tail': (0.0, 0.0), 'disc_zero_free': (False, {'min_root_modulus': 0.5}), 'kernel_order': None, 'at_one': (-1.0, 0.0, True, 'Indeterminate')},
    ('poly_zero', 64): {'abs_tail': (0.0, 0.0), 'sup_tail': (0.0, 0.0), 'weighted_tail': (0.0, 0.0), 'disc_zero_free': (False, {'min_root_modulus': 0.5}), 'kernel_order': None, 'at_one': (-1.0, 0.0, True, 'Indeterminate')},
    ('tail_heavy', 16): {'abs_tail': (inf, inf), 'sup_tail': (0.008621364299529775, 0.0051833539642126975), 'weighted_tail': (4.0228121325782636e-13, 0.0007587567842016125), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (0.6660961682022145, inf, False, 'Indeterminate')},
    ('tail_heavy', 64): {'abs_tail': (inf, inf), 'sup_tail': (0.003049010025887209, 0.0017727166306170312), 'weighted_tail': (1.7365153207492e-42, 1.0505384327025996e-08), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (0.8033678077056909, inf, False, 'Indeterminate')},
    ('tail_light', 16): {'abs_tail': (0.0059712240645396035, 0.003125), 'sup_tail': (0.0006172839506172839, 0.0001730103806228374), 'weighted_tail': (1.3427372759738735e-14, 2.5325841326142226e-05), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (0.5292173266722494, 0.003125, True, 'Subcritical')},
    ('tail_light', 64): {'abs_tail': (0.0015444119290481582, 0.00078125), 'sup_tail': (4.5913682277318646e-05, 1.1834319526627219e-05), 'weighted_tail': (1.1592646457813487e-44, 7.013195043630504e-11), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (0.5314715250704444, 0.00078125, True, 'Subcritical')},
    ('tail_gap', 16): {'abs_tail': (None, None), 'sup_tail': (None, None), 'weighted_tail': (None, None), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (1.9999847412109375, None, False, 'Subcritical')},
    ('tail_gap', 64): {'abs_tail': (None, None), 'sup_tail': (None, None), 'weighted_tail': (None, None), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (2.0, None, False, 'Subcritical')},
    ('file', 16): {'abs_tail': (None, None), 'sup_tail': (None, None), 'weighted_tail': (None, None), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (1.9999847412109375, None, False, 'Subcritical')},
    ('file', 64): {'abs_tail': (None, None), 'sup_tail': (None, None), 'weighted_tail': (None, None), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (2.0, None, False, 'Subcritical')},
    ('derived', 16): {'abs_tail': (None, None), 'sup_tail': (None, None), 'weighted_tail': (None, None), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (1.52587890625e-05, None, False, 'Indeterminate')},
    ('derived', 64): {'abs_tail': (None, None), 'sup_tail': (None, None), 'weighted_tail': (None, None), 'disc_zero_free': None, 'kernel_order': None, 'at_one': (2.7701365507004638e-17, None, False, 'Critical')},
}

_ASK = {
    "abs_tail": lambda s, n: tuple(abs_tail_bound(s, m) for m in (n // 2, n)),
    "sup_tail": lambda s, n: tuple(s.certifier.sup_tail(s.coeffs, m) for m in (n // 2, n)),
    "weighted_tail": lambda s, n: tuple(
        s.certifier.weighted_tail(s.coeffs, x) for x in (0.25, 0.81)
    ),
    "at_one": lambda s, n: dataclasses.astuple(alpha_at_one(s)),
    "disc_zero_free": lambda s, n: s.certifier.disc_zero_free(s.coeffs),
    "kernel_order": lambda s, n: s.certifier.kernel_order(),
}


def test_binomial_sup_tail_refuses_growing_coefficients():
    # (1-t)**-2 has c_n = n + 1, so nothing past the window is bounded by c_10
    growing = binomial_series(2.0, PowSign.MINUS, 64)
    assert growing.certifier.sup_tail(growing.coeffs, 10) is None
    # (1-t)**-1 has c_n = 1: the window-end value bounds the tail exactly
    flat = binomial_series(1.0, PowSign.MINUS, 64)
    assert flat.certifier.sup_tail(flat.coeffs, 10) == 1.0


@pytest.mark.parametrize("question", sorted(_ASK))
def test_generator_certificates_match_recorded(question):
    got = {key: _ASK[question](_certificate_window(*key), key[1]) for key in RECORDED_CERTIFICATES}
    assert got == {key: answers[question] for key, answers in RECORDED_CERTIFICATES.items()}


# --- fast paths against the code they replace -------------------------------


def _horner(coeffs: np.ndarray, z: complex) -> complex:
    """Horner's rule at one complex point, the reference for circle FFTs."""
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


@pytest.mark.parametrize("size", [40, 64, 256, 273])  # below, at, a multiple of, past S
@pytest.mark.parametrize("radius", [0.5, 0.99, 1.0])
def test_circle_fft_matches_horner(size, radius):
    samples = 64
    c = np.random.default_rng(size).standard_normal(size)
    got = evaluate_on_circle(TruncatedSeries(c), radius, samples)
    points = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    want = np.array([_horner(c, z) for z in points])
    scale = float(np.sum(np.abs(c) * radius ** np.arange(size)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "f, g, n",
    [
        ([1.0, -0.5, 0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 6),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.5, 0.0, 0.25, 0.0, 0.0, 0.0], 6),
        ([1.0, 0.3, 0.0, 0.0], [2.0, -1.0, 0.0, 0.0], 4),
        ([1.0, 0.0, 0.0, 0.0, 7.0], [1.0, 1.0, 0.0, 0.0, 0.0], 3),  # cut hides the 7
        ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 3),
        (poly(1.0, -0.3, 0.02).padded(4097), binomial_series(0.5, PowSign.MINUS, 4096).coeffs, 4097),
    ],
)
def test_trimmed_convolution_matches_direct(f, g, n):
    from herop.series import _convolve

    f, g = np.array(f), np.array(g)
    got, direct = _convolve(f, g, n), np.convolve(f[:n], g[:n])[:n]
    assert got.shape == (n,)
    assert np.max(np.abs(got - direct)) <= 1e-15 * max(np.max(np.abs(direct)), 1.0)


def _direct_sum_bound(f, g, n):
    """Twice gamma_n (|f| * |g|), the componentwise error bound of direct
    sums of n terms, for the first n coefficients."""
    u = 2.0**-53
    return 2.0 * (n * u / (1.0 - n * u)) * np.convolve(np.abs(f[:n]), np.abs(g[:n]))[:n]


def _longdouble_product(f, g, n):
    out = np.zeros(n, dtype=np.longdouble)
    prod = np.convolve(f[:n].astype(np.longdouble), g[:n].astype(np.longdouble))[:n]
    out[: prod.size] = prod
    return out


def _factors(seed, nf, ng, lead, trail):
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal(nf), rng.standard_normal(ng)
    f[:lead] = 0.0  # as in the pair-decay sum's masked window
    g[ng - trail :] = 0.0  # as in a zero-extended polynomial
    return f, g


def _edge_lengths(base, ks):
    return st.builds(lambda k, e: base + k * 128 + e, st.sampled_from(ks), st.sampled_from([-1, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(
    nf=_edge_lengths(0, [1, 2, 3, 5]),
    ng=_edge_lengths(0, [1, 2, 3, 5]),
    cut=st.integers(0, 300),
    lead=st.integers(0, 40),
    trail=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_product_at_block_edges(nf, ng, cut, lead, trail, seed):
    from herop.series import _blocked_product

    f, g = _factors(seed, nf, ng, lead, trail)
    n = max(max(nf, ng) - cut, 1)  # longer than one factor, or shorter than both
    got = _blocked_product(np.trim_zeros(f[:n], "b"), np.trim_zeros(g[:n], "b"), n)
    assert got.shape == (n,)
    err = np.abs(got.astype(np.longdouble) - _longdouble_product(f, g, n))
    assert np.all(err <= _direct_sum_bound(f, g, n))


@settings(max_examples=12, deadline=None)
@given(
    nf=_edge_lengths(8192, [-1, 0, 1, 2]),
    ng=_edge_lengths(8192, [-1, 0, 1, 2]),
    cut=st.sampled_from([0, 1, 129, 300]),
    lead=st.integers(0, 40),
    trail=st.sampled_from([0, 1, 127, 300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolve_across_the_crossover(nf, ng, cut, lead, trail, seed):
    from herop.series import _BLOCKED_FROM, _convolve

    f, g = _factors(seed, nf, ng, lead, trail)
    n = min(nf, ng) - cut
    got = _convolve(f, g, n)
    ft, gt = np.trim_zeros(f[:n], "b"), np.trim_zeros(g[:n], "b")
    if min(ft.size, gt.size) < _BLOCKED_FROM:  # np.convolve, bit for bit
        direct = np.zeros(n)
        direct[: min(n, ft.size + gt.size - 1)] = np.convolve(ft, gt)[:n]
        assert np.array_equal(got, direct)
    err = np.abs(got.astype(np.longdouble) - _longdouble_product(f, g, n))
    assert np.all(err <= _direct_sum_bound(f, g, n))


@pytest.mark.parametrize("e", [0.3, -0.3, 0.5, -0.5, 1.5, -1.5])
def test_closed_form_binomial_inverse_matches_recurrence(e):
    from herop.series import _invert_coeffs

    n = 1023
    alpha = binomial_series(e, PowSign.PLUS, n)
    closed = alpha.certifier.inverse(alpha.coeffs, n)
    assert closed.generator == Binomial(-e)
    loop = _invert_coeffs(alpha.coeffs, n)
    assert np.max(np.abs(closed.coeffs - loop)) <= 1e-12 * np.max(np.abs(closed.coeffs))


def test_closed_form_inverse_needs_the_whole_window():
    window = binomial_series(0.5, PowSign.PLUS, 16)
    assert window.certifier.inverse(window.coeffs, 16) is not None
    assert window.certifier.inverse(window.coeffs, 17) is None  # zero-extended past N
    assert Polynomial(1).inverse(np.array([1.0, -0.5]), 1) is None


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
def test_inverted_kernel_keeps_binomial_tag(s):
    pair = invert_kernel(elaborate(parse_kernel_spec(f"pow1mt({-s})"), 1023))
    assert pair.alpha.generator == Binomial(s)


def test_reciprocal_keeps_binomial_tag_at_large_n():
    pair = reciprocal(elaborate(parse_kernel_spec("pow1mt(0.5)"), 65536), 65536)
    assert pair.k.generator == Binomial(-0.5)
    assert pair.inversion_residual <= 1e-10


def test_binomial_inverse_overflow_names_first_infinite_degree():
    # (1-t)**-300 leaves float range at n = 1050, with no earlier
    # intermediate overflow to report a lower degree
    with pytest.raises(NumericalFailure, match="inversion overflowed at degree 1050$") as info:
        reciprocal(binomial_series(300.0, PowSign.PLUS, 4096), 4096)
    assert info.value.witness == {"degree": 1050}
    # below it the inverse exists, but alpha * k leaves float range
    pair = reciprocal(binomial_series(300.0, PowSign.PLUS, 1000), 1000)
    assert "inversion residual nan above 1e-10" in pair.violations



# --- the inversion recurrence against the per-step-copy loop ----------------


def _copying_inverse(c, n_max):
    """The recurrence as a loop that dots a reversed view of k per step (numpy
    copies it first): the reference the reversed buffer must match bit for bit."""
    deg = int(np.max(np.nonzero(c)[0]))
    inv0 = 1.0 / c[0]
    k = np.empty(n_max + 1)
    k[0] = inv0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            j = min(n, deg)
            stop = n - j - 1
            acc = np.dot(c[1 : j + 1], k[n - 1 : (stop if stop >= 0 else None) : -1]) if j >= 1 else 0.0
            k[n] = -inv0 * acc
            if not math.isfinite(k[n]):
                raise NumericalFailure(f"inversion overflowed at degree {n}", {"degree": n})
    return k


def _outcome(invert, c, n_max):
    try:
        return invert(c, n_max).view(np.int64)
    except NumericalFailure as exc:
        return (str(exc), exc.witness)


def _assert_same_inverse(c, n_max):
    from herop.series import _invert_coeffs

    got, ref = _outcome(_invert_coeffs, c, n_max), _outcome(_copying_inverse, c, n_max)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, ref)


def _window(spec, n_max):
    return elaborate(parse_kernel_spec(spec), n_max).padded(n_max + 1)


@pytest.mark.parametrize("n_max", [1, 7, 1000, 32768])
@pytest.mark.parametrize("deg", [1, 2, 3, 4, 5])
def test_inversion_matches_copying_loop_on_polynomials(deg, n_max):
    rng = np.random.default_rng(deg)
    tail = rng.uniform(0.05, 1.0, deg)
    c = np.zeros(max(deg, n_max) + 1)  # deg > n_max: the head loop alone
    c[0], c[1 : deg + 1] = 1.0, -0.95 * tail / tail.sum() * rng.choice([-1.0, 1.0], deg)
    _assert_same_inverse(c, n_max)


@pytest.mark.parametrize(
    "spec",
    ["pow1mt(0.3)*poly[1.0,0.3]", "pow1mt(0.5)*poly[1,0.3]", "tail(poly[1,-0.5],0.05,1.5,2)"],
)
def test_inversion_matches_copying_loop_on_dense_windows(spec):
    # runs up to 16384 long pass OpenBLAS's threaded-ddot length; both loops
    # call ddot on the same values in the same order, so any split matches
    c = _window(spec, 16384)
    assert np.count_nonzero(c) == c.size
    _assert_same_inverse(c, 16384)


@pytest.mark.parametrize(
    "c",
    [
        np.array([2.0]),
        np.array([2.0, 0.0, 0.0, 0.0]),  # deg = 0: every k_n is -0.0
        np.array([-0.5, 0.0, 0.0]),  # deg = 0 with a negative constant term
        np.array([1.0, -0.5]),  # deg = n_max = 1
        np.linspace(1.0, -0.1, 301),  # deg = n_max
    ],
    ids=["constant N=0", "constant", "negative constant", "linear deg=N", "dense deg=N"],
)
def test_inversion_matches_copying_loop_at_the_edges(c):
    _assert_same_inverse(c, c.size - 1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    st.lists(st.just(0.0) | st.floats(-3.0, 3.0), max_size=40),
    st.integers(0, 600),
)
def test_inversion_matches_copying_loop_on_drawn_windows(c0, rest, n_max):
    c = np.zeros(n_max + 1)
    body = np.array([c0, *rest])[: n_max + 1]
    c[: body.size] = body
    _assert_same_inverse(c, n_max)


@pytest.mark.parametrize("spec, degree", [("poly[1,-1,-1]", 1476), ("pow1mt(0.5)*poly[1,-3]", 646)])
def test_inversion_overflow_degree_matches_copying_loop(spec, degree):
    from herop.series import _invert_coeffs

    c = _window(spec, 4096)
    with pytest.raises(NumericalFailure, match=f"inversion overflowed at degree {degree}$") as info:
        _invert_coeffs(c, 4096)
    assert info.value.witness == {"degree": degree}
    _assert_same_inverse(c, 4096)


# --- extended-precision references ------------------------------------------


def _mp_binomial(e, n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        out, e = [mpmath.mpf(1)], mpmath.mpf(e)
        for j in range(1, n + 1):
            out.append(out[-1] * (j - e - 1) / j)
    return out


def _max_rel_err(got, ref):
    return max(abs((x - float(y)) / float(y)) for x, y in zip(got, ref) if y != 0)


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("a", [0.3, 0.5, 1.5, 2.75])
def test_cesaro_numbers_against_mpmath(n, a):
    # each number is a product of n factors, each rounded up to three times
    assert _max_rel_err(cesaro_numbers(a, n), _mp_binomial(-a, n)) <= 3 * n * 2.0**-53


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("a", [0.3, 0.5, 1.5])
def test_binomial_inverse_against_mpmath(n, a):
    k = reciprocal(binomial_series(a, PowSign.PLUS, n), n).k.coeffs
    assert _max_rel_err(k, _mp_binomial(-a, n)) <= 3 * n * 2.0**-53
    alpha = invert_kernel(binomial_series(a, PowSign.MINUS, n)).alpha.coeffs
    assert _max_rel_err(alpha, _mp_binomial(a, n)) <= 3 * n * 2.0**-53
