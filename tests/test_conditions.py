import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herop import conditions, operators, series
from herop.conditions import (
    SignPattern,
    Verdict,
    banach_algebra_condition,
    check_hypotheses_A,
    check_hypotheses_B,
    classify_critical,
    classify_np,
    generate_sign_pattern_kernel,
    holder_exponent_estimate,
    muller_condition_estimate,
    muller_sufficient_check,
    reciprocal_summability_check,
    tau_condition_check,
    _grows,
    _sup_trend,
)
from herop.operators import (
    UnboundedShiftError,
    shift_membership_backward,
    shift_membership_forward,
)
from herop.series import (
    Derived,
    KernelPair,
    NumericalFailure,
    Polynomial,
    PowSign,
    PowerTail,
    TruncatedSeries,
    binomial_series,
    reciprocal,
)
from herop.specdsl import elaborate, parse_kernel_spec

POSITIVE = (Verdict.HOLDS, Verdict.TREND_HOLDS)


def poly(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=float), Polynomial(len(coeffs) - 1))


def weights(values):
    return TruncatedSeries(np.asarray(values, dtype=float), None)


class TestHypothesesA:
    def test_np_binomial_holds(self):
        pair = reciprocal(binomial_series(0.5, PowSign.PLUS, 512), 512)
        report = check_hypotheses_A(pair, circle_samples=4096)
        assert report.verdict is Verdict.HOLDS
        # boundary zero allowed, interior grid minima strictly positive
        assert min(report.witness["circle_grid_min"][r] for r in ("0.5", "0.9", "0.99")) > 0

    def test_interior_zero_fails(self):
        pair = reciprocal(poly(1.0, -2.0), 64)  # root at t = 1/2
        assert check_hypotheses_A(pair).verdict is Verdict.FAILS

    def test_linear_symbol_holds(self):
        pair = reciprocal(poly(1.0, -1.0), 64)
        assert check_hypotheses_A(pair).verdict is Verdict.HOLDS

    def test_nonpositive_kernel_fails(self):
        pair = reciprocal(poly(1.0, 2.0), 64)
        assert check_hypotheses_A(pair).verdict is Verdict.FAILS

    @pytest.mark.parametrize("n", [64, 256])
    def test_dominated_coefficients(self, n):
        # a power tail has neither exact roots nor binomial structure: HypA
        # holds from 1 - sum |alpha_n| > 0, the tail's absolute mass bounded.
        # At n = 256 the kernel turns non-positive first
        alpha = elaborate(parse_kernel_spec("tail(poly[1,-0.9],0.001,2,2)"), n)
        report = check_hypotheses_A(reciprocal(alpha, n))
        if n == 64:
            assert report.verdict is Verdict.HOLDS
            assert report.witness["offorigin_abs_mass"] == 0.900645055501409
        else:
            assert report.verdict is Verdict.FAILS
            assert report.witness == {"nonpositive_kernel_index": 105}


class TestHypothesesB:
    def test_linear_symbol_decidable(self):
        pair = reciprocal(poly(1.0, -1.0), 1024)
        report = check_hypotheses_B(pair)
        assert report.verdict is Verdict.HOLDS
        assert report.witness["sup_k_ratio"] == pytest.approx(1.0)
        assert report.witness["sup_gamma_over_k"] == pytest.approx(2.0)

    def test_fractional_symbol_trend(self):
        pair = reciprocal(binomial_series(0.5, PowSign.PLUS, 4096), 4096)
        report = check_hypotheses_B(pair)
        assert report.verdict in POSITIVE
        assert report.witness["sup_k_ratio"] <= 2.0 + 1e-12

    def test_bergman_kernel_ratio_one(self):
        pair = reciprocal(poly(1.0, -2.0, 1.0), 2048)  # k_n = n + 1
        report = check_hypotheses_B(pair)
        assert report.verdict in POSITIVE
        assert report.witness["sup_k_ratio"] <= 1.0 + 1e-12


class TestClassification:
    def test_np_holds_for_fractional(self):
        assert classify_np(binomial_series(0.5, PowSign.PLUS, 256)).verdict is Verdict.HOLDS

    def test_np_fails_for_square(self):
        report = classify_np(binomial_series(2.0, PowSign.PLUS, 8))
        assert report.verdict is Verdict.FAILS
        assert report.witness["offending_index"] == 2

    def test_np_fails_on_generated_plus_pattern(self):
        pair, _ = generate_sign_pattern_kernel(SignPattern.from_string("+-"), 128)
        assert classify_np(pair.alpha).verdict is Verdict.FAILS

    def test_critical_binomial(self):
        pair = reciprocal(binomial_series(0.5, PowSign.PLUS, 256), 256)
        report = classify_critical(pair)
        assert report.witness["type"] == "Critical"
        assert report.verdict is Verdict.HOLDS

    def test_subcritical_polynomial(self):
        report = classify_critical(reciprocal(poly(1.0, -0.5), 128))
        assert report.witness["type"] == "Subcritical"
        assert report.witness["estimate"] == pytest.approx(0.5)

    def test_oscillating_indeterminate(self):
        n = np.arange(1.0, 4097.0)
        coeffs = np.concatenate([[1.0], (-1.0) ** n * n**-0.1])
        pair_like = reciprocal(poly(1.0, -1.0), 4096)
        alpha = TruncatedSeries(coeffs, None)
        object.__setattr__(pair_like, "alpha", alpha)
        report = classify_critical(pair_like)
        assert report.verdict is Verdict.INDETERMINATE


class TestMullerDecay:
    def test_power_tail_kernel_trend_holds(self):
        n = np.arange(1.0, 8193.0)
        k = weights(np.concatenate([[1.0], 0.1 * n**-2.0]))
        report = muller_condition_estimate(k, [4, 8, 16, 32, 64])
        assert report.verdict is Verdict.TREND_HOLDS
        table = dict((int(i), v) for i, v in report.witness["trend"])
        assert table[64] < 0.5 * table[4]

    def test_flat_kernel_trend_fails(self):
        k = weights(np.ones(2049))
        report = muller_condition_estimate(k, [4, 8, 16, 32])
        assert report.verdict is Verdict.TREND_FAILS
        # closed form: the inner sum at n = N counts N/2 - m + 1 flat terms
        table = dict((int(i), v) for i, v in report.witness["trend"])
        assert table[4] == pytest.approx(2048 // 2 - 4 + 1)

    def test_root_kernel_obstructed(self):
        k = binomial_series(0.5, PowSign.MINUS, 4096)
        report = muller_condition_estimate(k, [4, 8, 16, 32])
        assert report.verdict is Verdict.TREND_FAILS
        values = [v for _, v in report.witness["trend"]]
        assert min(values) > 1.0  # bounded below by a positive constant


class TestMullerSufficient:
    def test_quadratic_weights_hold_at_two(self):
        n = np.arange(1.0, 2049.0)
        k = weights(np.concatenate([[1.0], (n + 1.0) ** -2.0]))
        report = muller_sufficient_check(k, [1.5, 2.0, 3.0])
        assert report.verdict is Verdict.HOLDS
        assert 2.0 in report.witness["passing"]

    def test_flat_weights_fail(self):
        report = muller_sufficient_check(weights(np.ones(1025)), [1.5, 2.0, 4.0])
        assert report.verdict is Verdict.FAILS

    def test_oscillating_weights_fail_but_decay_condition_survives(self):
        n = np.arange(1.0, 8193.0)
        base = np.concatenate([[1.0], 0.1 * n**-2.0])
        wobble = base * (1.0 + 0.1 * (-1.0) ** np.arange(8193.0))
        wobble[0] = 1.0
        k = weights(wobble)
        assert muller_sufficient_check(k, [1.5, 2.0, 3.0]).verdict is Verdict.FAILS
        assert muller_condition_estimate(k, [4, 8, 16, 32, 64]).verdict is Verdict.TREND_HOLDS


class TestBanachAlgebra:
    def test_exponential_weights_fail_linearly(self):
        w = weights(2.0 ** np.arange(0.0, 401.0))
        report = banach_algebra_condition(w)
        assert report.verdict is Verdict.FAILS
        # exact closed form: row sum at n is n + 1
        assert report.witness["sup"] == pytest.approx(401.0)

    def test_quadratic_weights_trend_hold(self):
        w = weights((np.arange(0.0, 8193.0) + 1.0) ** 2)
        assert banach_algebra_condition(w).verdict is Verdict.TREND_HOLDS

    def test_flat_weights_fail(self):
        report = banach_algebra_condition(weights(np.ones(2049)))
        assert report.verdict is Verdict.FAILS
        assert report.witness["sup"] == pytest.approx(2049.0)


class TestTauCondition:
    def test_quadratic_weights(self):
        w = weights((np.arange(0.0, 4097.0) + 1.0) ** 2)
        report = tau_condition_check(w)
        assert report.verdict is Verdict.TREND_HOLDS
        # tau_j <= 4 (j+1)^-2: the max over n of w_n/w_{n-j} at n = 2j is 4
        for j, tau in report.witness["trend"]:
            if j >= 1:
                assert tau <= 4.0 / (j + 1.0) ** 2 + 1e-12

    def test_flat_weights_fail(self):
        report = tau_condition_check(weights(np.ones(1025)))
        assert report.verdict is Verdict.FAILS
        assert all(tau == pytest.approx(1.0) for _, tau in report.witness["trend"])

    def test_stretched_exponential(self):
        w = weights(np.exp(np.sqrt(np.arange(0.0, 4097.0))))
        assert tau_condition_check(w).verdict is Verdict.TREND_HOLDS

    @pytest.mark.parametrize("n", [0, 1, 2, 200, 8192])
    @pytest.mark.parametrize("shape", ["quadratic", "flat", "stretched_exp", "random"])
    def test_matches_a_temporary_per_j(self, shape, n):
        # the reference divides into a fresh array for each j; the buffered
        # divisions are the same and max is exact, so every tau keeps its bits
        x = np.arange(0.0, n + 1.0)
        w = {
            "quadratic": (x + 1.0) ** 2,
            "flat": np.ones(n + 1),
            "stretched_exp": np.exp(np.sqrt(x)),
            "random": np.random.default_rng(n).uniform(0.5, 2.0, n + 1),
        }[shape]
        tau = np.array([np.max(w[2 * j :] / w[j : n - j + 1]) / w[j] for j in range(n // 2 + 1)])
        report = tau_condition_check(weights(w))
        step = max(1, (n // 2) // 64)  # every tau is a trend row when n < 256
        assert report.witness["trend"] == [[j, float(tau[j])] for j in range(0, n // 2 + 1, step)]
        assert report.witness["partial_sum"] == float(np.cumsum(tau)[-1])


class TestReciprocalSummability:
    def test_quadratic_weights_converge(self):
        w = weights((np.arange(0.0, 8193.0) + 1.0) ** 2)
        report = reciprocal_summability_check(w)
        assert report.verdict is Verdict.TREND_HOLDS
        assert report.witness["partial_sum"] == pytest.approx(np.pi**2 / 6, abs=2e-4)

    def test_flat_weights_fail(self):
        assert reciprocal_summability_check(weights(np.ones(4097))).verdict is Verdict.FAILS

    def test_log_squared_weights(self):
        n = np.arange(0.0, 4097.0)
        w = weights((n + 1.0) * np.log(n + 2.0) ** 2)
        assert reciprocal_summability_check(w).verdict is Verdict.TREND_HOLDS


class TestChainInvariants:
    """Cross-checks among the algebra conditions on shared weights."""

    @pytest.mark.parametrize(
        "omega",
        [
            (np.arange(0.0, 4097.0) + 1.0) ** 2,
            np.exp(np.sqrt(np.arange(0.0, 4097.0))),
        ],
        ids=["quadratic", "stretched_exp"],
    )
    def test_tau_implies_algebra(self, omega):
        w = weights(omega)
        if tau_condition_check(w).verdict is Verdict.TREND_HOLDS:
            assert banach_algebra_condition(w).verdict in POSITIVE

    def test_algebra_plus_root_one_implies_reciprocal_summable(self):
        w = weights((np.arange(0.0, 4097.0) + 1.0) ** 2)
        assert banach_algebra_condition(w).verdict in POSITIVE
        n_samples = [4096 // 4, 4096 // 2, 3 * 4096 // 4, 4096]
        roots = [w.coeffs[n] ** (1.0 / n) for n in n_samples]
        assert all(abs(r - 1.0) <= 0.02 for r in roots)
        assert reciprocal_summability_check(w).verdict is Verdict.TREND_HOLDS

    def test_inverse_symbol_bounded_in_weighted_sup(self):
        # for a generated pair the inverse of the symbol is the kernel, and
        # its coefficients against the weights 1/k_n stay exactly at 1
        pair, _ = generate_sign_pattern_kernel(SignPattern.from_string("+-"), 512)
        omega = 1.0 / pair.k.coeffs
        products = np.abs(pair.k.coeffs) * omega
        assert np.max(np.abs(products - 1.0)) <= 1e-12


class TestKernelUnderflow:
    """Geometric kernels underflow float range long before large windows;
    that is evidence exhaustion, not a sign violation."""

    def test_underflow_reported_and_indeterminate(self):
        pair = reciprocal(poly(1.0, -0.3, -0.1), 2048)  # k_n ~ c 2^-n
        assert any("underflow" in v for v in pair.violations)
        report = check_hypotheses_A(pair)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.witness["kernel_underflow_from"] > 900

    def test_ratio_checks_stay_finite(self):
        pair = reciprocal(poly(1.0, -0.3, -0.1), 2048)
        with np.errstate(all="raise"):
            report = check_hypotheses_B(pair)
        assert report.verdict in (Verdict.HOLDS, Verdict.TREND_HOLDS)

    def test_faithful_window_is_clean(self):
        pair = reciprocal(poly(1.0, -0.3, -0.1), 512)
        assert not pair.violations
        assert check_hypotheses_A(pair).verdict is Verdict.HOLDS

    def test_genuine_sign_violation_still_fails(self):
        pair = reciprocal(poly(1.0, 2.0), 64)  # alternating kernel signs
        assert check_hypotheses_A(pair).verdict is Verdict.FAILS


class TestHolderExponent:
    def test_quadratic_tail_passes_to_one_third(self):
        n = np.arange(1.0, 8193.0)
        k = TruncatedSeries(np.concatenate([[1.0], 0.05 * n**-2.0]), PowerTail(0.05, 2.0, 1))
        report = holder_exponent_estimate(k, [0.1, 0.2, 0.3, 0.4, 0.5])
        assert report.verdict is Verdict.HOLDS
        assert report.witness["best_s"] == pytest.approx(0.3)
        assert report.witness["tail_fit"]["eps"] == pytest.approx(1.0, abs=0.1)

    def test_flat_kernel_fails_all(self):
        k = TruncatedSeries(np.ones(4097), Derived("flat"))
        report = holder_exponent_estimate(k, [0.1, 0.3, 0.5])
        assert report.verdict is Verdict.FAILS

    def test_geometric_kernel_passes_everywhere(self):
        k = TruncatedSeries(2.0 ** -np.arange(0.0, 129.0), Polynomial(128))
        report = holder_exponent_estimate(k, [0.1, 0.3, 0.5, 0.7, 0.9])
        assert report.verdict is Verdict.HOLDS
        assert report.witness["best_s"] == pytest.approx(0.9)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            holder_exponent_estimate(TruncatedSeries(np.ones(16), None), [0.0, 0.5])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1e-300, math.inf])),
                    max_size=30).map(np.array))
    @example(np.array([1.0] * 5 + [1.05] * 5))
    @example(np.array([1.0] * 5 + [1.0500000000000003] * 5))
    @example(np.array([math.inf] * 5 + [1.0] * 5))
    @example(np.array([1.0] * 9 + [math.inf]))
    def test_growth_rule_matches_the_inline_form(self, samples):
        # the rule as it was written inline, twice: the last 5 samples
        # against 1.05 times the sup of the rest, or fewer than 10 samples
        if samples.size >= 10:
            inline = float(np.max(samples[-5:])) > 1.05 * float(np.max(samples[:-5])) + 1e-300
        else:
            inline = True
        assert _grows(samples) == inline


def brute_inverse_by_compositions(alpha, n):
    """Kernel coefficient as the signed sum over compositions of n."""
    total = 0.0
    for s in range(1, n + 1):
        for parts in itertools.product(range(1, n + 1), repeat=s):
            if sum(parts) == n:
                term = (-1.0) ** s
                for part in parts:
                    term *= alpha[part]
                total += term
    return total


class TestSignPatternGenerator:
    def test_plus_minus_pattern(self):
        pair, report = generate_sign_pattern_kernel(
            SignPattern.from_string("+-", epsilon=1e-3, tail_amplitude=0.05, tail_exponent=2.0),
            512,
        )
        assert report.verdict is Verdict.HOLDS
        alpha = pair.alpha.coeffs
        assert alpha[1] < 0 and alpha[2] > 0 and alpha[3] < 0
        assert np.all(pair.k.coeffs[1:] > 0)
        assert pair.inversion_residual <= 1e-10

    def test_all_minus_reduces_to_np(self):
        pair, report = generate_sign_pattern_kernel(SignPattern.from_string("--"), 256)
        assert report.verdict is Verdict.HOLDS
        assert report.witness["halvings"] == 0
        assert classify_np(pair.alpha).verdict is Verdict.HOLDS
        assert set(report.witness) == {"epsilon", "halvings", "achieved_epsilon",
                                       "inversion_residual", "alpha_head", "min_kernel_coeff"}
        assert report.witness["min_kernel_coeff"] == min(pair.k.coeffs[1:])

    def test_halving_report_keys(self):
        pair, report = generate_sign_pattern_kernel(SignPattern.from_string("+-"), 256)
        assert report.verdict is Verdict.HOLDS
        assert set(report.witness) == {"epsilon", "halvings", "min_truncated_inverse_coeff",
                                       "circle_min_alpha", "circle_min_k", "achieved_epsilon",
                                       "inversion_residual", "alpha_head", "min_kernel_coeff"}
        assert report.witness["min_kernel_coeff"] == min(pair.k.coeffs[1:])

    def test_single_plus_against_composition_formula(self):
        pattern = SignPattern.from_string("+")
        pair, report = generate_sign_pattern_kernel(pattern, 16)
        assert report.verdict is Verdict.HOLDS
        alpha = pair.alpha.coeffs
        for n in range(1, 5):
            assert pair.k.coeffs[n] == pytest.approx(
                brute_inverse_by_compositions(alpha, n), rel=1e-10
            )
            assert pair.k.coeffs[n] > 0

    def test_determinism(self):
        a = generate_sign_pattern_kernel(SignPattern.from_string("+-+"), 256)
        b = generate_sign_pattern_kernel(SignPattern.from_string("+-+"), 256)
        np.testing.assert_array_equal(a[0].alpha.coeffs, b[0].alpha.coeffs)

    def test_budget_exhaustion_raises(self):
        # at epsilon = 1e300, 60 halvings leave the "+" slot at 8.67e281,
        # where the truncated inverse is still negative: the budget runs out
        pattern = SignPattern.from_string("+-", epsilon=1e300)
        with pytest.raises(conditions.GenerationFailedError, match="halving budget exhausted") as exc:
            generate_sign_pattern_kernel(pattern, 64)
        witness = exc.value.witness
        assert set(witness) == {"epsilon", "halvings", "min_truncated_inverse_coeff",
                                "circle_min_alpha", "circle_min_k"}
        assert witness["halvings"] == conditions._MAX_HALVINGS and witness["epsilon"] == 1e300 / 2.0**60
        assert witness["min_truncated_inverse_coeff"] < 0.0

    def test_overflowing_inverse_is_a_failed_candidate(self):
        # at epsilon = 1e300 the truncated inverse of "+-+" overflows at degree 4, and
        # still does after 60 halvings: the budget runs out, with the degree as witness
        pattern = SignPattern.from_string("+-+", epsilon=1e300)
        with pytest.raises(conditions.GenerationFailedError, match="halving budget exhausted") as exc:
            generate_sign_pattern_kernel(pattern, 64)
        assert exc.value.witness == {"epsilon": 1e300 / 2.0**60, "halvings": 60, "overflow_degree": 4}

    def test_overflowing_inverse_is_halved_away(self):
        # "+" then 80 "-" at epsilon = 1e8 overflows at degree 78; halving repairs it.
        # The first candidate: 1, -delta, epsilon, then 80 times -delta, delta = 1/(2 (82 + 1))
        pattern = SignPattern.from_string("+" + "-" * 80, epsilon=1e8)
        with pytest.raises(NumericalFailure, match="inversion overflowed at degree 78"):
            conditions._invert_coeffs(np.array([1.0, -1 / 166, 1e8, *[-1 / 166] * 80]), 82)
        _, report = generate_sign_pattern_kernel(pattern, 256)
        assert report.verdict is Verdict.HOLDS and report.witness["halvings"] == 42

    def test_epsilon_halving_reported(self):
        pattern = SignPattern.from_string("+", epsilon=10.0)
        pair, report = generate_sign_pattern_kernel(pattern, 64)
        assert report.verdict is Verdict.HOLDS
        assert report.witness["achieved_epsilon"] < 10.0
        assert report.witness["halvings"] > 0


# --- one sup-and-trend routine: the hand-written forms it replaced ----------


def _parent_running_sup_stabilized(values, rel=0.01):
    if values.size < 8:
        return False
    run = np.maximum.accumulate(values)
    half = run[values.size // 2]
    return bool(run[-1] <= (1.0 + rel) * half + 1e-300)


def _parent_backward_settled(ratio):
    n = ratio.size - 1
    head = ratio[: max((3 * n) // 4, 1)]
    return bool(np.max(ratio[(3 * n) // 4 :]) <= (1.0 + 0.01) * np.max(head))


def _parent_banach_flat(rows):
    n = rows.size - 1
    run = np.maximum.accumulate(rows)
    return bool(run[-1] <= run[(3 * n) // 4] * (1.0 + 1e-6))


def _parent_trend(values):
    n = values.size - 1
    step = max(1, n // 64)
    return [[int(i), float(v)] for i, v in zip(np.arange(0, n + 1, step), values[::step])]


def _hypB_form(values):
    return values.size >= 8 and _sup_trend(values, values.size // 2, 0.01, 1e-300)[2]


def _backward_form(values):
    n = values.size - 1
    return _sup_trend(values, max((3 * n) // 4, 1) - 1, 0.01)[2]


def _banach_form(values):
    return _sup_trend(values, (3 * (values.size - 1)) // 4, 1e-6)[2]


@contextmanager
def _spy(module):
    """Record (values, result) of every _sup_trend call the module makes."""
    seen = []

    def record(values, *args):
        out = _sup_trend(values, *args)
        seen.append((np.array(values), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_sup_trend", record)
        yield seen


def _bits(x):
    return np.float64(x).tobytes()


# ties, zeros and values at the 1e-300 floor, next to arbitrary magnitudes
_ENTRIES = st.one_of(
    st.sampled_from([0.0, 1e-300, 2e-300, 1.0, 1.005, 1.01, 1.0100000000000002, 1.02, 2.0]),
    st.floats(0.0, 1e3),
)


class TestSupTrend:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRIES, min_size=1, max_size=40).map(np.array))
    @example(np.array([0.0] * 8 + [1e-300]))
    @example(np.array([1.0, 1.5, 1.5, 2.0, 2.0]))
    def test_matches_the_hand_written_forms(self, values):
        sup, i_sup, _, trend = _sup_trend(values, 0, 0.0)
        assert i_sup == int(np.argmax(values)) and _bits(sup) == _bits(np.max(values))
        assert trend == _parent_trend(values)
        assert _hypB_form(values) == _parent_running_sup_stabilized(values)
        assert _backward_form(values) == _parent_backward_settled(values)
        assert _banach_form(values) == _parent_banach_flat(values)

    @pytest.mark.parametrize("size", range(1, 11))
    @pytest.mark.parametrize("last", [1e-300, 1.5e-300, 2e-300, 1.0])
    def test_the_floor_decides_near_zero(self, size, last):
        # a running sup of 0 at the half: only the 1e-300 floor lets the
        # last entry settle, and only when it is at most the floor
        values = np.array([0.0] * (size - 1) + [last])
        assert _hypB_form(values) == _parent_running_sup_stabilized(values)
        assert _hypB_form(values) == (size >= 8 and last <= 1e-300)

    @pytest.mark.parametrize("size", [1, 2, 64, 65, 66, 128, 129, 130, 8192, 8193])
    def test_trend_rows_where_the_step_changes(self, size):
        values = np.random.default_rng(size).uniform(0.0, 2.0, size)
        trend = _sup_trend(values, 0, 0.0)[3]
        assert trend == _parent_trend(values)
        assert len(trend) == (size - 1) // max(1, (size - 1) // 64) + 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 1.0 / 1.03]), min_size=1, max_size=16))
    @example([2.0, 2.0, 1.0, 1.0])
    def test_backward_membership_keeps_the_head_tail_rule(self, steps):
        # ratio_n = 1 + kappa_{n-1} / kappa_n takes the values 1, 1.5, 2,
        # 2.03 and 3, so heads and tails tie often, or differ by 1.5%;
        # n runs 1..16
        kappa = weights(np.cumprod([1.0] + [1.0 / s for s in steps]))
        with _spy(operators) as seen:
            try:
                report = shift_membership_backward(poly(1.0, -1.0), kappa)
            except UnboundedShiftError:
                return
        (ratio, _), = seen
        n = ratio.size - 1
        i_sup = int(np.argmax(ratio))
        holds = i_sup <= n // 2 or _parent_backward_settled(ratio)
        assert report.in_Cw is (Verdict.TREND_HOLDS if holds else Verdict.INDETERMINATE)
        assert report.witness["argsup"] == i_sup
        assert _bits(report.sup_ratio) == _bits(np.max(ratio))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0]), min_size=1, max_size=24))
    @example([1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    def test_forward_membership_argsup(self, steps):
        # the weak ratio at m is 1 + kappa_{m+1} / kappa_m, so it ties often
        kappa = weights(np.cumprod([1.0] + steps))
        with _spy(operators) as seen:
            report = shift_membership_forward(poly(1.0, -1.0), kappa)
        (ratio, _), = seen
        i_sup = int(np.argmax(ratio))
        in_cw = Verdict.TREND_HOLDS if i_sup <= (report.N_used // 2) // 2 else Verdict.INDETERMINATE
        assert report.in_Cw is in_cw
        assert _bits(report.witness["sup_weak_ratio"]) == _bits(np.max(ratio))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 200, 4096])
    @pytest.mark.parametrize("shape", ["quadratic", "flat", "exponential", "random"])
    def test_banach_algebra_keeps_the_last_quarter_rule(self, shape, n):
        x = np.arange(0.0, n + 1.0)
        w = {
            "quadratic": (x + 1.0) ** 2,
            "flat": np.ones(n + 1),
            "exponential": 1.1**x,
            "random": np.random.default_rng(n).uniform(0.5, 2.0, n + 1),
        }[shape]
        self._check_banach_algebra(w)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=17))
    def test_banach_algebra_on_small_windows(self, w):
        self._check_banach_algebra(np.array(w))

    @pytest.mark.parametrize("check", [banach_algebra_condition, tau_condition_check,
                                       reciprocal_summability_check],
                             ids=["BanachAlg", "TauSummable", "ReciprocalSummability"])
    def test_weight_conditions_refuse_a_reciprocal_past_float_range(self, check):
        # 1 / 1e-310 overflows: at n = 99 the BanachAlg rows were inf (a
        # TrendHolds with sup inf), at n = 8999 the blocked product's zero
        # padding made them NaN (an Indeterminate); each condition now
        # refuses, naming the degree
        for n in (99, 8999):
            w = np.ones(n + 1)
            w[5] = 1e-310
            with np.errstate(over="ignore"), pytest.raises(NumericalFailure, match="at degree 5") as info:
                check(weights(w))
            assert info.value.witness == {"degree": 5}

    @pytest.mark.parametrize("n", [99, 8999])
    def test_banach_algebra_refuses_rows_past_float_range(self, n):
        # finite reciprocals whose pair products overflow
        w = np.ones(n + 1)
        w[3] = 1e-300
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure, match="row sum is not finite at degree 6"):
            banach_algebra_condition(weights(w))

    @staticmethod
    def _check_banach_algebra(w):
        n = w.size - 1
        with _spy(conditions) as seen:
            report = banach_algebra_condition(weights(w))
        (rows, _), = seen
        i_sup = int(np.argmax(rows))
        assert report.witness == {"sup": float(rows[i_sup]), "argsup": i_sup,
                                  "trend": _parent_trend(rows)}
        settled = i_sup <= (3 * n) // 4 and _parent_banach_flat(rows)
        assert (report.verdict is Verdict.TREND_HOLDS) == settled

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 512])
    @pytest.mark.parametrize(
        "alpha",
        [(1.0, -0.5), (1.0, -0.6, -0.3), (1.0, -1.0), (1.0, 0.3, -0.2)],
        ids=["np-half", "np-quadratic", "critical", "mixed-signs"],
    )
    def test_hypotheses_B_keeps_its_hand_written_verdict(self, alpha, n):
        self._check_hypotheses_B(reciprocal(poly(*alpha), n))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 1.0 / 1.015]), min_size=1, max_size=20),
           st.sampled_from([0.0, -0.5]))
    def test_hypotheses_B_on_small_windows(self, steps, a1):
        # k_{n+1} = k_n * step, so k_n / k_{n+1} ties often or grows by 1.5%
        n = len(steps)
        alpha = weights([1.0, a1] + [0.0] * (n - 1))
        self._check_hypotheses_B(KernelPair(alpha, weights(np.cumprod([1.0] + steps)), 0.0, None))

    @pytest.mark.parametrize("n", [7, 8, 9, 16])
    def test_hypotheses_B_floor_settles_a_zero_sup(self, n):
        # gamma / k is 0 up to a last entry of 1e-300: the floor settles it
        alpha = weights([0.0] * n + [1e-300])
        pair = KernelPair(alpha, weights(np.ones(n + 1)), 0.0, None)
        report = self._check_hypotheses_B(pair)
        assert report.verdict is (Verdict.TREND_HOLDS if n >= 8 else Verdict.INDETERMINATE)

    @staticmethod
    def _check_hypotheses_B(pair):
        with _spy(conditions) as seen:
            report = check_hypotheses_B(pair)
        (ratio_k, _), (ratio_g, _) = seen
        n = report.N_used
        i_k, i_g = int(np.argmax(ratio_k)), int(np.argmax(ratio_g))
        assert report.witness == {
            "sup_k_ratio": float(ratio_k[i_k]),
            "argsup_k_ratio": i_k,
            "sup_gamma_over_k": float(ratio_g[i_g]),
            "argsup_gamma_over_k": i_g,
            "trend": _parent_trend(ratio_g),
        }
        flat_k = np.ptp(ratio_k[ratio_k.size // 2 :]) <= 1e-12 * max(1.0, ratio_k[i_k])
        flat_g = np.ptp(ratio_g[ratio_g.size // 2 :]) <= 1e-12 * max(1.0, ratio_g[i_g])
        attained = i_k <= n // 2 and i_g <= n // 2
        stabilized = _parent_running_sup_stabilized(ratio_k) and _parent_running_sup_stabilized(ratio_g)
        if flat_k and flat_g and attained:
            assert report.verdict is Verdict.HOLDS
        elif attained or stabilized:
            assert report.verdict is Verdict.TREND_HOLDS
        else:
            assert report.verdict is Verdict.INDETERMINATE
        return report


# --- the kernel-side scans they replaced: tau by a full scan, pair decay per m ----


def _tau_by_scan(w):
    """tau_j = max_m fl(w_{m+j} / w_m) / w_j as one full-length division per j."""
    n = w.size - 1
    j_max = n // 2
    tau = np.empty(j_max + 1)
    buf = np.empty(n + 1)  # one quotient buffer for every j
    for j in range(j_max + 1):
        q = np.divide(w[2 * j :], w[j : n - j + 1], out=buf[: n - 2 * j + 1])
        tau[j] = q.max() / w[j]
    return tau


def _tau_by_bound(w):
    return conditions._lag_ratio_max(w) / w[: (w.size - 1) // 2 + 1]


def _pair_decay_ratios(weights, m):
    """sum_{m <= j <= n/2} w_j w_{n-j} / w_n for 2m <= n <= N, one product per m."""
    n_max = weights.size - 1
    masked = np.array(weights)
    masked[:m] = 0.0
    full = series._convolve(masked, masked, n_max + 1)  # sum over m <= j <= n-m
    n = np.arange(n_max + 1)
    half_sq = np.zeros(n_max + 1)
    even = n[m * 2 :: 2]
    half_sq[even] = masked[even // 2] ** 2
    inner = 0.5 * (full + half_sq)  # sum over m <= j <= floor(n/2)
    valid = n >= 2 * m
    return inner[valid] / weights[valid]


def _exact_pair_decay(weights, m, ratios, rel):
    """max over 2m <= n <= N of the ratios above in exact arithmetic.  Each
    float ratio is within rel of its exact value, so the exact argmax is
    among the n whose float ratio is within 2 rel of the float max."""
    w = [Fraction(x) for x in weights.tolist()]
    near = np.flatnonzero(ratios >= (1.0 - 2.0 * rel) * np.max(ratios)) + 2 * m
    return max(sum(w[j] * w[n - j] for j in range(m, n // 2 + 1)) / w[n] for n in near.tolist())


def _positive_window(shape, n, seed):
    rng = np.random.default_rng(seed)
    if shape == "lognormal":
        return rng.lognormal(0.0, 2.0, n + 1)
    if shape == "increasing":
        return np.sort(rng.lognormal(0.0, 2.0, n + 1))
    if shape == "decreasing":
        return np.sort(rng.lognormal(0.0, 2.0, n + 1))[::-1].copy()
    if shape == "constant":
        return np.full(n + 1, rng.lognormal(0.0, 2.0))
    if shape == "integer_ties":
        return rng.integers(1, 4, n + 1).astype(float)
    if shape == "alternating":  # a critical kernel's reciprocal settles so, ulps apart
        return np.where(np.arange(n + 1) % 2, 1.75, np.nextafter(1.75, 2.0))
    if shape == "random_walk":
        return np.exp(np.cumsum(rng.normal(0.0, 0.3, n + 1)))
    if shape == "power_noise":  # a power-law kernel with multiplicative noise
        return (np.arange(n + 1) + 1.0) ** -rng.uniform(0.5, 3.0) * rng.lognormal(0.0, 0.2, n + 1)
    return 10.0 ** rng.uniform(-300.0, 300.0, n + 1)  # wide_span


_TAU_SHAPES = ["lognormal", "increasing", "decreasing", "constant", "integer_ties", "alternating",
               "random_walk", "wide_span"]
_CATALOG_SPECS = ["pow1mt(0.2)", "pow1mt(0.8)", "pow1mt(0.5)*poly[1.0,0.3]", "poly[1.0,-0.5,-0.5]",
                  "poly[1.0,-0.25,-0.75]", "tail(poly[1.0,-0.5],0.05,2.0,2)"]


def _catalog_kernel(spec, n):
    return reciprocal(elaborate(parse_kernel_spec(spec), n), n).k.coeffs


def _bits_equal(a, b):
    """Same bits, where a NaN matches any NaN: max reductions differ in the NaN they return."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestTauByBranchAndBound:
    """Every tau keeps the bits of the full scan; an overflowing quotient
    raises under np.errstate(over="raise") in both forms and nothing else does."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_TAU_SHAPES), st.integers(0, 700), st.integers(0, 2**32 - 1))
    @example("alternating", 700, 0)
    @example("wide_span", 500, 1)
    def test_matches_the_scan(self, shape, n, seed):
        self._check_bits(_positive_window(shape, n, seed))

    @pytest.mark.parametrize("n", [4096, 8192])
    @pytest.mark.parametrize("spec", _CATALOG_SPECS)
    def test_matches_the_scan_on_catalog_kernels(self, spec, n):
        self._check_bits(1.0 / _catalog_kernel(spec, n))

    def test_a_bound_past_float_range_alone_raises_nothing(self):
        # max / min of the block m = 112 .. 127 at j = 0 is w_115 / w_117 =
        # 1e400, but no quotient w_{m+j} / w_m pairs them, and w_j = 1 for j <= 100
        w = np.ones(201)
        w[115], w[117] = 1e200, 1e-200
        self._check_bits(w)

    @pytest.mark.parametrize("n", [31, 400])
    def test_infinite_weights_keep_the_scan_bits(self, n):
        # inf / inf is NaN in the scan; a block whose bound is inf / inf is divided too
        for start in range(0, n + 1, 7):
            w = np.ones(n + 1)
            w[start:] = np.inf
            with np.errstate(invalid="ignore"):
                assert _bits_equal(_tau_by_scan(w), _tau_by_bound(w))

    @staticmethod
    def _check_bits(w):
        overflowed = []
        for form in (_tau_by_scan, _tau_by_bound):
            try:
                with np.errstate(over="raise"):
                    form(w)
                overflowed.append(False)
            except FloatingPointError:
                overflowed.append(True)
        with np.errstate(over="ignore"):
            tau = _tau_by_scan(w)
            assert _bits_equal(tau, _tau_by_bound(w))
        # on finite positive weights a tau_j is inf exactly when a quotient or tau_j overflowed
        overflows = bool(np.isinf(tau).any())
        assert overflowed == [overflows, overflows]


class TestPairDecayFromOneProduct:
    """The largest m keeps the per-m product's bits; every other m is within
    4 (N + 1) 2^-53 of it relative, and the verdict is the same."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["power_noise", "lognormal", "constant", "random_walk", "integer_ties"]),
           st.integers(8, 3000), st.integers(0, 2**32 - 1))
    @example("power_noise", 8, 0)
    # s(top) = s(4) / 2 exactly; the last of these rounds to TrendHolds
    @example("constant", 54, 0)
    @example("constant", 55, 0)
    @example("constant", 118, 1)
    @example("constant", 119, 1)
    @example("constant", 22, 525400)
    def test_matches_one_product_per_m(self, shape, n, seed):
        self._check(_positive_window(shape, n, seed))

    @pytest.mark.parametrize("spec", ["pow1mt(0.5)", "poly[1.0,-0.5,-0.5]"])
    def test_matches_one_product_per_m_past_the_blocked_cut(self, spec):
        self._check(_catalog_kernel(spec, 8192))

    @staticmethod
    def _check(k):
        n = k.size - 1
        grid = [m for m in (4, 8, 16, 32) if 2 * m <= n]
        ratios = [_pair_decay_ratios(k, m) for m in grid]
        ref = np.array([np.max(r) for r in ratios])
        rel = 4.0 * (n + 1) * 2.0**-53
        sups = conditions._pair_decay_sups(k, grid)
        assert _bits(sups[-1]) == _bits(ref[-1])
        assert np.all(np.abs(sups - ref) <= rel * ref)
        report = muller_condition_estimate(weights(k), grid)
        assert [m for m, _ in report.witness["trend"]] == grid
        assert [v for _, v in report.witness["trend"]] == [float(v) for v in sups]
        # the expected verdict in exact arithmetic: ref decides it unless a
        # comparison is within rounding of its boundary (an exact tie, say)
        steps, half = np.diff(ref) - 1e-12, ref[-1] - 0.5 * ref[0]
        if np.all(np.abs(steps) > 2.0 * rel * (ref[1:] + ref[:-1])) and abs(half) > 2.0 * rel * ref[0]:
            holds = bool(np.all(steps <= 0.0)) and half < 0.0
        else:
            exact = [_exact_pair_decay(k, m, r, rel) for m, r in zip(grid, ratios)]
            up = max((b - a - Fraction(1e-12) for a, b in zip(exact, exact[1:])), default=Fraction(-1))
            gap = exact[-1] - exact[0] / 2
            if up > 0 or gap > 0:
                holds = False
            elif up < 0 and gap < 0:
                holds = True
            else:  # on a boundary exactly: the reported sups' last bits decide (ROADMAP item 5)
                holds = bool(np.all(np.diff(sups) <= 1e-12)) and sups[-1] < 0.5 * sups[0]
        assert report.verdict is (Verdict.TREND_HOLDS if holds else Verdict.TREND_FAILS)
