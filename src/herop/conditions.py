"""Decidable and trend-estimated checks for every standing condition a
symbol/kernel pair must satisfy, plus the prescribed-sign kernel generator.

Verdict semantics are deliberately conservative: Holds/Fails only when the
check is decidable at finite truncation (sign tests, root isolation,
certified tails); asymptotic conditions report Trend verdicts with the full
trend table in the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .series import (
    KernelPair,
    NumericalFailure,
    Polynomial,
    PowerTail,
    TruncatedSeries,
    abs_tail_bound,
    evaluate_on_circle,
    invert_kernel,
    kernel_underflow_index,
    pair_type_estimate,
    reciprocal,
    _convolve,
    _finite,
    _invert_coeffs,
)

__all__ = [
    "Verdict",
    "ConditionReport",
    "SignPattern",
    "GenerationFailedError",
    "check_hypotheses_A",
    "check_hypotheses_B",
    "classify_np",
    "classify_critical",
    "muller_condition_estimate",
    "muller_sufficient_check",
    "banach_algebra_condition",
    "tau_condition_check",
    "reciprocal_summability_check",
    "holder_exponent_estimate",
    "generate_sign_pattern_kernel",
]


class Verdict(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    TREND_HOLDS = "TrendHolds"
    TREND_FAILS = "TrendFails"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    verdict: Verdict
    witness: dict
    N_used: int

    def trend_table(self) -> Optional[list]:
        """(index, value) rows when the witness carries a trend table."""
        return self.witness.get("trend")


def _trend_rows(indices: np.ndarray, values: np.ndarray) -> list:
    return [[int(i), float(v)] for i, v in zip(indices, values)]


def _sup_trend(values: np.ndarray, settle_from: int, rel: float, floor: float = 0.0) -> tuple:
    """(sup, argsup, settled, trend) of a finite-window sequence: the first
    index of its maximum, whether the running sup grows by at most `rel`
    (plus `floor`) from index `settle_from` to the end, and every
    max(1, n // 64)-th entry as (index, value) rows, n the last index."""
    i_sup = int(np.argmax(values))
    run = np.maximum.accumulate(values)
    settled = bool(run[-1] <= (1.0 + rel) * run[settle_from] + floor)
    step = max(1, (values.size - 1) // 64)
    trend = _trend_rows(np.arange(0, values.size, step), values[::step])
    return float(values[i_sup]), i_sup, settled, trend


_SIGN_TOL = 1e-14

_CIRCLE_RADII = (0.5, 0.9, 0.99, 1.0)


def _circle_mins(series: TruncatedSeries, samples: int) -> dict:
    """{r: min |f|} over `samples` points of each circle |z| = r of _CIRCLE_RADII."""
    return {r: float(np.min(np.abs(evaluate_on_circle(series, r, samples)))) for r in _CIRCLE_RADII}


# --- standing hypotheses ---------------------------------------------------


def check_hypotheses_A(pair: KernelPair, circle_samples: int = 2048) -> ConditionReport:
    """Normalization, kernel positivity, and non-vanishing of the symbol on
    the open disc.

    Holds only with a certification route (exact polynomial roots, binomial
    structure, or a dominated-coefficient bound); otherwise grid minima give
    a Trend verdict.  A zero at the boundary point 1 is allowed.
    """
    alpha, k = pair.alpha, pair.k
    n = pair.trunc_len - 1
    witness: dict = {}
    if abs(alpha.coeffs[0] - 1.0) > _SIGN_TOL or abs(k.coeffs[0] - 1.0) > _SIGN_TOL:
        witness["normalization"] = [float(alpha.coeffs[0]), float(k.coeffs[0])]
        return ConditionReport("HypA", Verdict.FAILS, witness, n)
    under = kernel_underflow_index(k.coeffs)
    bad = np.nonzero(k.coeffs[1 : under if under else None] <= 0.0)[0]
    if bad.size:
        witness["nonpositive_kernel_index"] = int(bad[0]) + 1
        return ConditionReport("HypA", Verdict.FAILS, witness, n)
    if under is not None:
        # exact zeros after a positive decaying run are float underflow, not
        # a sign verdict: the window past that point carries no evidence
        witness["kernel_underflow_from"] = under
        return ConditionReport("HypA", Verdict.INDETERMINATE, witness, n)

    grid_min = _circle_mins(alpha, circle_samples)
    witness["circle_grid_min"] = {str(r): v for r, v in grid_min.items()}
    interior_min = min(v for r, v in grid_min.items() if r < 1.0)
    scale = float(np.max(np.abs(alpha.coeffs)))

    certified = alpha.certifier.disc_zero_free(alpha.coeffs)
    if certified is not None:
        zero_free, facts = certified
        witness.update(facts)
        return ConditionReport("HypA", Verdict.HOLDS if zero_free else Verdict.FAILS, witness, n)
    # dominated-coefficient route: |alpha(z)| >= 1 - sum_{n>=1}|alpha_n| on
    # the open disc, certified when the absolute tail is known
    tail = abs_tail_bound(alpha)
    if tail is not None and math.isfinite(tail):
        mass = float(np.sum(np.abs(alpha.coeffs[1:]))) + tail
        witness["offorigin_abs_mass"] = mass
        if mass <= 1.0 + 1e-11 and interior_min > 0:
            return ConditionReport("HypA", Verdict.HOLDS, witness, n)
    if interior_min <= 1e-12 * max(scale, 1.0):
        return ConditionReport("HypA", Verdict.TREND_FAILS, witness, n)
    return ConditionReport("HypA", Verdict.TREND_HOLDS, witness, n)


def check_hypotheses_B(pair: KernelPair) -> ConditionReport:
    """Bounded kernel ratio and domination of gamma = |alpha| * k by k.

    Reports both finite-window suprema with their arg-sup.  Holds when the
    ratio sequences are exactly flat over the back half of the window
    (polynomial-driven cases); TrendHolds when the suprema are attained well
    inside the window or have stabilized; Indeterminate otherwise.
    """
    alpha, k = pair.alpha, pair.k
    n = pair.trunc_len - 1
    under = kernel_underflow_index(k.coeffs)
    if under is not None:
        n = under - 1  # ratios carry no information past float underflow
    # nor past a zero weight: that ratio is undefined, so the prefix before
    # it gives a witness but never a verdict
    cut = np.flatnonzero(k.coeffs[: n + 1] == 0.0)
    n = int(cut[0]) - 1 if cut.size else n
    if n < 1:
        witness = {"zero_kernel_index": n + 1}
        return ConditionReport("HypB", Verdict.INDETERMINATE, witness, max(n, 0))
    kc = k.coeffs[: n + 1]
    # a direct np.convolve, not series._convolve's blocked GEMM: the argsup
    # below decides Holds or TrendHolds on rounding ties, so gamma keeps its
    # bits until ROADMAP item 19's rounding-bound argsup decides those ties
    beta = np.trim_zeros(np.abs(alpha.coeffs[: n + 1]), "b")
    gamma = np.convolve(beta, kc)[: n + 1] if beta.size else np.zeros(n + 1)
    # nor past a gamma beyond float range (np.convolve raises no overflow
    # flag): the window ends before it, as before a zero weight
    over = np.flatnonzero(~np.isfinite(gamma))
    if over.size:
        n = int(over[0]) - 1
        if n < 1:
            witness = {"gamma_overflow_index": n + 1}
            return ConditionReport("HypB", Verdict.INDETERMINATE, witness, max(n, 0))
        kc, gamma = kc[: n + 1], gamma[: n + 1]
    ratio_k = kc[:-1] / kc[1:]
    ratio_g = gamma / kc
    # the running sups must settle over each sequence's back half
    sup_k, i_k, settled_k, _ = _sup_trend(ratio_k, ratio_k.size // 2, 0.01, 1e-300)
    sup_g, i_g, settled_g, trend = _sup_trend(ratio_g, ratio_g.size // 2, 0.01, 1e-300)
    witness = {
        "sup_k_ratio": sup_k,
        "argsup_k_ratio": i_k,
        "sup_gamma_over_k": sup_g,
        "argsup_gamma_over_k": i_g,
        "trend": trend,
    }
    if over.size:
        witness["gamma_overflow_index"] = n + 1
    flat_k = np.ptp(ratio_k[ratio_k.size // 2 :]) <= 1e-12 * max(1.0, sup_k)
    flat_g = np.ptp(ratio_g[ratio_g.size // 2 :]) <= 1e-12 * max(1.0, sup_g)
    attained = i_k <= n // 2 and i_g <= n // 2
    stabilized = n >= 8 and settled_k and settled_g
    whole = not (cut.size or over.size)
    if flat_k and flat_g and attained and whole:
        return ConditionReport("HypB", Verdict.HOLDS, witness, n)
    if (attained or stabilized) and whole:
        return ConditionReport("HypB", Verdict.TREND_HOLDS, witness, n)
    return ConditionReport("HypB", Verdict.INDETERMINATE, witness, n)


def classify_np(alpha: TruncatedSeries) -> ConditionReport:
    """Sign test: constant term 1 and all later coefficients non-positive."""
    c = alpha.coeffs
    n = alpha.degree
    if abs(c[0] - 1.0) > _SIGN_TOL:
        return ConditionReport("NPType", Verdict.FAILS, {"alpha_0": float(c[0])}, n)
    offenders = np.nonzero(c[1:] > _SIGN_TOL)[0]
    if offenders.size:
        i = int(offenders[0]) + 1
        return ConditionReport(
            "NPType", Verdict.FAILS, {"offending_index": i, "value": float(c[i])}, n
        )
    return ConditionReport("NPType", Verdict.HOLDS, {}, n)


def classify_critical(pair: KernelPair) -> ConditionReport:
    """Critical (alpha(1) = 0) versus subcritical (alpha(1) > 0) type,
    using the kernel side when the symbol alone is uncertified."""
    est = pair_type_estimate(pair.alpha, pair.k, trusted=not pair.violations)
    witness = {
        "estimate": est.value,
        "tail": est.tail,
        "certified": est.certified,
        "type": est.type,
    }
    n = pair.alpha.degree
    if est.type == "Indeterminate":
        return ConditionReport("CriticalType", Verdict.INDETERMINATE, witness, n)
    verdict = Verdict.HOLDS if est.certified else Verdict.TREND_HOLDS
    return ConditionReport("CriticalType", verdict, witness, n)


# --- kernel decay and algebra side conditions -------------------------------


def _positive(series: TruncatedSeries, what: str) -> tuple[np.ndarray, int]:
    """(c, n) of a window c_0..c_n: ValueError "all <what> must be positive"
    unless every c_j is."""
    if np.any(series.coeffs <= 0.0):
        raise ValueError(f"all {what} must be positive")
    return series.coeffs, series.degree


def _pair_decay_sups(w: np.ndarray, m_grid: Sequence[int]) -> np.ndarray:
    """max over 2m <= n <= N of sum_{m <= j <= n/2} w_j w_{n-j} / w_n for each
    m of the ascending m_grid.  One product gives the largest m's half sums;
    each smaller m adds its terms j = m .. next m - 1 to them.  Every sum has
    positive terms only, so each keeps a relative error within gamma_N."""
    n_max = w.size - 1
    top = m_grid[-1]
    masked = np.array(w)
    masked[:top] = 0.0
    inner = _convolve(masked, masked, n_max + 1)  # sum over top <= j <= n-top
    inner[2 * top :: 2] += masked[top : n_max // 2 + 1] ** 2
    inner *= 0.5  # sum over top <= j <= floor(n/2)
    sups = []
    for m, stop in reversed(list(zip(m_grid, [*m_grid[1:], top]))):
        for j in range(m, stop):
            inner[2 * j :] += w[j] * w[j : n_max + 1 - j]
        sups.append(np.max(inner[2 * m :] / w[2 * m :]))
    return np.array(sups[::-1])


def muller_condition_estimate(
    k: TruncatedSeries, m_grid: Sequence[int]
) -> ConditionReport:
    """Finite-window estimate of the kernel pair-decay condition
    sup_{n >= 2m} sum_{m <= j <= n/2} k_j k_{n-j} / k_n -> 0 as m grows.

    TrendHolds when the estimate decreases along m_grid and the largest m
    achieves less than half the smallest; the companion requirements
    (n-th root of k_n near 1, bounded consecutive ratio) are reported too.
    """
    kc, n = _positive(k, "kernel coefficients")
    m_grid = sorted(int(m) for m in m_grid)
    if not m_grid or m_grid[0] < 1 or 2 * max(m_grid) > n:
        raise ValueError("m_grid must satisfy 1 <= m and 2*max(m_grid) <= N")
    s_values = _pair_decay_sups(kc, m_grid)
    sample_idx = sorted({n // 4, n // 2, (3 * n) // 4, n})
    ratio = kc[:-1] / kc[1:]
    witness = {
        "trend": _trend_rows(np.array(m_grid), s_values),
        "root_samples": {str(i): float(kc[i] ** (1.0 / i)) for i in sample_idx if i >= 1},
        "sup_k_ratio": float(np.max(ratio)),
    }
    decreasing = bool(np.all(np.diff(s_values) <= 1e-12))
    decayed = s_values[-1] < 0.5 * s_values[0]
    if decreasing and decayed:
        return ConditionReport("MullerDecay", Verdict.TREND_HOLDS, witness, n)
    return ConditionReport("MullerDecay", Verdict.TREND_FAILS, witness, n)


def muller_sufficient_check(k: TruncatedSeries, a_grid: Sequence[float]) -> ConditionReport:
    """Monotonicity test sufficient for the pair-decay condition: for some
    a > 1 the sequence (k_{n+1}/k_n) * (1 + 1/(n+1))**a is non-decreasing,
    i.e. k_n * (n+1)**a is log-convex."""
    kc, n = _positive(k, "kernel coefficients")
    if any(a <= 1.0 for a in a_grid):
        raise ValueError("a_grid entries must exceed 1")
    per_a = {}
    passing = []
    denom = np.arange(1.0, n + 1.0)  # n + 1 for the ratio at index n = 0..N-1
    base = kc[1:] / kc[:-1]
    for a in a_grid:
        seq = base * (1.0 + 1.0 / denom) ** a
        worst = float(np.min(np.diff(seq))) if seq.size > 1 else 0.0
        per_a[f"{a:g}"] = worst
        if worst >= -1e-12:
            passing.append(a)
    witness = {"worst_increment_per_a": per_a, "passing": passing}
    verdict = Verdict.HOLDS if passing else Verdict.FAILS
    return ConditionReport("MullerSufficient", verdict, witness, n)


def _weights(omega: TruncatedSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """(w, 1/w, n) of a weight window w_0..w_n: ValueError unless every weight
    is positive, NumericalFailure at the first reciprocal that is not finite."""
    w, n = _positive(omega, "weights")
    return w, _finite(1.0 / w, "weight reciprocal is not finite"), n


def banach_algebra_condition(omega: TruncatedSeries) -> ConditionReport:
    """Finite-window supremum of sum_j omega_n / (omega_j omega_{n-j}).

    TrendHolds when the sup is first reached by 3n // 4, so the last
    quarter of the window adds nothing to it; Fails when the row sums keep
    growing through the window end (eventually-monotone growth evidence, as
    for flat weights).  Rows that are not finite are refused."""
    w, inv, n = _weights(omega)
    rows = _finite(w * _convolve(inv, inv, n + 1), "BanachAlg row sum is not finite")
    sup, i_sup, _, trend = _sup_trend(rows, 0, 0.0)
    witness = {"sup": sup, "argsup": i_sup, "trend": trend}
    if i_sup <= (3 * n) // 4:
        return ConditionReport("BanachAlg", Verdict.TREND_HOLDS, witness, n)
    tail_rows = rows[n // 2 :]
    growing = bool(np.all(np.diff(tail_rows) >= -1e-12)) and rows[-1] >= 1.5 * rows[n // 2]
    if growing:
        return ConditionReport("BanachAlg", Verdict.FAILS, witness, n)
    return ConditionReport("BanachAlg", Verdict.INDETERMINATE, witness, n)


def _window_reduce(x: np.ndarray, b: int, op: np.ufunc) -> np.ndarray:
    """op over every window x[s : s + b], len(x) a multiple of b: each
    window is a suffix of one aligned block joined with a prefix of the next."""
    blocks = x.reshape(-1, b)
    prefix = op.accumulate(blocks, axis=1).ravel()
    suffix = np.empty_like(blocks)
    op.accumulate(blocks[:, ::-1], axis=1, out=suffix[:, ::-1])
    out = suffix.ravel()[: x.size - b + 1]
    return op(out, prefix[b - 1 :], out=out)


def _lag_ratio_max(w: np.ndarray) -> np.ndarray:
    """r_j = max_{j <= m <= n-j} fl(w_{m+j} / w_m) for j <= n // 2, by exact
    branch and bound: the same bits as the full scan of n^2 / 4 quotients.

    Each j divides its run m = j .. j + b - 1, b about sqrt(n).  A later
    block of b m's is bounded by fl(max w_{m+j} / min w_m), since correctly
    rounded division is monotone, and only blocks whose bound beats the run
    or is not finite are divided, as one contiguous span per j.  So every
    overflowing quotient is divided under the caller's np.errstate; the
    bounds are not.  Runs and bounds take O(sqrt(n)) vector operations."""
    n = w.size - 1
    j_max = n // 2
    b = min(max(16, math.isqrt(n + 1)), j_max + 1)  # so the run's m stay <= n
    ext = np.zeros(-(-(n + b) // b) * b)  # numerators past w_n are 0, and so their quotients
    ext[: n + 1] = w
    top = _window_reduce(ext, b, np.maximum)  # top[s] = max(w[s : s + b])
    ext[n + 1 :] = np.inf  # for the minima alone
    low = _window_reduce(ext, b, np.minimum)
    ext[n + 1 :] = 0.0
    best = np.zeros(j_max + 1)
    for u in range(b):  # m = j + u for every j at once
        np.maximum(best, ext[u : u + 2 * j_max + 1 : 2] / ext[u : u + j_max + 1], out=best)
    first = np.zeros(j_max + 1, dtype=np.intp)  # the first and last block t that beats it
    last = np.zeros(j_max + 1, dtype=np.intp)
    for t in range(1, n // b + 1):
        k = (n - t * b) // 2 + 1  # j < k have block t inside m <= n - j
        with np.errstate(over="ignore", invalid="ignore"):
            bound = top[t * b : t * b + 2 * k : 2] / low[t * b : t * b + k]
        hits = np.flatnonzero((bound > best[:k]) | ~np.isfinite(bound))
        first[hits[first[hits] == 0]] = t
        last[hits] = t
    for j in np.flatnonzero(first):
        lo, hi = first[j] * b, min((last[j] + 1) * b, n - 2 * j + 1)
        best[j] = np.maximum(best[j], np.max(w[2 * j + lo : 2 * j + hi] / w[j + lo : j + hi]))
    return best


def tau_condition_check(omega: TruncatedSeries) -> ConditionReport:
    """Summable-majorant condition: tau_j = max_{n >= 2j} omega_n /
    (omega_j omega_{n-j}) should form a summable sequence."""
    w, _, n = _weights(omega)
    j_max = n // 2
    tau = _lag_ratio_max(w) / w[: j_max + 1]
    partial = np.cumsum(tau)
    sup, _, _, trend = _sup_trend(tau, 0, 0.0)
    witness = {"partial_sum": float(partial[-1]), "trend": trend}
    tail = partial[-1] - partial[j_max // 2]
    if tail <= 0.05 * max(partial[-1], 1e-300):
        return ConditionReport("TauSummable", Verdict.TREND_HOLDS, witness, n)
    flat = np.all(np.diff(tau[j_max // 2 :]) >= -1e-12)
    if flat and tau[-1] >= 0.5 * sup:
        return ConditionReport("TauSummable", Verdict.FAILS, witness, n)
    return ConditionReport("TauSummable", Verdict.INDETERMINATE, witness, n)


def reciprocal_summability_check(omega: TruncatedSeries) -> ConditionReport:
    """Partial sums of sum 1/omega_n with a dyadic Cauchy-tail trend."""
    _, inv, n = _weights(omega)
    total = float(np.sum(inv))
    b1 = float(np.sum(inv[n // 4 + 1 : n // 2 + 1]))
    b2 = float(np.sum(inv[n // 2 + 1 :]))
    witness = {"partial_sum": total, "dyadic_blocks": [b1, b2]}
    if b1 > 0 and b2 <= 0.95 * b1:
        return ConditionReport("ReciprocalSummability", Verdict.TREND_HOLDS, witness, n)
    monotone_terms = np.all(np.diff(inv[n // 4 :]) <= 1e-12)
    if monotone_terms and b2 >= 0.99 * b1:
        # dyadic block sums of eventually monotone terms do not decay
        return ConditionReport("ReciprocalSummability", Verdict.FAILS, witness, n)
    return ConditionReport("ReciprocalSummability", Verdict.INDETERMINATE, witness, n)


def _grows(samples: np.ndarray) -> bool:
    """Holder samples grow: fewer than 10, or the last 5 above 1.05 x the rest's sup."""
    return samples.size < 10 or not _sup_trend(samples, samples.size - 6, 0.05, 1e-300)[2]


def holder_exponent_estimate(
    k: TruncatedSeries, s_grid: Sequence[float]
) -> ConditionReport:
    """Largest grid exponent s for which t**(-s) * sqrt(tail(k, t**(s-1)))
    stays bounded along the dyadic samples t = 2**-j, j = 1..20; also fits
    power-law constants (C, eps) to the kernel tail."""
    if any(not (0.0 < s < 1.0) for s in s_grid):
        raise ValueError("s_grid entries must lie in (0, 1)")
    kc = k.coeffs
    n = k.degree
    csum = np.cumsum(kc)

    # a summable kernel is necessary; certified or dyadic-evidenced
    # divergence fails every exponent outright
    b1 = float(np.sum(kc[n // 4 + 1 : n // 2 + 1]))
    b2 = float(np.sum(kc[n // 2 + 1 :]))
    cert = abs_tail_bound(k)
    divergent_cert = cert is not None and math.isinf(cert)
    monotone = bool(np.all(np.diff(kc[n // 4 :]) <= 1e-15))
    if divergent_cert or (cert is None and monotone and b2 >= 0.99 * b1 > 0):
        witness = {"per_s": {}, "best_s": None, "tail_fit": {},
                   "kernel_sum_divergent": True, "dyadic_blocks": [b1, b2]}
        return ConditionReport("HolderExponent", Verdict.FAILS, witness, n)

    def tail_from(m: float) -> tuple[Optional[float], bool]:
        """(bound, lower_only): certified tail from cutoff m, or the window
        tail as a lower bound when no certificate exists."""
        if m > n:
            beyond = abs_tail_bound(k, n_from=int(math.ceil(m)))
            return beyond, beyond is None
        lo = int(math.ceil(m))
        window = float(csum[-1] - (csum[lo - 1] if lo >= 1 else 0.0))
        beyond = abs_tail_bound(k)
        if beyond is None:
            return window, True
        return window + beyond, False

    # dyadic samples t = 2^-j; depth extends while a certified-tail curve is
    # still rising, since heavy-decay kernels peak past the first 20 samples
    base_depth, max_depth = 20, 400
    per_s = {}
    passing = []
    for s in s_grid:
        values: list[float] = []
        lower_only = False
        depth = base_depth
        j = 1
        while j <= depth:
            t = 0.5**j
            m = t ** (s - 1.0)
            bound, partial_info = tail_from(m)
            if bound is None:
                lower_only = True
                break
            lower_only = lower_only or partial_info
            values.append(t ** (-s) * math.sqrt(max(bound, 0.0)))
            if j == depth and depth < max_depth and not lower_only and _grows(np.array(values)):
                depth = min(depth + 20, max_depth)
            j += 1
        arr = np.array(values)
        grows = _grows(arr)
        per_s[f"{s:g}"] = {
            "sup": float(np.max(arr)) if arr.size else math.inf,
            "grows": bool(grows),
            "lower_bound_only": lower_only,
            "depth": int(arr.size),
            "values": [float(v) for v in arr],
        }
        if not grows and not lower_only:
            passing.append(s)
    # power-law tail fit over dyadic cutoffs inside the window
    cut = 2 ** np.arange(2, int(math.log2(max(n // 2, 4))) + 1)
    tails = np.array([tail_from(int(c))[0] or 0.0 for c in cut], dtype=float)
    good = tails > 0
    fit: dict = {}
    if np.count_nonzero(good) >= 3:
        x, y = np.log(cut[good].astype(float)), np.log(tails[good])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - float(np.sum(resid**2)) / max(float(np.sum((y - y.mean()) ** 2)), 1e-300)
        fit = {"eps": -float(slope), "C": float(math.exp(intercept)), "r2": r2}
    witness = {"per_s": per_s, "best_s": max(passing) if passing else None, "tail_fit": fit,
               "base_depth": base_depth}
    if passing:
        return ConditionReport("HolderExponent", Verdict.HOLDS, witness, n)
    if all(d["grows"] for d in per_s.values()):
        # growth of the window tail is a lower bound, so failure is certified
        return ConditionReport("HolderExponent", Verdict.FAILS, witness, n)
    return ConditionReport("HolderExponent", Verdict.INDETERMINATE, witness, n)


# --- prescribed-sign kernel generator ---------------------------------------


class GenerationFailedError(NumericalFailure):
    """The epsilon halvings ran out before the signs were realized."""


@dataclass(frozen=True)
class SignPattern:
    """Prescribed signs for the symbol coefficients at positions 2..N.

    epsilon seeds the magnitude of the positive slots; the kernel is
    continued past the polynomial part with amplitude * n**(-exponent)."""

    signs: tuple
    epsilon: float = 1e-3
    tail_amplitude: float = 0.05
    tail_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not self.signs or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be a nonempty sequence over {-1, +1}")
        for name in ("epsilon", "tail_amplitude", "tail_exponent"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.tail_exponent <= 1.0:
            raise ValueError("tail_exponent must exceed 1")

    @classmethod
    def from_string(cls, text: str, **kw) -> "SignPattern":
        mapping = {"+": 1, "-": -1}
        try:
            return cls(tuple(mapping[ch] for ch in text.strip()), **kw)
        except KeyError as exc:
            raise ValueError(f"pattern characters must be '+' or '-': {text!r}") from exc


_MAX_HALVINGS = 60


def generate_sign_pattern_kernel(
    pattern: SignPattern, n_total: int
) -> tuple[KernelPair, ConditionReport]:
    """Construct a kernel pair whose symbol realizes the prescribed signs.

    Polynomial seed: constant term 1, negative linear term, negative slots
    where the sign is -1 and zero slots where it is +1, with magnitudes small
    enough that the truncated inverse stays positive and nothing vanishes on
    the circle grid.  The zero slots are then bumped to +epsilon, halving
    epsilon on failure, and the kernel is continued with the power-law tail.
    """
    deg = len(pattern.signs) + 1
    if n_total <= deg + 1:
        raise ValueError("n_total must exceed pattern length + 2")
    delta = 1.0 / (2.0 * (deg + 1))  # keeps off-origin mass below 1/2
    plus = np.array(pattern.signs) == 1  # slots 2..deg
    seed = np.concatenate([[1.0, -delta], np.where(plus, 0.0, -delta)])
    eps = pattern.epsilon

    if not plus.any():
        # sign-definite symbol: its full inverse is positive term by term,
        # so the polynomial itself serves and no tail continuation is needed
        witness: dict = {"epsilon": eps, "halvings": 0}
        alpha_series = TruncatedSeries(
            np.concatenate([seed, np.zeros(n_total - deg)]), Polynomial(deg)
        )
        pair = reciprocal(alpha_series, n_total)
    else:
        halvings = 0
        while True:
            cand = seed.copy()
            cand[2:][plus] = eps
            try:
                k_head = _invert_coeffs(cand, deg)
            except NumericalFailure as exc:  # an overflowing truncated inverse fails the candidate
                witness = {"epsilon": eps, "halvings": halvings, "overflow_degree": exc.witness["degree"]}
            else:
                min_k = float(np.min(k_head[1:]))  # deg >= 2
                a_min = min(_circle_mins(TruncatedSeries(cand), 1024).values())
                k_min = min(_circle_mins(TruncatedSeries(k_head), 1024).values())
                witness = {
                    "epsilon": eps,
                    "halvings": halvings,
                    "min_truncated_inverse_coeff": min_k,
                    "circle_min_alpha": a_min,
                    "circle_min_k": k_min,
                }
                if min_k > 0.0 and a_min > 1e-9 and k_min > 1e-9:
                    break
            halvings += 1
            eps /= 2.0
            if halvings > _MAX_HALVINGS:
                raise GenerationFailedError("halving budget exhausted", witness)

        n_tail = np.arange(deg + 1, n_total + 1, dtype=float)
        k_full = np.concatenate(
            [k_head, pattern.tail_amplitude * n_tail ** (-pattern.tail_exponent)]
        )
        k_series = TruncatedSeries(
            k_full, PowerTail(pattern.tail_amplitude, pattern.tail_exponent, deg + 1)
        )
        pair = invert_kernel(k_series)

    alpha = pair.alpha.coeffs
    sign_ok = alpha[1] < 0.0 and bool(np.all((alpha[2 : deg + 1] > 0.0) == plus))
    min_kernel = float(np.min(pair.k.coeffs[1:]))
    witness.update(
        {
            "achieved_epsilon": eps,
            "inversion_residual": pair.inversion_residual,
            "alpha_head": [float(v) for v in alpha[: deg + 1]],
            "min_kernel_coeff": min_kernel,
        }
    )
    ok = sign_ok and min_kernel > 0.0 and pair.inversion_residual <= 1e-10
    report = ConditionReport(
        "SignPattern", Verdict.HOLDS if ok else Verdict.FAILS, witness, n_total
    )
    return pair, report
