"""Closed-form references that share no code with herop.

Everything here runs in numpy's extended precision (80-bit `longdouble` on
x86-64, eps 1.1e-19) or in exact rationals, so its own error sits several
orders below the float64 results it judges.  The tests compare these
functions with mpmath at small sizes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

LD = np.longdouble
LD_PI = 4 * np.arctan(LD(1))


def cesaro(a: float, n_max: int) -> np.ndarray:
    """k^a_0..k^a_n_max, the Taylor coefficients of (1-t)^(-a), by the
    product k^a_n = k^a_{n-1} (n - 1 + a) / n in extended precision."""
    n = np.arange(1, n_max + 1, dtype=LD)
    return np.concatenate(([LD(1)], np.cumprod((n - 1 + LD(a)) / n)))


def probe_moving_basis(s: float, a: float, p: float, n_grid) -> np.ndarray:
    """Moving-basis Cesaro means of the backward shift with weights
    kappa = (1-t)^(-s):  sum_j k^a_{n-j} (kappa_{n-j}/kappa_n)^(p/2) / k^{a+1}_n."""
    n_max = int(max(n_grid))
    kappa, ka, ka1 = cesaro(s, n_max), cesaro(a, n_max), cesaro(LD(a) + 1, n_max)
    half_p = LD(p) / 2
    out = []
    for n in n_grid:
        ratios = kappa[n::-1] / kappa[n]  # kappa_{n-j} / kappa_n for j = 0..n
        out.append(np.sum(ka[n::-1] * ratios**half_p) / ka1[n])
    return np.array(out, dtype=LD)


def probe_bounded(s: float, a: float, p: float) -> bool:
    """Moving-basis means stay bounded exactly when a > p (1 - s) / 2."""
    return a > p * (1.0 - s) / 2.0


def alpha_partial_sum(s: float, n: int) -> LD:
    """sum_{m<=n} of the coefficients of (1-t)^s, i.e. the coefficient
    k^{1-s}_n of (1-t)^(s-1)."""
    return cesaro(1 - LD(s), n)[n]


def shift_product_min(a: float, s: float, n: int) -> LD:
    """Smallest coefficient of (1-t)^a (1-t)^(-s) = (1-t)^(-(s-a)) up to n."""
    return np.min(cesaro(LD(s) - LD(a), n))


def circle_min(binom: float, poly, radius: float, samples: int) -> LD:
    """min over z = r e^(2 pi i j / samples) of |(1-z)^binom * poly(z)|."""
    theta = 2 * LD_PI * np.arange(samples, dtype=LD) / samples
    re, im = radius * np.cos(theta), radius * np.sin(theta)
    mod = ((1 - re) ** 2 + im**2) ** (LD(binom) / 2)
    pre, pim = np.zeros_like(re), np.zeros_like(re)
    for c in reversed(poly):  # Horner on (re, im) pairs
        pre, pim = pre * re - pim * im + LD(c), pre * im + pim * re
    return np.min(mod * np.sqrt(pre**2 + pim**2))


def poly_inverse(poly, n: int) -> list:
    """Exact coefficients 0..n of 1/poly(t) for rational poly with poly[0] = 1."""
    c = [Fraction(x) for x in poly]
    k = [Fraction(1)]
    for m in range(1, n + 1):
        k.append(-sum(c[j] * k[m - j] for j in range(1, min(m, len(c) - 1) + 1)))
    return k


def rel_err(value, ref) -> float:
    """|value - ref| / |ref|, or |value| when ref is exactly zero."""
    value, ref = LD(value), LD(ref)
    return float(abs(value - ref) / abs(ref)) if ref != 0 else float(abs(value))


def max_rel_err(values, refs) -> float:
    values = np.asarray(values, dtype=LD)
    refs = np.asarray(refs, dtype=LD)
    return float(np.max(np.abs(values - refs) / np.abs(refs)))
