"""The closed-form oracles against mpmath at small sizes."""

import numpy as np
import pytest

import oracles

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40


def _mp_cesaro(a, n):
    return mp.gamma(n + a) / (mp.gamma(a) * mp.factorial(n))


def _close(value, ref, rtol=1e-17):
    assert abs(mp.mpf(str(value)) - ref) <= rtol * abs(ref), (value, ref)


@pytest.mark.parametrize("a", [0.2, 0.5, 1.3, 2.0])
def test_cesaro_numbers(a):
    k = oracles.cesaro(a, 300)
    for n in (0, 1, 7, 64, 300):
        _close(str(k[n]), _mp_cesaro(mp.mpf(a), n))


def test_cesaro_numbers_at_the_largest_benchmark_size_stay_within_their_error_bound():
    a, n = 0.35, 65536
    _close(str(oracles.cesaro(a, n)[n]), _mp_cesaro(mp.mpf(a), n), rtol=n * float(np.finfo(np.longdouble).eps))


@pytest.mark.parametrize("s,a,p", [(0.5, 0.8, 2.0), (0.25, 0.3, 1.5), (0.75, 0.1, 1.0)])
def test_moving_basis_probe(s, a, p):
    grid = [8, 11, 30, 57]
    got = oracles.probe_moving_basis(s, a, p, grid)
    for value, n in zip(got, grid):
        kappa = [_mp_cesaro(mp.mpf(s), m) for m in range(n + 1)]
        ref = mp.fsum(_mp_cesaro(mp.mpf(a), n - j) * (kappa[n - j] / kappa[n]) ** (mp.mpf(p) / 2)
                      for j in range(n + 1)) / _mp_cesaro(mp.mpf(a) + 1, n)
        _close(str(value), ref, rtol=1e-17)


def _mp_binomial_coeffs(e, n):
    """Taylor coefficients of (1-t)^e: (-1)^m C(e, m)."""
    return [(-1) ** m * mp.binomial(mp.mpf(e), m) for m in range(n + 1)]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_alpha_partial_sum(s):
    _close(str(oracles.alpha_partial_sum(s, 40)), mp.fsum(_mp_binomial_coeffs(s, 40)))


@pytest.mark.parametrize("a,s", [(0.3, 0.8), (0.7, 0.4), (0.5, 0.6)])
def test_shift_product_min(a, s):
    _close(str(oracles.shift_product_min(a, s, 50)), min(_mp_binomial_coeffs(mp.mpf(a) - mp.mpf(s), 50)))


@pytest.mark.parametrize("binom,poly", [(0.5, [1.0]), (0.3, [1.0, -0.3]), (0.0, [1.0, -0.3, -0.2])])
@pytest.mark.parametrize("radius", [0.5, 0.9, 0.99])
def test_circle_min(binom, poly, radius):
    samples = 64
    ref = min(
        abs((1 - z) ** mp.mpf(binom) * mp.polyval(list(reversed([mp.mpf(c) for c in poly])), z))
        for z in (radius * mp.expjpi(mp.mpf(2 * j) / samples) for j in range(samples))
    )
    _close(str(oracles.circle_min(binom, poly, radius, samples)), ref, rtol=1e-17)


def test_poly_inverse_is_exact():
    k = oracles.poly_inverse([1, -1, -1], 16)
    assert [int(x) for x in k] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]


def test_probe_threshold():
    assert oracles.probe_bounded(0.5, 0.8, 2.0)
    assert not oracles.probe_bounded(0.5, 0.3, 2.0)
