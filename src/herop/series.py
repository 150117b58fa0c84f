"""Truncated real power series: construction, convolution, inversion, evaluation.

Every kernel object in this toolkit is a finite coefficient window c_0..c_N
plus optional provenance (a generator tag).  Generator tags are what make
tail statements certifiable; a bare coefficient window never certifies
summability on its own, and every report downstream carries that distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "PowSign",
    "Generator",
    "Binomial",
    "Polynomial",
    "PowerTail",
    "FileList",
    "Derived",
    "TruncatedSeries",
    "KernelFlags",
    "KernelPair",
    "NumericalFailure",
    "SingularAtOriginError",
    "OutOfDomainError",
    "binomial_series",
    "cauchy_product",
    "reciprocal",
    "invert_kernel",
    "make_kernel_pair",
    "cesaro_numbers",
    "cesaro_number_gamma",
    "abs_tail_bound",
    "alpha_at_one",
    "AtOneEstimate",
    "pair_type_estimate",
    "kernel_underflow_index",
    "read_coefficient_file",
]


class NumericalFailure(RuntimeError):
    """A result that cannot be certified in floating point: overflow,
    non-finite values, lost symmetry, an unmet tolerance.  The CLI reports
    it as a verdict (exit 1) with its witness, unlike a ValueError, which
    is malformed input (exit 3)."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


def _finite(c: np.ndarray, what: str) -> np.ndarray:
    """c, or NumericalFailure naming its first non-finite degree."""
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise NumericalFailure(f"{what} at degree {int(bad[0])}", {"degree": int(bad[0])})
    return c


# OpenBLAS 0.3.31 (x86_64) splits ddot over its threads above 10,000
# elements, and the split changes the order of the sum with the thread
# count.  A chunk of at most 8192 stays on one thread, and adding the
# chunks left to right fixes the order; a vector that fits in one chunk
# takes the one plain ddot and keeps its bits.
_DOT_CHUNK = 8192


def _dot(a: np.ndarray, b: np.ndarray):
    """a.dot(b) for 1-D a and b, summed in an order no thread count can change."""
    if a.shape[0] <= _DOT_CHUNK:
        return a.dot(b)
    total = a[:_DOT_CHUNK].dot(b[:_DOT_CHUNK])
    for i in range(_DOT_CHUNK, a.shape[0], _DOT_CHUNK):
        total += a[i : i + _DOT_CHUNK].dot(b[i : i + _DOT_CHUNK])
    return total


class SingularAtOriginError(ValueError):
    """Inversion requested for a series with vanishing constant term."""


class OutOfDomainError(ValueError):
    """Evaluation point outside the closed unit disc."""


class PowSign(Enum):
    """Sign of the exponent in (1-t)**(+a) versus (1-t)**(-a)."""

    PLUS = "PowPlus"
    MINUS = "PowMinus"


# --- generator tags -------------------------------------------------------
#
# A generator records where a coefficient window came from, and it is the
# only place that decides what the window certifies beyond its own end.
# Binomial stores the *effective* exponent e, meaning the series is
# (1-t)**e; PowerTail says the coefficients follow amplitude * n**(-exponent)
# from `from_degree` on.  Every question takes the window c and answers None
# when the generator cannot certify the answer.


class Generator:
    """Base of the generator tags.  A bare, file-read or derived window
    certifies nothing, so every question here answers None."""

    def abs_tail(self, c: np.ndarray, n_from: int) -> Optional[float]:
        """Bound on sum_{n > n_from} |c_n|; math.inf for certified divergence."""
        return None

    def sup_tail(self, c: np.ndarray, beyond: int) -> Optional[float]:
        """Bound on sup_{n > beyond} |c_n|."""
        return None

    def weighted_tail(self, c: np.ndarray, x: float) -> Optional[float]:
        """Bound on |sum_{n > N} c_n x**n| for 0 <= x < 1, N the window end,
        from the non-increasing envelope sup_{n > N} |c_n|."""
        n = c.size - 1
        sup = self.sup_tail(c, n) if x < 1.0 else None
        return None if sup is None else sup * x ** (n + 1) / (1.0 - x)

    def at_one(self, c: np.ndarray) -> Optional["AtOneEstimate"]:
        """The boundary value f(1) with its critical/subcritical type."""
        return None

    def disc_zero_free(self, c: np.ndarray) -> Optional[tuple[bool, dict]]:
        """(no zero in the open unit disc, witness entries)."""
        return None

    def kernel_order(self) -> Optional[float]:
        """The order a when the series is the Cesaro kernel (1-t)**(-a), a > 0."""
        return None

    def inverse(self, c: np.ndarray, n_max: int) -> Optional["TruncatedSeries"]:
        """1/f to degree n_max in closed form, tagged with its generator."""
        return None

    def product(self, other: "Generator", n_max: int) -> Optional[np.ndarray]:
        """The coefficients 0..n_max of f * g in closed form, other being g's
        generator; the caller vouches that both windows are exact to n_max."""
        return None


@dataclass(frozen=True)
class Binomial(Generator):
    exponent: float

    def abs_tail(self, c: np.ndarray, n_from: int) -> Optional[float]:
        e = self.exponent
        if e == 0.0:
            return 0.0
        if e < 0.0:
            return math.inf
        if n_from < e:
            return None
        # beyond n > e the coefficients of (1-t)**e keep one sign and the
        # full sum is exactly 0, so the absolute tail is |partial sum|;
        # past the window the tail only shrinks, so the window-end bound holds
        stop = min(n_from, c.size - 1)
        return abs(float(np.sum(c[: stop + 1]))) + 1e-16 * (stop + 1)

    def sup_tail(self, c: np.ndarray, beyond: int) -> Optional[float]:
        # |c_{n+1}/c_n| = |n - e|/(n + 1): at most 1 past n = |e| when e >= -1;
        # below -1 the coefficients grow without bound
        if self.exponent >= -1.0 and beyond >= abs(self.exponent) + 1 and beyond < c.size:
            return float(abs(c[beyond]))
        return None

    def weighted_tail(self, c: np.ndarray, x: float) -> Optional[float]:
        s = -self.exponent  # the series is (1-t)**(-s)
        if s <= 1.0 or x >= 1.0:
            return super().weighted_tail(c, x)
        # coefficients grow, but their ratio (s + n) / (n + 1) decreases
        n = c.size - 1
        growth = (s + n) / (n + 1.0)
        if growth * x >= 1.0:
            return None
        return float(c[n]) * growth * x ** (n + 1) / (1.0 - growth * x)

    def at_one(self, c: np.ndarray) -> "AtOneEstimate":
        if self.exponent > 0.0:
            return AtOneEstimate(0.0, 0.0, True, "Critical")
        if self.exponent == 0.0:
            return AtOneEstimate(1.0, 0.0, True, "Subcritical")
        return AtOneEstimate(math.inf, math.inf, True, "Indeterminate")

    def disc_zero_free(self, c: np.ndarray) -> tuple[bool, dict]:
        # (1-t)**e vanishes only at t = 1, which sits on the boundary
        return True, {"binomial_exponent": self.exponent}

    def kernel_order(self) -> Optional[float]:
        return -self.exponent if self.exponent < 0 else None

    def inverse(self, c: np.ndarray, n_max: int) -> Optional["TruncatedSeries"]:
        # 1/(1-t)**e = (1-t)**(-e); a zero-extended window is no longer binomial
        if n_max >= c.size:
            return None
        k = _finite(_binomial_coeffs(-self.exponent, n_max), "inversion overflowed")
        return TruncatedSeries(k, Binomial(-self.exponent))

    def product(self, other: Generator, n_max: int) -> Optional[np.ndarray]:
        # (1-t)**e1 (1-t)**e2 = (1-t)**(e1 + e2): one O(n_max) recurrence in
        # place of an O(n_max^2) direct sum
        if not isinstance(other, Binomial):
            return None
        return _finite(_binomial_coeffs(self.exponent + other.exponent, n_max), "binomial product overflowed")


@dataclass(frozen=True)
class Polynomial(Generator):
    degree: int

    def abs_tail(self, c: np.ndarray, n_from: int) -> float:
        return 0.0 if n_from >= self.degree else float(np.sum(np.abs(c[n_from + 1 :])))

    def sup_tail(self, c: np.ndarray, beyond: int) -> float:
        return float(np.max(np.abs(c[beyond + 1 :]))) if beyond < self.degree else 0.0

    def at_one(self, c: np.ndarray) -> "AtOneEstimate":
        s = float(np.sum(c))
        if abs(s) <= _CRITICAL_TOL:
            return AtOneEstimate(s, 0.0, True, "Critical")
        return AtOneEstimate(s, 0.0, True, "Subcritical" if s > 0 else "Indeterminate")

    def disc_zero_free(self, c: np.ndarray) -> tuple[bool, dict]:
        trimmed = np.trim_zeros(np.asarray(c, dtype=float), "b")
        rmin = float(np.min(np.abs(np.roots(trimmed[::-1])))) if trimmed.size > 1 else None
        return rmin is None or not rmin < 1.0 - 1e-12, {"min_root_modulus": rmin}


@dataclass(frozen=True)
class PowerTail(Generator):
    amplitude: float
    exponent: float
    from_degree: int

    def abs_tail(self, c: np.ndarray, n_from: int) -> Optional[float]:
        b, n = self.exponent, c.size - 1
        if self.from_degree > n + 1:
            return None  # the law starts past the window, leaving a gap
        if b <= 1.0:
            return math.inf  # the power-law continuation is not summable
        # known window part, then the integral comparison
        # sum_{n > N} n**-b <= N**(1-b) / (b-1) for the continuation
        window = float(np.sum(np.abs(c[n_from + 1 : n + 1])))
        start = max(n_from, n, 1)
        return window + abs(self.amplitude) * start ** (1.0 - b) / (b - 1.0)

    def sup_tail(self, c: np.ndarray, beyond: int) -> Optional[float]:
        if beyond + 1 >= self.from_degree and self.exponent > 0:
            return abs(self.amplitude) * float(max(beyond + 1, 1)) ** -self.exponent
        return None

    def at_one(self, c: np.ndarray) -> Optional["AtOneEstimate"]:
        if self.from_degree > c.size:
            return super().at_one(c)  # a gap before the law certifies nothing
        s = float(np.sum(c))
        csum = np.cumsum(c)
        b = self.exponent
        tail = abs(self.amplitude) * (c.size - 1) ** (1.0 - b) / (b - 1.0) if b > 1 else math.inf
        if math.isfinite(tail):
            if s - tail > _CRITICAL_TOL:
                return AtOneEstimate(s, tail, True, "Subcritical")
            if abs(s) <= tail + _CRITICAL_TOL and abs(csum[-1]) <= abs(csum[len(csum) // 2]):
                return AtOneEstimate(s, tail, True, "Critical")
        return AtOneEstimate(s, tail, False, "Indeterminate")


@dataclass(frozen=True)
class FileList(Generator):
    path: str


@dataclass(frozen=True)
class Derived(Generator):
    note: str = ""


_BARE = Derived("bare window")

_BINOMIAL_CHECK_RTOL = 1e-14


def _binomial_coeffs(e: float, n_max: int) -> np.ndarray:
    """Taylor coefficients of (1-t)**e up to degree n_max, by the stable
    multiplicative recurrence c_n = c_{n-1} * (n - e - 1) / n.  Overflow
    leaves non-finite entries for the caller to report."""
    if n_max == 0:
        return np.ones(1)
    n = np.arange(1.0, n_max + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate(([1.0], np.cumprod((n - e - 1.0) / n)))


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """A real coefficient window c_0..c_N with optional provenance.

    Immutable: the coefficient array is copied on construction and marked
    read-only, so instances are safe to share across threads.
    """

    coeffs: np.ndarray
    generator: Optional[Generator] = None

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient window must be a nonempty 1-d sequence")
        _finite(c, "coefficient window is not finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        gen = self.generator
        if isinstance(gen, Binomial) and gen.exponent != 0.0:
            self._check_binomial_recurrence(gen.exponent)
        if isinstance(gen, Polynomial) and gen.degree >= c.size:
            raise ValueError("declared polynomial degree exceeds the window")

    def _check_binomial_recurrence(self, e: float) -> None:
        c = self.coeffs
        if abs(c[0] - 1.0) > _BINOMIAL_CHECK_RTOL:
            raise ValueError("binomial series must start at c_0 = 1")
        if c.size == 1:
            return
        n = np.arange(1.0, c.size)
        expected = c[:-1] * ((n - e - 1.0) / n)
        scale = np.maximum(np.abs(expected), 1e-300)
        if np.max(np.abs(c[1:] - expected) / scale) > _BINOMIAL_CHECK_RTOL:
            raise ValueError("coefficients violate the binomial recurrence")

    @property
    def certifier(self) -> Generator:
        """The generator that answers tail questions; a bare window has none."""
        return self.generator or _BARE

    @property
    def trunc_len(self) -> int:
        return int(self.coeffs.size)

    @property
    def degree(self) -> int:
        return int(self.coeffs.size) - 1

    def padded(self, length: int) -> np.ndarray:
        """Coefficients zero-extended (or cut) to the requested length."""
        c = self.coeffs
        if length <= c.size:
            return np.array(c[:length])
        out = np.zeros(length)
        out[: c.size] = c
        return out

    def __len__(self) -> int:
        return self.trunc_len

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(N={self.degree}, head={head}, generator={self.generator!r})"


def binomial_series(a: float, sign: PowSign, n_max: int) -> TruncatedSeries:
    """First n_max+1 Taylor coefficients of (1-t)**a (PLUS) or (1-t)**(-a) (MINUS)."""
    if not math.isfinite(a):
        raise ValueError("exponent must be finite")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    e = float(a) if sign is PowSign.PLUS else -float(a)
    return TruncatedSeries(_binomial_coeffs(e, n_max), Binomial(e))


def cauchy_product(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Formal product truncated at the shorter window, as direct sums: a spec's product keeps its bits."""
    n = min(f.trunc_len, g.trunc_len)
    return TruncatedSeries(_convolve(f.coeffs, g.coeffs, n), Derived("cauchy_product"))


def _product(f: TruncatedSeries, g: TruncatedSeries, n: int) -> np.ndarray:
    """First n coefficients of f * g: Generator.product's closed form when the
    generators give one, else _convolve's direct sums."""
    closed = f.certifier.product(g.certifier, n - 1)
    return _convolve(f.coeffs, g.coeffs, n) if closed is None else closed


# Products whose trimmed factors both reach this length take the blocked
# path.  It beats np.convolve from about 2048 coefficients on a 2-core
# OpenBLAS machine; the cut sits higher so that every window up to N = 4096
# keeps np.convolve's bits.
_BLOCKED_FROM = 8192
_BLOCK = 128


def _convolve(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of f * g as direct sums, skipping each factor's
    exact trailing zeros: a padded polynomial costs O(n deg).  Every
    coefficient keeps the error bound gamma_n (|f| * |g|) of a direct sum."""
    f, g = np.trim_zeros(f[:n], "b"), np.trim_zeros(g[:n], "b")
    if min(f.size, g.size) >= _BLOCKED_FROM:
        return _blocked_product(f, g, n)
    out = np.zeros(n)
    if f.size and g.size:
        prod = np.convolve(f, g)[:n]
        out[: prod.size] = prod
    return out


def _blocked_product(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of f * g as lower-triangular block-Toeplitz GEMMs.

    With g cut into rows G[J] = g[J b : (J+1) b] and the product into rows
    C[K] alike, C[K] = sum_{d <= K} G[K-d] @ T_d.T, where
    T_d[r, c] = f[d b + r - c] comes from a (2b-1)-long slice of f.  That
    is n^2/2 multiply-adds at GEMM speed and none for the n coefficients
    np.convolve computes past the cut.  The whole rows of g are a view; a
    partial last row is the one padded copy, applied as a vector-matrix
    product."""
    b = _BLOCK
    rows = -(-n // b)
    acc = np.zeros((rows, b))
    whole, rem = divmod(g.size, b)
    G = g[: whole * b].reshape(whole, b)
    last = np.zeros(b)
    last[:rem] = g[whole * b :]
    buf = np.empty((min(rows, whole), b))
    window = np.zeros(2 * b - 1)  # f[d b - b + 1 : d b + b], zero outside f
    hankel = np.lib.stride_tricks.sliding_window_view(window, b)  # [i, j] = window[i + j]
    Tt = np.empty((b, b))
    for d in range(min(rows, (f.size + b - 2) // b + 1)):  # T_d = 0 past f's end
        lo = d * b - b + 1
        start, stop = max(lo, 0), min(d * b + b, f.size)
        window[:] = 0.0
        window[start - lo : stop - lo] = f[start:stop]
        np.copyto(Tt, hankel[::-1])  # Tt[c, r] = window[b - 1 - c + r] = T_d[r, c]
        m = min(rows - d, whole)
        if m > 0:
            np.matmul(G[:m], Tt, out=buf[:m])
            acc[d : d + m] += buf[:m]
        if rem and whole + d < rows:
            acc[whole + d] += last @ Tt
    return acc.ravel()[:n]


def _invert_coeffs(c: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients of 1/f by the convolution recurrence, f given by window c.

    k_n = -(c_1 k_{n-1} + ... + c_j k_{n-j}) / c_0 with j = min(n, deg).  The
    kernel is kept reversed, r[n_max - n] = k_n, so each step's k_{n-1}, ...,
    k_{n-j} is the contiguous run r[i+1 : i+1+j] and its dot makes no copy.
    Finiteness is scanned once, after the loop: the first non-finite k_n is
    where the recurrence left float range."""
    if c[0] == 0.0:
        raise SingularAtOriginError("constant term vanishes, series not invertible")
    deg = int(np.max(np.nonzero(c)[0]))  # c[0] != 0 so nonzero is nonempty
    inv0 = 1.0 / c[0]
    neg = -inv0
    r = np.empty(n_max + 1)
    r[n_max] = inv0
    with np.errstate(over="ignore", invalid="ignore"):  # scanned below
        for n in range(1, min(deg, n_max + 1)):  # head: the window grows
            i = n_max - n
            r[i] = neg * c[1 : n + 1].dot(r[i + 1 :])
        dot = c[1 : deg + 1].dot  # steady: a fixed-width run
        for i in range(n_max - max(deg, 1), -1, -1):
            r[i] = neg * dot(r[i + 1 : i + 1 + deg])
    return _finite(r[::-1].copy(), "inversion overflowed")


@dataclass(frozen=True)
class KernelFlags:
    is_np: bool
    is_wiener_alpha: bool
    is_wiener_k: bool
    type: str  # "Critical" | "Subcritical" | "Indeterminate"


@dataclass(frozen=True, eq=False)
class KernelPair:
    """A symbol/kernel pair (alpha, k) with alpha * k = 1 up to the recorded
    residual.  Violations of the standing hypotheses (normalization, positive
    kernel coefficients, residual size) are listed rather than raised, so that
    perturbation experiments can observe near-failures."""

    alpha: TruncatedSeries
    k: TruncatedSeries
    inversion_residual: float
    flags: KernelFlags
    violations: tuple = ()

    @property
    def trunc_len(self) -> int:
        return min(self.alpha.trunc_len, self.k.trunc_len)


_NP_SLACK = 1e-14
_RESIDUAL_TOL = 1e-10


def _is_np_window(c: np.ndarray) -> bool:
    return abs(c[0] - 1.0) <= _NP_SLACK and bool(np.all(c[1:] <= _NP_SLACK))


def _summability_flag(series: TruncatedSeries) -> bool:
    """True when the absolute coefficient sums are certified or strongly
    stabilized finite; False otherwise (including certified divergence)."""
    tail = abs_tail_bound(series)
    if tail is not None:
        return bool(math.isfinite(tail))
    absc = np.abs(series.coeffs)
    total = float(np.sum(absc))
    if total == 0.0:
        return True
    half = float(np.sum(absc[series.trunc_len // 2 :]))
    return half <= 0.02 * total


def kernel_underflow_index(coeffs: np.ndarray) -> Optional[int]:
    """First index of a trailing run of (near-)zeros following a positive,
    decaying stretch: the signature of geometric decay underflowing float
    range, as opposed to a genuine sign violation."""
    tiny = np.abs(coeffs) < 1e-290
    if not tiny.any() or tiny[0]:
        return None
    first = int(np.argmax(tiny))
    if first < 8 or not tiny[first:].all():
        return None
    head = coeffs[max(first - 8, 1) : first]
    if np.all(head > 0.0) and np.all(np.diff(head) <= 0.0):
        return first
    return None


def make_kernel_pair(alpha: TruncatedSeries, k: TruncatedSeries) -> KernelPair:
    """Assemble a KernelPair from an explicit (alpha, k) window pair,
    recomputing the residual and all flags."""
    n = min(alpha.trunc_len, k.trunc_len)
    # direct sums: the residual measures the inversion, which a closed form would read as 0
    conv = _convolve(alpha.coeffs, k.coeffs, n)
    conv[0] -= 1.0
    residual = float(np.max(np.abs(conv)))
    violations = []
    if abs(alpha.coeffs[0] - 1.0) > _NP_SLACK or abs(k.coeffs[0] - 1.0) > _NP_SLACK:
        violations.append("normalization: alpha_0 and k_0 must equal 1")
    under = kernel_underflow_index(k.coeffs[:n])
    bad = np.nonzero(k.coeffs[1 : under if under else n] <= 0.0)[0]
    if under is not None:
        violations.append(f"kernel window underflows to zero from n={under}; shrink N")
    if bad.size:
        violations.append(f"nonpositive kernel coefficient at n={int(bad[0]) + 1}")
    if not residual <= _RESIDUAL_TOL:  # nan when the products leave float range
        violations.append(f"inversion residual {residual:.3e} above {_RESIDUAL_TOL:.0e}")
    est = pair_type_estimate(alpha, k, trusted=not violations)
    flags = KernelFlags(
        is_np=_is_np_window(alpha.coeffs),
        is_wiener_alpha=_summability_flag(alpha),
        is_wiener_k=_summability_flag(k),
        type=est.type,
    )
    return KernelPair(alpha, k, residual, flags, tuple(violations))


def _inverse(f: TruncatedSeries, n_max: int) -> TruncatedSeries:
    """1/f to degree n_max: the generator's closed form when it has one,
    otherwise the convolution recurrence on the zero-extended window."""
    closed = f.certifier.inverse(f.coeffs, n_max)
    if closed is not None:
        return closed
    return TruncatedSeries(_invert_coeffs(f.padded(n_max + 1), n_max), Derived("inverse"))


def reciprocal(alpha: TruncatedSeries, n_max: int) -> KernelPair:
    """Invert a symbol window to a kernel window of length n_max+1.

    The residual is computed by explicit re-multiplication.  Nonpositive
    kernel coefficients are reported in the violation list, not raised.
    A symbol window shorter than the target is zero-extended: exact for
    polynomials, and recorded as Derived provenance otherwise (inverting
    past the window treats the unseen coefficients as zero).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if alpha.trunc_len < n_max + 1:
        gen = alpha.generator if isinstance(alpha.generator, Polynomial) else Derived("zero-extended")
        alpha = TruncatedSeries(alpha.padded(n_max + 1), gen)
    return make_kernel_pair(alpha, _inverse(alpha, n_max))


def invert_kernel(k: TruncatedSeries, n_max: Optional[int] = None) -> KernelPair:
    """Given a kernel window k, recover alpha = 1/k and assemble the pair."""
    n_max = k.degree if n_max is None else n_max
    return make_kernel_pair(_inverse(k, n_max), k)


# --- Cesaro numbers -------------------------------------------------------


def cesaro_numbers(a: float, n_max: int) -> np.ndarray:
    """Cesaro numbers k^a(0..n_max): Taylor coefficients of (1-t)**(-a),
    computed by the forward-stable product recurrence."""
    return _finite(_binomial_coeffs(-float(a), n_max), f"Cesaro numbers of order {a} overflowed")


def cesaro_number_gamma(a: float, n: int) -> float:
    """Gamma-function form Gamma(n+a) / (Gamma(a) Gamma(n+1)).

    Requires a not to be a non-positive integer.  Uses log-gamma for the
    large positive arguments to avoid overflow.
    """
    if a <= 0 and float(a).is_integer():
        raise ValueError("gamma formula undefined for non-positive integer a")
    if n + a <= 0:
        # fall back on small direct gammas; all arguments stay modest here
        return math.gamma(n + a) / (math.gamma(a) * math.gamma(n + 1))
    return math.exp(math.lgamma(n + a) - math.lgamma(n + 1)) / math.gamma(a)


# --- evaluation and summability -------------------------------------------


def abs_tail_bound(series: TruncatedSeries, n_from: Optional[int] = None) -> Optional[float]:
    """Certified bound on sum_{n > n_from} |c_n|, or None when uncertifiable.

    Returns math.inf when the generator certifies divergence.  Only
    closed-form generators produce a bound; Derived/FileList windows do not.
    """
    n_from = series.degree if n_from is None else n_from
    return series.certifier.abs_tail(series.coeffs, n_from)


def evaluate_on_circle(f: TruncatedSeries, radius: float, samples: int) -> np.ndarray:
    """Values at z_j = radius * exp(2 pi i j / samples), j < samples.

    z_j**n depends on n only modulo samples (times radius**n), so folding
    radius**n c_n modulo samples and taking one FFT is an exact identity,
    O(N + S log S) against Horner's O(N S)."""
    if radius > 1.0 + 1e-12:
        raise OutOfDomainError(f"radius {radius} exceeds 1")
    c = f.coeffs * radius ** np.arange(f.trunc_len)
    folded = np.zeros(-(-c.size // samples) * samples)
    folded[: c.size] = c
    return np.conj(np.fft.fft(folded.reshape(-1, samples).sum(axis=0)))


@dataclass(frozen=True)
class AtOneEstimate:
    """Finite-window estimate of the boundary value f(1) = sum of coefficients."""

    value: float
    tail: Optional[float]  # certified bound on the discarded tail, if any
    certified: bool
    type: str  # "Critical" | "Subcritical" | "Indeterminate"


_CRITICAL_TOL = 1e-10


def alpha_at_one(alpha: TruncatedSeries) -> AtOneEstimate:
    """Estimate alpha(1) and classify critical (= 0) vs subcritical (> 0).

    Certified exactly for binomial and polynomial generators; otherwise a
    partial-sum trend decides, or the verdict stays Indeterminate.
    """
    est = alpha.certifier.at_one(alpha.coeffs)
    if est is not None:
        return est
    # no generator knowledge: partial-sum trend at the window checkpoints,
    # sampled at both parities to expose period-two oscillation
    c = alpha.coeffs
    s = float(np.sum(c))
    csum = np.cumsum(c)
    n = c.size
    marks = sorted({n // 4, n // 4 + 1, n // 2, n // 2 + 1, (3 * n) // 4, n - 2, n - 1})
    checkpoints = csum[[m for m in marks if 0 <= m < n]]
    spread = float(np.max(checkpoints) - np.min(checkpoints))
    if spread <= max(1e-3, 0.05 * abs(s)):
        if s > spread + _CRITICAL_TOL:
            return AtOneEstimate(s, None, False, "Subcritical")
        if abs(s) <= spread + _CRITICAL_TOL and abs(csum[-1]) <= abs(csum[n // 2]) + _CRITICAL_TOL:
            return AtOneEstimate(s, None, False, "Critical")
    return AtOneEstimate(s, None, False, "Indeterminate")


def pair_type_estimate(
    alpha: TruncatedSeries, k: TruncatedSeries, trusted: bool = True
) -> AtOneEstimate:
    """Critical/subcritical classification using both sides of a pair.

    When the symbol's own boundary value is uncertified, the kernel side
    decides through alpha(1) = 1/k(1): a certified-divergent kernel sum
    forces the critical case, a certified-finite one bounds alpha(1) away
    from zero.  Requires the pair relation to be trusted (no violations)."""
    est = alpha_at_one(alpha)
    if est.certified or not trusted:
        return est
    if np.all(k.coeffs > 0.0):
        ktail = abs_tail_bound(k)
        if ktail is not None:
            if math.isinf(ktail):
                return AtOneEstimate(0.0, 0.0, True, "Critical")
            total = float(np.sum(k.coeffs))
            low = 1.0 / (total + ktail)
            if low > _CRITICAL_TOL:
                return AtOneEstimate(1.0 / total, 1.0 / total - low, True, "Subcritical")
    return est


def read_coefficient_file(path: str) -> TruncatedSeries:
    """Read a coefficient file: one coefficient per line, '#' comments,
    index implicit from line order starting at 0."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from exc
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}:{lineno}: not a finite number: {line!r}")
    if not values:
        raise ValueError(f"{path}: no coefficients found")
    return TruncatedSeries(np.array(values), FileList(path))
