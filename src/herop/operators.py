"""Dense exemplar operators, weighted shift finite sections, the hereditary
calculus sum alpha(T*, T) with explicit convergence policies, and the
coefficient-level membership tests for weighted shifts.

All matrices live in the Euclidean realization (conjugation by the square
roots of the weights), so adjoints are plain conjugate transposes.  Sections
are backward, exact parts of the infinite shift.  The forward compression F,
entry (i+1, i) = sqrt(kappa_{i+1} / kappa_i), is a flip of one: J F J is the
backward section of kappa[d-1::-1], J the basis reversal.  Forward membership
reports carry a `not_a_part` witness flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice, repeat
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .conditions import _SIGN_TOL, Verdict, _sup_trend
from .series import NumericalFailure, TruncatedSeries, _convolve, _dot, _finite, _product, abs_tail_bound

__all__ = [
    "DenseOperator",
    "SparseMatrix",
    "Direction",
    "ShiftSection",
    "HereditaryResult",
    "ExactNilpotent",
    "GeometricTail",
    "Truncated",
    "ExactPolynomial",
    "NotPSDError",
    "UnboundedShiftError",
    "ConvergenceNotCertifiedError",
    "shift_section",
    "hereditary_apply",
    "shift_membership_backward",
    "shift_membership_forward",
    "ShiftMembershipReport",
    "operator_norm",
    "direct_sum",
    "BlockDiagOperator",
    "seeded_unit_vectors",
    "read_matrix_csv",
    "write_matrix_csv",
]


class NotPSDError(NumericalFailure):
    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class UnboundedShiftError(ValueError):
    """Weight ratios grow without any stabilizing bound."""


class ConvergenceNotCertifiedError(NumericalFailure):
    def __init__(self, message: str, partial: "HereditaryResult", witness: dict):
        super().__init__(message, witness)
        self.partial = partial


# a power whose Frobenius norm is at most this has vanished outright
_NILPOTENT_TOL = 1e-300

# every operator object has dim, operator(), the dense matrix it stands for, and
# apply(v, out=None), which writes T v into out when it is given (out must not
# overlap v) and returns it, else returns T v in a new array; a ShiftSection also
# takes a leading part of v and applies T's part there, itself a section
Operator = Union["DenseOperator", "ShiftSection", "BlockDiagOperator", "SparseMatrix"]


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Complex d x d matrix standing for a finite-section or exemplar operator."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.flags.writeable or not m.flags.c_contiguous:  # herop's own come read-only: no copy
            m = m.copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("entries must form a square matrix of dimension >= 1")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(self.entries, v, out=out)

    def operator(self) -> "DenseOperator":
        return self

    def powers(self, grams: Union[bool, Sequence[bool]] = False) -> Iterator[tuple[float, Optional[np.ndarray]]]:
        """(||T^n||_F, T*^n T^n) for n = 1, 2, ..., ending after the first
        power that vanishes.  The Gram is formed where grams is true (True,
        False, or one flag per power, whose end ends the walk), else None."""
        power = mat = self.entries
        for want in repeat(grams) if isinstance(grams, bool) else grams:
            fro = float(np.linalg.norm(power, "fro"))
            yield fro, (power.conj().T @ power if want else None)
            if fro <= _NILPOTENT_TOL:
                return
            power = power @ mat


def _owned(m: np.ndarray) -> DenseOperator:  # a matrix herop built: frozen, not copied
    m.setflags(write=False)
    return DenseOperator(m)


_DENSE_NAMES = ("conj", "T", "size", "nbytes")  # the ndarray attributes read off a lazy matrix


class _LazyMatrix:
    """A matrix whose dense complex form, `entries`, a subclass builds on
    first read and caches; indexing, numpy's array protocol and the ndarray
    attributes in `_DENSE_NAMES` read it."""

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.asarray(self.entries, dtype=dtype)
        return out.copy() if copy else out

    def __getitem__(self, key):
        return self.entries[key]

    def __getattr__(self, name: str):
        if name not in _DENSE_NAMES:  # fail without building the dense entries
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self.entries, name)


@dataclass(frozen=True, eq=False)
class SparseMatrix(_LazyMatrix):
    """A matrix as (row, col, value) triplets at distinct positions, such as
    a section model's D, C, V, W, S and bases, built dense on first read."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def diagonal(cls, vals: np.ndarray) -> "SparseMatrix":
        return cls(np.arange(vals.size), np.arange(vals.size), vals, (vals.size, vals.size))

    @property
    def dim(self) -> int:
        return self.shape[0]

    def operator(self) -> "SparseMatrix":
        return self

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The matrix times v, summed from the triplets."""
        if out is None:
            out = np.zeros(self.shape[0], np.result_type(v.dtype, self.vals.dtype))
        else:
            out[...] = 0
        np.add.at(out, self.rows, self.vals * v[self.cols])
        return out

    @cached_property
    def entries(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=np.complex128)
        m[self.rows, self.cols] = self.vals
        m.setflags(write=False)
        return m

    def monomial_abs(self) -> Optional[np.ndarray]:
        """|non-zero values|, the non-zero singular values if no two share a row or column, else None."""
        nz = self.vals != 0
        if any(np.bincount(ix[nz], minlength=1).max() > 1 for ix in (self.rows, self.cols)):
            return None
        return np.abs(self.vals[nz])


class Direction(Enum):
    BACKWARD = "Backward"
    FORWARD = "Forward"


@dataclass(frozen=True, eq=False)
class ShiftSection:
    """Finite section of the backward weighted shift in the Euclidean
    realization: entry (i, i+1) = sqrt(kappa_i / kappa_{i+1}), an exact part
    (the restriction to the invariant span of the first d monomials)."""

    kappa: TruncatedSeries
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim > self.kappa.trunc_len:
            raise ValueError("section dimension must satisfy 1 <= d <= len(kappa)")
        if np.any(self.kappa.coeffs[: self.dim] <= 0.0):
            raise ValueError("weights must be positive")

    @cached_property
    def couplings(self) -> np.ndarray:
        """sqrt(kappa_i / kappa_{i+1}) for i = 0..d-2."""
        k = self.kappa.coeffs[: self.dim]
        return np.sqrt(k[:-1] / k[1:])

    def operator(self) -> DenseOperator:
        rows = np.arange(self.dim - 1)
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        m[rows, rows + 1] = self.couplings
        return _owned(m)

    @cached_property
    def _fro_norms(self) -> list[float]:
        """||T^n||_F for n = 1..d (T^d = 0): ||T^n||_F^2 = sum_i k_i / k_{i+n},
        one product of positive terms.  A reciprocal or a norm past float
        range raises NumericalFailure naming its index."""
        k, d = self.kappa.coeffs[: self.dim], self.dim
        with np.errstate(over="ignore"):
            inv = _finite(1.0 / k, "section weight reciprocal overflowed")
            squares = _finite(_convolve(k, inv[::-1], d)[::-1], "section power norm overflowed")
        return np.sqrt(squares[1:]).tolist() + [0.0]

    def powers(self) -> Iterator[tuple[float, None]]:
        """DenseOperator.powers in closed form, norms only: ||T^n||_F for
        n = 1..d.  The Grams go out as None: hereditary_apply adds them."""
        for fro in self._fro_norms:
            yield fro, None

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """T v in the dtype of v and the (real) couplings: real stays real.  A
        leading part v of length m <= d takes the first m - 1 couplings."""
        c = self.couplings[: v.shape[0] - 1]
        if out is None:
            out = np.empty(v.shape, np.result_type(v.dtype, c.dtype))
        np.multiply(c, v[1:], out=out[:-1])
        out[-1] = 0
        return out


def shift_section(kappa: TruncatedSeries, direction: Direction, d: int) -> ShiftSection:
    if direction is not Direction.BACKWARD:
        raise ValueError("sections are backward: the forward compression of kappa is J B J, "
                         "J the basis reversal and B = shift_section(kappa[d-1::-1], Direction.BACKWARD, d)")
    return ShiftSection(kappa, d)


def _vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) for a 1-D float64 or complex128 array: its dot
    products and square root, so its bits up to series._DOT_CHUNK entries,
    and past that a sum whose order no BLAS thread count can change."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(_dot(re, re) + _dot(im, im))
    return math.sqrt(_dot(v, v))


def _orbit_norms(T, x: np.ndarray, n_max: int) -> np.ndarray:
    """||T^j x|| for j = 0..n_max by repeated T.apply; once a power vanishes
    exactly, the walk stops and the rest stay zero.  The walk keeps the
    dtype that the first T.apply returns, so a real vector on a section
    stays real; after it, two buffers take turns as apply's out.  On a
    section T^j x is zero from d - j on, so whenever d - j is a multiple of
    64 both buffers are cut to it: each apply takes T's part on the live
    coordinates and fewer than 64 zeros, and each norm reads them.  OpenBLAS's
    ddot sums whole blocks of 16 or 32 in SIMD lanes and series._dot chunks
    at 8192, so the cut keeps the bits of the whole vector's norm."""
    v = np.asarray(x)
    out = np.zeros(n_max + 1)
    # x may have any dtype: integers and bools count as floats, as in np.linalg.norm
    out[0] = _vector_norm(v if v.dtype.kind in "fc" else v.astype(float))
    if n_max < 1:
        return out
    v = T.apply(v)
    spare = np.empty_like(v)
    d = v.shape[0]
    cut = (d - 1) % 64 + 1 if isinstance(T, ShiftSection) else 0  # first j with d - j a multiple of 64
    for j in range(1, n_max + 1):
        if j == cut:
            v, spare, cut = v[: d - j], spare[: d - j], cut + 64
        norm = out[j] = _vector_norm(v)
        if norm == 0.0 or j == n_max:
            break
        v, spare = T.apply(v, out=spare), v
    return out


def _basis_orbit_norms(T, n: int) -> np.ndarray:
    """||T^j e_n|| for j = 0..n, e_n the n-th basis vector.  A section reads
    them off its weights, sqrt(k_{n-j}/k_n); any other operator walks e_n."""
    if not isinstance(T, ShiftSection):
        e_n = np.zeros(T.dim, dtype=np.complex128)
        e_n[n] = 1.0
        return _orbit_norms(T, e_n, n)
    k = T.kappa.coeffs
    return np.sqrt(k[n::-1] / k[n])


# --- hereditary functional calculus ----------------------------------------


@dataclass(frozen=True)
class ExactNilpotent:
    order: int


@dataclass(frozen=True)
class GeometricTail:
    M: int
    tail_bound: float


@dataclass(frozen=True)
class Truncated:
    M: int
    warning: str


@dataclass(frozen=True)
class ExactPolynomial:
    """The symbol is a polynomial and every term was summed: exact result."""

    M: int


Policy = Union[ExactNilpotent, GeometricTail, Truncated, ExactPolynomial]


@dataclass(frozen=True)
class HereditaryResult:
    value: Union[DenseOperator, SparseMatrix]  # a section's is its real diagonal
    policy_used: Policy
    terms: float  # sum_n |alpha_n| ||T^n||_F^2, which bounds the summed terms


def _symmetrize(m: np.ndarray, scale: float, rel: float) -> np.ndarray:
    """The Hermitian part of an accumulated sum, refused when the Frobenius
    norm of its asymmetry exceeds rel * scale, or when scale is not finite.
    Callers measure rounding against the size of the summed terms, not of
    the sum, which may cancel to zero."""
    if not math.isfinite(scale):  # 0 * inf among the terms reads NaN
        raise NumericalFailure(f"bound on the summed terms is not finite: {scale:.3e}", {"terms": scale})
    asym = float(np.linalg.norm(m - m.conj().T, "fro"))
    bound = rel * max(scale, 1e-300)
    if not asym <= bound:  # NaN included
        witness = {"asymmetry": asym, "bound": bound}
        raise NumericalFailure(f"accumulated sum lost Hermitian symmetry: {asym:.3e}", witness)
    return 0.5 * (m + m.conj().T)


def tail_certificate(
    series: TruncatedSeries, weights: np.ndarray, fro: Sequence[float], tol: float, first: int, last: int,
    scale: float = 1.0,
) -> tuple[Optional[int], Optional[float], float]:
    """The truncation policy of both hereditary sums: (M, bound, q) for the
    first M in first..last with scale * sum_{n>M} w_n ||T^n||^2 <= bound <= tol,
    w_n the weights in series' window and series' generator's weighted_tail
    past it.  fro holds ||T^0||..||T^m||, ||T^0|| counted as 1 and T^m
    Frobenius-contractive (m >= 1).  With q = ||T^m||^(1/m), T^(am+i) =
    T^i (T^m)^a and submultiplicativity give, for every matrix,
    ||T^n||^2 <= env * q^(2n) with env = max_{i<=m} (||T^i|| * q^-i)^2.
    M is None when no cap certifies, the bound then the smallest reached
    (at last); both are None when the generator cannot bound w_n at q^2."""
    m = len(fro) - 1
    q = fro[m] ** (1.0 / m)
    top = max(f / q**i for i, f in enumerate(fro))
    env = top * top
    beyond = series.certifier.weighted_tail(series.coeffs, q * q)
    if beyond is None:
        return None, None, q
    w = weights * q ** (2.0 * np.arange(weights.size))
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    bounds = scale * env * (suffix[first + 1 : last + 2] + beyond)
    hit = np.flatnonzero(bounds <= tol)
    if hit.size:
        return first + int(hit[0]), float(bounds[hit[0]]), q
    return None, float(scale * env * (suffix[last + 1] + beyond)), q


def hereditary_apply(
    alpha: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    tol: float = 1e-12,
) -> HereditaryResult:
    """Evaluate sum_n alpha_n T*^n T^n, stopping at whichever comes first:
    (a) ExactNilpotent at the first power that vanishes (||T^n||_F <= 1e-300);
    (b) GeometricTail at the first M that tail_certificate certifies to tol,
        when alpha's generator bounds its coefficients past the window.  The
        certificate is anchored at the first Frobenius-contractive power m,
        which proves rho(T) < 1, and again at 2m, 4m, ...: T^(2m) is
        contractive when T^m is, and its envelope bounds each later power
        no worse than T^m's does.  M >= the anchor.
    At the window's end L: (c) ExactPolynomial when alpha is a polynomial of
    degree at most L, every term summed; (d) ConvergenceNotCertifiedError,
    with the partial sum, when an anchor exists but no M <= L certifies;
    (e) Truncated with an explicit warning otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = T.dim
    coeffs = alpha.coeffs
    limit = coeffs.size - 1
    # sup_tail, not weighted_tail, admits (b), so growing binomial windows stay Truncated
    certifiable = alpha.certifier.sup_tail(coeffs, limit) is not None

    section = isinstance(T, ShiftSection)  # summed as one product once its norms chose the policy
    value = None if section else coeffs[0] * np.eye(d, dtype=np.complex128)
    terms = abs(coeffs[0]) * d
    fro_norms = [1.0]  # Frobenius norms of T^n, n = 0.., T^0 = I counted as 1
    policy: Optional[Policy] = None
    cert, anchor = None, 0  # tail_certificate's (M, bound, q) at the last anchor, and that anchor
    kept = 0  # the terms n = 1..kept enter the sum

    # a dense Gram only where alpha_n != 0: adding 0 * Gram changes no bit
    walk = T.powers() if section else T.powers(grams=(coeffs[1:] != 0).tolist())
    for n, (fro, gram) in enumerate(islice(walk, limit), 1):
        fro_norms.append(fro)
        if fro <= _NILPOTENT_TOL:
            policy = ExactNilpotent(order=n)
            break
        if gram is not None:
            value += coeffs[n] * gram
        kept = n
        terms += abs(coeffs[n]) * fro * fro
        if certifiable and fro < 1.0 and n >= 2 * anchor:
            anchor, cert = n, tail_certificate(alpha, np.abs(coeffs), fro_norms, tol, n, limit)
        if cert is not None and cert[0] == n:
            policy = GeometricTail(M=n, tail_bound=cert[1])
            break
    if section:  # T*^n T^n = diag(k_{j-n}/k_j): the real diagonal (a * k)_j / k_j, a the kept window
        k = T.kappa.coeffs[:d]
        h = _product(alpha, T.kappa, d) if kept + 1 == d else _convolve(coeffs[: kept + 1], k, d)
        value = SparseMatrix.diagonal(h / k)
    else:
        value = _owned(_symmetrize(value, terms, 2e-12))
    if policy is None:
        if abs_tail_bound(alpha, limit) == 0.0:
            policy = ExactPolynomial(limit)
        elif cert is not None:
            warning = "symbol window ended before the tail was certified"
            partial = HereditaryResult(value, Truncated(limit, warning), terms)
            message = f"tail bound not met within the symbol window (n <= {limit})"
            witness = {"window_end": limit, "tol": tol, "smallest_bound": cert[1]}
            raise ConvergenceNotCertifiedError(message, partial, witness)
        else:
            policy = Truncated(limit, f"no contractive power certified the tail, sum truncated at {limit}")
    return HereditaryResult(value, policy, terms)


# --- coefficient-level shift membership -------------------------------------


@dataclass(frozen=True)
class ShiftMembershipReport:
    direction: Direction
    in_Cw: Verdict
    in_Cw_plus: Verdict
    sup_ratio: float
    min_coefficient: float
    argmin: int
    witness: dict
    N_used: int

    @property
    def member(self) -> bool:
        return self.in_Cw_plus is Verdict.HOLDS


def _check_backward_bounded(kappa: np.ndarray) -> float:
    ratios = kappa[:-1] / kappa[1:]
    sup = float(np.max(ratios))
    n = ratios.size
    if n >= 8:
        tail = ratios[(3 * n) // 4 :]
        quarter = float(ratios[n // 4])
        if np.all(np.diff(tail) > 0) and ratios[-1] >= 3.0 * max(quarter, 1e-300):
            raise UnboundedShiftError(
                f"weight ratio grows through the window end (last={ratios[-1]:.3e})"
            )
    return sup


def _aligned_symbol_window(alpha: TruncatedSeries, kappa: TruncatedSeries) -> tuple:
    """Symbol coefficients against the weight window: a symbol certified to
    vanish past its window extends by exact zeros, everything else restricts
    to the common window."""
    if abs_tail_bound(alpha) == 0.0 or alpha.trunc_len >= kappa.trunc_len:
        n = kappa.trunc_len - 1
        return alpha.padded(n + 1), np.array(kappa.coeffs), n
    n = alpha.trunc_len - 1
    return np.array(alpha.coeffs), kappa.coeffs[: n + 1], n


def _gamma_and_product(
    alpha: TruncatedSeries, kappa: TruncatedSeries, ac: np.ndarray, kc: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(|alpha| * kappa, alpha * kappa) to degree n on the aligned windows,
    alpha * kappa from series._product.  An NP-signed window (alpha_0 > 0,
    alpha_n <= 0 after it) has |alpha| = 2 alpha_0 - alpha, so gamma is
    2 alpha_0 kappa - alpha * kappa, a difference with no cancellation; any
    other symbol takes gamma as a second direct product."""
    prod = _product(alpha, kappa, n + 1)
    if ac[0] > 0.0 and not np.any(ac[1:] > 0.0):
        return 2.0 * ac[0] * kc - prod, prod
    return _convolve(np.abs(ac), kc, n + 1), prod


def shift_membership_backward(
    alpha: TruncatedSeries, kappa: TruncatedSeries
) -> ShiftMembershipReport:
    """Membership of the infinite backward shift with the given weights,
    decided on coefficients: gamma = |alpha| * kappa dominated by kappa for
    the weak class, and non-negativity of the alpha * kappa coefficients for
    the positive class.  The sign test is exact up to the window, with the
    tolerance scaled by gamma_n (the convolution's attainable accuracy)."""
    ac, kc, n = _aligned_symbol_window(alpha, kappa)
    if np.any(kc <= 0.0):
        raise ValueError("weights must be positive")
    sup_shift = _check_backward_bounded(kc)

    with np.errstate(over="ignore", invalid="ignore"):
        gamma, prod = _gamma_and_product(alpha, kappa, ac, kc, n)
        ratio = _finite(gamma / kc, "gamma / kappa overflowed")
    # settled: the last quarter's max is within 1% of the max before it
    sup, i_sup, settled, _ = _sup_trend(ratio, max((3 * n) // 4, 1) - 1, 0.01)
    in_cw = Verdict.TREND_HOLDS if i_sup <= n // 2 or settled else Verdict.INDETERMINATE

    slack = _SIGN_TOL * np.maximum(gamma, 1.0)
    deficit = prod + slack
    i_min = int(np.argmin(prod))
    min_c = float(prod[i_min])
    in_cw_plus = Verdict.HOLDS if bool(np.all(deficit >= 0.0)) else Verdict.FAILS
    witness = {
        "shift_norm_sq": sup_shift,
        "sup_gamma_over_kappa": sup,
        "argsup": i_sup,
        "product_head": [float(v) for v in prod[: min(8, n + 1)]],
    }
    return ShiftMembershipReport(Direction.BACKWARD, in_cw, in_cw_plus, sup, min_c, i_min, witness, n)


def shift_membership_forward(
    alpha: TruncatedSeries, kappa: TruncatedSeries
) -> ShiftMembershipReport:
    """Membership of the infinite forward shift: per-m signs of
    sum_n alpha_n kappa_{m+n}, with certified tails when the weight window
    is non-increasing and the symbol tail is certified."""
    n = kappa.trunc_len - 1
    kc = kappa.coeffs
    if np.any(kc <= 0.0):
        raise ValueError("weights must be positive")
    ratios = kc[1:] / kc[:-1]
    norm_sq = float(np.max(ratios))  # ||F||^2 = sup kappa_{n+1} / kappa_n
    if norm_sq > 1e12:
        raise UnboundedShiftError("forward shift unbounded: weight growth ratio diverges")

    m_max = n // 2
    length = n - m_max + 1  # symbol window usable at every m <= m_max
    a = alpha.coeffs[: min(alpha.trunc_len, length)]
    window = kc[: m_max + a.size]  # kappa_{m+n} for m <= m_max, n < |a|
    values = np.correlate(window, a, mode="valid")

    # certified symbol tail * decreasing-weight bound
    sym_tail = abs_tail_bound(alpha, a.size - 1)
    dec = bool(np.all(np.diff(kc) <= 1e-15))
    certified = sym_tail is not None and math.isfinite(sym_tail) and (dec or sym_tail == 0.0)
    tails = np.zeros(m_max + 1)  # nonzero only when certified
    if certified and dec and sym_tail != 0.0:
        tails = kc[np.arange(m_max + 1) + a.size - 1] * sym_tail

    weak_values = np.correlate(window, np.abs(a), mode="valid")
    with np.errstate(over="ignore"):
        weak_ratio = _finite(weak_values / kc[: m_max + 1], "weak ratio overflowed")
    sup, i_sup, _, _ = _sup_trend(weak_ratio, 0, 0.0)
    in_cw = Verdict.TREND_HOLDS if i_sup <= m_max // 2 else Verdict.INDETERMINATE

    i_min = int(np.argmin(values))
    min_v = float(values[i_min])
    # the backward test's slack, scaled by the sums |alpha| * kappa
    signs_ok = bool(np.all(values >= -(_SIGN_TOL * np.maximum(weak_values, 1.0) + tails)))
    if certified:
        in_plus = Verdict.HOLDS if signs_ok else Verdict.FAILS
    else:
        in_plus = Verdict.TREND_HOLDS if signs_ok else Verdict.TREND_FAILS
    witness = {
        "not_a_part": True,  # forward sections are compressions
        "certified_tails": certified,
        "shift_norm_sq": norm_sq,
        "sup_weak_ratio": sup,
        "values_head": [float(v) for v in values[:8]],
    }
    return ShiftMembershipReport(Direction.FORWARD, in_cw, in_plus, sup, min_v, i_min, witness, n)


# --- spectral quantities -----------------------------------------------------


def operator_norm(T: Operator) -> float:  # a diagonal SparseMatrix reads its largest |value|
    sv = T.monomial_abs() if isinstance(T, SparseMatrix) else None
    return float(np.linalg.norm(T.operator().entries, 2) if sv is None else np.max(sv, initial=0.0))


def _clipped_roots(eig: np.ndarray, floor: float, what: str) -> np.ndarray:
    """Square roots of the eigenvalues eig (in any order) of a Hermitian
    matrix.  Eigenvalues within floor of zero are clipped to zero; a more
    negative one raises NotPSDError with the message "<what> <eigenvalue>
    below -<floor>"."""
    low = float(np.min(eig))
    if low < -floor:
        raise NotPSDError(f"{what} {low:.3e} below -{floor:.3e}", low)
    return np.sqrt(np.where(np.abs(eig) <= floor, 0.0, np.maximum(eig, 0.0)))


def _eigen_sqrt(
    eig: np.ndarray, vec: np.ndarray, floor: float, what: str
) -> tuple[DenseOperator, np.ndarray]:
    """(root, root eigenvalues) of a Hermitian matrix, from its ascending
    eigenvalues and eigenvectors (np.linalg.eigh), so that callers who read
    more from the same eigensolve run it once.  The eigenvalues are clipped
    by _clipped_roots."""
    roots = _clipped_roots(eig, floor, what)
    root = (vec * roots) @ vec.conj().T
    root += root.conj().T
    root *= 0.5
    return _owned(root), roots


@dataclass(frozen=True, eq=False)
class BlockDiagOperator:
    """Direct sum of operator objects with blockwise matvec; keeps
    shift-section fast paths."""

    blocks: tuple

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty(v.shape, dtype=np.complex128)
        at = 0
        for block in self.blocks:
            block.apply(v[at : at + block.dim], out=out[at : at + block.dim])
            at += block.dim
        return out

    def operator(self) -> DenseOperator:
        return direct_sum(*self.blocks)


def _block_diag(*mats) -> np.ndarray:
    """The complex matrix with mats down its diagonal and zeros elsewhere."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def direct_sum(*ops: Operator) -> DenseOperator:
    return _owned(_block_diag(*(o.operator().entries for o in ops)))


def seeded_unit_vectors(
    dim: int, count: int, seed: int = 0, complex_entries: bool = True
) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(count):
        v = rng.standard_normal(dim)
        if complex_entries:
            v = v + 1j * rng.standard_normal(dim)
        vectors.append(v / _vector_norm(v))
    return vectors


# --- matrix text I/O ---------------------------------------------------------


def read_matrix_csv(path: str) -> DenseOperator:
    """Read a square complex matrix from CSV with entries like '1.5+0.25j'
    (any token complex() takes once spaces are dropped); dimensions are
    inferred from the file.  Errors name the file, and a bad entry its
    line and column as path:line:col (bytes that are not UTF-8 read as
    U+FFFD, so they land in such an error too)."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(list(map(complex, line.replace(" ", "").split(","))))
            except ValueError:  # per cell, stripping what complex() keeps, or naming the bad cell
                rows.append([])
                for col, tok in enumerate(line.split(","), 1):
                    try:
                        rows[-1].append(complex(tok.strip().replace(" ", "")))
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lineno}:{col}: not a complex number: {tok.strip()!r}"
                        ) from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: {len(rows[-1])} entries, the first row has {len(rows[0])}"
                )
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    if len(rows) != len(rows[0]):
        raise ValueError(f"{path}: a {len(rows)}x{len(rows[0])} matrix is not square")
    try:
        return _owned(np.array(rows, dtype=np.complex128))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_matrix_csv(path: str, mat: Union[np.ndarray, Iterator[np.ndarray]]) -> None:
    """mat, or each row block that an iterator of them yields in turn, as
    rows of 're+imj' cells, each part in %.17g: one % format per row, fed
    the row's interleaved real and imaginary parts."""
    with open(path, "w", encoding="utf-8") as fh:
        for block in mat if isinstance(mat, Iterator) else [mat]:
            m = np.ascontiguousarray(block, dtype=np.complex128)
            row_format = ",".join(["%.17g%+.17gj"] * m.shape[1]) + "\n"
            fh.writelines(row_format % tuple(row.tolist()) for row in m.view(np.float64))
