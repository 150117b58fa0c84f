"""Dense exemplar operators, weighted shift finite sections, the hereditary
calculus sum alpha(T*, T) with explicit convergence policies, and the
coefficient-level membership tests for weighted shifts.

All matrices live in the Euclidean realization (conjugation by the square
roots of the weights), so adjoints are plain conjugate transposes.  Backward
sections are exact parts of the infinite shift; forward sections are
compressions and carry a not-a-part flag into every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .conditions import Verdict
from .series import NumericalFailure, TruncatedSeries, _convolve, _finite, abs_tail_bound

__all__ = [
    "DenseOperator",
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
    def __init__(self, message: str, partial: "HereditaryResult"):
        super().__init__(message)
        self.partial = partial


# a power whose Frobenius norm is at most this has vanished outright
_NILPOTENT_TOL = 1e-300

# every operator object has dim and operator(), the dense matrix it stands for
Operator = Union["DenseOperator", "ShiftSection", "BlockDiagOperator"]


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Complex d x d matrix standing for a finite-section or exemplar operator."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("entries must form a square matrix of dimension >= 1")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ v

    def operator(self) -> "DenseOperator":
        return self

    @cached_property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.entries))))

    def powers(self, grams: bool = True) -> Iterator[tuple[float, Optional[np.ndarray]]]:
        """(||T^n||_F, T*^n T^n) for n = 1, 2, ..., ending after the first
        power that vanishes; the Gram is left out (None) unless grams."""
        power = mat = self.entries
        while True:
            fro = float(np.linalg.norm(power, "fro"))
            yield fro, (power.conj().T @ power if grams else None)
            if fro <= _NILPOTENT_TOL:
                return
            power = power @ mat


class Direction(Enum):
    BACKWARD = "Backward"
    FORWARD = "Forward"


@dataclass(frozen=True, eq=False)
class ShiftSection:
    """Finite section of a weighted shift in the Euclidean realization.

    Backward: entry (i, i+1) = sqrt(kappa_i / kappa_{i+1}); the section is an
    exact part (restriction to the invariant span of the first d monomials).
    Forward: entry (i+1, i) = sqrt(kappa_{i+1} / kappa_i); the section is a
    compression, not a part, and `is_part` records that."""

    kappa: TruncatedSeries
    direction: Direction
    dim: int
    spectral_radius = 0.0  # sections are nilpotent

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim > self.kappa.trunc_len:
            raise ValueError("section dimension must satisfy 1 <= d <= len(kappa)")
        if np.any(self.kappa.coeffs[: self.dim] <= 0.0):
            raise ValueError("weights must be positive")

    @property
    def is_part(self) -> bool:
        return self.direction is Direction.BACKWARD

    @cached_property
    def couplings(self) -> np.ndarray:
        """sqrt(kappa_i / kappa_{i+1}) for i = 0..d-2."""
        k = self.kappa.coeffs[: self.dim]
        return np.sqrt(k[:-1] / k[1:])

    @cached_property
    def row_entries(self) -> tuple[int, np.ndarray]:
        """(s, t): row i of the matrix holds its one entry, t_i, at column
        i + s; t_i = 0 where that column is past the edge.  s is 1 backward
        and -1 forward."""
        t = np.zeros(self.dim)
        if self.direction is Direction.BACKWARD:
            t[:-1] = self.couplings
            return 1, t
        t[1:] = 1.0 / self.couplings
        return -1, t

    def operator(self) -> DenseOperator:
        s, t = self.row_entries
        rows = np.arange(self.dim - 1) + (s < 0)
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        m[rows, rows + s] = t[rows]
        return DenseOperator(m)

    def powers(self, grams: bool = True) -> Iterator[tuple[float, np.ndarray]]:
        """DenseOperator.powers in closed form: T*^n T^n is the diagonal
        k_{j-n}/k_j at j >= n (backward) or k_{j+n}/k_j at j < d-n (forward)."""
        k, d = self.kappa.coeffs[: self.dim], self.dim
        for n in range(1, d + 1):
            gram = np.zeros(d)
            if self.direction is Direction.BACKWARD:
                gram[n:] = k[: d - n] / k[n:]
            else:
                gram[: d - n] = k[n:] / k[: d - n]
            yield math.sqrt(float(np.sum(gram))), gram

    def apply(self, v: np.ndarray) -> np.ndarray:
        """T v in the dtype of v and the (real) couplings: real stays real."""
        out = np.zeros_like(v, dtype=np.result_type(v, self.couplings))
        if self.direction is Direction.BACKWARD:
            out[:-1] = self.couplings * v[1:]
        else:
            out[1:] = v[:-1] / self.couplings
        return out


def shift_section(kappa: TruncatedSeries, direction: Direction, d: int) -> ShiftSection:
    return ShiftSection(kappa, direction, d)


def _orbit_norms(T, x: np.ndarray, n_max: int) -> np.ndarray:
    """||T^j x|| for j = 0..n_max by repeated T.apply; once a power vanishes
    exactly, the walk stops and the rest stay zero.  The walk keeps the
    dtype that T.apply returns, so a real vector on a section stays real."""
    v = np.asarray(x)
    out = np.zeros(n_max + 1)
    out[0] = float(np.linalg.norm(v))
    for j in range(1, n_max + 1):
        v = T.apply(v)
        out[j] = float(np.linalg.norm(v))
        if out[j] == 0.0:
            break
    return out


def _basis_orbit_norms(T, n: int) -> np.ndarray:
    """||T^j e_n|| for j = 0..n, e_n the n-th basis vector.  A section reads
    them off its weights, sqrt(k_{n-j}/k_n) (backward) or sqrt(k_{n+j}/k_n)
    while n+j < d and 0 after (forward); any other operator walks e_n."""
    if not isinstance(T, ShiftSection):
        e_n = np.zeros(T.dim, dtype=np.complex128)
        e_n[n] = 1.0
        return _orbit_norms(T, e_n, n)
    k = T.kappa.coeffs
    out = np.zeros(n + 1)
    if T.direction is Direction.BACKWARD:
        out[:] = np.sqrt(k[n::-1] / k[n])
    else:
        stop = min(n + 1, T.dim - n)  # F^j e_n = 0 once n + j >= d
        out[:stop] = np.sqrt(k[n : n + stop] / k[n])
    return out


# --- hereditary functional calculus ----------------------------------------


@dataclass(frozen=True)
class ExactNilpotent:
    order: int


@dataclass(frozen=True)
class GeometricTail:
    rho_est: float
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
    value: DenseOperator
    policy_used: Policy
    terms: float  # sum_n |alpha_n| ||T^n||_F^2, which bounds the summed terms


def _symmetrize(m: np.ndarray, scale: float, rel: float) -> np.ndarray:
    """The Hermitian part of an accumulated sum, refused when the Frobenius
    norm of its asymmetry exceeds rel * scale.  Callers measure rounding
    against the size of the summed terms, not of the sum, which may cancel
    to zero."""
    asym = float(np.linalg.norm(m - m.conj().T, "fro"))
    bound = rel * max(scale, 1e-300)
    if not asym <= bound:  # NaN included
        witness = {"asymmetry": asym, "bound": bound}
        raise NumericalFailure(f"accumulated sum lost Hermitian symmetry: {asym:.3e}", witness)
    return 0.5 * (m + m.conj().T)


def _contraction_envelope(fro: Sequence[float]) -> tuple[float, float]:
    """(q, env) with ||T^n||^2 <= env * q^(2n) for every n, where fro holds
    ||T^0||..||T^m0|| and m0 = len(fro) - 1 is the first Frobenius-contractive
    power: q = ||T^m0||^(1/m0) and, by submultiplicativity,
    env = (max_j ||T^j|| * q^(1 - m0))^2."""
    m0 = len(fro) - 1
    q = fro[m0] ** (1.0 / m0)
    return q, (max(fro) * q ** (1 - m0)) ** 2


def hereditary_apply(
    alpha: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    tol: float = 1e-12,
) -> HereditaryResult:
    """Evaluate sum_n alpha_n T*^n T^n under the first applicable policy.

    (a) ExactNilpotent when some power vanishes outright (finite sections);
    (b) GeometricTail when the spectral radius estimate sits below 1 and the
        neglected tail is certifiably at most tol;
    (c) Truncated with an explicit warning otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = T.dim
    coeffs = alpha.coeffs
    limit = coeffs.size - 1

    # policy selection data
    rho = T.spectral_radius
    geometric = rho < 1.0 - 10.0 * tol

    # a section's Grams are diagonals, kept as vectors until the end
    one = np.ones(d) if isinstance(T, ShiftSection) else np.eye(d, dtype=np.complex128)
    value = coeffs[0] * one
    terms = abs(coeffs[0]) * d
    fro_norms = [math.sqrt(d)]  # Frobenius norms of T^n, n = 0..
    policy: Optional[Policy] = None
    sup_beyond = alpha.certifier.sup_tail(coeffs, limit)
    envelope = None  # (q, env) from the first contracting Frobenius norm

    for n, (fro, gram) in enumerate(islice(T.powers(), limit), 1):
        fro_norms.append(fro)
        if fro <= _NILPOTENT_TOL:
            policy = ExactNilpotent(order=n)
            break
        value += coeffs[n] * gram
        terms += abs(coeffs[n]) * fro * fro
        if not geometric or sup_beyond is None:
            continue
        if envelope is None:
            if fro < 1.0:
                envelope = _contraction_envelope(fro_norms)
            continue
        tail = _geometric_tail(coeffs, n, limit, *envelope, sup_beyond)
        if tail <= tol:
            policy = GeometricTail(rho_est=rho, M=n, tail_bound=tail)
            break
    if value.ndim == 1:  # a section's sum is a real diagonal, Hermitian with no check
        value = DenseOperator(np.diag(value.astype(np.complex128)))
    else:
        value = DenseOperator(_symmetrize(value, terms, 2e-12))
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
                f"tail bound not met within the symbol window (n <= {limit})", partial
            )
        else:
            policy = Truncated(
                limit,
                f"spectral radius estimate {rho:.6f} and symbol tail do not certify "
                f"convergence, sum truncated at {limit}",
            )
    return HereditaryResult(value, policy, terms)


def _geometric_tail(
    coeffs: np.ndarray, n_done: int, limit: int, q: float, env: float, sup_beyond: float
) -> float:
    """Certified bound on sum_{n > n_done} |alpha_n| ||T^n||^2 from the
    contraction envelope, with sup_beyond bounding |alpha_n| for n > limit."""
    powers = q ** (2.0 * np.arange(n_done + 1, limit + 1))
    known = float(np.dot(np.abs(coeffs[n_done + 1 : limit + 1]), powers))
    beyond = sup_beyond * q ** (2.0 * (limit + 1)) / (1.0 - q * q)
    return env * (known + beyond)


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


_SIGN_TOL = 1e-14


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

    gamma = _convolve(np.abs(ac), kc, n + 1)
    with np.errstate(over="ignore"):
        ratio = _finite(gamma / kc, "gamma / kappa overflowed")
    i_sup = int(np.argmax(ratio))
    head = ratio[: max((3 * n) // 4, 1)]
    stabilized = i_sup <= n // 2 or bool(
        np.max(ratio[(3 * n) // 4 :]) <= (1.0 + 0.01) * np.max(head)
    )
    in_cw = Verdict.TREND_HOLDS if stabilized else Verdict.INDETERMINATE

    prod = _convolve(ac, kc, n + 1)
    slack = _SIGN_TOL * np.maximum(gamma, 1.0)
    deficit = prod + slack
    i_min = int(np.argmin(prod))
    min_c = float(prod[i_min])
    in_cw_plus = Verdict.HOLDS if bool(np.all(deficit >= 0.0)) else Verdict.FAILS
    witness = {
        "shift_norm_sq": sup_shift,
        "sup_gamma_over_kappa": float(ratio[i_sup]),
        "argsup": i_sup,
        "product_head": [float(v) for v in prod[: min(8, n + 1)]],
    }
    return ShiftMembershipReport(
        Direction.BACKWARD, in_cw, in_cw_plus, float(ratio[i_sup]), min_c, i_min, witness, n
    )


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
    if sym_tail is not None and math.isfinite(sym_tail) and (dec or sym_tail == 0.0):
        tails = kc[np.arange(m_max + 1) + a.size - 1] * sym_tail if dec else np.zeros(m_max + 1)
        if sym_tail == 0.0:
            tails = np.zeros(m_max + 1)
        certified = True
    else:
        tails = None
        certified = False

    weak_values = np.correlate(window, np.abs(a), mode="valid")
    with np.errstate(over="ignore"):
        weak_ratio = _finite(weak_values / kc[: m_max + 1], "weak ratio overflowed")
    i_sup = int(np.argmax(weak_ratio))
    in_cw = Verdict.TREND_HOLDS if i_sup <= m_max // 2 else Verdict.INDETERMINATE

    i_min = int(np.argmin(values))
    min_v = float(values[i_min])
    if certified:
        slack = tails + _SIGN_TOL
        if np.all(values >= -slack):
            in_plus = Verdict.HOLDS
        elif np.any(values < -slack):
            in_plus = Verdict.FAILS
        else:
            in_plus = Verdict.INDETERMINATE
    else:
        in_plus = Verdict.TREND_HOLDS if min_v >= -_SIGN_TOL else Verdict.TREND_FAILS
    witness = {
        "not_a_part": True,  # forward sections are compressions
        "certified_tails": certified,
        "shift_norm_sq": norm_sq,
        "sup_weak_ratio": float(weak_ratio[i_sup]),
        "values_head": [float(v) for v in values[:8]],
    }
    return ShiftMembershipReport(
        Direction.FORWARD, in_cw, in_plus, float(weak_ratio[i_sup]), min_v, i_min, witness, n
    )


# --- spectral quantities -----------------------------------------------------


def operator_norm(T: Operator) -> float:
    return float(np.linalg.norm(T.operator().entries, 2))


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
    return DenseOperator(root), roots


@dataclass(frozen=True, eq=False)
class BlockDiagOperator:
    """Direct sum of operator objects with blockwise matvec; keeps
    shift-section fast paths."""

    blocks: tuple

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v, dtype=np.complex128)
        at = 0
        for block in self.blocks:
            out[at : at + block.dim] = block.apply(v[at : at + block.dim])
            at += block.dim
        return out

    def operator(self) -> DenseOperator:
        return direct_sum(*self.blocks)


def direct_sum(*ops: Operator) -> DenseOperator:
    mats = [o.operator().entries for o in ops]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=np.complex128)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at : at + d, at : at + d] = m
        at += d
    return DenseOperator(out)


def seeded_unit_vectors(
    dim: int, count: int, seed: int = 0, complex_entries: bool = True
) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(count):
        v = rng.standard_normal(dim)
        if complex_entries:
            v = v + 1j * rng.standard_normal(dim)
        vectors.append(v / np.linalg.norm(v))
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
            cells = line.split(",")
            try:
                rows.append([complex(tok.strip().replace(" ", "")) for tok in cells])
            except ValueError:
                for col, tok in enumerate(cells, 1):
                    try:
                        complex(tok.strip().replace(" ", ""))
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
        return DenseOperator(np.array(rows, dtype=np.complex128))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_matrix_csv(path: str, mat: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in mat:
            fh.write(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")
