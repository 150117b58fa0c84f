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
from .series import TruncatedSeries, abs_tail_bound, alpha_at_one

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
    "class_membership",
    "MembershipReport",
    "shift_membership_backward",
    "shift_membership_forward",
    "ShiftMembershipReport",
    "spectral_radius",
    "spectral_radius_gelfand",
    "operator_norm",
    "is_psd",
    "hermitian_sqrt",
    "direct_sum",
    "BlockDiagOperator",
    "seeded_unit_vectors",
    "read_matrix_csv",
    "write_matrix_csv",
]


class NotPSDError(ValueError):
    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class UnboundedShiftError(ValueError):
    """Weight ratios grow without any stabilizing bound."""


class ConvergenceNotCertifiedError(RuntimeError):
    def __init__(self, message: str, partial: "HereditaryResult"):
        super().__init__(message)
        self.partial = partial


# a power whose Frobenius norm is at most this has vanished outright
_NILPOTENT_TOL = 1e-300


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Complex d x d matrix standing for a finite-section or exemplar operator."""

    entries: np.ndarray
    labels: Optional[str] = None

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

    def adjoint(self) -> "DenseOperator":
        return DenseOperator(self.entries.conj().T, self.labels)

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


def as_matrix(op: Union[DenseOperator, "ShiftSection", "BlockDiagOperator", np.ndarray]) -> np.ndarray:
    if isinstance(op, DenseOperator):
        return op.entries
    if isinstance(op, (ShiftSection, BlockDiagOperator)):
        return op.operator().entries
    return np.asarray(op, dtype=np.complex128)


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

    def operator(self) -> DenseOperator:
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        idx = np.arange(self.dim - 1)
        if self.direction is Direction.BACKWARD:
            m[idx, idx + 1] = self.couplings
            label = f"backward shift section d={self.dim} (exact part)"
        else:
            m[idx + 1, idx] = 1.0 / self.couplings
            label = f"forward shift section d={self.dim} (compression, NOT a part)"
        return DenseOperator(m, label)

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
        out = np.zeros_like(v, dtype=np.complex128)
        if self.direction is Direction.BACKWARD:
            out[:-1] = self.couplings * v[1:]
        else:
            out[1:] = v[:-1] / self.couplings
        return out


def shift_section(kappa: TruncatedSeries, direction: Direction, d: int) -> ShiftSection:
    return ShiftSection(kappa, direction, d)


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
    abs_value: DenseOperator

    @property
    def decidable(self) -> bool:
        return not isinstance(self.policy_used, Truncated)


def _symmetrize(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    sym = 0.5 * (m + m.conj().T)
    scale = max(float(np.linalg.norm(sym, "fro")), 1e-300)
    asym = float(np.linalg.norm(m - m.conj().T, "fro"))
    if asym > tol * scale * 2.0:
        raise ValueError(f"accumulated sum lost Hermitian symmetry: {asym:.3e}")
    return sym


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
    n_cap: Optional[int] = None,
) -> HereditaryResult:
    """Evaluate sum_n alpha_n T*^n T^n under the first applicable policy.

    (a) ExactNilpotent when some power vanishes outright (finite sections);
    (b) GeometricTail when the spectral radius estimate sits below 1 and the
        neglected tail is certifiably at most tol;
    (c) Truncated with an explicit warning otherwise.

    The absolute-coefficient partial sum is accumulated alongside for the
    weak-class diagnostics.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = T.dim
    coeffs = alpha.coeffs
    n_alpha = coeffs.size - 1
    limit = n_alpha if n_cap is None else min(n_alpha, int(n_cap))

    # policy selection data
    rho = spectral_radius(T)
    geometric = rho < 1.0 - 10.0 * tol

    # a section's Grams are diagonals, kept as vectors until the end
    one = np.ones(d) if isinstance(T, ShiftSection) else np.eye(d, dtype=np.complex128)
    value = coeffs[0] * one
    abs_value = abs(coeffs[0]) * one
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
        abs_value += abs(coeffs[n]) * gram
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
    if value.ndim == 1:
        value, abs_value = np.diag(value), np.diag(abs_value)
    if policy is None:
        if abs_tail_bound(alpha, limit) == 0.0:
            policy = ExactPolynomial(limit)
        elif geometric and sup_beyond is not None:
            partial = HereditaryResult(
                DenseOperator(_symmetrize(value)),
                Truncated(limit, "n_cap reached before certified tail"),
                DenseOperator(_symmetrize(abs_value)),
            )
            raise ConvergenceNotCertifiedError(
                f"tail bound not met within n_cap={limit}", partial
            )
        else:
            policy = Truncated(
                limit,
                f"spectral radius estimate {rho:.6f} and symbol tail do not certify "
                f"convergence, sum truncated at {limit}",
            )
    return HereditaryResult(
        DenseOperator(_symmetrize(value)), policy, DenseOperator(_symmetrize(abs_value))
    )


def _geometric_tail(
    coeffs: np.ndarray, n_done: int, limit: int, q: float, env: float, sup_beyond: float
) -> float:
    """Certified bound on sum_{n > n_done} |alpha_n| ||T^n||^2 from the
    contraction envelope, with sup_beyond bounding |alpha_n| for n > limit."""
    powers = q ** (2.0 * np.arange(n_done + 1, limit + 1))
    known = float(np.dot(np.abs(coeffs[n_done + 1 : limit + 1]), powers))
    beyond = sup_beyond * q ** (2.0 * (limit + 1)) / (1.0 - q * q)
    return env * (known + beyond)


# --- class membership --------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    in_Cw: Verdict
    in_Cw_plus: Verdict
    sup_partial_norm: float
    witness: dict

    @property
    def member(self) -> bool:
        return self.in_Cw in (Verdict.HOLDS, Verdict.TREND_HOLDS) and self.in_Cw_plus in (
            Verdict.HOLDS,
            Verdict.TREND_HOLDS,
        )


def _is_isometry(mat: np.ndarray, tol: float = 1e-12) -> bool:
    d = mat.shape[0]
    return float(np.linalg.norm(mat.conj().T @ mat - np.eye(d), "fro")) <= tol * d


def class_membership(
    alpha: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    probe_vectors: Sequence[np.ndarray],
    tol: float = 1e-10,
) -> MembershipReport:
    """Weak-class and positive-class verdicts for a concrete operator.

    Decidable (Holds/Fails) under an exact policy, for polynomial symbols,
    or on an isometry with a certified summable symbol; Trend verdicts from
    partial-sum stabilization otherwise.
    """
    if len(probe_vectors) == 0:
        raise ValueError("probe_vectors must be nonempty")
    mat = as_matrix(T)
    result = hereditary_apply(alpha, T, tol=max(tol, 1e-14))
    exact = not isinstance(result.policy_used, Truncated)

    # per-vector partial sums of |alpha_n| ||T^n x||^2 with their trajectory
    coeffs = np.abs(alpha.coeffs)
    limit = (
        result.policy_used.order - 1
        if isinstance(result.policy_used, ExactNilpotent)
        else getattr(result.policy_used, "M", coeffs.size - 1)
    )
    sums = np.zeros(len(probe_vectors))
    traj = np.zeros((len(probe_vectors), limit + 1))
    for i, x0 in enumerate(probe_vectors):
        x = np.asarray(x0, dtype=np.complex128)
        nx = np.linalg.norm(x)
        if abs(nx - 1.0) > 1e-8:
            raise ValueError("probe vectors must be unit-normalized")
        acc = 0.0
        v = x
        for n_idx in range(limit + 1):
            if n_idx > 0:
                v = mat @ v
            acc += coeffs[n_idx] * float(np.vdot(v, v).real)
            traj[i, n_idx] = acc
        sums[i] = acc
    sup_partial = float(np.max(sums))

    tail_cert = abs_tail_bound(alpha)
    summable_cert = tail_cert is not None and math.isfinite(tail_cert)
    if exact:
        in_cw = Verdict.HOLDS
    elif summable_cert and _is_isometry(mat):
        in_cw = Verdict.HOLDS
    else:
        half = traj[:, traj.shape[1] // 2]
        stabilized = bool(np.all(sums - half <= 0.01 * np.maximum(sums, 1e-300)))
        growing = bool(np.any(sums - half >= 0.5 * np.maximum(half, 1e-300)) and np.max(sums) > 1e6)
        if stabilized:
            in_cw = Verdict.TREND_HOLDS
        elif growing:
            in_cw = Verdict.TREND_FAILS
        else:
            in_cw = Verdict.INDETERMINATE

    vmat = result.value.entries
    min_eig = float(np.min(np.linalg.eigvalsh(vmat)))
    norm_v = max(float(np.linalg.norm(vmat, 2)), 1e-300)
    psd = min_eig >= -tol * norm_v
    witness = {
        "policy": type(result.policy_used).__name__,
        "min_eigenvalue": min_eig,
        "value_norm": norm_v,
        "per_vector_sums": [float(s) for s in sums],
    }
    if exact:
        in_cw_plus = Verdict.HOLDS if psd else Verdict.FAILS
    elif in_cw is Verdict.HOLDS and _is_isometry(mat):
        # on an isometry the hereditary value is the boundary value of the
        # symbol times the identity, so a certified boundary value decides
        boundary = alpha_at_one(alpha)
        if boundary.certified:
            in_cw_plus = Verdict.HOLDS if boundary.value >= -tol else Verdict.FAILS
            witness["boundary_value"] = boundary.value
        else:
            in_cw_plus = Verdict.TREND_HOLDS if psd else Verdict.TREND_FAILS
    else:
        in_cw_plus = Verdict.TREND_HOLDS if psd else Verdict.TREND_FAILS
    if in_cw in (Verdict.TREND_FAILS, Verdict.FAILS):
        in_cw_plus = in_cw  # membership in the positive class presumes the weak class
    return MembershipReport(in_cw, in_cw_plus, sup_partial, witness)


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

    gamma = np.convolve(np.abs(ac), kc)[: n + 1]
    ratio = gamma / kc
    i_sup = int(np.argmax(ratio))
    head = ratio[: max((3 * n) // 4, 1)]
    stabilized = i_sup <= n // 2 or bool(
        np.max(ratio[(3 * n) // 4 :]) <= (1.0 + 0.01) * np.max(head)
    )
    in_cw = Verdict.TREND_HOLDS if stabilized else Verdict.INDETERMINATE

    prod = np.convolve(ac, kc)[: n + 1]
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
    values = np.correlate(kc, a, mode="full")[a.size - 1 : a.size - 1 + m_max + 1]

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

    beta = np.abs(a)
    weak_values = np.correlate(kc, beta, mode="full")[a.size - 1 : a.size - 1 + m_max + 1]
    weak_ratio = weak_values / kc[: m_max + 1]
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


def operator_norm(T: Union[DenseOperator, ShiftSection, np.ndarray]) -> float:
    return float(np.linalg.norm(as_matrix(T), 2))


def spectral_radius(T: Union[DenseOperator, ShiftSection, np.ndarray]) -> float:
    if isinstance(T, ShiftSection):
        return 0.0  # sections are nilpotent
    mat = as_matrix(T)
    if mat.shape[0] <= 512:
        return float(np.max(np.abs(np.linalg.eigvals(mat))))
    return spectral_radius_gelfand(mat)


def spectral_radius_gelfand(
    T: Union[DenseOperator, ShiftSection, np.ndarray], tol: float = 1e-6, max_squarings: int = 60
) -> float:
    """Stabilized ||T^(2^k)||^(2^-k) with norm rescaling at every squaring."""
    mat = np.array(as_matrix(T))
    log_norm = 0.0  # log ||T^m|| for the current power m
    m = 1
    norm = float(np.linalg.norm(mat, 2))
    if norm == 0.0:
        return 0.0
    log_norm = math.log(norm)
    estimate = norm
    mat = mat / norm
    for _ in range(max_squarings):
        mat = mat @ mat
        m *= 2
        step = float(np.linalg.norm(mat, 2))
        if step == 0.0:
            return 0.0
        log_norm = 2.0 * log_norm + math.log(step)
        mat = mat / step
        new_estimate = math.exp(log_norm / m)
        if abs(new_estimate - estimate) <= tol * max(new_estimate, 1e-300):
            return new_estimate
        estimate = new_estimate
    return estimate


def _require_hermitian(
    mat: np.ndarray, rel: float = 1e-10, scale: Optional[float] = None
) -> np.ndarray:
    if scale is None:
        scale = float(np.linalg.norm(mat, 2))
    scale = max(scale, 1e-300)
    if float(np.linalg.norm(mat - mat.conj().T, 2)) > rel * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (mat + mat.conj().T)


def is_psd(A: Union[DenseOperator, np.ndarray], tol: float = 1e-10) -> bool:
    """Positive semidefiniteness up to the relative eigenvalue floor -tol*||A||."""
    mat = _require_hermitian(as_matrix(A))
    eig = np.linalg.eigvalsh(mat)
    scale = max(float(np.max(np.abs(eig))), 1e-300)
    return bool(eig[0] >= -tol * scale)


def hermitian_sqrt(
    A: Union[DenseOperator, np.ndarray],
    tol: float = 1e-10,
    scale: Optional[float] = None,
) -> DenseOperator:
    """Non-negative square root by eigendecomposition.

    Eigenvalues within tol*scale of zero are clipped to zero on both sides
    (sqrt would otherwise amplify eigen-dust into rank noise); anything more
    negative raises with the offending eigenvalue as witness.
    """
    mat = _require_hermitian(as_matrix(A), scale=scale)
    return DenseOperator(_eigen_sqrt(mat, tol, scale, "most negative eigenvalue")[0])


def _eigen_sqrt(
    mat: np.ndarray, tol: float, scale: Optional[float], what: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(root, eigenvectors, root eigenvalues) of a Hermitian matrix.

    Eigenvalues within tol*scale of zero are clipped to zero (scale defaults
    to the largest eigenvalue modulus); a more negative one raises NotPSDError
    with the message "<what> <eigenvalue> below -<floor>"."""
    eig, vec = np.linalg.eigh(mat)
    if scale is None:
        scale = max(float(np.max(np.abs(eig))), 1e-300)
    floor = tol * scale
    if eig[0] < -floor:
        raise NotPSDError(f"{what} {eig[0]:.3e} below -{floor:.3e}", float(eig[0]))
    roots = np.sqrt(np.where(np.abs(eig) <= floor, 0.0, np.maximum(eig, 0.0)))
    root = (vec * roots) @ vec.conj().T
    return 0.5 * (root + root.conj().T), vec, roots


@dataclass(frozen=True, eq=False)
class BlockDiagOperator:
    """Direct sum with blockwise matvec; keeps shift-section fast paths."""

    blocks: tuple

    @property
    def dim(self) -> int:
        return sum(b.dim if hasattr(b, "dim") else as_matrix(b).shape[0] for b in self.blocks)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v, dtype=np.complex128)
        at = 0
        for block in self.blocks:
            d = block.dim if hasattr(block, "dim") else as_matrix(block).shape[0]
            out[at : at + d] = (
                block.apply(v[at : at + d])
                if hasattr(block, "apply")
                else as_matrix(block) @ v[at : at + d]
            )
            at += d
        return out

    def operator(self) -> DenseOperator:
        return direct_sum(*[as_matrix(b) for b in self.blocks])


def direct_sum(*ops: Union[DenseOperator, np.ndarray]) -> DenseOperator:
    mats = [as_matrix(o) for o in ops]
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
    """Read a complex matrix from CSV with entries like '1.5+0.25j';
    dimensions are inferred from the file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([complex(tok.strip().replace(" ", "")) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return DenseOperator(np.array(rows, dtype=np.complex128))


def write_matrix_csv(path: str, op: Union[DenseOperator, np.ndarray]) -> None:
    mat = as_matrix(op)
    with open(path, "w", encoding="utf-8") as fh:
        for row in mat:
            fh.write(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")
