"""Cesaro means of fractional order: per-vector boundedness probes with trend
classification, closed-form threshold oracles for weighted shifts, and the
model-consistency trichotomy test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .model import ModelBundle
from .operators import (
    DenseOperator, ShiftSection, _basis_orbit_norms, _orbit_norms, _vector_norm, operator_norm
)
from .series import _dot, cesaro_numbers

__all__ = [
    "MOVING_BASIS",
    "Trend",
    "ErgodicProbe",
    "UnsupportedRegimeError",
    "OracleKind",
    "OracleVerdict",
    "cesaro_probe",
    "shift_threshold_oracle",
    "trichotomy_test",
    "cesaro1_norm_table",
    "default_n_grid",
]


class UnsupportedRegimeError(ValueError):
    """Oracle asked outside the stated range of validity: no guess is made."""


class _MovingBasis:
    """Sentinel: probe the n-th Euclidean basis vector at grid point n."""

    def __repr__(self) -> str:  # pragma: no cover
        return "MOVING_BASIS"


MOVING_BASIS = _MovingBasis()


@dataclass(frozen=True)
class Trend:
    kind: str  # "Bounded" | "DecaysToZero" | "LogGrowth" | "PowerGrowth"
    statistic: float  # sup / slope / exponent, depending on kind
    r2: Optional[float]

    @property
    def bounded(self) -> bool:
        return self.kind in ("Bounded", "DecaysToZero")


@dataclass(frozen=True)
class ErgodicProbe:
    a: float
    p: float
    n_grid: tuple
    vector_labels: tuple
    samples: tuple  # one value array per vector, aligned with n_grid
    trends: tuple  # one Trend per vector


def default_n_grid(n_max: int, points: int = 14, n_min: int = 8) -> list[int]:
    return sorted({round(n) for n in np.geomspace(n_min, n_max, points).tolist()})


def _weighted_means(norms_p: np.ndarray, a: float, n_grid: Sequence[int]) -> np.ndarray:
    n_max = max(n_grid)
    ka = cesaro_numbers(a, n_max)
    ka1 = cesaro_numbers(a + 1.0, n_max)
    out = np.empty(len(n_grid))
    for i, n in enumerate(n_grid):
        out[i] = float(_dot(ka[n::-1], norms_p[: n + 1])) / ka1[n]
    return out


def _fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    denom = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / denom if denom > 0 else 0.0
    return float(slope), r2


def classify_trend(n_grid: Sequence[int], values: np.ndarray) -> Trend:
    """Trend verdicts per the probe policy: decay when the last decade falls
    an order of magnitude below the first with a negative log-log slope;
    growth when the log-log slope over the back half of the grid stays above
    0.05 (saturating bounded curves flatten there, genuine growth does not),
    split into LogGrowth/PowerGrowth by goodness of fit; bounded otherwise."""
    n = np.asarray(n_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    sup = float(np.max(v))
    first = v[n <= 10.0 * n[0]]
    last = v[n >= n[-1] / 10.0]
    pos = v > 0.0
    if not np.any(pos[n >= n[-1] / 10.0]):
        return Trend("DecaysToZero", -math.inf, None)
    loglog_slope, loglog_r2 = _fit(np.log(n[pos]), np.log(v[pos]))
    if float(np.mean(last)) < 0.1 * float(np.mean(first)) and loglog_slope < -0.1:
        return Trend("DecaysToZero", loglog_slope, loglog_r2)
    if float(np.ptp(v)) <= 1e-9 * max(sup, 1e-300):
        return Trend("Bounded", sup, None)
    # increment analysis over the back half of the (geometric) grid:
    # saturating curves C - c n**(-theta) have increments with log-log slope
    # -theta < 0, logarithmic growth gives slope 0, power growth slope > 0
    dv = np.diff(v)
    mid = np.sqrt(n[1:] * n[:-1])
    i0 = max(len(dv) // 2 - 1, 0)
    dvb, nb = dv[i0:], mid[i0:]
    grew = float(np.sum(dvb))
    if grew <= 0.005 * max(abs(v[-1]), 1e-300) or np.count_nonzero(dvb > 0) < 3:
        return Trend("Bounded", sup, None)
    inc_slope, _ = _fit(np.log(nb[dvb > 0]), np.log(dvb[dvb > 0]))
    if inc_slope < -0.02:
        return Trend("Bounded", sup, None)
    log_slope, log_r2 = _fit(np.log(n), v)
    if inc_slope <= 0.02:
        return Trend("LogGrowth", log_slope, log_r2)
    return Trend("PowerGrowth", loglog_slope, loglog_r2)


def cesaro_probe(
    T: Union[DenseOperator, ShiftSection],
    x: Union[np.ndarray, _MovingBasis, Sequence[np.ndarray]],
    a: float,
    p: float,
    n_grid: Sequence[int],
) -> ErgodicProbe:
    """Sampled order-a means of ||T^j x||^p along n_grid.

    x may be a single vector, a list of vectors, or MOVING_BASIS, in which
    case grid point n probes the n-th Euclidean basis vector (the section
    dimension must exceed the largest grid point so power norms are exact).
    Moving-basis orbits are closed-form on shift sections (a ratio of
    weights); fixed vectors, and every orbit of any other operator, are
    walked by repeated apply, on a section over the live coordinates only.
    """
    if not (0 < a < math.inf and 1 <= p < math.inf):
        raise ValueError("require finite a > 0 and p >= 1")
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValueError("n_grid must be increasing positive integers")
    d = T.dim
    n_max = n_grid[-1]

    labels: list[str] = []
    samples: list[np.ndarray] = []
    if isinstance(x, _MovingBasis):
        if d <= n_max:
            raise ValueError(
                f"moving-basis probe needs section dimension > {n_max}, got {d}"
            )
        values = np.empty(len(n_grid))
        for i, n in enumerate(n_grid):
            values[i] = _weighted_means(_basis_orbit_norms(T, n) ** p, a, [n])[0]
        labels.append("moving_basis")
        samples.append(values)
    else:
        vectors = [x] if isinstance(x, np.ndarray) else list(x)
        for i, vec in enumerate(vectors):
            norms = _orbit_norms(T, vec, n_max)
            samples.append(_weighted_means(norms**p, a, n_grid))
            labels.append(f"vector_{i}")
    trends = tuple(classify_trend(n_grid, s) for s in samples)
    return ErgodicProbe(
        float(a), float(p), tuple(n_grid), tuple(labels), tuple(samples), trends
    )


# --- closed-form shift oracles ----------------------------------------------


class OracleKind(Enum):
    QUADRATIC_MEANS = "QuadraticMeans"
    GENERAL_MEANS = "GeneralMeans"


@dataclass(frozen=True)
class OracleVerdict:
    kind: OracleKind
    bounded: bool
    detail: str


def shift_threshold_oracle(
    s: float, a_or_b: float, q: Optional[float], kind: OracleKind
) -> OracleVerdict:
    """Closed-form boundedness laws of the order-a quadratic (q = 2) and
    order-b general q-th power Cesaro means for the weighted shifts with
    weights from the order-s binomial kernel.  Outside the stated parameter
    ranges the oracle refuses rather than guessing."""
    if kind is OracleKind.QUADRATIC_MEANS:
        if not (0.0 < s < 1.0) or a_or_b <= 0:
            raise UnsupportedRegimeError("quadratic means law needs 0 < s < 1, a > 0")
        bounded = 1.0 - s < a_or_b  # boundary excluded: log divergence
        return OracleVerdict(kind, bounded, f"bounded iff 1 - s < a, a={a_or_b:g}")
    if kind is OracleKind.GENERAL_MEANS:
        if q is None or not (1.0 <= q <= 2.0) or not (0.0 < s < 1.0) or a_or_b <= 0:
            raise UnsupportedRegimeError("general means law needs 0 < s < 1, 1 <= q <= 2")
        bounded = a_or_b > q * (1.0 - s) / 2.0
        return OracleVerdict(kind, bounded, f"bounded iff b > q(1-s)/2 = {q*(1-s)/2:g}")
    raise UnsupportedRegimeError(f"unknown oracle kind {kind!r}")


# --- trichotomy test ---------------------------------------------------------


def trichotomy_test(
    T: Union[DenseOperator, ShiftSection],
    bundle: ModelBundle,
    vectors: Sequence[np.ndarray],
    n_max: int,
    b: Optional[float] = None,
    threshold: float = 0.05,
) -> dict:
    """Per-vector consistency of the three isometric-part indicators: the
    smallest power norm (liminf surrogate), the order-b quadratic mean at
    n_max, and the norm of the complement applied to the vector."""
    if b is None:
        order = bundle.k.certifier.kernel_order()
        if order is None:
            raise ValueError("pass b explicitly when the kernel order is unknown")
        b = 1.0 - order + 0.25  # b > 1 - a for k = (1-t)^(-a)
        if b <= 0:
            b = 0.5
    w_scale = operator_norm(bundle.W)  # a section's diagonal W is read off, not decomposed
    rows = []
    consistent = True
    for i, vec in enumerate(vectors):
        x = np.asarray(vec, dtype=np.complex128)
        nx = _vector_norm(x)
        norms = _orbit_norms(T, x, n_max)
        min_norm = float(np.min(norms))
        mean_at = _weighted_means(norms**2, b, [n_max // 2, n_max])
        # the transient part of the mean decays like 1/n, so one Richardson
        # step isolates the limit contributed by the isometric component
        limit_est = max(0.0, 2.0 * float(mean_at[-1]) - float(mean_at[0]))
        wx = _vector_norm(bundle.W.apply(x))
        # all three indicators live on the |isometric component| scale
        ratios = {
            "power": min_norm / nx,
            "cesaro": math.sqrt(limit_est) / nx,
            "complement": (wx / w_scale / nx) if w_scale > 1e-12 else 0.0,
        }
        absent = {key: value <= threshold for key, value in ratios.items()}
        agree = len(set(absent.values())) == 1
        consistent &= agree
        rows.append(
            {
                "vector": i,
                "min_power_norm": min_norm,
                "cesaro_mean": float(mean_at[-1]),
                "cesaro_mean_half": float(mean_at[0]),
                "cesaro_limit_estimate": limit_est,
                "w_norm": wx,
                "indicator_ratios": ratios,
                "indicators_absent": absent,
                "consistent": agree,
            }
        )
    return {"b": b, "n_max": n_max, "rows": rows, "consistent": consistent}


# --- operator-level means -----------------------------------------------------


def cesaro1_norm_table(T: DenseOperator, n_grid: Sequence[int]) -> dict:
    """Streaming order-1 means: operator norms ||M(n)|| and ||T^n||/n at the
    grid points, in one pass over the powers."""
    mat = T.operator().entries
    d = mat.shape[0]
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    wanted = set(n_grid)
    acc = np.eye(d, dtype=np.complex128)
    power = np.eye(d, dtype=np.complex128)
    mean_norms = {}
    power_norms = {}
    for n in range(1, n_max + 1):
        power = power @ mat
        acc += power
        if n in wanted:
            mean_norms[n] = float(np.linalg.norm(acc, 2)) / (n + 1)
            power_norms[n] = float(np.linalg.norm(power, 2))
    return {"mean_norms": mean_norms, "power_norms": power_norms}
