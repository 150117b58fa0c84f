"""Explicit model construction for operators satisfying a hereditary
inequality: defect operator and defect basis, degree-truncated transform into
the weighted shift space, complement W with the induced isometry S, and the
residual diagnostics that certify (or refute) the model identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional, Sequence, Union

import numpy as np

from .operators import (
    DenseOperator,
    HereditaryResult,
    ShiftSection,
    _contraction_envelope,
    _eigen_sqrt,
    _symmetrize,
    direct_sum,
    hereditary_apply,
)
from .series import TruncatedSeries, alpha_at_one, pair_type_estimate

__all__ = [
    "ModelBundle",
    "ModelInvalidError",
    "TailUncertifiableError",
    "build_defect",
    "build_transform",
    "build_W_S",
    "verify_model",
    "verify_relation_DCW",
    "minimality_check",
    "build_model",
    "bundle_direct_sum",
]


# alpha(T*, T): tail tolerance of the sum, and the relative eigenvalue floor
# below which its square root clips to zero
_PSD_TOL = 1e-10
# numerical rank: D keeps eigenvalues above _RANK_TOL * ||D||, W above _RANK_TOL
_RANK_TOL = 1e-8


def _norm2(x: np.ndarray) -> float:
    """Spectral norm.  A tall matrix's comes from the largest eigenvalue of
    the Gram of x / max|x_ij|, which is cheaper than its SVD; the scaling
    keeps tiny residuals from underflowing in the Gram.  Square and wide
    matrices keep the SVD, which is the cheaper one on near-diagonal
    sections."""
    if x.shape[0] <= x.shape[1]:
        return float(np.linalg.norm(x, 2))
    s = float(np.max(np.abs(x)))
    if s == 0.0:
        return 0.0
    y = x / s
    g = y.conj().T @ y
    return s * math.sqrt(max(float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1]), 0.0))


class ModelInvalidError(RuntimeError):
    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


class TailUncertifiableError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything the explicit model produces, plus residual diagnostics.

    V is stored as an ((M+1)*r, d) matrix whose degree-n block row is
    sqrt(k_n) * C * T^n, i.e. the Euclidean coordinates of the transform into
    the weighted power-series space tensored with the defect space."""

    D: DenseOperator
    defect_basis: np.ndarray  # (d, r) orthonormal columns spanning ran D
    C: np.ndarray  # (r, d): D expressed against the defect basis
    V: np.ndarray  # ((M+1)*r, d)
    W: DenseOperator
    w_basis: np.ndarray  # (d, w) orthonormal columns spanning ran W
    S: np.ndarray  # (w, w) isometry in w_basis coordinates
    k: TruncatedSeries
    M: int
    kind: str  # "Critical" | "Subcritical" | "Indeterminate"
    diagnostics: dict

    @property
    def defect_rank(self) -> int:
        return int(self.defect_basis.shape[1])

    @property
    def w_rank(self) -> int:
        return int(self.w_basis.shape[1])

    def s_full(self) -> np.ndarray:
        """S transported to the ambient space (zero off the W range)."""
        return self.w_basis @ self.S @ self.w_basis.conj().T


def build_defect(
    alpha: TruncatedSeries, T: Union[DenseOperator, ShiftSection]
) -> tuple[DenseOperator, np.ndarray, HereditaryResult]:
    """Defect operator D = alpha(T*, T)^(1/2) and an orthonormal basis of its
    range (eigenvectors of D with eigenvalue above _RANK_TOL * ||D||).
    Eigenvalues of the hereditary sum within _PSD_TOL times its summed
    terms count as zero, so a sum that cancels to zero is PSD."""
    hered = hereditary_apply(alpha, T, tol=_PSD_TOL)
    d_mat, vec, roots = _eigen_sqrt(
        hered.value.entries, _PSD_TOL, hered.terms, "hereditary value has eigenvalue"
    )
    keep = roots > _RANK_TOL * max(float(np.max(roots)), 1e-300)
    basis = np.array(vec[:, keep])
    # canonical phases: the largest entry of each basis column is made real
    # and positive, so repeated runs and identity checks are deterministic
    for j in range(basis.shape[1]):
        lead = basis[np.argmax(np.abs(basis[:, j])), j]
        if abs(lead) > 0:
            basis[:, j] *= np.conj(lead) / abs(lead)
    return DenseOperator(d_mat), basis, hered


def _certified_degree_cap(
    c_norm: float, k: TruncatedSeries, T: Union[DenseOperator, ShiftSection], tol: float
) -> tuple[int, float]:
    """Smallest degree cap with certified tail sum_{n>M} k_n ||C T^n||^2 <= tol."""
    rho = T.spectral_radius
    if rho >= 1.0 - 1e-8:
        raise TailUncertifiableError(
            f"spectral radius estimate {rho:.6f} leaves the degree tail uncertified"
        )
    kc = k.coeffs
    # contraction envelope from the first Frobenius-contractive power
    fro = [1.0]
    for norm, _ in islice(T.powers(grams=False), 512):
        fro.append(norm)
        if norm < 1.0:
            break
    else:
        raise TailUncertifiableError("no contractive power found within 512 steps")
    m0 = len(fro) - 1
    q, env = _contraction_envelope(fro)
    n_max = kc.size - 1
    weights = kc * q ** (2.0 * np.arange(n_max + 1))
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    beyond = k.certifier.weighted_tail(kc, q * q)
    if beyond is None:
        raise TailUncertifiableError(
            "kernel growth past the window is uncertified for this generator"
        )
    for m in range(m0, n_max):
        bound = c_norm**2 * env * (suffix[m + 1] + beyond)
        if bound <= tol:
            return m, bound
    raise TailUncertifiableError("degree tail bound never met inside the kernel window")


def build_transform(
    C: np.ndarray,
    k: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    M: Optional[int] = None,
    tol: float = 1e-10,
) -> tuple[np.ndarray, int, Optional[float]]:
    """Degree-truncated transform: block row n is sqrt(k_n) * C * T^n.

    Degree cap policy: nilpotency index minus one for finite sections (tail
    exactly 0), else the smallest certified cap, else the caller's explicit M
    (tail left None when uncertifiable).  Returns (V, M, tail_bound).  The
    index is the first power whose Frobenius norm is dust (1e-12) relative
    to the largest power seen, as unitary conjugates of sections leave it."""
    if M is not None and M < 0:
        raise ValueError(f"degree cap M must be non-negative, got {M}")
    mat = T.operator().entries
    cmat = np.atleast_2d(np.asarray(C, dtype=np.complex128))
    d = mat.shape[0]
    if cmat.shape[1] != d:
        raise ValueError("C must map the operator space into the auxiliary space")
    tail_bound: Optional[float] = None
    c_norm = float(np.linalg.norm(cmat, 2))
    nil, dust, peak = None, 0.0, 1.0
    cap = d if M is None else min(M + 1, d)
    for n, (fro, _) in enumerate(islice(T.powers(grams=False), cap), 1):
        peak = max(peak, fro)
        if fro <= 1e-12 * peak:
            nil, dust = n, fro
            break
    if M is None:
        if nil is not None:
            M = nil - 1
            window = float(np.sum(k.coeffs[: min(nil + 1, k.trunc_len)]))
            tail_bound = (c_norm * dust) ** 2 * window  # exact 0 for true sections
        else:
            M, tail_bound = _certified_degree_cap(c_norm, k, T, tol / 10.0)
    elif nil is not None:
        tail_bound = 0.0
    if M + 1 > k.trunc_len:
        raise ValueError(f"kernel window too short for degree cap M={M}")
    if np.any(k.coeffs[: M + 1] <= 0.0):
        raise ValueError(f"kernel coefficients up to the degree cap M={M} must be positive")
    r = cmat.shape[0]
    root_k = np.sqrt(k.coeffs[: M + 1])
    V = np.empty(((M + 1) * r, d), dtype=np.complex128)
    block = np.array(cmat)
    V[0:r] = root_k[0] * block
    for n in range(1, M + 1):
        block = block @ mat
        V[n * r : (n + 1) * r] = root_k[n] * block
    return V, M, tail_bound


def build_W_S(
    V: np.ndarray,
    T: Union[DenseOperator, ShiftSection],
    tol: float = 1e-8,
) -> tuple[DenseOperator, np.ndarray, np.ndarray, dict]:
    """Complement W = (I - V*V)^(1/2), its range basis, and the isometry S
    defined on that range by S(Wx) = WTx.

    The defining relation is solved in least squares over the standard basis
    and then polar-corrected to an exact isometry (any isometric completion
    on the orthogonal complement is admissible; the pre-correction residual
    is reported).  The info dict carries contraction_excess = max(0, ||V|| - 1)
    from the norm checked here.  Raises when the well-definedness residual
    exceeds tol."""
    mat = T.operator().entries
    d = mat.shape[0]
    gram = V.conj().T @ V
    norm_v = math.sqrt(max(float(np.max(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)))), 0.0))
    if norm_v > 1.0 + tol:
        raise ModelInvalidError(f"transform norm {norm_v:.12f} exceeds 1 + tol")
    a_mat = _symmetrize(np.eye(d) - gram, 1.0, 1e-10)
    root, _, _ = _eigen_sqrt(a_mat, max(tol * 1e-2, 1e-12), 1.0, "most negative eigenvalue")
    w_op = DenseOperator(root)
    w_mat = w_op.entries
    eig, vec = np.linalg.eigh(w_mat)
    keep = eig > _RANK_TOL
    basis = vec[:, keep]
    w = int(basis.shape[1])

    wt = w_mat @ mat
    wd_residual = float(
        np.max(np.abs(np.linalg.norm(w_mat, axis=0) - np.linalg.norm(wt, axis=0)))
    )
    if wd_residual > tol:
        raise ModelInvalidError(
            "S is not well defined at this tolerance: ||Wx|| != ||WTx||",
            {"well_definedness_residual": wd_residual},
        )
    info = {
        "S_welldef_residual": wd_residual,
        "polar_correction": 0.0,
        "contraction_excess": max(0.0, norm_v - 1.0),
    }
    if w == 0:
        return w_op, basis, np.zeros((0, 0), dtype=np.complex128), info
    lhs = basis.conj().T @ w_mat  # (w, d): coordinates of W e_j
    rhs = basis.conj().T @ wt
    s_ls = rhs @ np.linalg.pinv(lhs, rcond=1e-12)
    u, _, vh = np.linalg.svd(s_ls)
    s_hat = u @ vh  # isometric (here unitary) completion on the W range
    polar_shift = float(np.linalg.norm(s_hat - s_ls, 2))
    iso_residual = float(np.linalg.norm(s_hat.conj().T @ s_hat - np.eye(w), 2))
    info["S_welldef_residual"] = max(wd_residual, iso_residual)
    info["polar_correction"] = polar_shift
    return w_op, basis, s_hat, info


def verify_model(T: Union[DenseOperator, ShiftSection], bundle: ModelBundle) -> dict:
    """Pure residual measurement of the model identities: intertwining with
    the truncated model shift, joint isometry of (V, W), and S W = W T.

    The model shift is applied blockwise to V rather than materialized as a
    kron matrix, so large degree caps stay cheap."""
    mat = T.operator().entries
    d = mat.shape[0]
    r = bundle.defect_rank
    residuals = {}
    if r == 0 or bundle.V.size == 0:
        residuals["intertwine_residual"] = 0.0
    else:
        kc = bundle.k.coeffs[: bundle.M + 1]
        shifted = np.zeros_like(bundle.V)
        if bundle.M >= 1:
            coup = np.sqrt(kc[:-1] / kc[1:])
            shifted[: bundle.M * r] = np.repeat(coup, r)[:, None] * bundle.V[r:]
        residuals["intertwine_residual"] = _norm2(shifted - bundle.V @ mat)
    w_mat = bundle.W.entries
    joint = bundle.V.conj().T @ bundle.V + w_mat @ w_mat - np.eye(d)
    residuals["isometry_residual"] = float(np.linalg.norm(joint, 2))
    residuals["sw_residual"] = float(np.linalg.norm(bundle.s_full() @ w_mat - w_mat @ mat, 2))
    return residuals


def verify_relation_DCW(
    alpha: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    C: np.ndarray,
    W: np.ndarray,
    probe_vectors: Sequence[np.ndarray],
) -> dict:
    """Residual of the defect relation ||Dx||^2 = ||Cx||^2 + alpha(1)||Wx||^2
    over the probe set, normalized by ||x||^2."""
    d_op, _, _ = build_defect(alpha, T)
    w_mat = np.asarray(W, dtype=np.complex128)
    c_mat = np.atleast_2d(np.asarray(C, dtype=np.complex128))
    a1 = alpha_at_one(alpha)
    worst = 0.0
    for x in probe_vectors:
        x = np.asarray(x, dtype=np.complex128)
        nx2 = float(np.vdot(x, x).real)
        dx = float(np.vdot(d_op.entries @ x, d_op.entries @ x).real)
        cx = float(np.vdot(c_mat @ x, c_mat @ x).real)
        wx = float(np.vdot(w_mat @ x, w_mat @ x).real)
        worst = max(worst, abs(dx - cx - a1.value * wx) / max(nx2, 1e-300))
    return {"residual": worst, "alpha_at_one": a1.value, "alpha_one_certified": a1.certified}


def build_model(
    alpha: TruncatedSeries,
    k: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    M: Optional[int] = None,
    model_tol: float = 1e-8,
) -> ModelBundle:
    """Full pipeline: defect, transform, complement, isometry, diagnostics.

    Raises ModelInvalidError, NotPSDError, TailUncertifiableError or
    ConvergenceNotCertifiedError when the operator is not modelable at the
    requested tolerances."""
    d_op, basis, hered = build_defect(alpha, T)
    c_mat = basis.conj().T @ d_op.entries  # (r, d)
    if basis.shape[1] == 0:
        c_mat = np.zeros((0, T.dim), dtype=np.complex128)
        V = np.zeros((0, T.dim), dtype=np.complex128)
        m_used, tail = 0, 0.0
    else:
        V, m_used, tail = build_transform(c_mat, k, T, M=M, tol=model_tol)
    w_op, w_basis, s_hat, s_info = build_W_S(V, T, tol=model_tol)
    kind = pair_type_estimate(alpha, k).type
    bundle = ModelBundle(
        D=d_op,
        defect_basis=basis,
        C=c_mat,
        V=V,
        W=w_op,
        w_basis=w_basis,
        S=s_hat,
        k=k,
        M=m_used,
        kind=kind,
        diagnostics={},
    )
    diagnostics = verify_model(T, bundle)
    diagnostics.update(s_info)
    diagnostics["truncation_tail_bound"] = tail
    diagnostics["policy"] = type(hered.policy_used).__name__
    diagnostics["type"] = kind
    return replace(bundle, diagnostics=diagnostics)


def bundle_direct_sum(
    b1: ModelBundle, b2: ModelBundle, T1, T2
) -> tuple[ModelBundle, DenseOperator]:
    """Combine the models of two summands into the model of the direct sum.

    Block rows of the transforms are padded with zeros up to the common
    degree cap (exactly right for nilpotent summands, whose higher blocks
    vanish identically).  Returns the combined bundle and the direct-sum
    operator; diagnostics are re-measured on the composite."""
    if b1.k is not b2.k and not np.array_equal(b1.k.coeffs, b2.k.coeffs):
        raise ValueError("summands must share the same kernel")
    t_sum = direct_sum(T1, T2)
    d1, d2 = T1.dim, T2.dim
    r1, r2 = b1.defect_rank, b2.defect_rank
    m = max(b1.M, b2.M)
    r = r1 + r2
    V = np.zeros(((m + 1) * r, d1 + d2), dtype=np.complex128)
    for n in range(m + 1):
        if n <= b1.M and r1:
            V[n * r : n * r + r1, :d1] = b1.V[n * r1 : (n + 1) * r1]
        if n <= b2.M and r2:
            V[n * r + r1 : (n + 1) * r, d1:] = b2.V[n * r2 : (n + 1) * r2]
    basis = np.zeros((d1 + d2, r), dtype=np.complex128)
    basis[:d1, :r1] = b1.defect_basis
    basis[d1:, r1:] = b2.defect_basis
    w_basis = np.zeros((d1 + d2, b1.w_rank + b2.w_rank), dtype=np.complex128)
    w_basis[:d1, : b1.w_rank] = b1.w_basis
    w_basis[d1:, b1.w_rank :] = b2.w_basis
    s = np.zeros((b1.w_rank + b2.w_rank,) * 2, dtype=np.complex128)
    s[: b1.w_rank, : b1.w_rank] = b1.S
    s[b1.w_rank :, b1.w_rank :] = b2.S
    c_mat = np.zeros((r, d1 + d2), dtype=np.complex128)
    c_mat[:r1, :d1] = b1.C
    c_mat[r1:, d1:] = b2.C
    bundle = ModelBundle(
        D=direct_sum(b1.D, b2.D),
        defect_basis=basis,
        C=c_mat,
        V=V,
        W=direct_sum(b1.W, b2.W),
        w_basis=w_basis,
        S=s,
        k=b1.k,
        M=m,
        kind=b1.kind,
        diagnostics={},
    )
    diagnostics = verify_model(t_sum, bundle)
    tails = (b1.diagnostics.get("truncation_tail_bound"), b2.diagnostics.get("truncation_tail_bound"))
    diagnostics["truncation_tail_bound"] = (
        None if any(t is None for t in tails) else max(tails)
    )
    diagnostics["contraction_excess"] = max(0.0, _norm2(V) - 1.0)
    diagnostics["type"] = b1.kind
    return replace(bundle, diagnostics=diagnostics), t_sum


def minimality_check(bundle: ModelBundle) -> dict:
    """Numerical-rank check that the auxiliary spaces are not padded:
    ran C must fill the defect basis and ran W the W-basis."""
    c_sv = np.linalg.svd(bundle.C, compute_uv=False) if bundle.C.size else np.array([])
    w_sv = np.linalg.svd(bundle.W.entries, compute_uv=False)
    c_scale = float(c_sv[0]) if c_sv.size else 0.0
    w_scale = float(w_sv[0]) if w_sv.size else 0.0
    c_rank = int(np.sum(c_sv > _RANK_TOL * max(c_scale, 1e-300)))
    w_rank = int(np.sum(w_sv > _RANK_TOL * max(w_scale, 1e-300))) if w_scale > _RANK_TOL else 0
    ok = c_rank == bundle.defect_rank and w_rank == bundle.w_rank
    return {
        "defect_rank": bundle.defect_rank,
        "C_rank": c_rank,
        "w_rank": bundle.w_rank,
        "W_rank": w_rank,
        "minimal": ok,
    }
