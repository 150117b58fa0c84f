"""Explicit model construction for operators satisfying a hereditary
inequality: defect operator and defect basis, degree-truncated transform into
the weighted shift space, complement W with the induced isometry S, and the
residual diagnostics that certify (or refute) the model identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .operators import (
    DenseOperator,
    HereditaryResult,
    ShiftSection,
    SparseMatrix,
    _LazyMatrix,
    _block_diag,
    _clipped_roots,
    _eigen_sqrt,
    _symmetrize,
    direct_sum,
    hereditary_apply,
    operator_norm,
    tail_certificate,
)
from .series import NumericalFailure, TruncatedSeries, alpha_at_one, pair_type_estimate

__all__ = [
    "ModelBundle",
    "ModelInvalidError",
    "Transform",
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


def _gram_norm(chunks: Iterable, n: int) -> float:
    """Spectral norm of the matrix stacked from row chunks n wide, from the
    largest eigenvalue of its Gram, which is cheaper than an SVD.  A chunk
    is a matrix, or a pair (b, G): b times rows whose Gram G is formed.  The
    Gram is summed under a running scale s that bounds every entry (a
    matrix's max|x_ij|, a pair's b times its largest column norm), a chunk
    entering as chunk / s, a pair as (b / s)^2 G, and the sum rescaled by
    (s_old / s_new)^2 when s grows (the sum-of-squares scaling of LAPACK's
    xLASSQ), so that tiny residuals do not underflow and large ones do not
    overflow.  Chunks and Grams are scaled in place."""
    s, g = 0.0, np.zeros((n, n), dtype=np.complex128)
    for chunk in chunks:
        pair = isinstance(chunk, tuple)
        b, x = chunk if pair else (1.0, chunk)
        top = b * math.sqrt(float(np.max(x.diagonal().real))) if pair else float(np.max(np.abs(x), initial=0.0))
        if top == 0.0:
            continue
        if top > s:
            g *= (s / top) ** 2
            s = top
        if pair:  # b / s twice: its square overflows for column norms below 1e-154
            x *= b / s
            x *= b / s
        else:
            x /= s
            x = x.conj().T @ x
        g += x
    if s == 0.0:
        return 0.0
    return s * math.sqrt(max(float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1]), 0.0))


class ModelInvalidError(NumericalFailure):
    """A model identity fails at the requested tolerance."""


class TailUncertifiableError(NumericalFailure):
    """No degree cap certifies the transform's tail."""


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything the explicit model produces, plus residual diagnostics.

    V is the ((M+1)*r, d) matrix whose degree-n block row is
    sqrt(k_n) * C * T^n, i.e. the Euclidean coordinates of the transform into
    the weighted power-series space tensored with the defect space.  The
    dense pipeline holds it as a Transform, which forms the blocks one at a
    time and the tall matrix only when it is read.  A section's model holds
    its matrices as SparseMatrix triplets.  gram = V*V is formed once, where
    V is built; verify_model and bundle_direct_sum only read it."""

    D: Union[DenseOperator, SparseMatrix]
    defect_basis: Union[np.ndarray, SparseMatrix]  # (d, r) orthonormal columns spanning ran D
    C: Union[np.ndarray, SparseMatrix]  # (r, d): D expressed against the defect basis
    V: Union["Transform", np.ndarray, SparseMatrix]  # ((M+1)*r, d)
    gram: Union[np.ndarray, SparseMatrix]  # (d, d): V*V
    W: Union[DenseOperator, SparseMatrix]
    w_basis: Union[np.ndarray, SparseMatrix]  # (d, w) orthonormal columns spanning ran W
    S: Union[np.ndarray, SparseMatrix]  # (w, w) isometry in w_basis coordinates
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


def build_defect(
    alpha: TruncatedSeries, T: Union[DenseOperator, ShiftSection]
) -> tuple[Union[DenseOperator, SparseMatrix], Union[np.ndarray, SparseMatrix], HereditaryResult]:
    """Defect operator D = alpha(T*, T)^(1/2) and an orthonormal basis of its
    range (eigenvectors of D with eigenvalue above _RANK_TOL * ||D||).
    Eigenvalues of the hereditary sum within _PSD_TOL times its summed
    terms count as zero, so a sum that cancels to zero is PSD.

    On a section the sum is the diagonal h_j = (alpha * kappa)_j / kappa_j,
    so D = diag(sqrt h) and the basis is the kept unit vectors (SparseMatrix
    triplets), in eigh's ascending order of h (ties by index), no eigensolve."""
    hered = hereditary_apply(alpha, T, tol=_PSD_TOL)
    floor, what = _PSD_TOL * hered.terms, "hereditary value has eigenvalue"
    if isinstance(T, ShiftSection):
        h = hered.value.vals
        roots = _clipped_roots(h, floor, what)
        order = np.argsort(h, kind="stable")
        kept = order[roots[order] > _RANK_TOL * max(float(np.max(roots)), 1e-300)]
        basis = SparseMatrix(kept, np.arange(kept.size), np.ones(kept.size), (T.dim, kept.size))
        return SparseMatrix.diagonal(roots), basis, hered
    eig, vec = np.linalg.eigh(hered.value.entries)
    d_op, roots = _eigen_sqrt(eig, vec, floor, what)
    keep = roots > _RANK_TOL * max(float(np.max(roots)), 1e-300)
    basis = np.array(vec[:, keep])
    # canonical phases: the largest entry of each basis column is made real
    # and positive, so repeated runs and identity checks are deterministic
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    basis *= [np.conj(x) / abs(x) if abs(x) > 0 else 1.0 for x in lead]  # an array division rounds otherwise
    return d_op, basis, hered


def _degree_cap(
    c_norm: float,
    k: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    M: Optional[int],
    tol: float,
) -> tuple[int, Optional[float]]:
    """Degree cap and tail bound of the transform of C, ||C|| <= c_norm.

    Policy, from one walk of T's powers: the nilpotency index minus one
    when a power among the first d (min(M + 1, d) for an explicit M) is
    dust, 1e-12 relative to the largest seen.  The rule serves every
    operator: true sections (tail exactly 0), their unitary conjugates, and
    dense contractions alike, such as every seeded build of the dense-ops
    benchmark.  Else the caller's explicit M (tail None); else the first
    M in m0..N-1 that tail_certificate certifies to tol / 10, m0 the first
    Frobenius-contractive power within 512 and N the kernel window's end.
    Each refusal carries the numbers behind it as witness."""
    if M is not None and M < 0:
        raise ValueError(f"degree cap M must be non-negative, got {M}")
    d, n_max = T.dim, k.trunc_len - 1
    fro, peak, m0, walk = [1.0], 1.0, None, T.powers()
    for n, (norm, _) in enumerate(islice(walk, d if M is None else min(M + 1, d)), 1):
        fro.append(norm)
        peak = max(peak, norm)
        m0 = n if m0 is None and norm < 1.0 else m0
        if norm <= 1e-12 * peak:
            window = float(np.sum(k.coeffs[: min(n + 1, k.trunc_len)]))
            M, tail_bound = (n - 1, (c_norm * norm) ** 2 * window) if M is None else (M, 0.0)
            break
    else:
        tail_bound = None
    if M is None:
        for norm, _ in islice(walk, 0 if m0 else max(512 - d, 0)):
            fro.append(norm)
            if norm < 1.0:
                m0 = len(fro) - 1
                break
        if m0 is None or m0 > 512:
            witness = {"powers_walked": 512, "smallest_norm": min(fro[1:513])}
            raise TailUncertifiableError("no contractive power found within 512 steps", witness)
        M, tail_bound, q = tail_certificate(k, k.coeffs, fro[: m0 + 1], tol / 10.0, m0, n_max - 1, c_norm**2)
        if tail_bound is None:
            raise TailUncertifiableError(
                "kernel growth past the window is uncertified for this generator", {"q": q}
            )
        if M is None:
            witness = {"window_end": n_max, "smallest_bound": tail_bound, "tol": tol / 10.0}
            raise TailUncertifiableError("degree tail bound never met inside the kernel window", witness)
    if M + 1 > k.trunc_len:
        raise ValueError(f"kernel window too short for degree cap M={M}")
    if np.any(k.coeffs[: M + 1] <= 0.0):
        raise ValueError(f"kernel coefficients up to the degree cap M={M} must be positive")
    return M, tail_bound


@dataclass(frozen=True, eq=False)
class Transform(_LazyMatrix):
    """The transform V held as C (r, d), T's matrix and k_0..k_M: blocks()
    forms its degree blocks sqrt(k_n) C T^n one at a time by the chain
    C T^n = (C T^(n-1)) T, and the tall ((M+1)*r, d) matrix is built from
    them on first read."""

    C: np.ndarray
    mat: np.ndarray
    kc: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.kc.size * self.C.shape[0], self.C.shape[1]

    def blocks(self) -> Iterator[np.ndarray]:
        root_k, block = np.sqrt(self.kc), self.C
        for n in range(self.kc.size):
            block = block @ self.mat if n else block
            yield root_k[n] * block

    @cached_property
    def entries(self) -> np.ndarray:
        m, r = np.empty(self.shape, dtype=np.complex128), self.C.shape[0]
        for n, block in enumerate(self.blocks()):
            m[n * r : (n + 1) * r] = block
        m.setflags(write=False)
        return m


def _sums(V: Transform, kc: np.ndarray, mat: np.ndarray) -> tuple[np.ndarray, float]:
    """V*V and the intertwining residual ||shifted - V T||, from the one pass
    over V's degree blocks V_0..V_M.  The truncated model shift moves
    V_(n+1), times coup_n = sqrt(k_n / k_(n+1)), to block n and leaves block
    M zero, so the residual's chunk n is coup_n V_(n+1) - V_n T; its norm is
    _gram_norm's.  V_n is sqrt(k_n) raw_n, raw_(n+1) = raw_n T, so chunk
    n < M is c_n raw_(n+1), whose Gram is c_n^2 / k_(n+1) times V*V's term
    n + 1 (c_n = coup_n sqrt(k_(n+1)) - sqrt(k_n), a rounding of zero
    unless the couplings or k are off); only chunk M = -V_M T takes a
    product and a Gram of its own, two per degree in all.  At r = d, V*V's
    terms are the d-row chunks of the tall V's products, with their bits."""
    gram = np.zeros((mat.shape[0], mat.shape[0]), dtype=np.complex128)
    return gram, _gram_norm(_residual_chunks(V, kc, mat, gram), mat.shape[0])  # fills gram


def _residual_chunks(V: Transform, kc: np.ndarray, mat: np.ndarray, gram: np.ndarray) -> Iterator:
    """_sums' chunks for _gram_norm; V*V's terms are added into gram."""
    coup, root_k = np.sqrt(kc[:-1] / kc[1:]), np.sqrt(V.kc)
    small = np.abs(np.r_[0.0, coup * root_k[1:] - root_k[:-1]]) / root_k  # |c_(n-1)| / sqrt(k_n), none at 0
    for n, block in enumerate(V.blocks()):
        term = block.conj().T @ block
        gram += term
        yield small[n], term
    yield block @ mat  # chunk M but for its sign, which its Gram does not see


def build_transform(
    C: np.ndarray,
    k: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    M: Optional[int] = None,
    tol: float = 1e-10,
) -> tuple[Transform, int, Optional[float]]:
    """Degree-truncated transform: block row n is sqrt(k_n) * C * T^n.
    Returns (V, M, tail_bound), V a Transform that forms no block yet, M
    and the tail by _degree_cap's policy.

    The tail bounds take ||C||^2 as the largest absolute row sum of C C*,
    an upper bound for any C.  For build_model's C = diag(kept roots of D)
    basis*, C C* is diagonal, so this reads ||D||^2 without a
    factorisation."""
    mat = T.operator().entries
    cmat = np.atleast_2d(np.asarray(C, dtype=np.complex128))
    d = mat.shape[0]
    if cmat.shape[1] != d:
        raise ValueError("C must map the operator space into the auxiliary space")
    c_norm = math.sqrt(float(np.max(np.sum(np.abs(cmat @ cmat.conj().T), axis=1), initial=0.0)))
    M, tail_bound = _degree_cap(c_norm, k, T, M, tol)
    return Transform(np.ascontiguousarray(cmat), mat, k.coeffs[: M + 1]), M, tail_bound


def _refuse_long_transform(norm_v: float, tol: float) -> None:
    if norm_v > 1.0 + tol:
        raise ModelInvalidError(f"transform norm {norm_v:.12f} exceeds 1 + tol")


def _refuse_ill_defined(wd_residual: float, tol: float) -> None:
    if wd_residual > tol:
        raise ModelInvalidError(
            "S is not well defined at this tolerance: ||Wx|| != ||WTx||",
            {"well_definedness_residual": wd_residual},
        )


def build_W_S(
    gram: np.ndarray,
    T: Union[DenseOperator, ShiftSection],
    tol: float = 1e-8,
) -> tuple[DenseOperator, np.ndarray, np.ndarray, dict, np.ndarray]:
    """Complement W = (I - V*V)^(1/2) from gram = V*V (as _sums forms it),
    its range basis, the isometry S defined on that range by S(Wx) = WTx,
    and V*V made Hermitian, which the model bundle carries.

    One eigensolve of I - V*V gives ||V|| (from its smallest eigenvalue),
    the root W and W's range basis.  The defining relation is solved in least squares over the standard basis
    and then polar-corrected to an exact isometry (any isometric completion
    on the orthogonal complement is admissible; the pre-correction residual
    is reported).  The info dict carries contraction_excess = max(0, ||V|| - 1)
    from the norm checked here.  Raises when the well-definedness residual
    exceeds tol."""
    mat = T.operator().entries
    d = mat.shape[0]
    eig, vec = np.linalg.eigh(np.eye(d) - gram)  # reads the lower triangle
    norm_v = math.sqrt(max(1.0 - float(eig[0]), 0.0))
    _refuse_long_transform(norm_v, tol)
    # eigh read the lower triangle only: refuse a V*V whose triangles differ
    # by more than rounding
    gram = _symmetrize(gram, 1.0, 1e-10)
    w_op, roots = _eigen_sqrt(eig, vec, max(tol * 1e-2, 1e-12), "most negative eigenvalue")
    basis = vec[:, roots > _RANK_TOL]
    w_mat = w_op.entries
    w = int(basis.shape[1])

    wt = w_mat @ mat
    wd_residual = float(
        np.max(np.abs(np.linalg.norm(w_mat, axis=0) - np.linalg.norm(wt, axis=0)))
    )
    _refuse_ill_defined(wd_residual, tol)
    info = {
        "S_welldef_residual": wd_residual,
        "polar_correction": 0.0,
        "contraction_excess": max(0.0, norm_v - 1.0),
    }
    if w == 0:
        return w_op, basis, np.zeros((0, 0), dtype=np.complex128), info, gram
    lhs = basis.conj().T @ w_mat  # (w, d): coordinates of W e_j
    rhs = basis.conj().T @ wt
    s_ls = rhs @ np.linalg.pinv(lhs, rcond=1e-12)
    u, _, vh = np.linalg.svd(s_ls)
    s_hat = u @ vh  # isometric (here unitary) completion on the W range
    polar_shift = float(np.linalg.norm(s_hat - s_ls, 2))
    iso_residual = float(np.linalg.norm(s_hat.conj().T @ s_hat - np.eye(w), 2))
    info["S_welldef_residual"] = max(wd_residual, iso_residual)
    info["polar_correction"] = polar_shift
    return w_op, basis, s_hat, info, gram


def verify_model(T: Union[DenseOperator, ShiftSection], bundle: ModelBundle) -> dict:
    """Pure residual measurement of two model identities: joint isometry of
    (V, W), read from the bundle's V*V, and S W = W T.  Nothing as tall as
    V is read; the intertwining residual is measured where V is built, by
    the pass that forms V*V."""
    mat = T.operator().entries
    d = mat.shape[0]
    w_mat = bundle.W.entries
    joint = w_mat @ w_mat
    joint += bundle.gram
    joint.flat[:: d + 1] -= 1.0
    joint += joint.conj().T
    joint *= 0.5
    sw = bundle.w_basis @ bundle.S @ bundle.w_basis.conj().T @ w_mat  # S on the ambient space
    sw -= w_mat @ mat
    return {
        "isometry_residual": float(np.max(np.abs(np.linalg.eigvalsh(joint)))),
        "sw_residual": float(np.linalg.norm(sw, 2)),
    }


def verify_relation_DCW(
    alpha: TruncatedSeries,
    T: Union[DenseOperator, ShiftSection],
    C: np.ndarray,
    W: np.ndarray,
    probe_vectors: Sequence[np.ndarray],
) -> dict:
    """Residual of the defect relation ||Dx||^2 = ||Cx||^2 + alpha(1)||Wx||^2
    over the probe set, normalized by ||x||^2.  D, C and W each take all
    probes in one product, so each matrix is read once; a SparseMatrix sums
    its triplets' products by row, which gives the dense product's bits when
    its values are real and no two triplets share a row."""
    d_op, _, _ = build_defect(alpha, T)
    probes = np.array(probe_vectors, dtype=np.complex128).reshape(len(probe_vectors), T.dim).T

    def norms2(y: np.ndarray) -> np.ndarray:  # squared norms of the columns
        return np.sum(y.real**2 + y.imag**2, axis=0)

    def times(m) -> np.ndarray:  # m @ probes, for an operator or a matrix
        if not isinstance(m, SparseMatrix):
            return np.atleast_2d(np.asarray(getattr(m, "entries", m), dtype=np.complex128)) @ probes
        y = np.zeros((m.shape[0], probes.shape[1]), dtype=np.complex128)
        at = m.rows[:, None] * probes.shape[1] + np.arange(probes.shape[1])  # flat: add.at's fast 1-d form
        np.add.at(y.reshape(-1), at.ravel(), (m.vals[:, None] * probes[m.cols]).ravel())
        return y

    dx, cx, wx = (norms2(times(m)) for m in (d_op, C, W))
    a1 = alpha_at_one(alpha)
    worst = 0.0
    for dxi, cxi, wxi, nxi in zip(dx.tolist(), cx.tolist(), wx.tolist(), norms2(probes).tolist()):
        w_term = a1.value * wxi if wxi else 0.0  # W x = 0 drops out even when alpha(1) = inf
        worst = max(worst, abs(dxi - cxi - w_term) / max(nxi, 1e-300))
    return {"residual": worst, "alpha_at_one": a1.value, "alpha_one_certified": a1.certified}


def _section_model(
    d_op: SparseMatrix, basis: SparseMatrix, k: TruncatedSeries, T: ShiftSection, M: Optional[int], tol: float
) -> tuple:
    """build_model's transform, complement, isometry and residuals on a
    section, as (C, V, V*V, W, w_basis, S, M, residuals) from vectors in O(d M)
    work and memory.  Row i of T has its one entry t_i at column i + 1, and
    D and the basis are diagonal and unit vectors (build_defect), so:

    - row (n, i) of V is sqrt(k_n) D_b t_b t_{b+1} ... t_{b+n-1}, at
      column b + n, for the i-th kept unit vector e_b;
    - V*V is diagonal, and W = diag(sqrt(1 - diag V*V));
    - S maps W e_j to W T e_j = w_{j-1} t_{j-1} e_{j-1}: a partial
      weighted shift on W's range, whose polar factor is a partial
      permutation.

    Every residual is measured on these pieces in verify_model's norms, and
    the refusals come in build_W_S's order.  The fields are SparseMatrix
    triplets in eigh's order, as the dense pipeline orders them.  Where S
    needs a completion, any isometric one is admissible, and sw_residual
    depends on the one taken (the dense pipeline's SVD may take another)."""
    d = T.dim
    t = np.append(T.couplings, 0.0)
    roots, b = d_op.vals, basis.rows  # D's diagonal and the kept unit vectors
    r = b.size
    m_used, tail, kc = 0, 0.0, np.ones(1)  # with D = 0, k is not read, as in the dense pipeline
    if r:
        # C C* = diag(roots[b]^2), so build_transform's bound is ||D||^2
        m_used, tail = _degree_cap(math.sqrt(float(np.max(roots[b] ** 2))), k, T, M, tol)
        kc = k.coeffs[: m_used + 1]
    # row (n, i) of V sits at column b_i + n; past the edge the running
    # product has met t's 0 and stays 0.  cumprod multiplies in the order
    # that C T^n does, so the entries carry the dense pipeline's bits
    cols = b + np.arange(m_used + 1)[:, None]
    factors = np.empty(cols.shape)
    factors[0] = roots[b]
    factors[1:] = t[np.minimum(cols[:-1], d - 1)]
    vals = np.sqrt(kc)[:, None] * np.cumprod(factors, axis=0)
    cols = np.minimum(cols, d - 1)
    gram = np.bincount(cols.ravel(), weights=(vals * vals).ravel(), minlength=d)  # diag V*V

    # complement: V*V is real and diagonal, so build_W_S's symmetry check
    # holds exactly and I - V*V has the spectrum 1 - gram
    one_minus = 1.0 - gram
    norm_v = math.sqrt(max(1.0 - float(np.min(one_minus)), 0.0))
    _refuse_long_transform(norm_v, tol)
    w = _clipped_roots(one_minus, max(tol * 1e-2, 1e-12), "most negative eigenvalue")
    order = np.argsort(one_minus, kind="stable")
    p = order[w[order] > _RANK_TOL]  # W's range, in eigh's order
    wt = np.roll(w * t, 1)  # ||W T e_j||; the wrapped entry is t's 0 at the edge
    wd_residual = float(np.max(np.abs(w - wt)))
    _refuse_ill_defined(wd_residual, tol)

    # S in p's coordinates: column a maps to the position of p_a - 1 when
    # W T e_{p_a} is non-zero and p_a - 1 is kept, and the columns and rows
    # left over pair up in order (an isometric completion).  Least squares
    # puts ratio_a = ||W T e_{p_a}|| / ||W e_{p_a}|| (or 0) where S puts 1
    nw = p.size
    at = np.full(d, -1)
    at[p] = np.arange(nw)
    dst = at[(p - 1) % d]
    shifts = (wt[p] > 0.0) & (dst >= 0)
    ratio = np.where(shifts, wt[p] / w[p], 0.0)
    row_of = np.where(shifts, dst, 0)
    row_of[~shifts] = np.flatnonzero(np.bincount(dst[shifts], minlength=nw) == 0)

    # residuals.  Row (n, i) of shifted - V T has its one entry at column
    # b + n + 1, so its Gram is diagonal too: the norm is the root of the
    # largest column sum of squares, summed under the scale max|entry|
    resid = -vals * t[cols]
    resid[:-1] += np.sqrt(kc[:-1] / kc[1:])[:, None] * vals[1:]
    top = float(np.max(np.abs(resid), initial=0.0))
    intertwine = 0.0
    if top > 0.0:
        sums = np.bincount(((cols + 1) % d).ravel(), weights=((resid / top) ** 2).ravel())
        intertwine = top * math.sqrt(float(np.max(sums)))
    # S W - W T from triplets, those at one position summed in turn
    every = np.arange(d)
    pos = np.concatenate([p[row_of] * d + p, (every - 1) % d * d + every])
    pos, where = np.unique(pos, return_inverse=True)
    sw = np.bincount(where.ravel(), weights=np.concatenate([w[p], -wt]), minlength=pos.size)
    diagnostics = {
        "intertwine_residual": intertwine,
        "isometry_residual": float(np.max(np.abs(w * w + gram - 1.0))),
        "sw_residual": operator_norm(SparseMatrix(*np.divmod(pos, d), sw, (d, d))),
        "S_welldef_residual": wd_residual,  # a partial permutation is an exact isometry
        "polar_correction": float(np.max(np.abs(1.0 - ratio), initial=0.0)),  # ||S - S_ls||
        "contraction_excess": max(0.0, norm_v - 1.0),
        "truncation_tail_bound": tail,
    }
    return (
        SparseMatrix(np.arange(r), b, roots[b], (r, d)),
        SparseMatrix(np.arange(vals.size), cols.ravel(), vals.ravel(), (vals.size, d)),
        SparseMatrix.diagonal(gram),
        SparseMatrix.diagonal(w),
        SparseMatrix(p, np.arange(nw), np.ones(nw), (d, nw)),
        SparseMatrix(row_of, np.arange(nw), np.ones(nw), (nw, nw)),
        m_used,
        diagnostics,
    )


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
    requested tolerances.  A ShiftSection is built in closed form by
    _section_model; any other operator by the dense pipeline below."""
    d_op, basis, hered = build_defect(alpha, T)
    kind = pair_type_estimate(alpha, k).type
    section = isinstance(T, ShiftSection)
    if section:
        c_mat, V, gram, w_op, w_basis, s_hat, m_used, diagnostics = _section_model(d_op, basis, k, T, M, model_tol)
    else:
        c_mat = basis.conj().T @ d_op.entries  # (r, d)
        V, m_used, tail = np.zeros((0, T.dim), dtype=np.complex128), 0, 0.0
        gram, intertwine = np.zeros((T.dim, T.dim), dtype=np.complex128), 0.0  # D = 0: V has no rows
        if basis.shape[1]:
            V, m_used, tail = build_transform(c_mat, k, T, M=M, tol=model_tol)
            gram, intertwine = _sums(V, k.coeffs[: m_used + 1], T.operator().entries)
        w_op, w_basis, s_hat, s_info, gram = build_W_S(gram, T, tol=model_tol)
    bundle = ModelBundle(
        D=d_op,
        defect_basis=basis,
        C=c_mat,
        V=V,
        gram=gram,
        W=w_op,
        w_basis=w_basis,
        S=s_hat,
        k=k,
        M=m_used,
        kind=kind,
        diagnostics={},
    )
    if not section:
        diagnostics = {"intertwine_residual": intertwine, **verify_model(T, bundle), **s_info}
        diagnostics["truncation_tail_bound"] = tail
    diagnostics["policy"] = type(hered.policy_used).__name__
    diagnostics["type"] = kind
    return replace(bundle, diagnostics=diagnostics)


def bundle_direct_sum(
    b1: ModelBundle, b2: ModelBundle, T1, T2
) -> tuple[ModelBundle, DenseOperator]:
    """Combine the models of two summands into the model of the direct sum,
    returned with the direct-sum operator.  Block rows of the transforms are
    padded with zeros up to the common degree cap (exact for a nilpotent
    summand), so V*V is block diagonal and the intertwining chunks are the
    summands' own: V*V and the residual are the summands' (block_diag(G1,
    G2) and the larger residual) and ||V|| comes from that V*V.  No pass
    over V runs; only the isometry and S residuals are measured on the
    composite."""
    if b1.k is not b2.k and not np.array_equal(b1.k.coeffs, b2.k.coeffs):
        raise ValueError("summands must share the same kernel")
    t_sum = direct_sum(T1, T2)
    d1, d2 = T1.dim, T2.dim
    r1, r2 = b1.defect_rank, b2.defect_rank
    m = max(b1.M, b2.M)
    V = np.zeros((m + 1, r1 + r2, d1 + d2), dtype=np.complex128)
    V[: b1.M + 1, :r1, :d1] = np.asarray(b1.V).reshape(b1.M + 1, r1, d1)
    V[: b2.M + 1, r1:, d1:] = np.asarray(b2.V).reshape(b2.M + 1, r2, d2)
    bundle = ModelBundle(
        D=direct_sum(b1.D, b2.D),
        defect_basis=_block_diag(b1.defect_basis, b2.defect_basis),
        C=_block_diag(b1.C, b2.C),
        V=V.reshape(-1, d1 + d2),
        gram=_block_diag(b1.gram, b2.gram),
        W=direct_sum(b1.W, b2.W),
        w_basis=_block_diag(b1.w_basis, b2.w_basis),
        S=_block_diag(b1.S, b2.S),
        k=b1.k,
        M=m,
        kind=b1.kind,
        diagnostics={},
    )
    rho = max(b1.diagnostics["intertwine_residual"], b2.diagnostics["intertwine_residual"])
    diagnostics = {"intertwine_residual": rho, **verify_model(t_sum, bundle)}
    tails = (b1.diagnostics.get("truncation_tail_bound"), b2.diagnostics.get("truncation_tail_bound"))
    diagnostics["truncation_tail_bound"] = None if None in tails else max(tails)
    norm_v = math.sqrt(max(float(np.linalg.eigvalsh(bundle.gram)[-1]), 0.0))
    diagnostics["contraction_excess"] = max(0.0, norm_v - 1.0)
    diagnostics["type"] = b1.kind
    return replace(bundle, diagnostics=diagnostics), t_sum


def minimality_check(bundle: ModelBundle) -> dict:
    """Numerical-rank check that the auxiliary spaces are not padded:
    ran C must fill the defect basis and ran W the W-basis."""
    c_sv, w_sv = (m.monomial_abs() if isinstance(m, SparseMatrix) else None for m in (bundle.C, bundle.W))
    if c_sv is None:
        c_sv = np.linalg.svd(bundle.C, compute_uv=False)
    if w_sv is None:
        w_sv = np.abs(np.linalg.eigvalsh(bundle.W.entries))  # W is Hermitian
    c_scale = float(np.max(c_sv, initial=0.0))
    w_scale = float(np.max(w_sv, initial=0.0))
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
