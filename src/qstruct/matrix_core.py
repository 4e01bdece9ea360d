"""Shared numerical kernel for the operator-valued structures.

Every spectral quantity in the package is read off numpy's Hermitian
eigendecomposition: pseudo-inverses, operator norms, range projectors and
PSD tests are all phrased in terms of it, so tolerance behaviour is uniform
and reruns are bitwise reproducible.

Two cuts on a spectrum are tolerance policy, and each is written once, here.
``nonzero_spectrum`` is the rank cut: an eigenvalue counts as nonzero when it
exceeds ``rank_rel`` times the top eigenvalue (floored at 0); ranks
(``spectral_rank``), kept eigenvectors and pseudo-inverses all read it.
``psd_floor`` is the PSD floor: a spectrum counts as positive while its least
eigenvalue is at least ``-eps * max(1, top)``. ``gns`` and ``naimark`` call
both.

Thresholds ``||A|| <= eps`` are screened first. The Frobenius norm F brackets
the spectral norm, ||A|| <= F <= sqrt(k) ||A|| with k = min(rows, cols)
(Golub & Van Loan, Matrix Computations, 2.3), so F alone settles every
matrix outside the band [eps, sqrt(k) eps], with a relative margin that
covers rounding. Only matrices inside the band, or with a non-finite F, pay
for an eigendecomposition; ``op_norms_exceed`` still answers exactly what
``op_norms(a) > eps`` answers, and every norm that is reported comes from
``op_norms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

Array = np.ndarray

# complex entries per stacked temporary of the operator kernels: 1 MB
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Tolerance:
    """eps bounds operator-norm defects; rank_rel separates spectrum from noise."""

    eps: float = 1e-9
    rank_rel: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rank_rel < self.eps < 1.0):
            raise DomainError(
                "tolerances must satisfy 0 < rank_rel < eps < 1",
                eps=self.eps,
                rank_rel=self.rank_rel,
            )

    @classmethod
    def with_eps(cls, eps: float) -> "Tolerance":
        return cls(eps=eps, rank_rel=eps * 0.1)


def as_complex(a) -> Array:
    out = np.asarray(a, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DomainError("expected a square matrix", shape=list(out.shape))
    return out


def herm(a: Array) -> Array:
    """The Hermitian part of a matrix, or of each matrix of a stack."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def eig_herm(a: Array) -> tuple[Array, Array]:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix."""
    return np.linalg.eigh(herm(a))


def op_norms(a: Array) -> Array:
    """Spectral norm of each matrix in an (N, r, c) stack, via the top eigenvalue of a*a."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return np.zeros(a.shape[0])
    w, _ = np.linalg.eigh(a.conj().transpose(0, 2, 1) @ a)
    return np.sqrt(np.maximum(w[:, -1], 0.0))


# relative margin of the Frobenius screen; see _screen for why it is safe
SCREEN_MARGIN = 1e-9
# below this eps, F^2 near eps^2 could be subnormal: everything goes to eigh
SCREEN_FLOOR = 1e-140
# above this side the rounding bound of _screen is not claimed: everything goes to eigh
SCREEN_MAX_SIDE = 256


def _frobenius(a: Array) -> Array:
    """Frobenius norm of each matrix in an (N, r, c) stack: one sum of squares each."""
    n, r, c = a.shape
    x = np.ascontiguousarray(a, dtype=np.complex128).reshape(n, r * c).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _screen(a: Array, eps: float) -> tuple[Array, Array, Array]:
    """Frobenius norms of an (N, r, c) stack, and which matrices they decide.

    Returns (F, over, undecided): ``over`` marks F > sqrt(k) eps (1 + d),
    where the norm surely exceeds eps; ``undecided`` marks the band
    eps (1 - d) < F <= sqrt(k) eps (1 + d) and every F that is not finite,
    so overflow and NaN reach eigh as they do without the screen. The rest,
    F <= eps (1 - d), surely pass.

    Why the margin d = SCREEN_MARGIN is safe, with u = 2^-53: the computed
    F is one sum of squares, off by a relative 2 r c u at most. The computed
    norm is sqrt(lambda_max) of the computed A* A: the product is off by at
    most r u F^2 <= r k u ||A||^2 and the eigensolver by about c u ||A||^2,
    so the norm is off by a relative (r k + c) u at most. For sides up to
    SCREEN_MAX_SIDE all of this stays under 2 dim^2 u, about 1.5e-11, and
    d = 1e-9 clears it sixty times over. So a matrix the screen passes has a
    computed norm below eps, and one it fails a computed norm above eps,
    exactly as ``op_norms`` finds. For larger sides, or for eps below
    SCREEN_FLOOR (where squares go subnormal and lose their relative
    accuracy), nothing is screened.
    """
    n, r, c = a.shape
    fro = _frobenius(a)
    if not (eps >= SCREEN_FLOOR and max(r, c) <= SCREEN_MAX_SIDE):
        return fro, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    over = np.isfinite(fro) & (fro > np.sqrt(min(r, c)) * eps * (1.0 + SCREEN_MARGIN))
    undecided = ~(over | (fro <= eps * (1.0 - SCREEN_MARGIN)))
    return fro, over, undecided


def op_norms_exceed(a: Array, eps: float) -> Array:
    """Exactly ``op_norms(a) > eps`` for an (N, r, c) stack, screened by Frobenius norms.

    Only the matrices the screen cannot decide run ``eigh``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return op_norms(a) > eps
    _, over, undecided = _screen(a, eps)
    idx = np.flatnonzero(undecided)
    if idx.size:
        over[idx] = op_norms(a[idx]) > eps
    return over


# above this Frobenius norm op_norm_bounds claims nothing: a*a stays far from overflow below it
BOUNDS_MAX_NORM = 2.0**500


def op_norm_bounds(a: Array) -> tuple[Array, Array]:
    """Bounds lo <= op_norms(a) <= hi per matrix of an (N, r, c) stack, from Frobenius norms.

    F / sqrt(k) <= ||A|| <= F, with the relative margin of ``_screen`` for
    rounding and SCREEN_FLOOR more for squares gone subnormal. Where F is
    not finite or above BOUNDS_MAX_NORM, or a side is above SCREEN_MAX_SIDE,
    nothing is claimed: lo = 0 and hi = inf.
    """
    a = np.asarray(a, dtype=np.complex128)
    _, r, c = a.shape
    fro = _frobenius(a)
    claim = np.isfinite(fro) & (fro <= BOUNDS_MAX_NORM) & (max(r, c) <= SCREEN_MAX_SIDE)
    fro = np.where(claim, fro, 0.0)
    lo = np.maximum(fro * (1.0 - SCREEN_MARGIN) - SCREEN_FLOOR, 0.0) / np.sqrt(max(min(r, c), 1))
    return lo, np.where(claim, fro * (1.0 + SCREEN_MARGIN) + SCREEN_FLOOR, np.inf)


def screened_op_norms(a: Array, eps: float) -> Array:
    """``op_norms(a)`` wherever it exceeds eps; elsewhere a bound that does not.

    Matrices the Frobenius screen passes get their Frobenius norm, which is
    at most eps (1 - SCREEN_MARGIN); every other matrix gets ``op_norms`` on
    the flagged subset, so ``result > eps`` is exactly ``op_norms(a) > eps``
    and every value above eps carries the bits ``op_norms`` gives it.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return op_norms(a)
    fro, over, undecided = _screen(a, eps)
    idx = np.flatnonzero(over | undecided)
    if idx.size:
        fro[idx] = op_norms(a[idx])
    return fro


def screened_op_norm(a: Array, eps: float) -> float:
    """One matrix's case of ``screened_op_norms``: its norm if above eps, else a bound."""
    return float(screened_op_norms(np.asarray(a)[None], eps)[0])


def projection_defects(a: Array, eps: float) -> tuple[Array, Array, Array]:
    """The matrices of an (N, d, d) stack that are no orthoprojection within eps.

    Returns a mask of them and, per matrix, the hermiticity defect ||A - A*||
    and the idempotence defect ||A A - A||, exact where the mask is set and
    0 elsewhere.
    """
    skew = a - a.conj().transpose(0, 2, 1)
    square = a @ a - a
    bad = op_norms_exceed(skew, eps) | op_norms_exceed(square, eps)
    dh, di = np.zeros(len(a)), np.zeros(len(a))
    dh[bad], di[bad] = op_norms(skew[bad]), op_norms(square[bad])
    return bad, dh, di


def op_norm(a: Array) -> float:
    """Spectral norm of one matrix: the one-matrix case of ``op_norms``."""
    return float(op_norms(np.asarray(a)[None])[0])


def is_hermitian(a: Array, tol: Tolerance) -> bool:
    return screened_op_norm(a - a.conj().T, tol.eps) <= tol.eps


def is_orthoprojection(a: Array, tol: Tolerance) -> bool:
    a = as_complex(a)
    return is_hermitian(a, tol) and screened_op_norm(a @ a - a, tol.eps) <= tol.eps


def operator_order(a: Array, b: Array, tol: Tolerance) -> bool:
    """a <= b in the PSD ordering, up to eps."""
    w, _ = eig_herm(as_complex(b) - as_complex(a))
    return float(w[0]) >= -tol.eps


def _top(w: Array) -> float:
    """The largest eigenvalue of an ascending spectrum, or of a stack of them; 0 when empty."""
    return float(w[..., -1].max()) if w.size else 0.0


def nonzero_spectrum(w: Array, tol: Tolerance) -> Array:
    """Mask of the eigenvalues that count as nonzero: above rank_rel times the top, floored at 0.

    ``w`` is ascending along its last axis; a stack of spectra shares one top.
    """
    return w > tol.rank_rel * max(_top(w), 0.0)


def spectral_rank(w: Array, tol: Tolerance) -> int:
    """How many eigenvalues ``nonzero_spectrum`` counts as nonzero: the rank the spectrum gives."""
    return int(np.count_nonzero(nonzero_spectrum(w, tol)))


def psd_floor(w: Array, tol: Tolerance) -> float:
    """The least eigenvalue a spectrum (or a stack of them) may have and still count as PSD."""
    return -tol.eps * max(1.0, _top(w))


def rank_decomposition(g: Array, tol: Tolerance) -> tuple[int, Array]:
    """Factor a PSD matrix as g = v v*; columns of v span its range.

    Eigenvalues cut by ``nonzero_spectrum`` count as zero. A spectrum below
    ``psd_floor`` is a domain error, not something to clip silently.
    """
    g = as_complex(g)
    w, u = eig_herm(g)
    lo = float(w[0])
    if lo < psd_floor(w, tol):
        raise DomainError("matrix is not positive semidefinite", min_eigenvalue=lo)
    keep = np.flatnonzero(nonzero_spectrum(w, tol))
    v = u[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None))
    return int(keep.size), v


def pseudo_inverse(a: Array, tol: Tolerance) -> Array:
    """Moore-Penrose inverse built from the eigendecomposition of a*a."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return a.conj().T
    w, u = np.linalg.eigh(a.conj().T @ a)
    keep = nonzero_spectrum(w, tol)
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return (u * inv) @ u.conj().T @ a.conj().T


def range_meets(p: Array, q: Array, tol: Tolerance) -> Array:
    """Projectors onto range(p) & range(q) per pair of (N, d, d) stacks: null spaces of (1-p)+(1-q).

    One stacked eigh. The kept eigenvectors are multiplied out in groups of
    equal count, laid out as for a lone pair, so each projector has its bits.
    """
    d = p.shape[-1]
    eye = np.eye(d, dtype=np.complex128)
    w, u = np.linalg.eigh(herm((eye - p) + (eye - q)))
    keep = w <= tol.eps
    counts = keep.sum(axis=1)
    out = np.zeros(u.shape, dtype=np.complex128)
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        idx = np.flatnonzero(counts == k)
        # a lone pair's u[:, keep] is column-major: the kept rows of u^T, transposed
        v = u[idx].transpose(0, 2, 1)[keep[idx]].reshape(len(idx), k, d).transpose(0, 2, 1)
        out[idx] = v @ v.conj().transpose(0, 2, 1)
    return out


def range_meet(p: Array, q: Array, tol: Tolerance) -> Array:
    """Projector onto range(p) & range(q): the one-pair case of ``range_meets``."""
    return range_meets(as_complex(p)[None], as_complex(q)[None], tol)[0]


def range_join(p: Array, q: Array, tol: Tolerance) -> Array:
    p, q = as_complex(p), as_complex(q)
    eye = np.eye(p.shape[0], dtype=np.complex128)
    return eye - range_meet(eye - p, eye - q, tol)


def canonical_phases(u: Array, tol: Tolerance) -> Array:
    """Rotate each column so its largest entry is real positive.

    Eigenbases are only defined up to phase; fixing it makes constructions
    that rerun from the same bytes produce the same bytes. Ties go to the
    lowest row index, which is what argmax already does.
    """
    u = np.array(u, dtype=np.complex128, copy=True)
    for j in range(u.shape[1]):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        mag = abs(col[i])
        if mag <= tol.rank_rel:
            continue
        u[:, j] = col * (col[i].conjugate() / mag)
    return u
