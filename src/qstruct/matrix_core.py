"""Shared numerical kernel for the operator-valued structures.

Every spectral quantity in the package funnels through numpy's Hermitian
eigendecomposition; pseudo-inverses, operator norms, range projectors and
PSD tests are all phrased in terms of it so that tolerance behaviour is
uniform and reruns are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

Array = np.ndarray


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
    return (a + a.conj().T) / 2.0


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


def op_norm(a: Array) -> float:
    """Spectral norm of one matrix: the one-matrix case of ``op_norms``."""
    return float(op_norms(np.asarray(a)[None])[0])


def is_hermitian(a: Array, tol: Tolerance) -> bool:
    return op_norm(a - a.conj().T) <= tol.eps


def is_orthoprojection(a: Array, tol: Tolerance) -> bool:
    a = as_complex(a)
    return is_hermitian(a, tol) and op_norm(a @ a - a) <= tol.eps


def operator_order(a: Array, b: Array, tol: Tolerance) -> bool:
    """a <= b in the PSD ordering, up to eps."""
    w, _ = eig_herm(as_complex(b) - as_complex(a))
    return float(w[0]) >= -tol.eps


def rank_decomposition(g: Array, tol: Tolerance) -> tuple[int, Array]:
    """Factor a PSD matrix as g = v v*; columns of v span its range.

    Eigenvalues below rank_rel * lambda_max count as zero. A genuinely
    negative spectrum is a domain error, not something to clip silently.
    """
    g = as_complex(g)
    w, u = eig_herm(g)
    lo, hi = float(w[0]), float(w[-1])
    if lo < -tol.eps * max(1.0, hi):
        raise DomainError("matrix is not positive semidefinite", min_eigenvalue=lo)
    cut = tol.rank_rel * max(hi, 0.0)
    keep = np.flatnonzero(w > cut)
    v = u[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None))
    return int(keep.size), v


def pseudo_inverse(a: Array, tol: Tolerance) -> Array:
    """Moore-Penrose inverse built from the eigendecomposition of a*a."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return a.conj().T
    w, u = np.linalg.eigh(a.conj().T @ a)
    hi = float(w[-1]) if w.size else 0.0
    cut = tol.rank_rel * max(hi, 0.0)
    inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return (u * inv) @ u.conj().T @ a.conj().T


def range_projector(a: Array, tol: Tolerance) -> Array:
    """Orthogonal projection onto the column span of a."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=np.complex128)
    w, u = np.linalg.eigh(a @ a.conj().T)
    hi = float(w[-1]) if w.size else 0.0
    keep = np.flatnonzero(w > tol.rank_rel * max(hi, 0.0))
    v = u[:, keep]
    return v @ v.conj().T


def range_meet(p: Array, q: Array, tol: Tolerance) -> Array:
    """Projector onto range(p) & range(q), as the null space of (1-p)+(1-q)."""
    p, q = as_complex(p), as_complex(q)
    eye = np.eye(p.shape[0], dtype=np.complex128)
    w, u = eig_herm((eye - p) + (eye - q))
    keep = np.flatnonzero(w <= tol.eps)
    v = u[:, keep]
    return v @ v.conj().T


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
