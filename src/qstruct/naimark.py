"""Operator-valued measures on boolean semirings and their projective dilations.

A measure assigns a positive contraction to every semiring element,
additively over summable families, with the unit mapped to the identity.

The dilation factors the block Gram matrix H[(B,s),(C,t)] = m(BC)[s,t]
without forming it. Order the elements by x <= y iff xy = x; when the
product is a semilattice operation, H is a meet matrix on that semilattice
(Lindstrom, *Determinants on semilattices*, Proc. AMS 20, 1969). Mobius
inversion of the effects, g(x) = sum over y <= x of mu(y, x) m(y), gives
H = (Z x 1) diag(g) (Z x 1)* with Z[x, C] = [x <= C]. So H is positive
semidefinite exactly when every g(x) is, its rank is the sum of the ranks
of the g(x), and the quotient of the formal space is the direct sum of the
ranges of the g(x): with g(x) = V_x V_x*, the isometry F stacks the V_x*,
and h(B) is the 0/1 projection onto the blocks x <= B, so that
m(B) = F* h(B) F. On a powerset with an additive measure g vanishes off the
atoms and the blocks are the ranges of the outcome effects. Minimal
dilations are unique up to a unitary that ``unitary_equivalence`` recovers
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boolean_rep import BooleanSemiring
from .errors import DomainError, StructuralError
from .matrix_core import (
    STACK_ENTRIES,
    Array,
    Tolerance,
    as_complex,
    canonical_phases,
    eig_herm,
    herm,
    nonzero_spectrum,
    op_norms,
    op_norms_exceed,
    projection_defects,
    pseudo_inverse,
    psd_floor,
    screened_op_norm,
    screened_op_norms,
    spectral_rank,
)
from .report import VerificationReport, Witnesses, labelled
from .semilogic import additivity_witnesses, family_residual_blocks

# complex entries of the images of a dilation, n * dim_e^2: 64 MB
MAX_DILATION_ENTRIES = 1 << 22


@dataclass
class FinitePovm:
    """Operator measure: one effect per semiring element, on a dim-space."""

    semiring: BooleanSemiring
    effects: list[Array]
    dim: int

    def __post_init__(self):
        self.effects = [as_complex(e) for e in self.effects]
        if len(self.effects) != self.semiring.n:
            raise DomainError(
                "one effect per semiring element required",
                expected=self.semiring.n,
                got=len(self.effects),
            )
        if any(e.shape != (self.dim, self.dim) for e in self.effects):
            raise DomainError("effect dimension mismatch", dim=self.dim)


def povm_from_outcomes(atom_effects: Sequence[Array], dim: int) -> FinitePovm:
    """Outcome effects extended additively over the powerset of outcomes."""
    from .standard import powerset_semiring  # only outcome lists need it

    atoms = [as_complex(e) for e in atom_effects]
    k = len(atoms)
    if k == 0:
        raise DomainError("a measurement needs at least one outcome")
    if any(e.shape != (dim, dim) for e in atoms):
        raise DomainError("effect dimension mismatch", dim=dim)
    semiring = powerset_semiring(k)  # checks the element count before any effect is summed
    zero = np.zeros((dim, dim), dtype=np.complex128)
    effects = [sum((atoms[i] for i in range(k) if mask >> i & 1), zero) for mask in range(1 << k)]
    return FinitePovm(semiring, effects, dim)


def verify_povm(povm: FinitePovm, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="operator-measure")
    bs = povm.semiring
    effects = np.array(povm.effects)
    labels = bs.labels
    eye = np.eye(povm.dim)

    skew = effects - effects.conj().transpose(0, 2, 1)
    w, _ = np.linalg.eigh(herm(effects))
    bad = op_norms_exceed(skew, tol.eps) | (w[:, 0] < -tol.eps) | (w[:, -1] > 1.0 + tol.eps)
    herm_gap = np.zeros(len(effects))
    herm_gap[bad] = op_norms(skew[bad])
    rep.record(
        "effects-are-positive-contractions",
        bad,
        lambda i: {
            "element": labels[i],
            "hermitian": float(herm_gap[i]),
            "spectrum": [float(w[i, 0]), float(w[i, -1])],
        },
    )

    zero_norm = screened_op_norm(effects[bs.zero()], tol.eps)
    rep.record("zero-effect", [] if zero_norm <= tol.eps else [{"norm": zero_norm}])

    summable = bs._all_orthogonal_families().summable(2)
    rep.record("additive", additivity_witnesses(labels, summable, effects, tol.eps, tol.eps))

    u = bs.unit()
    if u is None:
        rep.record("normalized", [{"reason": "semiring has no unit"}])
    else:
        gap = screened_op_norm(effects[u] - eye, tol.eps)
        rep.record("normalized", [] if gap <= tol.eps else [{"defect": gap}])
    return rep


def semilattice_order(bs: BooleanSemiring) -> Array:
    """below[x, y] = [x <= y], where x <= y means xy = x.

    The product must be a semilattice operation. It is symmetric, which
    ``Semilogic`` checks; here it must also be idempotent, with
    down(BC) = down(B) & down(C), so that <= is a partial order and BC is the
    meet of B and C. Otherwise DomainError names the first bad pair, row by
    row; each row compares bit-packed down-sets, so no n^3 table is built.
    """
    n, prod = bs.n, bs.prod
    below = prod == np.arange(n)[:, None]
    down = np.packbits(below, axis=0)  # column y: the down-set of y
    for b in range(n):
        bad = (down[:, prod[b]] != down[:, [b]] & down).any(axis=0)
        bad[b] |= prod[b, b] != b
        if bad.any():
            c = int(np.argmax(bad))
            raise DomainError(
                "semiring product is not a semilattice operation",
                a=bs.labels[b],
                b=bs.labels[c],
            )
    return below


def mobius_blocks(povm: FinitePovm) -> tuple[Array, Array]:
    """The order ``below`` and the blocks g with m(y) = sum of g(x) over x <= y.

    g(y) = m(y) - sum of g(x) over x < y, in order of down-set size, which
    is a linear extension of <=.
    """
    below = semilattice_order(povm.semiring)
    g = np.array(povm.effects)
    for y in np.argsort(below.sum(axis=0), kind="stable"):
        strict = below[:, y].copy()
        strict[y] = False
        g[y] -= g[strict].sum(axis=0)
    return below, g


@dataclass
class Dilation:
    povm: FinitePovm
    dim_e: int
    images: Array       # (n, dim_e, dim_e): h(B) per semiring element
    f: Array            # isometry dim -> dim_e


def dilate(povm: FinitePovm, tol: Tolerance) -> Dilation:
    bs, d = povm.semiring, povm.dim
    u = bs.unit()
    if u is None:
        raise DomainError("dilation needs a unit element in the semiring")
    unit_gap = screened_op_norm(povm.effects[u] - np.eye(d), tol.eps)
    if unit_gap > tol.eps:
        w_unit, _ = eig_herm(povm.effects[u])
        if float(w_unit[-1]) <= 1.0 + tol.eps:
            raise DomainError(
                "measure is sub-normalized: the unit effect is not the identity; "
                "add a complement outcome so the effects sum to the identity",
                defect=unit_gap,
            )
        raise DomainError("unit effect exceeds the identity", defect=unit_gap)

    below, g = mobius_blocks(povm)
    w, vecs = np.linalg.eigh(herm(g))
    x = int(np.argmin(w[:, 0]))
    if w[x, 0] < psd_floor(w, tol):
        raise DomainError(
            "matrix is not positive semidefinite",
            min_eigenvalue=float(w[x, 0]),
            element=bs.labels[x],
        )
    # coordinate r of the dilation space is eigenvector j[r] of block x[r]
    xs, js = np.nonzero(nonzero_spectrum(w, tol))
    dim_e = int(xs.size)
    if bs.n * dim_e * dim_e > MAX_DILATION_ENTRIES:
        raise StructuralError(
            f"dilation too large ({bs.n} elements x dim_e {dim_e}^2 > {MAX_DILATION_ENTRIES})"
        )
    # the rows of F are the V_x*, so m(B) = F* h(B) F = sum of V_x V_x* over x <= B
    v = canonical_phases(vecs[xs, :, js].T * np.sqrt(w[xs, js]), tol)
    # F is the unit's column block of the quotient map, h(u) F
    f = np.where(below[xs, u, None], v.conj().T, 0.0)
    images = np.zeros((bs.n, dim_e, dim_e), dtype=np.complex128)
    images[:, np.arange(dim_e), np.arange(dim_e)] = below[xs].T
    return Dilation(povm=povm, dim_e=dim_e, images=images, f=f)


def verify_dilation(dil: Dilation, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="dilation")
    bs, d = dil.povm.semiring, dil.povm.dim
    labels = bs.labels
    u = bs.unit()

    images = np.array(dil.images)
    finite = np.isfinite(images).all(axis=(1, 2))
    if not finite.all():  # eigh would not converge on it
        raise DomainError("dilation image has a non-finite entry", element=labels[finite.argmin()])
    effects = np.array(dil.povm.effects)
    fh = dil.f.conj().T
    proj_viol, dilation_viol = Witnesses(), Witnesses()
    step = max(1, STACK_ENTRIES // max(1, dil.dim_e**2))
    for lo in range(0, bs.n, step):
        hb = images[lo : lo + step]
        bad, dh, di = projection_defects(hb, tol.eps)
        block = labels[lo : lo + step]
        proj_viol.add(bad, labelled(block, "element", hermitian=dh, idempotent=di))
        gaps = screened_op_norms(fh @ hb @ dil.f - effects[lo : lo + step], tol.eps)
        dilation_viol.add(gaps > tol.eps, labelled(block, "element", defect=gaps))
    rep.record("images-are-projections", proj_viol)
    rep.record("compression-recovers-measure", dilation_viol)

    diag = _real_diagonals(images)
    levels = bs._all_orthogonal_families().summable(2)
    if diag is not None:  # only families with a nonzero diagonal residual reach the matrices
        levels = (
            (fams[keep], sups[keep])
            for fams, sups in levels
            for keep in [_nonzero_residuals(len(sups), family_residual_blocks(diag, fams, sups))]
        )
    rep.record("additive", additivity_witnesses(labels, levels, images, tol.eps, tol.eps))
    rep.record("multiplicative", _multiplicative(bs, images, diag, tol.eps))

    iso_gap = screened_op_norm(fh @ dil.f - np.eye(d), tol.eps)
    rep.record("embedding-isometric", [] if iso_gap <= tol.eps else [{"defect": iso_gap}])
    unit_gap = screened_op_norm(dil.images[u] @ dil.f - dil.f, tol.eps)
    rep.record("unit-fixes-embedding", [] if unit_gap <= tol.eps else [{"defect": unit_gap}])

    stacked = np.hstack([hb @ dil.f for hb in dil.images])
    wv, _ = np.linalg.eigh(stacked @ stacked.conj().T)
    rank = spectral_rank(wv, tol)
    rep.record(
        "minimal",
        [] if rank == dil.dim_e else [{"span_rank": rank, "dim_e": dil.dim_e}],
    )
    rep.facts["dim_e"] = dil.dim_e
    rep.facts["dim_h"] = d
    return rep


def _real_diagonals(images: Array) -> Array | None:
    """The (n, dim) diagonals when every image is a real diagonal, else None.

    Sums and products of such images are those of their diagonals, each
    entry rounded as in the matrix operation, with exact zeros elsewhere. So
    a residual with a zero diagonal is the zero matrix and passes; only the
    others (NaN included) need ``screened_op_norms`` on the full matrices.
    """
    dim = images.shape[1]
    diag = images[:, np.arange(dim), np.arange(dim)]
    if np.count_nonzero(images) == np.count_nonzero(diag) and not diag.imag.any():
        return diag.real
    return None


def _nonzero_residuals(count: int, blocks: Iterable[tuple[int, Array]]) -> Array:
    """Mask of ``count`` diagonal residuals, given as (lo, residual rows) blocks: True off zero."""
    mask = np.zeros(count, dtype=bool)
    for lo, residual in blocks:
        rows = (residual != 0).any(axis=-1).ravel()
        mask[lo : lo + rows.size] = rows
    return mask


def _multiplicative(
    bs: BooleanSemiring, images: Array, diag: Array | None, eps: float
) -> Witnesses:
    """Witnesses of h(a) h(b) = h(ab) over the ids a <= b, row-major.

    Given the real diagonals, the pairs of the triangle are screened first,
    and only those whose diagonal residual is not zero reach the full
    matrices. Both passes go in blocks of about ``STACK_ENTRIES`` entries.
    """
    n, dim = images.shape[:2]
    a, b = np.triu_indices(n)  # row-major
    if diag is not None:
        step = max(1, STACK_ENTRIES // max(1, dim))
        blocks = (
            (lo, diag[pa] * diag[pb] - diag[bs.prod[pa, pb]])
            for lo in range(0, len(a), step)
            for pa, pb in [(a[lo : lo + step], b[lo : lo + step])]
        )
        keep = _nonzero_residuals(len(a), blocks)
        a, b = a[keep], b[keep]
    mult, step = Witnesses(), max(1, STACK_ENTRIES // max(1, dim * dim))
    for lo in range(0, len(a), step):
        pa, pb = a[lo : lo + step], b[lo : lo + step]
        gaps = screened_op_norms(images[pa] @ images[pb] - images[bs.prod[pa, pb]], eps)
        mult.add(
            gaps > eps,
            lambda k: {"a": bs.labels[pa[k]], "b": bs.labels[pb[k]], "defect": float(gaps[k])},
        )
    return mult


def unitary_equivalence(
    d1: Dilation, d2: Dilation, tol: Tolerance
) -> tuple[Array, VerificationReport]:
    """The unitary carrying one minimal dilation onto another.

    Bitwise-identical dilations short-circuit to the exact identity; otherwise
    U is solved from the stacked frames h(B)F, which span the whole space for
    minimal dilations.
    """
    if d1.povm.semiring.n != d2.povm.semiring.n:
        raise DomainError("dilations live over different semirings")
    if d1.dim_e != d2.dim_e:
        raise DomainError(
            "dilation spaces differ in dimension", left=d1.dim_e, right=d2.dim_e
        )
    rep = VerificationReport(subject="dilation-equivalence")

    same = np.array_equal(d1.f, d2.f) and all(
        np.array_equal(a, b) for a, b in zip(d1.images, d2.images)
    )
    if same:
        u = np.eye(d1.dim_e, dtype=np.complex128)
    else:
        m1 = np.hstack([hb @ d1.f for hb in d1.images])
        m2 = np.hstack([hb @ d2.f for hb in d2.images])
        u = m2 @ pseudo_inverse(m1, tol)

    eye = np.eye(d1.dim_e)
    uh = u.conj().T
    unit_gap = float(screened_op_norms(np.array([uh @ u - eye, u @ uh - eye]), tol.eps).max())
    rep.record("unitary", [] if unit_gap <= tol.eps else [{"defect": unit_gap}])

    gaps = screened_op_norms(u @ np.array(d1.images) @ uh - np.array(d2.images), tol.eps)
    rep.record(
        "intertwines-projections",
        gaps > tol.eps,
        labelled(d1.povm.semiring.labels, "element", defect=gaps),
    )

    f_gap = screened_op_norm(u @ d1.f - d2.f, tol.eps)
    rep.record("intertwines-embedding", [] if f_gap <= tol.eps else [{"defect": f_gap}])
    rep.facts["identity"] = bool(same)
    return u, rep
