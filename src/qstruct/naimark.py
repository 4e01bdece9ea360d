"""Operator-valued measures on boolean semirings and their projective dilations.

A measure assigns a positive contraction to every semiring element,
additively over summable families, with the unit mapped to the identity.
The dilation factors the block Gram matrix H[(B,s),(C,t)] = m(BC)[s,t];
multiplying by an element permutes the formal basis, which descends to a
projection-valued homomorphism h on the quotient, with an isometry F
satisfying m(B) = F* h(B) F. Minimal dilations are unique up to a unitary
that the construction recovers explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boolean_rep import BooleanSemiring
from .errors import DomainError
from .matrix_core import (
    Array,
    Tolerance,
    as_complex,
    canonical_phases,
    eig_herm,
    op_norms,
    op_norms_exceed,
    projection_defects,
    pseudo_inverse,
    rank_decomposition,
    screened_op_norm,
    screened_op_norms,
)
from .report import VerificationReport
from .semilogic import additivity_witnesses, family_residuals, summable_families
from .standard import powerset_semiring

# complex entries per stacked temporary of verify_dilation: 1 MB
STACK_ENTRIES = 1 << 16


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
    atoms = [as_complex(e) for e in atom_effects]
    k = len(atoms)
    if k == 0:
        raise DomainError("a measurement needs at least one outcome")
    if any(e.shape != (dim, dim) for e in atoms):
        raise DomainError("effect dimension mismatch", dim=dim)
    semiring = powerset_semiring(k)
    effects = []
    for mask in range(1 << k):
        total = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(k):
            if mask >> i & 1:
                total = total + atoms[i]
        effects.append(total)
    return FinitePovm(semiring, effects, dim)


def verify_povm(povm: FinitePovm, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="operator-measure")
    bs = povm.semiring
    effects = np.array(povm.effects)
    labels = bs.labels
    eye = np.eye(povm.dim)

    adjoint = effects.conj().transpose(0, 2, 1)
    skew = effects - adjoint
    w, _ = np.linalg.eigh((effects + adjoint) / 2.0)
    bad = np.flatnonzero(
        op_norms_exceed(skew, tol.eps) | (w[:, 0] < -tol.eps) | (w[:, -1] > 1.0 + tol.eps)
    )
    rep.record(
        "effects-are-positive-contractions",
        (
            {
                "element": labels[i],
                "hermitian": float(h),
                "spectrum": [float(w[i, 0]), float(w[i, -1])],
            }
            for i, h in zip(bad, op_norms(skew[bad]))
        ),
    )

    zero_norm = screened_op_norm(effects[bs.zero()], tol.eps)
    rep.record("zero-effect", [] if zero_norm <= tol.eps else [{"norm": zero_norm}])

    fams = [(fam, sup) for fam, sup in summable_families(bs) if len(fam) > 1]
    gaps = family_residuals(effects, fams, tol.eps)
    rep.record("additive", additivity_witnesses(labels, fams, gaps, tol.eps))

    u = bs.unit()
    if u is None:
        rep.record("normalized", [{"reason": "semiring has no unit"}])
    else:
        gap = screened_op_norm(effects[u] - eye, tol.eps)
        rep.record("normalized", [] if gap <= tol.eps else [{"defect": gap}])
    return rep


def gram_block(povm: FinitePovm) -> Array:
    """H[(B,s),(C,t)] = m(BC)[s,t] over all elements in semiring order."""
    n, d = povm.semiring.n, povm.dim
    h = np.empty((n, d, n, d), dtype=np.complex128)
    # filled in place through its [b, c, s, t] view, so no second copy of h is made
    blocks = h.transpose(0, 2, 1, 3)
    np.take(np.array(povm.effects), povm.semiring.prod, axis=0, out=blocks, mode="clip")
    return h.reshape(n * d, n * d)


@dataclass
class Dilation:
    povm: FinitePovm
    w: Array            # quotient of the formal space, shape (dim_e, n*d)
    w_pinv: Array
    dim_e: int
    images: list[Array]  # h(B) per semiring element
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

    # w+w = h makes column pairings read m(BC)[s,t] with the row slot
    # conjugated, matching the numpy pairing; conjugating h here would
    # silently transpose every compressed effect
    h = gram_block(povm)
    dim_e, v = rank_decomposition(h, tol)
    v = canonical_phases(v, tol)
    w = v.conj().T
    w_pinv = pseudo_inverse(w, tol)

    # h(B) maps the basis vector (C, t) to (BC, t)
    gather = (bs.prod.astype(np.intp)[:, :, None] * d + np.arange(d)).reshape(bs.n, -1)
    images = [w[:, cols] @ w_pinv for cols in gather]
    f = w[:, u * d : (u + 1) * d]
    return Dilation(povm=povm, w=w, w_pinv=w_pinv, dim_e=dim_e, images=images, f=f)


def verify_dilation(dil: Dilation, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="dilation")
    bs, d = dil.povm.semiring, dil.povm.dim
    labels = bs.labels
    u = bs.unit()

    images = np.array(dil.images)
    effects = np.array(dil.povm.effects)
    fh = dil.f.conj().T
    proj_viol, dilation_viol = [], []
    step = max(1, STACK_ENTRIES // max(1, dil.dim_e**2))
    for lo in range(0, bs.n, step):
        hb = images[lo : lo + step]
        bad, dh, di = projection_defects(hb, tol.eps)
        proj_viol += (
            {"element": labels[lo + i], "hermitian": float(h), "idempotent": float(p)}
            for i, h, p in zip(bad, dh, di)
        )
        gaps = screened_op_norms(fh @ hb @ dil.f - effects[lo : lo + step], tol.eps)
        dilation_viol += (
            {"element": labels[lo + i], "defect": float(gaps[i])}
            for i in np.flatnonzero(gaps > tol.eps)
        )
    rep.record("images-are-projections", proj_viol)
    rep.record("compression-recovers-measure", dilation_viol)

    fams = [(fam, sup) for fam, sup in summable_families(bs) if len(fam) > 1]
    gaps = family_residuals(images, fams, tol.eps)
    rep.record("additive", additivity_witnesses(labels, fams, gaps, tol.eps))

    mult = []
    for a in range(bs.n):
        gaps = screened_op_norms(images[a] @ images[a:] - images[bs.prod[a, a:]], tol.eps)
        mult += (
            {"a": labels[a], "b": labels[a + k], "defect": float(gaps[k])}
            for k in np.flatnonzero(gaps > tol.eps)
        )
    rep.record("multiplicative", mult)

    iso_gap = screened_op_norm(fh @ dil.f - np.eye(d), tol.eps)
    rep.record("embedding-isometric", [] if iso_gap <= tol.eps else [{"defect": iso_gap}])
    unit_gap = screened_op_norm(dil.images[u] @ dil.f - dil.f, tol.eps)
    rep.record("unit-fixes-embedding", [] if unit_gap <= tol.eps else [{"defect": unit_gap}])

    stacked = np.hstack([hb @ dil.f for hb in dil.images])
    wv, _ = np.linalg.eigh(stacked @ stacked.conj().T)
    hi = float(wv[-1]) if wv.size else 0.0
    rank = int(np.count_nonzero(wv > tol.rank_rel * max(hi, 0.0)))
    rep.record(
        "minimal",
        [] if rank == dil.dim_e else [{"span_rank": rank, "dim_e": dil.dim_e}],
    )
    rep.facts["dim_e"] = dil.dim_e
    rep.facts["dim_h"] = d
    return rep


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
        (
            {"element": d1.povm.semiring.labels[i], "defect": float(gaps[i])}
            for i in np.flatnonzero(gaps > tol.eps)
        ),
    )

    f_gap = screened_op_norm(u @ d1.f - d2.f, tol.eps)
    rep.record("intertwines-embedding", [] if f_gap <= tol.eps else [{"defect": f_gap}])
    rep.facts["identity"] = bool(same)
    return u, rep
