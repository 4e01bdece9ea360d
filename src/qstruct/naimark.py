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
    op_norm,
    op_norms,
    pseudo_inverse,
    rank_decomposition,
)
from .report import VerificationReport
from .semilogic import additivity_witnesses, family_residuals, summable_families
from .standard import powerset_semiring


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
    bs, effects = povm.semiring, povm.effects
    labels = bs.labels
    eye = np.eye(povm.dim)

    bad_eff = []
    for i, e in enumerate(effects):
        h = op_norm(e - e.conj().T)
        w, _ = eig_herm(e)
        if h > tol.eps or float(w[0]) < -tol.eps or float(w[-1]) > 1.0 + tol.eps:
            bad_eff.append(
                {"element": labels[i], "hermitian": h, "spectrum": [float(w[0]), float(w[-1])]}
            )
    rep.record("effects-are-positive-contractions", bad_eff)

    z = bs.zero()
    rep.record(
        "zero-effect",
        [] if op_norm(effects[z]) <= tol.eps else [{"norm": op_norm(effects[z])}],
    )

    fams = [(fam, sup) for fam, sup in summable_families(bs) if len(fam) > 1]
    gaps = family_residuals(effects, fams)
    rep.record("additive", additivity_witnesses(labels, fams, gaps, tol.eps))

    u = bs.unit()
    if u is None:
        rep.record("normalized", [{"reason": "semiring has no unit"}])
    else:
        gap = op_norm(effects[u] - eye)
        rep.record("normalized", [] if gap <= tol.eps else [{"defect": gap}])
    return rep


def gram_block(povm: FinitePovm) -> Array:
    """H[(B,s),(C,t)] = m(BC)[s,t] over all elements in semiring order."""
    n, d = povm.semiring.n, povm.dim
    h = np.empty((n * d, n * d), dtype=np.complex128)
    prod = povm.semiring.prod
    for b in range(n):
        for c in range(n):
            h[b * d : (b + 1) * d, c * d : (c + 1) * d] = povm.effects[int(prod[b, c])]
    return h


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
    unit_gap = op_norm(povm.effects[u] - np.eye(d))
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

    n = bs.n
    prod = bs.prod
    images = []
    for b in range(n):
        gather = np.empty(n * d, dtype=np.int64)
        for c in range(n):
            gather[c * d : (c + 1) * d] = np.arange(d) + int(prod[b, c]) * d
        images.append(w[:, gather] @ w_pinv)
    f = w[:, u * d : (u + 1) * d]
    return Dilation(povm=povm, w=w, w_pinv=w_pinv, dim_e=dim_e, images=images, f=f)


def verify_dilation(dil: Dilation, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="dilation")
    bs, d = dil.povm.semiring, dil.povm.dim
    labels = bs.labels
    u = bs.unit()

    proj_viol, dilation_viol = [], []
    for i, hb in enumerate(dil.images):
        dh = op_norm(hb - hb.conj().T)
        di = op_norm(hb @ hb - hb)
        if dh > tol.eps or di > tol.eps:
            proj_viol.append({"element": labels[i], "hermitian": dh, "idempotent": di})
        gap = op_norm(dil.f.conj().T @ hb @ dil.f - dil.povm.effects[i])
        if gap > tol.eps:
            dilation_viol.append({"element": labels[i], "defect": gap})
    rep.record("images-are-projections", proj_viol)
    rep.record("compression-recovers-measure", dilation_viol)

    images = np.array(dil.images)
    fams = [(fam, sup) for fam, sup in summable_families(bs) if len(fam) > 1]
    gaps = family_residuals(images, fams)
    rep.record("additive", additivity_witnesses(labels, fams, gaps, tol.eps))

    mult = []
    for a in range(bs.n):
        gaps = op_norms(images[a] @ images[a:] - images[bs.prod[a, a:]])
        mult += (
            {"a": labels[a], "b": labels[a + k], "defect": float(gaps[k])}
            for k in np.flatnonzero(gaps > tol.eps)
        )
    rep.record("multiplicative", mult)

    iso_gap = op_norm(dil.f.conj().T @ dil.f - np.eye(d))
    rep.record("embedding-isometric", [] if iso_gap <= tol.eps else [{"defect": iso_gap}])
    unit_gap = op_norm(dil.images[u] @ dil.f - dil.f)
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
    unit_gap = max(op_norm(u.conj().T @ u - eye), op_norm(u @ u.conj().T - eye))
    rep.record("unitary", [] if unit_gap <= tol.eps else [{"defect": unit_gap}])

    inter = []
    for i, (a, b) in enumerate(zip(d1.images, d2.images)):
        gap = op_norm(u @ a @ u.conj().T - b)
        if gap > tol.eps:
            inter.append({"element": d1.povm.semiring.labels[i], "defect": gap})
    rep.record("intertwines-projections", inter)

    f_gap = op_norm(u @ d1.f - d2.f)
    rep.record("intertwines-embedding", [] if f_gap <= tol.eps else [{"defect": f_gap}])
    rep.facts["identity"] = bool(same)
    return u, rep
