"""Logics: quasilogics with a greatest element and an orthocomplement.

The complement must be an antitone involution exchanging meets and joins,
split the unit (a v ~a = 1, a ^ ~a = 0), and satisfy the relative
distributivity law that stands in for orthomodularity. Segments [a, c]
inherit a candidate logic structure; the construction is allowed to fail,
and the failure witnesses are as informative as the successes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, StructuralError
from .order import FinitePoset, birkhoff_distributive, first_nondistributive, segment
from .order import pivot_cells, sentinel_padded
from .quasilogic import Quasilogic, verify_quasilogic
from .report import VerificationReport, Witnesses, labelled


class OrthoLogic(Quasilogic):
    """Quasilogic with unit and complement; involution is demanded up front."""

    def __init__(self, poset: FinitePoset, diff: np.ndarray, neg: np.ndarray):
        super().__init__(poset, diff)
        neg = np.asarray(neg, dtype=np.int16)
        top = poset.greatest()
        if top is None:
            raise StructuralError("logic requires a greatest element")
        if neg.shape != (self.n,) or (neg < 0).any() or (neg >= self.n).any():
            raise StructuralError("complement map out of range")
        fixed = np.flatnonzero(neg[neg] != np.arange(self.n))
        if fixed.size:
            a = int(fixed[0])
            raise StructuralError(
                "complement is not an involution",
                a=self.labels[a],
                image=self.labels[int(neg[a])],
                twice=self.labels[int(neg[neg[a]])],
            )
        self.neg = neg
        self.top = top


def verify_logic(ol: OrthoLogic) -> VerificationReport:
    rep = VerificationReport(subject="logic")
    rep.merge(verify_quasilogic(ol))
    labels, neg, n = ol.labels, ol.neg, ol.n
    le = ol.poset.le
    mt, jt = ol.poset.meet_table(), ol.poset.join_table()
    top, z = ol.top, ol.poset.least()

    ids = np.arange(n)
    j, m = jt[ids, neg], mt[ids, neg]
    if z is None:
        m[:] = -1  # without a least element every meet counts as undefined (and != None)
    for name, got, want, what in (
        ("complement-join", j, top, "join"),
        ("complement-meet", m, z, "meet"),
    ):
        rep.record(
            name,
            got != want,
            lambda a: {"a": labels[a]}
            | ({what: labels[got[a]]} if got[a] >= 0 else {"reason": f"{what} undefined"}),
        )

    anti = le & ~le[np.ix_(neg, neg)].T  # a <= b without ~b <= ~a
    rep.record("complement-antitone", anti, labelled(labels, "a", "b"))

    # ~(a v b) = ~a ^ ~b and dually, for a <= b, over the whole table
    for name, bound, dual, what in (
        ("de-morgan-join", jt, mt, "meet"),
        ("de-morgan-meet", mt, jt, "join"),
    ):
        comp = dual[np.ix_(neg, neg)]  # [a, b] = ~a ^ ~b, or ~a v ~b
        rep.record(
            name,
            np.triu((bound >= 0) & (comp != neg[bound])),
            lambda a, b: {"a": labels[a], "b": labels[b]}
            | ({"reason": f"{what} of complements undefined"} if comp[a, b] < 0 else {}),
        )
    rep.record("relative-distributivity", _relative_distributivity(ol))

    from_unit = ol.diff[top]
    rep.record(
        "complement-difference-consistency",
        from_unit != neg,
        lambda a: {"a": labels[a], "complement": labels[neg[a]]}
        | {"from_unit": labels[from_unit[a]] if from_unit[a] >= 0 else None},
    )

    rep.facts["unit"] = labels[top]
    ok, wit = boolean_criterion(ol)
    rep.facts["boolean"] = ok
    if wit:
        rep.facts["boolean_witness"] = wit
    ok, wit = is_distributive(ol)
    rep.facts["distributive"] = ok
    if wit:
        rep.facts["distributive_witness"] = wit
    return rep


def _relative_distributivity(ol: OrthoLogic) -> Witnesses:
    """(a v b) ^ c = a v (b ^ c) whenever a <= ~b <= c.

    One walk over the cells (b, a, c), row-major: the pairs (b, a) with
    a <= ~b, each expanded into the upset of ~b. Bounds are read through the
    padded tables, so an undefined one stays -1.
    """
    labels, neg, le = ol.labels, ol.neg, ol.poset.le
    mt = sentinel_padded(ol.poset.meet_table())
    jt = sentinel_padded(ol.poset.join_table())
    rel = Witnesses()
    for pb, pa, r, c in pivot_cells(le[:, neg].T, lambda b, a: neg[b], le):
        a, b = pa[r], pb[r]
        lhs, rhs = mt[jt[a, b], c], jt[a, mt[b, c]]

        def cell(k: int) -> dict:
            w = {"a": labels[a[k]], "b": labels[b[k]], "c": labels[c[k]]}
            if min(lhs[k], rhs[k]) < 0:
                return w | {"reason": "bound undefined"}
            return w | {"lhs": labels[lhs[k]], "rhs": labels[rhs[k]]}

        rel.add((lhs != rhs) | (lhs < 0), cell)
    return rel


def boolean_criterion(ol: OrthoLogic) -> tuple[bool, dict | None]:
    """Boolean iff disjointness coincides with lying under the complement."""
    z = ol.poset.least()
    if z is None:
        return False, {"reason": "no least element"}
    mt, le, labels = ol.poset.meet_table(), ol.poset.le, ol.labels
    # bad[a, b]: a ^ b = 0 disagrees with b <= ~a
    bad = (mt == z) != le[:, ol.neg].T
    if not bad.any():
        return True, None
    a, b = np.unravel_index(bad.argmax(), bad.shape)
    return False, {"a": labels[a], "b": labels[b]}


def is_distributive(ol: OrthoLogic) -> tuple[bool, dict | None]:
    """Meet distributes over join wherever all four bounds exist.

    Birkhoff's test settles a distributive lattice; otherwise the scan finds
    the first failing triple, or passes a structure that is not a lattice.
    """
    if birkhoff_distributive(ol.poset):
        return True, None
    hit = first_nondistributive(ol.poset.meet_table(), ol.poset.join_table())
    if hit is None:
        return True, None
    return False, dict(zip("abc", (ol.labels[x] for x in hit)))


def segment_logic(ol: OrthoLogic, lo: int, hi: int) -> OrthoLogic:
    """Candidate logic on [lo, hi]: y - x = lo v (~x ^ y).

    Raises ConstructionError when the defining bounds are missing and
    StructuralError when the induced complement fails to be an involution,
    which does happen in non-distributive logics.
    """
    sub, parents = segment(ol.poset, lo, hi)
    pidx = np.full(ol.n + 1, -1, dtype=np.int16)  # parent id -> segment id; [-1] reads -1
    pidx[parents] = np.arange(sub.n)
    par = np.array(parents)
    m = ol.poset.meet_table()[ol.neg[par], par[:, None]]  # [y, x] = ~x ^ y
    d = pidx[np.where(m >= 0, ol.poset.join_table()[lo, m], -1)]  # lo v (~x ^ y)
    bad = sub.le.T & (d < 0)  # the first failing (y, x), row-major
    if bad.any():
        yi, xi = np.unravel_index(bad.argmax(), bad.shape)
        what = "needs a meet with the complement" if m[yi, xi] < 0 else "leaves the segment"
        y, x = ol.labels[par[yi]], ol.labels[par[xi]]
        raise ConstructionError(f"segment difference {what}", x=x, y=y)
    diff = np.where(sub.le.T, d, -1).astype(np.int16)
    return OrthoLogic(sub, diff, diff[pidx[hi], :].copy())
