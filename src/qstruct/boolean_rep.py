"""Boolean semirings and their set-theoretic representations.

A boolean semiring is a semilogic with a total product. Its points are the
maximal filters; sending each element to the set of points containing it
turns the semiring into a ring of sets, distributions into measures on that
ring, and homomorphisms into preimage maps. Families of subsets also carry
the topology-style structure checked by SubsetTopology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, StructuralError
from .order import FinitePoset, atoms
from .report import VerificationReport
from .semilogic import (
    DistributionTable,
    EXACT_TOL,
    Filter,
    HomomorphismMap,
    Semilogic,
    distribution_mass,
    summable_families,
    verify_semilogic,
)


class BooleanSemiring(Semilogic):
    """Semilogic with an everywhere-defined product and at least two elements."""

    def __init__(self, poset: FinitePoset, prod: np.ndarray):
        super().__init__(poset, prod)
        if self.n < 2:
            raise DomainError("trivial semiring rejected", size=self.n)
        if self.zero() is None:
            raise DomainError("semiring requires a least element")
        undef = np.argwhere(self.prod < 0)
        if undef.size:
            a, b = (int(x) for x in undef[0])
            raise DomainError(
                "semiring product must be total",
                a=self.labels[a],
                b=self.labels[b],
            )

    def unit(self) -> int | None:
        return self.poset.greatest()


def verify_semiring(bs: BooleanSemiring) -> VerificationReport:
    rep = VerificationReport(subject="boolean-semiring")
    rep.merge(verify_semilogic(bs))
    u = bs.unit()
    rep.facts["unit"] = bs.labels[u] if u is not None else None
    # with a total product the family sum law IS distributivity
    rep.facts["distributive"] = rep.get("product-additivity").passed
    return rep


def _is_maximal_filter(bs: BooleanSemiring, members: frozenset[int]) -> bool:
    z = bs.zero()
    for a in range(bs.n):
        if a in members:
            continue
        if not any(bs.prod[a, b] == z for b in members):
            return False
    return True


def maximal_filters(bs: BooleanSemiring) -> list[Filter]:
    """All maximal filters; finite filters are principal, so scan generators.

    Atoms come first: their upsets are the usual suspects. The full principal
    scan only runs when the atom candidates leave gaps.
    """
    z = bs.zero()
    out: list[Filter] = []
    seen: set[frozenset[int]] = set()
    candidates = list(atoms(bs.poset))
    if not all(
        _is_maximal_filter(bs, frozenset(int(x) for x in np.flatnonzero(bs.poset.le[a, :])))
        for a in candidates
    ) or not candidates:
        candidates = [x for x in range(bs.n) if x != z]
    for g in candidates:
        members = frozenset(int(x) for x in np.flatnonzero(bs.poset.le[g, :]))
        if members in seen or not _is_maximal_filter(bs, members):
            continue
        seen.add(members)
        out.append(Filter(members))
    return out


# -- Stone-style set representation --------------------------------------------


@dataclass
class StoneRepresentation:
    semiring: BooleanSemiring
    points: list[Filter]
    extent: list[frozenset[int]]  # element -> indices of points containing it

    def extent_of(self, label: str) -> frozenset[int]:
        return self.extent[self.semiring.index(label)]


def stone_map(bs: BooleanSemiring) -> StoneRepresentation:
    points = maximal_filters(bs)
    extent = [
        frozenset(i for i, f in enumerate(points) if b in f.members)
        for b in range(bs.n)
    ]
    return StoneRepresentation(bs, points, extent)


def verify_stone(sr: StoneRepresentation) -> VerificationReport:
    rep = VerificationReport(subject="stone-representation")
    bs, ext = sr.semiring, sr.extent
    labels, le, z = bs.labels, bs.poset.le, bs.zero()

    rep.record("empty-at-zero", [] if not ext[z] else [{"extent": sorted(ext[z])}])
    rep.record(
        "monotone",
        (
            {"a": labels[a], "b": labels[b]}
            for a in range(bs.n)
            for b in range(bs.n)
            if le[a, b] and not ext[a] <= ext[b]
        ),
    )
    rep.record(
        "meets-to-intersections",
        (
            {"a": labels[a], "b": labels[b]}
            for a in range(bs.n)
            for b in range(a, bs.n)
            if ext[int(bs.prod[a, b])] != ext[a] & ext[b]
        ),
    )
    rep.record(
        "sums-to-unions",
        (
            {"family": [labels[x] for x in fam], "sum": labels[sup]}
            for fam, sup in summable_families(bs)
            if fam
            and ext[sup] != frozenset().union(*(ext[x] for x in fam))
        ),
    )
    faithful = []
    for a in range(bs.n):
        for b in range(a + 1, bs.n):
            if ext[a] == ext[b]:
                faithful.append({"a": labels[a], "b": labels[b]})
    rep.record("faithful", faithful)
    rep.record(
        "separating",
        (
            {"a": labels[a], "b": labels[b]}
            for a in range(bs.n)
            for b in range(bs.n)
            if not le[a, b] and ext[a] <= ext[b]
        ),
    )

    # perfect: the image ring of sets has no maximal filters beyond the points
    perfect = []
    distinct = sorted(set(ext), key=lambda s: (len(s), sorted(s)))
    if len(distinct) == len(ext) and all(
        a & b in set(distinct) for a in distinct for b in distinct
    ):
        image, order = subset_semilogic(distinct)
        try:
            img_bs = BooleanSemiring(image.poset, image.prod)
            derived = {
                frozenset(k for k, s in enumerate(order) if i in s)
                for i in range(len(sr.points))
            }
            actual = {f.members for f in maximal_filters(img_bs)}
            if derived != actual:
                perfect.append(
                    {
                        "underived": [
                            sorted(sorted(order[i]) for i in f)
                            for f in list(actual - derived)[:2]
                        ],
                        "missing": len(derived - actual),
                    }
                )
        except DomainError as exc:
            perfect.append({"reason": str(exc)})
    else:
        perfect.append({"reason": "image is not an intersection-closed faithful ring"})
    rep.record("perfect", perfect)

    rep.facts["point_count"] = len(sr.points)
    return rep


def represent_distribution(
    sr: StoneRepresentation, m: DistributionTable, tol: float = EXACT_TOL
) -> tuple[dict[frozenset[int], float], VerificationReport]:
    """Push a distribution to a measure on the ring generated by the extents.

    The ring is grown by disjoint unions; every set remembers one
    decomposition, and any rediscovery must agree within tol.
    """
    rep = VerificationReport(subject="measure")
    bs, ext = sr.semiring, sr.extent
    vals = np.asarray(m.values, dtype=float)

    measure: dict[frozenset[int], float] = {frozenset(): 0.0}
    conflicts = []
    for b in range(bs.n):
        v = float(vals[b])
        if ext[b] in measure and abs(measure[ext[b]] - v) > tol:
            conflicts.append(
                {"set": sorted(ext[b]), "values": [measure[ext[b]], v], "element": bs.labels[b]}
            )
        measure[ext[b]] = v
    rep.record("well-defined-on-extents", conflicts)

    # close under disjoint unions, cross-checking every rediscovery
    disagreements = []
    frontier = list(measure)
    while frontier:
        new = []
        items = list(measure.items())
        for a_set, a_val in items:
            for b_set, b_val in items:
                if a_set & b_set:
                    continue
                u = a_set | b_set
                total = a_val + b_val
                if u in measure:
                    if abs(measure[u] - total) > tol:
                        disagreements.append(
                            {
                                "set": sorted(u),
                                "values": [measure[u], total],
                                "parts": [sorted(a_set), sorted(b_set)],
                            }
                        )
                else:
                    measure[u] = total
                    new.append(u)
        frontier = new
    rep.record("additive-consistency", disagreements)

    full = frozenset(range(len(sr.points)))
    dist_mass = distribution_mass(bs, vals)
    if full in measure:
        rep.record(
            "mass-preserved",
            []
            if abs(measure[full] - dist_mass) <= tol
            else [{"measure": measure[full], "mass": dist_mass}],
        )
    else:
        rep.record("mass-preserved", [{"reason": "full point set not in ring"}])
    rep.facts["ring_size"] = len(measure)
    rep.facts["mass"] = measure.get(full, dist_mass)
    return measure, rep


def induced_homomorphism(
    src: StoneRepresentation,
    dst: StoneRepresentation,
    point_map: Sequence[int],
) -> HomomorphismMap:
    """Pull the source semiring back along a map of points dst -> src.

    Every preimage of a source extent must itself be a destination extent;
    a gap means the point map is not measurable and raises DomainError.
    """
    pm = list(point_map)
    if len(pm) != len(dst.points):
        raise DomainError("point map length mismatch", expected=len(dst.points))
    if any(p < 0 or p >= len(src.points) for p in pm):
        raise DomainError("point map target out of range")

    ext_index = {e: i for i, e in enumerate(dst.extent)}
    mapping = np.full(src.semiring.n, -1, dtype=np.int16)
    for b in range(src.semiring.n):
        pre = frozenset(i for i, p in enumerate(pm) if p in src.extent[b])
        tgt = ext_index.get(pre)
        if tgt is None:
            raise DomainError(
                "preimage is not representable",
                element=src.semiring.labels[b],
                preimage=sorted(pre),
            )
        mapping[b] = tgt
    return HomomorphismMap(src.semiring, dst.semiring, mapping)


# -- subset structures ----------------------------------------------------------


def _set_label(s: frozenset, carrier_order: list) -> str:
    members = [x for x in carrier_order if x in s]
    return "{" + ",".join(str(x) for x in members) + "}"


def subset_semilogic(sets: Sequence[frozenset]) -> tuple[Semilogic, list[frozenset]]:
    """Semilogic on a family of sets: order is inclusion, product intersection.

    The product is defined exactly where the intersection stays inside the
    family, so intersection-closed families yield total products.
    """
    order = sorted(set(sets), key=lambda s: (len(s), sorted(map(str, s))))
    carrier = sorted({x for s in order for x in s}, key=str)
    labels = [_set_label(s, carrier) for s in order]
    n = len(order)
    le = np.zeros((n, n), dtype=bool)
    prod = np.full((n, n), -1, dtype=np.int16)
    pos = {s: i for i, s in enumerate(order)}
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            le[i, j] = a <= b
            k = pos.get(a & b)
            if k is not None:
                prod[i, j] = k
    return Semilogic(FinitePoset(labels, le), prod), order


@dataclass
class SubsetTopology:
    """A ring of subsets with chosen open and closed subfamilies."""

    carrier: frozenset
    sets: list[frozenset]
    opens: list[frozenset]
    closeds: list[frozenset]


def verify_topology(t: SubsetTopology) -> VerificationReport:
    rep = VerificationReport(subject="subset-topology")
    sets = [frozenset(s) for s in t.sets]
    opens = [frozenset(s) for s in t.opens]
    closeds = [frozenset(s) for s in t.closeds]
    for fam, name in ((opens, "open"), (closeds, "closed")):
        stray = [s for s in fam if s not in set(sets)]
        if stray:
            raise StructuralError(f"{name} family leaves the ring", set=sorted(stray[0]))
    oset, cset = set(opens), set(closeds)

    rep.record(
        "open-covers",
        (
            {"set": sorted(b)}
            for b in sets
            if not any(b <= i for i in opens)
        ),
    )
    rep.record(
        "open-intersections",
        (
            {"i1": sorted(i1), "i2": sorted(i2)}
            for i1 in opens
            for i2 in opens
            if i1 & i2 not in oset
        ),
    )
    rep.record("closed-empty", [] if frozenset() in cset else [{"reason": "empty set not closed"}])
    rep.record(
        "closed-intersections",
        (
            {"k1": sorted(k1), "k2": sorted(k2)}
            for k1 in closeds
            for k2 in closeds
            if k1 & k2 not in cset
        ),
    )

    def interior(b: frozenset) -> frozenset:
        return frozenset().union(*(i for i in opens if i <= b)) if any(i <= b for i in opens) else frozenset()

    def closure(b: frozenset) -> frozenset | None:
        above = [k for k in closeds if b <= k]
        if not above:
            return None
        out = above[0]
        for k in above[1:]:
            out = out & k
        return out

    rep.record(
        "interior-in-family",
        ({"set": sorted(b)} for b in sets if interior(b) not in oset),
    )
    closure_viol = []
    for b in sets:
        c = closure(b)
        if c is None:
            closure_viol.append({"set": sorted(b), "reason": "no closed superset"})
        elif c not in cset:
            closure_viol.append({"set": sorted(b), "closure": sorted(c)})
    rep.record("closure-in-family", closure_viol)

    rep.record(
        "difference-open",
        (
            {"open": sorted(i), "closed": sorted(k)}
            for i in opens
            for k in closeds
            if k <= i and (i - k) not in oset
        ),
    )
    rep.record(
        "difference-closed",
        (
            {"open": sorted(i), "closed": sorted(k)}
            for i in opens
            for k in closeds
            if i <= k and (k - i) not in cset
        ),
    )

    idem, defl, mono = [], [], []
    c_idem, c_ext, c_mono = [], [], []
    for b in sets:
        ib, cb = interior(b), closure(b)
        if interior(ib) != ib:
            idem.append({"set": sorted(b)})
        if not ib <= b:
            defl.append({"set": sorted(b)})
        if cb is not None:
            if closure(cb) != cb:
                c_idem.append({"set": sorted(b)})
            if not b <= cb:
                c_ext.append({"set": sorted(b)})
        for b2 in sets:
            if b <= b2:
                if not interior(b) <= interior(b2):
                    mono.append({"b1": sorted(b), "b2": sorted(b2)})
                c2 = closure(b2)
                if cb is not None and c2 is not None and not cb <= c2:
                    c_mono.append({"b1": sorted(b), "b2": sorted(b2)})
    rep.record("interior-idempotent", idem)
    rep.record("interior-deflationary", defl)
    rep.record("interior-monotone", mono)
    rep.record("closure-idempotent", c_idem)
    rep.record("closure-extensive", c_ext)
    rep.record("closure-monotone", c_mono)

    hausdorff, witness = True, None
    for b in sets:
        above = [i for i in opens if b <= i]
        below = [k for k in closeds if k <= b]
        inf_open = above[0] if above else None
        for i in above[1:]:
            inf_open = inf_open & i
        sup_closed = frozenset().union(*below) if below else frozenset()
        if inf_open != b or sup_closed != b:
            hausdorff, witness = False, {"set": sorted(b)}
            break
    rep.facts["approximating"] = hausdorff
    if witness:
        rep.facts["approximating_witness"] = witness
    return rep
