"""Boolean semirings, their set representations, and topologies on rings of sets.

A boolean semiring is a semilogic with a total product. Its points are the
maximal filters; sending each element to the set of points containing it
turns the semiring into a ring of sets, distributions into measures on that
ring, and homomorphisms into preimage maps.

A family of sets is itself a semilogic (``subset_semilogic``): inclusion
orders it and intersection, where it stays in the family, is the product.
``verify_topology`` checks open and closed subfamilies on that semilogic's
tables with the index kernels of ``semilogic`` (``family_mask``); set
differences form a companion table, and interiors and closures are unions
and intersections of carrier-membership rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, StructuralError
from .order import MAX_ELEMENTS, FinitePoset, atoms, bool_product, packed_rows
from .report import VerificationReport, Witnesses, labelled
from .semilogic import (
    EXACT_TOL,
    MAX_FAMILIES,
    DistributionTable,
    Filter,
    HomomorphismMap,
    Semilogic,
    distribution_mass,
    family_blocks,
    family_mask,
    family_residuals,
    orthogonal_levels,
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
    inside = np.zeros(bs.n, dtype=bool)
    inside[list(members)] = True
    return bool((bs.prod[np.ix_(~inside, inside)] == bs.zero()).any(axis=1).all())


def maximal_filters(bs: BooleanSemiring) -> list[Filter]:
    """All maximal filters; finite filters are principal, so scan generators.

    Atoms come first: their upsets are the usual suspects. The full principal
    scan only runs when the atom candidates leave gaps.
    """

    def principal(g: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(bs.poset.le[g]).tolist())

    candidates = atoms(bs.poset)
    if not candidates or not all(_is_maximal_filter(bs, principal(a)) for a in candidates):
        candidates = [x for x in range(bs.n) if x != bs.zero()]
    found = (principal(g) for g in candidates)
    return [Filter(m) for m in dict.fromkeys(m for m in found if _is_maximal_filter(bs, m))]


# -- Stone-style set representation --------------------------------------------


@dataclass
class StoneRepresentation:
    semiring: BooleanSemiring
    points: list[Filter]
    extent: list[frozenset[int]]  # element -> indices of points containing it


def stone_map(bs: BooleanSemiring) -> StoneRepresentation:
    points = maximal_filters(bs)
    extent = [
        frozenset(i for i, f in enumerate(points) if b in f.members)
        for b in range(bs.n)
    ]
    return StoneRepresentation(bs, points, extent)


def _extent_rows(ext: Sequence[frozenset[int]]) -> tuple[np.ndarray, np.ndarray]:
    """bits[b, i]: point i lies in ext[b], with at least one column; and their packed rows."""
    bits = np.zeros((len(ext), 1 + max((max(e) for e in ext if e), default=0)), dtype=bool)
    for b, e in enumerate(ext):
        bits[b, list(e)] = True
    return bits, packed_rows(bits)


def verify_stone(sr: StoneRepresentation) -> VerificationReport:
    rep = VerificationReport(subject="stone-representation")
    bs, ext = sr.semiring, sr.extent
    labels, le, z = bs.labels, bs.poset.le, bs.zero()

    rep.record("empty-at-zero", [] if not ext[z] else [{"extent": sorted(ext[z])}])
    bits, words = _extent_rows(ext)  # sub[a, b]: ext[a] <= ext[b]
    sub, pair = ~bool_product(bits, ~bits.T), labelled(labels, "a", "b")
    rep.record("monotone", le & ~sub, pair)
    split = np.triu((bits[bs.prod] != bits[:, None] & bits).any(axis=2))
    rep.record("meets-to-intersections", split, pair)
    unions = Witnesses()
    for members, sups in bs._all_orthogonal_families().summable(1):
        for rows in family_blocks(len(members), members.shape[1] * words.shape[1]):
            block, tops = members[rows], sups[rows]
            unions.add(
                (np.bitwise_or.reduce(words[block], axis=1) != words[tops]).any(axis=1),
                lambda f: {"family": [labels[x] for x in block[f].tolist()]}
                | {"sum": labels[tops[f]]},
            )
    rep.record("sums-to-unions", unions)
    rep.record("faithful", np.triu(sub & sub.T, 1), pair)
    rep.record("separating", ~le & sub, pair)

    # perfect: the image ring of sets has no maximal filters beyond the points
    perfect, (image, order) = [], subset_semilogic(ext)
    # distinct extents, closed under intersection: the product is defined exactly there
    if image.n == len(ext) and (image.prod >= 0).all():
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

    The ring is the closure of the extents under disjoint unions: the unions
    of the families of pairwise-disjoint, distinct, nonempty extents. Each
    distinct extent is stood for by the last element with it, whose value it
    takes; the families are ``orthogonal_levels`` of those elements under
    disjointness, in (size, members) order, with StructuralError past
    ``MAX_FAMILIES`` in all, the empty one included. A family is keyed by the
    OR of its members' packed rows. A union's measure is the sum of its first
    family, for a nonempty extent its singleton, so its value; the empty set
    keeps the value of an empty extent, 0.0 without one. additive-consistency
    lists each (union, family) whose sum differs from that by more than tol.
    """
    rep = VerificationReport(subject="measure")
    bs, ext = sr.semiring, sr.extent
    vals = np.asarray(m.values, dtype=float)

    value: dict[frozenset[int], float] = {frozenset(): 0.0}
    conflicts = []
    for b in range(bs.n):
        v = float(vals[b])
        if ext[b] in value and abs(value[ext[b]] - v) > tol:
            conflicts.append(
                {"set": sorted(ext[b]), "values": [value[ext[b]], v], "element": bs.labels[b]}
            )
        value[ext[b]] = v
    rep.record("well-defined-on-extents", conflicts)

    bits, words = _extent_rows(ext)
    last = np.array(sorted({e: b for b, e in enumerate(ext) if e}.values()), dtype=np.intp)
    levels = orthogonal_levels(
        ~bool_product(bits, bits.T), last, None, lambda f: np.full(len(f), -1), MAX_FAMILIES - 1
    )
    levels = [(np.zeros((1, 0), np.int16), np.full(1, -1)), *levels]
    keys, sums = [], []
    for members, sups in levels:
        keys.append(np.bitwise_or.reduce(words[members], axis=1))
        sums.append(0.0 - family_residuals(vals, members, sups))  # a zero sum is 0.0, not -0.0
    keys, sums = np.concatenate(keys), np.concatenate(sums)
    void = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    _, first, union = np.unique(keys.view(void)[:, 0], return_index=True, return_inverse=True)
    at = sums[first]
    at[union[0]] = value[frozenset()]  # family 0 is the empty one
    held = np.unpackbits(keys[first].view(np.uint8), axis=1, bitorder="little")
    points, ends = np.nonzero(held)[1].tolist(), np.cumsum(held.sum(axis=1)).tolist()
    ring = [frozenset(points[a:b]) for a, b in zip([0, *ends], ends)]

    disagreements, lo = Witnesses(), 0
    for members, _ in levels:
        u, total = union[lo : lo + len(members)], sums[lo : lo + len(members)]
        disagreements.add(
            np.abs(total - at[u]) > tol,
            lambda f: {
                "set": sorted(ring[u[f]]),
                "values": [float(at[u[f]]), float(total[f])],
                "parts": [sorted(ext[x]) for x in members[f].tolist()],
                "family": [bs.labels[x] for x in members[f].tolist()],
            },
        )
        lo += len(members)
    rep.record("additive-consistency", disagreements)

    by_first = np.argsort(first)
    measure = dict(zip([ring[g] for g in by_first.tolist()], at[by_first].tolist()))
    full, dist_mass = frozenset(range(len(sr.points))), distribution_mass(bs, vals)
    if full not in measure:
        rep.record("mass-preserved", [{"reason": "full point set not in ring"}])
    elif abs(measure[full] - dist_mass) <= tol:
        rep.record("mass-preserved", [])
    else:
        rep.record("mass-preserved", [{"measure": measure[full], "mass": dist_mass}])
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
    distinct = set(sets)
    if len(distinct) > MAX_ELEMENTS:
        raise StructuralError(f"too many sets ({len(distinct)} > {MAX_ELEMENTS})")
    order = sorted(distinct, key=lambda s: (len(s), sorted(map(str, s))))
    carrier = sorted({x for s in order for x in s}, key=str)
    labels = [_set_label(s, carrier) for s in order]
    n = len(order)
    # membership rows, one spare column so that every row has a word on an empty carrier
    bits = np.array([[x in s for x in carrier] + [False] for s in order], bool)
    words = packed_rows(bits.reshape(n, len(carrier) + 1))
    # a row's words as one key: an intersection is looked up among the sorted keys
    key = np.dtype((np.void, words.itemsize * words.shape[1]))
    keys = words.view(key)[:, 0]
    by_key = np.argsort(keys)
    le, prod = np.empty((n, n), dtype=bool), np.empty((n, n), dtype=np.int16)
    rows = max(1, 2**12 // max(1, words.size))  # 32 KB of words per block
    for lo in range(0, n, rows):
        meet = words[lo : lo + rows, None] & words  # a & b = a exactly when a <= b
        le[lo : lo + rows] = (meet == words[lo : lo + rows, None]).all(axis=2)
        meet = meet.view(key)[..., 0]
        at = by_key[np.searchsorted(keys, meet, sorter=by_key).clip(max=n - 1)]
        prod[lo : lo + rows] = np.where(keys[at] == meet, at, -1)
    return Semilogic(FinitePoset(labels, le), prod), order


@dataclass
class SubsetTopology:
    """A ring of subsets of ``carrier`` with chosen open and closed subfamilies."""

    carrier: frozenset
    sets: list[frozenset]
    opens: list[frozenset]
    closeds: list[frozenset]


def _union_inside(rows: np.ndarray, fam: np.ndarray) -> np.ndarray:
    """Per membership row: the union of the ``fam`` rows inside it."""
    return ~(~rows @ fam.T) @ fam


def _meet_around(rows: np.ndarray, fam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per membership row: the intersection of the ``fam`` rows around it, and whether any is."""
    around = ~(rows @ ~fam.T)
    return ~(around @ ~fam), around.any(axis=1)


def _equal_to_some(rows: np.ndarray, fam: np.ndarray) -> np.ndarray:
    """Per membership row: whether some ``fam`` row is the same set."""
    return (~(rows @ ~fam.T) & ~(~rows @ fam.T)).any(axis=1)


def verify_topology(t: SubsetTopology) -> VerificationReport:
    """Open and closed families of a ring of sets, on its subset semilogic's tables.

    Sets are indices into ``subset_semilogic(t.sets)``, whose ``le`` is
    inclusion and whose ``prod`` holds the intersections (-1: outside the
    family); the set differences i - k form a companion table. Interiors,
    closures and the approximating fact are unions and intersections of
    carrier-membership rows. Witnesses are sorted lists of points, in the
    order of ``sets``, ``opens`` and ``closeds`` as given, repeats included;
    the tables are sized by those lists, so each is bounded by MAX_ELEMENTS.
    """
    for name, fam in (("sets", t.sets), ("opens", t.opens), ("closeds", t.closeds)):
        if len(fam) > MAX_ELEMENTS:
            raise StructuralError(f"too many {name} ({len(fam)} > {MAX_ELEMENTS})")
    sets = [frozenset(x) for x in t.sets]
    opens = [frozenset(x) for x in t.opens]
    closeds = [frozenset(x) for x in t.closeds]
    ring = set(sets)
    for fam, name in ((opens, "open"), (closeds, "closed")):
        stray = [x for x in fam if x not in ring]
        if stray:
            raise StructuralError(f"{name} family leaves the ring", set=sorted(stray[0]))
    carrier = frozenset(t.carrier)
    outside = [x for x in sets if not x <= carrier]
    if outside:
        raise StructuralError("set leaves the carrier", set=sorted(outside[0]))
    s, order = subset_semilogic(sets)
    le, pos = s.poset.le, {x: i for i, x in enumerate(order)}
    S, O, C = (np.array([pos[x] for x in fam], dtype=np.intp) for fam in (sets, opens, closeds))
    points = list(set().union(*order))
    member = np.array([[p in x for p in points] for x in order], dtype=bool)
    open_in, closed_in = family_mask(s.n, O, False), family_mask(s.n, C, False)

    def named(i: int) -> list:
        return sorted(order[i])

    # i - k = x exactly when k and x are disjoint parts of i whose sizes add up to i's
    size = member.sum(axis=1)
    parts = le.T[:, None, :] & ~(member @ member.T)[None] & (
        size[None, :, None] + size[None, None, :] == size[:, None, None]
    )
    diff = np.where(le.T & parts.any(axis=2), parts.argmax(axis=2), -1)

    def in_s(k: int) -> dict:
        return {"set": named(S[k])}

    def pairs(keys: tuple[str, str], rows: np.ndarray, cols: np.ndarray):
        return lambda i, j: {keys[0]: named(rows[i]), keys[1]: named(cols[j])}

    rep = VerificationReport(subject="subset-topology")
    rep.record("open-covers", ~le[np.ix_(S, O)].any(axis=1), in_s)
    rep.record("open-intersections", ~open_in[s.prod[np.ix_(O, O)]], pairs(("i1", "i2"), O, O))
    closed_empty = frozenset() in closeds
    rep.record("closed-empty", [] if closed_empty else [{"reason": "empty set not closed"}])
    rep.record("closed-intersections", ~closed_in[s.prod[np.ix_(C, C)]], pairs(("k1", "k2"), C, C))

    rows = member[S]
    inner = _union_inside(rows, member[O])
    outer, closable = _meet_around(rows, member[C])
    rep.record("interior-in-family", ~_equal_to_some(inner, member[O]), in_s)

    def closure(k: int) -> dict:
        if not closable[k]:
            return in_s(k) | {"reason": "no closed superset"}
        return in_s(k) | {"closure": sorted(points[j] for j in np.flatnonzero(outer[k]))}

    rep.record("closure-in-family", ~(closable & _equal_to_some(outer, member[C])), closure)
    split = pairs(("open", "closed"), O, C)
    rep.record("difference-open", le[np.ix_(C, O)].T & ~open_in[diff[np.ix_(O, C)]], split)
    rep.record("difference-closed", le[np.ix_(O, C)] & ~closed_in[diff[np.ix_(C, O)]].T, split)

    # each set must be the intersection of the opens around it and the union of the closeds inside
    inf_open, covered = _meet_around(rows, member[O])
    sup_closed = _union_inside(rows, member[C])
    loose = ~covered | (inf_open != rows).any(axis=1) | (sup_closed != rows).any(axis=1)
    rep.facts["approximating"] = not loose.any()
    if loose.any():
        rep.facts["approximating_witness"] = {"set": named(S[loose.argmax()])}
    return rep
