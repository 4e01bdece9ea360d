"""Clans: finite sets of orthoprojections closed under range meets and joins.

The operator order (A <= B iff BA = A) makes a clan a concrete logic-like
structure. The headline computation compares genuine lattice distributivity
against the annihilation criterion "zero meet implies zero product"; the two
agree, and both fail together on non-boolean clans, where the criterion
witness carries the product norm and the overlap ||P1 P2 P1||.

Meets and joins are matched to members by trace window: for any square X,
|tr X| <= sum |X_ii| <= d ||X||, so a member can lie within eps of a target
only if their traces differ by at most d eps. The members' traces are sorted
once per clan, and each target's norm tests run only on the members inside
its window whose diagonals also match its own within eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .matrix_core import (
    SCREEN_FLOOR,
    SCREEN_MARGIN,
    STACK_ENTRIES,
    Array,
    Tolerance,
    as_complex,
    op_norm_bounds,
    op_norms,
    op_norms_exceed,
    operator_order,
    projection_defects,
    range_meets,
    screened_op_norm,
)
from .order import FinitePoset, first_nondistributive, sentinel_padded, verify_poset
from .report import VerificationReport, labelled
from .semilogic import additivity_witnesses, orthogonal_levels


@dataclass
class Clan:
    """Members as one read-only (n, d, d) stack, so tables built from them can be kept."""

    members: Array
    labels: list[str] = field(default_factory=list)
    # (table name, tolerance) -> table, filled by _cached
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        members = [as_complex(m) for m in self.members]
        if not members:
            raise DomainError("empty clan")
        d = members[0].shape[0]
        if any(m.shape != (d, d) for m in members):
            raise DomainError("clan members live on different spaces")
        if not self.labels:
            self.labels = [f"P{i}" for i in range(len(members))]
        if len(self.labels) != len(members):
            raise DomainError("label count mismatch")
        self.members = np.array(members)
        self.members.setflags(write=False)
        self.dim = d
        self.n = len(members)


def _cached(clan: Clan, tol: Tolerance, build):
    """``build(clan, tol)``, computed once per clan and tolerance."""
    key = (build.__name__, tol)
    if key not in clan._tables:
        clan._tables[key] = build(clan, tol)
    return clan._tables[key]


def relation_tables(clan: Clan, tol: Tolerance) -> dict[str, np.ndarray]:
    """Boolean order / orthogonality / commutation tables over member pairs, in (i, j) blocks.

    ``absorbed`` holds A_i A_j = A_i within eps, the half of the order test that finds units.
    """
    n, d, m = clan.n, clan.dim, clan.members

    def tests(pa, pb):
        a, b = m[pa], m[pb]
        ab, ba = a @ b, b @ a
        over = op_norms_exceed(np.concatenate([ab - a, ba - a, ab, ab - ba]), tol.eps)
        return over.reshape(4, -1).T

    i, j = np.divmod(np.arange(n * n), n)
    over = _pairwise(tests, i, j, 6 * d * d).reshape(n, n, 4)
    return {
        "order": ~(over[..., 0] | over[..., 1]),
        "orthogonal": ~over[..., 2],
        "commute": ~over[..., 3],
        "absorbed": ~over[..., 0],
    }


def _first_within(stack: Array, tol: Tolerance) -> int:
    """Index of the first matrix of norm at most eps, or -1."""
    hits = np.flatnonzero(~op_norms_exceed(stack, tol.eps))
    return int(hits[0]) if hits.size else -1


def _trace_order(clan: Clan, tol: Tolerance) -> tuple[Array, Array, float, bool]:
    """Member ids by Re tr, the traces in that order, the largest sum of |Re M_ii|.

    The last item says whether ``op_norm_bounds`` makes a claim on every member.
    """
    diag = clan.members.diagonal(axis1=1, axis2=2).real
    tr = diag.sum(axis=1)
    order = np.argsort(tr, kind="stable")
    claim = bool(np.isfinite(op_norm_bounds(clan.members)[1]).all())
    return order, tr[order], float(np.abs(diag).sum(axis=1).max()), claim


def _match_members(clan: Clan, targets: Array, tol: Tolerance) -> np.ndarray:
    """Per matrix of a (k, d, d) stack, the first member within eps of it, or -1.

    For any square X, |X_ii| <= ||X|| and |tr X| <= d ||X||. So a target T
    is tested only against the members whose Re tr lies within
    d eps (1 + m) + m (S + S_T) of its own (m = SCREEN_MARGIN, S_T the sum of
    |Re T_ii|, S the largest such sum over the members), a window found by
    ``np.searchsorted`` in the traces sorted once per clan, and of those only
    against the ones whose Re diagonal is within eps (1 + m) of T's entry by
    entry. Why m covers the rounding, with u = 2^-53: a computed norm at most
    eps means an exact ||M - T|| below eps (1 + 3 d^2 u), as in ``_screen``;
    a computed trace is off by at most d u S, a window end or a diagonal gap
    by u of itself. A target that ``op_norm_bounds`` claims nothing on (a
    non-finite entry, a norm near overflow, a side above SCREEN_MAX_SIDE) is
    tested against every member, and so is every target when some member is
    such a matrix or eps is below SCREEN_FLOOR: a NaN still meets eigh.
    """
    n, d, eps = clan.n, clan.dim, tol.eps
    order, keys, spread, claim = _cached(clan, tol, _trace_order)
    t_diag = targets.diagonal(axis1=1, axis2=2).real
    tr, s = t_diag.sum(axis=1), np.abs(t_diag).sum(axis=1)
    tame = np.isfinite(op_norm_bounds(targets)[1]) & claim & (eps >= SCREEN_FLOOR)
    with np.errstate(invalid="ignore"):
        half = d * eps * (1.0 + SCREEN_MARGIN) + SCREEN_MARGIN * (spread + s)
        lo = np.where(tame, np.searchsorted(keys, tr - half), 0)
        hi = np.where(tame, np.searchsorted(keys, tr + half, "right"), n)
    ends = np.cumsum(hi - lo)  # target t's candidates are order[lo[t]:hi[t]]
    m_diag, first = clan.members.diagonal(axis1=1, axis2=2).real, np.full(len(targets), n)

    def test(tt, mm):
        return ~op_norms_exceed(clan.members[mm] - targets[tt], eps)

    step = max(1, STACK_ENTRIES // d)  # candidate pairs a block, d diagonal entries each
    for p0 in range(0, int(ends[-1]) if ends.size else 0, step):
        t = np.searchsorted(ends, np.arange(p0, min(p0 + step, ends[-1])), "right")
        mem = order[np.arange(p0, p0 + len(t)) - ends[t] + hi[t]]
        # |M_ii - T_ii| <= ||M - T||: a tame pair apart on the diagonal is no match
        apart = np.abs(m_diag[mem] - t_diag[t]).max(axis=1) > eps * (1.0 + SCREEN_MARGIN)
        keep = ~(tame[t] & apart)
        t, mem = t[keep], mem[keep]
        hit = _pairwise(test, t, mem, d * d)
        np.minimum.at(first, t[hit], mem[hit])
    return np.where(first < n, first, -1)


def _pairwise(f: Callable, a: np.ndarray, b: np.ndarray, entries: int) -> np.ndarray:
    """``f`` over blocks of the pair lists a, b, about ``STACK_ENTRIES`` entries a block, joined."""
    step = max(1, STACK_ENTRIES // entries)
    blocks = range(0, max(len(a), 1), step)  # one empty block when there are no pairs
    return np.concatenate([f(a[lo : lo + step], b[lo : lo + step]) for lo in blocks])


def bound_tables(clan: Clan, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Member indices of pairwise range meets and joins; closure is demanded.

    The pairs i <= j go in row-major blocks of about ``STACK_ENTRIES``
    entries, 4 d^2 a pair: one ``range_meets`` over the pairs and their
    complements gives a block's meets and joins, and one ``_match_members``
    finds both. ``missing`` names the first eight bounds that are no member,
    pairs row-major, meet before join.
    """
    n, d, m = clan.n, clan.dim, clan.members
    eye = np.eye(d, dtype=np.complex128)

    def bounds(pa, pb):
        p, q = m[pa], m[pb]
        meets = range_meets(np.concatenate([p, eye - p]), np.concatenate([q, eye - q]), tol)
        both = np.concatenate([meets[: len(p)], eye - meets[len(p) :]])
        return _match_members(clan, both, tol).reshape(2, -1).T

    a, b = np.triu_indices(n)
    found = _pairwise(bounds, a, b, 4 * d * d)  # (pairs, 2): meet, join
    missing = [
        {"kind": ("meet", "join")[c % 2], "a": clan.labels[a[c // 2]], "b": clan.labels[b[c // 2]]}
        for c in np.flatnonzero(found < 0)[:8].tolist()
    ]
    if missing:
        raise DomainError("clan is not closed under range meets and joins", missing=missing)
    meet_idx, join_idx = np.empty((2, n, n), dtype=np.int16)
    meet_idx[a, b] = meet_idx[b, a] = found[:, 0]
    join_idx[a, b] = join_idx[b, a] = found[:, 1]
    return meet_idx, join_idx


def _criterion(clan: Clan, tol: Tolerance) -> dict:
    meet_idx, join_idx = _cached(clan, tol, bound_tables)
    labels, m, d2 = clan.labels, clan.members, clan.dim**2

    # the zero-meet pairs, row-major, whose product is not zero
    a, b = np.nonzero(np.triu(meet_idx == _first_within(m, tol), 1))
    hits = _pairwise(lambda pa, pb: op_norms_exceed(m[pa] @ m[pb], tol.eps), a, b, d2)
    a, b = a[hits], b[hits]

    crit_witness = None
    if a.size:
        # the first maximum, as a running maximum that only a larger overlap replaces;
        # op_norms runs only on the overlaps whose upper bound reaches the largest lower one
        def overlap(pa, pb):
            return m[pa] @ m[pb] @ m[pa]

        def bounds(pa, pb):
            return np.stack(op_norm_bounds(overlap(pa, pb)), axis=1)

        lo, hi = _pairwise(bounds, a, b, d2).T
        near = np.flatnonzero(hi >= lo.max())
        overlaps = _pairwise(lambda pa, pb: op_norms(overlap(pa, pb)), a[near], b[near], d2)
        k = 0 if near[0] == 0 and np.isnan(overlaps[0]) else int(np.nanargmax(overlaps))
        i, j = a[near[k]], b[near[k]]
        crit_witness = {
            "a": labels[i],
            "b": labels[j],
            "product_norm": float(op_norms(m[[i]] @ m[[j]])[0]),
            "overlap": float(overlaps[k]),
        }

    hit = first_nondistributive(meet_idx, join_idx)
    dist_witness = None if hit is None else dict(zip("abc", (labels[x] for x in hit)))
    return {
        "distributive": hit is None,
        "distributive_witness": dist_witness,
        "criterion": not a.size,
        "criterion_witness": crit_witness,
        "agree": (hit is None) == (not a.size),
    }


def distributivity_criterion(clan: Clan, tol: Tolerance) -> dict:
    """Lattice distributivity vs the zero-meet/zero-product criterion, once per tolerance.

    Returns both verdicts, their witnesses, and whether they agree. The
    criterion witness is the zero-meet pair with the first largest overlap
    ||P1 P2 P1|| = ||P1 P2||^2, row-major, the quantity that measures how far
    the pair is from being compatible; it reports the raw product norm too.
    """
    return _cached(clan, tol, _criterion)


def _unit(clan: Clan, tol: Tolerance) -> int:
    """The first member g with A g = A for every member A, or -1."""
    absorbs = _cached(clan, tol, relation_tables)["absorbed"].all(axis=0)
    return int(absorbs.argmax()) if absorbs.any() else -1


def unit_index(clan: Clan, tol: Tolerance) -> int:
    """Index of the absorbing member P with AP = A for every member."""
    g = _cached(clan, tol, _unit)
    if g < 0:
        raise DomainError("clan has no absorbing unit")
    return g


def verify_clan(clan: Clan, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="clan")
    labels, m, d = clan.labels, clan.members, clan.dim

    bad, dh, di = projection_defects(m, tol.eps)
    named = labelled(labels, "member", hermitian=dh, idempotent=di)
    rep.record("members-are-projections", bad, named)

    a, b = np.triu_indices(clan.n, 1)
    twins = np.zeros((clan.n, clan.n), dtype=bool)
    twins[a, b] = _pairwise(lambda pa, pb: ~op_norms_exceed(m[pa] - m[pb], tol.eps), a, b, d * d)
    rep.record("members-distinct", twins, lambda i, j: {"a": labels[i], "b": labels[j]})

    tables = _cached(clan, tol, relation_tables)
    rep.facts["order_pairs"] = int(tables["order"].sum())
    rep.facts["orthogonal_pairs"] = int(tables["orthogonal"].sum())
    rep.facts["commuting_pairs"] = int(tables["commute"].sum())

    if not bad.any():
        poset = FinitePoset(labels, tables["order"])
        rep.merge(verify_poset(poset), prefix="order")
        try:
            g = unit_index(clan, tol)
            rep.record("absorbing-unit", [])
            rep.facts["unit"] = labels[g]
        except DomainError:
            rep.record("absorbing-unit", [{"reason": "no member absorbs all others"}])
        verdicts = distributivity_criterion(clan, tol)
        rep.facts.update(verdicts)
        rep.record(
            "distributivity-criterion-agreement",
            [] if verdicts["agree"] else [verdicts],
        )
    return rep


def _orthogonal_member_families(clan: Clan, tol: Tolerance) -> list[tuple[np.ndarray, np.ndarray]]:
    """Levels of the orthogonal families of two or more nonzero members, with their joins.

    A family's join folds the member join table from its first member; a
    join that is no member (-1) stays -1.
    """
    _, join_idx = _cached(clan, tol, bound_tables)
    orth = _cached(clan, tol, relation_tables)["orthogonal"]
    nonzero = np.flatnonzero(op_norms_exceed(clan.members, tol.eps))
    return orthogonal_levels(orth, nonzero, sentinel_padded(join_idx))[1:]


def vector_state(clan: Clan, xi: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, VerificationReport]:
    """m(A) = <A xi, xi> over the members, checked for state behaviour."""
    xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
    if xi.shape[0] != clan.dim:
        raise DomainError("vector dimension mismatch", expected=clan.dim)
    rep = VerificationReport(subject="vector-state")
    vals = np.array([float(np.real(xi.conj() @ (m @ xi))) for m in clan.members])

    rep.record(
        "values-in-range",
        (vals < -tol.eps) | (vals > float(np.real(xi.conj() @ xi)) + tol.eps),
        lambda i: {"member": clan.labels[i], "value": float(vals[i])},
    )
    try:
        g = unit_index(clan, tol)
        rep.record(
            "unit-normalized",
            []
            if abs(vals[g] - 1.0) <= tol.eps
            else [{"unit_value": float(vals[g])}],
        )
    except DomainError:
        rep.record("unit-normalized", [{"reason": "no absorbing unit"}])

    fams = _orthogonal_member_families(clan, tol)
    rep.record("additive", additivity_witnesses(clan.labels, fams, vals, tol.eps))
    return vals, rep


def operator_distribution(
    clan: Clan, f: np.ndarray, tol: Tolerance
) -> tuple[list[np.ndarray], VerificationReport]:
    """b(A) = f* A f for an isometry f into the clan's space.

    f*f must be the identity and f f* must sit under the clan unit; the
    resulting operator-valued map is additive over orthogonal families.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2 or f.shape[0] != clan.dim:
        raise DomainError("isometry shape mismatch", shape=list(f.shape))
    r = f.shape[1]
    if op_norms_exceed((f.conj().T @ f - np.eye(r))[None], tol.eps)[0]:
        raise DomainError("f is not an isometry")
    g = unit_index(clan, tol)
    if not operator_order(f @ f.conj().T, clan.members[g], tol):
        raise DomainError("isometry range is not dominated by the clan unit")

    rep = VerificationReport(subject="operator-distribution")
    images = [f.conj().T @ m @ f for m in clan.members]

    rep.record(
        "images-positive-contractions",
        (
            {"member": clan.labels[i]}
            for i, b in enumerate(images)
            if not (
                operator_order(np.zeros((r, r)), b, tol)
                and operator_order(b, np.eye(r), tol)
            )
        ),
    )
    defect = screened_op_norm(images[g] - np.eye(r), tol.eps)
    rep.record("unit-to-identity", [] if defect <= tol.eps else [{"defect": defect}])

    fams = _orthogonal_member_families(clan, tol)
    rep.record("additive", additivity_witnesses(clan.labels, fams, images, tol.eps, tol.eps))
    return images, rep


def verify_observable(
    clan: Clan, member_ids: list[int], values: list[float], tol: Tolerance
) -> VerificationReport:
    """An observable: orthogonal members resolving the unit, with real values."""
    if len(member_ids) != len(values):
        raise DomainError("observable needs one value per member")
    if not member_ids:
        raise DomainError("empty observable")
    rep = VerificationReport(subject="observable")
    labels = clan.labels
    orth = _cached(clan, tol, relation_tables)["orthogonal"]
    ids = np.asarray(member_ids)
    rep.record(
        "pairwise-orthogonal",
        np.triu(~orth[np.ix_(ids, ids)], 1),
        lambda i, j: {"a": labels[ids[i]], "b": labels[ids[j]]},
    )
    g = unit_index(clan, tol)
    total = sum(clan.members[i] for i in member_ids)
    defect = screened_op_norm(total - clan.members[g], tol.eps)
    rep.record("resolves-unit", [] if defect <= tol.eps else [{"defect": defect}])
    rep.facts["norm"] = max(abs(v) for v in values)
    rep.facts["spectrum"] = sorted(set(float(v) for v in values))
    return rep
