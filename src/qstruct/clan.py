"""Clans: finite sets of orthoprojections closed under range meets and joins.

The operator order (A <= B iff BA = A) makes a clan a concrete logic-like
structure. The headline computation compares genuine lattice distributivity
against the annihilation criterion "zero meet implies zero product"; the two
agree, and both fail together on non-boolean clans, where the criterion
witness carries the product norm and the overlap ||P1 P2 P1||.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DomainError
from .matrix_core import (
    Array,
    Tolerance,
    as_complex,
    op_norm,
    operator_order,
    range_join,
    range_meet,
)
from .order import FinitePoset, first_nondistributive, verify_poset
from .report import VerificationReport
from .semilogic import additivity_witnesses, family_residuals, orthogonal_families


@dataclass
class Clan:
    members: list[Array]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.members = [as_complex(m) for m in self.members]
        if not self.members:
            raise DomainError("empty clan")
        d = self.members[0].shape[0]
        if any(m.shape != (d, d) for m in self.members):
            raise DomainError("clan members live on different spaces")
        if not self.labels:
            self.labels = [f"P{i}" for i in range(len(self.members))]
        if len(self.labels) != len(self.members):
            raise DomainError("label count mismatch")
        self.dim = d
        self.n = len(self.members)


def projection_defects(a: Array) -> tuple[float, float]:
    """(hermiticity defect, idempotence defect), both in operator norm."""
    return op_norm(a - a.conj().T), op_norm(a @ a - a)


def relation_tables(clan: Clan, tol: Tolerance) -> dict[str, np.ndarray]:
    """Boolean order / orthogonality / commutation tables over member pairs."""
    n = clan.n
    order = np.zeros((n, n), dtype=bool)
    orth = np.zeros((n, n), dtype=bool)
    comm = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(clan.members):
        for j, b in enumerate(clan.members):
            ab = a @ b
            ba = b @ a
            order[i, j] = op_norm(ab - a) <= tol.eps and op_norm(ba - a) <= tol.eps
            orth[i, j] = op_norm(ab) <= tol.eps
            comm[i, j] = op_norm(ab - ba) <= tol.eps
    return {"order": order, "orthogonal": orth, "commute": comm}


def _match_member(clan: Clan, target: Array, tol: Tolerance) -> int:
    for i, m in enumerate(clan.members):
        if op_norm(m - target) <= tol.eps:
            return i
    return -1


def bound_tables(clan: Clan, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Member indices of pairwise range meets and joins; closure is demanded."""
    n = clan.n
    meet_idx = np.full((n, n), -1, dtype=np.int16)
    join_idx = np.full((n, n), -1, dtype=np.int16)
    missing = []
    for i in range(n):
        for j in range(i, n):
            m = range_meet(clan.members[i], clan.members[j], tol)
            jn = range_join(clan.members[i], clan.members[j], tol)
            mi, ji = _match_member(clan, m, tol), _match_member(clan, jn, tol)
            meet_idx[i, j] = meet_idx[j, i] = mi
            join_idx[i, j] = join_idx[j, i] = ji
            if mi < 0:
                missing.append({"kind": "meet", "a": clan.labels[i], "b": clan.labels[j]})
            if ji < 0:
                missing.append({"kind": "join", "a": clan.labels[i], "b": clan.labels[j]})
    if missing:
        raise DomainError(
            "clan is not closed under range meets and joins", missing=missing[:8]
        )
    return meet_idx, join_idx


def distributivity_criterion(clan: Clan, tol: Tolerance) -> dict:
    """Lattice distributivity vs the zero-meet/zero-product criterion.

    Returns both verdicts, their witnesses, and whether they agree. The
    criterion witness reports the raw product norm alongside the overlap
    ||P1 P2 P1|| = ||P1 P2||^2, the quantity that measures how far the pair
    is from being compatible.
    """
    meet_idx, join_idx = bound_tables(clan, tol)
    labels = clan.labels
    zero_i = next(
        (i for i, m in enumerate(clan.members) if op_norm(m) <= tol.eps), -1
    )

    criterion, crit_witness = True, None
    for i in range(clan.n):
        for j in range(i + 1, clan.n):
            if meet_idx[i, j] != zero_i:
                continue
            prod = clan.members[i] @ clan.members[j]
            norm = op_norm(prod)
            if norm > tol.eps:
                overlap = op_norm(prod @ clan.members[i])
                criterion = False
                if crit_witness is None or overlap > crit_witness["overlap"]:
                    crit_witness = {
                        "a": labels[i],
                        "b": labels[j],
                        "product_norm": norm,
                        "overlap": overlap,
                    }

    hit = first_nondistributive(meet_idx, join_idx)
    dist_witness = None if hit is None else dict(zip("abc", (labels[x] for x in hit)))
    return {
        "distributive": hit is None,
        "distributive_witness": dist_witness,
        "criterion": criterion,
        "criterion_witness": crit_witness,
        "agree": (hit is None) == criterion,
    }


def unit_index(clan: Clan, tol: Tolerance) -> int:
    """Index of the absorbing member P with AP = A for every member."""
    for g, cand in enumerate(clan.members):
        if all(op_norm(a @ cand - a) <= tol.eps for a in clan.members):
            return g
    raise DomainError("clan has no absorbing unit")


def verify_clan(clan: Clan, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="clan")
    labels = clan.labels

    proj_viol = []
    for i, m in enumerate(clan.members):
        h, p = projection_defects(m)
        if h > tol.eps or p > tol.eps:
            proj_viol.append({"member": labels[i], "hermitian": h, "idempotent": p})
    rep.record("members-are-projections", proj_viol)

    rep.record(
        "members-distinct",
        (
            {"a": labels[i], "b": labels[j]}
            for i in range(clan.n)
            for j in range(i + 1, clan.n)
            if op_norm(clan.members[i] - clan.members[j]) <= tol.eps
        ),
    )

    tables = relation_tables(clan, tol)
    rep.facts["order_pairs"] = int(tables["order"].sum())
    rep.facts["orthogonal_pairs"] = int(tables["orthogonal"].sum())
    rep.facts["commuting_pairs"] = int(tables["commute"].sum())

    if not proj_viol:
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


def _orthogonal_member_families(clan: Clan, tol: Tolerance) -> list[tuple[tuple[int, ...], int]]:
    """Orthogonal families of two or more nonzero members, each with its join."""
    _, join_idx = bound_tables(clan, tol)
    orth = relation_tables(clan, tol)["orthogonal"]
    nonzero = [i for i in range(clan.n) if op_norm(clan.members[i]) > tol.eps]
    return [
        (fam, reduce(lambda total, x: int(join_idx[total, x]), fam))
        for fam, _ in orthogonal_families(nonzero, orth)
        if len(fam) > 1
    ]


def vector_state(clan: Clan, xi: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, VerificationReport]:
    """m(A) = <A xi, xi> over the members, checked for state behaviour."""
    xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
    if xi.shape[0] != clan.dim:
        raise DomainError("vector dimension mismatch", expected=clan.dim)
    rep = VerificationReport(subject="vector-state")
    vals = np.array([float(np.real(xi.conj() @ (m @ xi))) for m in clan.members])

    rep.record(
        "values-in-range",
        (
            {"member": clan.labels[i], "value": float(vals[i])}
            for i in range(clan.n)
            if vals[i] < -tol.eps or vals[i] > float(np.real(xi.conj() @ xi)) + tol.eps
        ),
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
    gaps = family_residuals(vals, fams)
    rep.record("additive", additivity_witnesses(clan.labels, fams, gaps, tol.eps))
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
    if op_norm(f.conj().T @ f - np.eye(r)) > tol.eps:
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
    rep.record(
        "unit-to-identity",
        []
        if op_norm(images[g] - np.eye(r)) <= tol.eps
        else [{"defect": op_norm(images[g] - np.eye(r))}],
    )

    fams = _orthogonal_member_families(clan, tol)
    gaps = family_residuals(images, fams)
    rep.record("additive", additivity_witnesses(clan.labels, fams, gaps, tol.eps))
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
    orth = relation_tables(clan, tol)["orthogonal"]
    rep.record(
        "pairwise-orthogonal",
        (
            {"a": labels[member_ids[i]], "b": labels[member_ids[j]]}
            for i in range(len(member_ids))
            for j in range(i + 1, len(member_ids))
            if not orth[member_ids[i], member_ids[j]]
        ),
    )
    g = unit_index(clan, tol)
    total = sum(clan.members[i] for i in member_ids)
    defect = op_norm(total - clan.members[g])
    rep.record("resolves-unit", [] if defect <= tol.eps else [{"defect": defect}])
    rep.facts["norm"] = max(abs(v) for v in values)
    rep.facts["spectrum"] = sorted(set(float(v) for v in values))
    return rep
