"""Semilogics: posets with a partial, commutative, idempotent product.

Sums of pairwise-orthogonal families (orthogonal: ab = 0) are realized as
least upper bounds. Distributions, ideals, filters, homomorphisms, closure
operators and regularity checks all live at this level; the boolean-semiring
layer only adds totality of the product and distributivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, StructuralError
from .matrix_core import screened_op_norms
from .order import FinitePoset, join_of, row_bits, sentinel_padded, verify_poset
from .quasilogic import Quasilogic, commutation_table, is_logic
from .report import VerificationReport, Witnesses, labelled

MAX_FAMILIES = 200_000
FAMILY_BLOCK = 1 << 13  # entries per family_blocks temporary: 128 KB of complex128
BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # popcounts
ADDITIVITY_BLOCK = 1 << 16  # (family, member pair, element) cells per product-additivity block
# (a, b, c) cells per restricted-associativity block, but at least one row a:
# its int16 temporaries stay at 32 KB, below the allocator's 128 KB mmap
# threshold (2^16-cell blocks raised peak RSS by 0.5 MB on the 2^7 semiring)
ASSOCIATIVITY_BLOCK = 1 << 14
EXACT_TOL = 1e-12  # additivity / regularity comparisons are essentially exact

Structure = Union["Semilogic", Quasilogic]


class Semilogic:
    """Immutable finite semilogic; ``prod[a, b] = -1`` where undefined."""

    def __init__(self, poset: FinitePoset, prod: np.ndarray):
        prod = np.asarray(prod, dtype=np.int16)
        if prod.shape != (poset.n, poset.n):
            raise StructuralError("product table shape mismatch", shape=list(prod.shape))
        if ((prod < -1) | (prod >= poset.n)).any():
            a, b = (int(x) for x in np.argwhere((prod < -1) | (prod >= poset.n))[0])
            raise StructuralError(
                "product value out of range", a=poset.labels[a], b=poset.labels[b]
            )
        if (prod != prod.T).any():
            a, b = (int(x) for x in np.argwhere(prod != prod.T)[0])
            raise StructuralError(
                "product table asymmetric", a=poset.labels[a], b=poset.labels[b]
            )
        self.poset = poset
        self.prod = prod
        self.n = poset.n
        self.labels = poset.labels
        self._families: FamilyTable | StructuralError | None = None

    def index(self, label: str) -> int:
        return self.poset.index(label)

    def zero(self) -> int | None:
        return self.poset.least()

    # -- orthogonal families --------------------------------------------------

    def _all_orthogonal_families(self) -> FamilyTable:
        """Every pairwise-orthogonal zero-free subset with its sup (-1: none), built once.

        StructuralError past ``MAX_FAMILIES`` families, the empty one included;
        the error is kept, so later calls raise it again without a second walk.
        """
        if self._families is None:
            try:
                self._families = self._family_levels(MAX_FAMILIES)
            except StructuralError as exc:
                self._families = exc
        if isinstance(self._families, StructuralError):
            raise self._families.with_traceback(None)
        return self._families

    def _family_levels(self, cap: int | None = None, most: int | None = None) -> FamilyTable:
        """The orthogonal families of at most ``most`` members, in (size, members) order.

        Level 0 is the empty family, whose sup is the least element; the
        rest are ``orthogonal_levels`` of the nonzero elements, with sups
        folded over the join table on a partial order and scanned elsewhere.
        """
        z, ups, levels = self.zero(), self.poset.upsets(), []
        if z is not None:
            join = None if ups.by_up is None else sentinel_padded(self.poset.join_table())
            empty = ups.bound_of(ups.top)
            levels = [(np.zeros((1, 0), np.int16), np.array([-1 if empty is None else empty]))]
            nonzero = np.flatnonzero(np.arange(self.n) != z)
            # the empty family counts against the cap too
            cap = None if cap is None else cap - 1
            levels += orthogonal_levels(self.prod == z, nonzero, join, ups.bounds, cap, most)
        return FamilyTable(levels)


@dataclass
class FamilyTable:
    """Families by size: level L is (members, sups), with members (m, L) int16.

    Each row lists its members in increasing order and the rows of a level
    are in lexicographic order, so the levels list the families in (size,
    members) order. sups is (m,), -1 where a family has no sup. ``len``
    counts the families.
    """

    levels: list[tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return sum(len(sups) for _, sups in self.levels)

    def summable(self, min_size: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per level of at least ``min_size`` members, the rows that have a sup."""
        for members, sups in self.levels[min_size:]:
            yield members[sups >= 0], sups[sups >= 0]


def orthogonal_levels(
    orth: np.ndarray,
    elems: np.ndarray,
    join: np.ndarray | None,
    bounds: Callable[[np.ndarray], np.ndarray] | None = None,
    cap: int | None = None,
    most: int | None = None,
    follow: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Nonempty pairwise-orthogonal subsets of ``elems``: the ``FamilyTable`` levels from 1 up.

    With ``most``, only the levels of at most that many members are built.

    A family's packed ``allowed`` row holds the elements that may follow its
    last member: of larger id and orthogonal to every member. The set bits
    of level L's rows, read in row-major order from their nonzero bytes, are
    the rows of level L + 1, again in lexicographic order. Their popcount
    sizes the next level, so past ``cap`` families in all StructuralError is
    raised before that level is allocated.

    ``join`` is a sentinel-padded join table. A singleton is its own sup
    and a child's is join[sup(parent), y]: on a partial order the upper
    bounds of {sup(parent), y} are the family's. Where the parent has no
    sup, ``bounds(members)`` gives the child's, if given. Without ``join``
    every sup comes from ``bounds``.

    ``follow`` holds packed rows by sup: children are then only the allowed
    y in follow[sup]. The empty family's sup is -1, so the singletons are
    the elements in follow[-1], with the sups join[-1, y].
    """
    n, ids = orth.shape[0], np.arange(orth.shape[0])
    after = np.packbits(orth & np.isin(ids, elems) & (ids > ids[:, None]), axis=1)
    members = np.asarray(elems, dtype=np.int16)[:, None]
    if follow is not None:
        members = members[np.unpackbits(follow[-1], count=n)[members[:, 0]] > 0]
        sups = join[-1, members[:, 0]]
    else:
        sups = members[:, 0] if join is not None else bounds(members)
    allowed = after[members[:, 0]]
    count, levels, size = 0, [], len(members)
    while size and (most is None or len(levels) < most):
        count += size
        if cap is not None and count > cap:
            raise StructuralError("orthogonal family count exceeds enumeration cap")
        if levels:
            cells = np.flatnonzero(expand)  # the nonzero bytes, row-major
            hit, bit = np.nonzero(np.unpackbits(expand.ravel()[cells][:, None], axis=1))
            parent, last = np.divmod(cells[hit] * 8 + bit, 8 * expand.shape[1])
            members = np.concatenate([members[parent], last[:, None].astype(np.int16)], axis=1)
            allowed, parents = allowed[parent] & after[last], sups[parent]
            if join is None:
                sups = bounds(members)
            else:
                sups = join.ravel()[parents.astype(np.intp) * (n + 1) + last]
                if bounds is not None and (parents < 0).any():
                    sups[parents < 0] = bounds(members[parents < 0])
        levels.append((members, sups))
        expand = allowed if follow is None else allowed & follow[sups]
        size = int(BYTE_BITS[expand].sum())
    return levels


def family_blocks(count: int, row_entries: int) -> Iterator[slice]:
    """Slices of ``count`` rows of ``row_entries`` entries: at most ``FAMILY_BLOCK``, or one row."""
    step = max(1, FAMILY_BLOCK // max(1, row_entries))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def family_residual_blocks(
    values: np.ndarray, members: np.ndarray, sups: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, residual) per ``family_blocks`` slice of a level: ``values[sup]`` minus the family sum.

    A sup of -1 reads a zero row, which gives minus the family sum. Each sum
    runs from 0 over the members left to right, like the builtin ``sum``, so
    every float is the one a loop over single families gives, and no
    temporary grows with the family count.
    """
    values = np.asarray(values)
    padded = np.zeros((values.shape[0] + 1, *values.shape[1:]), dtype=values.dtype)
    padded[:-1] = values
    for rows in family_blocks(len(members), values[0].size):
        block = members[rows]
        total = np.zeros((len(block), *values.shape[1:]), dtype=values.dtype)
        for col in block.T:
            total += padded[col]
        yield rows.start, padded[sups[rows]] - total


def family_residuals(
    values: np.ndarray, members: np.ndarray, sups: np.ndarray, eps: float = 0.0
) -> np.ndarray:
    """``family_residual_blocks`` per row of one level, a matrix residual reduced to a norm.

    ``values`` stacks scalars ``(n,)`` or matrices ``(n, d, d)``. A matrix
    residual is reduced by ``screened_op_norms``: its exact operator norm
    where that exceeds ``eps``, and elsewhere a Frobenius bound that is at
    most ``eps``; so ``> eps`` reads the same either way, and every gap above
    eps is the exact norm. The default eps of 0 gives exact norms throughout.
    """
    scalar = np.ndim(values) == 1
    out = np.empty(len(members))
    for lo, residual in family_residual_blocks(values, members, sups):
        out[lo : lo + len(residual)] = residual if scalar else screened_op_norms(residual, eps)
    return out


def additivity_witnesses(
    labels: Sequence[str],
    levels: Iterable[tuple[np.ndarray, np.ndarray]],
    values: np.ndarray,
    tol: float,
    eps: float = 0.0,
    sign: float = 1.0,
) -> Witnesses:
    """The families whose gap, ``sign`` times its residual, exceeds ``tol``.

    ``levels`` yields (members, sups) as ``FamilyTable`` levels do; the
    residuals are ``family_residuals`` with ``eps``.
    """
    out = Witnesses()
    for members, sups in levels:
        gaps = sign * family_residuals(values, members, sups, eps)
        out.add(
            np.abs(gaps) > tol,
            lambda i: {
                "family": [labels[x] for x in members[i].tolist()],
                "sum": labels[sups[i]],
                "gap": float(gaps[i]),
            },
        )
    return out


def summable_families(s: Semilogic) -> list[tuple[tuple[int, ...], int]]:
    """Pairwise-orthogonal families whose sup exists, smallest first.

    Includes the empty family (sum 0) and all nonzero singletons.
    """
    return [
        fam
        for members, sups in s._all_orthogonal_families().summable()
        for fam in zip(map(tuple, members.tolist()), sups.tolist())
    ]


def _sum_families(q: Quasilogic) -> FamilyTable:
    """Nonzero families with a defined fold z + x1 + ... + xk (the sup) in (size, members) order.

    ``orthogonal_levels`` under no orthogonality, with the partial sums as
    ``join`` and their defined cells as ``follow``; StructuralError past
    ``MAX_FAMILIES`` families, the empty one included.
    """
    z, n = q.zero(), q.n
    if z is None:
        return FamilyTable([])
    sums = sentinel_padded(q._sum_info().value)
    sums[n] = sums[z]  # the empty family's row
    sums[:, z] = -1  # zero never joins a family
    follow, every = np.packbits(sums[:, :n] >= 0, axis=1), np.ones((n, n), dtype=bool)
    try:
        levels = orthogonal_levels(every, np.arange(n), sums, cap=MAX_FAMILIES - 1, follow=follow)
    except StructuralError:
        raise StructuralError("summable family count exceeds enumeration cap") from None
    return FamilyTable([(np.zeros((1, 0), np.int16), np.array([z])), *levels])


def difference_table(s: Semilogic, companion: Quasilogic | None = None) -> np.ndarray:
    """``table[top, a]`` = top - a as an n x n int16 table, -1 where undefined.

    With a companion this is its difference table, which must be on the same
    labels. Without one it holds the unique relative complements: for each a,
    the x with a ^ x = 0 are counted by their join a v x, and a join reached
    by exactly one such x has that x as its difference.
    """
    if companion is not None:
        if companion.labels != s.labels:
            raise StructuralError(
                "companion labels differ from the semilogic", size=companion.n
            )
        return companion.diff
    n, z = s.n, s.zero()
    table = np.full((n, n), -1, dtype=np.int16)
    if z is None:
        return table
    a, x = np.nonzero(s.poset.meet_table() == z)
    top = s.poset.join_table()[a, x].astype(np.intp)
    a, x, top = a[top >= 0], x[top >= 0], top[top >= 0]
    unique = np.bincount(a * n + top, minlength=n * n)[a * n + top] == 1
    table[top[unique], a[unique]] = x[unique]
    return table


def family_mask(n: int, fam: Sequence[int], undefined: bool) -> np.ndarray:
    """Membership in ``fam`` of range(n), padded with one entry for -1.

    ``mask[table[...]]`` then says per cell whether a table result stays in the
    family, and the last entry says what an undefined result (-1) counts as.
    """
    mask = np.zeros(n + 1, dtype=bool)
    mask[fam] = True
    mask[n] = undefined
    return mask


# -- verification -------------------------------------------------------------


def verify_semilogic(s: Semilogic) -> VerificationReport:
    rep = VerificationReport(subject="semilogic")
    rep.merge(verify_poset(s.poset))
    labels, prod, le, n = s.labels, s.prod, s.poset.le, s.n
    z = s.zero()
    rep.record("zero-element", [] if z is not None else [{"reason": "no least element"}])

    if z is not None:
        rep.record("zero-product", prod[z] != z, labelled(labels, "a"))
    rep.record("idempotent", np.diag(prod) != range(n), labelled(labels, "a"))

    rep.record(
        "order-coherence",
        le != (prod == np.arange(n)[:, None]),
        lambda a, b: {"a": labels[a], "b": labels[b]}
        | {"reason": "a <= b needs ab = a" if le[a, b] else "ab = a needs a <= b"},
    )

    mt = s.poset.meet_table()
    not_meet = np.triu((prod >= 0) & (mt != prod))
    rep.record("product-is-meet", not_meet, labelled(labels, "a", "b"))

    total = bool((prod >= 0).all())
    meet = total and _meet_is_associative(s)
    rep.record("restricted-associativity", [] if meet else _associativity_violations(s, total))

    # past MAX_FAMILIES there is no table, and the two checks below decide
    # what the orthogonal pairs decide; the rest stays a StructuralError
    try:
        table: FamilyTable | None = s._all_orthogonal_families()
    except StructuralError as exc:
        table, past_cap = None, exc

    # product distributes over realized sums: a(sum a_i) = sum(a a_i); the
    # pairs first where they decide, then the families above them if needed
    additivity = Witnesses()
    if z is not None:
        decided = _pairs_decide_additivity(s, rep)
        if table is not None and not decided:
            _product_additivity(s, z, table.summable(1), additivity)
        else:
            pairs = table.levels[:3] if table is not None else s._family_levels(most=2).levels
            _product_additivity(s, z, FamilyTable(pairs).summable(1), additivity)
            if table is not None and additivity.count:
                _product_additivity(s, z, table.summable(3), additivity)
            elif table is None and not (decided or additivity.count):
                raise past_cap
    rep.record("product-additivity", additivity)

    # every defined product must come from a common orthogonal refinement
    compat = []
    if z is not None:
        a, b = np.nonzero(np.triu(prod >= 0))
        left = ~_certified_refinements(s, z, a, b)
        if left.any():
            if table is None:
                raise past_cap
            by_sup, joins = _decompositions(s, z), {}
            compat = [
                {"a": labels[a], "b": labels[b]}
                for a, b in zip(a[left].tolist(), b[left].tolist())
                if not _has_common_refinement(s, by_sup, joins, a, b, int(prod[a, b]))
            ]
    rep.record("compatibility-decomposition", compat)

    if table is not None:
        rep.facts["orthogonal_family_count"] = len(table)
    else:
        rep.facts["orthogonal_family_count_exceeds"] = MAX_FAMILIES
        if additivity.count:
            rep.facts["product_additivity_count"] = "lower bound: families of at most two members"
    if z is not None:
        rep.facts["zero"] = labels[z]
    return rep


def _meet_is_associative(s: Semilogic) -> bool:
    """Whether a total product passes restricted associativity without the scan.

    It does when ``le`` is a partial order and the product equals the meet
    table on every cell, both triangles (``product-is-meet`` reads only the
    upper one). Then every meet exists, so (ab)c = inf{inf{a, b}, c} =
    inf{a, b, c} = inf{inf{b, c}, a} = (bc)a, and every product and grouping
    is defined. The order is needed: on a relation that is not transitive a
    lower bound of inf{a, b} need not lie below a.
    """
    return s.poset.upsets().by_up is not None and bool((s.prod == s.poset.meet_table()).all())


def _associativity_violations(s: Semilogic, total: bool) -> Witnesses:
    """Cells [a, b, c] with ab, bc and ca defined where (ab)c is not (bc)a, row-major.

    Rows a are read in blocks of ``ASSOCIATIVITY_BLOCK`` cells. Through the
    padded table an undefined grouping reads -1; on a ``total`` product every
    cell and grouping is defined, so the two are compared alone.
    """
    labels, prod, n = s.labels, s.prod, s.n
    padded, assoc = sentinel_padded(prod), Witnesses()
    # flipped[a, x] = padded[x, a]; take with intp ids gathers a row a's (bc)a
    # at a quarter of the cost of indexing with the int16 table
    flipped, ids = np.ascontiguousarray(padded.T), prod.astype(np.intp)
    rows = max(1, ASSOCIATIVITY_BLOCK // (n * n))
    for lo in range(0, n, rows):
        block = slice(lo, min(lo + rows, n))  # the padded table has one column more
        ab_c = padded[prod[block], :n]
        bc_a = flipped[block].take(ids, axis=1)
        bad, grouped = ab_c != bc_a, None
        if not total:
            grouped = (ab_c < 0) | (bc_a < 0)
            defined = (prod[block] >= 0)[:, :, None] & (prod >= 0)
            bad = defined & (prod[:, block] >= 0).T[:, None] & (grouped | bad)

        def cell(a: int, b: int, c: int) -> dict:
            w = {"a": labels[lo + a], "b": labels[b], "c": labels[c]}
            if grouped is not None and grouped[a, b, c]:
                w["reason"] = "grouped product undefined"
            return w

        assoc.add(bad, cell)
    return assoc


PAIR_AXIOMS = ("zero-product", "idempotent", "order-coherence", "restricted-associativity")


def _pairs_decide_additivity(s: Semilogic, rep: VerificationReport) -> bool:
    """Whether product-additivity on the families of at most two members decides it on all.

    It does when the poset is a lattice, the product is total and the
    ``PAIR_AXIOMS`` passed in ``rep``. The product is then the meet: it is
    associative (restricted associativity with every product defined),
    commutative and idempotent, so (ab)a = ab = (ab)b, which is ab <= a and
    ab <= b by order coherence; and c <= a, c <= b give c(ab) = (ca)b = c,
    so c <= ab. Orthogonal means x ^ y = 0, and the images a ^ x, a ^ y of
    distinct orthogonal members meet in a ^ x ^ y = 0, so they are neither
    equal and nonzero nor have a nonzero product: ``_product_additivity``
    gives no reason, and fails a family F for a exactly when a ^ sup F is not
    the join of the a ^ x over x in F, folded over the join table, which a
    lattice defines everywhere.

    Suppose no family of at most two members fails. Let F = G + {y} with y
    outside G, G of k >= 2 members, t = sup G, and no family of k or fewer
    members failing for any a. With a = y, y ^ t is the join of y ^ x over
    x in G, which is 0. t >= x > 0 for x in G, and t != y, else y = y ^ t =
    0. So {t, y} is a two-member orthogonal family with sup t v y = sup F,
    and for every a, a ^ sup F = (a ^ t) v (a ^ y) = (join of a ^ x over G)
    v (a ^ y), which is F's fold in any member order: F does not fail. By induction on the size no
    family fails (Foulis and Bennett, "Effect algebras and unsharp quantum
    logics", Found. Phys. 24, 1994, argue the same way for effect algebras).
    """
    mt, jt = s.poset.meet_table(), s.poset.join_table()
    lattice = s.poset.upsets().by_up is not None and (mt >= 0).all() and (jt >= 0).all()
    return bool(lattice and (s.prod >= 0).all() and all(rep.get(c).passed for c in PAIR_AXIOMS))


def _product_additivity(
    s: Semilogic, z: int, levels: Iterable[tuple[np.ndarray, np.ndarray]], out: Witnesses
) -> None:
    """Feeds ``out`` the failures of a(sum a_i) = sum(a a_i), per (summable family, element a).

    ``levels`` yields a ``FamilyTable``'s summable (members, sups) per level.
    Each block of a level's families reads img[f, l, a] = a * member l at
    once and sums it with ``_image_sums``.
    """
    labels, prod, n = s.labels, s.prod, s.n
    image_sums = _image_sums(s, z)
    for members, sups in levels:
        size = members.shape[1]
        step = max(1, ADDITIVITY_BLOCK // (n * max(size * (size - 1) // 2, size)))
        for lo in range(0, len(members), step):
            block = members[lo : lo + step]
            img = prod[block].astype(np.int32)
            target = prod[sups[lo : lo + step]]  # [f, a] = a * sup
            defined = (img >= 0).all(axis=1)
            worst, folded = image_sums(img, defined & (target >= 0))
            summed = defined & (worst == 0) & (target >= 0)

            def cell(f: int, a: int) -> dict:
                w = {"a": labels[a], "family": [labels[m] for m in block[f].tolist()]}
                if worst[f, a] == 2:
                    w["reason"] = "image family not summable"
                elif worst[f, a] == 1:
                    w["reason"] = "image family not orthogonal"
                elif target[f, a] < 0:
                    w["reason"] = "product with sum undefined"
                return w

            out.add((defined & ~summed) | (summed & (folded != target)), cell)


def _image_sums(t: Structure, z: int) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """``image_sums(img, need)``: per family of images img[f, l, a], (worst, sums), each (f, a).

    On a semilogic, member pairs score 2 for a repeated nonzero image and 1
    for two nonzero images with a nonzero product. The sums fold the join
    table, which is exact: where sup{x, y} exists, {x, y, w} and
    {sup{x, y}, w} have the same upper bounds; rows of ``need`` scoring 0
    where a partial join is undefined take the family's upper bound. On a
    quasilogic nothing scores and the sums fold the partial sums, -1 if one fails.
    """
    n = t.n
    if isinstance(t, Quasilogic):
        padded = sentinel_padded(t._sum_info().value).astype(np.int32)
        padded[:n, z] = np.arange(n)  # x + 0 reads x: zero images are skipped
        table, score = padded.ravel(), None
    else:
        # joins as flat [x * (n + 1) + y], -1 on either side reading the -1 border;
        # a table that is not a partial order folds nothing and every row falls back
        ups, table = t.poset.upsets(), np.full((n + 1) ** 2, -1, dtype=np.int32)
        if ups.by_up is not None:
            table[:] = sentinel_padded(t.poset.join_table()).ravel()
        nonzero = np.arange(n) != z
        score = (nonzero[:, None] & nonzero & (t.prod != z)).astype(np.int8)
        score[np.diag_indices(n)] = 2 * nonzero
        score = score.ravel()  # [p * n + q]

    def image_sums(img: np.ndarray, need: np.ndarray | bool) -> tuple[np.ndarray, np.ndarray]:
        sums = np.full(img[:, 0].shape, z)  # zero is the sum's identity
        for col in img.transpose(1, 0, 2):
            sums = table[sums * (n + 1) + col]
        if score is None:
            return np.zeros(sums.shape, dtype=np.int8), sums
        i, j = np.triu_indices(img.shape[1], 1)
        worst = score[(img * n)[:, i] + img[:, j]].max(axis=1, initial=0)
        f, a = np.nonzero(need & (worst == 0) & (sums < 0))
        sums[f, a] = ups.bounds(img[f, :, a])
        return worst, sums

    return image_sums


def _certified_refinements(s: Semilogic, z: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair (a[i], b[i]) with ab defined: a common refinement known without the search.

    With p = ab, the certificate is A = {p, x} and B = {p, y}, zero members
    dropped. x is the first element by id that makes A an orthogonal family
    (p != x unless both are zero) with join a, and y the first for B and b.
    If x and y are orthogonal and distinct, unless one of them is zero, then
    every member of B is in A or orthogonal to all of A, and A and B share
    {p} minus zero, whose join is p: the search itself would accept A and B.
    The joins are the join table's, as the family table's sups are on a
    partial order; on any other relation nothing is certified.
    """
    n, prod = s.n, s.prod
    if s.poset.upsets().by_up is None:
        return np.zeros(len(a), dtype=bool)
    jt, ids = s.poset.join_table(), np.arange(n)
    fits = ((prod == z) & (ids != ids[:, None]) | (ids == z) | (ids[:, None] == z)) & (jt >= 0)
    # [p * n + (p v x)] -> the least such x, -1 if none; no sort, which would
    # page in numpy's sort code on a path that has none
    p, x = np.nonzero(fits)
    complement = np.full(n * n, n, dtype=np.intp)
    np.minimum.at(complement, p * n + jt[p, x], x)
    complement[complement == n] = -1
    ab = prod[a, b].astype(np.intp)
    x, y = complement[ab * n + a], complement[ab * n + b]
    apart = (x == z) | (y == z) | ((x != y) & (prod[x, y] == z))
    return (x >= 0) & (y >= 0) & apart


Decompositions = dict[int, list[tuple[tuple[int, ...], int, int]]]


def _decompositions(s: Semilogic, z: int) -> Decompositions:
    """Per sup, its summable families finest first (atoms refine at once).

    Each comes as (members, their bit mask, the elements in or orthogonal to
    every member).
    """
    orth_bits = row_bits(s.prod == z)
    by_sup: Decompositions = {}
    for fam, sup in reversed(summable_families(s)):
        members, allowed = 0, -1
        for x in fam:
            members |= 1 << x
            allowed &= orth_bits[x] | 1 << x
        by_sup.setdefault(sup, []).append((fam, members, allowed))
    return by_sup


def _has_common_refinement(
    s: Semilogic,
    by_sup: Decompositions,
    joins: dict[int, int | None],
    a: int,
    b: int,
    ab: int,
) -> bool:
    """Search decompositions A of a, B of b inside one orthogonal family.

    Per pair it tries at most |decompositions of a| x |decompositions of b|
    pairs of summable families (``by_sup``), each one bit test and at most
    one ``join_of`` per distinct common part (cached in ``joins``). Only the
    pairs that ``_certified_refinements`` leaves open reach it; on the valid
    fixtures, flat semilogics and horizontal sums none is left.
    """
    for fam_a, mask_a, allowed_a in by_sup.get(a, ()):
        for _, mask_b, _ in by_sup.get(b, ()):
            if mask_b & ~allowed_a:  # some pair of members is neither equal nor orthogonal
                continue
            common = mask_a & mask_b
            if common not in joins:
                joins[common] = join_of(s.poset, (x for x in fam_a if common >> x & 1))
            if joins[common] == ab:
                return True
    return False


# -- distributions ------------------------------------------------------------


@dataclass
class DistributionTable:
    """Nonnegative weights per element, additive over summable families."""

    values: np.ndarray

    @classmethod
    def from_dict(cls, s: Semilogic, data: Mapping[str, float]) -> "DistributionTable":
        vals = np.zeros(s.n, dtype=float)
        for label, v in data.items():
            vals[s.index(label)] = float(v)
        return cls(vals)


def verify_distribution(
    s: Semilogic, m: DistributionTable, tol: float = EXACT_TOL
) -> VerificationReport:
    vals = np.asarray(m.values, dtype=float)
    if vals.shape != (s.n,):
        raise DomainError("distribution length mismatch", length=len(vals))
    if (vals < 0).any():
        i = int(np.flatnonzero(vals < 0)[0])
        raise DomainError("negative distribution value", element=s.labels[i])

    rep = VerificationReport(subject="distribution")
    z = s.zero()
    rep.record(
        "zero-value",
        [] if z is not None and abs(vals[z]) <= tol else [{"value": float(vals[z]) if z is not None else None}],
    )
    falls = s.poset.le & (vals[:, None] > vals + tol)
    rep.record("monotone", falls, labelled(s.labels, "a", "b"))
    # gap: the family sum minus the value of its sup
    summable = s._all_orthogonal_families().summable(2)
    rep.record("additive", additivity_witnesses(s.labels, summable, vals, tol, sign=-1.0))
    mass = distribution_mass(s, vals)
    rep.facts["mass"] = mass
    rep.facts["is_probability"] = abs(mass - 1.0) <= tol
    rep.facts["is_state"] = rep.facts["is_probability"] and bool(
        (np.abs(vals - 1.0) <= tol).any()
    )
    return rep


def distribution_mass(s: Semilogic, vals: np.ndarray) -> float:
    """Largest sum of ``vals`` over a nonempty orthogonal family; 0.0 if none is positive."""
    mass = 0.0
    for members, _ in s._all_orthogonal_families().levels[1:]:
        sums = -family_residuals(vals, members, np.full(len(members), -1))
        mass = max(mass, float(sums[sums > 0.0].max(initial=0.0)))
    return mass


@dataclass(frozen=True)
class Filter:
    members: frozenset[int]


@dataclass(frozen=True)
class Ideal:
    members: frozenset[int]


def support(
    s: Semilogic, p: DistributionTable, tol: float = EXACT_TOL
) -> tuple[Filter, VerificationReport]:
    """Certain elements {c : p(c) = 1} of a state; verified as a filter."""
    dist_rep = verify_distribution(s, p, tol)
    if not (dist_rep.ok and dist_rep.facts["is_state"]):
        raise DomainError("distribution is not a state")
    members = frozenset(int(i) for i in np.flatnonzero(np.abs(p.values - 1.0) <= tol))
    filt = Filter(members)
    rep = verify_filter(s, filt)
    return filt, rep


def verify_filter(s: Semilogic, f: Filter) -> VerificationReport:
    members = _members_in_range(s, sorted(f.members), "filter")
    if not members.size:
        raise DomainError("empty filter")
    if members.size == s.n:
        raise DomainError("filter is the whole structure")
    rep = VerificationReport(subject="filter")
    z, labels, prod, n = s.zero(), s.labels, s.prod, s.n
    inside = family_mask(n, members, False)
    rep.record("no-zero", [{"zero": labels[z]}] if z is not None and inside[z] else [])
    rep.record(
        "upward-closed",
        inside[:n, None] & s.poset.le & ~inside[:n],
        labelled(labels, "member", "above"),
    )
    rep.record(
        "product-closed",
        inside[:n, None] & inside[:n] & (prod >= 0) & ~inside[prod],
        lambda a, b: {"a": labels[a], "b": labels[b], "product": labels[prod[a, b]]},
    )
    # maximal iff every outside element is annihilated by some member
    annihilated = s.poset.meet_table()[np.ix_(~inside[:n], inside[:n])] == z
    rep.facts["maximal"] = bool(annihilated.any(axis=1).all())
    rep.facts["members"] = sorted(labels[x] for x in members)
    return rep


def verify_ideal(s: Semilogic, d: Ideal) -> VerificationReport:
    members = _members_in_range(s, sorted(d.members), "ideal")
    if not members.size:
        raise DomainError("empty ideal")
    if members.size == s.n:
        raise DomainError("ideal is the whole structure")
    rep = VerificationReport(subject="ideal")
    labels, mt, n = s.labels, s.poset.meet_table(), s.n
    inside = family_mask(n, members, True)  # an undefined meet leaves nothing outside
    rep.record(
        "meet-absorbing",
        inside[:n] & ~inside[mt],
        lambda a, b: {"a": labels[a], "b": labels[b], "meet": labels[mt[a, b]]},
    )
    levels = list(s._all_orthogonal_families().summable(1))
    outside = Witnesses()
    for fams, sups in levels:
        outside.add(
            inside[fams].all(axis=1) & ~inside[sups],
            lambda i: {"family": [labels[x] for x in fams[i].tolist()], "sum": labels[sups[i]]},
        )
    rep.record("sum-closed", outside)
    # an outside y with meet(x, y) = x has x in its closure, so once x generates
    # everything y is settled; smaller down-sets go first
    settled, maximal = inside[:n].copy(), True
    for x in np.argsort(s.poset.le.sum(axis=0), kind="stable").tolist():
        if not settled[x]:
            maximal = _ideal_closure(s, inside[:n] | (np.arange(n) == x), levels).all()
            if not maximal:
                break
            settled |= mt[x] == x
    rep.facts["maximal"] = bool(maximal)
    rep.facts["members"] = sorted(labels[x] for x in members)
    return rep


def _members_in_range(s: Semilogic, fam: Sequence[int], what: str, **where: str) -> np.ndarray:
    """``fam`` as an id array; DomainError naming the first member outside range(n)."""
    fam = np.asarray(fam, dtype=np.intp)
    stray = fam[(fam < 0) | (fam >= s.n)]
    if stray.size:
        raise DomainError(f"{what} member out of range", **where, member=int(stray[0]))
    return fam


def _ideal_closure(s: Semilogic, seed: np.ndarray, levels: list) -> np.ndarray:
    """The least superset of the ``seed`` mask closed under meets with any element and under sums.

    ``levels`` is ``list(FamilyTable.summable(1))``, built once by the
    caller. A summable family is inside when all of its members are, and
    then its sup must be inside too.
    """
    mt, cur = s.poset.meet_table(), seed
    while True:
        grown, meets = cur.copy(), mt[:, cur]
        grown[meets[meets >= 0]] = True
        for members, sups in levels:
            grown[sups[cur[members].all(axis=1)]] = True
        if (grown == cur).all():
            return cur
        cur = grown


# -- homomorphisms -------------------------------------------------------------


@dataclass
class HomomorphismMap:
    source: Structure
    target: Structure
    mapping: np.ndarray  # source element -> target element

    @classmethod
    def from_dict(
        cls, source: Structure, target: Structure, data: Mapping[str, str]
    ) -> "HomomorphismMap":
        arr = np.full(source.n, -1, dtype=np.int16)
        for k, v in data.items():
            arr[source.index(k)] = target.index(v)
        if (arr < 0).any():
            missing = source.labels[int(np.flatnonzero(arr < 0)[0])]
            raise StructuralError("homomorphism map incomplete", element=missing)
        return cls(source, target, arr)


def verify_homomorphism(h: HomomorphismMap) -> VerificationReport:
    """Zero, order, sums, and where both sides have them differences and commutation, kept."""
    rep = VerificationReport(subject="homomorphism")
    src, tgt, f = h.source, h.target, h.mapping
    if f.shape != (src.n,) or (f < 0).any() or (f >= tgt.n).any():
        raise StructuralError("homomorphism map out of range")
    sl, tl = src.labels, tgt.labels

    sz, tz = src.zero(), tgt.zero()
    rep.record(
        "zero-preserved",
        []
        if sz is not None and tz is not None and f[sz] == tz
        else [{"zero": sl[sz] if sz is not None else None}],
    )

    falls = src.poset.le & ~tgt.poset.le[np.ix_(f, f)]
    rep.record("monotone", falls, labelled(sl, "a", "b"))

    table = src._all_orthogonal_families() if isinstance(src, Semilogic) else _sum_families(src)
    image_sums, additive = None if tz is None else _image_sums(tgt, tz), Witnesses()
    for members, sups in table.summable(2):
        step = max(1, ADDITIVITY_BLOCK // members.shape[1] ** 2)
        for lo in range(0, len(members), step):
            block, want = members[lo : lo + step], f[sups[lo : lo + step], None]
            got = np.full(want.shape, -1)  # the sum of the images, -1 if none
            if image_sums is not None:
                worst, got = image_sums(f[block].astype(np.int32)[:, :, None], True)
                got[worst > 0] = -1
            additive.add(
                got != want,
                lambda i, _: {
                    "family": [sl[x] for x in block[i].tolist()],
                    "expected": tl[want[i, 0]],
                    "got": tl[got[i, 0]] if got[i, 0] >= 0 else None,
                },
            )
    rep.record("additive", additive)

    if isinstance(src, Quasilogic) and isinstance(tgt, Quasilogic):
        # [b, a]: b - a defined, and f(b) - f(a) undefined or not f(b - a)
        moved = (src.diff >= 0) & (tgt.diff[np.ix_(f, f)] != f[src.diff])
        rep.record("subtraction-preserved", moved, labelled(sl, "b", "a"))

    if isinstance(tgt, Quasilogic) and is_logic(tgt):
        commutes = src.prod >= 0 if isinstance(src, Semilogic) else commutation_table(src)
        lost = np.triu(commutes & ~commutation_table(tgt)[np.ix_(f, f)])
        rep.record("commutation-preserved", lost, labelled(sl, "a", "b"))
    else:
        rep.facts["commutation-check"] = "skipped (target is not a logic)"
    return rep


# -- closures -------------------------------------------------------------------


@dataclass
class ClosurePair:
    kmap: np.ndarray  # element -> its closure

    @classmethod
    def from_dict(cls, s: Semilogic, data: Mapping[str, str]) -> "ClosurePair":
        arr = np.full(s.n, -1, dtype=np.int16)
        for k, v in data.items():
            arr[s.index(k)] = s.index(v)
        if (arr < 0).any():
            raise StructuralError("closure map incomplete")
        return cls(arr)


def verify_closure(
    s: Semilogic, cp: ClosurePair, companion: Quasilogic | None = None
) -> VerificationReport:
    """Closure axioms, the closed/open element sets and the interior map.

    a is open when c - a is closed for every closed c above a. Differences
    come from ``difference_table(s, companion)``; an undefined one leaves its
    pair undecided, and ``openness_indeterminate_pairs`` counts those met
    before each a's first non-closed difference. The family checks read one
    bound or difference table through a ``family_mask``, and the interior of
    a is the join of the opens below it, taken from one bool matmul.
    """
    k = np.asarray(cp.kmap, dtype=np.int16)
    if k.shape != (s.n,) or (k < 0).any() or (k >= s.n).any():
        raise StructuralError("closure map out of range")
    diff = difference_table(s, companion)
    rep = VerificationReport(subject="closure")
    labels, le, n = s.labels, s.poset.le, s.n
    mt, jt, elems = s.poset.meet_table(), s.poset.join_table(), np.arange(n)
    z = s.zero()

    rep.record("closure-idempotent", k[k] != k, labelled(labels, "a"))
    rep.record(
        "closure-zero",
        [] if z is not None and k[z] == z else [{"zero": labels[z] if z is not None else None}],
    )
    rep.record("closure-extensive", ~le[elems, k], labelled(labels, "a"))
    moved = np.triu((jt >= 0) & (jt[np.ix_(k, k)] != k[jt]))
    rep.record("closure-join", moved, labelled(labels, "a", "b"))

    closed = np.flatnonzero(k == elems)
    # [c, a] over closed c above a: c - a defined and not closed, or undefined
    above = le[:, closed].T
    not_closed = above & ~family_mask(n, closed, True)[diff[closed]]
    undecided = above & (diff[closed] < 0)
    opens = np.flatnonzero(~not_closed.any(axis=0))
    indeterminate = int((undecided & ~np.logical_or.accumulate(not_closed, axis=0)).sum())

    for name, table, fam, keys in (
        ("open-meet-open", mt, opens, ("i1", "i2")),
        ("closed-meet-closed", mt, closed, ("k1", "k2")),
        ("closed-join-closed", jt, closed, ("k1", "k2")),
    ):
        leaves = ~family_mask(n, fam, True)[table[np.ix_(fam, fam)]]
        named = labelled([labels[x] for x in fam], *keys)
        rep.record(name, np.triu(leaves, 1), named)

    up_viol = _family_violations(le, labels, opens, ("i1", "i2"), "no member above")
    rep.record("open-upper-family", up_viol)

    # [a, c]: c is above every open below a; its bitset AND is the join's lookup key
    bounds = ~(le[opens].T @ ~le[opens])
    ups = s.poset.upsets()
    interior = [ups.bound_of(acc) for acc in row_bits(bounds)]
    rep.record("interior-defined", ({"a": labels[a]} for a, j in enumerate(interior) if j is None))

    rep.facts["closed"] = [labels[c] for c in closed]
    rep.facts["open"] = [labels[i] for i in opens]
    rep.facts["interior"] = {
        labels[a]: labels[j] if j is not None else None for a, j in enumerate(interior)
    }
    rep.facts["openness_indeterminate_pairs"] = indeterminate
    top = s.poset.greatest()
    if top is not None:
        duals = diff[top, opens]
        rep.facts["open_complements_are_closed"] = bool((duals >= 0).all()) and set(
            duals.tolist()
        ) == set(closed.tolist())
    return rep


def _family_violations(
    rel: np.ndarray, labels: Sequence[str], fam: Sequence[int], keys: tuple[str, str], reason: str
) -> Witnesses:
    """Directedness of ``fam`` toward each element a, one mask per a.

    Each a needs a member m with rel[a, m], and each pair of such members a
    common one between: rel = le checks an upper family, le.T a lower one.
    ``keys`` name the two members of a failing pair, ``reason`` an a with none.
    """
    fam = np.asarray(fam, dtype=np.intp)
    out = Witnesses()
    for a, row in enumerate(rel):
        near = fam[row[fam]]
        if not near.size:
            out.add(np.ones(1, dtype=bool), lambda _: {"a": labels[a], "reason": reason})
            continue
        sub = rel[np.ix_(near, near)]
        # common[p, q]: some member m near a with rel[m, p] and rel[m, q]
        common = sub.T @ sub
        out.add(
            ~common & (near[:, None] <= near),
            lambda p, q: {"a": labels[a], keys[0]: labels[near[p]], keys[1]: labels[near[q]]},
        )
    return out


def check_regularity(
    s: Semilogic,
    m: DistributionTable,
    upper: Sequence[int],
    lower: Sequence[int],
    companion: Quasilogic | None = None,
    tol: float = EXACT_TOL,
) -> VerificationReport:
    """m(a) must be reached from below by `lower` and from above by `upper`.

    Both families must be directed toward every element (DomainError if not).
    The sup from below and the inf from above are a masked max and min over
    ``le``. The ``opposite_families`` fact asks that i - k, read from
    ``difference_table(s, companion)``, be defined and in `upper` for every
    i in `upper` above a k in `lower`; its witness is the first failing pair.
    """
    upper = _members_in_range(s, upper, "family", which="upper")
    lower = _members_in_range(s, lower, "family", which="lower")
    diff = difference_table(s, companion)
    up_viol = _family_violations(s.poset.le, s.labels, upper, ("i1", "i2"), "no member above")
    if up_viol.count:
        raise DomainError("upper family axioms fail", which="upper", witness=up_viol.kept[0])
    low_viol = _family_violations(s.poset.le.T, s.labels, lower, ("k1", "k2"), "no member below")
    if low_viol.count:
        raise DomainError("lower family axioms fail", which="lower", witness=low_viol.kept[0])

    rep = VerificationReport(subject="regularity")
    vals, le, labels = np.asarray(m.values, dtype=float), s.poset.le, s.labels
    from_below = np.where(le[lower], vals[lower, None], -np.inf).max(axis=0)
    from_above = np.where(le[:, upper], vals[upper], np.inf).min(axis=1)
    for name, key, reached in (
        ("regular-from-below", "sup", from_below),
        ("regular-from-above", "inf", from_above),
    ):
        named = labelled(labels, "a", **{key: reached, "value": vals})
        rep.record(name, np.abs(reached - vals) > tol, named)

    outside = ~family_mask(s.n, upper, False)[diff[np.ix_(upper, lower)]]
    leaves = le[np.ix_(lower, upper)].T & outside
    rep.facts["opposite_families"] = not leaves.any()
    if leaves.any():
        i, j = np.argwhere(leaves)[0]
        rep.facts["opposite_families_witness"] = {"i": labels[upper[i]], "k": labels[lower[j]]}
    return rep
