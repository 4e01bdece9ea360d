"""Posets with a partial difference, their partial sums and classification.

The difference table ``diff[b, a] = b - a`` is defined exactly on comparable
pairs ``a <= b``. Partial sums are derived: ``a + b = c - ((c - a) - b)`` for
any majorant ``c`` with ``c - a >= b``; independence of the witness ``c`` is
verified whenever a sum is evaluated.

The table scans are flat walks over cells (``order.pivot_cells``): the pairs
of one table, each expanded into the upset or downset of a pivot element. A
summable pair whose majorants disagree, or leave the formula undefined, keeps
(i0, j0): its first admissible majorant and the first one that disagrees
with it (i0 twice when all agree on an undefined value).
"""

from __future__ import annotations

import numpy as np

from .errors import AxiomViolationError, DomainError, StructuralError
from .order import CELL_BLOCK, FinitePoset, flat_reader, is_upward_directed, packed_rows
from .order import pivot_cells, sentinel_padded, upper_cells, verify_poset
from .report import VerificationReport, Witnesses, labelled

CLASSIFICATION_LABELS = (
    "boolean-algebra",
    "quasiring",
    "logic",
    "quasilogic",
)


class Quasilogic:
    """Immutable finite quasilogic: a poset plus its difference table."""

    def __init__(self, poset: FinitePoset, diff: np.ndarray):
        diff = np.asarray(diff, dtype=np.int16)
        if diff.shape != (poset.n, poset.n):
            raise StructuralError(
                "difference table shape mismatch", shape=list(diff.shape)
            )
        bad = (diff < -1) | (diff >= poset.n)
        if bad.any():
            b, a = (int(x) for x in np.argwhere(bad)[0])
            raise StructuralError(
                "difference value out of range", b=poset.labels[b], a=poset.labels[a]
            )
        off = (diff >= 0) & ~poset.le.T  # defined although a <= b fails
        if off.any():
            b, a = (int(x) for x in np.argwhere(off)[0])
            raise StructuralError(
                "difference defined on incomparable pair",
                b=poset.labels[b],
                a=poset.labels[a],
            )
        self.poset = poset
        self.diff = diff
        self.n = poset.n
        self.labels = poset.labels
        self._sums: _SumInfo | None = None

    def index(self, label: str) -> int:
        return self.poset.index(label)

    def zero(self) -> int | None:
        return self.poset.least()

    def _sum_info(self) -> "_SumInfo":
        if self._sums is None:
            self._sums = _build_sum_info(self)
        return self._sums


class _SumInfo:
    """Per-pair summability, the sum value, and witness-dependence defects.

    ``conflicts[(a, b)] = (i0, j0)``: i0 is the first admissible majorant of
    the pair, j0 the first whose formula value differs from i0's, or i0 again
    when every admissible majorant leaves ``(c - a) - b`` undefined.
    """

    def __init__(self, n: int):
        self.summable = np.zeros((n, n), dtype=bool)
        self.value = np.full((n, n), -1, dtype=np.int16)
        # (a, b) -> (c1, c2) distinct majorants yielding different sums
        self.conflicts: dict[tuple[int, int], tuple[int, int]] = {}


def _build_sum_info(q: Quasilogic) -> _SumInfo:
    """One walk over the cells (a, c, b): c - a defined, b <= c - a, b <= c, ids b >= a.

    The pairs (a, c) expand into the downset of c - a; each cell is an
    admissible majorant c of the pair (a, b). Its value c - ((c - a) - b) is
    read through the padded difference table: -1 where the outer difference
    is undefined, -2 where the inner one is. Per pair a·n + b,
    ``np.minimum.at`` keeps the least c·512 + value + 2: i0 and its value.
    For each a the blocks come in ascending c, so that value is known from
    the block where the pair first appears, and j0 is the least c differing.
    """
    le, n = q.poset.le, q.n
    diff = sentinel_padded(q.diff)
    diff[:n, n] = -2  # where (c - a) - b is -1, c - ((c - a) - b) reads -2
    first = np.full(n * n, 2**31 - 1, dtype=np.int32)
    j0 = np.full(n * n, n, dtype=np.int16)
    for pa, pc, r, b in pivot_cells(q.diff.T >= 0, lambda a, c: q.diff[c, a], le.T):
        a, c = pa[r], pc[r]
        keep = (b >= a) & le[b, c]
        a, b, c = a[keep], b[keep], c[keep]
        key = a.astype(np.int32) * n + b
        vals = diff[c, diff[diff[c, a], b]]
        np.minimum.at(first, key, c.astype(np.int32) * 512 + vals + 2)
        other = vals != first[key] % 512 - 2
        np.minimum.at(j0, key[other], c[other])
    pairs = np.flatnonzero(first < 2**31 - 1)
    a, b = np.divmod(pairs, n)
    i0, v0 = np.divmod(first[pairs], 512)
    v0, j0 = v0 - 2, j0[pairs]
    split = j0 < n
    ok = ~split & (v0 >= 0)
    info = _SumInfo(n)
    info.summable[a, b] = info.summable[b, a] = True
    info.value[a[ok], b[ok]] = info.value[b[ok], a[ok]] = v0[ok]
    for k in np.flatnonzero(~ok).tolist():
        pair, i = (int(a[k]), int(b[k])), int(i0[k])
        info.conflicts[pair] = info.conflicts[pair[::-1]] = (i, int(j0[k]) if split[k] else i)
    return info


# -- verification -----------------------------------------------------------


def verify_quasilogic(q: Quasilogic) -> VerificationReport:
    """Full axiom scan: difference axioms, directedness, unique zero."""
    rep = VerificationReport(subject="quasilogic")
    rep.merge(verify_poset(q.poset))
    le, diff, labels, n = q.poset.le, q.diff, q.labels, q.n

    missing = le.T & (diff < 0)  # a <= b without b - a
    rep.record("difference-domain", missing, labelled(labels, "b", "a"))

    # every defined b - a = d, row-major: d <= b, then b - d = a
    bs, as_ = np.nonzero(diff >= 0)
    ds = diff[bs, as_]
    inside = le[ds, bs]
    back = diff[bs, ds]
    rep.record(
        "difference-bound",
        ~inside, lambda k: {"b": labels[bs[k]], "a": labels[as_[k]], "diff": labels[ds[k]]}
    )
    rep.record(
        "difference-cancellation",
        inside & (back != as_),
        lambda k: {"b": labels[bs[k]], "a": labels[as_[k]]}
        | {"got": labels[back[k]] if back[k] >= 0 else None},
    )

    # the chains a <= b <= c with b - a and c - a defined, row-major: the pairs
    # (a, b) with b - a defined, each expanded into the upset of b
    names = (
        "minuend-monotone",
        "minuend-difference-identity",
        "subtrahend-antitone",
        "subtrahend-difference-identity",
    )
    viols = [Witnesses() for _ in names]
    get, below = flat_reader(diff), flat_reader(le)
    for pa, pb, r, c in pivot_cells(diff.T >= 0, lambda a, b: b, le):
        ca = get(c, pa[r])
        r, c, ca = r[ca >= 0], c[ca >= 0], ca[ca >= 0]
        a, b = pa[r], pb[r]
        ba, cb = get(b, a), get(c, b)
        # cells where c - b is undefined read some entry below and are masked out
        defined = cb >= 0
        mono = ~below(ba, ca)  # b - a <= c - a fails
        anti = defined & ~below(cb, ca)  # c - b <= c - a fails
        found = (
            mono,
            defined & ~mono & (get(ca, ba) != cb),  # (c-a) - (b-a) = c - b
            anti,
            defined & ~anti & (get(ca, cb) != ba),  # (c-a) - (c-b) = b - a
        )
        for viol, bad in zip(viols, found):
            viol.add(bad, lambda k: {"a": labels[a[k]], "b": labels[b[k]], "c": labels[c[k]]})
    for name, viol in zip(names, viols):
        rep.record(name, viol)

    directed, pair = is_upward_directed(q.poset)
    rep.record("upward-directed", [] if directed else [{"a": pair[0], "b": pair[1]}])

    aa = np.diag(diff)
    zs = np.flatnonzero(np.bincount(aa[aa >= 0], minlength=n))  # the values a - a, ascending
    rep.record("zero-unique", [{"z1": labels[zs[0]], "z2": labels[zs[1]]}] if zs.size > 1 else [])
    least_viol = []
    if zs.size == 1:
        z = zs[0]
        rep.facts["zero"] = labels[z]
        not_above = np.flatnonzero(~le[z])[:1]
        least_viol = [{"zero": labels[z], "not_above": labels[x]} for x in not_above]
    rep.record("zero-least", least_viol)
    return rep


# -- partial sum and product -------------------------------------------------


def summable(q: Quasilogic, a: int, b: int) -> bool:
    return bool(q._sum_info().summable[a, b])


def partial_sum(q: Quasilogic, a: int, b: int) -> int:
    """a + b = c - ((c - a) - b); all admissible majorants must agree."""
    info = q._sum_info()
    if not info.summable[a, b]:
        raise DomainError(
            "pair is not summable", a=q.labels[a], b=q.labels[b]
        )
    if (a, b) in info.conflicts:
        c1, c2 = info.conflicts[(a, b)]
        raise AxiomViolationError(
            "partial sum depends on the majorant",
            a=q.labels[a],
            b=q.labels[b],
            c1=q.labels[c1],
            c2=q.labels[c2],
        )
    return int(info.value[a, b])


def quasicommutes(q: Quasilogic, a: int, b: int) -> bool:
    """True when some majorant c >= a, b has c - a <= b."""
    return len(_product_witnesses(q, a, b)) > 0


def commutation_table(q: Quasilogic) -> np.ndarray:
    """[a, b]: ``quasicommutes(q, a, b)``, some c >= b with c - a defined and c - a <= b.

    The b that a pair (a, c) with c - a defined admits are the interval
    [c - a, c]: the AND of the packed upset of c - a and downset of c. The
    pairs are formed per chunk of rows a, and their words ORed per a.
    """
    le, diff, n = q.poset.le, q.diff, q.n
    up, down = packed_rows(le), packed_rows(le.T)
    out = np.zeros_like(up)
    rows = max(1, CELL_BLOCK // n)
    for a0 in range(0, n, rows):
        a, c = np.nonzero(diff[:, a0 : a0 + rows].T >= 0)
        if a.size:
            starts = np.flatnonzero(np.diff(a, prepend=-1))
            words = up[diff[c, a0 + a]] & down[c]
            out[a0 + a[starts]] = np.bitwise_or.reduceat(words, starts, axis=0)
    return np.unpackbits(out.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _product_witnesses(q: Quasilogic, a: int, b: int) -> list[int]:
    le, diff = q.poset.le, q.diff
    d = diff[:, a]
    cand = (d >= 0) & le[a, :] & le[b, :]
    cand[cand] &= le[d[cand], b]
    return [int(c) for c in np.flatnonzero(cand)]


def quasiproduct(q: Quasilogic, a: int, b: int, c: int) -> int:
    """(ab)_c = a - (c - b) = b - (c - a) for a witness majorant c."""
    le, diff, labels = q.poset.le, q.diff, q.labels
    if not (le[a, c] and le[b, c] and diff[c, a] >= 0 and le[diff[c, a], b]):
        raise DomainError(
            "majorant does not witness quasicommutation",
            a=labels[a],
            b=labels[b],
            c=labels[c],
        )
    cb, ca = int(diff[c, b]), int(diff[c, a])
    v1 = int(diff[a, cb]) if cb >= 0 and diff[a, cb] >= 0 else -1
    v2 = int(diff[b, ca]) if diff[b, ca] >= 0 else -1
    if v1 < 0 or v1 != v2:
        raise AxiomViolationError(
            "quasiproduct formulas disagree",
            a=labels[a],
            b=labels[b],
            c=labels[c],
            left=labels[v1] if v1 >= 0 else None,
            right=labels[v2] if v2 >= 0 else None,
        )
    return v1


# -- derived identities -------------------------------------------------------


def check_de_morgan(q: Quasilogic) -> VerificationReport:
    """c - (a v b) = (c-a) ^ (c-b) and c - (a ^ b) = (c-a) v (c-b), c >= a, b.

    One walk over the cells (a, b, c) of the pairs with a meet and a join,
    reading the tables through flat takes. A cell with c - a or c - b
    undefined fails the join side with a reason, whatever its bounds read.
    """
    rep = VerificationReport(subject="de-morgan")
    labels = q.labels
    mt, jt = q.poset.meet_table(), q.poset.join_table()
    diff, meet, join = (flat_reader(t) for t in (q.diff, mt, jt))
    join_viol, meet_viol = Witnesses(), Witnesses()
    for pa, pb, r, c in upper_cells(q.poset):
        m, j = mt[pa, pb], jt[pa, pb]
        bounded = ((m >= 0) & (j >= 0))[r]  # only pairs with a meet and a join count
        r, c = r[bounded], c[bounded]
        a, b = pa[r], pb[r]
        ca, cb = diff(c, a), diff(c, b)
        undefined = (ca < 0) | (cb < 0)

        def cell(k: int) -> dict:
            w = {"a": labels[a[k]], "b": labels[b[k]], "c": labels[c[k]]}
            return w | {"reason": "difference undefined"} if undefined[k] else w

        join_viol.add(undefined | (diff(c, j[r]) != meet(ca, cb)), cell)
        meet_viol.add(~undefined & (diff(c, m[r]) != join(ca, cb)), cell)
    rep.record("difference-of-join", join_viol)
    rep.record("difference-of-meet", meet_viol)
    return rep


def check_sum_lattice_identity(q: Quasilogic) -> VerificationReport:
    """a + b = (a v b) + (a ^ b) whenever the left side and both bounds exist."""
    rep = VerificationReport(subject="sum-lattice-identity")
    info = q._sum_info()
    mt, jt = q.poset.meet_table(), q.poset.join_table()
    # value >= 0 exactly on the summable pairs without a majorant conflict
    value, labels = info.value, q.labels
    a_s, b_s = np.nonzero(np.triu((value >= 0) & (mt >= 0) & (jt >= 0)))
    jm = value[jt[a_s, b_s], mt[a_s, b_s]]
    rep.record(
        "sum-lattice-identity",
        (jm < 0) | (jm != value[a_s, b_s]),
        lambda k: {"a": labels[a_s[k]], "b": labels[b_s[k]]}
        | ({"reason": "join and meet not summable"} if jm[k] < 0 else {}),
    )
    return rep


# -- classification -----------------------------------------------------------


def is_logic(q: Quasilogic) -> bool:
    """A zero exists and only disjoint pairs are summable."""
    info = q._sum_info()
    zero = q.zero()
    return zero is not None and not np.triu(info.summable & (q.poset.meet_table() != zero)).any()


def classify(q: Quasilogic) -> str:
    """Strongest applicable label, checked strongest-first.

    quasiring demands a witness-independent quasiproduct on top of trivial
    quasicommutation; without that refinement every chain would pass the ring
    test through degenerate witnesses. The ring test asks every pair for a
    common majorant c with disjoint remainders c - a and c - b. In a finite
    partial order, majorants for every pair give a greatest element, so a
    ring is always a boolean algebra and has no label of its own; on a table
    that is not a partial order a ring without a greatest element reads
    "quasiring". Both scans walk the cells (a, b, c) of every pair a <= b,
    c above both, and reduce them per pair: each pair needs a witness, its
    witnesses one defined value, and for the ring a c with disjoint remainders.
    """
    info = q._sum_info()
    mt = q.poset.meet_table()
    zero = q.zero()
    diff, below = flat_reader(q.diff), flat_reader(q.poset.le)
    logic_p = is_logic(q)
    quasiring_p, ring_p = True, zero is not None
    if ring_p:
        disjoint = flat_reader(info.summable & (mt == zero))
    for pa, pb, r, c in upper_cells(q.poset):
        a, b = pa[r], pb[r]
        ca, cb = diff(c, a), diff(c, b)
        wit = (ca >= 0) & below(ca, b)  # c - a <= b: c witnesses quasiproduct(a, b, c)
        v1, v2 = diff(a, cb), diff(b, ca)  # a - (c - b), b - (c - a); -1 reads masked
        wr, wv = r[wit], v1[wit]
        has = np.zeros(pa.size, dtype=bool)
        has[wr] = True
        if (
            not has.all()
            or (wit & ((cb < 0) | (v1 < 0) | (v1 != v2))).any()
            or ((wr[1:] == wr[:-1]) & (wv[1:] != wv[:-1])).any()  # a second value
        ):
            quasiring_p = False
            break
        if ring_p:
            ring = np.zeros(pa.size, dtype=bool)
            ring[r[(ca >= 0) & (cb >= 0) & disjoint(ca, cb)]] = True
            ring_p = bool(ring.all())
    ring_p = ring_p and quasiring_p

    if ring_p and q.poset.greatest() is not None:
        return "boolean-algebra"
    if quasiring_p:
        return "quasiring"
    if logic_p:
        return "logic"
    return "quasilogic"
