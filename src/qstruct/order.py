"""Finite partially ordered sets as dense boolean order tables.

Elements are integer ids into a label tuple; ``le[i, j]`` holds iff element i
is below element j. Structures stay small (at most 256 elements).

Meets and joins go through a bitset view built on first use (Ait-Kaci, Boyer,
Lincoln, Nasr, "Efficient implementation of lattice operations", ACM TOPLAS
11(1), 1989): the upset of each element is a Python int, and in a partial
order a set has a join exactly when the AND of its members' upsets is the
upset of some element, which is then the join. Meets use the same view of
``le.T``. A table that is not a partial order (only a direct ``FinitePoset``
call can make one; file loading closes the order and rejects cycles) has no
such lookup, and its bounds fall back to a scan for the candidate below all
other candidates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, StructuralError
from .report import VerificationReport, labelled

MAX_ELEMENTS = 256
# operator inputs: the Hilbert-space dimension, and elements x dimension,
# the side of a dilation's Gram matrix; at the bounds a file verifies in seconds
MAX_DIM = 64
MAX_SPACE = 512
BLOCK_ROWS = 64  # rows b per first_nondistributive block
CELL_BLOCK = 2**12  # cells per pivot_cells block


def check_element_count(n: int) -> None:
    """StructuralError above ``MAX_ELEMENTS``; call it before sizing anything by n."""
    if n > MAX_ELEMENTS:
        raise StructuralError(f"too many elements ({n} > {MAX_ELEMENTS})")


def check_powerset_count(k: int) -> None:
    """``check_element_count(2**k)``, decided from k, so that no huge 2**k is formed or printed."""
    if k >= MAX_ELEMENTS.bit_length():
        count = 1 << k if k <= 64 else f"2^{k}"
        raise StructuralError(f"too many elements ({count} > {MAX_ELEMENTS})")


class FinitePoset:
    """Immutable finite poset. Do not mutate ``le`` after construction."""

    def __init__(self, labels: Sequence[str], le: np.ndarray):
        labels = tuple(str(x) for x in labels)
        check_element_count(len(labels))
        if len(set(labels)) != len(labels):
            dup = sorted({x for x in labels if labels.count(x) > 1})
            raise StructuralError("duplicate element labels", labels=dup)
        if len(labels) == 0:
            raise StructuralError("empty element list")
        le = np.asarray(le, dtype=bool)
        if le.shape != (len(labels), len(labels)):
            raise StructuralError(
                "order table shape mismatch", shape=list(le.shape), n=len(labels)
            )
        self.labels = labels
        self.le = le
        self.n = len(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._upsets: UpsetIndex | None = None
        self._downsets: UpsetIndex | None = None
        self._meet_table: np.ndarray | None = None
        self._join_table: np.ndarray | None = None

    # -- basic queries ------------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError("unknown element label", label=label) from None

    def leq(self, a: int, b: int) -> bool:
        return bool(self.le[a, b])

    def least(self) -> int | None:
        hits = np.flatnonzero(self.le.all(axis=1))
        return int(hits[0]) if hits.size else None

    def greatest(self) -> int | None:
        hits = np.flatnonzero(self.le.all(axis=0))
        return int(hits[0]) if hits.size else None

    # -- cached bitset views and bound tables ------------------------------------

    def upsets(self) -> UpsetIndex:
        """Bitset view of ``le``; its bounds are joins."""
        if self._upsets is None:
            self._upsets = UpsetIndex(self.le)
        return self._upsets

    def downsets(self) -> UpsetIndex:
        """Bitset view of ``le.T``; its bounds are meets."""
        if self._downsets is None:
            self._downsets = UpsetIndex(self.le.T)
        return self._downsets

    def meet_table(self) -> np.ndarray:
        if self._meet_table is None:
            self._meet_table = self.downsets().table()
        return self._meet_table

    def join_table(self) -> np.ndarray:
        if self._join_table is None:
            self._join_table = self.upsets().table()
        return self._join_table


class UpsetIndex:
    """Rows of a relation as int bitsets, with a principal-upset lookup.

    ``up[i]`` has bit j set iff ``rel[i, j]``. ``by_up`` maps each upset back
    to its element, and exists only when ``rel`` is a partial order; the bound
    of a set is then ``by_up.get`` of the AND of its members' upsets. Without
    it, bounds come from a scan of ``rel``.

    For whole tables the upsets are also packed as uint64 words, with the
    columns in a linear extension of the order (larger upsets first). An AND
    of upsets that is some ``up[z]`` has z as its first set bit, so ``table``
    takes the element at the first set bit and compares its words with the
    AND; a block of rows is one array expression.
    """

    def __init__(self, rel: np.ndarray):
        self.rel = rel
        self.top = (1 << rel.shape[0]) - 1
        self.up = row_bits(rel)
        by_up = {u: i for i, u in enumerate(self.up)}
        # reflexive, and transitive: no b above a has an upset outside a's (runs
        # of rows a, about 128 KB of words each); then distinct upsets are antisymmetry
        words = packed_rows(rel)
        rows = max(1, 2**14 // words.size)
        is_order = len(by_up) == len(self.up) and np.diagonal(rel).all() and not any(
            (words[b] & ~words[a + x]).any()
            for x in range(0, len(rel), rows)
            for a, b in [np.nonzero(rel[x : x + rows])]
        )
        self.by_up = by_up if is_order else None
        self._packed: tuple[np.ndarray, np.ndarray] | None = None

    def bound_of(self, acc: int) -> int | None:
        """Bound of any set whose members' upsets AND to ``acc``, or None."""
        if self.by_up is not None:
            return self.by_up.get(acc)
        mask = np.array([acc >> j & 1 for j in range(len(self.up))], dtype=bool)
        return _scan_bound(self.rel, mask)

    def bound(self, items: Iterable[int]) -> int | None:
        """Least element above every item (empty set: least element), or None."""
        acc = self.top
        for x in items:
            acc &= self.up[x]
        return self.bound_of(acc)

    def words(self) -> tuple[np.ndarray, np.ndarray]:
        """(words, ext): row i of ``rel`` as uint64 words, bit k standing for ``ext[k]``.

        ``ext`` lists the elements by decreasing upset size, which in a
        partial order puts every element before all elements above it.
        """
        if self._packed is None:
            n = len(self.up)
            # counting sort by upset size, largest first; a first np.argsort
            # would page in about 0.3 MB of sort code on the logic path
            size = self.rel.sum(axis=1)
            ext = np.nonzero(size == np.arange(n, -1, -1)[:, None])[1]
            self._packed = packed_rows(self.rel[:, ext]), ext
        return self._packed

    def table(self) -> np.ndarray:
        """Bounds of all pairs as int16; -1 where there is none.

        On an order the table is symmetric: each run of rows x is ANDed with
        the y >= its first x at once, about 128 KB of words per run, and
        mirrored. Relations that are not orders scan pair by pair.
        """
        n = len(self.up)
        if self.by_up is None:
            return self.bounds(np.indices((n, n)).reshape(2, -1).T).reshape(n, n)
        words = self.words()[0]
        out, x0 = np.empty((n, n), dtype=np.int16), 0
        while x0 < n:
            x1 = x0 + max(1, 2**14 // words.shape[1] // (n - x0))
            strip = self._element_of(words[x0:x1, None] & words[None, x0:])
            out[x0:x1, x0:], out[x0:, x0:x1] = strip, strip.T
            x0 = x1
        return out

    def bounds(self, rows: np.ndarray) -> np.ndarray:
        """Bound of the items ``rows[r]``, for each r; -1 where there is none.

        ``rows`` is (m, k) with k >= 1. On an order the upsets are ANDed as
        uint64 words, so all m rows are one numpy expression.
        """
        if self.by_up is None:
            bounds = (self.bound(row) for row in rows.tolist())
            return np.array([-1 if g is None else g for g in bounds], dtype=np.int16)
        return self._element_of(np.bitwise_and.reduce(self.words()[0][rows], axis=1))

    def _element_of(self, acc: np.ndarray) -> np.ndarray:
        """The element whose upset words are ``acc[..., :]``, else -1; see the class note."""
        words, ext = self.words()
        k = (acc != 0).argmax(axis=-1)  # first nonzero word
        word = np.take_along_axis(acc, k[..., None], axis=-1)[..., 0]
        low = word & (~word + np.uint64(1))  # lowest set bit, 2^i; frexp gives i + 1
        first = 64 * k + np.frexp(low.astype(np.float64))[1] - 1
        # an empty AND gives first = -1, and every upset holds its own bit
        z = ext[np.clip(first, 0, len(ext) - 1)]
        return np.where((words[z] == acc).all(axis=-1), z, -1)


def packed_rows(rel: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix as little-endian uint64 words: bit j of row i is ``rel[i, j]``."""
    n, m = rel.shape
    padded = np.zeros((n, -(-m // 64) * 64), dtype=bool)
    padded[:, :m] = rel
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def bool_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean matrix product: [i, j] holds iff x[i, k] and y[k, j] for some k.

    Rows of x and columns of y are packed into uint64 words and ANDed, 16
    rows at a time. No count is formed, so nothing can wrap (a uint8 count
    of 256 common terms wraps to 0). numpy's bool matmul has no BLAS path,
    and a float32 BLAS product would map OpenBLAS's buffers into every
    process that checks a logic, about 1.3 MB of resident memory.
    """
    xw, yw = packed_rows(x), packed_rows(y.T)
    out = np.empty((x.shape[0], y.shape[1]), dtype=bool)
    for r in range(0, x.shape[0], 16):
        (xw[r : r + 16, None, :] & yw).any(axis=2, out=out[r : r + 16])
    return out


def preorder_closure(rel: np.ndarray) -> np.ndarray:
    """The least reflexive and transitive relation containing rel: squared until fixed."""
    le = rel | np.eye(len(rel), dtype=bool)
    while True:
        closed = le | bool_product(le, le)
        if (closed == le).all():
            return le
        le = closed


def sentinel_padded(table: np.ndarray) -> np.ndarray:
    """Copy of an n x n table that uses -1 for "undefined", padded to (n+1) x (n+1).

    The extra last row and column are all -1, so indexing the copy with -1
    lands on them: an undefined entry stays -1 through nested lookups.
    """
    n = table.shape[0]
    out = np.full((n + 1, n + 1), -1, dtype=np.int16)
    out[:n, :n] = table
    return out


def flat_reader(table: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``get(x, y)``: ``table[x, y]`` for id arrays, one ``take`` on the raveled table.

    Nothing is padded: an index of -1 reads some entry, so callers mask it.
    """
    n, flat = table.shape[0], table.ravel()
    return lambda x, y: flat.take(np.multiply(x, n, dtype=np.int32) + y, mode="clip")


def pivot_cells(
    pairs: np.ndarray, pivot: Callable[[np.ndarray, np.ndarray], np.ndarray], rel: np.ndarray
) -> Iterator[tuple[np.ndarray, ...]]:
    """The cells (x, y, z) with ``pairs[x, y]`` and ``rel[pivot(x, y), z]``, as row-major blocks.

    A block (px, py, r, z) lists its pairs (int16, also those without cells;
    none straddles two blocks), then each cell's pair index r and its z,
    about ``CELL_BLOCK`` cells. Pairs are formed per chunk of rows x, and
    each cell is read from one flat list of the rows of ``rel``.
    """
    n, size = pairs.shape[0], rel.sum(axis=1)
    members = np.nonzero(rel)[1].astype(np.int16)  # every row's members, ascending, row after row
    start = (np.cumsum(size) - size).astype(np.int32)  # where each row starts in it
    rows = max(1, CELL_BLOCK // n)
    for x0 in range(0, n, rows):
        px, py = (v.astype(np.int16) for v in np.nonzero(pairs[x0 : x0 + rows]))
        px += x0
        piv = pivot(px, py)
        count = size[piv]
        ends = np.cumsum(count)
        cuts = np.flatnonzero(np.diff(ends // CELL_BLOCK)) + 1
        for s, e in zip([0, *cuts.tolist()], [*cuts.tolist(), px.size]):
            # cell k belongs to pair r[k] and is entry k - (its pair's first cell) of its row
            r = np.repeat(np.arange(e - s), count[s:e])
            shift = start[piv[s:e]] - (ends[s:e] - count[s:e] - (ends[s - 1] if s else 0))
            yield px[s:e], py[s:e], r, members[np.arange(r.size, dtype=np.int32) + shift[r]]


def upper_cells(p: FinitePoset) -> Iterator[tuple[np.ndarray, ...]]:
    """The cells (a, b, c), ids a <= b and c above both, as ``pivot_cells`` blocks (pa, pb, r, c).

    A pair expands into the upset of its join (exactly its cells on a partial
    order), else of the one of a, b with the smaller upset; unless every pair
    has a join and the table is an order, the c not above both are dropped.
    """
    le, jt, size, ids = p.le, p.join_table(), p.le.sum(axis=1), np.arange(p.n)
    # a missing join, or a table that is not an order: an upset may hold more than the cells
    loose = p.upsets().by_up is None or bool((jt < 0).any())

    def pivot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        j = jt[a, b]
        return np.where(j >= 0, j, np.where(size[a] <= size[b], a, b))

    for pa, pb, r, c in pivot_cells(ids[:, None] <= ids, pivot, le):
        if loose:
            above = le[pa[r], c] & le[pb[r], c]
            r, c = r[above], c[above]
        yield pa, pb, r, c


def first_nondistributive(mt: np.ndarray, jt: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b >= a, c), row-major, where (a v b) ^ c != (a ^ c) v (b ^ c), else None.

    ``mt`` and ``jt`` are n x n meet and join tables with -1 for undefined;
    a triple counts only where both sides are defined. One (b, c) block per
    run of at most ``BLOCK_ROWS`` rows b; through the padded tables an
    undefined bound stays -1.
    """
    n = mt.shape[0]
    mt, jt = sentinel_padded(mt), sentinel_padded(jt)
    for a in range(n):
        for b0 in range(a, n, BLOCK_ROWS):
            b1 = min(b0 + BLOCK_ROWS, n)
            rhs = jt[mt[a, :n], mt[b0:b1, :n]]
            lhs = mt[jt[a, b0:b1], :n]
            bad = (lhs != rhs) & (lhs >= 0) & (rhs >= 0)
            if bad.any():
                b, c = np.unravel_index(bad.argmax(), bad.shape)
                return a, b0 + int(b), int(c)
    return None


def birkhoff_distributive(p: FinitePoset) -> bool:
    """True iff p is a distributive lattice whose bound tables come from its upsets.

    Birkhoff's test ("Rings of sets", Duke Math. J. 3, 1937; Davey and Priestley,
    *Introduction to Lattices and Order*, ch. 5). J: the join-irreducibles, with
    exactly one lower cover (not a join of two elements below), and the least
    element, which is below every x and changes no comparison. D[x]: the j in J
    below x. The meet side always holds, D[x ^ y] = D[x] & D[y], and D[x] | D[y]
    <= D[x v y]; equality for all x, y says every j is join-prime, which holds
    exactly in distributive lattices. If p is distributive and j <= x v y, then
    j = (j ^ x) v (j ^ y), so j <= x or j <= y. Conversely each element is the
    join of the j below it; with every j join-prime, each j below (x v y) ^ z is
    below (x ^ z) v (y ^ z), and the reverse inequality holds in every lattice.
    False on anything else; the ``first_nondistributive`` scan then decides and
    names the first witness.
    """
    mt, jt, n = p.meet_table(), p.join_table(), p.n
    if p.upsets().by_up is None or p.downsets().by_up is None or (mt < 0).any() or (jt < 0).any():
        return False
    ids = np.arange(n)
    split = np.zeros(n, dtype=bool)  # the joins of two elements below them
    split[jt[(jt != ids[:, None]) & (jt != ids)]] = True
    d = packed_rows(p.le[~split].T)
    rows = max(1, 2**14 // n // d.shape[1])  # about 128 KB of words per operand
    return all((d[jt[x : x + rows]] == d[x : x + rows, None] | d).all() for x in range(0, n, rows))


def row_bits(rel: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with bit j = ``rel[i, j]``."""
    raw, w = packed_rows(rel).tobytes(), -(-rel.shape[1] // 64) * 8
    return [int.from_bytes(raw[i * w : i * w + w], "little") for i in range(len(rel))]


def _scan_bound(rel: np.ndarray, mask: np.ndarray) -> int | None:
    """The one candidate in ``mask`` related to every candidate, else None."""
    cand = np.flatnonzero(mask)
    hits = cand[rel[np.ix_(cand, cand)].all(axis=1)]
    return int(hits[0]) if hits.size == 1 else None


def verify_poset(p: FinitePoset) -> VerificationReport:
    """Check reflexivity, antisymmetry and transitivity with witnesses."""
    rep = VerificationReport(subject="poset")
    le, labels = p.le, p.labels

    rep.record("reflexive", ~np.diag(le), labelled(labels, "a"))
    rep.record("antisymmetric", np.triu(le & le.T, 1), labelled(labels, "a", "b"))

    # a<=b<=c without a<=c; boolean matrix square finds all gaps at once
    def middle(a: int, c: int) -> dict:
        b = int(np.flatnonzero(le[a, :] & le[:, c])[0])
        return {"a": labels[a], "b": labels[b], "c": labels[c]}

    rep.record("transitive", bool_product(le, le) & ~le, middle)

    least = p.least()
    rep.facts["least"] = labels[least] if least is not None else None
    greatest = p.greatest()
    rep.facts["greatest"] = labels[greatest] if greatest is not None else None
    return rep


def meet(p: FinitePoset, a: int, b: int) -> int | None:
    """Greatest lower bound, or None when it does not exist (or is not unique)."""
    m = int(p.meet_table()[a, b])
    return None if m < 0 else m


def join(p: FinitePoset, a: int, b: int) -> int | None:
    j = int(p.join_table()[a, b])
    return None if j < 0 else j


def join_of(p: FinitePoset, items: Iterable[int]) -> int | None:
    return p.upsets().bound(items)


def atoms(p: FinitePoset) -> list[int]:
    """Minimal nonzero elements; requires a least element."""
    zero = p.least()
    if zero is None:
        raise DomainError("poset has no least element")
    le, ids = p.le, np.arange(p.n)
    # below a: exactly zero and a itself
    return np.flatnonzero((ids != zero) & le[zero] & np.diag(le) & (le.sum(axis=0) == 2)).tolist()


def is_upward_directed(p: FinitePoset) -> tuple[bool, tuple[str, str] | None]:
    """Every pair must admit a common upper bound; returns a witness pair if not."""
    lonely = np.triu(~bool_product(p.le, p.le.T), 1)
    if not lonely.any():
        return True, None
    a, b = np.unravel_index(lonely.argmax(), lonely.shape)
    return False, (p.labels[a], p.labels[b])


def segment(p: FinitePoset, a: int, c: int) -> tuple[FinitePoset, list[int]]:
    """Induced subposet on the interval [a, c]; also returns parent ids."""
    if not p.leq(a, c):
        raise DomainError(
            "segment endpoints not ordered", a=p.labels[a], c=p.labels[c]
        )
    members = [i for i in range(p.n) if p.le[a, i] and p.le[i, c]]
    sub = FinitePoset(
        [p.labels[i] for i in members], p.le[np.ix_(members, members)]
    )
    return sub, members


def transitive_reduction(p: FinitePoset) -> list[tuple[str, str]]:
    """Cover pairs (a, b): a < b with nothing strictly between; for serializers."""
    lt = p.le & ~np.eye(p.n, dtype=bool)
    covers = lt & ~bool_product(lt, lt)
    return [
        (p.labels[i], p.labels[j]) for i, j in zip(*np.nonzero(covers))
    ]
