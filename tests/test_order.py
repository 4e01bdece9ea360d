"""Poset construction, bound tables and verification witnesses.

Expected meets and joins for the powerset posets are recomputed here from raw
set operations so the table code is checked against an independent oracle.
The direct candidate scan that once computed every bound is kept below as a
second oracle for the bitset view, on random posets and on tables that are
not partial orders, and so is the pair loop that once filled the bound tables
from ``bound_of``, and the Python-int loop that once decided whether a relation
is an order.
"""

import itertools
from functools import reduce
from operator import or_

import numpy as np
import pytest
from conftest import random_order
from hypothesis import given, settings, strategies as st

from qstruct import (
    DomainError,
    FinitePoset,
    StructuralError,
    atoms,
    is_upward_directed,
    join,
    join_of,
    meet,
    mo2_quasilogic,
    powerset_poset,
    segment,
    transitive_reduction,
    verify_poset,
)
from qstruct.order import UpsetIndex, preorder_closure


def _extremal(le, mask, lower):
    cand = np.flatnonzero(mask)
    if cand.size == 0:
        return None
    sub = le[np.ix_(cand, cand)]
    hits = np.flatnonzero(sub.all(axis=0) if lower else sub.all(axis=1))
    return int(cand[hits[0]]) if hits.size == 1 else None


def scan_bound_of(p, items, lower):
    """Meet (lower=True) or join of a set by scanning its common bounds."""
    mask = np.ones(p.n, dtype=bool)
    for x in items:
        mask &= p.le[:, x] if lower else p.le[x, :]
    return _extremal(p.le, mask, lower)


def scan_bound_table(le, lower):
    """Meet (lower=True) or join table; -1 where the bound does not exist."""
    n = le.shape[0]
    table = np.full((n, n), -1, dtype=np.int16)
    for a in range(n):
        for b in range(a, n):
            mask = (le[:, a] & le[:, b]) if lower else (le[a, :] & le[b, :])
            g = _extremal(le, mask, lower)
            if g is not None:
                table[a, b] = table[b, a] = g
    return table


def assert_bounds_match_the_scan(p, subsets_drawn):
    assert np.array_equal(p.meet_table(), scan_bound_table(p.le, lower=True))
    assert np.array_equal(p.join_table(), scan_bound_table(p.le, lower=False))
    for items in subsets_drawn:
        assert p.downsets().bound(items) == scan_bound_of(p, items, lower=True)
        assert join_of(p, items) == scan_bound_of(p, items, lower=False)


def subsets(k):
    base = list(range(k))
    out = []
    for r in range(k + 1):
        out.extend(frozenset(c) for c in itertools.combinations(base, r))
    return sorted(out, key=lambda s: sum(1 << x for x in s))


def test_powerset_order_matches_set_inclusion():
    p = powerset_poset(3)
    sets = subsets(3)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert p.leq(i, j) == (a <= b)


def test_powerset_bounds_are_intersection_and_union():
    p = powerset_poset(3)
    sets = subsets(3)
    pos = {s: i for i, s in enumerate(sets)}
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert meet(p, i, j) == pos[a & b]
            assert join(p, i, j) == pos[a | b]


def test_verify_poset_facts_and_checks():
    rep = verify_poset(powerset_poset(2))
    assert rep.ok
    assert rep.facts["least"] == "{}"
    assert rep.facts["greatest"] == "{0,1}"


def non_transitive_poset():
    le = np.eye(3, dtype=bool)
    le[0, 1] = le[1, 2] = True  # 0<1<2 without 0<2
    return FinitePoset(["x", "y", "z"], le)


def non_antisymmetric_poset():
    return FinitePoset(["x", "y"], np.ones((2, 2), dtype=bool))


def non_reflexive_poset():
    le = np.zeros((3, 3), dtype=bool)
    le[0, :] = True  # 0 is below everything; y and z are not even below themselves
    return FinitePoset(["x", "y", "z"], le)


def test_verify_poset_reports_missing_transitivity():
    rep = verify_poset(non_transitive_poset())
    assert not rep.ok
    assert not rep.get("transitive").passed
    assert rep.get("transitive").witnesses[0] == {"a": "x", "b": "y", "c": "z"}


def test_verify_poset_reports_antisymmetry_violation():
    rep = verify_poset(non_antisymmetric_poset())
    assert not rep.get("antisymmetric").passed
    assert rep.get("reflexive").passed


def test_constructor_rejects_bad_tables():
    with pytest.raises(StructuralError):
        FinitePoset(["x", "x"], np.eye(2, dtype=bool))
    with pytest.raises(StructuralError):
        FinitePoset([], np.zeros((0, 0), dtype=bool))
    with pytest.raises(StructuralError):
        FinitePoset(["x"], np.eye(2, dtype=bool))


def test_index_lookup():
    p = powerset_poset(1)
    assert p.index("{0}") == 1
    with pytest.raises(DomainError):
        p.index("nope")


def test_atoms_of_powerset_are_singletons():
    p = powerset_poset(3)
    assert sorted(p.labels[a] for a in atoms(p)) == ["{0}", "{1}", "{2}"]


def test_atoms_need_a_least_element():
    with pytest.raises(DomainError):
        atoms(FinitePoset(["x", "y"], np.eye(2, dtype=bool)))


def test_meet_of_empty_family_is_greatest():
    p = powerset_poset(2)
    assert p.downsets().bound([]) == 3
    assert join_of(p, []) == 0
    assert p.downsets().bound([1, 2]) == 0
    assert join_of(p, [1, 2]) == 3


def test_flat_poset_bounds():
    p = mo2_quasilogic().poset
    a, b = p.index("a"), p.index("b")
    assert meet(p, a, b) == p.index("0")
    assert join(p, a, b) == p.index("1")


def test_upward_directedness():
    ok, wit = is_upward_directed(powerset_poset(2))
    assert ok and wit is None
    ok, wit = is_upward_directed(FinitePoset(["x", "y"], np.eye(2, dtype=bool)))
    assert not ok and wit == ("x", "y")


def test_segment_is_the_interval():
    p = powerset_poset(3)
    sub, members = segment(p, 0, 3)  # [{}, {0,1}]
    assert members == [0, 1, 2, 3]
    assert sub.labels == ("{}", "{0}", "{1}", "{0,1}")
    with pytest.raises(DomainError):
        segment(p, 1, 2)  # {0} and {1} are incomparable


def test_bool_products_match_the_uint8_counts(all_witnesses):
    """The transitivity gaps and covers once came from uint8 products counted and then > 0.

    On 2^8 the reflexive count at (bottom, top) reaches 256 and wraps to 0; only
    the mask by le hides that, so both sides must still agree there.
    """
    rng = np.random.default_rng(13)
    relations = [powerset_poset(8).le] + [rng.random((40, 40)) < d for d in (0.05, 0.2, 0.6)]
    for le in relations:
        p = FinitePoset([f"e{i}" for i in range(le.shape[0])], le)
        counted = le.astype(np.uint8) @ le.astype(np.uint8)
        gaps = [
            (p.labels[a], p.labels[int(np.flatnonzero(le[a, :] & le[:, c])[0])], p.labels[c])
            for a, c in zip(*np.nonzero((counted > 0) & ~le))
        ]
        got = verify_poset(p).get("transitive")
        assert [tuple(w.values()) for w in got.witnesses] == gaps
        lt = le & ~np.eye(le.shape[0], dtype=bool)
        strict2 = lt.astype(np.uint8) @ lt.astype(np.uint8) > 0
        covers = [(p.labels[i], p.labels[j]) for i, j in zip(*np.nonzero(lt & ~strict2))]
        assert transitive_reduction(p) == covers


def test_transitive_reduction_lists_covers():
    covers = set(transitive_reduction(powerset_poset(2)))
    assert covers == {
        ("{}", "{0}"),
        ("{}", "{1}"),
        ("{0}", "{0,1}"),
        ("{1}", "{0,1}"),
    }


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    le = np.array(bits, dtype=bool).reshape(n, n)
    le = np.triu(le, k=1)  # DAG on the index order
    np.fill_diagonal(le, True)
    reach = le.copy()
    for _ in range(n):
        reach = reach | ((reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0)
    return FinitePoset([f"e{i}" for i in range(n)], reach)


@given(random_posets(), st.data())
@settings(max_examples=60, deadline=None)
def test_random_closed_dags_verify_and_bound_tables_are_bounds(p, data):
    assert verify_poset(p).ok
    assert p.upsets().by_up is not None and p.downsets().by_up is not None
    items = st.lists(st.integers(min_value=0, max_value=p.n - 1), max_size=p.n)
    assert_bounds_match_the_scan(p, [data.draw(items) for _ in range(8)])
    mt, jt = p.meet_table(), p.join_table()
    assert np.array_equal(mt, mt.T) and np.array_equal(jt, jt.T)
    for a in range(p.n):
        assert mt[a, a] == a and jt[a, a] == a
        for b in range(p.n):
            m = int(mt[a, b])
            if m >= 0:
                assert p.leq(m, a) and p.leq(m, b)
            j = int(jt[a, b])
            if j >= 0:
                assert p.leq(a, j) and p.leq(b, j)


@st.composite
def random_relations(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return FinitePoset([f"e{i}" for i in range(n)], np.array(bits).reshape(n, n))


@given(random_relations(), st.data())
@settings(max_examples=60, deadline=None)
def test_bounds_match_the_scan_on_arbitrary_relations(p, data):
    # mostly not partial orders: the fallback must give the scan's answers
    assert (p.upsets().by_up is not None) == verify_poset(p).ok
    items = st.lists(st.integers(min_value=0, max_value=p.n - 1), max_size=p.n)
    assert_bounds_match_the_scan(p, [data.draw(items) for _ in range(8)])


@pytest.mark.parametrize(
    "make", [non_transitive_poset, non_antisymmetric_poset, non_reflexive_poset]
)
def test_non_order_tables_fall_back_to_the_scan(make):
    p = make()
    assert p.upsets().by_up is None and p.downsets().by_up is None
    everything = [
        list(c) for r in range(p.n + 1) for c in itertools.combinations(range(p.n), r)
    ]
    assert_bounds_match_the_scan(p, everything)


def test_bounds_agree_with_bound_on_both_paths():
    for p in (powerset_poset(3), non_transitive_poset()):
        ups = p.upsets()
        for size in (1, 2, 3):
            rows = np.array(list(itertools.product(range(p.n), repeat=size)))
            want = [-1 if (g := ups.bound(row)) is None else g for row in rows.tolist()]
            assert ups.bounds(rows).tolist() == want


def oracle_table(ups):
    """The pair loop that once built every bound table from ``bound_of``."""
    bounds = [[ups.bound_of(x & y) for y in ups.up] for x in ups.up]
    return np.array(
        [[-1 if g is None else g for g in row] for row in bounds], dtype=np.int16
    )


def test_bound_tables_match_the_pair_loop():
    # sizes around the 64-bit word boundary and up to the element ceiling,
    # where the table runs over several blocks of rows
    rng = np.random.default_rng(17)
    relations = [powerset_poset(8).le, powerset_poset(6).le]
    for n in (1, 2, 5, 63, 64, 65, 130, 256):
        for density in (0.02, 0.1, 0.4):
            relations.append(random_order(rng, n, density))
    relations += [rng.random((n, n)) < 0.3 for n in (3, 9, 70)]  # not orders
    seen = set()
    for le in relations:
        for rel in (le, le.T):
            ups = UpsetIndex(rel)
            want = oracle_table(ups)
            assert np.array_equal(ups.table(), want)
            seen.add((ups.by_up is not None, bool((want < 0).any())))
    assert seen == {(True, True), (True, False), (False, True)}


def test_one_triangle_tables_match_the_scan_in_both_triangles():
    # lattices, non-lattices with -1 cells, and sizes that are no multiple of a
    # run of rows (the runs grow as the triangle narrows)
    rng = np.random.default_rng(25)
    chain = np.triu(np.ones((100, 100), dtype=bool))
    orders = [powerset_poset(k).le for k in (1, 4, 8)] + [chain]
    orders += [random_order(rng, n, d) for n, d in ((3, 0.5), (37, 0.3), (130, 0.05), (200, 0.1))]
    seen = set()
    for le in orders:
        p = FinitePoset([f"e{i}" for i in range(len(le))], le)
        for got, lower in ((p.meet_table(), True), (p.join_table(), False)):
            want = scan_bound_table(le, lower)
            assert np.array_equal(got, want) and np.array_equal(got, got.T)
            seen.add(bool((want < 0).any()))
    assert seen == {True, False}


def oracle_by_up(rel):
    """The Python-int loop that once decided whether ``rel`` is an order: ``by_up`` or None."""
    up = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in rel]
    by_up = {u: i for i, u in enumerate(up)}
    is_order = len(by_up) == len(up) and all(
        u >> a & 1 and reduce(or_, (up[b] for b in np.flatnonzero(rel[a]).tolist())) == u
        for a, u in enumerate(up)
    )
    return by_up if is_order else None


def test_the_order_test_matches_the_int_loop():
    rng = np.random.default_rng(25)
    relations = []
    for n in (1, 2, 3, 5, 8, 13, 64, 65):
        for kind in range(25):
            rel = rng.random((n, n)) < rng.random()  # mostly not reflexive
            if kind % 5 == 1:  # reflexive, rarely transitive
                rel |= np.eye(n, dtype=bool)
            elif kind % 5 == 2:  # preorders: 2-cycles give equal upsets
                rel = preorder_closure(rel)
            elif kind % 5 >= 3:
                rel = random_order(rng, n, rng.random())
                a, b = rng.integers(n, size=2)
                if kind % 5 == 3:
                    rel[a, b] = a == b  # less one pair: not transitive if some c is between
                else:
                    rel[a] = rel[b]  # a duplicate row
            relations.append(rel)
    # at the ceiling a chain spans several runs of rows; the missing pair is in a late one
    chain = np.triu(np.ones((256, 256), dtype=bool))
    gap, loop = chain.copy(), chain.copy()
    gap[200, 255] = False
    loop[255, 255] = False
    relations += [chain, chain.T, gap, loop]
    seen = set()
    for rel in relations:
        want = oracle_by_up(rel)
        assert UpsetIndex(rel).by_up == want
        seen.add((want is not None, len({r.tobytes() for r in rel}) < len(rel)))
    assert seen == {(True, False), (False, False), (False, True)}
