"""Orthocomplemented logics: verification, criteria and segment structures.

The table loops that ``boolean_criterion``, ``is_distributive``,
``segment_logic`` and the order-theoretic checks of ``verify_logic`` once ran
are kept here as oracles for their table kernels: verdicts, witness lists and
errors must agree in full and in order. On lattices ``is_distributive`` first
applies Birkhoff's test; random set lattices check it against the same oracle.
The per-b block loop of relative distributivity is the oracle for its cell walk.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import qstruct.order
from conftest import corrupted_logic, fixture_structures, horizontal_sum, permuted
from conftest import random_logics

from qstruct import (
    ConstructionError,
    FinitePoset,
    OrthoLogic,
    QstructError,
    StructuralError,
    boolean_criterion,
    chain_quasilogic,
    check_de_morgan,
    classify,
    is_distributive,
    mo2_logic,
    mo2_quasilogic,
    o6_logic,
    powerset_logic,
    segment_logic,
    shuffled_powerset_logic,
    verify_logic,
    verify_quasilogic,
)
from qstruct.order import UpsetIndex, birkhoff_distributive, first_nondistributive, segment
from qstruct.quasilogic import _build_sum_info, commutation_table


def test_powerset_logic_is_boolean_and_distributive():
    rep = verify_logic(powerset_logic(3))
    assert rep.ok
    assert rep.facts["boolean"] and rep.facts["distributive"]
    assert rep.facts["unit"] == "{0,1,2}"


def test_mo2_is_a_logic_but_not_boolean():
    ol = mo2_logic()
    rep = verify_logic(ol)
    assert rep.ok
    assert rep.facts["boolean"] is False
    assert rep.facts["boolean_witness"] == {"a": "a", "b": "b"}
    assert rep.facts["distributive"] is False
    assert rep.facts["distributive_witness"] == {"a": "a", "b": "a'", "c": "b"}

    ok, wit = boolean_criterion(ol)
    assert not ok and wit == {"a": "a", "b": "b"}
    ok, wit = is_distributive(ol)
    assert not ok and wit == {"a": "a", "b": "a'", "c": "b"}


def test_hexagon_fails_verification_with_known_witnesses():
    rep = verify_logic(o6_logic())
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {
        "minuend-monotone",
        "subtrahend-difference-identity",
        "relative-distributivity",
    }
    rel = rep.get("relative-distributivity")
    assert {"a": "a", "b": "b", "c": "b'"} in [
        {k: w[k] for k in ("a", "b", "c")} for w in rel.witnesses
    ]


def test_constructor_demands_an_involution_and_a_unit():
    ql = mo2_quasilogic()
    with pytest.raises(StructuralError, match="involution"):
        OrthoLogic(ql.poset, ql.diff, np.array([5, 2, 3, 4, 1, 0], dtype=np.int16))
    with pytest.raises(StructuralError, match="out of range"):
        OrthoLogic(ql.poset, ql.diff, np.array([5, 2, 1, 4, 3, 9], dtype=np.int16))

    chain = chain_quasilogic(3)
    headless = chain_quasilogic(3).poset.le.copy()
    headless[:, 2] = False
    headless[2, 2] = True
    from qstruct import FinitePoset

    diff = np.full((3, 3), -1, dtype=np.int16)
    np.fill_diagonal(diff, 0)
    diff[1, 0] = 1
    with pytest.raises(StructuralError, match="greatest"):
        OrthoLogic(FinitePoset(chain.labels, headless), diff, np.array([2, 1, 0], dtype=np.int16))


def test_wrong_pairing_breaks_difference_consistency():
    # a <-> b' and b <-> a' is a valid involution but contradicts the table
    ql = mo2_quasilogic()
    ol = OrthoLogic(ql.poset, ql.diff, np.array([5, 4, 3, 2, 1, 0], dtype=np.int16))
    rep = verify_logic(ol)
    assert not rep.get("complement-difference-consistency").passed
    assert rep.get("complement-join").passed
    assert rep.get("complement-meet").passed


def test_powerset_segments_are_boolean_logics():
    ol = powerset_logic(3)
    seg = segment_logic(ol, 0, ol.index("{0,1}"))
    assert seg.n == 4
    assert verify_logic(seg).ok
    assert classify(seg) == "boolean-algebra"
    assert seg.labels == ("{}", "{0}", "{1}", "{0,1}")

    upper = segment_logic(ol, ol.index("{0}"), ol.index("{0,1,2}"))
    assert upper.n == 4
    assert verify_logic(upper).ok


def test_mo2_segment_collapses_to_a_two_element_logic():
    ol = mo2_logic()
    seg = segment_logic(ol, 0, ol.index("a"))
    assert seg.n == 2
    assert verify_logic(seg).ok
    assert classify(seg) == "boolean-algebra"


def test_hexagon_segment_has_no_consistent_complement():
    ol = o6_logic()
    with pytest.raises(StructuralError, match="involution"):
        segment_logic(ol, 0, ol.index("b'"))


# -- oracles for the table kernels ---------------------------------------------


def oracle_boolean_criterion(ol):
    z = ol.poset.least()
    if z is None:
        return False, {"reason": "no least element"}
    mt, le, labels = ol.poset.meet_table(), ol.poset.le, ol.labels
    for a in range(ol.n):
        for b in range(ol.n):
            if (mt[a, b] == z) != bool(le[b, ol.neg[a]]):
                return False, {"a": labels[a], "b": labels[b]}
    return True, None


def oracle_is_distributive(ol):
    mt, jt, labels, n = ol.poset.meet_table(), ol.poset.join_table(), ol.labels, ol.n
    for a in range(n):
        for b in range(a, n):
            j = int(jt[a, b])
            if j < 0:
                continue
            for c in range(n):
                ac, bc = int(mt[a, c]), int(mt[b, c])
                if ac < 0 or bc < 0:
                    continue
                rhs, lhs = int(jt[ac, bc]), int(mt[j, c])
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False, {"a": labels[a], "b": labels[b], "c": labels[c]}
    return True, None


def oracle_logic_witnesses(ol):
    """verify_logic's order-theoretic checks as plain loops over the tables."""
    labels, neg, n, le = ol.labels, ol.neg, ol.n, ol.poset.le
    mt, jt = ol.poset.meet_table(), ol.poset.join_table()
    out = {
        "complement-antitone": [
            {"a": labels[a], "b": labels[b]}
            for a in range(n)
            for b in range(n)
            if le[a, b] and not le[neg[b], neg[a]]
        ],
        "de-morgan-join": [],
        "de-morgan-meet": [],
        "relative-distributivity": [],
    }
    for a in range(n):
        for b in range(a, n):
            w = {"a": labels[a], "b": labels[b]}
            for name, bound, dual, what in (
                ("de-morgan-join", jt, mt, "meet"),
                ("de-morgan-meet", mt, jt, "join"),
            ):
                x = int(bound[a, b])
                if x < 0:
                    continue
                y = int(dual[neg[a], neg[b]])
                if y < 0:
                    out[name].append(w | {"reason": f"{what} of complements undefined"})
                elif y != neg[x]:
                    out[name].append(w)
    for b in range(n):
        nb = int(neg[b])
        for a in np.flatnonzero(le[:, nb]):
            for c in np.flatnonzero(le[nb, :]):
                w = {"a": labels[a], "b": labels[b], "c": labels[c]}
                ab, bc = int(jt[a, b]), int(mt[b, c])
                lhs = int(mt[ab, c]) if ab >= 0 and bc >= 0 else -1
                rhs = int(jt[a, bc]) if ab >= 0 and bc >= 0 else -1
                if lhs < 0 or rhs < 0:
                    out["relative-distributivity"].append(w | {"reason": "bound undefined"})
                elif lhs != rhs:
                    out["relative-distributivity"].append(
                        w | {"lhs": labels[lhs], "rhs": labels[rhs]}
                    )
    return out


def oracle_block_relative_distributivity(ol):
    """The per-b (a, c) block loop that ran relative distributivity before the cell walk."""
    labels, neg, le = ol.labels, ol.neg, ol.poset.le
    mt = np.full((ol.n + 1, ol.n + 1), -1, dtype=np.int16)
    jt = mt.copy()
    mt[:-1, :-1], jt[:-1, :-1] = ol.poset.meet_table(), ol.poset.join_table()
    out = []
    for b in range(ol.n):
        avals, cvals = np.flatnonzero(le[:, neg[b]]), np.flatnonzero(le[neg[b], :])
        lhs = mt[jt[avals, b][:, None], cvals]
        rhs = jt[avals[:, None], mt[b, cvals]]
        for i, k in zip(*np.nonzero((lhs != rhs) | (lhs < 0))):
            w = {"a": labels[avals[i]], "b": labels[b], "c": labels[cvals[k]]}
            if min(lhs[i, k], rhs[i, k]) < 0:
                out.append(w | {"reason": "bound undefined"})
            else:
                out.append(w | {"lhs": labels[lhs[i, k]], "rhs": labels[rhs[i, k]]})
    return out


def oracle_segment_logic(ol, lo, hi):
    """The pair loop that once built ``segment_logic``'s difference table."""
    sub, parents = segment(ol.poset, lo, hi)
    pidx = {p: i for i, p in enumerate(parents)}
    mt, jt, labels = ol.poset.meet_table(), ol.poset.join_table(), ol.labels
    diff = np.full((sub.n, sub.n), -1, dtype=np.int16)
    for yi, yp in enumerate(parents):
        for xi, xp in enumerate(parents):
            if not sub.le[xi, yi]:
                continue
            m = int(mt[int(ol.neg[xp]), yp])
            if m < 0:
                raise ConstructionError(
                    "segment difference needs a meet with the complement",
                    x=labels[xp],
                    y=labels[yp],
                )
            j = int(jt[lo, m])
            if j < 0 or j not in pidx:
                raise ConstructionError(
                    "segment difference leaves the segment", x=labels[xp], y=labels[yp]
                )
            diff[yi, xi] = pidx[j]
    return OrthoLogic(sub, diff, diff[pidx[hi], :].copy())


def segment_outcome(build, ol, lo, hi):
    try:
        seg = build(ol, lo, hi)
    except QstructError as exc:
        return type(exc), str(exc), exc.details
    return seg.labels, seg.diff.tolist(), seg.neg.tolist()


def test_segment_logics_match_the_oracle():
    logics = [mo2_logic(), o6_logic(), powerset_logic(3), horizontal_sum(2, 2)]
    logics += random_logics(40, seed=8)
    kinds = set()
    for ol in logics:
        for lo, hi in np.argwhere(ol.poset.le).tolist():
            got = segment_outcome(segment_logic, ol, lo, hi)
            assert got == segment_outcome(oracle_segment_logic, ol, lo, hi)
            kinds.add(got[1] if isinstance(got[1], str) else "built")
    assert kinds >= {
        "built",
        "segment difference needs a meet with the complement",
        "segment difference leaves the segment",
    }


def assert_logic_matches_the_oracles(ol):
    assert boolean_criterion(ol) == oracle_boolean_criterion(ol)
    assert is_distributive(ol) == oracle_is_distributive(ol)
    rep = verify_logic(ol)
    for name, want in oracle_logic_witnesses(ol).items():
        check = rep.get(name)
        assert check.violation_count == len(want), name
        assert check.witnesses == want, name


def chain_logic(n):
    q = chain_quasilogic(n)
    return OrthoLogic(q.poset, q.diff, np.arange(n)[::-1])


@pytest.mark.parametrize("k", range(1, 6))
def test_shuffled_powerset_logics_match_the_oracles(all_witnesses, k):
    assert_logic_matches_the_oracles(shuffled_powerset_logic(k, seed=k))


def test_standard_logics_match_the_oracles(all_witnesses):
    logics = [mo2_logic(), o6_logic(), *(chain_logic(n) for n in range(2, 7))]
    logics += [horizontal_sum(blocks, k) for blocks, k in ((2, 2), (3, 2), (2, 3), (3, 3))]
    for ol in logics:
        assert_logic_matches_the_oracles(ol)
    assert not is_distributive(horizontal_sum(2, 3))[0]


def test_fixture_logics_match_the_oracles(all_witnesses):
    logics = fixture_structures(OrthoLogic)
    assert len(logics) >= 7
    for ol in logics:
        assert_logic_matches_the_oracles(ol)


def test_random_orders_with_missing_bounds_match_the_oracles(all_witnesses):
    logics = list(random_logics(120, seed=3))
    assert any((ol.poset.meet_table() < 0).any() for ol in logics)
    assert any((ol.poset.join_table() < 0).any() for ol in logics)
    assert {is_distributive(ol)[0] for ol in logics} == {True, False}
    for ol in logics:
        assert_logic_matches_the_oracles(ol)


@pytest.mark.parametrize("cell_block", [5, None])
def test_relative_distributivity_walk_matches_the_block_loop(
    all_witnesses, monkeypatch, cell_block
):
    small = cell_block is not None
    if small:
        monkeypatch.setattr(qstruct.order, "CELL_BLOCK", cell_block)
    rng = np.random.default_rng(4)
    chain = chain_quasilogic(12 if small else 90)
    logics = [OrthoLogic(chain.poset, chain.diff, np.arange(chain.n)[::-1])]
    logics += [
        permuted(horizontal_sum(blocks, k), rng)
        for blocks, k in (((2, 2), (3, 3)) if small else ((4, 4), (2, 5)))
    ]
    logics += [corrupted_logic(k, seed=k) for k in ((3, 4) if small else (5, 6))]
    logics += random_logics(30, seed=11)
    failed = 0
    for ol in logics:
        check = verify_logic(ol).get("relative-distributivity")
        want = oracle_block_relative_distributivity(ol)
        assert (check.violation_count, check.witnesses) == (len(want), want)
        failed += bool(want)
    assert failed > 0


def set_lattice(rng, points, generators, union_closed):
    """Subsets of ``points`` points closed under intersection, with the full set.

    Ordered by inclusion this is a lattice; closed under union as well it is a
    ring of sets, hence distributive. Elements come in shuffled order.
    """
    family = {(1 << points) - 1, *(int(x) for x in rng.integers(0, 1 << points, generators))}
    while True:
        grown = family | {x & y for x in family for y in family}
        if union_closed:
            grown |= {x | y for x in family for y in family}
        if grown == family:
            break
        family = grown
    sets = [sorted(family)[i] for i in rng.permutation(len(family))]
    le = np.array([[x & ~y == 0 for y in sets] for x in sets])
    return FinitePoset([format(x, f"0{points}b") for x in sets], le)


def named_lattice(covers):
    labels = sorted({x for pair in covers for x in pair})
    le = np.eye(len(labels), dtype=bool)
    for lo, hi in covers:
        le[labels.index(lo), labels.index(hi)] = True
    for _ in labels:  # close transitively
        le |= (le.astype(np.uint8) @ le.astype(np.uint8)) > 0
    return FinitePoset(labels, le)


def test_random_lattices_match_the_distributivity_oracle():
    rng = np.random.default_rng(13)
    lattices = [
        set_lattice(rng, int(rng.integers(2, 6)), int(rng.integers(1, 7)), i % 2 == 0)
        for i in range(60)
    ]
    n5 = named_lattice([("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
    m3 = named_lattice([("0", x) for x in "abc"] + [(x, "1") for x in "abc"])
    lattices += [n5, m3]
    verdicts = []
    for p in lattices:
        assert p.upsets().by_up is not None
        assert (p.meet_table() >= 0).all() and (p.join_table() >= 0).all()
        as_logic = SimpleNamespace(poset=p, labels=p.labels, n=p.n)
        want = oracle_is_distributive(as_logic)
        assert is_distributive(as_logic) == want
        hit = first_nondistributive(p.meet_table(), p.join_table())
        assert (hit is None) == want[0]
        if hit is not None:
            assert dict(zip("abc", (p.labels[x] for x in hit))) == want[1]
        # on a lattice Birkhoff's test decides alone; where it fails the scan names the witness
        assert birkhoff_distributive(p) == want[0]
        verdicts.append(want[0])
    assert not birkhoff_distributive(n5) and not birkhoff_distributive(m3)
    assert all(verdicts[0:60:2]) and not all(verdicts[1:60:2])
    assert set(verdicts) == {True, False}


def test_table_kernels_stay_small_at_the_size_ceiling():
    # full n^3 index arrays at n=256 take ~134 MB each; the per-row kernels
    # need well under 1 MB (numpy reports its buffers to tracemalloc)
    ol = powerset_logic(8)
    ol.poset.meet_table(), ol.poset.join_table(), ol._sum_info()
    ups = UpsetIndex(ol.poset.le)
    kernels = (
        (is_distributive, ol),
        (classify, ol),
        (check_de_morgan, ol),
        (verify_logic, ol),
        (_build_sum_info, ol),
        (commutation_table, ol),
        (verify_quasilogic, ol),
        (UpsetIndex.table, ups),
    )
    for kernel, arg in kernels:
        tracemalloc.start()
        try:
            kernel(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, kernel.__name__
