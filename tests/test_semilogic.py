"""Semilogics: partial products, distributions, filters, ideals and closures.

The MO2 structure is small enough to enumerate by hand, so its filter and
ideal lattice, its orthogonal families and its homomorphisms onto the
two-element algebra are all frozen here as explicit expectations.

The per-(family, element) product-additivity loop, the set-based common
refinement search and the per-triple associativity loop that
``verify_semilogic`` once ran are kept here as oracles for its block kernels,
its bitmask search and its per-element slices: the witness lists must agree
in full and in order, also when the blocks split a run of families of one
length and when a partial join sends rows to the fallback. So are the upper-
and lower-family loops that ``verify_closure`` and ``check_regularity`` once
ran, for the one ``_family_violations`` over ``le`` and ``le.T``, and the
loop bodies of the relative complement, ``verify_closure`` and
``check_regularity`` themselves, for the one ``difference_table`` and the
``family_mask`` lookups that replaced them. The depth-first walk over a
quasilogic's summable families and the one-family image sum (both in
conftest.py), with the set and pair loops that ``verify_homomorphism``,
``verify_filter`` and ``verify_ideal`` once ran, are the oracles for their
table kernels: the same counts, and the same witnesses in (size, members)
order for families and row-major order for pairs.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qstruct import (
    ClosurePair,
    DistributionTable,
    DomainError,
    Filter,
    HomomorphismMap,
    Ideal,
    QstructError,
    Quasilogic,
    Semilogic,
    FinitePoset,
    StructuralError,
    chain_quasilogic,
    check_regularity,
    diamond_semiring,
    difference_table,
    join_of,
    parse_structure,
    mo2_logic,
    mo2_quasilogic,
    mo2_semilogic,
    powerset_logic,
    powerset_quasilogic,
    powerset_semiring,
    quasicommutes,
    shuffled_powerset_semiring,
    subset_semilogic,
    summable_families,
    support,
    verify_closure,
    verify_distribution,
    verify_filter,
    verify_homomorphism,
    verify_ideal,
    verify_semilogic,
)
import qstruct.semilogic
from qstruct.order import UpsetIndex
from qstruct.report import VerificationReport
from qstruct.quasilogic import is_logic
from qstruct.semilogic import EXACT_TOL, _family_violations, _ideal_closure

from conftest import (
    fixture_structures,
    flat_semilogic,
    horizontal_sum_semilogic,
    oracle_image_sum,
    oracle_quasilogic_families,
    random_difference,
    random_logics,
    random_order,
)


def test_powerset_semiring_verifies():
    rep = verify_semilogic(powerset_semiring(2))
    assert rep.ok
    assert rep.facts["zero"] == "{}"
    # families: empty, three nonzero singletons, and {0} + {1}
    assert rep.facts["orthogonal_family_count"] == 5


def test_mo2_semilogic_verifies_with_eight_families():
    rep = verify_semilogic(mo2_semilogic())
    assert rep.ok
    assert rep.facts["orthogonal_family_count"] == 8


def test_constructor_rejects_malformed_product_tables():
    p = powerset_semiring(1).poset
    asym = np.array([[0, 0], [1, 1]], dtype=np.int16)
    with pytest.raises(StructuralError):
        Semilogic(p, asym)
    with pytest.raises(StructuralError):
        Semilogic(p, np.full((2, 2), 7, dtype=np.int16))


def test_broken_product_is_reported_not_raised():
    good = powerset_semiring(1)
    prod = good.prod.copy()
    prod[0, 1] = prod[1, 0] = 1  # {} . {0} must stay {}
    rep = verify_semilogic(Semilogic(good.poset, prod))
    assert not rep.ok
    assert not rep.get("zero-product").passed
    assert not rep.get("order-coherence").passed


def test_summable_families_of_the_square():
    fams = summable_families(powerset_semiring(2))
    as_sets = {(tuple(f), s) for f, s in fams}
    assert as_sets == {((), 0), ((1,), 1), ((2,), 2), ((3,), 3), ((1, 2), 3)}


def test_distribution_verification_and_state_facts():
    s = powerset_semiring(2)
    m = DistributionTable.from_dict(s, {"{0}": 0.25, "{1}": 0.75, "{0,1}": 1.0})
    rep = verify_distribution(s, m)
    assert rep.ok
    assert rep.facts["mass"] == pytest.approx(1.0)
    assert rep.facts["is_probability"] and rep.facts["is_state"]

    broken = DistributionTable.from_dict(s, {"{0}": 0.25, "{1}": 0.75, "{0,1}": 0.9})
    rep = verify_distribution(s, broken)
    assert not rep.get("additive").passed
    assert rep.get("additive").witnesses[0]["gap"] == pytest.approx(0.1)

    with pytest.raises(DomainError, match="negative"):
        verify_distribution(s, DistributionTable.from_dict(s, {"{0}": -0.1}))


def test_support_of_a_point_state_is_a_maximal_filter():
    s = powerset_semiring(2)
    m = DistributionTable.from_dict(s, {"{1}": 1.0, "{0,1}": 1.0})
    filt, rep = support(s, m)
    assert filt.members == frozenset({2, 3})
    assert rep.ok
    assert rep.facts["maximal"]
    assert rep.facts["members"] == ["{0,1}", "{1}"]


def test_support_requires_a_state():
    s = powerset_semiring(2)
    m = DistributionTable.from_dict(s, {"{0}": 0.25, "{1}": 0.25, "{0,1}": 0.5})
    with pytest.raises(DomainError, match="not a state"):
        support(s, m)


def test_mo2_filter_maximality():
    s = mo2_semilogic()
    top_only = verify_filter(s, Filter(frozenset({5})))
    assert top_only.ok
    assert not top_only.facts["maximal"]  # a is not annihilated by 1

    atom_filter = verify_filter(s, Filter(frozenset({1, 5})))
    assert atom_filter.ok
    assert atom_filter.facts["maximal"]

    leaky = verify_filter(s, Filter(frozenset({1})))
    assert not leaky.get("upward-closed").passed

    with pytest.raises(DomainError, match="empty"):
        verify_filter(s, Filter(frozenset()))
    with pytest.raises(DomainError, match="whole"):
        verify_filter(s, Filter(frozenset(range(6))))


def test_mo2_ideal_maximality():
    s = mo2_semilogic()
    small = verify_ideal(s, Ideal(frozenset({0, 1})))
    assert small.ok
    assert not small.facts["maximal"]  # adding b still misses a', b' and 1

    bigger = verify_ideal(s, Ideal(frozenset({0, 1, 3})))
    assert bigger.ok
    assert bigger.facts["maximal"]

    not_down = verify_ideal(s, Ideal(frozenset({0, 5})))
    assert not not_down.get("meet-absorbing").passed


def test_quasilogic_homomorphism_onto_the_two_element_algebra():
    src = mo2_quasilogic()
    tgt = powerset_quasilogic(1)
    h = HomomorphismMap(src, tgt, np.array([0, 1, 0, 1, 0, 1], dtype=np.int16))
    rep = verify_homomorphism(h)
    assert rep.ok
    for name in ("zero-preserved", "monotone", "additive", "subtraction-preserved", "commutation-preserved"):
        assert rep.get(name).passed

    collapse = HomomorphismMap(src, tgt, np.ones(6, dtype=np.int16))
    rep = verify_homomorphism(collapse)
    assert not rep.get("zero-preserved").passed


@pytest.mark.parametrize("ol", [mo2_logic(), powerset_logic(2)], ids=["mo2", "powerset2"])
def test_identity_on_a_logic_is_a_homomorphism(ol):
    # a logic is a quasilogic: its zero, sums and differences need no unwrapping
    rep = verify_homomorphism(HomomorphismMap(ol, ol, np.arange(ol.n, dtype=np.int16)))
    assert rep.ok
    assert rep.get("subtraction-preserved").passed
    assert rep.get("commutation-preserved").passed
    assert rep.get("additive").violation_count == 0


def test_a_logic_homomorphism_must_add_disjoint_pairs():
    # {1} -> {0} keeps the map monotone, but the image of {0} + {1} = {0,1} has no sum
    ol = powerset_logic(2)
    rep = verify_homomorphism(HomomorphismMap(ol, ol, np.array([0, 1, 1, 3], dtype=np.int16)))
    assert rep.get("monotone").passed
    assert rep.get("additive").witnesses == [
        {"family": ["{0}", "{1}"], "expected": "{0,1}", "got": None}
    ]


def test_pair_checks_match_the_pair_loops(all_witnesses):
    # the (a, b) loops that verify_distribution's and verify_homomorphism's
    # monotone checks and the (b, a) loop of subtraction-preserved once ran
    rng = np.random.default_rng(32)
    structures = [powerset_semiring(3), shuffled_powerset_semiring(4, seed=4), mo2_semilogic()]
    structures += [diamond_semiring(), powerset_logic(3), mo2_logic()]
    seen = {"distribution": 0, "homomorphism": 0, "subtraction": 0}
    for s in structures:
        le, ids = s.poset.le, range(s.n)
        for _ in range(4):
            f = rng.integers(0, s.n, size=s.n).astype(np.int16)
            rep = verify_homomorphism(HomomorphismMap(s, s, f))
            want = [
                {"a": s.labels[a], "b": s.labels[b]}
                for a in ids
                for b in ids
                if le[a, b] and not le[f[a], f[b]]
            ]
            assert rep.get("monotone").witnesses == want
            seen["homomorphism"] += len(want)
            if isinstance(s, Quasilogic):
                want = [
                    {"b": s.labels[b], "a": s.labels[a]}
                    for b in ids
                    for a in np.flatnonzero(s.diff[b] >= 0)
                    if s.diff[f[b], f[a]] < 0 or s.diff[f[b], f[a]] != f[s.diff[b, a]]
                ]
                assert rep.get("subtraction-preserved").witnesses == want
                seen["subtraction"] += len(want)
                continue
            vals = rng.random(s.n)
            rep = verify_distribution(s, DistributionTable(vals))
            want = [
                {"a": s.labels[a], "b": s.labels[b]}
                for a in ids
                for b in ids
                if le[a, b] and vals[a] > vals[b] + EXACT_TOL
            ]
            assert rep.get("monotone").witnesses == want
            seen["distribution"] += len(want)
    assert min(seen.values()) > 0


def test_an_ambiguous_image_sum_is_reported_not_raised():
    # with 1 - b = b in the target, 0 + a is a - (a - a) = a through the
    # majorant a but 1 - (1 - a) = b through 1, so the image of the family
    # {a, b} has no sum, while the source sum 1 maps to 0
    src = chain_quasilogic(4)
    diff = src.diff.copy()
    diff[3, 2] = 2
    tgt = Quasilogic(src.poset, diff)
    rep = verify_homomorphism(HomomorphismMap(src, tgt, np.array([0, 0, 1, 0], dtype=np.int16)))
    additive = rep.get("additive")
    assert not additive.passed
    assert {"family": ["a", "b"], "expected": "0", "got": None} in additive.witnesses


def test_commutation_check_is_skipped_for_non_logic_targets():
    src = chain_quasilogic(2)
    tgt = chain_quasilogic(3)  # 1 + 1 is not disjoint, so not a logic
    h = HomomorphismMap(src, tgt, np.array([0, 2], dtype=np.int16))
    rep = verify_homomorphism(h)
    assert rep.ok
    assert not rep.has("commutation-preserved")
    assert rep.facts["commutation-check"] == "skipped (target is not a logic)"


def test_homomorphism_map_validation():
    src, tgt = mo2_quasilogic(), powerset_quasilogic(1)
    with pytest.raises(StructuralError, match="incomplete"):
        HomomorphismMap.from_dict(src, tgt, {"0": "{}"})
    with pytest.raises(StructuralError, match="out of range"):
        verify_homomorphism(
            HomomorphismMap(src, tgt, np.full(6, 9, dtype=np.int16))
        )


def sierpinski_closure():
    # closure on the square: {1} is dense, {0} is closed
    s = powerset_semiring(2)
    cp = ClosurePair.from_dict(
        s, {"{}": "{}", "{0}": "{0}", "{1}": "{0,1}", "{0,1}": "{0,1}"}
    )
    return s, cp


@pytest.mark.parametrize("use_companion", [False, True])
def test_closure_splits_opens_and_closeds(use_companion):
    s, cp = sierpinski_closure()
    companion = powerset_quasilogic(2) if use_companion else None
    rep = verify_closure(s, cp, companion)
    assert rep.ok
    assert rep.facts["closed"] == ["{}", "{0}", "{0,1}"]
    assert rep.facts["open"] == ["{}", "{1}", "{0,1}"]
    assert rep.facts["interior"] == {
        "{}": "{}",
        "{0}": "{}",
        "{1}": "{1}",
        "{0,1}": "{0,1}",
    }
    assert rep.facts["openness_indeterminate_pairs"] == 0
    assert rep.facts["open_complements_are_closed"]


def test_closure_map_validation():
    s = powerset_semiring(2)
    with pytest.raises(StructuralError, match="incomplete"):
        ClosurePair.from_dict(s, {"{}": "{}"})
    shrink = ClosurePair(np.zeros(4, dtype=np.int16))  # maps everything to {}
    rep = verify_closure(s, shrink)
    assert not rep.get("closure-extensive").passed


def test_regularity_against_open_and_closed_families():
    s, cp = sierpinski_closure()
    companion = powerset_quasilogic(2)
    crep = verify_closure(s, cp, companion)
    opens = [s.index(x) for x in crep.facts["open"]]
    closeds = [s.index(x) for x in crep.facts["closed"]]
    point_mass = DistributionTable.from_dict(s, {"{1}": 1.0, "{0,1}": 1.0})

    rep = check_regularity(s, point_mass, opens, closeds, companion)
    assert rep.facts["opposite_families"]
    below = rep.get("regular-from-below")
    assert not below.passed and below.witnesses[0]["a"] == "{1}"
    above = rep.get("regular-from-above")
    assert not above.passed and above.witnesses[0]["a"] == "{0}"

    everything = list(range(4))
    rep = check_regularity(s, point_mass, everything, everything, companion)
    assert rep.ok
    assert rep.facts["opposite_families"]


def test_regularity_rejects_non_directed_families():
    s, _ = sierpinski_closure()
    m = DistributionTable.from_dict(s, {"{0,1}": 1.0})
    with pytest.raises(DomainError, match="upper family axioms fail") as exc:
        check_regularity(s, m, [s.index("{0}")], list(range(4)))
    assert exc.value.details["which"] == "upper"
    with pytest.raises(DomainError, match="lower family axioms fail"):
        check_regularity(s, m, list(range(4)), [s.index("{0}")])


def test_relative_complement_on_the_square():
    s = powerset_semiring(2)
    table = difference_table(s)
    assert table[s.index("{0,1}"), s.index("{0}")] == s.index("{1}")
    assert table[s.index("{0}"), s.index("{0}")] == s.index("{}")


# -- oracles for the product-additivity and compatibility checks ---------------


def oracle_product_additivity(s):
    labels, prod, z = s.labels, s.prod, s.zero()
    sumlaw = []
    for fam, sup in summable_families(s):
        if not fam:
            continue
        for a in range(s.n):
            if any(prod[a, m] < 0 for m in fam):
                continue
            images = [int(prod[a, m]) for m in fam]
            nonzero = [p for p in images if p != z]
            w = {"a": labels[a], "family": [labels[m] for m in fam]}
            if len(set(nonzero)) != len(nonzero):
                sumlaw.append(w | {"reason": "image family not summable"})
                continue
            if any(
                prod[p, q] != z
                for i, p in enumerate(nonzero)
                for q in nonzero[i + 1 :]
            ):
                sumlaw.append(w | {"reason": "image family not orthogonal"})
                continue
            img_sum = join_of(s.poset, nonzero)
            if prod[a, sup] < 0:
                sumlaw.append(w | {"reason": "product with sum undefined"})
            elif img_sum is None or img_sum != prod[a, sup]:
                sumlaw.append(w)
    return sumlaw


def oracle_has_common_refinement(s, by_sup, orth, a, b, ab):
    for fam_a in by_sup.get(a, ()):
        set_a = set(fam_a)
        for fam_b in by_sup.get(b, ()):
            merged = set_a | set(fam_b)
            if not all(orth[x, y] for x in merged for y in merged if x < y):
                continue
            common = sorted(set_a & set(fam_b))
            total = join_of(s.poset, common)
            if total is not None and total == ab:
                return True
    return False


def oracle_compatibility(s):
    by_sup = {}
    for fam, sup in summable_families(s):
        by_sup.setdefault(sup, []).append(fam)
    orth = s.prod == s.zero()
    return [
        {"a": s.labels[a], "b": s.labels[b]}
        for a in range(s.n)
        for b in range(a, s.n)
        if s.prod[a, b] >= 0
        and not oracle_has_common_refinement(s, by_sup, orth, a, b, int(s.prod[a, b]))
    ]


def oracle_restricted_associativity(s):
    labels, prod, n = s.labels, s.prod, s.n
    assoc = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab, bc = prod[a, b], prod[b, c]
                if ab < 0 or bc < 0 or prod[c, a] < 0:
                    continue
                w = {"a": labels[a], "b": labels[b], "c": labels[c]}
                if prod[ab, c] < 0 or prod[bc, a] < 0:
                    assoc.append(w | {"reason": "grouped product undefined"})
                elif prod[ab, c] != prod[bc, a]:
                    assoc.append(w)
    return assoc


def zeroed_semiring(k, a, b):
    """2^k with the product of masks a and b set to the empty set."""
    good = powerset_semiring(k)
    prod = good.prod.copy()
    prod[a, b] = prod[b, a] = 0
    return Semilogic(good.poset, prod)


def perturbed_semilogics(count, seed):
    """2^3 products with a few symmetric entries overwritten, -1 included."""
    rng = np.random.default_rng(seed)
    base = powerset_semiring(3)
    for _ in range(count):
        prod = base.prod.copy()
        for _ in range(int(rng.integers(1, 4))):
            a, b = (int(x) for x in rng.integers(0, 8, size=2))
            prod[a, b] = prod[b, a] = int(rng.integers(-1, 8))
        yield Semilogic(base.poset, prod)


def mo2_semilogic_files(valid_dir, mutants_dir):
    """MO2 semilogic fixtures; mo2_as_semiring is read as the semilogic it is."""
    paths = [valid_dir / "mo2_semilogic.json", *sorted(mutants_dir.glob("mo2_*.json"))]
    out = []
    for path in paths:
        data = json.loads(path.read_text())
        if data.get("kind") == "boolean_semiring":
            data["kind"] = "semilogic"
        try:
            obj = parse_structure(data)
        except QstructError:
            continue  # mo2_prod_conflict and mo2_neg_not_involutive never parse
        if isinstance(obj, Semilogic):
            out.append(obj)
    return out


def assert_matches_the_oracles(s):
    rep = verify_semilogic(s)
    for name, want in (
        ("restricted-associativity", oracle_restricted_associativity(s)),
        ("product-additivity", oracle_product_additivity(s)),
        ("compatibility-decomposition", oracle_compatibility(s)),
    ):
        check = rep.get(name)
        assert check.violation_count == len(want), name
        assert check.witnesses == want, name


@pytest.mark.parametrize("k", range(1, 6))
def test_powerset_semirings_match_the_oracles(all_witnesses, k):
    assert_matches_the_oracles(powerset_semiring(k))
    assert_matches_the_oracles(shuffled_powerset_semiring(k, seed=k))


def test_broken_semirings_match_the_oracles(all_witnesses):
    zeroed = zeroed_semiring(4, 0b0011, 0b0110)
    assert not verify_semilogic(zeroed).get("product-additivity").passed
    assert_matches_the_oracles(zeroed)
    assert_matches_the_oracles(diamond_semiring())
    reasons = set()
    for s in perturbed_semilogics(60, seed=7):
        assert_matches_the_oracles(s)
        reasons |= {w.get("reason") for w in oracle_product_additivity(s)}
    assert reasons == {
        None,
        "image family not summable",
        "image family not orthogonal",
        "product with sum undefined",
    }


@pytest.mark.parametrize("cells", [1, 100, 700])
def test_blocks_that_split_a_run_of_families_match_the_oracles(all_witnesses, monkeypatch, cells):
    # 2^5 has 32 elements: 100 cells is one family of two members per block,
    # 700 ten of them, so every run of one length spans several blocks; the
    # associativity blocks get 1, 1 or 13 rows a of 2^4 and 1, 1 or 3 of 2^5,
    # the last block of each shorter
    monkeypatch.setattr(qstruct.semilogic, "ADDITIVITY_BLOCK", cells)
    monkeypatch.setattr(qstruct.semilogic, "ASSOCIATIVITY_BLOCK", 5 * cells)
    for k in (4, 5):
        assert_matches_the_oracles(powerset_semiring(k))
        assert_matches_the_oracles(shuffled_powerset_semiring(k, seed=k))
    zeroed = zeroed_semiring(5, 0b00111, 0b01110)
    assert not verify_semilogic(zeroed).get("product-additivity").passed
    assert_matches_the_oracles(zeroed)


def test_an_undefined_partial_join_falls_back_to_the_whole_family(all_witnesses, monkeypatch):
    # 0 < p, q, r; p, q < u, v; u, v, r < t: sup{p, q} is undefined (u and v
    # are both minimal above it) while sup{p, q, r} = t. The product is the
    # meet where that exists.
    labels = ["0", "p", "q", "r", "u", "v", "t"]
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (4, 6), (5, 6), (3, 6)]
    le = np.eye(7, dtype=bool)
    for a, b in covers:
        le[a, b] = True
    for _ in range(3):
        le |= le @ le
    poset = FinitePoset(labels, le)
    s = Semilogic(poset, poset.meet_table())
    p, q, r, t = (s.index(x) for x in "pqrt")
    assert poset.join_table()[p, q] == -1
    assert ((p, q, r), t) in summable_families(s)

    fallback_rows = []
    original = UpsetIndex.bounds

    def spy(self, rows):
        fallback_rows.extend(map(tuple, rows.tolist()))
        return original(self, rows)

    monkeypatch.setattr(UpsetIndex, "bounds", spy)
    assert_matches_the_oracles(s)
    assert (p, q, r) in fallback_rows  # a = t: images p, q, r
    assert all(row[:2] == (p, q) for row in fallback_rows)


def test_a_failed_compatibility_search_matches_the_oracle(all_witnesses):
    # {0,1,2} . {1,2,3} = {1}: every common refinement of the two sums to {1,2}
    good = powerset_semiring(4)
    prod = good.prod.copy()
    prod[0b0111, 0b1110] = prod[0b1110, 0b0111] = 0b0010
    s = Semilogic(good.poset, prod)
    compat = verify_semilogic(s).get("compatibility-decomposition")
    assert {"a": "{0,1,2}", "b": "{1,2,3}"} in compat.witnesses
    assert_matches_the_oracles(s)


def test_mo2_files_match_the_oracles(all_witnesses, valid_dir, mutants_dir):
    structures = mo2_semilogic_files(valid_dir, mutants_dir)
    assert len(structures) == 4
    for s in structures:
        assert_matches_the_oracles(s)


def test_semilogic_on_a_non_order_table_matches_the_oracles(all_witnesses):
    le = np.eye(4, dtype=bool)
    le[0, :] = True
    le[1, 2] = le[2, 3] = True  # 1 <= 2 <= 3 without 1 <= 3
    poset = FinitePoset(["0", "a", "b", "c"], le)
    assert poset.upsets().by_up is None
    prod = np.zeros((4, 4), dtype=np.int16)
    np.fill_diagonal(prod, np.arange(4))
    assert_matches_the_oracles(Semilogic(poset, prod))


def test_restricted_associativity_is_decided_by_the_meet(all_witnesses, monkeypatch):
    # only a total product equal to the meet table of a partial order skips
    # the scan; every other product is scanned, and both agree with the loop
    scanned = []
    scan = qstruct.semilogic._associativity_violations

    def spy(s, total):
        scanned.append(s)
        return scan(s, total)

    monkeypatch.setattr(qstruct.semilogic, "_associativity_violations", spy)

    def assert_matches_the_loop(s, scans):
        scanned.clear()
        check = verify_semilogic(s).get("restricted-associativity")
        want = oracle_restricted_associativity(s)
        assert (check.violation_count, check.witnesses) == (len(want), want)
        assert scanned == ([s] if scans else [])
        return want

    for k in range(1, 6):
        assert_matches_the_loop(powerset_semiring(k), False)
        assert_matches_the_loop(shuffled_powerset_semiring(k, seed=k), False)

    # the diamond's product is the meet of a lattice that is not distributive:
    # associative, so not scanned; the zeroed product is total and not the meet
    assert_matches_the_loop(diamond_semiring(), False)
    assert_matches_the_loop(zeroed_semiring(4, 0b0011, 0b0110), True)

    # the meet above the diagonal and not below it: product-is-meet reads the
    # upper triangle only and passes, yet the product is not associative
    good = powerset_semiring(3)  # cached: the copy below is the one changed
    s = Semilogic(good.poset, good.prod)
    s.prod = good.prod.copy()
    s.prod[0b110, 0b011] = 0b000  # {1,2} . {0,1} is {1} above the diagonal
    assert verify_semilogic(s).get("product-is-meet").passed
    assert assert_matches_the_loop(s, True)

    # the meet table of a relation that is not transitive (1 <= 2 <= 3, not
    # 1 <= 3) is total and symmetric here, and not associative
    le = np.eye(4, dtype=bool)
    le[0, :] = le[1, 2] = le[2, 3] = True
    poset = FinitePoset(["0", "a", "b", "c"], le)
    assert (poset.meet_table() >= 0).all()
    assert assert_matches_the_loop(Semilogic(poset, poset.meet_table()), True)

    meet = powerset_semiring(3).prod
    for s in perturbed_semilogics(60, seed=7):  # partial products among them
        assert_matches_the_loop(s, not (s.prod == meet).all())


# -- oracles for the upper and lower family checks -----------------------------


def oracle_upper_family_violations(s, fam):
    le, labels = s.poset.le, s.labels
    out = []
    for a in range(s.n):
        above = [i for i in fam if le[a, i]]
        if not above:
            out.append({"a": labels[a], "reason": "no member above"})
            continue
        for i1 in above:
            for i2 in above:
                if i1 > i2:
                    continue
                if not any(le[a, i] and le[i, i1] and le[i, i2] for i in fam):
                    out.append({"a": labels[a], "i1": labels[i1], "i2": labels[i2]})
    return out


def oracle_lower_family_violations(s, fam):
    le, labels = s.poset.le, s.labels
    out = []
    for a in range(s.n):
        below = [x for x in fam if le[x, a]]
        if not below:
            out.append({"a": labels[a], "reason": "no member below"})
            continue
        for k1 in below:
            for k2 in below:
                if k1 > k2:
                    continue
                if not any(le[x, a] and le[k1, x] and le[k2, x] for x in fam):
                    out.append({"a": labels[a], "k1": labels[k1], "k2": labels[k2]})
    return out


def test_family_checks_match_the_oracles(all_witnesses):
    rng = np.random.default_rng(11)
    structures = [powerset_semiring(k) for k in (1, 2, 3)]
    structures += [shuffled_powerset_semiring(4, seed=4), diamond_semiring(), mo2_semilogic()]
    kinds = set()
    for s in structures:
        families = [[], list(range(s.n))]
        for _ in range(40):
            size = int(rng.integers(1, s.n + 1))
            # unsorted, and with repeats when drawn with replacement
            repeats = bool(rng.random() < 0.3)
            families.append([int(x) for x in rng.choice(s.n, size, replace=repeats)])
        for fam in families:
            le = s.poset.le
            upper = _family_violations(le, s.labels, fam, ("i1", "i2"), "no member above")
            lower = _family_violations(le.T, s.labels, fam, ("k1", "k2"), "no member below")
            want_upper = oracle_upper_family_violations(s, fam)
            want_lower = oracle_lower_family_violations(s, fam)
            assert (upper.kept, upper.count) == (want_upper, len(want_upper))
            assert (lower.kept, lower.count) == (want_lower, len(want_lower))
            kinds |= {frozenset(w) for w in upper.kept + lower.kept}
    assert kinds == {
        frozenset({"a", "reason"}),
        frozenset({"a", "i1", "i2"}),
        frozenset({"a", "k1", "k2"}),
    }


# -- oracles for the closure, regularity and relative-complement checks --------


def oracle_relative_complement(s, a, k):
    z = s.zero()
    if z is None or not s.poset.le[a, k]:
        return None
    mt, jt = s.poset.meet_table(), s.poset.join_table()
    hits = np.flatnonzero((mt[a, :] == z) & (jt[a, :] == k))
    return int(hits[0]) if hits.size == 1 else None


def oracle_verify_closure(s, cp, companion=None):
    k = np.asarray(cp.kmap, dtype=np.int16)
    if k.shape != (s.n,) or (k < 0).any() or (k >= s.n).any():
        raise StructuralError("closure map out of range")
    rep = VerificationReport(subject="closure")
    labels, le = s.labels, s.poset.le
    z = s.zero()

    rep.record(
        "closure-idempotent",
        ({"a": labels[a]} for a in range(s.n) if k[k[a]] != k[a]),
    )
    rep.record(
        "closure-zero",
        [] if z is not None and k[z] == z else [{"zero": labels[z] if z is not None else None}],
    )
    rep.record(
        "closure-extensive",
        ({"a": labels[a]} for a in range(s.n) if not le[a, k[a]]),
    )
    jt = s.poset.join_table()
    join_viol = []
    for a in range(s.n):
        for b in range(a, s.n):
            j = int(jt[a, b])
            if j < 0:
                continue
            kk = int(jt[k[a], k[b]])
            if kk < 0 or kk != k[j]:
                join_viol.append({"a": labels[a], "b": labels[b]})
    rep.record("closure-join", join_viol)

    closed = sorted(int(a) for a in range(s.n) if k[a] == a)
    closed_set = set(closed)

    def difference(top, a):
        if companion is not None:
            d = int(companion.diff[top, a])
            return d if d >= 0 else None
        return oracle_relative_complement(s, a, top)

    opens, indeterminate = [], 0
    for a in range(s.n):
        is_open = True
        for c in closed:
            if not le[a, c]:
                continue
            d = difference(c, a)
            if d is None:
                indeterminate += 1
                continue
            if d not in closed_set:
                is_open = False
                break
        if is_open:
            opens.append(a)
    open_set = set(opens)

    mt = s.poset.meet_table()
    rep.record(
        "open-meet-open",
        (
            {"i1": labels[i1], "i2": labels[i2]}
            for i1 in opens
            for i2 in opens
            if i1 < i2 and mt[i1, i2] >= 0 and int(mt[i1, i2]) not in open_set
        ),
    )
    rep.record(
        "closed-meet-closed",
        (
            {"k1": labels[k1], "k2": labels[k2]}
            for k1 in closed
            for k2 in closed
            if k1 < k2 and mt[k1, k2] >= 0 and int(mt[k1, k2]) not in closed_set
        ),
    )
    rep.record(
        "closed-join-closed",
        (
            {"k1": labels[k1], "k2": labels[k2]}
            for k1 in closed
            for k2 in closed
            if k1 < k2 and jt[k1, k2] >= 0 and int(jt[k1, k2]) not in closed_set
        ),
    )
    rep.record("open-upper-family", oracle_upper_family_violations(s, opens))

    interior, int_viol = [], []
    for a in range(s.n):
        below = [i for i in opens if le[i, a]]
        j = join_of(s.poset, below)
        interior.append(labels[j] if j is not None else None)
        if j is None:
            int_viol.append({"a": labels[a]})
    rep.record("interior-defined", int_viol)

    rep.facts["closed"] = [labels[c] for c in closed]
    rep.facts["open"] = [labels[i] for i in opens]
    rep.facts["interior"] = dict(zip(labels, interior))
    rep.facts["openness_indeterminate_pairs"] = indeterminate
    top = s.poset.greatest()
    if top is not None:
        duals = {difference(top, i) for i in opens}
        rep.facts["open_complements_are_closed"] = (
            None not in duals and duals == closed_set
        )
    return rep


def oracle_check_regularity(s, m, upper, lower, companion=None, tol=EXACT_TOL):
    up_viol = oracle_upper_family_violations(s, upper)
    if up_viol:
        raise DomainError("upper family axioms fail", which="upper", witness=up_viol[0])
    low_viol = oracle_lower_family_violations(s, lower)
    if low_viol:
        raise DomainError("lower family axioms fail", which="lower", witness=low_viol[0])

    rep = VerificationReport(subject="regularity")
    vals, le, labels = m.values, s.poset.le, s.labels
    below_viol, above_viol = [], []
    for a in range(s.n):
        from_below = max(float(vals[x]) for x in lower if le[x, a])
        from_above = min(float(vals[i]) for i in upper if le[a, i])
        if abs(from_below - vals[a]) > tol:
            below_viol.append({"a": labels[a], "sup": from_below, "value": float(vals[a])})
        if abs(from_above - vals[a]) > tol:
            above_viol.append({"a": labels[a], "inf": from_above, "value": float(vals[a])})
    rep.record("regular-from-below", below_viol)
    rep.record("regular-from-above", above_viol)

    opp_ok, opp_witness = True, None
    for i in upper:
        for k in lower:
            if not le[k, i]:
                continue
            if companion is not None:
                d = int(companion.diff[i, k])
                d = d if d >= 0 else None
            else:
                d = oracle_relative_complement(s, k, i)
            if d is None or d not in set(upper):
                opp_ok = False
                opp_witness = {"i": labels[i], "k": labels[k]}
                break
        if not opp_ok:
            break
    rep.facts["opposite_families"] = opp_ok
    if opp_witness:
        rep.facts["opposite_families_witness"] = opp_witness
    return rep


def outcome(fn, *args):
    """A report's checks and facts, or the error it raised, in comparable form."""
    try:
        rep = fn(*args)
    except QstructError as exc:
        return type(exc), str(exc), exc.details
    return [(c.name, c.passed, c.witnesses, c.violation_count) for c in rep.checks], rep.facts


def closure_corpus():
    """Lattices, non-lattices, a partial product with missing joins and a non-order table."""
    sets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1, 2}), frozenset({2})]
    le = np.eye(4, dtype=bool)
    le[0, :] = True
    le[1, 2] = le[2, 3] = True  # 1 <= 2 <= 3 without 1 <= 3
    prod = np.zeros((4, 4), dtype=np.int16)
    np.fill_diagonal(prod, np.arange(4))
    return [
        *(powerset_semiring(k) for k in (1, 2, 3)),
        shuffled_powerset_semiring(3, seed=3),
        diamond_semiring(),
        mo2_semilogic(),
        subset_semilogic(sets)[0],
        subset_semilogic([frozenset({0}), frozenset({1}), frozenset({0, 1})])[0],
        Semilogic(FinitePoset(["0", "a", "b", "c"], le), prod),
    ]


def random_closure_maps(rng, s, count):
    """Random maps, and idempotent ones sending a to some chosen closed element above it."""
    le = s.poset.le
    for i in range(count):
        if i % 3 == 0:
            yield rng.integers(0, s.n, size=s.n)
            continue
        chosen = rng.random(s.n) < rng.random()
        kmap = np.arange(s.n)
        for a in rng.permutation(s.n):
            targets = np.flatnonzero(chosen & le[a])
            if targets.size and not chosen[a]:
                kmap[a] = rng.choice(targets)
            else:
                chosen[a] = True
        yield kmap


def random_companions(rng, s):
    yield None
    yield Quasilogic(s.poset, random_difference(rng, s.poset.le, 0.5))
    yield Quasilogic(s.poset, random_difference(rng, s.poset.le, 1.0))
    if s.labels == powerset_quasilogic(2).labels:
        yield powerset_quasilogic(2)


def test_relative_complements_match_the_oracle():
    for s in closure_corpus():
        table = difference_table(s)
        for a in range(s.n):
            for k in range(s.n):
                want = oracle_relative_complement(s, a, k)
                assert table[k, a] == (-1 if want is None else want)


def test_closures_match_the_oracle(all_witnesses):
    rng = np.random.default_rng(21)
    seen = {"idempotent": set(), "indeterminate": set(), "failed": set()}
    for s in closure_corpus():
        for companion in random_companions(rng, s):
            for kmap in random_closure_maps(rng, s, 12):
                cp = ClosurePair(np.asarray(kmap, dtype=np.int16))
                want = oracle_verify_closure(s, cp, companion)
                got = outcome(verify_closure, s, cp, companion)
                assert got == outcome(lambda: want)
                seen["idempotent"].add(want.get("closure-idempotent").passed)
                seen["indeterminate"].add(want.facts["openness_indeterminate_pairs"] > 0)
                seen["failed"] |= {c.name for c in want.checks if not c.passed}
    assert seen["idempotent"] == seen["indeterminate"] == {True, False}
    assert seen["failed"] >= {
        "closure-join",
        "open-meet-open",
        "closed-meet-closed",
        "closed-join-closed",
        "open-upper-family",
        "interior-defined",
    }


def directed_family(rng, s, upward):
    """A random family plus the top (bottom), closed under meets (joins) that exist."""
    table = s.poset.meet_table() if upward else s.poset.join_table()
    end = s.poset.greatest() if upward else s.poset.least()
    fam = set(rng.choice(s.n, int(rng.integers(1, s.n + 1))).tolist())
    if end is not None:
        fam.add(end)
    while True:
        grown = fam | {int(table[x, y]) for x in fam for y in fam if table[x, y] >= 0}
        if grown == fam:
            return [int(x) for x in rng.permutation(sorted(fam))]
        fam = grown


def test_regularity_matches_the_oracle(all_witnesses):
    rng = np.random.default_rng(22)
    seen = {"error": set(), "opposite": set(), "regular": set()}
    for s in closure_corpus():
        for companion in random_companions(rng, s):
            for case in range(15):
                if case % 3 == 0:  # random families: unsorted, repeats, rarely directed
                    upper = rng.choice(s.n, int(rng.integers(1, s.n + 1))).tolist()
                    lower = rng.choice(s.n, int(rng.integers(1, s.n + 1))).tolist()
                else:
                    upper = directed_family(rng, s, True)
                    lower = directed_family(rng, s, False)
                values = rng.random(s.n) if case % 2 else rng.integers(0, 3, s.n) / 2
                m = DistributionTable(values)
                want = outcome(oracle_check_regularity, s, m, upper, lower, companion)
                assert outcome(check_regularity, s, m, upper, lower, companion) == want
                if isinstance(want[0], type):
                    seen["error"].add(want[1])
                else:
                    seen["opposite"].add(want[1]["opposite_families"])
                    seen["regular"].add(all(c[1] for c in want[0]))
    assert seen["error"] == {"upper family axioms fail", "lower family axioms fail"}
    assert seen["opposite"] == seen["regular"] == {True, False}


def test_regularity_rejects_family_members_out_of_range():
    s = powerset_semiring(2)
    m = DistributionTable.from_dict(s, {"{0,1}": 1.0})
    for upper, lower in (([-1], [0]), ([7], [0]), ([3], [0, 4])):
        with pytest.raises(DomainError, match="out of range"):
            check_regularity(s, m, upper, lower)


def test_closure_rejects_a_companion_on_other_labels():
    s, cp = sierpinski_closure()
    with pytest.raises(StructuralError, match="companion"):
        verify_closure(s, cp, chain_quasilogic(3))
    big = powerset_semiring(3)
    identity = ClosurePair(np.arange(8, dtype=np.int16))
    with pytest.raises(StructuralError, match="companion"):
        verify_closure(big, identity, chain_quasilogic(8))
    with pytest.raises(StructuralError, match="companion"):
        check_regularity(s, DistributionTable(np.zeros(4)), [3], [0], chain_quasilogic(4))


def test_filters_and_ideals_reject_members_out_of_range():
    s = mo2_semilogic()
    for check, kind in ((verify_filter, Filter), (verify_ideal, Ideal)):
        for members in ({-1}, {99}, {1, 99}, {-1, 0, 5}):
            with pytest.raises(DomainError, match="member out of range"):
                check(s, kind(frozenset(members)))


# -- oracles for the homomorphism, filter and ideal kernels ------------------------


def oracle_verify_homomorphism(h):
    """The family walk, the one-family image sums and the pair loop that verify_homomorphism ran."""
    rep = VerificationReport(subject="homomorphism")
    src, tgt, f = h.source, h.target, h.mapping
    sl, tl = src.labels, tgt.labels
    sz, tz = src.zero(), tgt.zero()
    rep.record(
        "zero-preserved",
        []
        if sz is not None and tz is not None and f[sz] == tz
        else [{"zero": sl[sz] if sz is not None else None}],
    )
    le, ids = src.poset.le, range(src.n)
    rep.record(
        "monotone",
        [
            {"a": sl[a], "b": sl[b]}
            for a in ids
            for b in ids
            if le[a, b] and not tgt.poset.le[f[a], f[b]]
        ],
    )
    if isinstance(src, Semilogic):
        families = summable_families(src)
    else:
        families = oracle_quasilogic_families(src)
    additive = []
    for fam, total in families:
        if len(fam) < 2:
            continue
        img = oracle_image_sum(tgt, [int(f[x]) for x in fam])
        if img is None or img != f[total]:
            additive.append(
                {
                    "family": [sl[x] for x in fam],
                    "expected": tl[int(f[total])],
                    "got": tl[img] if img is not None else None,
                }
            )
    rep.record("additive", additive)
    if isinstance(src, Quasilogic) and isinstance(tgt, Quasilogic):
        rep.record(
            "subtraction-preserved",
            [
                {"b": sl[b], "a": sl[a]}
                for b in ids
                for a in np.flatnonzero(src.diff[b] >= 0).tolist()
                if tgt.diff[f[b], f[a]] < 0 or tgt.diff[f[b], f[a]] != f[src.diff[b, a]]
            ],
        )
    if isinstance(tgt, Quasilogic) and is_logic(tgt):
        if isinstance(src, Semilogic):
            commutes = lambda a, b: src.prod[a, b] >= 0  # noqa: E731
        else:
            commutes = lambda a, b: quasicommutes(src, a, b)  # noqa: E731
        rep.record(
            "commutation-preserved",
            [
                {"a": sl[a], "b": sl[b]}
                for a in ids
                for b in range(a, src.n)
                if commutes(a, b) and not quasicommutes(tgt, int(f[a]), int(f[b]))
            ],
        )
    else:
        rep.facts["commutation-check"] = "skipped (target is not a logic)"
    return rep


def oracle_verify_filter(s, members):
    labels, z = s.labels, s.zero()
    rep = VerificationReport(subject="filter")
    rep.record("no-zero", [{"zero": labels[z]}] if z in members else [])
    rep.record(
        "upward-closed",
        [
            {"member": labels[b], "above": labels[c]}
            for b in members
            for c in np.flatnonzero(s.poset.le[b, :]).tolist()
            if c not in members
        ],
    )
    rep.record(
        "product-closed",
        [
            {"a": labels[a], "b": labels[b], "product": labels[int(s.prod[a, b])]}
            for a in members
            for b in members
            if s.prod[a, b] >= 0 and int(s.prod[a, b]) not in members
        ],
    )
    rep.facts["maximal"] = all(
        any(s.poset.meet_table()[a, b] == z for b in members) for a in range(s.n) if a not in members
    )
    rep.facts["members"] = sorted(labels[x] for x in members)
    return rep


def oracle_ideal_closure(s, seed):
    mt, cur, grown = s.poset.meet_table(), set(), set(seed)
    while grown != cur:
        cur, meets = grown, mt[:, sorted(grown)]
        sums = {sup for fam, sup in summable_families(s) if fam and set(fam) <= cur}
        grown = cur | set(meets[meets >= 0].tolist()) | sums
    return cur


def oracle_verify_ideal(s, members):
    labels, mt = s.labels, s.poset.meet_table()
    rep = VerificationReport(subject="ideal")
    rep.record(
        "meet-absorbing",
        [
            {"a": labels[a], "b": labels[b], "meet": labels[int(mt[a, b])]}
            for a in range(s.n)
            for b in members
            if mt[a, b] >= 0 and int(mt[a, b]) not in members
        ],
    )
    rep.record(
        "sum-closed",
        [
            {"family": [labels[x] for x in fam], "sum": labels[sup]}
            for fam, sup in summable_families(s)
            if fam and set(fam) <= members and sup not in members
        ],
    )
    rep.facts["maximal"] = all(
        len(oracle_ideal_closure(s, members | {x})) == s.n for x in range(s.n) if x not in members
    )
    rep.facts["members"] = sorted(labels[x] for x in members)
    return rep


def in_order(labels, witnesses, keys):
    """Witnesses sorted by the element ids under ``keys``; a list key sorts by (size, members)."""
    ids = {label: i for i, label in enumerate(labels)}

    def key(w):
        cells = [w[k] if isinstance(w[k], list) else [w[k]] for k in keys]
        return [(len(c), [ids[x] for x in c]) for c in cells]

    return sorted(witnesses, key=key)


# the order the kernels give where the loops read a Python set or walked depth first
REORDERED = {
    "upward-closed": ("member", "above"),
    "product-closed": ("a", "b"),
    "meet-absorbing": ("a", "b"),
}


def assert_same_report(got, want, labels, reordered):
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for check, oracle in zip(got.checks, want.checks):
        witnesses = oracle.witnesses
        if check.name in reordered:
            witnesses = in_order(labels, witnesses, reordered[check.name])
        assert (check.name, check.violation_count) == (oracle.name, oracle.violation_count)
        assert check.witnesses == witnesses, check.name
    assert got.facts == want.facts


def assert_homomorphism_matches_the_oracle(src, tgt, f):
    h = HomomorphismMap(src, tgt, np.asarray(f, dtype=np.int16))
    reordered = {"additive": ("family",)} if isinstance(src, Quasilogic) else {}
    got = verify_homomorphism(h)
    assert_same_report(got, oracle_verify_homomorphism(h), src.labels, reordered)
    return got


def assert_filter_and_ideal_match_the_oracles(s, members):
    members = set(members)
    got = [
        verify_filter(s, Filter(frozenset(members))),
        verify_ideal(s, Ideal(frozenset(members))),
    ]
    want = [oracle_verify_filter(s, members), oracle_verify_ideal(s, members)]
    for rep, oracle in zip(got, want):
        assert_same_report(rep, oracle, s.labels, REORDERED)
    return got


def random_quasilogic(rng, n):
    """A random order, half the time with a bottom, and a random difference table."""
    le = random_order(rng, n)
    if rng.random() < 0.5:
        le[int(rng.integers(n))] = True
    return Quasilogic(FinitePoset([f"q{i}" for i in range(n)], le), random_difference(rng, le, 0.6))


def meet_semilogic(rng, n):
    """A random order with a bottom, its meet as the product."""
    le = random_order(rng, n)
    le[int(rng.integers(n))] = True
    poset = FinitePoset([f"m{i}" for i in range(n)], le)
    return Semilogic(poset, poset.meet_table())


def homomorphism_structures(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "logic":
        return next(random_logics(1, seed))
    if kind == "quasilogic":
        return random_quasilogic(rng, int(rng.integers(2, 9)))
    if kind == "flat":
        return flat_semilogic(int(rng.integers(0, 6)))
    if kind == "hsum":
        return horizontal_sum_semilogic(int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    return [powerset_logic(3), mo2_logic(), powerset_quasilogic(2), powerset_semiring(3)][seed % 4]


KINDS = ["logic", "quasilogic", "flat", "hsum", "standard"]


@given(
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.integers(0, 2**16),
    st.booleans(),
)
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_homomorphisms_match_the_oracle(all_witnesses, source, target, seed, identity):
    src = homomorphism_structures(source, seed)
    tgt = src if identity else homomorphism_structures(target, seed + 1)
    rng = np.random.default_rng(seed)
    f = np.arange(src.n) if identity else rng.integers(0, tgt.n, size=src.n)
    assert_homomorphism_matches_the_oracle(src, tgt, f)


@given(st.sampled_from(["flat", "hsum", "meet", "standard"]), st.integers(0, 2**16))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_filters_and_ideals_match_the_oracles(all_witnesses, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "meet":
        s = meet_semilogic(rng, int(rng.integers(2, 9)))
    elif kind == "standard":
        s = [powerset_semiring(3), mo2_semilogic(), diamond_semiring()][seed % 3]
    else:
        s = homomorphism_structures(kind, seed)
    a = int(rng.integers(s.n))
    candidates = [
        np.flatnonzero(s.poset.le[a]),  # a principal upset
        np.flatnonzero(s.poset.le[:, a]),  # a principal downset
        rng.choice(s.n, int(rng.integers(1, s.n)), replace=False),
    ]
    for members in candidates:
        if 0 < len(members) < s.n:
            assert_filter_and_ideal_match_the_oracles(s, members.tolist())


def test_the_oracle_corpora_find_violations_of_every_changed_check(all_witnesses):
    # the properties above compare whole lists; here the lists are not all empty
    found = dict.fromkeys(
        ["additive", "commutation-preserved", "upward-closed", "product-closed",
         "meet-absorbing", "sum-closed", "maximal", "not maximal"], 0
    )
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for source in KINDS:
            src = homomorphism_structures(source, seed)
            tgt = homomorphism_structures(KINDS[seed % len(KINDS)], seed + 1)
            for rep in (
                assert_homomorphism_matches_the_oracle(src, src, np.arange(src.n)),
                assert_homomorphism_matches_the_oracle(
                    src, tgt, rng.integers(0, tgt.n, size=src.n)
                ),
            ):
                for name in ("additive", "commutation-preserved"):
                    found[name] += rep.has(name) and rep.get(name).violation_count
        semilogics = [meet_semilogic(rng, int(rng.integers(3, 9))), powerset_semiring(3)]
        for s in semilogics + [homomorphism_structures(["flat", "hsum"][seed % 2], seed)]:
            members = rng.choice(s.n, int(rng.integers(1, s.n)), replace=False).tolist()
            for rep in assert_filter_and_ideal_match_the_oracles(s, members):
                for check in rep.checks:
                    if check.name in found:
                        found[check.name] += check.violation_count
                if rep.subject == "ideal":
                    found["maximal" if rep.facts["maximal"] else "not maximal"] += 1
    assert min(found.values()) > 0, found


def oracle_maximal(s, members):
    """The closure of the ideal plus each outside element, one closure per element."""
    return all(
        len(oracle_ideal_closure(s, members | {x})) == s.n for x in range(s.n) if x not in members
    )


def oracle_maximal_by_closures(s, members):
    """``verify_ideal``'s loop before it skipped settled elements: one closure per element."""
    levels = list(s._all_orthogonal_families().summable(1))
    ids = np.arange(s.n)
    inside = np.isin(ids, list(members))
    return all(_ideal_closure(s, inside | (ids == x), levels).all() for x in ids[~inside])


def assert_maximal_matches_the_closure_loop(s, rng):
    """``maximal`` on the proper principal downsets of ``s`` and as many random sets.

    Returns the facts seen.
    """
    seen = set()
    candidates = [np.flatnonzero(s.poset.le[:, a]) for a in range(s.n)]
    candidates += [rng.choice(s.n, int(rng.integers(1, s.n)), replace=False) for _ in range(s.n)]
    for members in candidates:
        members = set(members.tolist())
        if 0 < len(members) < s.n:
            got = verify_ideal(s, Ideal(frozenset(members))).facts["maximal"]
            assert got == oracle_maximal(s, members), (s.labels, members)
            assert got == oracle_maximal_by_closures(s, members), (s.labels, members)
            seen.add(got)
    return seen


def nonorder_semilogic(rng, n):
    """``meet_semilogic`` with a maximal element taken out of its own upset: not an order."""
    s = meet_semilogic(rng, n)
    le = s.poset.le.copy()
    tops = np.flatnonzero(le.sum(axis=1) == 1)
    le[tops[:1], tops[:1]] = False
    poset = FinitePoset(s.labels, le)
    return Semilogic(poset, poset.meet_table())


def test_maximal_ideals_match_the_closure_loop_on_the_fixtures():
    seen, rng = set(), np.random.default_rng(19)
    for s in fixture_structures(Semilogic) + [powerset_semiring(4), mo2_semilogic()]:
        seen |= assert_maximal_matches_the_closure_loop(s, rng)
    assert seen == {True, False}


@given(st.sampled_from(["flat", "hsum", "meet", "nonorder", "standard"]), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_maximal_ideals_match_the_closure_loop(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "meet":
        s = meet_semilogic(rng, int(rng.integers(2, 9)))
    elif kind == "nonorder":
        s = nonorder_semilogic(rng, int(rng.integers(3, 9)))
    elif kind == "standard":
        s = [powerset_semiring(3), mo2_semilogic(), diamond_semiring()][seed % 3]
    else:
        s = homomorphism_structures(kind, seed)
    assert_maximal_matches_the_closure_loop(s, rng)


def test_past_the_cap_a_quasilogic_source_fails_where_the_walk_did(all_witnesses, monkeypatch):
    sources = [powerset_logic(3), mo2_quasilogic(), chain_quasilogic(4)]
    sources += [random_quasilogic(np.random.default_rng(seed), 7) for seed in range(6)]
    raised = set()
    for src in sources:
        count = len(oracle_quasilogic_families(src))
        for cap in range(1, count + 2):
            h = HomomorphismMap(src, src, np.arange(src.n, dtype=np.int16))
            monkeypatch.setattr(qstruct.semilogic, "MAX_FAMILIES", cap)
            try:
                oracle_quasilogic_families(src, cap)
            except StructuralError as exc:
                with pytest.raises(StructuralError, match=str(exc)):
                    verify_homomorphism(h)
                raised.add(cap)
                continue
            assert cap >= count
            assert_homomorphism_matches_the_oracle(src, src, np.arange(src.n))
    assert raised
