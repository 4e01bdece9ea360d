"""Set representations of boolean semirings, measures and subset topologies.

Powerset semirings index elements by bitmask and their points are the atoms,
so every extent is predictable from popcounts; the diamond provides the
canonical non-representable contrast. The frozenset loops that
``verify_topology``, ``verify_stone`` and ``subset_semilogic`` once ran are
kept as the oracles for their index kernels and packed rows, and the dict
closure under disjoint unions as the oracle of ``represent_distribution``,
which reads its ring off the family levels.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest
from conftest import fixture_structures, oracle_summable_families, structure_file

import qstruct.boolean_rep

from qstruct import (
    BooleanSemiring,
    DistributionTable,
    DomainError,
    FinitePoset,
    QstructError,
    StructuralError,
    SubsetTopology,
    cli,
    diamond_semiring,
    induced_homomorphism,
    maximal_filters,
    mo2_semilogic,
    powerset_semiring,
    represent_distribution,
    shuffled_powerset_semiring,
    stone_map,
    subset_semilogic,
    verify_homomorphism,
    verify_semiring,
    verify_stone,
    verify_topology,
)
from qstruct.boolean_rep import StoneRepresentation, _is_maximal_filter
from qstruct.order import MAX_ELEMENTS
from qstruct.report import VerificationReport
from qstruct.semilogic import distribution_mass


def test_semiring_rejects_partial_products_and_trivial_carriers():
    mo2 = mo2_semilogic()
    with pytest.raises(DomainError, match="total"):
        BooleanSemiring(mo2.poset, mo2.prod)
    with pytest.raises(DomainError, match="trivial"):
        powerset_semiring(0)


def test_powerset_points_are_atom_upsets():
    bs = powerset_semiring(3)
    filters = maximal_filters(bs)
    assert len(filters) == 3
    gens = {min(f.members, key=lambda b: bin(b).count("1")) for f in filters}
    assert gens == {0b001, 0b010, 0b100}
    for f in filters:
        g = min(f.members, key=lambda b: bin(b).count("1"))
        assert f.members == frozenset(b for b in range(8) if b & g)


def test_stone_map_extent_sizes_follow_popcount():
    bs = powerset_semiring(3)
    sr = stone_map(bs)
    rep = verify_stone(sr)
    assert rep.ok
    assert rep.facts["point_count"] == 3
    for b in range(8):
        assert len(sr.extent[b]) == bin(b).count("1")


def test_shuffled_semirings_still_represent_faithfully():
    for seed in (1, 12, 123):
        sr = stone_map(shuffled_powerset_semiring(3, seed))
        rep = verify_stone(sr)
        assert rep.ok, [c.name for c in rep.checks if not c.passed]
        assert rep.facts["point_count"] == 3


def test_diamond_fails_exactly_the_union_law():
    bs = diamond_semiring()
    srep = verify_semiring(bs)
    assert [c.name for c in srep.checks if not c.passed] == ["product-additivity"]
    assert srep.facts["distributive"] is False
    rep = verify_stone(stone_map(bs))
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"sums-to-unions"}
    wit = rep.get("sums-to-unions").witnesses[0]
    assert wit["sum"] == "1" and len(wit["family"]) == 2


def oracle_is_maximal_filter(bs, members):
    z = bs.zero()
    for a in range(bs.n):
        if a in members:
            continue
        if not any(bs.prod[a, b] == z for b in members):
            return False
    return True


def test_maximal_filters_match_the_loop(monkeypatch):
    semirings = fixture_structures(BooleanSemiring) + [diamond_semiring()]
    semirings += [powerset_semiring(k) for k in range(1, 7)]
    semirings += [shuffled_powerset_semiring(k, seed=k) for k in (3, 5)]
    rng = np.random.default_rng(5)
    verdicts = set()
    for bs in semirings:
        got = maximal_filters(bs)
        with monkeypatch.context() as patch:
            patch.setattr(qstruct.boolean_rep, "_is_maximal_filter", oracle_is_maximal_filter)
            assert got == maximal_filters(bs)
        for size in rng.integers(0, bs.n + 1, size=12).tolist():
            members = frozenset(rng.choice(bs.n, size, replace=False).tolist())
            verdict = _is_maximal_filter(bs, members)
            assert verdict == oracle_is_maximal_filter(bs, members)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def oracle_stone_pairs(sr):
    """The frozenset loops that verify_stone's pair and family checks once ran."""
    bs, ext, labels, le = sr.semiring, sr.extent, sr.semiring.labels, sr.semiring.poset.le

    def pairs(keep):
        return [{"a": labels[a], "b": labels[b]} for a in ids for b in ids if keep(a, b)]

    ids = range(bs.n)
    return {
        "monotone": pairs(lambda a, b: le[a, b] and not ext[a] <= ext[b]),
        "meets-to-intersections": pairs(
            lambda a, b: b >= a and ext[int(bs.prod[a, b])] != ext[a] & ext[b]
        ),
        "sums-to-unions": [
            {"family": [labels[x] for x in fam], "sum": labels[sup]}
            for fam, sup in oracle_summable_families(bs)
            if fam and ext[sup] != frozenset().union(*(ext[x] for x in fam))
        ],
        "faithful": pairs(lambda a, b: b > a and ext[a] == ext[b]),
        "separating": pairs(lambda a, b: not le[a, b] and ext[a] <= ext[b]),
    }


NOT_A_RING = {"reason": "image is not an intersection-closed faithful ring"}


def corrupted_stone_maps(seed):
    """Stone maps with a few points flipped in a few extents."""
    rng = np.random.default_rng(seed)
    semirings = [powerset_semiring(3), shuffled_powerset_semiring(4, 4), diamond_semiring()]
    for bs in semirings:
        for trial in range(6):
            sr = stone_map(bs)
            points = len(sr.points)
            for b in rng.choice(bs.n, size=1 + trial % 3, replace=False):
                flip = int(rng.integers(points))
                sr.extent[b] = sr.extent[b] ^ frozenset([flip])
            yield sr
    # distinct extents not closed under intersection: x's & y's is {1}
    sr = stone_map(diamond_semiring())
    sr.extent[1:3] = frozenset({0, 1}), frozenset({1, 2})
    yield sr


def test_stone_checks_match_the_set_loops_on_corrupted_extents(all_witnesses):
    failed, rings = set(), set()
    for sr in corrupted_stone_maps(31):
        rep = verify_stone(sr)
        for name, want in oracle_stone_pairs(sr).items():
            assert rep.get(name).witnesses == want, name
            failed |= {name} if want else set()
        # the set loop that once guarded the perfect check
        known = set(sr.extent)
        distinct = len(known) == len(sr.extent)
        ring = distinct and all(a & b in known for a in known for b in known)
        assert (NOT_A_RING in rep.get("perfect").witnesses) != ring
        rings.add((distinct, ring))
    assert failed == set(oracle_stone_pairs(sr))
    assert rings == {(True, True), (True, False), (False, False)}


def test_distribution_pushes_to_a_measure():
    bs = powerset_semiring(2)
    sr = stone_map(bs)
    m = DistributionTable.from_dict(bs, {"{0}": 0.25, "{1}": 0.75, "{0,1}": 1.0})
    measure, rep = represent_distribution(sr, m)
    assert rep.ok
    assert rep.facts["ring_size"] == 4
    assert rep.facts["mass"] == pytest.approx(1.0)
    assert measure[frozenset()] == 0.0
    assert measure[sr.extent[bs.index("{0}")]] == pytest.approx(0.25)
    assert measure[sr.extent[bs.index("{0,1}")]] == pytest.approx(1.0)
    assert sorted(measure.values()) == pytest.approx([0.0, 0.25, 0.75, 1.0])


def test_non_additive_distribution_is_caught_twice():
    bs = powerset_semiring(2)
    sr = stone_map(bs)
    for values, total in (((0.25, 0.75, 0.9), 1.0), ((0.3, 0.3, 0.5), 0.6)):
        m = DistributionTable.from_dict(bs, dict(zip(("{0}", "{1}", "{0,1}"), values)))
        _, rep = represent_distribution(sr, m)
        # one bad decomposition is one (union, family) cell, whatever the member order
        check = rep.get("additive-consistency")
        assert check.violation_count == 1
        assert check.witnesses == [
            {"set": [0, 1], "values": [values[2], total], "parts": [[0], [1]], "family": ["{0}", "{1}"]}
        ]
        assert not rep.get("mass-preserved").passed


def oracle_represent_distribution(sr, m, tol=1e-12):
    """The dict closure under disjoint unions that represent_distribution once ran.

    Returns the measure and the verdict of each of its checks.
    """
    bs, ext = sr.semiring, sr.extent
    vals = np.asarray(m.values, dtype=float)
    measure = {frozenset(): 0.0}
    conflicts = []
    for b in range(bs.n):
        v = float(vals[b])
        if ext[b] in measure and abs(measure[ext[b]] - v) > tol:
            conflicts.append(b)
        measure[ext[b]] = v
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
                        disagreements.append(u)
                else:
                    measure[u] = total
                    new.append(u)
        frontier = new
    full = frozenset(range(len(sr.points)))
    mass = distribution_mass(bs, vals)
    return measure, {
        "well-defined-on-extents": not conflicts,
        "additive-consistency": not disagreements,
        "mass-preserved": full in measure and abs(measure[full] - mass) <= tol,
    }


def atom_semiring(k):
    """0 and k pairwise-orthogonal atoms with no sums: the Stone ring has 2^k sets."""
    labels = ["0", *(f"a{i}" for i in range(k))]
    le = np.eye(k + 1, dtype=bool)
    le[0] = True
    prod = np.diag(np.arange(k + 1)).astype(np.int16)
    return BooleanSemiring(FinitePoset(labels, le), prod)


def point_measure(sr, rng):
    """Values adding up random point weights over each extent."""
    weights = rng.random(len(sr.points))
    return np.array([weights[sorted(e)].sum() for e in sr.extent])


def measure_cases(rng):
    semirings = fixture_structures(BooleanSemiring) + [powerset_semiring(k) for k in range(1, 6)]
    for bs in semirings + [atom_semiring(k) for k in range(1, 9)]:
        sr = stone_map(bs)
        vals = point_measure(sr, rng)
        yield sr, vals
        for step in (0.1, 1e-9):
            perturbed = vals.copy()
            perturbed[rng.integers(bs.n)] += step
            yield sr, perturbed
        at_zero = vals.copy()
        at_zero[bs.zero()] = 0.2
        yield sr, at_zero
    # duplicate and empty extents, failing Stone checks
    for sr in corrupted_stone_maps(31):
        yield sr, point_measure(sr, rng)
        for _ in range(3):
            yield sr, rng.random(sr.semiring.n)


def test_measures_match_the_dict_closure():
    verdicts = set()
    for sr, vals in measure_cases(np.random.default_rng(7)):
        m = DistributionTable(vals)
        got, rep = represent_distribution(sr, m)
        want, checks = oracle_represent_distribution(sr, m)
        assert set(got) == set(want)
        assert rep.facts["ring_size"] == len(want)
        # extents keep their values bit for bit; other unions may add in another order
        extents = set(sr.extent) | {frozenset()}
        for s, v in want.items():
            assert got[s] == v if s in extents else abs(got[s] - v) <= 1e-12
        for name, passed in checks.items():
            assert rep.get(name).passed == passed, name
        verdicts.add(tuple(checks.values()))
    assert len(verdicts) >= 4


def test_the_atom_ring_ends_at_the_ceiling(capsys, tmp_path):
    # the ring of k disjoint extents has 2^k sets: a valid input at the family cap
    for k in (16, 18):
        bs = atom_semiring(k)
        path, dist = tmp_path / f"atoms{k}.json", tmp_path / f"atoms{k}_dist.json"
        path.write_text(json.dumps(structure_file(bs) | {"kind": "boolean_semiring"}))
        dist.write_text(json.dumps({"values": {x: 1 / k for x in bs.labels[1:]}}))
        start = time.process_time()
        code = cli.main(["stone", "--json", str(path), "--distribution", str(dist)])
        out = json.loads(capsys.readouterr().out)
        if k == 16:
            assert time.process_time() - start < 10.0  # about 1 s on a 2-vCPU VM
            assert code == 0
            assert out["reports"][2]["facts"]["ring_size"] == 2**16
        else:  # 2^18 families are past MAX_FAMILIES
            assert code == 2
            assert "enumeration cap" in out["error"]["message"]


def test_the_ring_family_cap_is_its_own(monkeypatch):
    # a chain has no orthogonal pair, but k disjoint extents have 2^k families
    ids = np.arange(19)
    chain = BooleanSemiring(
        FinitePoset([f"c{i}" for i in ids], ids[:, None] <= ids),
        np.minimum.outer(ids, ids).astype(np.int16),
    )
    sr = StoneRepresentation(chain, [], [frozenset()] + [frozenset([i]) for i in range(18)])
    with pytest.raises(StructuralError, match="enumeration cap"):
        represent_distribution(sr, DistributionTable(np.zeros(19)))
    # three distinct extents among duplicates: 8 families with the empty one
    sr.extent[4:] = [frozenset([i % 3]) for i in range(15)]
    monkeypatch.setattr(qstruct.boolean_rep, "MAX_FAMILIES", 8)
    _, rep = represent_distribution(sr, DistributionTable(np.zeros(19)))
    assert rep.facts["ring_size"] == 8
    monkeypatch.setattr(qstruct.boolean_rep, "MAX_FAMILIES", 7)
    with pytest.raises(StructuralError, match="enumeration cap"):
        represent_distribution(sr, DistributionTable(np.zeros(19)))


def test_induced_homomorphism_pulls_back_along_points():
    src = stone_map(powerset_semiring(2))
    dst = stone_map(powerset_semiring(3))
    # two destination points land on source point 0, the third on point 1
    h = induced_homomorphism(src, dst, [0, 0, 1])
    rep = verify_homomorphism(h)
    assert rep.ok
    # {0} pulls back to the union of the two points mapped onto it
    pre = int(h.mapping[src.semiring.index("{0}")])
    assert len(dst.extent[pre]) == 2
    assert int(h.mapping[0]) == 0
    assert dst.semiring.labels[int(h.mapping[3])] == "{0,1,2}"


def test_induced_homomorphism_validates_the_point_map():
    src = stone_map(powerset_semiring(2))
    dst = stone_map(diamond_semiring())
    with pytest.raises(DomainError, match="length mismatch"):
        induced_homomorphism(src, dst, [0])
    with pytest.raises(DomainError, match="out of range"):
        induced_homomorphism(src, dst, [0, 1, 5])
    with pytest.raises(DomainError, match="not representable"):
        # {0, 1} is not an extent of the diamond
        induced_homomorphism(src, dst, [0, 0, 1])


def test_subset_semilogic_orders_by_inclusion():
    fam = [frozenset(), frozenset({0}), frozenset({0, 1})]
    s, order = subset_semilogic(fam)
    assert order == fam
    assert s.labels == ("{}", "{0}", "{0,1}")
    assert (s.prod >= 0).all()  # intersection-closed family
    partial, _ = subset_semilogic([frozenset({0}), frozenset({1})])
    assert (partial.prod < 0).any()  # {0} & {1} leaves the family


def oracle_subset_semilogic(sets):
    """The pair loop that subset_semilogic once ran: (labels, le, prod, order)."""
    distinct = set(sets)
    order = sorted(distinct, key=lambda s: (len(s), sorted(map(str, s))))
    carrier = sorted({x for s in order for x in s}, key=str)
    labels = tuple(qstruct.boolean_rep._set_label(s, carrier) for s in order)
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
    FinitePoset(labels, le)  # the same errors: duplicate labels, no sets
    return labels, le.tolist(), prod.tolist(), order


def random_families(count, seed):
    """Families over int, str and mixed carriers of up to 150 points.

    Rows take one to three words. Some families are closed under
    intersection and some hold the empty set; a few mixed carriers hold both
    1 and "1", which are distinct points with the same label text.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        size = int(rng.choice([3, 8, 40, 64, 65, 150]))
        carrier = [
            range(size),
            [f"p{i}" for i in range(size)],
            [i if i % 2 else str(i) for i in range(size)] + (["1"] if case % 7 == 0 else []),
        ][case % 3]
        carrier = list(carrier)
        sets = [
            frozenset(x for x in carrier if rng.random() < density)
            for density in rng.random(int(rng.integers(1, 12)))
        ]
        if case % 4 == 0:
            sets = list({a & b for a in sets for b in sets})
        if case % 5 < 2:
            sets.append(frozenset())
        else:
            sets = [x for x in sets if x] or [frozenset(carrier[:1])]
        yield [sets[i] for i in rng.permutation(len(sets))]


def subset_outcome(fn, sets):
    try:
        return fn(sets)
    except QstructError as exc:
        return type(exc), str(exc), exc.details


def subset_tables(sets):
    s, order = subset_semilogic(sets)
    return s.labels, s.poset.le.tolist(), s.prod.tolist(), order


def test_subset_semilogic_matches_the_pair_loop():
    closed = set()
    cases = [*random_families(300, seed=41), [], [frozenset()], [frozenset({1}), frozenset({"1"})]]
    for sets in cases:
        want = subset_outcome(oracle_subset_semilogic, sets)
        assert subset_outcome(subset_tables, sets) == want
        if not isinstance(want[0], type):
            closed.add(min(map(min, want[2])) >= 0)
    assert closed == {True, False}


def all_subsets(k):
    return [frozenset(i for i in range(k) if m >> i & 1) for m in range(1 << k)]


def test_sierpinski_topology_verifies_but_does_not_approximate():
    sets = all_subsets(2)
    t = SubsetTopology(
        carrier=frozenset({0, 1}),
        sets=sets,
        opens=[frozenset(), frozenset({1}), frozenset({0, 1})],
        closeds=[frozenset(), frozenset({0}), frozenset({0, 1})],
    )
    rep = verify_topology(t)
    assert rep.ok
    assert rep.facts["approximating"] is False
    assert rep.facts["approximating_witness"] == {"set": [0]}


def test_discrete_topology_approximates():
    sets = all_subsets(2)
    t = SubsetTopology(frozenset({0, 1}), sets, sets, sets)
    rep = verify_topology(t)
    assert rep.ok
    assert rep.facts["approximating"] is True


def test_topology_families_must_stay_in_the_ring():
    sets = all_subsets(2)
    t = SubsetTopology(frozenset({0, 1}), sets, [frozenset({7})], sets)
    with pytest.raises(StructuralError, match="leaves the ring"):
        verify_topology(t)


def test_missing_closed_empty_set_is_reported():
    sets = all_subsets(2)
    t = SubsetTopology(
        frozenset({0, 1}), sets, sets, [frozenset({0}), frozenset({0, 1})]
    )
    rep = verify_topology(t)
    assert not rep.get("closed-empty").passed


# -- oracle for the subset topology checks ----------------------------------------


def oracle_verify_topology(t):
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


def topology_outcome(fn, t):
    try:
        rep = fn(t)
    except QstructError as exc:
        return type(exc), str(exc), exc.details
    return [(c.name, c.passed, c.witnesses, c.violation_count) for c in rep.checks], rep.facts


def random_topologies(count, seed):
    """Carriers of up to 8 points; families with repeats, in shuffled order.

    Some families are closed under intersections, some not; the open and
    closed subfamilies are random draws from the family, with repeats, and
    now and then take the empty set or the whole carrier along.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        points = int(rng.integers(1, 9))
        carrier = frozenset(range(points))
        masks = rng.integers(0, 1 << points, size=int(rng.integers(1, 10)))
        sets = [frozenset(i for i in range(points) if m >> i & 1) for m in masks]
        if case % 3 == 0:
            sets += [frozenset(), carrier]
        if case % 4 == 0:
            sets = sorted({a & b for a in sets for b in sets}, key=sorted)
        sets = [sets[i] for i in rng.integers(0, len(sets), size=len(sets) + 2)]
        opens, closeds = (
            [sets[i] for i in rng.integers(0, len(sets), size=int(rng.integers(0, len(sets) + 2)))]
            for _ in range(2)
        )
        if case % 5 == 1:
            opens = sets
        yield SubsetTopology(carrier, sets, opens, closeds)


def test_topologies_match_the_oracle(all_witnesses):
    failed, facts = set(), set()
    cases = [*random_topologies(400, seed=31)]
    cases += [
        SubsetTopology(frozenset({0, 1}), all_subsets(2), [frozenset({7})], all_subsets(2)),
        SubsetTopology(frozenset({0, 1}), all_subsets(2), all_subsets(2), [frozenset({5})]),
    ]
    for t in cases:
        want = topology_outcome(oracle_verify_topology, t)
        assert topology_outcome(verify_topology, t) == want
        if not isinstance(want[0], type):
            failed |= {name for name, passed, _, _ in want[0] if not passed}
            facts.add(want[1]["approximating"])
    assert facts == {True, False}
    assert failed == {
        "open-covers",
        "open-intersections",
        "closed-empty",
        "closed-intersections",
        "interior-in-family",
        "closure-in-family",
        "difference-open",
        "difference-closed",
    }


def test_topology_sets_must_stay_in_the_carrier():
    t = SubsetTopology(frozenset({0}), all_subsets(2), all_subsets(2), all_subsets(2))
    with pytest.raises(StructuralError, match="leaves the carrier"):
        verify_topology(t)


def test_topology_size_is_bounded_before_any_table():
    sets = [frozenset({i}) for i in range(MAX_ELEMENTS + 1)]
    t = SubsetTopology(frozenset(range(MAX_ELEMENTS + 1)), sets, sets, sets)
    with pytest.raises(StructuralError, match="too many sets"):
        verify_topology(t)
    with pytest.raises(StructuralError, match="too many sets"):
        subset_semilogic(sets + sets)


@pytest.mark.parametrize("field", ["sets", "opens", "closeds"])
def test_topology_list_lengths_are_bounded_before_any_table(field):
    # the pair tables are sized by the lists with repeats counted: 2,000
    # repeats of the empty set once peaked at 40 MB
    ring = [frozenset(), frozenset({0})]
    lists = {"sets": ring, "opens": ring, "closeds": ring}
    lists[field] = lists[field] + [frozenset()] * (MAX_ELEMENTS - 2)
    assert verify_topology(SubsetTopology(frozenset({0}), **lists)).has("open-covers")

    lists[field] = lists[field] + [frozenset()] * 2000
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError, match=f"too many {field}"):
            verify_topology(SubsetTopology(frozenset({0}), **lists))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
