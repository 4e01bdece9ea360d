"""The one additivity engine against the per-family loops it replaced.

``verify_distribution``, ``verify_povm``, ``verify_dilation``,
``vector_state`` and ``operator_distribution`` each once ran their own loop
"for (family, sup): compare the value of the sup with the sum of the values",
and ``verify_distribution`` and ``represent_distribution`` a max over family
sums for the mass. Those loops, and the pair loop of the multiplicativity
check, are kept here as oracles: witness lists in full and in order, with the
same floats bit for bit. So are the depth-first family walk with its sort and
the padded residual loop (in conftest.py), for the level-wise family table
that replaced them: the same families, sups, order and count, and the same
residuals. So is the expansion that unpacked every row of a level, for the
reader of set bits from nonzero bytes in ``orthogonal_levels``: the same
levels, and the cap raised at the same level. The walk through the whole
family table is in turn the oracle for ``verify_semilogic``'s decisions by
orthogonal pairs: with the walk forced, hypothesis-built semilogics give the
same reports, and past a lowered cap the same verdicts with the walk's
witnesses of at most two members.
"""

import inspect
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from conftest import (
    crossed_clan,
    diagonal_clan,
    flat_semilogic,
    horizontal_sum_semilogic,
    mo_clan,
    oracle_all_orthogonal_families,
    oracle_family_residuals,
    oracle_op_norm,
    oracle_orthogonal_families,
    oracle_summable_families,
    random_povm,
    semilogic_on,
    skewed_clan,
    structure_file,
)

import qstruct.clan
import qstruct.semilogic
from qstruct import (
    Dilation,
    FinitePoset,
    Semilogic,
    StructuralError,
    cli,
    DistributionTable,
    FinitePovm,
    Tolerance,
    atoms,
    chain_quasilogic,
    diamond_semiring,
    dilate,
    mo2_quasilogic,
    mo2_semilogic,
    operator_distribution,
    povm_from_outcomes,
    powerset_quasilogic,
    powerset_semiring,
    shuffled_powerset_semiring,
    summable_families,
    vector_state,
    verify_dilation,
    verify_distribution,
    verify_povm,
    verify_semilogic,
)
from qstruct.clan import _orthogonal_member_families, bound_tables, relation_tables
from qstruct.order import sentinel_padded
from qstruct.semilogic import (
    _certified_refinements,
    _decompositions,
    _has_common_refinement,
    _pairs_decide_additivity,
    _sum_families,
    distribution_mass,
    family_residuals,
    orthogonal_levels,
)

TOL = Tolerance()


@pytest.fixture(params=[qstruct.semilogic.FAMILY_BLOCK, 5], ids=["block256", "block5"])
def block(request, monkeypatch, all_witnesses):
    """Run each oracle test at the shipped entry budget of ``family_blocks`` (id block256)
    and at five entries (id block5), one matrix or a few scalars per block, which splits
    every corpus."""
    monkeypatch.setattr(qstruct.semilogic, "FAMILY_BLOCK", request.param)


# -- the old loops ----------------------------------------------------------------


def oracle_distribution(s, vals, tol):
    additive = []
    for fam, sup in oracle_summable_families(s):
        if len(fam) < 2:
            continue
        total = float(sum(vals[list(fam)]))
        if abs(total - vals[sup]) > tol:
            additive.append(
                {
                    "family": [s.labels[x] for x in fam],
                    "sum": s.labels[sup],
                    "gap": float(total - vals[sup]),
                }
            )
    return additive


def oracle_mass(s, vals):
    mass = 0.0
    for fam, _ in oracle_all_orthogonal_families(s):
        if fam:
            mass = max(mass, float(sum(vals[list(fam)])))
    return mass


def oracle_matrix_additive(labels, families, mats, tol):
    additive = []
    for fam, sup in families:
        if len(fam) < 2:
            continue
        gap = oracle_op_norm(mats[sup] - sum(mats[x] for x in fam))
        if gap > tol.eps:
            additive.append({"family": [labels[x] for x in fam], "sum": labels[sup], "gap": gap})
    return additive


def oracle_multiplicative(dil, tol):
    bs, labels = dil.povm.semiring, dil.povm.semiring.labels
    mult = []
    for a in range(bs.n):
        for b in range(a, bs.n):
            gap = oracle_op_norm(dil.images[a] @ dil.images[b] - dil.images[int(bs.prod[a, b])])
            if gap > tol.eps:
                mult.append({"a": labels[a], "b": labels[b], "defect": gap})
    return mult


def oracle_clan_families(clan, tol):
    """(family, join of the family) in (size, members) order, the join folded member by member."""
    _, join_idx = bound_tables(clan, tol)
    orth = relation_tables(clan, tol)["orthogonal"]
    nonzero = [i for i in range(clan.n) if oracle_op_norm(clan.members[i]) > tol.eps]
    out = []
    for fam, _ in oracle_orthogonal_families(nonzero, orth):
        total = fam[0]
        for x in fam[1:]:
            total = int(join_idx[total, x])
        out.append((fam, total))
    return sorted(out, key=lambda ft: (len(ft[0]), ft[0]))


def oracle_vector_state(clan, vals, tol):
    additive = []
    for fam, total in oracle_clan_families(clan, tol):
        if len(fam) < 2:
            continue
        gap = float(vals[total] - sum(vals[list(fam)]))
        if abs(gap) > tol.eps:
            additive.append(
                {"family": [clan.labels[x] for x in fam], "sum": clan.labels[total], "gap": gap}
            )
    return additive


def assert_same(check, want):
    assert check.violation_count == len(want)
    assert check.witnesses == want


# -- corpora ------------------------------------------------------------------------


def semirings():
    out = [powerset_semiring(k) for k in range(1, 7)]
    return out + [shuffled_powerset_semiring(4, seed=4), diamond_semiring(), mo2_semilogic()]


def distributions(s, rng):
    """An atom measure, perturbed copies of it, and uniform noise; all nonnegative."""
    at = atoms(s.poset)
    w = rng.random(len(at))
    w /= w.sum()
    below = s.poset.le[at]  # [atom, element]
    measure = np.array([sum(w[i] for i in range(len(at)) if below[i, b]) for b in range(s.n)])
    out = [measure, rng.random(s.n)]
    for size in (1e-14, 1e-11, 1e-3):
        vals = measure.copy()
        hit = rng.choice(s.n, size=min(3, s.n), replace=False)
        vals[hit] += size * rng.random(hit.size)
        out.append(vals)
    return out


def perturbed_povms(rng):
    for k, d in ((1, 2), (2, 1), (3, 2), (4, 3), (5, 2), (6, 2)):
        povm = povm_from_outcomes(random_povm(k, d, seed=10 * k + d), dim=d)
        yield povm
        for size in (1e-12, 1e-8, 1e-3):
            effects = [e.copy() for e in povm.effects]
            for b in rng.choice(povm.semiring.n, size=3):
                h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                effects[b] = effects[b] + size * (h + h.conj().T)
            yield FinitePovm(povm.semiring, effects, d)


# -- tests ----------------------------------------------------------------------------


def test_distributions_match_the_oracles(block):
    rng = np.random.default_rng(21)
    witnesses = 0
    for s in semirings():
        for vals in distributions(s, rng):
            rep = verify_distribution(s, DistributionTable(vals))
            want = oracle_distribution(s, vals, 1e-12)
            assert_same(rep.get("additive"), want)
            assert rep.facts["mass"] == oracle_mass(s, vals)
            witnesses += len(want)
    assert witnesses > 0


def test_the_mass_matches_the_oracle_on_signed_and_missing_values(block):
    # represent_distribution takes values without the sign check
    rng = np.random.default_rng(22)
    for s in semirings():
        for vals in (rng.normal(size=s.n), -rng.random(s.n), np.zeros(s.n)):
            vals[rng.integers(s.n)] = np.nan if rng.random() < 0.5 else vals[0]
            got = distribution_mass(s, vals)
            assert got == oracle_mass(s, vals) and not np.signbit(got)


def test_povms_match_the_oracles(block):
    rng = np.random.default_rng(23)
    witnesses = 0
    for povm in perturbed_povms(rng):
        bs = povm.semiring
        rep = verify_povm(povm, TOL)
        want = oracle_matrix_additive(bs.labels, oracle_summable_families(bs), povm.effects, TOL)
        assert_same(rep.get("additive"), want)
        witnesses += len(want)
    assert witnesses > 0


def test_dilations_match_the_oracles(block):
    rng = np.random.default_rng(24)
    additive = multiplicative = 0
    for k, d in ((1, 2), (2, 2), (3, 2), (4, 2), (3, 3)):
        dil = dilate(povm_from_outcomes(random_povm(k, d, seed=k + d), dim=d), TOL)
        for size in (0.0, 1e-12, 1e-6):
            dil.images = [img * (1.0 + size * rng.random()) for img in dil.images]
            rep = verify_dilation(dil, TOL)
            bs = dil.povm.semiring
            want = oracle_matrix_additive(bs.labels, oracle_summable_families(bs), dil.images, TOL)
            assert_same(rep.get("additive"), want)
            mult = oracle_multiplicative(dil, TOL)
            assert_same(rep.get("multiplicative"), mult)
            additive += len(want)
            multiplicative += len(mult)
    assert additive > 0 and multiplicative > 0


def test_dilations_with_a_flipped_diagonal_entry_match_the_oracles(block):
    # the images of dilate are exact 0/1 diagonals, and the multiplicative
    # check decides them on the diagonals; a rotated copy takes the full loop
    povm = povm_from_outcomes(random_povm(4, 2, seed=27), dim=2)
    dil = dilate(povm, TOL)
    bs, images = povm.semiring, np.array(dil.images)
    images[bs.index("{0,2}"), 1, 1] = 1.0 - images[bs.index("{0,2}"), 1, 1]
    q, _ = np.linalg.qr(np.random.default_rng(27).normal(size=(dil.dim_e, dil.dim_e)))
    for imgs, f in ((images, dil.f), (q @ images @ q.T, q @ dil.f)):
        flipped = Dilation(povm, dil.dim_e, imgs, f)
        rep = verify_dilation(flipped, TOL)
        mult = oracle_multiplicative(flipped, TOL)
        assert_same(rep.get("multiplicative"), mult)
        additive = oracle_matrix_additive(bs.labels, oracle_summable_families(bs), imgs, TOL)
        assert_same(rep.get("additive"), additive)
        assert mult and additive


def test_clans_match_the_oracles(block):
    rng = np.random.default_rng(25)
    corpus = [(c, TOL) for c in (diagonal_clan(2), diagonal_clan(3), crossed_clan())]
    corpus += [(mo_clan(n), TOL) for n in range(2, 7)]
    corpus += [(skewed_clan(s), Tolerance.with_eps(1e-3)) for s in (0.2e-3, 0.8e-3)]
    witnesses = {vector_state: 0, operator_distribution: 0}
    for clan, tol in corpus:
        d = clan.dim
        for xi in (rng.normal(size=d) + 1j * rng.normal(size=d), np.ones(d)):
            vals, rep = vector_state(clan, xi / np.linalg.norm(xi), tol)
            want = oracle_vector_state(clan, vals, tol)
            assert_same(rep.get("additive"), want)
            witnesses[vector_state] += len(want)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for r in range(1, d + 1):
            images, rep = operator_distribution(clan, q[:, :r], tol)
            families = oracle_clan_families(clan, tol)
            want = oracle_matrix_additive(clan.labels, families, images, tol)
            assert_same(rep.get("additive"), want)
            witnesses[operator_distribution] += len(want)
    assert min(witnesses.values()) > 0


# -- the family table against the walk it replaced ----------------------------------


def flat_semilogic_file(k):
    return structure_file(flat_semilogic(k))


def not_orders():
    """Two product tables on relations that are not partial orders: every sup is a scan."""
    square = powerset_semiring(2)
    le = square.poset.le.copy()
    le[1, 2] = le[2, 1] = True  # {0} and {1} below each other
    cube = powerset_semiring(3)
    gap = cube.poset.le.copy()
    gap[1, 7] = False  # {0} <= {0,1} <= {0,1,2} without {0} <= {0,1,2}
    return [
        Semilogic(FinitePoset(square.labels, le), square.prod),
        Semilogic(FinitePoset(cube.labels, gap), cube.prod),
    ]


def family_corpus():
    # 0 < p, q, r; p, q < u, v; u, v, r < t: {p, q} has no sup, {p, q, r} has t
    no_join = semilogic_on(
        ["0", "p", "q", "r", "u", "v", "t"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (4, 6), (5, 6), (3, 6)],
    )
    shuffled = [shuffled_powerset_semiring(k, seed=k) for k in (3, 5, 6)]
    return semirings() + shuffled + not_orders() + [no_join, flat_semilogic(5)]


def test_the_family_table_matches_the_walk(block):
    for s in family_corpus():
        want = oracle_all_orthogonal_families(s)
        table = s._all_orthogonal_families()
        got = [
            (tuple(row), sup)
            for members, sups in table.levels
            for row, sup in zip(members.tolist(), sups.tolist())
        ]
        assert got == sorted(want, key=lambda fs: (len(fs[0]), fs[0]))
        assert len(table) == len(want) == verify_semilogic(s).facts["orthogonal_family_count"]
        assert summable_families(s) == oracle_summable_families(s)
    assert any(-1 in sups for s in not_orders() for _, sups in s._all_orthogonal_families().levels)


def test_the_family_residuals_match_the_padded_loop(block):
    rng = np.random.default_rng(26)
    for s in family_corpus():
        families = oracle_summable_families(s)
        for values in (rng.normal(size=s.n), rng.normal(size=(s.n, 2, 2)) * 1e-9):
            want = oracle_family_residuals(values, families, 1e-9) if families else []
            got = np.concatenate(
                [family_residuals(values, m, v, 1e-9) for m, v in s._all_orthogonal_families().summable()]
            )
            assert got.tolist() == list(want)


# -- the set-bit reader of orthogonal_levels against the unpacking it replaced ------


def oracle_orthogonal_levels(orth, elems, join, bounds=None, cap=None, most=None, follow=None):
    """``orthogonal_levels`` as it was: each level's packed rows unpacked to n bytes,
    1,024 rows at a time, and their set bits found by ``flatnonzero``."""
    popcount = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
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
            cells = [
                np.flatnonzero(np.unpackbits(expand[lo : lo + 1024], axis=1, count=n)) + lo * n
                for lo in range(0, len(members), 1024)
            ]
            parent, last = np.divmod(np.concatenate(cells), n)
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
        size = int(popcount[expand].sum())
    return levels


def recorded_level_calls(run):
    """The arguments, by name, of every ``orthogonal_levels`` call that ``run()`` makes."""
    calls, signature = [], inspect.signature(orthogonal_levels)

    def spy(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return orthogonal_levels(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in (qstruct.semilogic, qstruct.clan):
            patch.setattr(module, "orthogonal_levels", spy)
        try:
            run()
        except StructuralError:
            pass
    return calls


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for (members, sups), (want_members, want_sups) in zip(got, want):
        assert members.dtype == want_members.dtype and np.array_equal(members, want_members)
        assert sups.dtype == want_sups.dtype and np.array_equal(sups, want_sups)


def assert_levels_match(call):
    """Equal levels, and a cap one short of each level's running count raises at that level.

    The cap stops both at level L when with ``most = L`` a cap one below the
    count through L raises and the count itself builds all L levels.
    """
    try:
        want = oracle_orthogonal_levels(**call)
    except StructuralError:
        with pytest.raises(StructuralError, match="exceeds enumeration cap"):
            orthogonal_levels(**call)
        return
    assert_same_levels(orthogonal_levels(**call), want)
    for size, count in enumerate(np.cumsum([len(sups) for _, sups in want]).tolist(), 1):
        for levels in (orthogonal_levels, oracle_orthogonal_levels):
            with pytest.raises(StructuralError, match="exceeds enumeration cap"):
                levels(**call | {"cap": count - 1, "most": size})
        assert_same_levels(orthogonal_levels(**call | {"cap": count, "most": size}), want[:size])


def direct_level_calls(rng):
    """Random inputs at n = 1, 8, 9 and 256, so that the last byte is full or partial.

    Sups by a scan only (``join`` None), by a join table with -1 cells whose
    children fall back to ``bounds``, and on the ``follow`` path.
    """
    calls = []
    for n in (1, 8, 9, 256):
        for density in (0.02, 0.1) if n == 256 else (0.0, 0.3, 0.7):
            orth = rng.random((n, n)) < density
            orth |= orth.T
            elems = np.flatnonzero(rng.random(n) < 0.9)

            def bounds(members, n=n):
                return (members.astype(np.int64).sum(axis=1) % (n + 1) - 1).astype(np.int16)

            join = sentinel_padded(rng.integers(-1, n, (n, n)).astype(np.int16))
            # a partial-sum table: row n holds the empty family's sums, the singletons
            partial = rng.integers(-1, n, (n + 1, n + 1)).astype(np.int16)
            partial[rng.random((n + 1, n + 1)) * n >= 4 + 40 * density] = -1
            partial[:, n] = -1
            follow = np.packbits(partial[:, :n] >= 0, axis=1)
            calls += [
                {"orth": orth, "elems": elems, "join": None, "bounds": bounds},
                {"orth": orth, "elems": elems, "join": join, "bounds": bounds, "cap": 50_000},
                {"orth": np.ones((n, n), bool), "elems": np.arange(n), "join": partial,
                 "cap": 50_000, "follow": follow},
            ]
    return calls


def test_the_set_bit_reader_matches_the_unpacking():
    tol = Tolerance()
    semilogics = family_corpus() + [powerset_semiring(8), mo2_semilogic(), flat_semilogic(7)]
    quasilogics = [mo2_quasilogic(), chain_quasilogic(6)] + [powerset_quasilogic(k) for k in (3, 4)]
    clans = [diagonal_clan(3), diagonal_clan(4), crossed_clan(), mo_clan(4)]
    calls = direct_level_calls(np.random.default_rng(25))
    for s in semilogics:
        calls += recorded_level_calls(
            lambda: (fresh(s)._all_orthogonal_families(), fresh(s)._family_levels(most=2))
        )
    for q in quasilogics:
        calls += recorded_level_calls(lambda: _sum_families(q))
    for clan in clans:
        calls += recorded_level_calls(lambda: _orthogonal_member_families(clan, tol))
    for call in calls:
        assert_levels_match(call)
    # every path was taken: the scan, join tables with and without -1 parents,
    # follow rows, most = 2, and n = 1, 8, 9 and 256
    assert {call["join"] is None for call in calls} == {True, False}
    assert any(call.get("follow") is not None for call in calls)
    assert any(call.get("most") == 2 for call in calls)
    assert {1, 8, 9, 256} <= {call["orth"].shape[0] for call in calls}
    # and a child of a parent without a sup took its sup from ``bounds``
    fallbacks = []
    for call in calls:
        if call["join"] is not None and call.get("bounds") is not None:
            bounds = call["bounds"]
            orthogonal_levels(**call | {"bounds": lambda m, b=bounds: fallbacks.append(m) or b(m)})
    assert fallbacks


def test_twelve_orthogonal_atoms_get_a_verdict(capsys, tmp_path, all_witnesses):
    path = tmp_path / "flat12.json"
    path.write_text(json.dumps(flat_semilogic_file(12)))
    assert cli.main(["check", "--json", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    semilogic = out["reports"][0]
    assert semilogic["facts"]["orthogonal_family_count"] == 4097
    s = flat_semilogic(12)
    assert len(s._all_orthogonal_families()) == len(oracle_all_orthogonal_families(s)) == 4097


def test_eighteen_orthogonal_atoms_get_a_verdict_from_the_pairs(capsys, tmp_path, monkeypatch):
    # levels 0 to 10 hold 1, 19 (the atoms and 1) and C(18, L) families,
    # 199,141 in all, under MAX_FAMILIES = 200,000, and the 31,824 of level 11
    # do not fit; so levels 1 to 9 are expanded to build levels 2 to 10, and
    # level 10 never is. Then level 1 is expanded once more for the pairs.
    path = tmp_path / "flat18.json"
    path.write_text(json.dumps(flat_semilogic_file(18)))
    expanded = []
    flatnonzero, levels = np.flatnonzero, qstruct.semilogic.orthogonal_levels.__code__

    def spy(a, *args, **kwargs):
        # orthogonal_levels reads the packed rows of each level it expands in one call
        if sys._getframe(1).f_code is levels:
            expanded.append(len(a))
        return flatnonzero(a, *args, **kwargs)

    monkeypatch.setattr(np, "flatnonzero", spy)
    np.flatnonzero(np.zeros((5, 1), np.uint8))  # a call from elsewhere is not counted
    assert cli.main(["check", "--json", str(path)]) == 1
    semilogic = json.loads(capsys.readouterr().out)["reports"][0]
    failed = [c for c in semilogic["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["product-additivity"]
    # the first pair {a0, a1} sums to 1, and a ^ 1 = a is not 0 = (a ^ a0) v
    # (a ^ a1) for the 16 other atoms; the walk lists families by (size,
    # members), so its first eight witnesses are these too. Every pair of
    # atoms fails for the 16 atoms outside it.
    assert failed[0]["witnesses"] == [{"a": f"a{i}", "family": ["a0", "a1"]} for i in range(2, 10)]
    assert failed[0]["violation_count"] == math.comb(18, 2) * 16
    assert semilogic["facts"] == {
        "least": "0",
        "greatest": "1",
        "orthogonal_family_count_exceeds": 200_000,
        "product_additivity_count": "lower bound: families of at most two members",
        "zero": "0",
    }
    assert sum(expanded) == 19 + sum(math.comb(18, size) for size in range(2, 10)) + 19
    with pytest.raises(StructuralError, match="exceeds enumeration cap"):
        oracle_all_orthogonal_families(flat_semilogic(18))


def test_eighteen_orthogonal_atoms_still_exceed_the_cap_for_distributions():
    # numeric checks need every family: there the cap stays an error
    s = flat_semilogic(18)
    with pytest.raises(StructuralError, match="exceeds enumeration cap"):
        verify_distribution(s, DistributionTable(np.zeros(s.n)))


def test_a_cap_failure_is_kept_so_stone_walks_the_capped_levels_once(
    capsys, tmp_path, monkeypatch
):
    # verify_semiring meets the cap, decides product-additivity by the pairs,
    # and verify_stone meets the same cap again: from the kept error
    path = tmp_path / "flat18.json"
    path.write_text(json.dumps(flat_semilogic_file(18) | {"kind": "boolean_semiring"}))
    caps = []
    levels = qstruct.semilogic.orthogonal_levels

    def spy(orth, elems, join, bounds=None, cap=None, most=None):
        caps.append(cap)
        return levels(orth, elems, join, bounds, cap, most)

    monkeypatch.setattr(qstruct.semilogic, "orthogonal_levels", spy)
    assert cli.main(["stone", "--json", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "StructuralError"
    assert "exceeds enumeration cap" in error["message"]
    assert [cap for cap in caps if cap is not None] == [qstruct.semilogic.MAX_FAMILIES - 1]


# -- product-additivity and compatibility by pairs, against the walk -------------


def forced_walk(monkeypatch):
    """Send both pair decisions to the family walk: no pair decides, nothing is certified."""
    monkeypatch.setattr(qstruct.semilogic, "_pairs_decide_additivity", lambda s, rep: False)
    monkeypatch.setattr(
        qstruct.semilogic, "_certified_refinements", lambda s, z, a, b: np.zeros(len(a), bool)
    )


def fresh(s):
    """The same semilogic without its cached family table."""
    return Semilogic(s.poset, s.prod)


@pytest.mark.parametrize(
    "make",
    [lambda: flat_semilogic(12), lambda: horizontal_sum_semilogic(4, 3)],
    ids=["flat12", "hsum4x2^3"],
)
def test_check_output_is_the_walks_byte_for_byte(make, capsys, tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(structure_file(make())))
    outputs = []
    for force in (False, True):
        if force:
            forced_walk(monkeypatch)
        code = cli.main(["check", "--json", str(path)])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1


def intersection_lattice(sets, universe):
    """Subsets of range(universe) closed under intersection, with the empty and full set."""
    family = {0, (1 << universe) - 1, *sets}
    while True:
        grown = family | {x & y for x in family for y in family}
        if grown == family:
            break
        family = grown
    members = sorted(family, key=lambda x: (bin(x).count("1"), x))
    le = np.array([[x & ~y == 0 for y in members] for x in members])
    poset = FinitePoset([f"s{x}" for x in members], le)
    return Semilogic(poset, poset.meet_table())


def symmetric_edit(prod, cells):
    prod = prod.copy()
    for a, b, v in cells:
        prod[a, b] = prod[b, a] = v
    return prod


@st.composite
def small_semilogics(draw):
    """Lattices with the meet, partial products, non-lattices, non-orders, flat ones,
    horizontal sums, and lattices with a product broken on idempotence, coherence or
    associativity."""
    kind = draw(st.sampled_from(
        ["lattice", "partial", "non-lattice", "not-an-order", "flat", "hsum", "broken"]
    ))
    if kind == "flat":
        return flat_semilogic(draw(st.integers(0, 7)))
    if kind == "hsum":
        return horizontal_sum_semilogic(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    if kind in ("non-lattice", "not-an-order"):
        n = draw(st.integers(2, 7))
        le = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
        if kind == "non-lattice":  # a closed DAG with 0 below everything
            le = np.triu(le, 1) | np.eye(n, dtype=bool)
            le[0] = True
            for _ in range(n):
                le |= (le.astype(int) @ le.astype(int)) > 0
        poset = FinitePoset([f"e{i}" for i in range(n)], le)
        if kind == "non-lattice":
            return Semilogic(poset, poset.meet_table())
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-1, n - 1))
        prod = np.full((n, n), -1, dtype=np.int16)
        return Semilogic(poset, symmetric_edit(prod, draw(st.lists(cells, max_size=2 * n * n))))
    universe = draw(st.integers(1, 4))
    sets = draw(st.lists(st.integers(0, (1 << universe) - 1), max_size=6))
    s = intersection_lattice(sets, universe)
    n = s.n
    if kind == "lattice":
        return s
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if kind == "partial":
        cells = [(a, b, -1) for a, b in draw(st.lists(pair, min_size=1, max_size=n))]
    else:
        a, b = draw(pair)
        cells = [(a, b, draw(st.integers(-1, n - 1)))]
    return Semilogic(s.poset, symmetric_edit(s.prod, cells))


@given(small_semilogics())
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_pair_decisions_match_the_walk(all_witnesses, s):
    got = verify_semilogic(fresh(s)).to_dict()
    with pytest.MonkeyPatch.context() as patch:
        forced_walk(patch)
        want = verify_semilogic(fresh(s)).to_dict()
    assert got == want


@given(small_semilogics())
@settings(max_examples=150, deadline=None)
def test_a_certified_pair_is_one_the_search_accepts(s):
    z = s.zero()
    if z is None:
        return
    a, b = np.nonzero(np.triu(s.prod >= 0))
    certified = _certified_refinements(s, z, a, b)
    by_sup, joins = _decompositions(s, z), {}
    for x, y in zip(a[certified].tolist(), b[certified].tolist()):
        assert _has_common_refinement(s, by_sup, joins, x, y, int(s.prod[x, y]))


@given(small_semilogics())
@settings(max_examples=100, deadline=None)
def test_the_set_bit_reader_matches_the_unpacking_on_small_semilogics(s):
    calls = recorded_level_calls(
        lambda: (fresh(s)._all_orthogonal_families(), fresh(s)._family_levels(most=2))
    )
    for call in calls:
        assert_levels_match(call)


@given(small_semilogics(), st.integers(1, 40))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_past_the_cap_the_pairs_give_the_walks_verdicts(all_witnesses, s, cap):
    want = verify_semilogic(fresh(s))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qstruct.semilogic, "MAX_FAMILIES", cap)
        try:
            got = verify_semilogic(fresh(s))
        except StructuralError as exc:
            assert str(exc) == "orthogonal family count exceeds enumeration cap"
            return
    if "orthogonal_family_count" in got.facts:
        assert got.to_dict() == want.to_dict()
        return
    assert want.facts["orthogonal_family_count"] > cap
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for check, walked in zip(got.checks, want.checks):
        assert (check.name, check.passed) == (walked.name, walked.passed)
        if check.name == "product-additivity":
            pairs = [w for w in walked.witnesses if len(w["family"]) <= 2]
            assert check.witnesses == pairs
            assert got.facts.get("product_additivity_count") == (
                None if check.passed else "lower bound: families of at most two members"
            )
        else:
            assert check.witnesses == walked.witnesses


def test_the_pairs_decide_and_certify_every_boolean_semiring_and_flat_semilogic():
    for s in [powerset_semiring(k) for k in range(1, 7)] + [flat_semilogic(k) for k in (0, 5, 18)]:
        a, b = np.nonzero(np.triu(s.prod >= 0))
        assert _certified_refinements(s, s.zero(), a, b).all()
        assert _pairs_decide_additivity(s, verify_semilogic(s))
