"""Projection clans and the zero-meet/zero-product distributivity criterion.

The two-dimensional clan mixing the computational and the diagonal basis is
the smallest case where both verdicts go negative together, with the overlap
||P1 P2 P1|| = 1/2 sitting strictly between zero and one.

The triple loop over the meet and join tables that ``distributivity_criterion``
once ran is kept as the oracle for the shared table kernel, and the per-pair
and per-member ``op_norm`` loops as oracles for the stacked threshold kernel.
The per-pair ``range_meet``/``range_join`` loop of ``bound_tables`` and the
per-row criterion, distinctness and unit loops are kept as oracles for the
stacked clan kernels.
"""

import numpy as np
import pytest
from conftest import crossed_clan, diagonal_clan, mo_clan, oracle_op_norm, skewed_clan

import qstruct.clan
from qstruct import (
    Clan,
    DomainError,
    Tolerance,
    distributivity_criterion,
    operator_distribution,
    op_norm,
    range_join,
    range_meet,
    vector_state,
    verify_clan,
    verify_observable,
)
from qstruct.clan import _match_members, bound_tables, relation_tables, unit_index
from qstruct.matrix_core import op_norms, op_norms_exceed, screened_op_norms
from qstruct.report import VerificationReport, Witnesses

TOL = Tolerance()


def test_diagonal_clans_are_distributive_and_satisfy_the_criterion():
    for d in (2, 3):
        rep = verify_clan(diagonal_clan(d), TOL)
        assert rep.ok
        assert rep.facts["distributive"] is True
        assert rep.facts["criterion"] is True
        assert rep.facts["agree"] is True
        assert rep.facts["unit"] == f"D{(1 << d) - 1}"


def test_crossed_clan_fails_both_verdicts_together():
    rep = verify_clan(crossed_clan(), TOL)
    assert rep.ok  # agreement holds even though both verdicts are negative
    assert rep.facts["distributive"] is False
    assert rep.facts["criterion"] is False
    assert rep.facts["agree"] is True
    wit = rep.facts["criterion_witness"]
    assert wit["overlap"] == pytest.approx(0.5, abs=1e-12)
    assert wit["product_norm"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert wit["overlap"] == pytest.approx(wit["product_norm"] ** 2, abs=1e-12)


def test_criterion_witness_names_an_orthogonal_but_unannihilated_pair():
    verdicts = distributivity_criterion(crossed_clan(), TOL)
    wit = verdicts["criterion_witness"]
    assert {wit["a"], wit["b"]} <= {"z+", "z-", "x+", "x-"}


def test_unit_index_requires_an_absorbing_member():
    plus = np.full((2, 2), 0.5)
    clan = Clan([np.zeros((2, 2)), np.diag([1.0, 0.0]), plus])
    with pytest.raises(DomainError, match="absorbing unit"):
        unit_index(clan, TOL)


def test_clan_member_validation():
    with pytest.raises(DomainError, match="empty"):
        Clan([])
    with pytest.raises(DomainError, match="different spaces"):
        Clan([np.eye(2), np.eye(3)])
    with pytest.raises(DomainError, match="label count"):
        Clan([np.eye(2)], ["a", "b"])


def test_vector_state_weights_follow_the_amplitudes():
    clan = diagonal_clan(2)
    xi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    vals, rep = vector_state(clan, xi, TOL)
    assert rep.ok
    assert vals == pytest.approx([0.0, 0.3, 0.7, 1.0])
    with pytest.raises(DomainError, match="dimension mismatch"):
        vector_state(clan, np.ones(3), TOL)


def test_unnormalized_vectors_fail_unit_normalization():
    clan = diagonal_clan(2)
    _, rep = vector_state(clan, np.array([1.0, 1.0]), TOL)
    assert not rep.get("unit-normalized").passed


def test_operator_distribution_compresses_the_members():
    clan = diagonal_clan(2)
    f = np.eye(2)
    images, rep = operator_distribution(clan, f, TOL)
    assert rep.ok
    for img, member in zip(images, clan.members):
        assert op_norm(img - member) <= 1e-12

    corner = np.array([[1.0], [0.0]])
    images, rep = operator_distribution(clan, corner, TOL)
    assert rep.ok
    assert images[clan.labels.index("D1")] == pytest.approx(np.ones((1, 1)))
    assert images[clan.labels.index("D2")] == pytest.approx(np.zeros((1, 1)))


def test_operator_distribution_validates_the_isometry():
    clan = diagonal_clan(2)
    with pytest.raises(DomainError, match="not an isometry"):
        operator_distribution(clan, np.full((2, 1), 1.0), TOL)
    with pytest.raises(DomainError, match="shape mismatch"):
        operator_distribution(clan, np.ones(2), TOL)


def test_observable_resolution_and_spectrum():
    clan = diagonal_clan(2)
    ids = [clan.labels.index("D1"), clan.labels.index("D2")]
    rep = verify_observable(clan, ids, [-1.0, 1.0], TOL)
    assert rep.ok
    assert rep.facts["norm"] == 1.0
    assert rep.facts["spectrum"] == [-1.0, 1.0]

    rep = verify_observable(clan, [ids[0], clan.labels.index("D3")], [1.0, 2.0], TOL)
    assert not rep.get("pairwise-orthogonal").passed

    with pytest.raises(DomainError, match="one value per member"):
        verify_observable(clan, ids, [1.0], TOL)
    with pytest.raises(DomainError, match="empty"):
        verify_observable(clan, [], [], TOL)


def oracle_distributivity(clan, tol):
    meet_idx, join_idx = bound_tables(clan, tol)
    labels = clan.labels
    distributive, dist_witness = True, None
    for a in range(clan.n):
        for b in range(a, clan.n):
            j = int(join_idx[a, b])
            for c in range(clan.n):
                lhs = int(meet_idx[j, c])
                rhs = int(join_idx[meet_idx[a, c], meet_idx[b, c]])
                if lhs != rhs:
                    distributive = False
                    if dist_witness is None:
                        dist_witness = {"a": labels[a], "b": labels[b], "c": labels[c]}
    return distributive, dist_witness


def test_distributivity_matches_the_clan_loop():
    clans = [diagonal_clan(2), diagonal_clan(3), crossed_clan()]
    clans += [mo_clan(n) for n in range(2, 7)]
    verdicts = set()
    for clan in clans:
        v = distributivity_criterion(clan, TOL)
        assert (v["distributive"], v["distributive_witness"]) == oracle_distributivity(clan, TOL)
        verdicts.add(v["distributive"])
    assert verdicts == {True, False}


def test_skewed_clan_misses_additivity_by_twice_the_overlap():
    clan, tol = skewed_clan(0.8e-3), Tolerance.with_eps(1e-3)
    _, rep = operator_distribution(clan, np.eye(3), tol)
    (wit,) = rep.get("additive").witnesses
    assert wit["family"] == ["P1", "P2", "P3"] and wit["sum"] == "1"
    assert wit["gap"] == pytest.approx(1.6e-3, rel=1e-6)
    # the state of the all-ones direction sees the same defect, with a sign
    _, rep = vector_state(clan, np.ones(3) / np.sqrt(3), tol)
    (wit,) = rep.get("additive").witnesses
    assert wit["family"] == ["P1", "P2", "P3"] and wit["sum"] == "1"
    assert wit["gap"] == pytest.approx(-1.6e-3, rel=1e-6)


# -- the per-pair loops that the stacked threshold kernel replaced ------------------


def oracle_relation_tables(clan, tol):
    n = clan.n
    order, orth, comm = (np.zeros((n, n), dtype=bool) for _ in range(3))
    for i, a in enumerate(clan.members):
        for j, b in enumerate(clan.members):
            ab, ba = a @ b, b @ a
            order[i, j] = oracle_op_norm(ab - a) <= tol.eps and oracle_op_norm(ba - a) <= tol.eps
            orth[i, j] = oracle_op_norm(ab) <= tol.eps
            comm[i, j] = oracle_op_norm(ab - ba) <= tol.eps
    return {"order": order, "orthogonal": orth, "commute": comm}


def oracle_match_member(clan, target, tol):
    for i, m in enumerate(clan.members):
        if oracle_op_norm(m - target) <= tol.eps:
            return i
    return -1


def oracle_unit_index(clan, tol):
    for g, cand in enumerate(clan.members):
        if all(oracle_op_norm(a @ cand - a) <= tol.eps for a in clan.members):
            return g
    return -1


def oracle_criterion(clan, tol):
    """The zero-meet/zero-product pair loop, with its witness floats."""
    meet_idx, _ = bound_tables(clan, tol)
    zero_i = next((i for i, m in enumerate(clan.members) if oracle_op_norm(m) <= tol.eps), -1)
    criterion, witness = True, None
    for i in range(clan.n):
        for j in range(i + 1, clan.n):
            if meet_idx[i, j] != zero_i:
                continue
            prod = clan.members[i] @ clan.members[j]
            norm = oracle_op_norm(prod)
            if norm > tol.eps:
                overlap = oracle_op_norm(prod @ clan.members[i])
                criterion = False
                if witness is None or overlap > witness["overlap"]:
                    witness = {
                        "a": clan.labels[i],
                        "b": clan.labels[j],
                        "product_norm": norm,
                        "overlap": overlap,
                    }
    return criterion, witness


def oracle_clan_checks(clan, tol):
    """members-are-projections and members-distinct, witness lists in full."""
    proj, distinct = [], []
    for i, m in enumerate(clan.members):
        h, p = oracle_op_norm(m - m.conj().T), oracle_op_norm(m @ m - m)
        if h > tol.eps or p > tol.eps:
            proj.append({"member": clan.labels[i], "hermitian": h, "idempotent": p})
    for i in range(clan.n):
        for j in range(i + 1, clan.n):
            if oracle_op_norm(clan.members[i] - clan.members[j]) <= tol.eps:
                distinct.append({"a": clan.labels[i], "b": clan.labels[j]})
    return proj, distinct


def noisy(clan, size, rng):
    """The clan with every member moved by a Hermitian matrix of norm ``size``."""
    members = []
    for m in clan.members:
        h = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        h = h + h.conj().T
        members.append(m + size * h / np.linalg.norm(h, 2))
    return Clan(members, clan.labels)


def clan_corpus():
    rng = np.random.default_rng(41)
    corpus = [(c, TOL) for c in (diagonal_clan(2), diagonal_clan(3), crossed_clan())]
    corpus += [(mo_clan(n), TOL) for n in range(2, 7)]
    corpus += [(skewed_clan(s), Tolerance.with_eps(1e-3)) for s in (0.2e-3, 0.8e-3, 1.2e-3)]
    # members moved to norms around eps: the pair tests land inside the screen's band
    for size in (0.3e-9, 0.5e-9, 1e-9 * (1 - 1e-12), 2e-9):
        corpus += [(noisy(c, size, rng), TOL) for c in (diagonal_clan(3), mo_clan(3))]
    # near-copies of one member, at distances around eps
    base = diagonal_clan(2)
    twins = [base.members[1] + s * np.diag([1.0, 0.0]) for s in (0.5e-9, 1e-9 * (1 + 1e-12), 3e-9)]
    corpus.append((Clan([*base.members, *twins], [*base.labels, "T1", "T2", "T3"]), TOL))
    return corpus


def test_relation_tables_match_the_pair_loop():
    for clan, tol in clan_corpus():
        got, want = relation_tables(clan, tol), oracle_relation_tables(clan, tol)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_member_matching_matches_the_member_loop():
    rng = np.random.default_rng(42)
    hits = misses = 0
    for clan, tol in clan_corpus():
        targets = [range_meet(a, b, tol) for a in clan.members for b in clan.members]
        targets += [m + tol.eps * s * np.eye(clan.dim) for m in clan.members for s in (0.5, 1.5)]
        targets += [m + tol.eps * rng.normal(size=m.shape) for m in clan.members]
        want = [oracle_match_member(clan, target, tol) for target in targets]
        assert _match_members(clan, np.array(targets), tol).tolist() == want
        hits += sum(w >= 0 for w in want)
        misses += sum(w < 0 for w in want)
    assert hits > 0 and misses > 0


def test_unit_index_matches_the_member_loop():
    found = set()
    for clan, tol in clan_corpus():
        want = oracle_unit_index(clan, tol)
        if want < 0:
            with pytest.raises(DomainError, match="absorbing unit"):
                unit_index(clan, tol)
        else:
            assert unit_index(clan, tol) == want
        found.add(want >= 0)
    assert found == {True, False}


def test_clan_checks_match_the_loops(all_witnesses):
    failed = criteria = twins = 0
    for clan, tol in clan_corpus():
        proj, distinct = oracle_clan_checks(clan, tol)
        try:
            rep = verify_clan(clan, tol)
        except DomainError:
            continue  # not closed under meets and joins
        assert rep.get("members-are-projections").witnesses == proj
        assert rep.get("members-distinct").witnesses == distinct
        failed += bool(proj)
        twins += bool(distinct)
        if not proj:
            verdicts = rep.facts
            want = oracle_criterion(clan, tol)
            assert (verdicts["criterion"], verdicts["criterion_witness"]) == want
            criteria += not verdicts["criterion"]
    assert failed > 0 and criteria > 0 and twins > 0


# -- the per-pair bound loop and the per-row loops that the stacked clan kernels replaced


def oracle_range_meet(p, q, tol):
    """The one-pair null-space projector, one eigh per call."""
    eye = np.eye(p.shape[0], dtype=np.complex128)
    a = (eye - p) + (eye - q)
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    v = u[:, np.flatnonzero(w <= tol.eps)]
    return v @ v.conj().T


def oracle_range_join(p, q, tol):
    eye = np.eye(p.shape[0], dtype=np.complex128)
    return eye - oracle_range_meet(eye - p, eye - q, tol)


def oracle_bound_tables(clan, tol):
    """The per-pair loop: both tables and the first eight missing bounds."""
    n = clan.n
    meet_idx, join_idx = (np.full((n, n), -1, dtype=np.int16) for _ in range(2))
    missing = []
    for i in range(n):
        for j in range(i, n):
            p, q = clan.members[i], clan.members[j]
            mi = oracle_match_member(clan, oracle_range_meet(p, q, tol), tol)
            ji = oracle_match_member(clan, oracle_range_join(p, q, tol), tol)
            meet_idx[i, j] = meet_idx[j, i] = mi
            join_idx[i, j] = join_idx[j, i] = ji
            for kind, idx in (("meet", mi), ("join", ji)):
                if idx < 0:
                    missing.append({"kind": kind, "a": clan.labels[i], "b": clan.labels[j]})
    return meet_idx, join_idx, missing[:8]


def unclosed_clans():
    """Clans missing a bound: lines without the unit (many joins), without 0 (meets)."""
    out = []
    for clan, drop in ((mo_clan(6), "1"), (mo_clan(3), "0"), (crossed_clan(), "x-")):
        keep = [i for i, label in enumerate(clan.labels) if label != drop]
        out.append((Clan(clan.members[keep], [clan.labels[i] for i in keep]), TOL))
    return out


def test_bound_tables_match_the_pair_loop():
    closed, unclosed, cut = 0, 0, False
    for clan, tol in clan_corpus() + unclosed_clans():
        for p in clan.members[:4]:
            for q in clan.members:
                assert np.array_equal(range_meet(p, q, tol), oracle_range_meet(p, q, tol))
                assert np.array_equal(range_join(p, q, tol), oracle_range_join(p, q, tol))
        meet_idx, join_idx, missing = oracle_bound_tables(clan, tol)
        if missing:
            with pytest.raises(DomainError, match="not closed") as exc:
                bound_tables(clan, tol)
            assert exc.value.details["missing"] == missing
            unclosed += 1
            cut |= len(missing) == 8  # the lines of MO_6 without the unit miss 15 joins
        else:
            got = bound_tables(clan, tol)
            assert np.array_equal(got[0], meet_idx) and np.array_equal(got[1], join_idx)
            closed += 1
    assert closed > 0 and unclosed > 0 and cut


def oracle_row_criterion(clan, tol):
    """The per-row zero-meet/zero-product loop, a running maximum of the overlap."""
    meet_idx, _ = bound_tables(clan, tol)
    labels, m = clan.labels, clan.members
    zero = np.flatnonzero(~op_norms_exceed(m, tol.eps))
    zero_i = int(zero[0]) if zero.size else -1
    criterion, witness = True, None
    for i in range(clan.n):
        js = i + 1 + np.flatnonzero(meet_idx[i, i + 1 :] == zero_i)
        prods = m[i] @ m[js]
        norms = screened_op_norms(prods, tol.eps)
        hit = np.flatnonzero(norms > tol.eps)
        for k, overlap in zip(hit, op_norms(prods[hit] @ m[i])):
            criterion = False
            if witness is None or overlap > witness["overlap"]:
                witness = {
                    "a": labels[i],
                    "b": labels[js[k]],
                    "product_norm": float(norms[k]),
                    "overlap": float(overlap),
                }
    return criterion, witness


def oracle_row_unit(clan, tol):
    m = clan.members
    for g in range(clan.n):
        if not op_norms_exceed(m @ m[g] - m, tol.eps).any():
            return g
    return -1


def oracle_verify_clan(clan, tol):
    """``verify_clan`` with its distinctness, unit and criterion rows looped, the rest copied."""
    got = verify_clan(clan, tol)
    labels, m = clan.labels, clan.members
    rep = VerificationReport(subject="clan")
    rep.checks.append(got.get("members-are-projections"))
    same = Witnesses()
    for i in range(clan.n):
        twins = ~op_norms_exceed(m[i] - m[i + 1 :], tol.eps)
        same.add(twins, lambda k: {"a": labels[i], "b": labels[i + 1 + k]})
    rep.record("members-distinct", same)
    rep.checks += [c for c in got.checks if c.name.startswith("order")]
    rep.facts = {
        k: v for k, v in got.facts.items() if k.endswith("_pairs") or k.startswith("order")
    }
    if not got.get("members-are-projections").passed:
        return rep
    g = oracle_row_unit(clan, tol)
    rep.record("absorbing-unit", [] if g >= 0 else [{"reason": "no member absorbs all others"}])
    if g >= 0:
        rep.facts["unit"] = labels[g]
    distributive, dist_witness = oracle_distributivity(clan, tol)
    criterion, witness = oracle_row_criterion(clan, tol)
    verdicts = {
        "distributive": distributive,
        "distributive_witness": dist_witness,
        "criterion": criterion,
        "criterion_witness": witness,
        "agree": distributive == criterion,
    }
    rep.facts.update(verdicts)
    rep.record("distributivity-criterion-agreement", [] if verdicts["agree"] else [verdicts])
    return rep


def test_criterion_unit_and_distinctness_match_the_row_loops(all_witnesses):
    clans = [diagonal_clan(2), diagonal_clan(3), crossed_clan()]
    clans += [mo_clan(n) for n in range(2, 9)]
    base = diagonal_clan(2)  # with twins, so members-distinct has witnesses
    twins = [*base.members, base.members[1], base.members[3]]
    clans.append(Clan(twins, [*base.labels, "T1", "T3"]))
    verdicts, skipped = set(), 0
    for clan, tol in [(c, TOL) for c in clans] + clan_corpus():
        if oracle_bound_tables(clan, tol)[2]:
            skipped += 1  # not closed: verify_clan raises, as test_bound_tables checks
            continue
        got = verify_clan(clan, tol).to_dict()
        assert got == oracle_verify_clan(clan, tol).to_dict()
        if got["checks"][0]["passed"]:
            assert distributivity_criterion(clan, tol) == {k: got["facts"][k] for k in VERDICTS}
            verdicts.add(got["facts"]["criterion"])
            assert unit_index(clan, tol) == oracle_row_unit(clan, tol)
    assert verdicts == {True, False} and skipped < len(clan_corpus())


VERDICTS = ("distributive", "distributive_witness", "criterion", "criterion_witness", "agree")


def test_a_tie_on_overlap_goes_to_the_first_pair():
    clan = crossed_clan()
    m, i = clan.members, clan.labels.index
    pairs = [("z+", "x+"), ("z+", "x-"), ("z-", "x+"), ("z-", "x-")]
    assert {op_norm(m[i(a)] @ m[i(b)] @ m[i(a)]) for a, b in pairs} == {0.5}  # a four-way tie
    witness = distributivity_criterion(clan, TOL)["criterion_witness"]
    assert (witness["a"], witness["b"]) == pairs[0]
    assert oracle_row_criterion(clan, TOL) == (False, witness)


def test_a_second_criterion_call_builds_nothing(monkeypatch):
    clan = mo_clan(4)
    first = distributivity_criterion(clan, TOL)
    kept = dict(clan._tables)

    def forbidden(*args, **kwargs):
        raise AssertionError("the criterion was built again")

    for name in ("bound_tables", "screened_op_norms", "op_norms", "first_nondistributive"):
        monkeypatch.setattr(qstruct.clan, name, forbidden)
    assert distributivity_criterion(clan, TOL) is first
    assert clan._tables == kept
