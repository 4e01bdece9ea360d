"""The one additivity engine against the per-family loops it replaced.

``verify_distribution``, ``verify_povm``, ``verify_dilation``,
``vector_state`` and ``operator_distribution`` each once ran their own loop
"for (family, sup): compare the value of the sup with the sum of the values",
and ``verify_distribution`` and ``represent_distribution`` a max over family
sums for the mass. Those loops, and the pair loop of the multiplicativity
check, are kept here as oracles: witness lists in full and in order, with the
same floats bit for bit.
"""

import numpy as np
import pytest
from conftest import (
    crossed_clan,
    diagonal_clan,
    mo_clan,
    oracle_op_norm,
    random_povm,
    skewed_clan,
)

import qstruct.semilogic
from qstruct import (
    DistributionTable,
    FinitePovm,
    Tolerance,
    atoms,
    diamond_semiring,
    dilate,
    mo2_semilogic,
    operator_distribution,
    povm_from_outcomes,
    powerset_semiring,
    shuffled_powerset_semiring,
    summable_families,
    vector_state,
    verify_dilation,
    verify_distribution,
    verify_povm,
)
from qstruct.clan import bound_tables, relation_tables
from qstruct.semilogic import distribution_mass, orthogonal_families

TOL = Tolerance()


@pytest.fixture(params=[256, 5], ids=["block256", "block5"])
def block(request, monkeypatch, all_witnesses):
    """Run each oracle test at the shipped block size and at one that splits every corpus."""
    monkeypatch.setattr(qstruct.semilogic, "FAMILY_BLOCK", request.param)


# -- the old loops ----------------------------------------------------------------


def oracle_distribution(s, vals, tol):
    additive = []
    for fam, sup in summable_families(s):
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
    for fam, _ in s._all_orthogonal_families():
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
    """(family, join of the family), the join folded member by member."""
    _, join_idx = bound_tables(clan, tol)
    orth = relation_tables(clan, tol)["orthogonal"]
    nonzero = [i for i in range(clan.n) if oracle_op_norm(clan.members[i]) > tol.eps]
    out = []
    for fam, _ in orthogonal_families(nonzero, orth):
        total = fam[0]
        for x in fam[1:]:
            total = int(join_idx[total, x])
        out.append((fam, total))
    return out


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
        want = oracle_matrix_additive(bs.labels, summable_families(bs), povm.effects, TOL)
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
            want = oracle_matrix_additive(bs.labels, summable_families(bs), dil.images, TOL)
            assert_same(rep.get("additive"), want)
            mult = oracle_multiplicative(dil, TOL)
            assert_same(rep.get("multiplicative"), mult)
            additive += len(want)
            multiplicative += len(mult)
    assert additive > 0 and multiplicative > 0


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
