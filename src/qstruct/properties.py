"""Seeded randomized suites behind the ``property`` CLI command.

Each suite walks a ladder of generated cases, smallest first, so the first
failure is already a small witness: ``_Run.check`` stops the suite there, and
the runner hands that witness back for the CLI to write out. Everything is
driven by numpy's seeded generator and is bit-for-bit reproducible for a
given seed.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .boolean_rep import (
    induced_homomorphism,
    represent_distribution,
    stone_map,
    subset_semilogic,
    verify_semiring,
    verify_stone,
)
from .clan import Clan, distributivity_criterion, vector_state, verify_clan
from .errors import QstructError
from .gns import (
    AlgebraState,
    ConcreteStarAlgebra,
    gns_construct,
    observable_norm,
    positive_parts,
    schwartz_check,
    verify_gns,
    verify_state,
)
from .io_formats import (
    parse_algebra,
    parse_povm,
    parse_structure,
    serialize_algebra,
    serialize_povm,
    serialize_structure,
    structures_equal,
)
from .matrix_core import (
    Tolerance,
    canonical_phases,
    eig_herm,
    is_orthoprojection,
    op_norm,
    operator_order,
    pseudo_inverse,
    range_join,
    range_meet,
    rank_decomposition,
)
from .naimark import (
    Dilation,
    FinitePovm,
    dilate,
    mobius_blocks,
    povm_from_outcomes,
    unitary_equivalence,
    verify_dilation,
    verify_povm,
)
from .order import FinitePoset, preorder_closure, transitive_reduction, verify_poset
from .ortho import verify_logic
from .quasilogic import classify, partial_sum, quasiproduct, summable, verify_quasilogic
from .quasilogic import _product_witnesses  # deliberate: the witness-set property
from .semilogic import (
    DistributionTable,
    support,
    verify_distribution,
    verify_homomorphism,
    verify_semilogic,
)
from .standard import (
    chain_quasilogic,
    diamond_semiring,
    mo2_logic,
    mo2_semilogic,
    o6_logic,
    powerset_semiring,
    shuffled_powerset_logic,
    shuffled_powerset_semiring,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"suite": self.name, "passed": self.passed, "cases": self.cases}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class _Stop(Exception):
    """Raised by ``_Run.check`` at a suite's first failing case."""


@dataclass
class _Run:
    cases: int = 0
    witness: dict | None = None

    def check(self, ok: bool, case: str, **detail) -> None:
        """Count a case; on a failure store it as the witness and stop the suite."""
        self.cases += 1
        if not ok:
            self.witness = {"case": case} | detail
            raise _Stop


def _report_detail(rep) -> dict:
    return {"failed_checks": [c.name for c in rep.checks if not c.passed][:6]}


def _suite_order(run: _Run, seed: int, tol: Tolerance) -> None:
    for k, n in enumerate((3, 4, 6, 8, 12)):
        rng = np.random.default_rng([seed, 101, k])
        le = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    le[i, j] = True
        le = preorder_closure(le)
        p = FinitePoset([f"e{i}" for i in range(n)], le)
        rep = verify_poset(p)
        run.check(rep.ok, f"random-dag-poset n={n}", **_report_detail(rep))

        # a meet is a lower bound above every lower bound, a join the same in the dual order
        ok = True
        for table, rel in ((p.meet_table(), le), (p.join_table(), le.T)):
            a, b = np.nonzero(table >= 0)
            m = table[a, b]
            ok &= bool((rel[m, a] & rel[m, b]).all() and (rel[:, a] & rel[:, b] <= rel[:, m]).all())
        run.check(ok, f"bound-tables-extremal n={n}")

        covers = transitive_reduction(p)
        re = np.zeros((n, n), dtype=bool)
        for a, b in covers:
            re[p.index(a), p.index(b)] = True
        run.check(bool((preorder_closure(re) == le).all()), f"reduction-closure-roundtrip n={n}")


def _suite_quasilogic(run: _Run, seed: int, tol: Tolerance) -> None:
    for k in (1, 2, 3):
        for s in range(3):
            q = shuffled_powerset_logic(k, seed * 7 + s)
            rep = verify_logic(q)
            run.check(rep.ok, f"powerset-logic k={k} s={s}", **_report_detail(rep))
            run.check(classify(q) == "boolean-algebra", f"classify-powerset k={k} s={s}")
            mt, jt = q.poset.meet_table(), q.poset.join_table()
            for a in range(q.n):
                for b in range(q.n):
                    if summable(q, a, b):
                        lhs = partial_sum(q, a, b)
                        rhs = partial_sum(q, int(jt[a, b]), int(mt[a, b]))
                        run.check(
                            lhs == rhs,
                            f"sum-lattice-identity k={k}",
                            a=q.labels[a],
                            b=q.labels[b],
                        )
                    wits = _product_witnesses(q, a, b)
                    vals = {int(quasiproduct(q, a, b, int(c))) for c in wits[:4]}
                    if wits:
                        run.check(
                            vals == {int(mt[a, b])},
                            f"quasiproduct-is-meet k={k}",
                            a=q.labels[a],
                            b=q.labels[b],
                        )
    for n in (2, 3, 4, 6):
        q = chain_quasilogic(n)
        rep = verify_quasilogic(q)
        run.check(rep.ok, f"chain-verifies n={n}", **_report_detail(rep))
        want = "boolean-algebra" if n == 2 else "quasilogic"
        run.check(classify(q) == want, f"classify-chain n={n}", got=classify(q))
    mo2 = mo2_logic()
    rep = verify_logic(mo2)
    run.check(rep.ok and classify(mo2) == "logic", "mo2-is-a-logic")
    rep = verify_logic(o6_logic())
    bad = rep.get("relative-distributivity")
    run.check(not rep.ok and not bad.passed, "hexagon-fails-relative-distributivity")


def _suite_semilogic(run: _Run, seed: int, tol: Tolerance) -> None:
    rep = verify_semilogic(mo2_semilogic())
    run.check(rep.ok, "mo2-semilogic", **_report_detail(rep))
    for case, blocks in enumerate(((2,), (2, 1), (2, 2), (3, 1, 1))):
        rng = np.random.default_rng([seed, 202, case])
        ends = np.cumsum(blocks).tolist()
        parts = [frozenset(range(hi - b, hi)) for b, hi in zip(blocks, ends)]
        sets = [
            frozenset().union(*(p for i, p in enumerate(parts) if mask >> i & 1))
            for mask in range(1 << len(parts))
        ]
        s, order = subset_semilogic(sets)
        rep = verify_semilogic(s)
        run.check(rep.ok, f"partition-semilogic {blocks}", **_report_detail(rep))

        weights = rng.random(len(parts))
        vals = np.array(
            [sum(w for w, p in zip(weights, parts) if p <= st) for st in order]
        )
        drep = verify_distribution(s, DistributionTable(vals))
        run.check(drep.ok, f"block-distribution {blocks}", **_report_detail(drep))

        point = int(rng.integers(ends[-1]))
        pvals = np.array([1.0 if point in st else 0.0 for st in order])
        filt, frep = support(s, DistributionTable(pvals))
        run.check(frep.ok and frep.facts["maximal"], f"point-support-maximal {blocks}")


def _suite_stone(run: _Run, seed: int, tol: Tolerance) -> None:
    for k in (1, 2, 3, 4):
        for s in range(2):
            bs = shuffled_powerset_semiring(k, seed * 11 + s)
            rep = verify_semiring(bs)
            run.check(rep.ok, f"semiring-verifies k={k}", **_report_detail(rep))
            sr = stone_map(bs)
            srep = verify_stone(sr)
            run.check(srep.ok, f"stone-verifies k={k}", **_report_detail(srep))
            run.check(len(sr.points) == k, f"point-count k={k}", got=len(sr.points))

            rng = np.random.default_rng([seed, 303, k, s])
            atoms = np.flatnonzero(bs.poset.le.sum(axis=0) == 2)  # one element strictly below
            vals = rng.random(k) @ bs.poset.le[atoms]  # the atom weights under each element
            _, mrep = represent_distribution(sr, DistributionTable(vals))
            run.check(mrep.ok, f"measure-representation k={k}", **_report_detail(mrep))
    rep = verify_semiring(diamond_semiring())
    run.check(not rep.get("product-additivity").passed, "diamond-breaks-distributivity")

    src = stone_map(powerset_semiring(2))
    dst = stone_map(powerset_semiring(3))
    rng = np.random.default_rng([seed, 304])
    pm = [int(rng.integers(len(src.points))) for _ in dst.points]
    h = induced_homomorphism(src, dst, pm)
    hrep = verify_homomorphism(h)
    run.check(hrep.ok, "preimage-homomorphism", **_report_detail(hrep))


def _random_unitary(rng, d: int) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _, u = eig_herm(h + h.conj().T)
    return u


def _suite_matrix(run: _Run, seed: int, tol: Tolerance) -> None:
    for case, d in enumerate((2, 3, 4, 6)):
        rng = np.random.default_rng([seed, 404, case])
        u = _random_unitary(rng, d)
        k1, k2 = int(rng.integers(1, d)), int(rng.integers(1, d))
        p = u[:, :k1] @ u[:, :k1].conj().T
        v = _random_unitary(rng, d)
        q = v[:, :k2] @ v[:, :k2].conj().T
        run.check(is_orthoprojection(p, tol) and is_orthoprojection(q, tol), f"projections d={d}")
        m, j = range_meet(p, q, tol), range_join(p, q, tol)
        ok = (
            is_orthoprojection(m, tol)
            and is_orthoprojection(j, tol)
            and operator_order(m, p, tol)
            and operator_order(m, q, tol)
            and operator_order(p, j, tol)
            and operator_order(q, j, tol)
        )
        run.check(ok, f"meet-join-bounds d={d}")
        eye = np.eye(d)
        ok = (
            op_norm(range_meet(p, p, tol) - p) <= 1e-8
            and op_norm(range_join(p, eye - p, tol) - eye) <= 1e-8
        )
        run.check(ok, f"meet-join-identities d={d}")

        a = rng.standard_normal((d, d + 1)) + 1j * rng.standard_normal((d, d + 1))
        g = a @ a.conj().T
        r, vfac = rank_decomposition(g, tol)
        run.check(
            op_norm(vfac @ vfac.conj().T - g) <= 1e-8 * max(1.0, op_norm(g)) and r == d,
            f"rank-factorization d={d}",
        )
        pinv = pseudo_inverse(a, tol)
        run.check(op_norm(a @ pinv @ a - a) <= 1e-8 * max(1.0, op_norm(a)), f"pseudo-inverse d={d}")
        # not bitwise: the phase factor rounds before the multiply
        c1 = canonical_phases(u, tol)
        run.check(op_norm(canonical_phases(c1, tol) - c1) <= 1e-12, f"phase-idempotent d={d}")


def _diag_mask(d: int, mask: int) -> np.ndarray:
    return np.diag([1.0 + 0j if mask >> i & 1 else 0.0 for i in range(d)])


def _mo2_clan() -> Clan:
    h_plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    h_minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    return Clan(
        [np.zeros((2, 2), dtype=complex), np.diag([1.0 + 0j, 0]), np.diag([0, 1.0 + 0j]),
         h_plus, h_minus, np.eye(2, dtype=complex)],
        labels=["0", "a", "a'", "b", "b'", "1"],
    )


def _suite_clan(run: _Run, seed: int, tol: Tolerance) -> None:
    for d in (2, 3):
        clan = Clan([_diag_mask(d, m) for m in range(1 << d)])
        rep = verify_clan(clan, tol)
        run.check(rep.ok, f"diagonal-clan d={d}", **_report_detail(rep))
        verdict = distributivity_criterion(clan, tol)
        run.check(
            verdict["distributive"] and verdict["criterion"] and verdict["agree"],
            f"diagonal-clan-boolean d={d}",
        )
        rng = np.random.default_rng([seed, 505, d])
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        _, srep = vector_state(clan, xi, tol)
        run.check(srep.ok, f"diagonal-vector-state d={d}", **_report_detail(srep))

    verdict = distributivity_criterion(_mo2_clan(), tol)
    w = verdict["criterion_witness"]
    ok = (
        not verdict["distributive"]
        and not verdict["criterion"]
        and verdict["agree"]
        and w is not None
        and abs(w["overlap"] - w["product_norm"] ** 2) <= 1e-9
    )
    run.check(ok, "mo2-clan-nondistributive", verdict=verdict)


def _matrix_unit_algebra(d: int) -> ConcreteStarAlgebra:
    """Full matrix algebra spanned by the identity plus matrix units.

    E00 is swapped out for the identity so the unit is an honest basis
    element (it stays in the span as 1 - sum of the other diagonal units).
    """
    basis, labels, idem = [np.eye(d, dtype=complex)], ["I"], [0]
    for i in range(d):
        for j in range(d):
            if i == 0 and j == 0:
                continue
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            basis.append(m)
            labels.append(f"E{i}{j}")
            if i == j:
                idem.append(len(basis) - 1)
    return ConcreteStarAlgebra(basis, labels, unit=0, idempotents=idem)


def _random_density(rng, d: int, rank: int | None = None) -> np.ndarray:
    r = rank if rank is not None else d
    a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _suite_gns(run: _Run, seed: int, tol: Tolerance) -> None:
    for d in (2, 3):
        alg = _matrix_unit_algebra(d)
        for case, rank in enumerate([1, d]):
            rng = np.random.default_rng([seed, 606, d, case])
            rho = _random_density(rng, d, rank)
            state = AlgebraState.from_density(alg, rho)
            srep = verify_state(alg, state, tol)
            run.check(srep.ok, f"density-state d={d} rank={rank}", **_report_detail(srep))
            rep_obj = gns_construct(alg, state, tol)
            run.check(
                rep_obj.space_dim == d * rank,
                f"gns-dimension d={d} rank={rank}",
                got=rep_obj.space_dim,
            )
            grep = verify_gns(rep_obj, tol)
            run.check(grep.ok, f"gns-verifies d={d} rank={rank}", **_report_detail(grep))
            sw = schwartz_check(alg, state, samples=200, seed=seed + case)
            run.check(sw.ok and sw.facts["min_slack"] >= -1e-12, f"schwartz d={d} rank={rank}")

        rng = np.random.default_rng([seed, 607, d])
        spec = rng.standard_normal(d)
        a = np.diag(spec.astype(complex))
        got = observable_norm(alg, a, 0, tol)
        run.check(abs(got - float(np.max(np.abs(spec)))) <= 1e-9, f"observable-norm d={d}")
        _, _, prep = positive_parts(alg, a, 0, tol)
        run.check(prep.ok, f"positive-parts d={d}", **_report_detail(prep))


def _random_povm(rng, outcomes: int, dim: int) -> FinitePovm:
    while True:
        mats = [
            (lambda g: g @ g.conj().T)(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            )
            for _ in range(outcomes)
        ]
        total = sum(mats)
        w, u = eig_herm(total)
        if float(w[0]) > 0.05:
            root_inv = (u * (1.0 / np.sqrt(w))) @ u.conj().T
            atoms = [root_inv @ m @ root_inv for m in mats]
            return povm_from_outcomes(atoms, dim)


def _conjugated(dil: Dilation, v: np.ndarray) -> Dilation:
    return Dilation(
        povm=dil.povm,
        dim_e=dil.dim_e,
        images=[v @ h @ v.conj().T for h in dil.images],
        f=v @ dil.f,
    )


def _suite_naimark(run: _Run, seed: int, tol: Tolerance) -> None:
    trivial = povm_from_outcomes([np.eye(1, dtype=complex)], 1)
    _, g = mobius_blocks(trivial)
    run.check(np.array_equal(g, np.array([[[0]], [[1]]], dtype=complex)), "unit-interval-gram")

    eq_tol = Tolerance.with_eps(1e-8)
    for case, (outcomes, dim) in enumerate(((2, 1), (2, 2), (3, 2), (3, 3))):
        rng = np.random.default_rng([seed, 707, case])
        povm = _random_povm(rng, outcomes, dim)
        prep = verify_povm(povm, tol)
        run.check(prep.ok, f"povm-verifies o={outcomes} d={dim}", **_report_detail(prep))
        dil = dilate(povm, tol)
        drep = verify_dilation(dil, tol)
        run.check(drep.ok, f"dilation-verifies o={outcomes} d={dim}", **_report_detail(drep))

        again = dilate(povm, tol)
        u, urep = unitary_equivalence(dil, again, eq_tol)
        run.check(
            urep.ok and urep.facts["identity"], f"rerun-bitwise-identity o={outcomes} d={dim}"
        )

        v = _random_unitary(rng, dil.dim_e)
        u2, urep2 = unitary_equivalence(dil, _conjugated(dil, v), eq_tol)
        run.check(
            urep2.ok and op_norm(u2 - v) <= 1e-8, f"conjugation-recovered o={outcomes} d={dim}"
        )

    for d in (2, 3):
        rng = np.random.default_rng([seed, 708, d])
        u = _random_unitary(rng, d)
        atoms = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
        dil = dilate(povm_from_outcomes(atoms, d), tol)
        run.check(dil.dim_e == d, f"projective-measure-tight d={d}", got=dil.dim_e)

    thetas = [2 * np.pi * k / 3 for k in range(3)]
    trine = [
        (2.0 / 3.0) * np.outer(
            np.array([np.cos(t), np.sin(t)]), np.array([np.cos(t), np.sin(t)])
        ).astype(complex)
        for t in thetas
    ]
    dil = dilate(povm_from_outcomes(trine, 2), tol)
    run.check(dil.dim_e == 3, "trine-needs-three-dimensions", got=dil.dim_e)


def _suite_io(run: _Run, seed: int, tol: Tolerance) -> None:
    samples = [
        chain_quasilogic(3),
        mo2_logic(),
        mo2_semilogic(),
        o6_logic(),
        diamond_semiring(),
        shuffled_powerset_logic(2, seed),
        shuffled_powerset_semiring(3, seed),
    ]
    for obj in samples:
        back = parse_structure(serialize_structure(obj))
        run.check(structures_equal(obj, back), f"structure-roundtrip {type(obj).__name__}")
        again = parse_structure(serialize_structure(back))
        run.check(structures_equal(back, again), f"serialize-stable {type(obj).__name__}")

    rng = np.random.default_rng([seed, 808])
    povm = _random_povm(rng, 2, 2)
    back = parse_povm(serialize_povm(povm))
    ok = (
        back.semiring.labels == povm.semiring.labels
        and all(np.array_equal(a, b) for a, b in zip(back.effects, povm.effects))
    )
    run.check(ok, "povm-roundtrip")

    alg = _matrix_unit_algebra(2)
    state = AlgebraState.from_density(alg, _random_density(rng, 2))
    alg2, state2 = parse_algebra(serialize_algebra(alg, state))
    ok = (
        alg2.labels == alg.labels
        and all(np.array_equal(a, b) for a, b in zip(alg2.basis, alg.basis))
        and state2 is not None
        and np.allclose(state2.values, state.values, atol=0, rtol=0)
    )
    run.check(ok, "algebra-roundtrip")


SUITES = {
    "order": _suite_order,
    "quasilogic": _suite_quasilogic,
    "semilogic": _suite_semilogic,
    "stone": _suite_stone,
    "matrix": _suite_matrix,
    "clan": _suite_clan,
    "gns": _suite_gns,
    "naimark": _suite_naimark,
    "io": _suite_io,
}


def run_suite(name: str, seed: int = 0, tol: Tolerance = Tolerance()) -> SuiteResult:
    if name not in SUITES:
        raise QstructError(f"unknown suite: {name}", available=sorted(SUITES))
    run = _Run()
    with suppress(_Stop):
        SUITES[name](run, seed, tol)
    return SuiteResult(name=name, passed=run.witness is None, cases=run.cases, witness=run.witness)


def run_suites(names: list[str], seed: int = 0, tol: Tolerance = Tolerance()) -> list[SuiteResult]:
    return [run_suite(n, seed, tol) for n in names]
