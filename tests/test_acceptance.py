"""End-to-end acceptance gate.

Nine standalone scenarios, each with fixed seeds, stated tolerances and a
runtime budget. Every test closes with one [pass] line naming the scenario
(visible under ``pytest -s``); a blown budget or a broken invariant fails the
test instead. Expected values were derived by hand or brute force before the
assertions were written; derivations sit next to the numbers.
"""

import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qstruct import (
    AlgebraState,
    AxiomViolationError,
    BooleanSemiring,
    Clan,
    DistributionTable,
    DomainError,
    FinitePoset,
    OrthoLogic,
    ParseError,
    Quasilogic,
    Semilogic,
    StructuralError,
    Tolerance,
    chain_quasilogic,
    check_sum_lattice_identity,
    classify,
    dilate,
    distributivity_criterion,
    gns_construct,
    load_structure,
    mo2_quasilogic,
    partial_sum,
    povm_from_outcomes,
    powerset_logic,
    powerset_semiring,
    represent_distribution,
    schwartz_check,
    segment_logic,
    shuffled_powerset_logic,
    stone_map,
    unitary_equivalence,
    verify_dilation,
    verify_gns,
    verify_logic,
    verify_poset,
    verify_povm,
    verify_quasilogic,
    verify_semilogic,
    verify_semiring,
    verify_stone,
)
from qstruct.cli import main
from qstruct.gns import ConcreteStarAlgebra
from qstruct.naimark import Dilation

FIXTURES = Path(__file__).parent / "fixtures"
VALID = FIXTURES / "valid"
MUTANTS = FIXTURES / "mutants"

EPS9 = Tolerance.with_eps(1e-9)
EPS8 = Tolerance.with_eps(1e-8)


def _done(label: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label}: {elapsed:.2f}s blew the {budget:.0f}s budget"
    print(f"[pass] {label} ({elapsed:.2f}s < {budget:.0f}s)")


def _verify_any(obj):
    if isinstance(obj, OrthoLogic):
        return verify_logic(obj)
    if isinstance(obj, BooleanSemiring):
        return verify_semiring(obj)
    if isinstance(obj, Semilogic):
        return verify_semilogic(obj)
    if isinstance(obj, Quasilogic):
        return verify_quasilogic(obj)
    assert isinstance(obj, FinitePoset)
    return verify_poset(obj)


# -- shared random-state corpus ---------------------------------------------------


def _matrix_unit_algebra(d: int) -> ConcreteStarAlgebra:
    basis = [np.eye(d, dtype=complex)]
    labels = ["I"]
    idem = [0]
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


def _density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    q, _ = np.linalg.qr(g)
    # weights bounded away from zero keep the rank oracle unambiguous
    p = rng.random(rank) + 0.5
    p /= p.sum()
    return (q[:, :rank] * p) @ q[:, :rank].conj().T


@pytest.fixture(scope="module")
def state_corpus():
    algs = {d: _matrix_unit_algebra(d) for d in (2, 3, 4)}
    rng = np.random.default_rng(42)
    corpus = []
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        rank = int(rng.integers(1, d + 1))
        rho = _density(rng, d, rank)
        corpus.append((d, rank, rho, AlgebraState.from_density(algs[d], rho)))
    return algs, corpus


# -- 1: classification soundness and mutant rejection -----------------------------


def test_classification_and_mutant_rejection():
    t0 = time.perf_counter()

    for k in (1, 2, 3):
        ol = load_structure(VALID / f"powerset{k}_logic.json")
        assert classify(ol) == "boolean-algebra", k
    chain = load_structure(VALID / "chain3.json")
    assert classify(chain) == "quasilogic"
    # the 3-chain is 0 < a < 1 with 1 - a = a, self-complementary midpoint
    assert chain.labels == ("0", "a", "1")
    assert chain.labels[int(chain.diff[2, 1])] == "a"
    assert classify(load_structure(VALID / "mo2_quasilogic.json")) == "logic"

    # malformed files: rejected at parse/construction time with located details
    parse_expected = {
        "bad_json.json": ("error",),
        "dangling_label.json": ("label",),
        "le_cycle.json": ("between",),
        "mo2_prod_conflict.json": ("pair", "values"),
        "mo2_neg_not_involutive.json": ("a", "image", "twice"),
        "unit_not_greatest.json": ("unit",),
        "chain3_diff_off_domain.json": ("b", "a"),
    }
    for name, keys in parse_expected.items():
        with pytest.raises((ParseError, StructuralError)) as err:
            load_structure(MUTANTS / name)
        for key in keys:
            assert key in err.value.details, (name, key)
    assert_details = pytest.raises(DomainError)
    with assert_details as err:
        load_structure(MUTANTS / "mo2_as_semiring.json")
    assert err.value.details == {"a": "a", "b": "b"}

    # well-formed mutants: the verifier names the broken axioms with witnesses
    verify_expected = {
        "chain3_bad_cancellation.json": {
            "difference-cancellation",
            "subtrahend-difference-identity",
        },
        "chain3_diff_missing.json": {"difference-domain"},
        "chain2_two_zeros.json": {
            "difference-cancellation",
            "subtrahend-difference-identity",
            "zero-unique",
        },
        "mo2_prod_not_idempotent.json": {
            "idempotent",
            "order-coherence",
            "product-is-meet",
            "product-additivity",
            "compatibility-decomposition",
        },
        "mo2_prod_order_incoherent.json": {
            "order-coherence",
            "product-is-meet",
            "product-additivity",
        },
        "mo2_neg_fixed_points.json": {
            "complement-join",
            "complement-meet",
            "complement-difference-consistency",
        },
        "mo2_neg_wrong_pairing.json": {"complement-difference-consistency"},
    }
    for name, failed in verify_expected.items():
        rep = _verify_any(load_structure(MUTANTS / name))
        assert {c.name for c in rep.checks if not c.passed} == failed, name
        assert all(c.witnesses for c in rep.checks if not c.passed), name

    rep = _verify_any(load_structure(MUTANTS / "chain3_bad_cancellation.json"))
    assert rep.get("difference-cancellation").witnesses[0] == {
        "b": "1",
        "a": "a",
        "got": "0",
    }
    assert len(parse_expected) + len(verify_expected) + 1 >= 10

    _done("classification sound, all mutants rejected with witnesses", t0, 1.0)


# -- 2: partial-sum identities -----------------------------------------------------


def _sum_table(q: Quasilogic) -> dict[tuple[int, int], int]:
    """All defined sums; raises if any sum is majorant-dependent."""
    table = {}
    for a in range(q.n):
        for b in range(q.n):
            try:
                table[(a, b)] = partial_sum(q, a, b)
            except DomainError:
                pass
    return table


def _sum_identity_violations(q: Quasilogic) -> tuple[int, int]:
    s = _sum_table(q)
    commut = sum(
        1
        for a in range(q.n)
        for b in range(q.n)
        if ((a, b) in s) != ((b, a) in s) or s.get((a, b)) != s.get((b, a))
    )
    assoc = 0
    for (a, b), ab in s.items():
        for c in range(q.n):
            if (ab, c) not in s:
                continue
            if (b, c) not in s or (a, s[(b, c)]) not in s or s[(a, s[(b, c)])] != s[(ab, c)]:
                assoc += 1
    return commut, assoc


def test_partial_sum_identities_exhaustive_and_random():
    t0 = time.perf_counter()

    fixtures = []
    for path in sorted(VALID.glob("*.json")):
        kind = json.loads(path.read_text()).get("kind")
        if kind not in ("quasilogic", "ortho_logic"):
            continue
        obj = load_structure(path)
        if verify_quasilogic(obj).ok:
            fixtures.append((path.name, obj))
    assert len(fixtures) == 8  # chains, mo2 twice, powerset logics 1..4

    for name, q in fixtures:
        commut, assoc = _sum_identity_violations(q)  # AxiomViolationError = failure
        assert commut == 0 and assoc == 0, name
        sli = check_sum_lattice_identity(q)
        assert sli.ok, (name, sli.get("sum-lattice-identity").witnesses)

    for i in range(100):
        ol = shuffled_powerset_logic((i % 4) + 1, seed=i)
        commut, assoc = _sum_identity_violations(ol)
        assert commut == 0 and assoc == 0, i
        assert check_sum_lattice_identity(ol).ok, i

    _done("sum identities: 8 fixtures + 100 random boolean algebras clean", t0, 5.0)


# -- 3: segments are again logics --------------------------------------------------


def test_segments_inherit_the_logic_axioms():
    t0 = time.perf_counter()

    logics = [("mo2_logic.json", load_structure(VALID / "mo2_logic.json"))]
    logics += [(f"powerset {k}", powerset_logic(k)) for k in (1, 2, 3, 4)]

    # the hexagon fails the weak-distributivity premise, so it is exempt
    o6 = load_structure(VALID / "o6_logic.json")
    assert not verify_logic(o6).get("relative-distributivity").passed

    count = 0
    for name, ol in logics:
        assert verify_logic(ol).get("relative-distributivity").passed, name
        le = ol.poset.le
        for lo in range(ol.n):
            for hi in range(ol.n):
                if not le[lo, hi]:
                    continue
                seg = segment_logic(ol, lo, hi)
                rep = verify_logic(seg)
                assert rep.ok, (name, ol.labels[lo], ol.labels[hi])
                count += 1
    # comparable pairs: 3^k per powerset (choose below/between/above per atom),
    # 15 for mo2 (6 reflexive + 5 above zero + 4 below one)
    assert count == 3 + 9 + 27 + 81 + 15

    _done("every admissible segment verifies as a logic (135 segments)", t0, 2.0)


# -- 4: distributivity criterion ----------------------------------------------------


def _diag_mask(d: int, mask: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        if mask >> i & 1:
            m[i, i] = 1.0
    return m


def test_distributivity_criterion_matches_on_lattices_and_clans():
    t0 = time.perf_counter()
    tol = Tolerance()

    for path in sorted(VALID.glob("*_logic.json")):
        facts = verify_logic(load_structure(path)).facts
        assert facts["boolean"] == facts["distributive"], path.name

    for d in (2, 3):
        clan = Clan([_diag_mask(d, m) for m in range(2**d)], [f"D{m}" for m in range(2**d)])
        v = distributivity_criterion(clan, tol)
        assert v["distributive"] and v["criterion"] and v["agree"], d

    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    crossed = Clan(
        [np.zeros((2, 2), dtype=complex), _diag_mask(2, 1), _diag_mask(2, 2), plus, minus, np.eye(2, dtype=complex)],
        ["0", "p", "q", "r", "s", "1"],
    )
    v = distributivity_criterion(crossed, tol)
    assert not v["distributive"] and not v["criterion"] and v["agree"]
    wit = v["criterion_witness"]
    # the crossed pair meets at 0 yet p r p has norm exactly 1/2 (= |pr|^2)
    assert abs(wit["overlap"] - 0.5) <= 1e-9
    assert abs(wit["product_norm"] ** 2 - wit["overlap"]) <= 1e-12

    _done("distributivity equals the zero-product criterion on both sides", t0, 1.0)


# -- 5: set representation ----------------------------------------------------------


def test_stone_representation_with_measures():
    t0 = time.perf_counter()

    semirings = [(f"powerset {k}", powerset_semiring(k)) for k in (1, 2, 3, 4)]
    for path in sorted(VALID.glob("*semiring*.json")):
        obj = load_structure(path)
        if verify_semiring(obj).ok:
            semirings.append((path.name, obj))
        else:
            assert path.name == "diamond_semiring.json"  # kept as a known failure

    rng = np.random.default_rng(20260819)
    dist_count = 0
    for name, bs in semirings:
        assert bs.n <= 16, name
        sr = stone_map(bs)
        rep = verify_stone(sr)
        for check in ("faithful", "separating", "perfect"):
            assert rep.get(check).passed, (name, check)
        assert rep.ok, name

        le, zero = bs.poset.le, bs.zero()
        atoms = [
            i
            for i in range(bs.n)
            if i != zero
            and all(j == zero or j == i or not le[j, i] for j in range(bs.n))
        ]
        assert rep.facts["point_count"] == len(atoms), name

        # distributions generated additively from random atom masses must
        # come back exactly through the set measure
        for _ in range(50 // len(semirings) + 1):
            if dist_count >= 50:
                break
            masses = rng.random(len(atoms))
            values = {
                bs.labels[b]: float(
                    sum(m for at, m in zip(atoms, masses) if le[at, b])
                )
                for b in range(bs.n)
            }
            dist = DistributionTable.from_dict(bs, values)
            measure, mrep = represent_distribution(sr, dist)
            assert mrep.ok, (name, [c.name for c in mrep.checks if not c.passed])
            err = max(
                abs(measure[sr.extent[b]] - values[bs.labels[b]]) for b in range(bs.n)
            )
            assert err <= 1e-12, (name, err)
            dist_count += 1
    assert dist_count == 50

    _done("set representation faithful/separating/perfect, 50 measures exact", t0, 2.0)


# -- 6: cyclic representations -------------------------------------------------------


def test_gns_reconstruction_and_dimensions(state_corpus):
    t0 = time.perf_counter()
    algs, corpus = state_corpus

    worst = 0.0
    for d, rank, rho, state in corpus:
        alg = algs[d]
        rep_obj = gns_construct(alg, state, Tolerance())
        g = verify_gns(rep_obj, EPS9)
        assert g.ok, (d, rank, [c.name for c in g.checks if not c.passed])

        for idx, bmat in enumerate(alg.basis):
            got = complex(np.vdot(rep_obj.represent(bmat) @ rep_obj.xi, rep_obj.xi))
            worst = max(worst, abs(got - complex(state.values[idx])))

        # independent rank oracle: eigenvalues of the state Gram over the basis
        gram = np.array(
            [[np.trace(rho @ bi @ bj.conj().T) for bj in alg.basis] for bi in alg.basis]
        )
        gram = (gram + gram.conj().T) / 2
        w = np.linalg.eigvalsh(gram)
        gram_rank = int(np.count_nonzero(w > 1e-10 * max(float(w[-1]), 1.0)))
        assert rep_obj.space_dim == gram_rank == d * rank, (d, rank, rep_obj.space_dim)
    assert worst <= 1e-9, worst

    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    assert gns_construct(algs[2], AlgebraState.from_density(algs[2], pure), Tolerance()).space_dim == 2
    mixed = np.eye(2, dtype=complex) / 2
    assert gns_construct(algs[2], AlgebraState.from_density(algs[2], mixed), Tolerance()).space_dim == 4

    _done("50 cyclic representations reconstruct their states, dims match", t0, 5.0)


# -- 7: dilation corpus ---------------------------------------------------------------


def _random_povm(rng, outcomes: int, dim: int):
    atoms = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        atoms.append(g.conj().T @ g)
    total = sum(atoms)
    w, v = np.linalg.eigh(total)
    inv_half = (v / np.sqrt(w)) @ v.conj().T
    return povm_from_outcomes([inv_half @ a @ inv_half for a in atoms], dim)


def _random_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(dil: Dilation, v: np.ndarray) -> Dilation:
    return Dilation(
        povm=dil.povm,
        dim_e=dil.dim_e,
        images=[v @ h @ v.conj().T for h in dil.images],
        f=v @ dil.f,
    )


def _quotient(dil: Dilation) -> np.ndarray:
    """The quotient map of the formal space: its column block C is h(C) F."""
    return np.hstack([hb @ dil.f for hb in dil.images])


def _atom_rank_sum(povm) -> int:
    total = 0
    k = int(np.log2(povm.semiring.n))
    for i in range(k):
        e = povm.effects[povm.semiring.index("{" + str(i) + "}")]
        w = np.linalg.eigvalsh((e + e.conj().T) / 2)
        total += int(np.count_nonzero(w > 1e-10 * max(float(w[-1]), 1.0)))
    return total


def test_naimark_dilation_corpus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    tol = Tolerance()

    worst_w = 0.0
    for i in range(100):
        povm = _random_povm(rng, outcomes=2 + i % 4, dim=1 + i % 3)
        assert verify_povm(povm, EPS9).ok, i
        dil = dilate(povm, tol)
        drep = verify_dilation(dil, EPS9)
        assert drep.ok, (i, [c.name for c in drep.checks if not c.passed])
        assert dil.dim_e == _atom_rank_sum(povm), i

        # conjugating the dilation space and solving back the intertwiner
        # must recover the quotient map up to a global phase
        v = _random_unitary(rng, dil.dim_e)
        u, eq = unitary_equivalence(dil, _conjugate(dil, v), EPS8)
        assert eq.ok, (i, [c.name for c in eq.checks if not c.passed])
        w = _quotient(dil)
        recovered = u.conj().T @ (v @ w)
        z = np.vdot(w, recovered)
        residual = float(np.linalg.norm(recovered - (z / abs(z)) * w, 2))
        worst_w = max(worst_w, residual)
    assert worst_w <= 1e-8, worst_w

    # projective measures dilate to their own dimension, and the result is
    # unitarily equivalent to the measure acting on its original space
    for i in range(12):
        d = 2 + i % 2
        v = _random_unitary(rng, d)
        povm = povm_from_outcomes([np.outer(v[:, j], v[:, j].conj()) for j in range(d)], d)
        dil = dilate(povm, tol)
        assert dil.dim_e == d, i
        trivial = Dilation(
            povm=povm,
            dim_e=d,
            images=[povm.effects[b] for b in range(povm.semiring.n)],
            f=np.eye(d, dtype=complex),
        )
        _, eq = unitary_equivalence(dil, trivial, EPS8)
        assert eq.ok, (i, [c.name for c in eq.checks if not c.passed])

    thetas = (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
    trine = [
        (2 / 3)
        * np.array(
            [
                [np.cos(t) ** 2, np.cos(t) * np.sin(t)],
                [np.cos(t) * np.sin(t), np.sin(t) ** 2],
            ],
            dtype=complex,
        )
        for t in thetas
    ]
    assert dilate(povm_from_outcomes(trine, 2), tol).dim_e == 3

    _done("100 dilations verified, equivalences and trine dimension exact", t0, 10.0)


# -- 8: two-sided positivity of the sampled form --------------------------------------


def test_schwartz_inequality_corpus(state_corpus):
    t0 = time.perf_counter()
    algs, corpus = state_corpus

    for i, (d, rank, rho, state) in enumerate(corpus):
        rep = schwartz_check(algs[d], state, samples=1000, seed=i)
        assert rep.ok, (i, rep.facts)
        assert rep.facts["samples"] == 1000
        assert rep.facts["min_slack"] >= -1e-12, (i, rep.facts["min_slack"])

    _done("schwartz slack >= -1e-12 across 50 states x 1000 pairs", t0, 2.0)


# -- 9: command line contract ----------------------------------------------------------


CLI_SCHEMA = {
    "type": "object",
    "required": ["command", "ok", "reports"],
    "properties": {
        "command": {"type": "string"},
        "ok": {"type": "boolean"},
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["subject", "ok", "checks", "facts"],
                "properties": {
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "passed", "violation_count", "witnesses"],
                        },
                    }
                },
            },
        },
    },
}


def test_cli_contract_end_to_end(capsys, tmp_path, monkeypatch):
    t0 = time.perf_counter()

    matrix = [
        (VALID / "chain3.json", 0),
        (VALID / "chain4.json", 0),
        (VALID / "poset_n.json", 0),
        (VALID / "mo2_quasilogic.json", 0),
        (VALID / "mo2_semilogic.json", 0),
        (VALID / "mo2_logic.json", 0),
        (VALID / "powerset2_logic.json", 0),
        (VALID / "powerset2_semiring.json", 0),
        (VALID / "o6_logic.json", 1),
        (MUTANTS / "chain3_bad_cancellation.json", 1),
        (MUTANTS / "chain3_diff_missing.json", 1),
        (MUTANTS / "chain2_two_zeros.json", 1),
        (MUTANTS / "mo2_prod_not_idempotent.json", 1),
        (MUTANTS / "mo2_prod_order_incoherent.json", 1),
        (MUTANTS / "mo2_neg_fixed_points.json", 1),
        (MUTANTS / "mo2_neg_wrong_pairing.json", 1),
        (MUTANTS / "mo2_as_semiring.json", 1),
        (MUTANTS / "bad_json.json", 2),
        (MUTANTS / "dangling_label.json", 2),
        (MUTANTS / "le_cycle.json", 2),
        (MUTANTS / "mo2_prod_conflict.json", 2),
        (MUTANTS / "mo2_neg_not_involutive.json", 2),
        (MUTANTS / "unit_not_greatest.json", 2),
        (MUTANTS / "chain3_diff_off_domain.json", 2),
    ]
    for path, expected in matrix:
        assert main(["check", str(path)]) == expected, path.name
    capsys.readouterr()

    assert main(["dilate", str(VALID / "trine_povm.json")]) == 0
    assert main(["dilate", str(MUTANTS / "subnormalized_povm.json")]) == 1
    assert main(["dilate", str(MUTANTS / "povm_bad_matrix.json")]) == 2
    assert main(["gns", str(VALID / "m2_algebra.json")]) == 0
    assert main(["gns", str(MUTANTS / "algebra_no_state.json")]) == 1
    capsys.readouterr()

    json_runs = [
        (["check", "--json", str(VALID / "mo2_logic.json")], 0),
        (
            [
                "stone",
                "--json",
                str(VALID / "powerset2_semiring.json"),
                "--distribution",
                str(VALID / "powerset2_distribution.json"),
            ],
            0,
        ),
        (["dilate", "--json", str(VALID / "trine_povm.json")], 0),
        (["gns", "--json", str(VALID / "m2_algebra.json")], 0),
        (["check", "--json", str(VALID / "o6_logic.json")], 1),
    ]
    for argv, expected in json_runs:
        assert main(argv) == expected, argv
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, CLI_SCHEMA)
        assert payload["ok"] == (expected == 0)

    assert main(["check", "--json", str(MUTANTS / "dangling_label.json")]) == 2
    error_payload = json.loads(capsys.readouterr().out)
    assert error_payload["ok"] is False
    assert error_payload["error"]["type"] == "ParseError"
    assert error_payload["error"]["details"] == {"label": "missing"}

    monkeypatch.chdir(tmp_path)
    assert main(["property", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("ok")
    assert out.count("[pass]") == 9
    assert not (tmp_path / "qstruct-witness.json").exists()

    _done("cli exit codes, json schema and self-check suites all hold", t0, 30.0)
