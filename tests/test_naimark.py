"""Dilating finite operator-valued measures to projective ones.

The trine measurement is the standard minimal example: three rank-one
effects on a qubit whose dilation space must come out exactly
three-dimensional. Projective measures must dilate without growing at all.

``dilate`` factors the Mobius blocks of the measure one by one; the
construction it replaced, which factored the whole block Gram matrix, is
kept here as the oracle (``gram_dilate``).
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import oracle_op_norm, random_povm

import qstruct.matrix_core
import qstruct.naimark
import qstruct.standard
from qstruct import (
    BooleanSemiring,
    DomainError,
    FinitePoset,
    FinitePovm,
    StructuralError,
    Tolerance,
    diamond_semiring,
    dilate,
    mobius_blocks,
    op_norm,
    povm_from_outcomes,
    powerset_semiring,
    shuffled_powerset_semiring,
    unitary_equivalence,
    verify_dilation,
    verify_povm,
)
from qstruct.io_formats import load_povm
from qstruct.matrix_core import canonical_phases, eig_herm, pseudo_inverse, rank_decomposition
from qstruct.naimark import Dilation
from qstruct.semilogic import family_residuals

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  the benchmark's POVM generator

TOL = Tolerance()
# the Gram oracle pays up to 1/sqrt(lambda) in rounding for a Gram eigenvalue
# lambda; intertwiners are compared at 1e-8, as in the naimark property suite
EQ_TOL = Tolerance.with_eps(1e-8)


def trine_effects():
    vecs = [
        np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
        for k in range(3)
    ]
    return [(2.0 / 3.0) * np.outer(v, v) for v in vecs]


@pytest.mark.parametrize("outcomes", [9, 64])
def test_too_many_outcomes_are_rejected_before_any_allocation(outcomes, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("powerset table allocated before the size check")

    monkeypatch.setattr(qstruct.standard.np, "arange", no_allocation)
    effects = [np.eye(1) / outcomes] * outcomes
    with pytest.raises(StructuralError, match=rf"too many elements \({1 << outcomes} > 256\)"):
        povm_from_outcomes(effects, dim=1)


def test_a_count_past_the_digit_limit_is_named_as_a_power_of_two():
    # 2^20000 in decimal is past Python's 4,300-digit int-to-str limit
    effects = [np.eye(1) / 20_000] * 20_000
    with pytest.raises(StructuralError, match=r"^too many elements \(2\^20000 > 256\)$"):
        povm_from_outcomes(effects, dim=1)


def test_trivial_measure_has_the_unit_interval_gram():
    povm = povm_from_outcomes([np.eye(1)], dim=1)
    assert np.array_equal(gram_block(povm), np.array([[0.0, 0.0], [0.0, 1.0]]))
    below, g = mobius_blocks(povm)
    assert np.array_equal(below, [[True, True], [False, True]])
    assert np.array_equal(g, np.array([[[0.0]], [[1.0]]]))
    dil = dilate(povm, TOL)
    assert dil.dim_e == 1
    assert verify_dilation(dil, TOL).ok


def test_trine_dilates_to_three_dimensions():
    povm = povm_from_outcomes(trine_effects(), dim=2)
    assert verify_povm(povm, TOL).ok
    dil = dilate(povm, TOL)
    assert dil.dim_e == 3
    rep = verify_dilation(dil, TOL)
    assert rep.ok, [c.name for c in rep.checks if not c.passed]
    assert rep.facts["dim_e"] == 3 and rep.facts["dim_h"] == 2


def test_projective_measures_dilate_tightly():
    povm = povm_from_outcomes([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dim=2)
    dil = dilate(povm, TOL)
    assert dil.dim_e == 2
    assert verify_dilation(dil, TOL).ok
    # the compression must reproduce the effects exactly, not just closely
    for b in range(povm.semiring.n):
        back = dil.f.conj().T @ dil.images[b] @ dil.f
        assert op_norm(back - povm.effects[b]) <= 1e-12


@pytest.mark.parametrize("outcomes,dim,seed", [(2, 2, 0), (3, 2, 1), (3, 3, 2), (4, 2, 3)])
def test_random_povms_dilate_and_compress_back(outcomes, dim, seed):
    povm = povm_from_outcomes(random_povm(outcomes, dim, seed), dim=dim)
    assert verify_povm(povm, TOL).ok
    dil = dilate(povm, TOL)
    rep = verify_dilation(dil, TOL)
    assert rep.ok, [c.name for c in rep.checks if not c.passed]
    assert dil.dim_e <= outcomes * dim


def test_dilation_is_unitarily_equivalent_to_its_conjugate():
    povm = povm_from_outcomes(random_povm(3, 2, seed=7), dim=2)
    dil = dilate(povm, TOL)
    rng = np.random.default_rng(11)
    h = rng.normal(size=(dil.dim_e, dil.dim_e)) + 1j * rng.normal(size=(dil.dim_e, dil.dim_e))
    v = np.linalg.eigh(h + h.conj().T)[1]
    rotated = Dilation(
        povm=dil.povm,
        dim_e=dil.dim_e,
        images=[v @ img @ v.conj().T for img in dil.images],
        f=v @ dil.f,
    )
    u, rep = unitary_equivalence(dil, rotated, TOL)
    assert rep.ok
    assert rep.facts["identity"] is False
    assert op_norm(u - v) <= 1e-8

    u, rep = unitary_equivalence(dil, dil, TOL)
    assert rep.ok
    assert rep.facts["identity"] is True
    assert np.array_equal(u, np.eye(dil.dim_e))


def test_subnormalized_measures_are_rejected():
    povm = povm_from_outcomes([0.5 * np.eye(2)], dim=2)
    with pytest.raises(DomainError, match="sub-normalized"):
        dilate(povm, TOL)


def test_overshooting_measures_are_rejected():
    povm = povm_from_outcomes([np.eye(2), 0.5 * np.eye(2)], dim=2)
    with pytest.raises(DomainError, match="exceeds the identity"):
        dilate(povm, TOL)


def test_povm_construction_validation():
    with pytest.raises(DomainError, match="at least one outcome"):
        povm_from_outcomes([], dim=2)
    with pytest.raises(DomainError, match="dimension mismatch"):
        povm_from_outcomes([np.eye(3)], dim=2)
    with pytest.raises(DomainError, match="one effect per"):
        FinitePovm(powerset_semiring(1), [np.zeros((2, 2))], dim=2)


def test_nonpositive_effects_fail_verification():
    povm = povm_from_outcomes([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], dim=2)
    rep = verify_povm(povm, TOL)
    assert not rep.get("effects-are-positive-contractions").passed


def test_a_non_additive_measure_names_the_family_its_sum_and_the_gap():
    s = powerset_semiring(2)
    effects = {"{}": np.zeros((2, 2)), "{0}": np.diag([0.5, 0.0]), "{1}": np.diag([0.0, 0.25])}
    effects["{0,1}"] = np.eye(2)
    povm = FinitePovm(s, [effects[label] for label in s.labels], dim=2)
    rep = verify_povm(povm, TOL)
    want = {"family": ["{0}", "{1}"], "sum": "{0,1}", "gap": 0.75}
    assert rep.get("additive").witnesses == [want]


def test_a_one_outcome_measure_has_no_family_to_check():
    povm = povm_from_outcomes([np.eye(2)], dim=2)
    assert not list(povm.semiring._all_orthogonal_families().summable(2))
    none = np.empty((0, 2), dtype=np.int16)
    assert family_residuals(np.array(povm.effects), none, none[:, 0]).shape == (0,)
    assert verify_povm(povm, TOL).get("additive").passed
    rep = verify_dilation(dilate(povm, TOL), TOL)
    assert rep.ok
    assert rep.get("additive").violation_count == 0


# -- the Gram-matrix construction that the Mobius blocks replaced -------------------


def gram_block(povm):
    """H[(B,s),(C,t)] = m(BC)[s,t] over all elements in semiring order."""
    n, d = povm.semiring.n, povm.dim
    h = np.empty((n, d, n, d), dtype=np.complex128)
    # filled in place through its [b, c, s, t] view, so no second copy of h is made
    blocks = h.transpose(0, 2, 1, 3)
    np.take(np.array(povm.effects), povm.semiring.prod, axis=0, out=blocks, mode="clip")
    return h.reshape(n * d, n * d)


def gram_dilate(povm, tol):
    """The dilation on the quotient of the formal space, factored from the whole Gram matrix."""
    bs, d = povm.semiring, povm.dim
    u = bs.unit()
    if u is None:
        raise DomainError("dilation needs a unit element in the semiring")
    unit_gap = oracle_op_norm(povm.effects[u] - np.eye(d))
    if unit_gap > tol.eps:
        w_unit, _ = eig_herm(povm.effects[u])
        if float(w_unit[-1]) <= 1.0 + tol.eps:
            raise DomainError(
                "measure is sub-normalized: the unit effect is not the identity; "
                "add a complement outcome so the effects sum to the identity",
                defect=unit_gap,
            )
        raise DomainError("unit effect exceeds the identity", defect=unit_gap)
    # w+w = h makes column pairings read m(BC)[s,t] with the row slot conjugated
    dim_e, v = rank_decomposition(gram_block(povm), tol)
    w = canonical_phases(v, tol).conj().T
    w_pinv = pseudo_inverse(w, tol)
    # h(B) maps the basis vector (C, t) to (BC, t)
    gather = (bs.prod.astype(np.intp)[:, :, None] * d + np.arange(d)).reshape(bs.n, -1)
    images = [w[:, cols] @ w_pinv for cols in gather]
    return Dilation(povm=povm, dim_e=dim_e, images=images, f=w[:, u * d : (u + 1) * d])


# -- the per-element loops that the stacked threshold kernel replaced ----------------


def oracle_gram_block(povm):
    n, d, prod = povm.semiring.n, povm.dim, povm.semiring.prod
    h = np.empty((n * d, n * d), dtype=np.complex128)
    for b in range(n):
        for c in range(n):
            h[b * d : (b + 1) * d, c * d : (c + 1) * d] = povm.effects[int(prod[b, c])]
    return h


def assert_block_projections(dil):
    """Every image is a 0/1 diagonal, and h(B) h(C) = h(BC) holds bit for bit."""
    images, prod = np.asarray(dil.images), dil.povm.semiring.prod
    diag = np.diagonal(images, axis1=1, axis2=2)
    assert np.array_equal(images, diag[:, :, None] * np.eye(dil.dim_e))
    assert np.isin(diag, (0.0, 1.0)).all()
    assert np.array_equal(diag[:, None] * diag[None], diag[prod])


def oracle_povm_checks(povm, tol):
    bad = []
    for i, e in enumerate(povm.effects):
        h = oracle_op_norm(e - e.conj().T)
        w, _ = np.linalg.eigh((e + e.conj().T) / 2.0)
        if h > tol.eps or float(w[0]) < -tol.eps or float(w[-1]) > 1.0 + tol.eps:
            spectrum = [float(w[0]), float(w[-1])]
            bad.append({"element": povm.semiring.labels[i], "hermitian": h, "spectrum": spectrum})
    zero = oracle_op_norm(povm.effects[povm.semiring.zero()])
    gap = oracle_op_norm(povm.effects[povm.semiring.unit()] - np.eye(povm.dim))
    return {
        "effects-are-positive-contractions": bad,
        "zero-effect": [] if zero <= tol.eps else [{"norm": zero}],
        "normalized": [] if gap <= tol.eps else [{"defect": gap}],
    }


def oracle_dilation_checks(dil, tol):
    labels, f = dil.povm.semiring.labels, dil.f
    proj, compression = [], []
    for i, hb in enumerate(dil.images):
        dh, di = oracle_op_norm(hb - hb.conj().T), oracle_op_norm(hb @ hb - hb)
        if dh > tol.eps or di > tol.eps:
            proj.append({"element": labels[i], "hermitian": dh, "idempotent": di})
        gap = oracle_op_norm(f.conj().T @ hb @ f - dil.povm.effects[i])
        if gap > tol.eps:
            compression.append({"element": labels[i], "defect": gap})
    iso = oracle_op_norm(f.conj().T @ f - np.eye(dil.povm.dim))
    unit = oracle_op_norm(dil.images[dil.povm.semiring.unit()] @ f - f)
    return {
        "images-are-projections": proj,
        "compression-recovers-measure": compression,
        "embedding-isometric": [] if iso <= tol.eps else [{"defect": iso}],
        "unit-fixes-embedding": [] if unit <= tol.eps else [{"defect": unit}],
    }


def noise(rng, shape, size, hermitian):
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = h + h.conj().T if hermitian else h
    return size * h / np.linalg.norm(h, 2)


SIZES = (1e-12, 0.5e-9, 1e-9 * (1 - 1e-12), 1e-9 * (1 + 1e-12), 2e-9, 1e-3)


def test_povm_checks_match_the_effect_loop(all_witnesses):
    rng = np.random.default_rng(51)
    failed = 0
    for k, d in ((1, 2), (2, 1), (3, 2), (4, 3), (6, 2)):
        povm = povm_from_outcomes(random_povm(k, d, seed=k + 7 * d), dim=d)
        corpus = [povm, povm_from_outcomes([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], dim=2)]
        for size in SIZES:
            for hermitian in (True, False):
                effects = [e.copy() for e in povm.effects]
                for b in rng.choice(povm.semiring.n, size=min(3, povm.semiring.n), replace=False):
                    effects[b] = effects[b] + noise(rng, (d, d), size, hermitian)
                corpus.append(FinitePovm(povm.semiring, effects, d))
        for p in corpus:
            rep = verify_povm(p, TOL)
            for name, want in oracle_povm_checks(p, TOL).items():
                assert rep.get(name).witnesses == want, name
                failed += bool(want)
    assert failed > 0


@pytest.mark.parametrize("entries", [1 << 16, 20], ids=["shipped", "split"])
def test_dilation_checks_match_the_image_loop(entries, all_witnesses, monkeypatch):
    # at 20 entries per block every image stack is split, down to one image a block
    monkeypatch.setattr(qstruct.naimark, "STACK_ENTRIES", entries)
    rng = np.random.default_rng(52)
    failed = 0
    for k, d in ((1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (5, 1)):
        povm = povm_from_outcomes(random_povm(k, d, seed=k * d), dim=d)
        assert np.array_equal(gram_block(povm), oracle_gram_block(povm))
        dil = dilate(povm, TOL)
        assert_block_projections(dil)
        assert unitary_equivalence(gram_dilate(povm, TOL), dil, EQ_TOL)[1].ok
        clean = list(dil.images)
        for size in (0.0, *SIZES):
            for hermitian in (True, False):
                dil.images = [
                    img + noise(rng, img.shape, size, hermitian) if rng.random() < 0.5 else img
                    for img in clean
                ]
                rep = verify_dilation(dil, TOL)
                for name, want in oracle_dilation_checks(dil, TOL).items():
                    assert rep.get(name).witnesses == want, name
                    failed += bool(want)
    assert failed > 0


def full_matrix_report(monkeypatch, dil):
    """``verify_dilation`` with the diagonal decisions off: every residual is normed."""
    with monkeypatch.context() as patch:
        patch.setattr(qstruct.naimark, "_real_diagonals", lambda images: None)
        return verify_dilation(dil, TOL)


def test_diagonal_decisions_match_the_full_matrices(all_witnesses, monkeypatch):
    rng = np.random.default_rng(53)
    failed = dict.fromkeys(["clean", "flipped", "general", "imaginary"], 0)
    for k, d in ((2, 2), (3, 2), (4, 3), (5, 2), (8, 2)):
        dil = dilate(povm_from_outcomes(random_povm(k, d, seed=3 * k + d), dim=d), TOL)
        images = np.array(dil.images)
        b, i = int(rng.integers(1, len(images))), int(rng.integers(dil.dim_e))
        cases = {kind: images.copy() for kind in failed}
        cases["flipped"][b, i, i] = 1 - images[b, i, i]
        # the general path: an entry off the diagonal, or a diagonal that is not real
        cases["general"][b, i, (i + 1) % dil.dim_e] += 1e-3
        cases["imaginary"][b, i, i] += 1e-3j
        for kind, imgs in cases.items():
            diagonal = kind in ("clean", "flipped")
            assert (qstruct.naimark._real_diagonals(imgs) is not None) == diagonal
            case = Dilation(dil.povm, dil.dim_e, imgs, dil.f)
            rep = verify_dilation(case, TOL)
            assert rep.to_dict() == full_matrix_report(monkeypatch, case).to_dict()
            failed[kind] += rep.get("additive").violation_count > 0
    assert failed.pop("clean") == 0 and min(failed.values()) > 0


def test_a_non_finite_image_is_a_domain_error_naming_its_element():
    dil = dilate(povm_from_outcomes(random_povm(3, 2, seed=5), dim=2), TOL)
    labels = dil.povm.semiring.labels
    for value in (np.nan, np.inf):
        images = np.array(dil.images)
        images[4, 1, 1] = value
        with pytest.raises(DomainError, match="non-finite") as exc:
            verify_dilation(Dilation(dil.povm, dil.dim_e, images, dil.f), TOL)
        assert exc.value.details == {"element": labels[4]}


def test_dilate_json_is_the_same_without_the_diagonal_decisions(monkeypatch, capsys):
    from qstruct.cli import main

    path = str(ROOT / "tests" / "fixtures" / "valid" / "pvm2.json")
    assert main(["dilate", path, "--json"]) == 0
    fast = capsys.readouterr().out
    monkeypatch.setattr(qstruct.naimark, "_real_diagonals", lambda images: None)
    assert main(["dilate", path, "--json"]) == 0
    assert capsys.readouterr().out == fast


# -- the Mobius blocks against the Gram oracle ---------------------------------------


def psd(rng, d, rank, size=1.0):
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return size * (a @ a.conj().T)


def projector(rng, d, rank):
    q, _ = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))
    return q @ q.conj().T


def measure_from_blocks(bs, blocks):
    """m(y) = sum of g(x) over x <= y, conjugated so that the unit maps to the identity."""
    below = bs.prod == np.arange(bs.n)[:, None]
    m = np.einsum("xy,xst->yst", below, np.array(blocks, dtype=complex))
    w, v = np.linalg.eigh(m[bs.unit()])
    root = (v / np.sqrt(w)) @ v.conj().T
    return FinitePovm(bs, list(root @ m @ root), m.shape[1])


def powerset_measures(kinds):
    """Additive, perturbed by 1e-6 off the atoms, or with a block that is not PSD."""
    rng = np.random.default_rng(61)
    out = []
    for k in range(1, 5):
        for d in range(1, 4):
            bs = powerset_semiring(k)
            atoms = [1 << i for i in range(k)]
            for kind in kinds:
                blocks = np.zeros((bs.n, d, d), dtype=complex)
                for i, x in enumerate(atoms):
                    blocks[x] = psd(rng, d, d if i == 0 else int(rng.integers(1, d + 1)))
                others = [x for x in range(bs.n) if x not in atoms]
                if kind == "perturbed":
                    for x in rng.choice(others, size=min(2, len(others)), replace=False):
                        blocks[x] = 1e-6 * projector(rng, d, int(rng.integers(1, d + 1)))
                if kind == "not-psd":
                    low = np.linalg.eigvalsh(blocks.sum(axis=0))[0]
                    blocks[int(rng.choice(others))] = -0.5 * low * projector(rng, d, 1)
                out.append((f"2^{k} d={d} {kind}", measure_from_blocks(bs, blocks)))
    return out


def chain3_semiring():
    return BooleanSemiring(
        FinitePoset(["0", "a", "1"], np.triu(np.ones((3, 3), dtype=bool))),
        np.minimum.outer(np.arange(3), np.arange(3)),
    )


def lattice_measures():
    """Random blocks on the diamond, the 3-chain and a shuffled 2^3, some rank-deficient."""
    rng = np.random.default_rng(62)
    out = []
    for bs in (diamond_semiring(), chain3_semiring(), shuffled_powerset_semiring(3, seed=5)):
        for d in (1, 2, 3):
            for case in range(9):
                ranks = rng.integers(0, d + 1, size=bs.n)
                ranks[bs.unit()] = d
                blocks = [psd(rng, d, int(r)) for r in ranks]
                out.append((f"{bs.labels} d={d} #{case}", measure_from_blocks(bs, blocks)))
    return out


def fixture_measures():
    # pvm2_by_reference is pvm2 over the semiring file pvm2_semiring
    valid = ROOT / "tests" / "fixtures" / "valid"
    names = ("pvm2", "pvm2_by_reference", "trine_povm")
    return [(name, load_povm(valid / f"{name}.json")) for name in names]


def gen_povm(k, d, seed):
    atoms, rank = gen.povm_atoms(k, d, np.random.default_rng(seed))
    return povm_from_outcomes(atoms, d), rank


def gen_measures():
    return [
        (f"gen {k}x{d} seed {seed}", gen_povm(k, d, seed)[0])
        for seed in range(3)
        for k, d in ((8, 2), (7, 2), (6, 4))
    ]


def assert_close(got, want, where, atol=1e-12):
    if isinstance(want, float):
        assert abs(got - want) <= atol + 1e-9 * abs(want), where
    elif isinstance(want, list) and want and isinstance(want[0], float):
        assert len(got) == len(want), where
        for a, b in zip(got, want):
            assert_close(a, b, where, atol)
    else:
        assert got == want, where


def assert_same_reports(got, want, where):
    assert got.facts == want.facts, where
    assert [(c.name, c.passed, c.violation_count) for c in got.checks] == [
        (c.name, c.passed, c.violation_count) for c in want.checks
    ], where
    for c, o in zip(got.checks, want.checks):
        assert len(c.witnesses) == len(o.witnesses), (where, c.name)
        for x, y in zip(c.witnesses, o.witnesses):
            assert list(x) == list(y), (where, c.name)
            for key in y:
                assert_close(x[key], y[key], (where, c.name, key))


def construct(fn, povm):
    try:
        return fn(povm, TOL), None
    except DomainError as exc:
        return None, str(exc)


CORPORA = {
    "powerset": lambda: powerset_measures(("additive", "not-psd")),
    "lattices": lattice_measures,
    "fixtures": fixture_measures,
    "gen": gen_measures,
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_mobius_dilations_match_the_gram_oracle(corpus, all_witnesses):
    outcomes = {"ok": 0, "failed": 0, "error": 0}
    for where, povm in CORPORA[corpus]():
        dil, err = construct(dilate, povm)
        old, old_err = construct(gram_dilate, povm)
        assert err == old_err, where
        if err is not None:
            outcomes["error"] += 1
            continue
        assert dil.dim_e == old.dim_e, where
        assert_block_projections(dil)
        rep = verify_dilation(dil, TOL)
        assert_same_reports(rep, verify_dilation(old, TOL), where)
        assert unitary_equivalence(old, dil, EQ_TOL)[1].ok, where
        outcomes["ok" if rep.ok else "failed"] += 1
    want = {
        "powerset": {"ok": 12, "failed": 0, "error": 12},
        "lattices": {"ok": 27, "failed": 54, "error": 0},
        "fixtures": {"ok": 3, "failed": 0, "error": 0},
        "gen": {"ok": 9, "failed": 0, "error": 0},
    }
    assert outcomes == want[corpus]


def test_perturbed_measures_differ_from_the_oracle_only_by_its_rounding(all_witnesses):
    """Blocks of size 1e-6 above the atoms: both constructions break additivity alike.

    The Gram oracle inverts the whole Gram matrix, so its images carry rounding
    of about eps * cond(H), which reaches 1e-8 here, while the Mobius images
    are exact. An oracle witness whose every number is below that rounding
    bound is rounding alone; the Mobius report must hold exactly the others.
    """
    spurious = 0
    for where, povm in powerset_measures(("perturbed",)):
        dil, old = dilate(povm, TOL), gram_dilate(povm, TOL)
        assert dil.dim_e == old.dim_e, where
        assert_block_projections(dil)
        h = gram_block(povm)
        w = np.linalg.eigvalsh(h)
        w = w[w > TOL.rank_rel * w[-1]]
        rounding = 10 * np.finfo(float).eps * w[-1] / w[0]
        rep, want = verify_dilation(dil, TOL), verify_dilation(old, TOL)
        assert rep.facts == want.facts, where
        for c, o in zip(rep.checks, want.checks, strict=True):
            real = [
                x
                for x in o.witnesses
                if max((v for v in x.values() if isinstance(v, float)), default=np.inf) > rounding
            ]
            spurious += len(o.witnesses) - len(real)
            assert c.name == o.name and c.passed == (not real), (where, c.name)
            assert len(c.witnesses) == len(real), (where, c.name)
            for x, y in zip(c.witnesses, real):
                assert list(x) == list(y), (where, c.name)
                for key in y:
                    assert_close(x[key], y[key], (where, c.name, key), rounding)
        # the intertwiner solve would amplify the oracle's rounding once more, so
        # equivalence is shown by the frames h(B) F reproducing the Gram matrix
        frames = np.hstack([hb @ dil.f for hb in dil.images])
        assert op_norm(frames.conj().T @ frames - h) <= 1e-12 * op_norm(h), where
    assert spurious > 0


def test_gen_povms_dilate_to_their_rank_sum():
    for seed in range(3):
        for k, d in ((8, 2), (7, 2), (6, 4)):
            povm, rank = gen_povm(k, d, seed)
            assert dilate(povm, TOL).dim_e == rank


@pytest.mark.parametrize(
    "prod,pair",
    [
        # a a = 0: not idempotent
        ([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]], ("a", "a")),
        # a b = 1: idempotent, but 1 lies above a and b instead of below
        ([[0, 0, 0, 0], [0, 1, 3, 1], [0, 3, 2, 2], [0, 1, 2, 3]], ("a", "b")),
    ],
    ids=["not-idempotent", "not-a-meet"],
)
def test_a_product_that_is_not_a_semilattice_is_refused(prod, pair):
    le = np.eye(4, dtype=bool)
    le[0, :] = le[:, 3] = True
    bs = BooleanSemiring(FinitePoset(["0", "a", "b", "1"], le), np.array(prod))
    effects = [np.zeros((1, 1)), 0.5 * np.eye(1), 0.5 * np.eye(1), np.eye(1)]
    with pytest.raises(DomainError, match="not a semilattice operation") as info:
        dilate(FinitePovm(bs, effects, 1), TOL)
    assert (info.value.details["a"], info.value.details["b"]) == pair


def test_a_block_that_is_not_psd_is_named():
    s = powerset_semiring(2)
    # g({0,1}) = 1 - 0.5 - 0.75 < 0
    effects = [np.zeros((1, 1)), 0.5 * np.eye(1), 0.75 * np.eye(1), np.eye(1)]
    with pytest.raises(DomainError, match="matrix is not positive semidefinite") as info:
        dilate(FinitePovm(s, effects, 1), TOL)
    assert info.value.details == {"min_eigenvalue": -0.25, "element": "{0,1}"}


@pytest.mark.parametrize("top,dim_e", [(3e-10, 3), (3e-11, 2)])
def test_the_rank_cut_is_relative_to_the_largest_block_eigenvalue(top, dim_e):
    # blocks 0.5, 0.5 - top and top; the cut is rank_rel * 0.5 = 5e-11
    effects = [np.zeros((1, 1)), 0.5 * np.eye(1), (0.5 - top) * np.eye(1), np.eye(1)]
    assert dilate(FinitePovm(powerset_semiring(2), effects, 1), TOL).dim_e == dim_e


def test_a_dilation_past_the_ceiling_is_refused_before_its_images():
    # 2^8 x C^2 with every block of full rank: dim_e = 512, so the images
    # would take 256 * 512^2 complex entries, 1 GiB
    rng = np.random.default_rng(63)
    bs = powerset_semiring(8)
    povm = measure_from_blocks(bs, [psd(rng, 2, 2) for _ in range(bs.n)])
    tracemalloc.start()
    try:
        with pytest.raises(
            StructuralError, match=r"dilation too large \(256 elements x dim_e 512\^2 > 4194304\)"
        ):
            dilate(povm, TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 0.2 MB measured; the Gram construction's matrix alone took 4 MB
    assert peak < 1 << 20, peak
    # the largest additive measure within MAX_SPACE: 8 elements x dim 64, dim_e 192
    povm = povm_from_outcomes(random_povm(3, 64, seed=64), dim=64)
    assert dilate(povm, TOL).dim_e == 192


def test_dilate_factors_only_blocks_of_the_measure_side(monkeypatch):
    povm, rank = gen_povm(8, 2, 0)
    sides = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sides.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("dilate called a whole-Gram factorization")

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for module in (qstruct.matrix_core, qstruct.naimark):
        for name in ("rank_decomposition", "pseudo_inverse"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert dilate(povm, TOL).dim_e == rank
    assert sides and max(sides) <= povm.dim


def test_dilating_and_verifying_8x2_stays_small():
    povm, _ = gen_povm(8, 2, 0)
    tracemalloc.start()
    try:
        rep = verify_dilation(dilate(povm, TOL), TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    # about 4.1 MB measured, most of it in verify_dilation's family residuals
    assert peak < 10_000_000, peak


def test_verifying_the_8x2_measure_stays_small():
    povm, _ = gen_povm(8, 2, 0)
    tracemalloc.start()
    try:
        rep = verify_povm(povm, TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    # 1.8 MB measured with the family table built inside
    assert peak < 10_000_000, peak
