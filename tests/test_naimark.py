"""Dilating finite operator-valued measures to projective ones.

The trine measurement is the standard minimal example: three rank-one
effects on a qubit whose dilation space must come out exactly
three-dimensional. Projective measures must dilate without growing at all.
"""

import numpy as np
import pytest
from conftest import oracle_op_norm, random_povm

import qstruct.naimark
import qstruct.standard
from qstruct import (
    DomainError,
    FinitePovm,
    StructuralError,
    Tolerance,
    dilate,
    gram_block,
    op_norm,
    povm_from_outcomes,
    powerset_semiring,
    unitary_equivalence,
    verify_dilation,
    verify_povm,
)
from qstruct.semilogic import family_residuals

TOL = Tolerance()


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


def test_trivial_measure_has_the_unit_interval_gram():
    povm = povm_from_outcomes([np.eye(1)], dim=1)
    assert np.array_equal(gram_block(povm), np.array([[0.0, 0.0], [0.0, 1.0]]))
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
    from qstruct.naimark import Dilation

    povm = povm_from_outcomes(random_povm(3, 2, seed=7), dim=2)
    dil = dilate(povm, TOL)
    rng = np.random.default_rng(11)
    h = rng.normal(size=(dil.dim_e, dil.dim_e)) + 1j * rng.normal(size=(dil.dim_e, dil.dim_e))
    v = np.linalg.eigh(h + h.conj().T)[1]
    rotated = Dilation(
        povm=dil.povm,
        w=v @ dil.w,
        w_pinv=dil.w_pinv @ v.conj().T,
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
    assert family_residuals(np.array(povm.effects), []).shape == (0,)
    assert verify_povm(povm, TOL).get("additive").passed
    rep = verify_dilation(dilate(povm, TOL), TOL)
    assert rep.ok
    assert rep.get("additive").violation_count == 0


# -- the per-element loops that the stacked threshold kernel replaced ----------------


def oracle_gram_block(povm):
    n, d, prod = povm.semiring.n, povm.dim, povm.semiring.prod
    h = np.empty((n * d, n * d), dtype=np.complex128)
    for b in range(n):
        for c in range(n):
            h[b * d : (b + 1) * d, c * d : (c + 1) * d] = povm.effects[int(prod[b, c])]
    return h


def oracle_images(dil):
    n, d = dil.povm.semiring.n, dil.povm.dim
    images = []
    for b in range(n):
        gather = np.empty(n * d, dtype=np.int64)
        for c in range(n):
            gather[c * d : (c + 1) * d] = np.arange(d) + int(dil.povm.semiring.prod[b, c]) * d
        images.append(dil.w[:, gather] @ dil.w_pinv)
    return images


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
        assert all(np.array_equal(a, b) for a, b in zip(dil.images, oracle_images(dil)))
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
