"""Cyclic state representations of concrete matrix algebras.

Full matrix algebras make the expected dimensions exact: a state of density
rank r on the d-by-d matrices must produce a representation space of
dimension d*r, with the complement of the Gram rank in the kernel.

The element-at-a-time loops that ``gns`` once ran (one coordinate solve per
product, one ``op_norm`` per defect) are kept here as oracles for the pair
table and the stacked thresholds.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from conftest import oracle_op_norm

import qstruct
import qstruct.gns
from qstruct import (
    AlgebraState,
    ConcreteStarAlgebra,
    ConstructionError,
    DomainError,
    QstructError,
    StructuralError,
    Tolerance,
    gns_construct,
    gram_matrix,
    observable_norm,
    positive_parts,
    schwartz_check,
    verify_algebra,
    verify_gns,
    verify_state,
)
from qstruct.gns import GnsRepresentation
from qstruct.io_formats import load_algebra
from qstruct.matrix_core import as_complex, eig_herm, pseudo_inverse, rank_decomposition
from qstruct.report import VerificationReport

TOL = Tolerance()


def matrix_unit_algebra(d):
    """Matrix units with the identity swapped in for E00 so the unit is a basis element."""
    basis, labels = [np.eye(d, dtype=complex)], ["I"]
    idempotents = [0]
    for i in range(d):
        for j in range(d):
            if i == 0 and j == 0:
                continue
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            basis.append(e)
            labels.append(f"E{i}{j}")
            if i == j:
                idempotents.append(len(basis) - 1)
    return ConcreteStarAlgebra(basis, labels, unit=0, idempotents=tuple(idempotents))


def density(d, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_matrix_unit_algebra_verifies():
    alg = matrix_unit_algebra(2)
    rep = verify_algebra(alg, TOL)
    assert rep.ok, [c.name for c in rep.checks if not c.passed]


def test_rank_one_state_gives_a_two_dimensional_representation():
    alg = matrix_unit_algebra(2)
    state = AlgebraState.from_density(alg, np.diag([1.0, 0.0]))
    assert verify_state(alg, state, TOL).ok

    g = gram_matrix(alg, state, TOL)
    assert np.linalg.matrix_rank(g, tol=1e-9) == 2

    rep_obj = gns_construct(alg, state, TOL)
    assert rep_obj.space_dim == 2
    assert rep_obj.kernel_dim == 2
    report = verify_gns(rep_obj, TOL)
    assert report.ok, [c.name for c in report.checks if not c.passed]
    assert report.facts["space_dim"] == 2
    assert report.facts["kernel_dim"] == 2


@pytest.mark.parametrize("d,rank", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_representation_dimension_is_d_times_rank(d, rank):
    alg = matrix_unit_algebra(d)
    state = AlgebraState.from_density(alg, density(d, rank, seed=10 * d + rank))
    rep_obj = gns_construct(alg, state, TOL)
    assert rep_obj.space_dim == d * rank
    assert rep_obj.kernel_dim == d * d - d * rank
    assert verify_gns(rep_obj, TOL).ok


def test_representation_reproduces_state_values():
    alg = matrix_unit_algebra(2)
    state = AlgebraState.from_density(alg, density(2, 2, seed=42))
    rep_obj = gns_construct(alg, state, TOL)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        expected = state.of_coords(alg.coords(a, TOL))
        xi = rep_obj.xi
        got = complex(np.vdot(rep_obj.represent(a) @ xi, xi))
        assert got == pytest.approx(expected, abs=1e-9)


def test_zero_state_cannot_seed_a_representation():
    alg = matrix_unit_algebra(2)
    state = AlgebraState(np.zeros(4, dtype=complex))
    with pytest.raises(ConstructionError, match="annihilates"):
        gns_construct(alg, state, TOL)


def test_seedless_algebras_are_rejected():
    alg = ConcreteStarAlgebra([np.eye(2, dtype=complex)], ["I"])
    state = AlgebraState(np.array([1.0 + 0j]))
    with pytest.raises(DomainError, match="no idempotent"):
        gns_construct(alg, state, TOL)


def test_schwartz_slack_is_nonnegative():
    alg = matrix_unit_algebra(3)
    state = AlgebraState.from_density(alg, density(3, 2, seed=1))
    rep = schwartz_check(alg, state, samples=500, seed=4, tol=TOL)
    assert rep.ok
    assert rep.facts["samples"] == 500
    assert rep.facts["min_slack"] >= -1e-12


def test_observable_norm_is_the_spectral_radius_of_the_compression():
    alg = matrix_unit_algebra(2)
    a = np.diag([2.0, -3.0]).astype(complex)
    assert observable_norm(alg, a, 0, TOL) == pytest.approx(3.0)

    e11 = alg.labels.index("E11")
    compressed = np.diag([0.0, -3.0]).astype(complex)
    assert observable_norm(alg, compressed, e11, TOL) == pytest.approx(3.0)

    with pytest.raises(DomainError, match="self-adjoint"):
        observable_norm(alg, np.array([[0, 1], [0, 0]], dtype=complex), 0, TOL)
    with pytest.raises(DomainError, match="not a declared idempotent"):
        observable_norm(alg, a, 2, TOL)
    with pytest.raises(DomainError, match="not supported"):
        observable_norm(alg, a, e11, TOL)


def test_positive_parts_split_a_self_adjoint_element():
    alg = matrix_unit_algebra(2)
    a = np.diag([2.0, -3.0]).astype(complex)
    plus, minus, rep = positive_parts(alg, a, 0, TOL)
    assert rep.ok
    # quarter-square split: both parts positive and their difference is a
    assert plus == pytest.approx(np.diag([2.25, 1.0]))
    assert minus == pytest.approx(np.diag([0.25, 4.0]))
    assert plus - minus == pytest.approx(a)

    with pytest.raises(DomainError, match="two-sided supported"):
        positive_parts(alg, a, alg.labels.index("E11"), TOL)


def test_basis_count_is_bounded_by_the_space():
    with pytest.raises(StructuralError, match=r"too many basis matrices \(5 > dim\^2 = 4\)"):
        ConcreteStarAlgebra([np.eye(2)] * 5)
    assert ConcreteStarAlgebra([np.eye(2)] * 4).n == 4


@pytest.mark.parametrize("unit", [1, 3, -1])
def test_an_out_of_range_unit_is_a_domain_error(unit):
    with pytest.raises(DomainError, match="unit index out of range") as info:
        ConcreteStarAlgebra([np.eye(2)], unit=unit)
    assert info.value.details == {"index": unit}


@pytest.mark.parametrize("length", [3, 5])
def test_a_state_of_the_wrong_length_is_a_domain_error(length):
    alg = matrix_unit_algebra(2)
    state = AlgebraState(np.ones(length, dtype=complex))
    for call in (verify_state, gram_matrix):
        with pytest.raises(DomainError, match="one value per basis element") as info:
            call(alg, state, TOL)
        assert info.value.details == {"expected": 4, "got": length}


def test_represent_takes_a_matrix_or_a_stack():
    alg = matrix_unit_algebra(3)
    rep_obj = gns_construct(alg, AlgebraState.from_density(alg, density(3, 2, seed=5)), TOL)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    stacked = rep_obj.represent(xs)
    for x, img in zip(xs, stacked):
        assert np.allclose(rep_obj.represent(x), img, atol=1e-12)
    assert np.allclose(rep_obj.represent(alg.basis), rep_obj.images, atol=1e-12)


# -- the element-at-a-time oracles ------------------------------------------------


def oracle_coords(alg, x, tol):
    stack = np.column_stack([b.reshape(-1) for b in alg.basis])
    v = as_complex(x).reshape(-1)
    c = pseudo_inverse(stack, tol) @ v
    residual = float(np.linalg.norm(stack @ c - v))
    if residual > tol.eps * max(1.0, float(np.linalg.norm(v))):
        raise DomainError("element lies outside the algebra span", residual=residual)
    return c


def oracle_verify_algebra(alg, tol):
    rep = VerificationReport(subject="star-algebra")
    rank = alg.span_rank(tol)
    rep.record(
        "basis-independent", [] if rank == alg.n else [{"span_rank": rank, "basis_size": alg.n}]
    )
    prod_viol, star_viol = [], []
    for i, a in enumerate(alg.basis):
        try:
            oracle_coords(alg, a.conj().T, tol)
        except DomainError as exc:
            star_viol.append({"a": alg.labels[i]} | exc.details)
        for j, b in enumerate(alg.basis):
            try:
                oracle_coords(alg, a @ b, tol)
            except DomainError as exc:
                prod_viol.append({"a": alg.labels[i], "b": alg.labels[j]} | exc.details)
    rep.record("product-closed", prod_viol)
    rep.record("star-closed", star_viol)
    if alg.unit is not None:
        u = alg.basis[alg.unit]
        rep.record(
            "unit-neutral",
            (
                {
                    "a": alg.labels[i],
                    "defect": max(oracle_op_norm(u @ a - a), oracle_op_norm(a @ u - a)),
                }
                for i, a in enumerate(alg.basis)
                if max(oracle_op_norm(u @ a - a), oracle_op_norm(a @ u - a)) > tol.eps
            ),
        )
    idem_viol = []
    for e in alg.idempotents:
        mat = alg.basis[e]
        h, p = oracle_op_norm(mat - mat.conj().T), oracle_op_norm(mat @ mat - mat)
        if h > tol.eps or p > tol.eps:
            idem_viol.append({"e": alg.labels[e], "hermitian": h, "idempotent": p})
    rep.record("declared-idempotents-valid", idem_viol)
    return rep


def oracle_gram_matrix(alg, state, tol):
    g = np.empty((alg.n, alg.n), dtype=np.complex128)
    for j, a in enumerate(alg.basis):
        for k, b in enumerate(alg.basis):
            g[j, k] = state.of_coords(oracle_coords(alg, a @ b.conj().T, tol))
    return g


def oracle_verify_state(alg, state, tol):
    rep = VerificationReport(subject="algebra-state")
    herm_viol = []
    for j, a in enumerate(alg.basis):
        lhs = state.of_coords(oracle_coords(alg, a.conj().T, tol))
        rhs = np.conj(state.values[j])
        if abs(lhs - rhs) > tol.eps:
            herm_viol.append({"a": alg.labels[j], "gap": abs(lhs - rhs)})
    rep.record("hermitian", herm_viol)
    w, _ = eig_herm(oracle_gram_matrix(alg, state, tol))
    lo, hi = float(w[0]), float(w[-1])
    rep.record("positive", [] if lo >= -tol.eps * max(1.0, hi) else [{"min_eigenvalue": lo}])
    if alg.unit is not None:
        uv = complex(state.values[alg.unit])
        rep.record(
            "normalized", [] if abs(uv - 1.0) <= tol.eps else [{"unit_value": [uv.real, uv.imag]}]
        )
    rep.facts["gram_rank"] = int(np.count_nonzero(w > tol.rank_rel * max(hi, 0.0)))
    return rep


def oracle_transfer(rep_obj, b):
    alg = rep_obj.algebra
    stack = np.column_stack([a.reshape(-1) for a in alg.basis])
    bstar = as_complex(b).conj().T
    cols = np.column_stack([(a @ bstar).reshape(-1) for a in alg.basis])
    return pseudo_inverse(stack, rep_obj.tol) @ cols


def oracle_represent(rep_obj, b):
    return rep_obj.w @ oracle_transfer(rep_obj, b) @ rep_obj.w_pinv


def oracle_gns_construct(alg, state, tol):
    g = oracle_gram_matrix(alg, state, tol)
    d_e, v = rank_decomposition(np.conj(g), tol)
    w = v.conj().T
    w_pinv = pseudo_inverse(w, tol)
    seeds = list(alg.idempotents)
    if alg.unit is not None and alg.unit not in seeds:
        seeds.append(alg.unit)
    if not seeds:
        raise DomainError("no idempotent available to seed the cyclic vector")
    seed = max(seeds, key=lambda e: float(np.real(state.values[e])))
    rep = GnsRepresentation(
        alg, state, tol, w, w_pinv, d_e, alg.span_rank(tol) - d_e,
        w @ oracle_coords(alg, alg.basis[seed], tol), seed, [],
    )
    rep.images = [oracle_represent(rep, a) for a in alg.basis]
    defect = oracle_op_norm(
        w @ oracle_transfer(rep, alg.basis[seed]) @ (np.eye(alg.n) - w_pinv @ w)
    )
    if d_e == 0:
        raise ConstructionError("state annihilates the whole algebra")
    if defect > tol.eps * 10:
        raise ConstructionError("quotient action does not preserve the null space", defect=defect)
    return rep


def oracle_verify_gns(rep_obj, tol):
    rep = VerificationReport(subject="gns-representation")
    alg, state = rep_obj.algebra, rep_obj.state
    w, w_pinv, labels = rep_obj.w, rep_obj.w_pinv, alg.labels
    ker_proj = np.eye(alg.n) - w_pinv @ w
    rep.record(
        "kernel-invariant",
        (
            {"b": labels[j], "defect": oracle_op_norm(w @ oracle_transfer(rep_obj, b) @ ker_proj)}
            for j, b in enumerate(alg.basis)
            if oracle_op_norm(w @ oracle_transfer(rep_obj, b) @ ker_proj) > tol.eps
        ),
    )
    mult_viol, star_viol, recov_viol, sandwich_viol = [], [], [], []
    e1 = alg.basis[rep_obj.seed]
    for i, a in enumerate(alg.basis):
        pa = rep_obj.images[i]
        d_star = oracle_op_norm(oracle_represent(rep_obj, a.conj().T) - pa.conj().T)
        if d_star > tol.eps:
            star_viol.append({"a": labels[i], "defect": d_star})
        got = complex(np.vdot(pa @ rep_obj.xi, rep_obj.xi))
        want = complex(state.values[i])
        if abs(got - want) > tol.eps:
            recov_viol.append({"a": labels[i], "gap": abs(got - want)})
        sandwiched = state.of_coords(oracle_coords(alg, e1 @ a @ e1, tol))
        if abs(sandwiched - want) > tol.eps:
            sandwich_viol.append({"a": labels[i], "gap": abs(sandwiched - want)})
        for j, b in enumerate(alg.basis):
            d_mult = oracle_op_norm(oracle_represent(rep_obj, a @ b) - pa @ rep_obj.images[j])
            if d_mult > tol.eps:
                mult_viol.append({"a": labels[i], "b": labels[j], "defect": d_mult})
    rep.record("multiplicative", mult_viol)
    rep.record("star-preserved", star_viol)
    rep.record("state-recovered", recov_viol)
    rep.record("seed-sandwich-neutral", sandwich_viol)
    rank = alg.span_rank(tol)
    split = {"space_dim": rep_obj.space_dim, "kernel_dim": rep_obj.kernel_dim}
    rep.record(
        "dimension-split", [] if sum(split.values()) == rank else [split | {"span_rank": rank}]
    )
    rep.facts.update(split, seed=labels[rep_obj.seed])
    return rep


# -- comparing the kernels with the oracles ----------------------------------------


def assert_close(got, want, where="report"):
    """Same structure, keys and order; floats within 1e-12 + 1e-9 |x|."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got, want)
        for k in want:
            assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), (where, got, want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, (float, complex, np.floating, np.complexfloating)):
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (where, got, want)
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape, where
        assert np.all(np.abs(got - want) <= 1e-12 + 1e-9 * np.abs(want)), where
    else:
        assert got == want, (where, got, want)


def outcome(fn, *args):
    """A report's dict, or the error a call raised as (type, message, details)."""
    try:
        result = fn(*args)
    except QstructError as exc:
        return (type(exc).__name__, str(exc), exc.details)
    return result.to_dict() if isinstance(result, VerificationReport) else result


def assert_matches_the_oracles(alg, state, tol=TOL):
    """Every GNS step against its oracle, lifted witness cap assumed; returns the new outcomes."""
    got = {
        "algebra": outcome(verify_algebra, alg, tol),
        "state": outcome(verify_state, alg, state, tol),
        "gram": outcome(gram_matrix, alg, state, tol),
        "construct": outcome(gns_construct, alg, state, tol),
    }
    want = {
        "algebra": outcome(oracle_verify_algebra, alg, tol),
        "state": outcome(oracle_verify_state, alg, state, tol),
        "gram": outcome(oracle_gram_matrix, alg, state, tol),
        "construct": outcome(oracle_gns_construct, alg, state, tol),
    }
    for key in ("algebra", "state", "gram"):
        assert_close(got[key], want[key], key)
    rep_obj, oracle_obj = got["construct"], want["construct"]
    if isinstance(oracle_obj, tuple):
        assert_close(rep_obj, oracle_obj, "construct")
        return got
    for field in ("space_dim", "kernel_dim", "seed"):
        assert getattr(rep_obj, field) == getattr(oracle_obj, field), field
    # w is fixed only up to a unitary on degenerate Gram eigenspaces; compare
    # what does not depend on that choice
    for name, invariant in (
        ("w* w", lambda r: r.w.conj().T @ r.w),
        ("images", lambda r: r.w_pinv @ np.asarray(r.images) @ r.w),
        ("xi", lambda r: r.w_pinv @ r.xi),
    ):
        assert_close(invariant(rep_obj), invariant(oracle_obj), name)
    got["gns"] = outcome(verify_gns, rep_obj, tol)
    assert_close(got["gns"], outcome(oracle_verify_gns, rep_obj, tol), "gns")
    slack = schwartz_check(alg, state, samples=200, seed=1, tol=tol).facts["min_slack"]
    assert abs(slack - schwartz_oracle_slack(alg, state, tol)) <= 1e-12
    return got


def schwartz_oracle_slack(alg, state, tol):
    g = np.conj(oracle_gram_matrix(alg, state, tol))
    rng = np.random.default_rng(1)
    c = rng.standard_normal((alg.n, 200)) + 1j * rng.standard_normal((alg.n, 200))
    d = rng.standard_normal((alg.n, 200)) + 1j * rng.standard_normal((alg.n, 200))
    c /= np.linalg.norm(c, axis=0, keepdims=True)
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    cross = np.einsum("jn,jk,kn->n", np.conj(d), g, c)
    aa = np.real(np.einsum("jn,jk,kn->n", np.conj(c), g, c))
    bb = np.real(np.einsum("jn,jk,kn->n", np.conj(d), g, d))
    return float((bb * aa - np.abs(cross) ** 2).min())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_density_states_match_the_oracles(d, all_witnesses):
    alg = matrix_unit_algebra(d)
    for rank in range(1, d + 1):
        state = AlgebraState.from_density(alg, density(d, rank, seed=7 * d + rank))
        got = assert_matches_the_oracles(alg, state)
        assert got["gns"]["ok"], (d, rank)


def test_a_family_not_closed_under_adjoints_matches_the_oracles(all_witnesses):
    full = matrix_unit_algebra(2)
    keep = [k for k, lab in enumerate(full.labels) if lab != "E01"]
    alg = ConcreteStarAlgebra(
        [full.basis[k] for k in keep], [full.labels[k] for k in keep], unit=0, idempotents=(0, 2)
    )
    state = AlgebraState.from_density(alg, density(2, 2, seed=3))
    got = assert_matches_the_oracles(alg, state)
    algebra = {c["name"]: c for c in got["algebra"]["checks"]}
    assert not algebra["star-closed"]["passed"]
    assert got["state"][:2] == ("DomainError", "element lies outside the algebra span")
    assert got["construct"][0] == "DomainError"


def test_non_hermitian_and_non_positive_states_match_the_oracles(all_witnesses):
    alg = matrix_unit_algebra(2)
    skew = AlgebraState(np.array([1.0, 0.3 + 0.2j, 0.3 + 0.2j, 0.4]))
    got = assert_matches_the_oracles(alg, skew)
    state = {c["name"]: c for c in got["state"]["checks"]}
    assert not state["hermitian"]["passed"]

    negative = AlgebraState.from_density(alg, np.diag([1.5, -0.5]))
    got = assert_matches_the_oracles(alg, negative)
    state = {c["name"]: c for c in got["state"]["checks"]}
    assert not state["positive"]["passed"]
    assert got["construct"][:2] == ("DomainError", "matrix is not positive semidefinite")


def test_corner_seeds_false_declarations_and_large_scales_match_the_oracles(all_witnesses):
    full = matrix_unit_algebra(2)
    e01, e11 = full.labels.index("E01"), full.labels.index("E11")
    state = AlgebraState.from_density(full, density(2, 2, seed=4))

    corner = ConcreteStarAlgebra(full.basis, full.labels, idempotents=(e11,))
    got = assert_matches_the_oracles(corner, state)
    assert got["gns"]["facts"]["seed"] == "E11"
    assert not {c["name"]: c for c in got["gns"]["checks"]}["seed-sandwich-neutral"]["passed"]

    false_unit = ConcreteStarAlgebra(full.basis, full.labels, unit=e11, idempotents=(0, e01))
    got = assert_matches_the_oracles(false_unit, state)
    checks = {c["name"]: c for c in got["algebra"]["checks"]}
    assert not checks["unit-neutral"]["passed"]
    assert checks["declared-idempotents-valid"]["witnesses"][0]["e"] == "E01"

    # span residuals of products near 1e8 pass relative to their size only
    big = matrix_unit_algebra(3)
    big = ConcreteStarAlgebra([1e4 * b for b in big.basis], big.labels, 0, big.idempotents)
    got = assert_matches_the_oracles(big, AlgebraState.from_density(big, density(3, 2, seed=6)))
    assert {c["name"]: c for c in got["algebra"]["checks"]}["product-closed"]["passed"]


def complex_basis_algebra(d, seed):
    """M_d over a random complex basis that keeps the unit first: complex structure constants.

    ``represent`` is conjugate-linear, so coordinates enter the pair-table
    route of ``multiplicative`` conjugated. The matrix units' structure
    constants are real and cannot show a missing conjugation; these are not.
    """
    units = matrix_unit_algebra(d)
    rng = np.random.default_rng(seed)
    k = d * d - 1  # a unitary mix of the units other than I keeps the basis well conditioned
    mix, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    basis = [units.basis[0], *np.einsum("ij,jab->iab", mix, np.array(units.basis[1:]))]
    return ConcreteStarAlgebra(basis, [f"b{i}" for i in range(d * d)], unit=0, idempotents=(0,))


def test_complex_structure_constants_match_the_oracles(all_witnesses):
    alg = complex_basis_algebra(4, seed=5)
    assert np.abs(alg.pairs(TOL).prods.coords.imag).max() > 0.1
    for rank in (1, 2, 4):
        got = assert_matches_the_oracles(alg, AlgebraState.from_density(alg, density(4, rank, 3)))
        assert got["gns"]["ok"], rank


def test_a_family_short_of_product_closure_matches_the_oracles(all_witnesses, monkeypatch):
    """M_2 + C in M_3, with E01 tilted by 3e-10 towards E02.

    Products leave the span by up to 3e-10, inside the span tolerance, so the
    representation is built and the residual term of ``multiplicative``'s
    recheck band reaches eps: some cells go back through ``represent``.
    """
    full = matrix_unit_algebra(3)
    keep = [k for k, lab in enumerate(full.labels) if lab not in ("E02", "E12", "E20", "E21")]
    basis, labels = [full.basis[k].copy() for k in keep], [full.labels[k] for k in keep]
    basis[labels.index("E01")][0, 2] = 3e-10
    idempotents = (0, labels.index("E11"), labels.index("E22"))
    alg = ConcreteStarAlgebra(basis, labels, unit=0, idempotents=idempotents)
    rechecked, represented = [], qstruct.gns._represented

    def counted(rep_obj, images, i, js, eps):
        rechecked.append(len(js))
        return represented(rep_obj, images, i, js, eps)

    monkeypatch.setattr(qstruct.gns, "_represented", counted)
    for rank in (1, 2, 3):
        assert_matches_the_oracles(alg, AlgebraState.from_density(alg, density(3, rank, 5)))
    assert alg.pairs(TOL).prods.residual.max() > 1e-10
    assert sum(rechecked) > 0


def full_width_min_slack(alg, state, samples, seed, tol=TOL):
    """``schwartz_check``'s draws, with every slack from three-operand einsums over all columns."""
    if not samples:
        return 0.0
    g = np.conj(gram_matrix(alg, state, tol))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((alg.n, samples)) + 1j * rng.standard_normal((alg.n, samples))
    d = rng.standard_normal((alg.n, samples)) + 1j * rng.standard_normal((alg.n, samples))
    c /= np.linalg.norm(c, axis=0, keepdims=True)
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    cross = np.einsum("jn,jk,kn->n", np.conj(d), g, c)
    aa = np.real(np.einsum("jn,jk,kn->n", np.conj(c), g, c))
    bb = np.real(np.einsum("jn,jk,kn->n", np.conj(d), g, d))
    return float((bb * aa - np.abs(cross) ** 2).min())


def test_min_slack_is_the_full_width_einsum_minimum_bit_for_bit(valid_dir):
    # slacks of the 1e4-scaled algebras reach about 1e16, and a character
    # (I + iX -> 1 + i) leaves every slack at rounding level: a fixed absolute
    # screening margin would pick the wrong columns. On the two-element
    # algebra a one-column einsum sums in another order than the full width.
    m3 = matrix_unit_algebra(3)
    cases = [(m3, AlgebraState.from_density(m3, density(3, 1, seed=2)))]
    for scale in (1.0, 1e4):
        big = ConcreteStarAlgebra([scale * b for b in m3.basis], m3.labels, 0, m3.idempotents)
        cases.append((big, AlgebraState.from_density(big, density(3, 2, seed=6))))
        unit, skew = np.eye(2), np.eye(2) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = ConcreteStarAlgebra([scale * unit, scale * skew], ["I", "I+iX"], unit=0)
        cases += [(pair, AlgebraState(scale * np.array([1.0, 1.0 + x]))) for x in (1j, 0.4j)]
    cases += [load_algebra(valid_dir / f"m2_algebra{tail}.json") for tail in ("", "_full_rank")]
    for alg, state in cases:
        for samples in (0, 1, 2, 3, 17, 1000):
            for seed in range(4):
                got = schwartz_check(alg, state, samples=samples, seed=seed, tol=TOL)
                want = full_width_min_slack(alg, state, samples, seed)
                assert got.facts["min_slack"] == want, (alg.labels, samples, seed)
                assert got.ok == (want >= -1e-12)


def test_one_span_rank_per_tolerance(monkeypatch):
    counted, rank = [], qstruct.gns.spectral_rank

    def spy(w, tol):
        counted.append(len(w))
        return rank(w, tol)

    monkeypatch.setattr(qstruct.gns, "spectral_rank", spy)
    alg = matrix_unit_algebra(3)
    state = AlgebraState.from_density(alg, density(3, 2, seed=1))
    verify_algebra(alg, TOL)
    verify_state(alg, state, TOL)
    verify_gns(gns_construct(alg, state, TOL), TOL)
    assert counted == [9, 9]  # the span once, the Gram matrix once
    loose = Tolerance.with_eps(1e-6)
    assert alg.span_rank(loose) == 9 and counted == [9, 9, 9]


@pytest.mark.parametrize("field", ["images", "w"])
def test_perturbed_representations_match_the_oracles(field, all_witnesses):
    alg = matrix_unit_algebra(3)
    rng = np.random.default_rng(11)
    for rank in (1, 2, 3):
        rep_obj = gns_construct(alg, AlgebraState.from_density(alg, density(3, rank, rank)), TOL)
        value = np.asarray(getattr(rep_obj, field))
        noise = rng.normal(size=value.shape) + 1j * rng.normal(size=value.shape)
        setattr(rep_obj, field, value + 1e-8 * noise)  # >= 10 eps in operator norm
        got = outcome(verify_gns, rep_obj, TOL)
        assert_close(got, outcome(oracle_verify_gns, rep_obj, TOL), f"{field} rank={rank}")
        failed = {c["name"] for c in got["checks"] if not c["passed"]}
        broken = {"multiplicative", "star-preserved", "state-recovered"}
        assert broken <= failed if field == "images" else "kernel-invariant" in failed, failed


# -- call counts and memory ----------------------------------------------------------


def test_gns_thresholds_are_stacked_and_the_pair_table_is_built_once(monkeypatch):
    calls = {"op_norm": 0, "table": 0}
    single, table = qstruct.matrix_core.op_norm, qstruct.gns.PairTable

    def counted_op_norm(a):
        calls["op_norm"] += 1
        return single(a)

    def counted_table(*args):
        calls["table"] += 1
        return table(*args)

    for name, module in list(sys.modules.items()):
        if name == "qstruct" or name.startswith("qstruct."):
            for attr, value in list(vars(module).items()):
                if value is single:
                    monkeypatch.setattr(module, attr, counted_op_norm)
    monkeypatch.setattr(qstruct.gns, "PairTable", counted_table)

    alg = matrix_unit_algebra(4)
    state = AlgebraState.from_density(alg, density(4, 2, seed=8))
    verify_state(alg, state, TOL)
    rep_obj = gns_construct(alg, state, TOL)
    assert verify_gns(rep_obj, TOL).ok
    schwartz_check(alg, state, samples=50, tol=TOL)
    assert calls == {"op_norm": 0, "table": 1}
    qstruct.op_norm(np.eye(2))  # the counter sees calls through the package
    assert calls["op_norm"] == 1


# twice the 24.6 MiB that gns_construct + verify_gns peak at on M_8 at full
# rank, with multiplicative on pair-table blocks as with the per-row loop;
# one (n^2, d, d) temporary there (n = d = 64) alone would be 268 MB
PEAK_BOUND = 48 * 2**20


def test_gns_on_m8_stays_in_row_slabs():
    alg = matrix_unit_algebra(8)
    state = AlgebraState.from_density(alg, density(8, 8, seed=2))
    tracemalloc.start()
    try:
        rep_obj = gns_construct(alg, state, TOL)
        ok = verify_gns(rep_obj, TOL).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and rep_obj.space_dim == 64
    assert peak < PEAK_BOUND
