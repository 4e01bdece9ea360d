"""Numeric primitives: norms, factorizations and range lattice operations."""

import numpy as np
import pytest
from conftest import oracle_op_norm

from qstruct import (
    DomainError,
    Tolerance,
    canonical_phases,
    is_orthoprojection,
    op_norm,
    operator_order,
    pseudo_inverse,
    range_join,
    range_meet,
    range_projector,
    rank_decomposition,
)
from qstruct.matrix_core import op_norms

TOL = Tolerance()


def test_op_norm_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert op_norm(a) == pytest.approx(np.linalg.norm(a, 2), abs=1e-10)
    assert op_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0)


def test_op_norms_match_the_single_matrix_oracle_bit_for_bit():
    rng = np.random.default_rng(8)
    for rows in range(0, 7):
        for cols in range(0, 7):
            a = rng.normal(size=(5, rows, cols)) + 1j * rng.normal(size=(5, rows, cols))
            a[1] *= 1e-9
            a[2] = 0.0
            want = [oracle_op_norm(m) for m in a]
            assert np.array_equal(op_norms(a), want)
            assert [op_norm(m) for m in a] == want
    assert op_norms(np.zeros((0, 3, 3))).shape == (0,)


def test_tolerance_with_eps_scales_the_rank_cutoff():
    t = Tolerance.with_eps(1e-6)
    assert t.eps == 1e-6
    assert t.rank_rel < t.eps


def test_rank_decomposition_recovers_the_gram():
    rng = np.random.default_rng(7)
    for r in (1, 2, 3):
        a = rng.normal(size=(4, r)) + 1j * rng.normal(size=(4, r))
        g = a @ a.conj().T
        rank, v = rank_decomposition(g, TOL)
        assert rank == r
        assert op_norm(v @ v.conj().T - g) <= 1e-10
        assert v.shape == (4, r)


def test_rank_decomposition_rejects_indefinite_matrices():
    with pytest.raises(DomainError, match="positive semidefinite"):
        rank_decomposition(np.diag([1.0, -1.0]), TOL)


def test_pseudo_inverse_matches_numpy():
    rng = np.random.default_rng(11)
    shapes = [(4, 2), (2, 4), (3, 3)]
    for shape in shapes:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert op_norm(pseudo_inverse(a, TOL) - np.linalg.pinv(a)) <= 1e-9
    low = rng.normal(size=(4, 1)) @ rng.normal(size=(1, 4))
    assert op_norm(pseudo_inverse(low, TOL) - np.linalg.pinv(low)) <= 1e-9


def test_range_projector_is_an_orthoprojection_onto_the_columns():
    a = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    p = range_projector(a, TOL)
    assert is_orthoprojection(p, TOL)
    assert op_norm(p @ a - a) <= 1e-10
    assert np.trace(p).real == pytest.approx(1.0)  # rank-one column space


def test_commuting_projector_lattice_is_elementwise():
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    q = np.diag([0.0, 1.0, 1.0, 0.0])
    assert np.allclose(range_meet(p, q, TOL), np.diag([0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(range_join(p, q, TOL), np.diag([1.0, 1.0, 1.0, 0.0]))


def test_skew_projectors_meet_at_zero_and_join_to_one():
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    q = np.full((2, 2), 0.5)
    assert op_norm(range_meet(p, q, TOL)) <= 1e-10
    assert op_norm(range_join(p, q, TOL) - np.eye(2)) <= 1e-10


def test_operator_order_is_the_projection_order():
    p = np.diag([1.0, 0.0, 0.0])
    q = np.diag([1.0, 1.0, 0.0])
    assert operator_order(p, q, TOL)
    assert not operator_order(q, p, TOL)
    assert operator_order(np.zeros((3, 3)), q, TOL)


def test_canonical_phases_pins_the_largest_entry_positive():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.eigh(h + h.conj().T)[1]
    c = canonical_phases(u, TOL)
    for col in c.T:
        top = col[np.argmax(np.abs(col))]
        assert abs(top.imag) <= 1e-12
        assert top.real > 0
    # deterministic and stable: a second pass only shuffles rounding dust
    assert np.array_equal(canonical_phases(u, TOL), c)
    assert op_norm(canonical_phases(c, TOL) - c) <= 1e-12
