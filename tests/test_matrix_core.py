"""Numeric primitives: norms, factorizations and range lattice operations."""

import numpy as np
import pytest
from conftest import oracle_op_norm, random_povm

from qstruct import (
    DomainError,
    Tolerance,
    canonical_phases,
    op_norm,
    operator_order,
    pseudo_inverse,
    range_join,
    range_meet,
    rank_decomposition,
)
import qstruct.matrix_core
from qstruct.matrix_core import (
    herm,
    nonzero_spectrum,
    op_norms,
    op_norms_exceed,
    psd_floor,
    screened_op_norms,
)
from qstruct.naimark import mobius_blocks, povm_from_outcomes

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


def inline_top(w):
    """The top eigenvalue as each call site read it before the cuts moved here."""
    if w.ndim == 2:  # dilate's blocks
        return float(w[:, -1].max())
    return float(w[-1]) if w.size else 0.0


def inline_rank_cut(w, tol):
    return w > tol.rank_rel * max(inline_top(w), 0.0)


def inline_psd_floor(w, tol):
    return -tol.eps * max(1.0, inline_top(w))


def cut_spectra():
    cut = Tolerance().rank_rel * 2.0
    yield np.zeros(0)
    yield np.zeros(4)
    yield np.array([-3.0, -2.0, -1e-12])
    yield np.array([-1e-12, -1e-20, 0.0])
    yield np.array([0.0, cut, np.nextafter(cut, np.inf), 1.0, 2.0])
    yield np.array([[-1e-11, 0.5], [0.0, 3.0], [-2.0, -1.0]])
    for outcomes, dim, seed in ((2, 1, 0), (3, 2, 1), (4, 3, 2)):
        # the block spectra dilate cuts: one 2-D stack, one shared top
        _, g = mobius_blocks(povm_from_outcomes(random_povm(outcomes, dim, seed), dim))
        yield np.linalg.eigh(herm(g))[0]


@pytest.mark.parametrize("tol", [TOL, Tolerance.with_eps(1e-6)])
def test_the_spectral_cuts_match_the_inline_expressions(tol):
    for w in cut_spectra():
        assert np.array_equal(nonzero_spectrum(w, tol), inline_rank_cut(w, tol)), w
        assert psd_floor(w, tol) == inline_psd_floor(w, tol), w


def test_the_rank_cut_drops_a_value_exactly_at_the_cut():
    cut = TOL.rank_rel * 2.0
    w = np.array([0.0, cut, np.nextafter(cut, np.inf), 1.0, 2.0])
    assert nonzero_spectrum(w, TOL).tolist() == [False, False, True, True, True]
    assert not nonzero_spectrum(np.array([-3.0, -2.0, -1.0]), TOL).any()
    assert psd_floor(np.zeros(0), TOL) == -TOL.eps
    assert psd_floor(np.array([-1.0, 4.0]), TOL) == -4.0 * TOL.eps


def test_pseudo_inverse_matches_numpy():
    rng = np.random.default_rng(11)
    shapes = [(4, 2), (2, 4), (3, 3)]
    for shape in shapes:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert op_norm(pseudo_inverse(a, TOL) - np.linalg.pinv(a)) <= 1e-9
    low = rng.normal(size=(4, 1)) @ rng.normal(size=(1, 4))
    assert op_norm(pseudo_inverse(low, TOL) - np.linalg.pinv(low)) <= 1e-9


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


# -- the Frobenius screen against op_norms(a) > eps ---------------------------------


def ginibre(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def with_singular_values(rng, count, rows, cols, values):
    """``count`` random matrices whose singular values are ``values`` (padded with 0)."""
    k = min(rows, cols)
    s = np.zeros(k)
    s[: len(values)] = values
    u, _ = np.linalg.qr(ginibre(rng, count, rows, rows))
    v, _ = np.linalg.qr(ginibre(rng, count, cols, cols))
    return (u[:, :, :k] * s) @ v[:, :, :k].conj().transpose(0, 2, 1)


def adversarial_stacks():
    """(stack, eps) pairs whose norms crowd eps, the band edges, and the float range."""
    rng = np.random.default_rng(31)
    for rows, cols in ((1, 1), (2, 2), (3, 3), (2, 5), (5, 2), (6, 6)):
        k = min(rows, cols)
        for eps in (1e-9, 1e-3, 0.5):
            for rel in (-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9):
                # norm at eps (1 + rel): general, rank one, and all values equal
                g = ginibre(rng, 8, rows, cols)
                yield g / op_norms(g)[:, None, None] * eps * (1 + rel), eps
                yield with_singular_values(rng, 8, rows, cols, [eps * (1 + rel)]), eps
                yield with_singular_values(rng, 8, rows, cols, [eps * (1 + rel)] * k), eps
                # Frobenius norm at the band's upper edge sqrt(k) eps (1 + rel)
                g = ginibre(rng, 8, rows, cols)
                fro = np.linalg.norm(g, axis=(1, 2))
                yield g / fro[:, None, None] * np.sqrt(k) * eps * (1 + rel), eps
            # rank one inside the band [eps, sqrt(k) eps], and a spread of scales
            yield with_singular_values(rng, 8, rows, cols, [eps * np.sqrt(k) * 0.999]), eps
            scales = np.logspace(-3, 3, 16)[:, None, None] * eps
            yield ginibre(rng, 16, rows, cols) * scales, eps
    for scale in (1e-162, 1e-150, 1e-130, 1e130, 1e150):
        g = ginibre(rng, 64, 3, 3) * scale
        for eps in (1e-9, scale * 0.3, scale, scale * 1.7, scale * 3):
            yield g, eps


def assert_screen_exact(a, eps):
    ref = op_norms(a)
    want = ref > eps
    assert np.array_equal(op_norms_exceed(a, eps), want)
    got = screened_op_norms(a, eps)
    assert np.array_equal(got > eps, want)
    # values above eps are op_norms' own bits; the rest are bounds that stay below
    # eps, or the NaN that op_norms gives a non-finite matrix
    assert np.array_equal(got[want], ref[want])
    assert np.all((got[~want] <= eps) | (np.isnan(got) & np.isnan(ref))[~want])


def test_the_screen_decides_exactly_what_op_norms_decides():
    count = 0
    for a, eps in adversarial_stacks():
        assert_screen_exact(a, eps)
        count += len(a)
    assert count > 4000


def test_the_screen_handles_empty_non_square_and_non_finite_stacks():
    rng = np.random.default_rng(32)
    for shape in ((0, 3, 3), (4, 0, 3), (4, 3, 0), (3, 1, 4), (3, 4, 1)):
        assert_screen_exact(ginibre(rng, *shape) * 1e-9, 1e-9)
    with np.errstate(invalid="ignore", over="ignore"):
        a = ginibre(rng, 6, 2, 2) * 1e-12
        a[1, 0, 0] = np.nan
        a[2, 1, 0] = np.inf
        a[3, 0, 1] = complex(0.0, -np.inf)
        a[4] *= 1e300
        assert_screen_exact(a, 1e-9)
    for eps in (0.0, 1e-300, -1.0):
        assert_screen_exact(ginibre(rng, 5, 2, 2), eps)


def test_only_the_band_reaches_the_eigensolver(monkeypatch):
    rng = np.random.default_rng(33)
    eps, seen = 1e-9, []
    a = ginibre(rng, 64, 3, 3)
    a *= (np.logspace(-4, 4, 64) * eps / np.linalg.norm(a, axis=(1, 2)))[:, None, None]
    fro = np.linalg.norm(a, axis=(1, 2))
    want = op_norms(a) > eps

    def counting(stack):
        seen.append(len(stack))
        return op_norms(stack)

    monkeypatch.setattr(qstruct.matrix_core, "op_norms", counting)
    assert np.array_equal(op_norms_exceed(a, eps), want)
    band = np.count_nonzero((fro > eps * (1 - 1e-9)) & (fro <= np.sqrt(3) * eps * (1 + 1e-9)))
    assert sum(seen) == band and 0 < band < 16
