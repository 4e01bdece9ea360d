"""States on concrete *-algebras and the cyclic representations they induce.

An algebra is a family of at most m^2 matrices on C^m spanning a subspace
closed under products and adjoints; a state is a linear functional on it.
Elements are handled by their coordinates over the family, solved for a whole
stack at once; the pair table holds those of every a_i a_j, a_i a_j* and a_i*,
once per tolerance. The Gram matrix r(a_j a_k*) is the table contracted with
the state. It is factored, classes become coordinate vectors, and right
multiplication by the adjoint descends to the quotient, so basis images are
slabs of the table. Residuals are measured in operator or 2-norm against eps;
operator-norm thresholds run on stacks through ``matrix_core``'s screen.

``multiplicative`` reads pi(a_i a_j) = sum_k conj(c_ijk) pi(a_k) off the pair
table's structure constants; cells within a recheck band of eps, and kept
witnesses, go back through ``represent`` (``_multiplicative``). The Schwartz
slacks are screened by two matrix products before the einsums that give
``min_slack`` its bits (``_min_slack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, ParseError, StructuralError
from .matrix_core import (
    SCREEN_MARGIN,
    STACK_ENTRIES,
    Array,
    Tolerance,
    as_complex,
    eig_herm,
    herm,
    is_hermitian,
    op_norms,
    op_norms_exceed,
    projection_defects,
    pseudo_inverse,
    psd_floor,
    rank_decomposition,
    screened_op_norm,
    screened_op_norms,
    spectral_rank,
)
from .report import VerificationReport, labelled


# basis size x samples per coefficient array drawn by schwartz_check, which
# holds several such complex arrays at once; 2^20 entries are 16 MiB each
MAX_SAMPLE_CELLS = 1 << 20
# unit roundoff u of float64, for the rounding allowances of the fast routes
ROUNDOFF = np.finfo(np.float64).eps / 2


def check_basis_size(n: int, dim: int) -> None:
    """More than dim^2 matrices on C^dim cannot be independent; refuse them."""
    if n > dim * dim:
        raise StructuralError(f"too many basis matrices ({n} > dim^2 = {dim * dim})")


def check_sample_count(samples: int, n: int) -> None:
    """Refuse a schwartz sample count below 0 or past MAX_SAMPLE_CELLS / n."""
    if samples < 0 or samples * n > MAX_SAMPLE_CELLS:
        raise ParseError(
            f"schwartz samples x basis size must stay within 0..{MAX_SAMPLE_CELLS}",
            samples=samples,
            basis_size=n,
        )


class Solved(NamedTuple):
    """Coordinates (..., n) over the basis, span residuals, and which exceed eps max(1, ||x||)."""

    coords: Array
    residual: Array
    outside: Array

    def inside(self) -> Array:
        """The coordinates; the first element outside the span raises."""
        bad = np.flatnonzero(self.outside)
        if bad.size:
            residual = float(self.residual.flat[bad[0]])
            raise DomainError("element lies outside the algebra span", residual=residual)
        return self.coords


class PairTable(NamedTuple):
    """The basis pseudo-inverse, and the pairs a_i a_j, a_i a_j*, a_i* solved over the basis.

    The transfer of a_l, the action x -> x a_l* on coordinates with column k
    for a_k, is ``adjs.coords[:, l].T``; that of a_l* is ``prods.coords[:, l].T``.
    """

    pinv: Array
    prods: Solved  # [i, j]: a_i a_j
    adjs: Solved  # [i, j]: a_i a_j*
    stars: Solved  # [i]: a_i*


class ConcreteStarAlgebra:
    """Matrices spanning a self-adjoint, product-closed subspace of M_m."""

    def __init__(
        self,
        basis: Sequence[Array],
        labels: Sequence[str] | None = None,
        unit: int | None = None,
        idempotents: Sequence[int] = (),
    ):
        self.basis = [as_complex(b) for b in basis]
        if not self.basis:
            raise DomainError("empty algebra basis")
        m = self.basis[0].shape[0]
        if any(b.shape != (m, m) for b in self.basis):
            raise DomainError("basis matrices live on different spaces")
        check_basis_size(len(self.basis), m)
        self.space_size = m
        self.n = len(self.basis)
        self.labels = list(labels) if labels else [f"a{j}" for j in range(self.n)]
        if len(self.labels) != self.n:
            raise DomainError("label count mismatch")
        if unit is not None and not (0 <= unit < self.n):
            raise DomainError("unit index out of range", index=unit)
        self.unit = unit
        self.idempotents = list(idempotents)
        for e in self.idempotents:
            if not (0 <= e < self.n):
                raise DomainError("idempotent index out of range", index=e)
        self._mats = np.array(self.basis)
        self._stack = self._mats.reshape(self.n, -1).T
        self._tables: dict[Tolerance, PairTable] = {}
        self._ranks: dict[Tolerance, int] = {}

    def pairs(self, tol: Tolerance) -> PairTable:
        """The pair table, built once per tolerance."""
        if tol not in self._tables:
            mats, pinv = self._mats, pseudo_inverse(self._stack, tol)
            adj = mats.conj().transpose(0, 2, 1)
            prods, adjs = (self._solve(pinv, mats[:, None] @ r[None], tol) for r in (mats, adj))
            self._tables[tol] = PairTable(pinv, prods, adjs, self._solve(pinv, adj, tol))
        return self._tables[tol]

    def solve(self, xs: Array, tol: Tolerance) -> Solved:
        """Coordinates and span residuals of an (..., m, m) stack, with one product."""
        return self._solve(self.pairs(tol).pinv, xs, tol)

    def _solve(self, pinv: Array, xs: Array, tol: Tolerance) -> Solved:
        xs = np.asarray(xs, dtype=np.complex128)
        v = xs.reshape(-1, self._stack.shape[0]).T
        c = pinv @ v
        residual = np.linalg.norm(self._stack @ c - v, axis=0)
        outside = residual > tol.eps * np.maximum(1.0, np.linalg.norm(v, axis=0))
        lead = xs.shape[:-2]
        return Solved(c.T.reshape(*lead, self.n), residual.reshape(lead), outside.reshape(lead))

    def coords(self, x: Array, tol: Tolerance) -> np.ndarray:
        """Coefficients of x over the basis; x must lie in the span."""
        return self.solve(as_complex(x)[None], tol).inside()[0]

    def span_rank(self, tol: Tolerance) -> int:
        """Rank of the basis span, counted once per tolerance."""
        if tol not in self._ranks:
            w, _ = np.linalg.eigh(self._stack.conj().T @ self._stack)
            self._ranks[tol] = spectral_rank(w, tol)
        return self._ranks[tol]


@dataclass
class AlgebraState:
    """Linear functional, stored by its values on the basis."""

    values: np.ndarray

    @classmethod
    def from_density(cls, alg: ConcreteStarAlgebra, rho: Array) -> "AlgebraState":
        rho = as_complex(rho)
        return cls(np.array([np.trace(rho @ b) for b in alg.basis]))

    def of_coords(self, c: np.ndarray) -> complex:
        return complex(np.dot(self.values, c))


def verify_algebra(alg: ConcreteStarAlgebra, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="star-algebra")
    rank = alg.span_rank(tol)
    rep.record(
        "basis-independent", [] if rank == alg.n else [{"span_rank": rank, "basis_size": alg.n}]
    )

    table, labels, mats = alg.pairs(tol), alg.labels, alg._mats
    prods, stars = table.prods, table.stars
    rep.record("product-closed", prods.outside, labelled(labels, "a", "b", residual=prods.residual))
    rep.record("star-closed", stars.outside, labelled(labels, "a", residual=stars.residual))

    if alg.unit is not None:
        u = mats[alg.unit]
        defect = np.maximum(*(screened_op_norms(x - mats, tol.eps) for x in (u @ mats, mats @ u)))
        rep.record("unit-neutral", defect > tol.eps, labelled(labels, "a", defect=defect))
    idem = np.array(alg.idempotents, dtype=np.intp)
    bad, herm_gap, idem_gap = projection_defects(mats[idem], tol.eps)
    invalid = labelled([labels[i] for i in idem], "e", hermitian=herm_gap, idempotent=idem_gap)
    rep.record("declared-idempotents-valid", bad, invalid)
    return rep


def _check_state(alg: ConcreteStarAlgebra, state: AlgebraState) -> None:
    if len(state.values) != alg.n:
        raise DomainError(
            "state needs one value per basis element", expected=alg.n, got=len(state.values)
        )


def gram_matrix(alg: ConcreteStarAlgebra, state: AlgebraState, tol: Tolerance) -> Array:
    """G[j][k] = r(a_j a_k*); positive semidefinite exactly when r is positive."""
    _check_state(alg, state)
    return alg.pairs(tol).adjs.inside() @ state.values


def verify_state(
    alg: ConcreteStarAlgebra, state: AlgebraState, tol: Tolerance
) -> VerificationReport:
    _check_state(alg, state)
    rep = VerificationReport(subject="algebra-state")
    gap = np.abs(alg.pairs(tol).stars.inside() @ state.values - np.conj(state.values))
    rep.record("hermitian", gap > tol.eps, labelled(alg.labels, "a", gap=gap))

    w, _ = eig_herm(gram_matrix(alg, state, tol))
    lo = float(w[0])
    rep.record("positive", [] if lo >= psd_floor(w, tol) else [{"min_eigenvalue": lo}])
    if alg.unit is not None:
        uv = complex(state.values[alg.unit])
        rep.record(
            "normalized", [] if abs(uv - 1.0) <= tol.eps else [{"unit_value": [uv.real, uv.imag]}]
        )
    rep.facts["gram_rank"] = spectral_rank(w, tol)
    return rep


@dataclass
class GnsRepresentation:
    algebra: ConcreteStarAlgebra
    state: AlgebraState
    tol: Tolerance
    w: Array          # quotient map on coordinates, shape (space_dim, n)
    w_pinv: Array
    space_dim: int
    kernel_dim: int
    xi: np.ndarray    # cyclic vector, the class of the seed idempotent
    seed: int         # basis index of the seed idempotent
    images: Array     # (n, space_dim, space_dim): the image of each basis element

    def represent(self, b: Array) -> Array:
        """Image of a matrix b, or of each matrix of a stack: x -> x b* on the quotient.

        It is conjugate-linear in b: sum_k c_k a_k goes to sum_k conj(c_k) times the image of a_k.

        Column l of the transfer holds the least-squares coordinates of a_l b*.
        """
        alg, b = self.algebra, as_complex(b) if np.ndim(b) == 2 else np.asarray(b, complex)
        bstar = b.conj().swapaxes(-1, -2)
        cols = (alg._mats @ bstar[..., None, :, :]).reshape(*bstar.shape[:-2], alg.n, -1)
        return self.w @ (alg.pairs(self.tol).pinv @ cols.swapaxes(-1, -2)) @ self.w_pinv


def gns_construct(
    alg: ConcreteStarAlgebra, state: AlgebraState, tol: Tolerance
) -> GnsRepresentation:
    g = gram_matrix(alg, state, tol)
    # the standard dot on quotient vectors reproduces r(x y*) when the
    # conjugate Gram is the one factored
    d_e, v = rank_decomposition(np.conj(g), tol)
    w = v.conj().T
    w_pinv = pseudo_inverse(w, tol)

    seeds = alg.idempotents + ([] if alg.unit is None else [alg.unit])
    if not seeds:
        raise DomainError("no idempotent available to seed the cyclic vector")
    seed = max(seeds, key=lambda e: float(np.real(state.values[e])))
    if d_e == 0:
        raise ConstructionError("state annihilates the whole algebra")

    transfers = alg.pairs(tol).adjs.coords.transpose(1, 2, 0)
    rep = GnsRepresentation(
        algebra=alg,
        state=state,
        tol=tol,
        w=w,
        w_pinv=w_pinv,
        space_dim=d_e,
        kernel_dim=alg.span_rank(tol) - d_e,
        xi=w @ alg.coords(alg.basis[seed], tol),
        seed=seed,
        images=w @ transfers @ w_pinv,
    )
    defect = screened_op_norm(w @ transfers[seed] @ (np.eye(alg.n) - w_pinv @ w), tol.eps * 10)
    if defect > tol.eps * 10:
        raise ConstructionError("quotient action does not preserve the null space", defect=defect)
    return rep


def verify_gns(rep_obj: GnsRepresentation, tol: Tolerance) -> VerificationReport:
    rep = VerificationReport(subject="gns-representation")
    alg, state, eps = rep_obj.algebra, rep_obj.state, tol.eps
    labels, mats, table = alg.labels, alg._mats, alg.pairs(rep_obj.tol)
    images = np.asarray(rep_obj.images)

    ker_proj = np.eye(alg.n) - rep_obj.w_pinv @ rep_obj.w
    kernel = screened_op_norms(rep_obj.w @ table.adjs.coords.transpose(1, 2, 0) @ ker_proj, eps)
    rep.record("kernel-invariant", kernel > eps, labelled(labels, "b", defect=kernel))

    # pi(a_i a_j) from the structure constants, with the cells near eps, or
    # whose product residual could carry them across it, and every kept
    # witness recomputed through represent(a_i a_j); see _multiplicative
    mult, witness = _multiplicative(rep_obj, table, images, eps)
    rep.record("multiplicative", mult > eps, witness)

    star_images = rep_obj.w @ table.prods.coords.transpose(1, 2, 0) @ rep_obj.w_pinv
    d_star = screened_op_norms(star_images - images.conj().transpose(0, 2, 1), eps)
    rep.record("star-preserved", d_star > eps, labelled(labels, "a", defect=d_star))
    e1 = mats[rep_obj.seed]
    for name, got in (
        ("state-recovered", (images @ rep_obj.xi).conj() @ rep_obj.xi),
        ("seed-sandwich-neutral", alg.solve(e1 @ mats @ e1, tol).inside() @ state.values),
    ):
        gap = np.abs(got - state.values)
        rep.record(name, gap > eps, labelled(labels, "a", gap=gap))
    split = {"space_dim": rep_obj.space_dim, "kernel_dim": rep_obj.kernel_dim}
    rank = alg.span_rank(tol)
    rep.record(
        "dimension-split", [] if sum(split.values()) == rank else [split | {"span_rank": rank}]
    )
    rep.facts.update(split, seed=labels[rep_obj.seed])
    return rep


def _multiplicative(
    rep_obj: GnsRepresentation, table: PairTable, images: Array, eps: float
) -> tuple[Array, Callable[[int, int], dict]]:
    """Defects ||pi(a_i a_j) - pi(a_i) pi(a_j)|| of every cell (i, j), and a witness formatter.

    ``represent`` is x -> w P C(x) W+, with P the basis pseudo-inverse, W+ =
    ``w_pinv`` and a_l x* in column l of C(x). C is conjugate-linear in x, so
    with a_i a_j = sum_k c_k a_k + r (c = ``prods.coords[i, j]``, r the span
    residual) and R = represent(basis),

        pi(a_i a_j) = sum_k conj(c_k) R_k + w P C(r) W+,

    one (cells, n) by (n, s^2) product per block, with no solve. Row-major,
    C(r) = (I (x) conj r) S for the basis stack S, so the last term has
    spectral norm at most K ||r|| <= K ``prods.residual[i, j]``, K = ||w||
    ||P|| ||S|| ||W+||: in exact arithmetic the two routes' defects differ
    by at most that. Rounding moves them by about gamma K (||a_i|| ||a_j|| +
    ||c|| ||S||_F) + gamma ||pi(a_i)|| ||pi(a_j)||, gamma = u (m^2 + m + 3n +
    s), the inner dimensions of the products: the first-order bound of
    Higham (Accuracy and Stability of Numerical Algorithms, 3.5) with norms
    for its componentwise form, a model rather than a proof. On 142 algebras
    (matrix units up to M_8, the benchmark's, complex bases of M_2 to M_4,
    perturbed representations) the routes differed by at most 3% of it.

    K residual, the rounding term and SCREEN_MARGIN eps make the recheck
    band. A cell whose fast defect lies farther from eps than its band is on
    the same side of eps on both routes; the cells inside it (and every NaN)
    are recomputed through ``represent``, and so is each witness the report
    keeps, when it is formatted. The mask and every reported value are those
    of the represent route.
    """
    alg = rep_obj.algebra
    n, m, mats, labels, coords = alg.n, alg.space_size, alg._mats, alg.labels, table.prods.coords
    s = images.shape[-1]
    flat = rep_obj.represent(mats).reshape(n, s * s)
    defect = np.empty((n, n))
    # blocks of rows by columns; a block's gap and image products are live at
    # once, with STACK_ENTRIES entries between them
    cells = max(1, STACK_ENTRIES // (2 * s * s))
    cols = min(n, cells)
    rows = max(1, cells // cols)
    for i0 in range(0, n, rows):
        for j0 in range(0, n, cols):
            ri, cj = slice(i0, i0 + rows), slice(j0, j0 + cols)
            c = coords[ri, cj].conj()
            gap = (c.reshape(-1, n) @ flat).reshape(*c.shape[:2], s, s)
            gap -= images[ri, None] @ images[None, cj]
            defect[ri, cj] = screened_op_norms(gap.reshape(-1, s, s), eps).reshape(c.shape[:2])

    # spectral norms, each from the smaller of its factor's two Gram matrices
    factors = (rep_obj.w, table.pinv, alg._stack, rep_obj.w_pinv)
    k = float(np.prod([op_norms((x if len(x) >= x.shape[1] else x.T)[None]) for x in factors]))
    gamma = (m * m + m + 3 * n + s) * ROUNDOFF
    a, p = (np.linalg.norm(x, axis=(1, 2)) for x in (mats, images))
    parts = np.ascontiguousarray(coords).view(np.float64)  # no temporary the size of the table
    c_norms = np.sqrt(np.einsum("ijk,ijk->ij", parts, parts))
    scale = np.outer(a, a) + c_norms * np.linalg.norm(alg._stack)
    band = k * (table.prods.residual + gamma * scale) + gamma * np.outer(p, p) + SCREEN_MARGIN * eps
    exact = ~(np.abs(defect - eps) > band)
    for i in np.flatnonzero(exact.any(axis=1)).tolist():
        defect[i, exact[i]] = _represented(rep_obj, images, i, np.flatnonzero(exact[i]), eps)

    def witness(i: int, j: int) -> dict:
        if not exact[i, j]:
            defect[i, j] = _represented(rep_obj, images, i, np.array([j]), eps)[0]
        return {"a": labels[i], "b": labels[j], "defect": float(defect[i, j])}

    return defect, witness


def _represented(rep_obj: GnsRepresentation, images: Array, i: int, js: Array, eps: float) -> Array:
    """The defects of cells (i, js) on the represent route: a_l (a_i a_j)* solved for every l."""
    mats = rep_obj.algebra._mats
    return screened_op_norms(rep_obj.represent(mats[i] @ mats[js]) - images[i] @ images[js], eps)


def schwartz_check(
    alg: ConcreteStarAlgebra,
    state: AlgebraState,
    samples: int = 1000,
    seed: int = 0,
    slack_tol: float = 1e-12,
    tol: Tolerance = Tolerance(),
) -> VerificationReport:
    """|r(b a*)|^2 <= r(b b*) r(a a*) over random coefficient pairs.

    Coefficient vectors are drawn complex Gaussian and normalized, keeping
    every term O(1) so the slack comparison against 1e-12 is meaningful.
    """
    check_sample_count(samples, alg.n)
    rep = VerificationReport(subject="schwartz")
    g = np.conj(gram_matrix(alg, state, tol))  # r(x y*) = d_y^H (conj G) c_x
    rng = np.random.default_rng(seed)
    shape = (alg.n, samples)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c /= np.linalg.norm(c, axis=0, keepdims=True)
    d /= np.linalg.norm(d, axis=0, keepdims=True)

    worst = _min_slack(g, c, d) if samples else 0.0
    rep.record("schwartz-inequality", [] if worst >= -slack_tol else [{"min_slack": worst}])
    rep.facts["min_slack"] = worst
    rep.facts["samples"] = samples
    return rep


def _min_slack(g: Array, c: Array, d: Array) -> float:
    """The least slack bb aa - |cross|^2 over the columns, with the bits of full-width einsums.

    The slacks are screened with g c and g d and column dots. For unit
    columns each term of either route is off by at most (n^2 + 2n + 4) u
    ||g||_F (u = 2^-53), so one column's two slacks differ by at most
    margin = 16 (n^2 + 2n + 5) u ||g||_F^2, and the column with the least
    einsum slack screens within 2 margin of the screened minimum. The
    three-operand einsums run on the window of columns from the first to the
    last within that reach; each column there gets the bits it gets at full
    width. A one-column window lets the iterator drop the sample axis and sum
    in another order (seen with n = 2), so the window is at least two wide; a
    NaN or an overflow widens it to every column.
    """
    n, samples = c.shape
    # one (n, samples) buffer holds conj(g c), then conj(g d): the column dots
    # take no conjugated copies, and the cross term comes out conjugated
    gx = np.empty_like(c)
    np.conjugate(np.matmul(g, c, out=gx), out=gx)
    aa, cross = np.einsum("jn,jn->n", c, gx).real, np.einsum("jn,jn->n", d, gx)
    np.conjugate(np.matmul(g, d, out=gx), out=gx)
    screen = np.einsum("jn,jn->n", d, gx).real * aa - np.abs(cross) ** 2
    margin = 16 * (n * n + 2 * n + 5) * ROUNDOFF * float(np.vdot(g, g).real)
    near = np.flatnonzero(~(screen > screen.min() + 2 * margin))
    lo = max(0, min(int(near[0]), samples - 2))
    cols = slice(lo, max(int(near[-1]) + 1, min(lo + 2, samples)))
    c, d = c[:, cols], d[:, cols]
    cross = np.einsum("jn,jk,kn->n", np.conj(d), g, c)
    aa = np.real(np.einsum("jn,jk,kn->n", np.conj(c), g, c))
    bb = np.real(np.einsum("jn,jk,kn->n", np.conj(d), g, d))
    return float((bb * aa - np.abs(cross) ** 2).min())


def observable_norm(
    alg: ConcreteStarAlgebra, a: Array, e_index: int, tol: Tolerance
) -> float:
    """Largest |eigenvalue| of a compressed to the range of its support e.

    Requires e among the declared idempotents and e a e = a.
    """
    if e_index not in alg.idempotents and e_index != alg.unit:
        raise DomainError("support index is not a declared idempotent", index=e_index)
    a = as_complex(a)
    e = alg.basis[e_index]
    if not is_hermitian(a, tol):
        raise DomainError("observable must be self-adjoint")
    if screened_op_norm(e @ a @ e - a, tol.eps) > tol.eps:
        raise DomainError("observable is not supported by the idempotent")
    w, u = eig_herm(e)
    cols = np.flatnonzero(np.abs(w - 1.0) <= 0.5)
    q = u[:, cols]
    m = q.conj().T @ a @ q
    vals, _ = eig_herm(m)
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def positive_parts(
    alg: ConcreteStarAlgebra, a: Array, e_index: int, tol: Tolerance
) -> tuple[Array, Array, VerificationReport]:
    """Split a = a+ - a- with a+- = ((a +- e)/2)^2, positive and e-supported."""
    a = as_complex(a)
    e = alg.basis[e_index]
    if not is_hermitian(a, tol):
        raise DomainError("element must be self-adjoint")
    if op_norms_exceed(np.array([e @ a - a, a @ e - a]), tol.eps).any():
        raise DomainError("element is not two-sided supported by the idempotent")
    plus = 0.25 * ((a + e) @ (a + e))
    minus = 0.25 * ((a - e) @ (a - e))
    rep = VerificationReport(subject="positive-parts")
    gap = screened_op_norm(plus - minus - a, tol.eps)
    rep.record("difference-recovers", [] if gap <= tol.eps else [{"defect": gap}])
    names, parts = ("plus", "minus"), np.array([plus, minus])
    lo = np.linalg.eigh(herm(parts))[0][:, 0]
    rep.record("parts-positive", lo < -tol.eps, labelled(names, "part", min_eigenvalue=lo))
    leaks = screened_op_norms(e @ parts @ e - parts, tol.eps)
    rep.record("parts-supported", leaks > tol.eps, labelled(names, "part", defect=leaks))
    return plus, minus, rep
