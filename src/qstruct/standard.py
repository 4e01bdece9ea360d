"""Constructors for the small structures used throughout tests and demos.

Powerset algebras index elements by bitmask, so element i & j is the meet
and submask testing is the order; everything else is built by hand. The
hexagon builder intentionally produces a structure that fails verification:
its difference table is forced by cancellation and still cannot satisfy the
monotonicity axioms, which is exactly what makes it a useful counterexample.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .boolean_rep import BooleanSemiring
from .order import FinitePoset, check_element_count, check_powerset_count
from .ortho import OrthoLogic
from .quasilogic import Quasilogic
from .semilogic import Semilogic

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _mask_label(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def powerset_poset(k: int) -> FinitePoset:
    check_powerset_count(k)  # before 2^k is formed
    n = 1 << k
    masks = np.arange(n)
    le = (masks[:, None] & ~masks[None, :]) == 0
    return FinitePoset([_mask_label(m) for m in range(n)], le)


def powerset_quasilogic(k: int) -> Quasilogic:
    poset = powerset_poset(k)
    b = np.arange(poset.n)[:, None]
    return Quasilogic(poset, np.where(poset.le.T, b & ~b.T, -1))  # [b, a] = b - a


def powerset_logic(k: int) -> OrthoLogic:
    full = (1 << k) - 1
    ql = powerset_quasilogic(k)
    return OrthoLogic(ql.poset, ql.diff, np.arange(1 << k) ^ full)


@lru_cache(maxsize=None)
def powerset_semiring(k: int) -> BooleanSemiring:
    """Subsets of {0..k-1} under intersection; element index == bitmask."""
    poset = powerset_poset(k)  # checks the element count before any table is built
    masks = np.arange(poset.n)
    return BooleanSemiring(poset, masks[:, None] & masks)


def chain_quasilogic(n: int) -> Quasilogic:
    """Totally ordered 0 < a < ... < z < a1 < ... < z1 < a2 < ... < 1 with arithmetic difference."""
    if n < 2:
        raise ValueError("chain needs at least two elements")
    check_element_count(n)  # before anything of size n is allocated
    labels = ["0"] + [f"{_LETTERS[i % 26]}{i // 26 or ''}" for i in range(n - 2)] + ["1"]
    le, ids = np.triu(np.ones((n, n), dtype=bool)), np.arange(n)
    return Quasilogic(FinitePoset(labels, le), np.where(le.T, ids[:, None] - ids, -1))


def _flat_poset(labels: list[str]) -> FinitePoset:
    """0 below everything, 1 above everything, middles incomparable."""
    n = len(labels)
    le = np.eye(n, dtype=bool)
    le[0, :] = True
    le[:, n - 1] = True
    return FinitePoset(labels, le)


def mo2_quasilogic() -> Quasilogic:
    labels = ["0", "a", "a'", "b", "b'", "1"]
    poset = _flat_poset(labels)
    n = 6
    comp = {1: 2, 2: 1, 3: 4, 4: 3, 0: 5, 5: 0}
    diff = np.full((n, n), -1, dtype=np.int16)
    for x in range(n):
        diff[x, 0] = x
        diff[x, x] = 0
        diff[5, x] = comp[x]
    return Quasilogic(poset, diff)


def mo2_logic() -> OrthoLogic:
    ql = mo2_quasilogic()
    neg = np.array([5, 2, 1, 4, 3, 0], dtype=np.int16)
    return OrthoLogic(ql.poset, ql.diff, neg)


def mo2_semilogic() -> Semilogic:
    """Product on comparable and complementary pairs only.

    Extending it to the remaining atom pairs would break additivity:
    b(a + a') = b while ba + ba' would collapse to 0.
    """
    ql = mo2_quasilogic()
    n = 6
    prod = np.full((n, n), -1, dtype=np.int16)
    for x in range(n):
        prod[x, x] = x
        prod[0, x] = prod[x, 0] = 0
        prod[5, x] = prod[x, 5] = x
    for a, b in ((1, 2), (3, 4)):
        prod[a, b] = prod[b, a] = 0
    return Semilogic(ql.poset, prod)


def o6_logic() -> OrthoLogic:
    """Hexagon 0 < a < b' < 1, 0 < b < a' < 1 with a <-> a', b <-> b'.

    Cancellation forces b' - a = a, after which the monotonicity axioms are
    unsatisfiable; verification reports those violations together with the
    relative-distributivity failure at (a, b, b').
    """
    labels = ["0", "a", "b", "a'", "b'", "1"]
    n = 6
    le = np.eye(n, dtype=bool)
    le[0, :] = True
    le[:, 5] = True
    le[1, 4] = True  # a < b'
    le[2, 3] = True  # b < a'
    poset = FinitePoset(labels, le)
    neg = np.array([5, 3, 4, 1, 2, 0], dtype=np.int16)
    diff = np.full((n, n), -1, dtype=np.int16)
    for x in range(n):
        diff[x, 0] = x
        diff[x, x] = 0
        diff[5, x] = neg[x]
    diff[4, 1] = 1
    diff[3, 2] = 2
    return OrthoLogic(poset, diff, neg)


def diamond_semiring() -> BooleanSemiring:
    """Three incomparable middles; a total-product lattice, not distributive."""
    labels = ["0", "x", "y", "z", "1"]
    poset, ids = _flat_poset(labels), np.arange(5)
    # comparable pairs give the lower one, the incomparable middles 0
    prod = np.where(poset.le, ids[:, None], np.where(poset.le.T, ids, 0))
    return BooleanSemiring(poset, prod)


def _permute(k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    n = 1 << k
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)  # new index -> mask
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)  # mask -> new index
    return perm, pos


def shuffled_powerset_logic(k: int, seed: int) -> OrthoLogic:
    """Powerset logic with the element order scrambled; seeds are reproducible."""
    perm, pos = _permute(k, seed)
    labels = [_mask_label(int(m)) for m in perm]
    mi, mj = perm[:, None], perm[None, :]
    le = (mi & ~mj) == 0
    diff = np.where(le.T, pos[mi & ~mj], -1)
    return OrthoLogic(FinitePoset(labels, le), diff, pos[((1 << k) - 1) ^ perm])


def shuffled_powerset_semiring(k: int, seed: int) -> BooleanSemiring:
    perm, pos = _permute(k, seed)
    labels = [_mask_label(int(m)) for m in perm]
    mi, mj = perm[:, None], perm[None, :]
    return BooleanSemiring(FinitePoset(labels, (mi & ~mj) == 0), pos[mi & mj])
