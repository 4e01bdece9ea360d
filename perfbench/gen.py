"""Seeded input generator with expected outcomes known by construction.

Every generator returns plain JSON-ready dicts in the formats of
``qstruct.io_formats`` and never imports ``qstruct``: the expected outcome of
each input follows from how it was built (a shuffled powerset is a boolean
algebra, a horizontal sum of boolean blocks is a logic that is not
distributive, a POVM built from atoms of rank r_i dilates to dimension
sum r_i, ...), so the benchmark checks the verifier against an independent
oracle. The same seed gives byte-identical files.
"""

from __future__ import annotations

import numpy as np


def mask_label(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _covers(k: int, masks: list[int], labels: list[str]) -> list[list[str]]:
    """Cover pairs of a powerset order, listed in the given element order."""
    pos = {m: i for i, m in enumerate(masks)}
    return [
        [labels[i], labels[pos[m | 1 << bit]]]
        for i, m in enumerate(masks)
        for bit in range(k)
        if not m >> bit & 1
    ]


def _shuffled_masks(k: int, rng: np.random.Generator) -> list[int]:
    return [int(m) for m in rng.permutation(1 << k)]


# -- logics ------------------------------------------------------------------------


def powerset_logic(k: int, rng: np.random.Generator) -> dict:
    """Boolean algebra 2^k as an ortho_logic, elements in seeded order."""
    masks = _shuffled_masks(k, rng)
    labels = [mask_label(m) for m in masks]
    full = (1 << k) - 1
    lab = dict(zip(masks, labels))
    return {
        "kind": "ortho_logic",
        "elements": labels,
        "le": _covers(k, masks, labels),
        "diff": [
            [lab[b], lab[a], lab[b & ~a]] for b in masks for a in masks if a & ~b == 0
        ],
        "neg": [[lab[m], lab[full ^ m]] for m in masks],
        "unit": lab[full],
    }


def corrupted_logic(k: int, rng: np.random.Generator) -> dict:
    """2^k logic with one difference entry b - a replaced by b.

    a is a proper subset of b with at least two points and b is below the unit,
    so the broken entry is off every diagonal and every complement lookup, and
    the same eight checks fail whichever pair the seed draws.
    """
    data = powerset_logic(k, rng)
    full = (1 << k) - 1
    while True:
        b = int(rng.integers(1, full))
        a = int(rng.integers(1, full))
        if a & ~b == 0 and a != b and bin(a).count("1") >= 2:
            break
    lb, la = mask_label(b), mask_label(a)
    for entry in data["diff"]:
        if entry[0] == lb and entry[1] == la:
            entry[2] = lb
    return data


def horizontal_sum(blocks: int, k: int, rng: np.random.Generator) -> dict:
    """Boolean blocks 2^k glued at 0 and 1: a logic, neither boolean nor distributive."""
    full = (1 << k) - 1

    def name(block: int, m: int) -> str:
        if m in (0, full):
            return "0" if m == 0 else "1"
        return f"B{block}" + mask_label(m)

    # dicts drop the entries on 0 and 1 that every block repeats
    le: dict[tuple[str, str], None] = {}
    diff: dict[tuple[str, str], str] = {}
    neg: dict[str, str] = {}
    for blk in range(blocks):
        for m in range(full + 1):
            for bit in range(k):
                if not m >> bit & 1:
                    le[name(blk, m), name(blk, m | 1 << bit)] = None
            for a in range(full + 1):
                if a & ~m == 0:
                    diff[name(blk, m), name(blk, a)] = name(blk, m & ~a)
            neg[name(blk, m)] = name(blk, full ^ m)
    labels = list(neg)
    labels = [labels[i] for i in rng.permutation(len(labels))]
    return {
        "kind": "ortho_logic",
        "elements": labels,
        "le": [list(p) for p in le],
        "diff": [[b, a, d] for (b, a), d in diff.items()],
        "neg": [[a, na] for a, na in neg.items()],
        "unit": "1",
    }


# -- semirings ---------------------------------------------------------------------


def powerset_semiring(k: int, rng: np.random.Generator) -> dict:
    """Subsets of k points under intersection, elements in seeded order."""
    masks = _shuffled_masks(k, rng)
    labels = [mask_label(m) for m in masks]
    lab = dict(zip(masks, labels))
    n = len(masks)
    return {
        "kind": "boolean_semiring",
        "elements": labels,
        "le": _covers(k, masks, labels),
        "prod": [
            [labels[i], labels[j], lab[masks[i] & masks[j]]]
            for i in range(n)
            for j in range(i, n)
        ],
        "unit": lab[(1 << k) - 1],
    }


def zeroed_product_semiring(k: int, rng: np.random.Generator) -> dict:
    """2^k semiring with one product a*b of overlapping incomparable sets set to 0."""
    data = powerset_semiring(k, rng)
    full = (1 << k) - 1
    while True:
        a = int(rng.integers(1, full))
        b = int(rng.integers(1, full))
        if a & b and a & ~b and b & ~a:
            break
    pair = {mask_label(a), mask_label(b)}
    for entry in data["prod"]:
        if {entry[0], entry[1]} == pair:
            entry[2] = mask_label(0)
    return data


def diamond_semiring() -> dict:
    """0 < x, y, z < 1 with xy = yz = xz = 0: a total product, not distributive."""
    mids = ["x", "y", "z"]
    elements = ["0", *mids, "1"]
    prod = [["0", e, "0"] for e in elements]
    prod += [[m, m, m] for m in mids] + [[m, "1", m] for m in mids] + [["1", "1", "1"]]
    prod += [["x", "y", "0"], ["x", "z", "0"], ["y", "z", "0"]]
    return {
        "kind": "boolean_semiring",
        "elements": elements,
        "le": [["0", m] for m in mids] + [[m, "1"] for m in mids],
        "prod": prod,
        "unit": "1",
    }


def atom_distribution(k: int, rng: np.random.Generator) -> dict:
    """Distribution on 2^k adding up seeded atom weights; total mass 1."""
    w = rng.random(k) + 0.5
    w /= w.sum()
    return {
        "values": {
            mask_label(m): float(sum(w[i] for i in range(k) if m >> i & 1))
            for m in range(1 << k)
        }
    }


# -- operator inputs ---------------------------------------------------------------


def _flat(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _inv_sqrt(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v / np.sqrt(w)) @ v.conj().T


def povm_atoms(k: int, d: int, rng: np.random.Generator) -> tuple[list[np.ndarray], int]:
    """k atom effects summing to the identity on C^d, and their total rank.

    Atom i is S^-1/2 G_i G_i* S^-1/2 with G_i a d x r_i Gaussian and S the sum
    of the G_i G_i*, so its rank is r_i; the minimal Naimark dimension is the
    sum of the r_i. The ranks r_i = 1 + i mod d are fixed, because the cost of
    a dilation grows with that dimension; only the matrices follow the seed.
    Draws whose nonzero eigenvalues come near the rank cutoff are redrawn, so
    the rank oracle is unambiguous.
    """
    ranks = [1 + i % d for i in range(k)]
    while True:
        gs = [_ginibre(rng, d, r) for r in ranks]
        s_half = _inv_sqrt(sum(g @ g.conj().T for g in gs))
        atoms = [s_half @ g @ g.conj().T @ s_half for g in gs]
        atoms = [(a + a.conj().T) / 2 for a in atoms]
        if all(np.linalg.eigvalsh(a)[-r] > 1e-3 for a, r in zip(atoms, ranks)):
            return atoms, sum(ranks)


def povm_outcomes(atoms: list[np.ndarray], d: int, scale: float = 1.0) -> dict:
    names = [f"o{i}" for i in range(len(atoms))]
    return {
        "kind": "povm",
        "dim": d,
        "outcomes": names,
        "effects": {n: _flat(scale * a) for n, a in zip(names, atoms)},
    }


def povm_inline(atoms: list[np.ndarray], d: int, rng: np.random.Generator) -> dict:
    """The same measure over an inline, shuffled 2^k semiring: one effect per element."""
    k = len(atoms)
    semiring = powerset_semiring(k, rng)
    effects = {}
    for m in range(1 << k):
        total = np.zeros((d, d), dtype=complex)
        for i in range(k):
            if m >> i & 1:
                total = total + atoms[i]
        effects[mask_label(m)] = _flat(total)
    return {"kind": "povm", "dim": d, "semiring": semiring, "effects": effects}


def matrix_unit_algebra(d: int, rank: int, rng: np.random.Generator) -> dict:
    """M_d spanned by I and the E_ij other than E_00, with a density of the given rank.

    The GNS space of a rank-r density on M_d has dimension d * r.
    """
    basis = {"I": np.eye(d)}
    idem = ["I"]
    for i in range(d):
        for j in range(d):
            if i or j:
                e = np.zeros((d, d))
                e[i, j] = 1.0
                basis[f"E{i}_{j}"] = e
                if i == j:
                    idem.append(f"E{i}_{j}")
    q, _ = np.linalg.qr(_ginibre(rng, d, rank))
    p = rng.random(rank) + 0.5
    p /= p.sum()
    rho = (q[:, :rank] * p) @ q[:, :rank].conj().T
    return {
        "kind": "star_algebra",
        "dim": d,
        "basis": {lab: _flat(m) for lab, m in basis.items()},
        "idempotents": idem,
        "unit": "I",
        "state": [
            [float(np.trace(rho @ m).real), float(np.trace(rho @ m).imag)]
            for m in basis.values()
        ],
    }


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_diagonal_clan(d: int, rng: np.random.Generator) -> dict:
    """All 2^d coordinate projections of C^d, rotated by one seeded unitary.

    A boolean clan: distributive, and the zero-meet/zero-product criterion holds.
    """
    u = _haar_unitary(d, rng)
    members = [
        u @ np.diag([float(m >> i & 1) for i in range(d)]) @ u.conj().T
        for m in range(1 << d)
    ]
    xi = _ginibre(rng, d, 1).reshape(-1)
    return {
        "dim": d,
        "members": [_flat(m) for m in members],
        "vector": _flat(xi / np.linalg.norm(xi)),
    }


def mo_clan(n: int, rng: np.random.Generator) -> dict:
    """0, I and n complementary pairs of rank-1 projections on C^2 (MO_n).

    Distinct lines meet in 0 and join to I, so the lattice is not distributive
    and the criterion fails on a pair of lines that do not commute.
    """
    angles = (np.arange(n) + rng.random(n) * 0.5) * (np.pi / (2 * n))
    phases = rng.random(n) * 2 * np.pi
    members = [np.zeros((2, 2)), np.eye(2)]
    for t, ph in zip(angles, phases):
        v = np.array([np.cos(t), np.exp(1j * ph) * np.sin(t)])
        p = np.outer(v, v.conj())
        members += [p, np.eye(2) - p]
    xi = _ginibre(rng, 2, 1).reshape(-1)
    return {
        "dim": 2,
        "members": [_flat(m) for m in members],
        "vector": _flat(xi / np.linalg.norm(xi)),
    }
