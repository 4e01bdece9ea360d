from pathlib import Path

import numpy as np
import pytest

import qstruct.report
from qstruct import (
    Clan,
    FinitePoset,
    OrthoLogic,
    QstructError,
    Quasilogic,
    Semilogic,
    StructuralError,
    join_of,
    load_structure,
    parse_structure,
    powerset_logic,
    shuffled_powerset_logic,
)
from qstruct.matrix_core import screened_op_norms

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def valid_dir() -> Path:
    return FIXTURES / "valid"


@pytest.fixture(scope="session")
def mutants_dir() -> Path:
    return FIXTURES / "mutants"


@pytest.fixture
def all_witnesses(monkeypatch):
    """Lift the report's witness cap so whole witness lists can be compared."""
    monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", 10**6)


# -- logic corpora for the table-kernel oracles ------------------------------


def horizontal_sum(blocks, k):
    """Boolean blocks 2^k glued at 0 and 1: a logic, neither boolean nor distributive."""
    full = (1 << k) - 1

    def name(block, m):
        return "0" if m == 0 else "1" if m == full else f"B{block}:{m}"

    le, diff, neg = set(), {}, {}
    for blk in range(blocks):
        for m in range(full + 1):
            for a in range(full + 1):
                if a & ~m == 0:
                    le.add((name(blk, a), name(blk, m)))
                    diff[name(blk, m), name(blk, a)] = name(blk, m & ~a)
            neg[name(blk, m)] = name(blk, full ^ m)
    return parse_structure(
        {
            "kind": "ortho_logic",
            "elements": list(neg),
            "le": [list(p) for p in sorted(le)],
            "diff": [[b, a, d] for (b, a), d in diff.items()],
            "neg": [[a, na] for a, na in neg.items()],
            "unit": "1",
        }
    )


def shuffled_difference_logic(k, seed):
    """The powerset logic 2^k with its difference values permuted: most axioms fail many times."""
    logic = powerset_logic(k)
    diff = logic.diff.copy()
    cells = np.nonzero(diff >= 0)
    diff[cells] = np.random.default_rng(seed).permutation(diff[cells])
    return OrthoLogic(logic.poset, diff, logic.neg)


def permuted(q, rng):
    """``q`` with its element ids shuffled: the same structure in another row-major order."""
    perm = rng.permutation(q.n)
    new_id = np.argsort(perm)
    poset = FinitePoset([q.labels[i] for i in perm], q.poset.le[np.ix_(perm, perm)])
    d = q.diff[np.ix_(perm, perm)]
    diff = np.where(d >= 0, new_id[d], -1)
    if isinstance(q, OrthoLogic):
        return OrthoLogic(poset, diff, new_id[q.neg[perm]])
    return Quasilogic(poset, diff)


def corrupted_logic(k, seed):
    """The shuffled powerset logic 2^k with one b - a set to b, a a nonzero proper subset of b."""
    logic = shuffled_powerset_logic(k, seed)
    ids, rng = np.arange(logic.n), np.random.default_rng(seed)
    changes = logic.poset.le.T & (ids[:, None] != ids) & (logic.diff != ids[:, None])
    b, a = rng.choice(np.argwhere(changes))
    diff = logic.diff.copy()
    diff[b, a] = b
    return OrthoLogic(logic.poset, diff, logic.neg)


def random_order(rng, n, density=0.35):
    """Transitive closure of a random DAG on n elements, in shuffled element order."""
    le = np.triu(rng.random((n, n)) < density, 1) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # each squaring doubles the path length closed
        le |= (le.astype(np.uint8) @ le.astype(np.uint8)) > 0
    perm = rng.permutation(n)
    return le[np.ix_(perm, perm)]


def random_difference(rng, le, density):
    """Values on a random share of the comparable pairs, -1 elsewhere."""
    n = le.shape[0]
    keep = le.T & (rng.random((n, n)) < density)
    return np.where(keep, rng.integers(0, n, size=(n, n)), -1).astype(np.int16)


def random_logics(count, seed):
    """Seeded orders with a top and a random involution; many meets and joins are missing.

    Half of them also get a bottom. The difference table is random, so only the
    order-theoretic checks mean anything on them.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 11))
        le = np.zeros((n, n), dtype=bool)
        le[: n - 1, : n - 1] = random_order(rng, n - 1)
        le[:, n - 1] = True
        if rng.random() < 0.5:
            le[0, :] = True
        perm = rng.permutation(n)
        neg = np.arange(n)
        pairs = rng.permutation(n)[: 2 * int(rng.integers(0, n // 2 + 1))]
        neg[pairs[0::2]], neg[pairs[1::2]] = pairs[1::2], pairs[0::2]
        le, neg = le[np.ix_(perm, perm)], np.argsort(perm)[neg[perm]]
        poset = FinitePoset([f"e{i}" for i in range(n)], le)
        yield OrthoLogic(poset, random_difference(rng, le, 0.5), neg)


def fixture_structures(kinds):
    """Every fixture file, valid or mutant, that loads as one of ``kinds``."""
    out = []
    for path in sorted(FIXTURES.glob("*/*.json")):
        try:
            obj = load_structure(path)
        except QstructError:
            continue
        if isinstance(obj, kinds):
            out.append(obj)
    return out


# -- semilogic corpora: flat ones and horizontal sums ----------------------------


def semilogic_on(labels, covers, prod=None):
    """The order generated by ``covers``, with the meet as product unless given."""
    le = np.eye(len(labels), dtype=bool)
    for a, b in covers:
        le[a, b] = True
    for _ in range(len(labels)):
        le |= (le.astype(int) @ le.astype(int)) > 0
    poset = FinitePoset(labels, le)
    return Semilogic(poset, poset.meet_table() if prod is None else prod)


def flat_semilogic(k):
    """0, 1 and k atoms, distinct atoms orthogonal: 2^k orthogonal families."""
    covers = [(0, 1)] + [cover for i in range(2, k + 2) for cover in ((0, i), (i, 1))]
    return semilogic_on(["0", "1", *(f"a{i}" for i in range(k))], covers)


def structure_file(s):
    """A semilogic as the JSON object of its file."""
    return {
        "kind": "semilogic",
        "elements": list(s.labels),
        "le": [[s.labels[a], s.labels[b]] for a, b in zip(*np.nonzero(s.poset.le))],
        "prod": [
            [s.labels[a], s.labels[b], s.labels[s.prod[a, b]]]
            for a, b in zip(*np.nonzero(np.triu(s.prod >= 0)))
        ],
    }


def horizontal_sum_semilogic(blocks, k):
    """Boolean blocks 2^k glued at 0 and 1, the meet as product: a non-distributive lattice."""
    full, labels, ids = (1 << k) - 1, ["0", "1"], {}
    for blk in range(blocks):
        for m in range(1, full):
            ids[blk, m] = len(labels)
            labels.append(f"B{blk}:{m}")
    covers = [(0, i) for i in ids.values()] + [(i, 1) for i in ids.values()]
    covers += [
        (i, j) for (b, m), i in ids.items() for (c, w), j in ids.items()
        if b == c and m != w and m & ~w == 0
    ]
    return semilogic_on(labels, covers)


# -- the family walk that the level-wise family table replaced ----------------


def oracle_orthogonal_families(elems, orth, up=None, cap=None):
    """Nonempty pairwise-orthogonal subsets of ``elems``, in depth-first order.

    Each family comes with the AND of ``up`` over its members (-1 without
    ``up``). Reaching ``cap`` families and finding one more raises
    StructuralError.
    """
    out = []
    stack = [((), list(elems), -1)]
    while stack:
        cur, cands, acc = stack.pop()
        for k, x in enumerate(cands):
            if cap is not None and len(out) >= cap:
                raise StructuralError("orthogonal family count exceeds enumeration cap")
            fam = cur + (x,)
            fam_acc = acc if up is None else acc & up[x]
            out.append((fam, fam_acc))
            rest = [y for y in cands[k + 1 :] if orth[x, y]]
            if rest:
                stack.append((fam, rest, fam_acc))
    return out


def oracle_all_orthogonal_families(s, cap=200_000):
    """Every (family, sup) of a semilogic in walk order, the sup by a bound lookup (-1: none)."""
    z = s.zero()
    if z is None:
        return []
    ups = s.poset.upsets()
    elems = [i for i in range(s.n) if i != z]
    fams = oracle_orthogonal_families(elems, s.prod == z, ups.up, cap - 1)
    out = []
    for fam, acc in [((), ups.top), *fams]:
        sup = ups.bound_of(acc)
        out.append((fam, sup if sup is not None else -1))
    return out


def oracle_summable_families(s):
    fams = [(f, v) for f, v in oracle_all_orthogonal_families(s) if v >= 0]
    fams.sort(key=lambda fv: (len(fv[0]), fv[0]))
    return fams


def oracle_family_residuals(values, families, eps=0.0):
    """The padded residual loop: families of mixed sizes in blocks of 256."""
    values = np.asarray(values)
    n = values.shape[0]
    padded = np.zeros((n + 1, *values.shape[1:]), dtype=values.dtype)
    padded[:n] = values
    out = np.empty(len(families))
    for lo in range(0, len(families), 256):
        block = families[lo : lo + 256]
        sizes = np.array([len(fam) for fam, _ in block])
        members = np.full((len(block), sizes.max()), n)
        members[np.arange(sizes.max()) < sizes[:, None]] = [x for fam, _ in block for x in fam]
        total = np.zeros((len(block), *values.shape[1:]), dtype=values.dtype)
        for col in members.T:
            total = total + padded[col]
        residual = padded[[sup for _, sup in block]] - total
        out[lo : lo + len(block)] = (
            residual if values.ndim == 1 else screened_op_norms(residual, eps)
        )
    return out


# -- the homomorphism loops that the sum table and the image-sum kernel replaced ---


def oracle_quasilogic_families(q, cap=200_000):
    """Subsets with an iterated partial sum, depth first, each with its sum.

    Reaching ``cap`` families and finding one more raises StructuralError.
    """
    z = q.zero()
    if z is None:
        return []
    value = q._sum_info().value  # -1 exactly where partial_sum fails
    out = [((), z)]
    stack = [((), z, 0)]
    while stack:
        fam, acc, start = stack.pop()
        for x in range(start, q.n):
            new_acc = -1 if x == z else int(value[acc, x])
            if new_acc < 0:
                continue
            new_fam = fam + (x,)
            if len(out) >= cap:
                raise StructuralError("summable family count exceeds enumeration cap")
            out.append((new_fam, new_acc))
            stack.append((new_fam, new_acc, x + 1))
    return out


def oracle_image_sum(t, images):
    """The sum of a family of images in ``t``, or None: one family at a time."""
    z = t.zero()
    if z is None:
        return None
    items = [x for x in images if x != z]
    if isinstance(t, Semilogic):
        if len(set(items)) != len(items):
            return None
        for i, p in enumerate(items):
            for q in items[i + 1 :]:
                if t.prod[p, q] != z:
                    return None
        return join_of(t.poset, items)
    value, acc = t._sum_info().value, z
    for x in items:
        acc = int(value[acc, x])
        if acc < 0:
            return None
    return acc


# -- operator corpora for the additivity oracles --------------------------------


def oracle_op_norm(a):
    """The one-matrix spectral norm that ``op_norm`` computed before ``op_norms``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    w, _ = np.linalg.eigh(a.conj().T @ a)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


def random_povm(outcomes, dim, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(outcomes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(a @ a.conj().T)
    total = sum(mats)
    w, u = np.linalg.eigh(total)
    root = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    return [root @ m @ root for m in mats]


def diagonal_clan(d):
    members, labels = [], []
    for mask in range(1 << d):
        members.append(np.diag([float(mask >> i & 1) for i in range(d)]))
        labels.append(f"D{mask}")
    return Clan(members, labels)


def rotated_diagonal_clan(d, seed):
    """The 2^d coordinate projections of C^d turned by one seeded unitary; member i has mask i."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    masks = [np.diag([float(m >> i & 1) for i in range(d)]) for m in range(1 << d)]
    return Clan([u @ m @ u.conj().T for m in masks])


def crossed_clan():
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    members = [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), plus, minus, np.eye(2)]
    return Clan(members, ["0", "z+", "z-", "x+", "x-", "1"])


def mo_clan(n):
    """0, 1 and n pairs of complementary lines in R^2: the lattice MO_n."""
    members, labels = [np.zeros((2, 2)), np.eye(2)], ["0", "1"]
    for k in range(n):
        t = k * np.pi / (2 * n)
        v = np.array([np.cos(t), np.sin(t)])
        members += [np.outer(v, v), np.eye(2) - np.outer(v, v)]
        labels += [f"L{k}", f"L{k}'"]
    return Clan(members, labels)


def skewed_clan(s):
    """0, 1, three lines of R^3 at pairwise overlap s, and the planes they span.

    At eps just above s the lines count as orthogonal and the clan is closed,
    but P1 + P2 + P3 misses the unit by 2s in operator norm.
    """
    gram = (1 - s) * np.eye(3) + s
    w, u = np.linalg.eigh(gram)
    vecs = u @ np.diag(np.sqrt(w)) @ u.T  # rows have inner products gram
    lines = [np.outer(v, v) for v in vecs]
    planes = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        q, _ = np.linalg.qr(np.stack([vecs[i], vecs[j]], axis=1))
        planes.append(q @ q.T)
    labels = ["0", "P1", "P2", "P3", "P12", "P13", "P23", "1"]
    return Clan([np.zeros((3, 3)), *lines, *planes, np.eye(3)], labels)
