from pathlib import Path

import numpy as np
import pytest

import qstruct.report
from qstruct import (
    FinitePoset,
    OrthoLogic,
    QstructError,
    Quasilogic,
    load_structure,
    parse_structure,
)

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


def random_order(rng, n):
    """Transitive closure of a random DAG on n elements, in shuffled element order."""
    le = np.triu(rng.random((n, n)) < 0.35, 1) | np.eye(n, dtype=bool)
    for _ in range(n):
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
        yield OrthoLogic(Quasilogic(poset, random_difference(rng, le, 0.5)), neg)


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
