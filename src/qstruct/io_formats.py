"""JSON formats for structures, operator measures and algebras.

Order files list `le` pairs (covers or any pairs of the order; the
reflexive-transitive closure is taken at parse time), difference tables as
[b, a, b-a] triples, products as [a, b, ab] triples and complements as
[a, ~a] pairs. Matrices are flat row-major lists of [re, im] pairs, dim^2 of
them.

ParseError marks input that does not describe a structure at all: bad JSON,
unknown labels, order cycles, conflicting duplicate entries. Structures that
parse but break axioms are left for the verifiers to report.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from functools import reduce
from importlib import import_module
from itertools import accumulate, chain
from operator import or_
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import ParseError, StructuralError
from .order import MAX_DIM, MAX_SPACE, FinitePoset, check_element_count, check_powerset_count
from .order import preorder_closure, transitive_reduction

# a module is imported where a file needs it: checking a structure file loads
# neither gns nor naimark, and an operator file loads only its structure kinds
if TYPE_CHECKING:
    from .gns import AlgebraState, ConcreteStarAlgebra
    from .naimark import FinitePovm
    from .quasilogic import Quasilogic
    from .semilogic import DistributionTable, Semilogic

    Structure = FinitePoset | Quasilogic | Semilogic

# file kind -> (module, class, its verifier in that module, the tables its file
# lists), each after the kinds it extends
KINDS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "poset": ("order", "FinitePoset", "verify_poset", ()),
    "quasilogic": ("quasilogic", "Quasilogic", "verify_quasilogic", ("diff",)),
    "semilogic": ("semilogic", "Semilogic", "verify_semilogic", ("prod",)),
    "ortho_logic": ("ortho", "OrthoLogic", "verify_logic", ("diff", "neg")),
    "boolean_semiring": ("boolean_rep", "BooleanSemiring", "verify_semiring", ("prod",)),
}


def kind_of(obj: Any) -> str | None:
    """The most derived kind of ``obj``; a kind whose module is not loaded has no instances."""
    for kind, (module, name, _, _) in reversed(KINDS.items()):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(obj, getattr(loaded, name)):
            return kind
    return None


def _require(cond: bool, message: str, **details):
    if not cond:
        raise ParseError(message, **details)


def _finite_real(x: Any) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, an infinity or past float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _require_distinct(labels: list, what: str) -> None:
    dup = [e for e, count in Counter(labels).items() if count > 1]
    _require(not dup, f"duplicate {what} label", label=min(dup) if dup else None)


def _labels(data: dict) -> tuple[list[str], dict[str, int]]:
    elements = data.get("elements")
    _require(isinstance(elements, list) and elements, "elements must be a nonempty list")
    _require(
        all(isinstance(e, str) and e for e in elements),
        "element labels must be nonempty strings",
    )
    check_element_count(len(elements))  # before the n x n order closure
    _require_distinct(elements, "element")
    return list(elements), {e: i for i, e in enumerate(elements)}


def _lookup(idx: dict[str, int], label: Any, where: str) -> int:
    if not isinstance(label, str):
        raise ParseError(f"{where}: labels must be strings", got=repr(label))
    if label not in idx:
        raise ParseError(f"{where}: unknown label", label=label)
    return idx[label]


def _label_ids(
    idx: dict[str, int], entries: list, where: str, shape: str, width: int
) -> tuple[np.ndarray, ParseError | None]:
    """The (m, width) int16 ids of ``entries``, lists of ``width`` labels, and the first bad one's error.

    One C-level pass checks entry types and lengths and one ``np.fromiter``
    maps the labels. Only a list with a bad entry is walked with ``_lookup``;
    the ids then stop before it, and its error is left for the caller to raise.
    """
    # list.__len__ raises TypeError on a non-list; labels are str keys, so any
    # other label misses (KeyError) or is unhashable (TypeError)
    try:
        if set(map(list.__len__, entries)) - {width}:
            raise KeyError
        flat = map(idx.__getitem__, chain.from_iterable(entries))
        return np.fromiter(flat, np.int16, len(entries) * width).reshape(-1, width), None
    except (KeyError, TypeError):
        ids, bad = [], None
        for k, e in enumerate(entries):
            try:
                if not (isinstance(e, list) and len(e) == width):
                    raise ParseError(f"{where} entries are {shape}", entry=k)
                ids += [_lookup(idx, x, where) for x in e]  # whole entries only
            except ParseError as exc:
                bad = exc
                break
        return np.array(ids, dtype=np.int16).reshape(-1, width), bad


def _write_once(
    shape: tuple[int, ...], writes: list[tuple[np.ndarray, ...]], v: np.ndarray
) -> tuple[np.ndarray, tuple[int, list[int]] | None]:
    """A -1-filled int16 array with ``v[k]`` written at ``at[k]`` for each index tuple ``at``.

    With it comes None, or, if a cell was given two values (it then reads back
    wrong somewhere), the first entry whose write met another value and the two.
    """
    table = np.full(shape, -1, dtype=np.int16)
    for at in writes:
        table[at] = v
    if all((table[at] == v).all() for at in writes):
        return table, None
    # entry k makes writes k * len(writes) + d; each cell holds its first value
    cells = np.stack([np.ravel_multi_index(at, shape) for at in writes], axis=1).ravel()
    _, first, cell = np.unique(cells, return_index=True, return_inverse=True)
    vals = v.repeat(len(writes))
    held = vals[first][cell]
    w = int(np.flatnonzero(held != vals)[0])
    return table, (w // len(writes), sorted({int(held[w]), int(vals[w])}))


def _upsets(rel: np.ndarray) -> list[int] | None:
    """Each element's upset in the closure of ``rel`` (no loops) as an int bitset; None on a cycle.

    An upset is the element's own bit ORed with the upsets of the elements
    listed above it (the upset-bitset encoding of Ait-Kaci, Boyer, Lincoln and
    Nasr, TOPLAS 11(1), 1989), taken sinks first along a topological order.
    The walk stalls short of n elements exactly when ``rel`` has a cycle.
    """
    n = len(rel)
    # above[s[b] : s[b + 1]] are the elements listed above b, below[p[b] : p[b + 1]] below it
    above, below = np.nonzero(rel)[1].tolist(), np.nonzero(rel.T)[1].tolist()
    waits = rel.sum(axis=1).tolist()  # elements listed above each one and not yet closed
    s = [0, *accumulate(waits)]
    p = [0, *accumulate(rel.sum(axis=0).tolist())]
    up = [0] * n
    ready = [a for a in range(n) if not waits[a]]
    for b in ready:  # grows while it is walked
        up[b] = reduce(or_, map(up.__getitem__, above[s[b] : s[b + 1]]), 1 << b)
        for a in below[p[b] : p[b + 1]]:
            waits[a] -= 1
            if not waits[a]:
                ready.append(a)
    return up if len(ready) == n else None


def _closed_order(labels: list[str], idx: dict[str, int], pairs: Any) -> np.ndarray:
    """The reflexive-transitive closure of the listed pairs, unpacked once from ``_upsets``.

    Only a cycle is closed by ``preorder_closure``, to name its first pair.
    """
    n = len(labels)
    _require(isinstance(pairs, list), "le must be a list of [below, above] pairs")
    ids, bad = _label_ids(idx, pairs, "le", "[below, above] pairs", 2)
    if bad is not None:
        raise bad
    rel = np.zeros((n, n), dtype=bool)
    rel[ids[:, 0], ids[:, 1]] = True
    np.fill_diagonal(rel, False)
    up = _upsets(rel)
    if up is None:
        le = preorder_closure(rel)
        a, b = (int(x) for x in np.argwhere(le & le.T & ~np.eye(n, dtype=bool))[0])
        raise ParseError("order contains a cycle", between=[labels[a], labels[b]])
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(u.to_bytes(width, "little") for u in up), dtype=np.uint8)
    bits = rows.reshape(n, width, 1) >> np.arange(8, dtype=np.uint8) & 1
    return bits.reshape(n, -1)[:, :n].astype(bool)


def _table_from_triples(
    idx: dict[str, int], triples: Any, where: str, symmetric: bool
) -> np.ndarray:
    """An n x n int16 table, -1 where no triple [a, b, v] sets [a, b] (and [b, a]).

    A conflicting duplicate before the first malformed triple is named first,
    so the error names the first offending triple in file order.
    """
    n = len(idx)
    _require(isinstance(triples, list), f"{where} must be a list of triples")
    ids, bad = _label_ids(idx, triples, where, "triples", 3)
    i, j, v = ids.T
    table, clash = _write_once((n, n), [(i, j), (j, i)] if symmetric else [(i, j)], v)
    if clash is not None:
        k, values = clash
        raise ParseError(
            f"{where}: conflicting duplicate entries", pair=triples[k][:2], values=values
        )
    if bad is not None:
        raise bad
    return table


def _neg_from_pairs(idx: dict[str, int], pairs: Any) -> np.ndarray:
    _require(isinstance(pairs, list), "neg must be a list of [a, complement] pairs")
    ids, bad = _label_ids(idx, pairs, "neg", "pairs", 2)
    neg, clash = _write_once((len(idx),), [(ids[:, 0],)], ids[:, 1])
    if clash is not None:
        raise ParseError("neg: conflicting duplicate entries", label=pairs[clash[0]][0])
    if bad is not None:
        raise bad
    return neg


def parse_structure(data: Any) -> Structure:
    _require(isinstance(data, dict), "structure file must be a JSON object")
    kind = data.get("kind")
    _require(
        isinstance(kind, str) and kind in KINDS,
        "unknown kind",
        kind=kind,
        expected=list(KINDS),
    )
    labels, idx = _labels(data)
    poset = FinitePoset(labels, _closed_order(labels, idx, data.get("le", [])))

    unit = data.get("unit")
    if unit is not None:
        u = _lookup(idx, unit, "unit")
        g = poset.greatest()
        if g != u:
            raise ParseError("declared unit is not the greatest element", unit=unit)

    if kind == "poset":
        return poset
    module, name, _, names = KINDS[kind]
    tables = [
        _neg_from_pairs(idx, data.get(t, []))
        if t == "neg"
        else _table_from_triples(idx, data.get(t, []), t, symmetric=t == "prod")
        for t in names
    ]
    return getattr(import_module(f".{module}", __package__), name)(poset, *tables)


def serialize_structure(obj: Structure) -> dict:
    kind = kind_of(obj)
    if kind is None:
        raise TypeError(f"not a serializable structure: {type(obj).__name__}")

    names = KINDS[kind][3]
    poset = obj if isinstance(obj, FinitePoset) else obj.poset
    labels = poset.labels
    out: dict[str, Any] = {
        "kind": kind,
        "elements": list(labels),
        "le": [[a, b] for a, b in transitive_reduction(poset)],
    }
    for t in ("diff", "prod"):  # defined cells as triples, row-major; prod's upper triangle
        if t in names:
            table = getattr(obj, t)
            cells = np.nonzero(np.triu(table >= 0) if t == "prod" else table >= 0)
            out[t] = [[labels[x], labels[y], labels[table[x, y]]] for x, y in zip(*cells)]
    if "neg" in names:
        out["neg"] = [[labels[a], labels[int(obj.neg[a])]] for a in range(poset.n)]
        out["unit"] = labels[obj.top]
    if kind == "boolean_semiring" and obj.unit() is not None:
        out["unit"] = labels[obj.unit()]
    return out


def structures_equal(x: Structure, y: Structure) -> bool:
    """Same kind, labels and tables; the round-trip identity tests live on this."""
    if type(x) is not type(y):
        return False
    px = x if isinstance(x, FinitePoset) else x.poset
    py = y if isinstance(y, FinitePoset) else y.poset
    return (
        px.labels == py.labels
        and np.array_equal(px.le, py.le)
        and all(
            np.array_equal(getattr(x, t), getattr(y, t))
            for t in ("diff", "prod", "neg")
            if hasattr(x, t)
        )
    )


# -- matrices -------------------------------------------------------------------


def _complex_pairs(pairs: list, message: str) -> np.ndarray:
    """[re, im] number pairs as a flat complex128 array, read whole when every pair is sound.

    An int past float range raises ``OverflowError`` in ``np.fromiter``; a
    list with a bad pair is read pair by pair, and the first bad pair is named.
    """
    try:  # list.__len__ raises TypeError on a non-list
        sound = set(map(list.__len__, pairs)) <= {2}
        if sound and set(map(type, chain.from_iterable(pairs))) <= {float, int}:
            parts = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs))
            if np.isfinite(parts).all():
                return parts.view(np.complex128)
    except (TypeError, OverflowError):
        pass
    flat = np.empty(len(pairs), dtype=np.complex128)
    for k, e in enumerate(pairs):
        _require(
            isinstance(e, list) and len(e) == 2 and all(_finite_real(x) for x in e),
            message,
            entry=k,
        )
        flat[k] = complex(e[0], e[1])
    return flat


def matrix_from_json(entries: Any, dim: int, where: str) -> np.ndarray:
    _require(isinstance(entries, list), f"{where}: matrix must be a list of [re, im] pairs")
    _require(
        len(entries) == dim * dim,
        f"{where}: expected dim^2 entries",
        expected=dim * dim,
        got=len(entries),
    )
    return _complex_pairs(entries, f"{where}: entries are [re, im] number pairs").reshape(dim, dim)


def matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=np.complex128).reshape(-1)]


# -- operator measures ------------------------------------------------------------


def _check_operator_size(n: int, dim: int) -> None:
    """Bound an operator input by its element count and dimension, before any matrix is read."""
    check_element_count(n)
    if dim > MAX_DIM:
        raise StructuralError(f"dim too large ({dim} > {MAX_DIM})")
    if n * dim > MAX_SPACE:
        raise StructuralError(
            f"operator space too large ({n} elements x dim {dim} > {MAX_SPACE})"
        )


def parse_povm(data: Any, base_dir: Path | None = None) -> FinitePovm:
    from .naimark import FinitePovm, povm_from_outcomes

    _require(isinstance(data, dict), "measure file must be a JSON object")
    _require(data.get("kind") == "povm", "kind must be 'povm'", kind=data.get("kind"))
    dim = data.get("dim")
    _require(type(dim) is int and dim >= 1, "dim must be a positive integer")
    effects = data.get("effects")
    _require(isinstance(effects, dict), "effects must map labels to matrices")

    if "outcomes" in data:
        outcomes = data["outcomes"]
        _require(
            isinstance(outcomes, list) and outcomes and all(isinstance(o, str) for o in outcomes),
            "outcomes must be a nonempty list of labels",
        )
        _require_distinct(outcomes, "outcome")
        _require(
            set(effects) == set(outcomes),
            "effects must cover exactly the outcomes",
            missing=sorted(set(outcomes) - set(effects)),
            extra=sorted(set(effects) - set(outcomes)),
        )
        check_powerset_count(len(outcomes))  # before 1 << k is formed
        _check_operator_size(1 << len(outcomes), dim)
        atoms = [matrix_from_json(effects[o], dim, f"effects[{o}]") for o in outcomes]
        return povm_from_outcomes(atoms, dim)

    if "semiring" in data:
        semiring = parse_structure(data["semiring"])
    else:
        ref = data.get("semiring_file")
        _require(
            isinstance(ref, str),
            "measure needs outcomes, an inline semiring, or a semiring_file reference",
        )
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        semiring = load_structure(path)
    _require(
        kind_of(semiring) == "boolean_semiring",
        "semiring_file must contain a boolean_semiring",
        kind=type(semiring).__name__,
    )
    _require(
        set(effects) == set(semiring.labels),
        "effects must cover exactly the semiring elements",
        missing=sorted(set(semiring.labels) - set(effects)),
        extra=sorted(set(effects) - set(semiring.labels)),
    )
    _check_operator_size(semiring.n, dim)
    mats = [matrix_from_json(effects[lab], dim, f"effects[{lab}]") for lab in semiring.labels]
    return FinitePovm(semiring, mats, dim)


def serialize_povm(povm: FinitePovm) -> dict:
    return {
        "kind": "povm",
        "dim": povm.dim,
        "semiring": serialize_structure(povm.semiring),
        "effects": {
            lab: matrix_to_json(e) for lab, e in zip(povm.semiring.labels, povm.effects)
        },
    }


def serialize_dilation(dil) -> dict:
    return {
        "kind": "dilation",
        "dim_h": dil.povm.dim,
        "dim_e": dil.dim_e,
        "embedding": matrix_to_json(dil.f),
        "projections": {
            lab: matrix_to_json(h)
            for lab, h in zip(dil.povm.semiring.labels, dil.images)
        },
    }


# -- algebras ----------------------------------------------------------------------


def parse_algebra(data: Any) -> tuple[ConcreteStarAlgebra, AlgebraState | None]:
    from .gns import AlgebraState, ConcreteStarAlgebra, check_basis_size

    _require(isinstance(data, dict), "algebra file must be a JSON object")
    _require(
        data.get("kind") == "star_algebra", "kind must be 'star_algebra'", kind=data.get("kind")
    )
    dim = data.get("dim")
    _require(type(dim) is int and dim >= 1, "dim must be a positive integer")
    basis = data.get("basis")
    _require(isinstance(basis, dict) and basis, "basis must map labels to matrices")
    labels = list(basis)
    _check_operator_size(len(labels), dim)
    check_basis_size(len(labels), dim)
    mats = [matrix_from_json(basis[lab], dim, f"basis[{lab}]") for lab in labels]

    unit = data.get("unit")
    unit_idx = None
    if unit is not None:
        _require(unit in labels, "unit label not in basis", label=unit)
        unit_idx = labels.index(unit)
    idem = data.get("idempotents", [])
    _require(
        isinstance(idem, list) and all(isinstance(e, str) for e in idem),
        "idempotents must be a list of labels",
    )
    missing = [e for e in idem if e not in labels]
    _require(not missing, "idempotent label not in basis", labels=missing)
    alg = ConcreteStarAlgebra(
        mats, labels, unit=unit_idx, idempotents=[labels.index(e) for e in idem]
    )

    state = None
    if "state" in data:
        vals = data["state"]
        _require(
            isinstance(vals, list) and len(vals) == len(labels),
            "state must list one [re, im] value per basis element",
            expected=len(labels),
        )
        state = AlgebraState(_complex_pairs(vals, "state values are [re, im] pairs"))
    return alg, state


def serialize_algebra(alg: ConcreteStarAlgebra, state: AlgebraState | None = None) -> dict:
    out: dict[str, Any] = {
        "kind": "star_algebra",
        "dim": alg.space_size,
        "basis": {lab: matrix_to_json(m) for lab, m in zip(alg.labels, alg.basis)},
        "idempotents": [alg.labels[e] for e in alg.idempotents],
    }
    if alg.unit is not None:
        out["unit"] = alg.labels[alg.unit]
    if state is not None:
        out["state"] = [[float(np.real(v)), float(np.imag(v))] for v in state.values]
    return out


# -- file loading -------------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a repeated key is a ParseError, not read last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError("duplicate key in JSON object", key=key)
    return obj


def _load_json(path: Path | str) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError("cannot read file", path=str(path), error=str(exc))
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON", path=str(path), error=str(exc))


def load_structure(path: Path | str) -> Structure:
    return parse_structure(_load_json(path))


def load_povm(path: Path | str) -> FinitePovm:
    path = Path(path)
    return parse_povm(_load_json(path), base_dir=path.parent)


def load_algebra(path: Path | str) -> tuple[ConcreteStarAlgebra, AlgebraState | None]:
    return parse_algebra(_load_json(path))


def load_distribution(path: Path | str, s: Semilogic) -> DistributionTable:
    """A ``{"values": {label: number}}`` file; unlisted elements weigh 0."""
    from .semilogic import DistributionTable

    data = _load_json(path)
    values = data.get("values") if isinstance(data, dict) else None
    _require(
        isinstance(values, dict), "distribution file needs a 'values' object of label: number"
    )
    idx = {label: i for i, label in enumerate(s.labels)}
    vals = np.zeros(s.n)
    for label, v in values.items():
        _require(_finite_real(v), "distribution values must be finite numbers", label=label)
        vals[_lookup(idx, label, "distribution")] = v
    return DistributionTable(vals)
