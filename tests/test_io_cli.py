"""File formats and the command line front end.

CLI tests call main() in-process so exit codes and output are asserted
directly; one subprocess test runs the console-script entry point declared in
pyproject.toml, the way the generated wrapper calls it, and checks that it
gives the same exit codes and output as ``python -m qstruct.cli``. It needs
no install. The --json payloads are validated against a schema to keep the
machine interface stable.
"""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import qstruct
import qstruct.io_formats
from qstruct import (
    BooleanSemiring,
    DomainError,
    FinitePoset,
    OrthoLogic,
    ParseError,
    Quasilogic,
    Semilogic,
    StructuralError,
    chain_quasilogic,
    load_algebra,
    load_povm,
    load_structure,
    mo2_logic,
    mo2_semilogic,
    parse_structure,
    powerset_logic,
    powerset_semiring,
    serialize_algebra,
    serialize_povm,
    serialize_structure,
    structures_equal,
    verify_povm,
    Tolerance,
)
import qstruct.cli
from qstruct.cli import main
from qstruct.gns import MAX_SAMPLE_CELLS, check_sample_count, schwartz_check
from qstruct.io_formats import _lookup, _require

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "ok", "reports"],
    "properties": {
        "command": {"type": "string"},
        "ok": {"type": "boolean"},
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["subject", "ok", "checks", "facts"],
                "properties": {
                    "subject": {"type": "string"},
                    "ok": {"type": "boolean"},
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "passed", "violation_count", "witnesses"],
                            "properties": {
                                "name": {"type": "string"},
                                "passed": {"type": "boolean"},
                                "violation_count": {"type": "integer"},
                                "witnesses": {"type": "array"},
                            },
                        },
                    },
                    "facts": {"type": "object"},
                },
            },
        },
    },
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["command", "ok", "error"],
    "properties": {
        "ok": {"const": False},
        "error": {
            "type": "object",
            "required": ["type", "message", "details"],
        },
    },
}


# -- formats --------------------------------------------------------------------


def test_valid_fixtures_parse_to_the_expected_types(valid_dir):
    expected = {
        "poset_n.json": FinitePoset,
        "chain3.json": Quasilogic,
        "chain4.json": Quasilogic,
        "mo2_quasilogic.json": Quasilogic,
        "mo2_semilogic.json": Semilogic,
        "mo2_logic.json": OrthoLogic,
        "o6_logic.json": OrthoLogic,
        "powerset2_semiring.json": BooleanSemiring,
        "powerset3_semiring.json": BooleanSemiring,
        "diamond_semiring.json": BooleanSemiring,
    }
    for name, cls in expected.items():
        obj = load_structure(valid_dir / name)
        assert type(obj) is cls, name


def test_fixtures_match_the_builtin_constructors(valid_dir):
    pairs = [
        ("chain3.json", chain_quasilogic(3)),
        ("chain4.json", chain_quasilogic(4)),
        ("mo2_semilogic.json", mo2_semilogic()),
        ("mo2_logic.json", mo2_logic()),
        ("powerset2_logic.json", powerset_logic(2)),
        ("powerset2_semiring.json", powerset_semiring(2)),
    ]
    for name, built in pairs:
        assert structures_equal(load_structure(valid_dir / name), built), name


def test_structure_roundtrip_is_stable(valid_dir):
    for path in sorted(valid_dir.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("kind") not in (
            "poset",
            "quasilogic",
            "semilogic",
            "ortho_logic",
            "boolean_semiring",
        ):
            continue
        obj = load_structure(path)
        once = serialize_structure(obj)
        again = serialize_structure(parse_structure(once))
        assert once == again, path.name
        assert structures_equal(obj, parse_structure(once)), path.name


def test_serialized_order_lists_covers_only():
    data = serialize_structure(chain_quasilogic(4))
    assert sorted(data["le"]) == [["0", "a"], ["a", "b"], ["b", "1"]]


def test_parse_rejects_malformed_files(mutants_dir):
    bad = {
        "bad_json.json": ParseError,
        "dangling_label.json": ParseError,
        "le_cycle.json": ParseError,
        "mo2_prod_conflict.json": ParseError,
        "unit_not_greatest.json": ParseError,
        "chain3_diff_off_domain.json": (ParseError, StructuralError),
        "mo2_neg_not_involutive.json": (ParseError, StructuralError),
    }
    for name, exc in bad.items():
        with pytest.raises(exc):
            load_structure(mutants_dir / name)


def oracle_table_from_triples(idx, triples, where, symmetric):
    """The per-triple loop that once parsed prod and diff tables."""
    n = len(idx)
    table = np.full((n, n), -1, dtype=np.int16)
    if not isinstance(triples, list):
        raise ParseError(f"{where} must be a list of triples")
    for k, t in enumerate(triples):
        if not (isinstance(t, list) and len(t) == 3):
            raise ParseError(f"{where} entries are triples", entry=k)
        ids = []
        for x in t:
            if not isinstance(x, str):
                raise ParseError(f"{where}: labels must be strings", got=repr(x))
            if x not in idx:
                raise ParseError(f"{where}: unknown label", label=x)
            ids.append(idx[x])
        i, j, v = ids
        for a, b in ((i, j), (j, i)) if symmetric else ((i, j),):
            if table[a, b] >= 0 and table[a, b] != v:
                raise ParseError(
                    f"{where}: conflicting duplicate entries",
                    pair=[t[0], t[1]],
                    values=sorted({int(table[a, b]), v}),
                )
            table[a, b] = v
    return table


def random_triples(rng, labels):
    """Triples of one symmetric table, a few of them broken in every way a file can be."""
    n = len(labels)
    values = rng.integers(0, n, size=(n, n))
    values = np.minimum(values, values.T)
    out = []
    for _ in range(int(rng.integers(0, 12))):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        t = [labels[i], labels[j], labels[int(values[i, j])]]
        fault = rng.random()
        if fault < 0.06:
            t[2] = labels[int(rng.integers(0, n))]  # a second value for the pair
        elif fault < 0.08:
            t[int(rng.integers(0, 3))] = "nowhere"
        elif fault < 0.10:
            t[int(rng.integers(0, 3))] = 7
        elif fault < 0.12:
            t = t[:2]
        elif fault < 0.13:
            t = "a b c"
        out.append(t)
    return out


def outcome(fn, *args):
    try:
        return "table", fn(*args).tolist()
    except ParseError as exc:
        return "error", str(exc), exc.details


def test_triple_tables_match_the_per_triple_oracle():
    labels = ["a", "b", "c", "d"]
    idx = {lab: i for i, lab in enumerate(labels)}
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(400):
        triples = random_triples(rng, labels)
        for symmetric in (False, True):
            args = (idx, triples, "prod", symmetric)
            want = outcome(oracle_table_from_triples, *args)
            assert outcome(qstruct.io_formats._table_from_triples, *args) == want, triples
            seen.add(want[0] if want[0] == "table" else want[1])
    for triples in ({}, "a b c", None):
        args = (idx, triples, "diff", True)
        want = outcome(oracle_table_from_triples, *args)
        assert outcome(qstruct.io_formats._table_from_triples, *args) == want
        seen.add(want[1])
    assert seen == {
        "table",
        "prod entries are triples",
        "prod: labels must be strings",
        "prod: unknown label",
        "prod: conflicting duplicate entries",
        "diff must be a list of triples",
    }


def oracle_closed_order(labels, idx, pairs):
    """The squaring loop with numpy's bool matmul that once closed every order."""
    n = len(labels)
    _require(isinstance(pairs, list), "le must be a list of [below, above] pairs")
    le = np.eye(n, dtype=bool)
    for k, p in enumerate(pairs):
        _require(
            isinstance(p, list) and len(p) == 2, "le entries are [below, above] pairs", entry=k
        )
        le[_lookup(idx, p[0], "le"), _lookup(idx, p[1], "le")] = True
    while True:
        closed = le | (le @ le)
        if (closed == le).all():
            break
        le = closed
    cyc = le & le.T & ~np.eye(n, dtype=bool)
    if cyc.any():
        a, b = (int(x) for x in np.argwhere(cyc)[0])
        raise ParseError("order contains a cycle", between=[labels[a], labels[b]])
    return le


def test_order_closure_matches_the_squaring_loop():
    rng = np.random.default_rng(23)
    seen = set()
    for case in range(240):
        n = int(rng.choice([1, 2, 7, 40, 256]))
        labels = [f"e{k}" for k in range(n)]
        idx = {lab: k for k, lab in enumerate(labels)}
        if case % 3 == 0:  # a chain given in shuffled cover order: many squarings
            rank = rng.permutation(n)
            ends = [(rank[k], rank[k + 1]) for k in range(n - 1)]
            ends = [ends[k] for k in rng.permutation(len(ends))]
        else:
            ends = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
            if case % 3 == 1:  # forward edges of a random ranking: acyclic
                rank = rng.permutation(n)
                ends = [(a, b) if rank[a] <= rank[b] else (b, a) for a, b in ends]
        pairs = [[labels[a], labels[b]] for a, b in ends]
        if case % 7 == 0 and pairs:  # one malformed entry somewhere
            k = int(rng.integers(0, len(pairs)))
            pairs[k] = broken_entry(rng, pairs[k])
        want = outcome(oracle_closed_order, labels, idx, pairs)
        assert outcome(qstruct.io_formats._closed_order, labels, idx, pairs) == want
        seen.add(want[0] if want[0] == "table" else want[1])
    # the dense lists: every pair of a 256-chain, and every pair of 2^8
    chain = [f"e{k}" for k in range(256)]
    boolean = powerset_semiring(8).labels
    dense = [
        (chain, [[chain[a], chain[b]] for a in range(256) for b in range(a + 1, 256)]),
        (boolean, [[boolean[a], boolean[b]] for a in range(256) for b in range(256) if a & ~b == 0]),
    ]
    for labels, pairs in dense:
        idx = {lab: k for k, lab in enumerate(labels)}
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        want = outcome(oracle_closed_order, labels, idx, pairs)
        assert want[0] == "table"
        assert outcome(qstruct.io_formats._closed_order, labels, idx, pairs) == want
    assert seen == {
        "table",
        "order contains a cycle",
        "le entries are [below, above] pairs",
        "le: labels must be strings",
        "le: unknown label",
    }


def broken_entry(rng, entry):
    """A label list broken in one of the ways a file can break it."""
    entry = list(entry)
    fault = int(rng.integers(0, 8))
    k = int(rng.integers(0, len(entry)))
    if fault == 0:
        entry[k] = "nowhere"
    elif fault == 1:
        entry[k] = [True, 7, None, 1.5][int(rng.integers(0, 4))]
    elif fault == 2:
        entry = entry[:-1]
    elif fault == 3:
        entry = entry + entry[:1]
    elif fault == 4:  # a string of the right length, each letter a label
        entry = "".join(x[0] for x in entry)
    elif fault == 5:
        entry = dict.fromkeys(range(len(entry)))
    elif fault == 6:
        entry = tuple(entry)
    else:
        entry[k] = [entry[k]]
    return entry


def oracle_neg_from_pairs(idx, pairs):
    """The per-pair loop that once parsed complements."""
    n = len(idx)
    neg = np.full(n, -1, dtype=np.int16)
    _require(isinstance(pairs, list), "neg must be a list of [a, complement] pairs")
    for k, p in enumerate(pairs):
        _require(isinstance(p, list) and len(p) == 2, "neg entries are pairs", entry=k)
        a, na = _lookup(idx, p[0], "neg"), _lookup(idx, p[1], "neg")
        if neg[a] >= 0 and neg[a] != na:
            raise ParseError("neg: conflicting duplicate entries", label=p[0])
        neg[a] = na
    return neg


def test_complements_match_the_per_pair_oracle():
    labels = ["a", "b", "c", "d", "ab"]
    idx = {lab: i for i, lab in enumerate(labels)}
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(600):
        pairs = []
        for _ in range(int(rng.integers(0, 10))):
            a, b = (labels[int(x)] for x in rng.integers(0, len(labels), size=2))
            pairs.append([a, b])
            if rng.random() < 0.15:  # the pair again, or with another complement
                pairs.append([a, labels[int(rng.integers(0, len(labels)))]])
        for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.4 else 0):
            pair = [labels[int(x)] for x in rng.integers(0, len(labels), size=2)]
            pairs.insert(int(rng.integers(0, len(pairs) + 1)), broken_entry(rng, pair))
        want = outcome(oracle_neg_from_pairs, idx, pairs)
        assert outcome(qstruct.io_formats._neg_from_pairs, idx, pairs) == want, pairs
        seen.add(want[0] if want[0] == "table" else want[1])
    for pairs in ({}, "ab", None):
        want = outcome(oracle_neg_from_pairs, idx, pairs)
        assert outcome(qstruct.io_formats._neg_from_pairs, idx, pairs) == want
        seen.add(want[1])
    assert seen == {
        "table",
        "neg entries are pairs",
        "neg: labels must be strings",
        "neg: unknown label",
        "neg: conflicting duplicate entries",
        "neg must be a list of [a, complement] pairs",
    }


def oracle_finite_real(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def oracle_matrix_from_json(entries, dim, where):
    """The per-entry loop that once read every matrix."""
    _require(isinstance(entries, list), f"{where}: matrix must be a list of [re, im] pairs")
    _require(
        len(entries) == dim * dim,
        f"{where}: expected dim^2 entries",
        expected=dim * dim,
        got=len(entries),
    )
    flat = np.empty(dim * dim, dtype=np.complex128)
    for k, e in enumerate(entries):
        _require(
            isinstance(e, list) and len(e) == 2 and all(oracle_finite_real(x) for x in e),
            f"{where}: entries are [re, im] number pairs",
            entry=k,
        )
        flat[k] = complex(e[0], e[1])
    return flat.reshape(dim, dim)


def matrix_outcome(fn, *args):
    try:
        m = fn(*args)
        return "matrix", m.shape, m.dtype.str, m.tobytes()
    except ParseError as exc:
        return "error", str(exc), exc.details


NOT_A_NUMBER = [True, False, math.nan, math.inf, -math.inf, 10**400, "1.0", None, [1.0], {}]


def test_matrices_match_the_per_entry_oracle():
    rng = np.random.default_rng(31)
    seen = set()
    for case in range(500):
        dim = int(rng.integers(1, 4))
        entries = [
            [float(x) for x in rng.normal(size=2)] for _ in range(dim * dim)
        ]
        for e in entries:  # exact values too: ints, ints near and past 2^53, signed zeros
            if rng.random() < 0.2:
                e[int(rng.integers(0, 2))] = [3, -0.0, 2**53 + 1, 10**300, -(10**20)][
                    int(rng.integers(0, 5))
                ]
        for _ in range(int(rng.integers(0, 3)) if case % 2 and dim > 1 else 0):
            k = int(rng.integers(0, len(entries)))
            fault = int(rng.integers(0, 6))
            if fault == 0:
                entries[k][int(rng.integers(0, 2))] = NOT_A_NUMBER[
                    int(rng.integers(0, len(NOT_A_NUMBER)))
                ]
            elif fault == 1:
                entries[k] = entries[k][:1]
            elif fault == 2:
                entries[k] = entries[k] + [0.0]
            elif fault == 3:
                entries[k] = ["ab", "abc"][int(rng.integers(0, 2))]
            elif fault == 4:
                entries[k] = {"re": 0.0, "im": 0.0}
            else:
                entries.pop(k)  # dim^2 - 1 entries
        args = (entries, dim, "effects[x]")
        want = matrix_outcome(oracle_matrix_from_json, *args)
        assert matrix_outcome(qstruct.io_formats.matrix_from_json, *args) == want, entries
        seen.add(want[0] if want[0] == "matrix" else want[1])
    assert seen == {
        "matrix",
        "effects[x]: entries are [re, im] number pairs",
        "effects[x]: expected dim^2 entries",
    }


@pytest.mark.parametrize("n", [257, 5000])
def test_oversized_structure_files_exit_2_within_a_second(capsys, tmp_path, n):
    # a chain: closing its order took n x n matmuls until it stopped growing
    labels = [f"e{i}" for i in range(n)]
    data = {"kind": "poset", "elements": labels, "le": [list(p) for p in zip(labels, labels[1:])]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    start = time.process_time()
    code, out, _ = run_cli(capsys, "check", "--json", str(path))
    assert time.process_time() - start < 1.0
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "StructuralError"
    assert error["message"] == f"too many elements ({n} > 256)"


def test_mutants_that_parse_fail_verification(mutants_dir):
    from qstruct import verify_logic, verify_quasilogic, verify_semilogic

    cases = {
        "chain3_bad_cancellation.json": verify_quasilogic,
        "chain3_diff_missing.json": verify_quasilogic,
        "chain2_two_zeros.json": verify_quasilogic,
        "mo2_prod_not_idempotent.json": verify_semilogic,
        "mo2_prod_order_incoherent.json": verify_semilogic,
        "mo2_neg_fixed_points.json": verify_logic,
        "mo2_neg_wrong_pairing.json": verify_logic,
    }
    for name, verify in cases.items():
        obj = load_structure(mutants_dir / name)
        assert not verify(obj).ok, name


def test_povm_files_roundtrip(valid_dir):
    povm = load_povm(valid_dir / "trine_povm.json")
    assert povm.dim == 2
    assert povm.semiring.n == 8
    assert verify_povm(povm, Tolerance()).ok
    data = serialize_povm(povm)
    assert data["kind"] == "povm"

    inline = load_povm(valid_dir / "pvm2.json")
    by_ref = load_povm(valid_dir / "pvm2_by_reference.json")
    assert inline.semiring.n == by_ref.semiring.n
    for a, b in zip(inline.effects, by_ref.effects):
        assert np.allclose(a, b)


def test_algebra_files_roundtrip(valid_dir):
    alg, state = load_algebra(valid_dir / "m2_algebra.json")
    assert state is not None
    assert alg.space_size == 2
    data = serialize_algebra(alg, state)
    assert data["kind"] == "star_algebra"
    assert "state" in data


# -- command line ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_passes_on_good_structures(capsys, valid_dir):
    code, out, _ = run_cli(capsys, "check", str(valid_dir / "mo2_logic.json"))
    assert code == 0
    assert "ok" in out.splitlines()[-1]
    assert "[pass]" in out and "[FAIL]" not in out
    assert "classification: logic" in out


def test_check_fails_on_the_hexagon(capsys, valid_dir):
    code, out, _ = run_cli(capsys, "check", str(valid_dir / "o6_logic.json"))
    assert code == 1
    assert "[FAIL]" in out
    assert out.splitlines()[-1] == "FAILED"


def test_check_exit_codes_cover_the_error_taxonomy(capsys, valid_dir, mutants_dir):
    matrix = {
        (valid_dir, "powerset1_logic.json"): 0,
        (valid_dir, "powerset2_semiring.json"): 0,
        (valid_dir, "chain4.json"): 0,
        (valid_dir, "poset_n.json"): 0,
        (mutants_dir, "chain3_bad_cancellation.json"): 1,
        (mutants_dir, "chain3_diff_missing.json"): 1,
        (mutants_dir, "chain2_two_zeros.json"): 1,
        (mutants_dir, "mo2_prod_not_idempotent.json"): 1,
        (mutants_dir, "mo2_prod_order_incoherent.json"): 1,
        (mutants_dir, "mo2_neg_fixed_points.json"): 1,
        (mutants_dir, "mo2_neg_wrong_pairing.json"): 1,
        (mutants_dir, "mo2_as_semiring.json"): 1,
        (mutants_dir, "bad_json.json"): 2,
        (mutants_dir, "dangling_label.json"): 2,
        (mutants_dir, "le_cycle.json"): 2,
        (mutants_dir, "mo2_prod_conflict.json"): 2,
        (mutants_dir, "mo2_neg_not_involutive.json"): 2,
        (mutants_dir, "unit_not_greatest.json"): 2,
        (mutants_dir, "chain3_diff_off_domain.json"): 2,
    }
    for (base, name), want in matrix.items():
        code, _, _ = run_cli(capsys, "check", str(base / name))
        assert code == want, name


def test_check_json_payload_validates(capsys, valid_dir):
    code, out, _ = run_cli(capsys, "check", "--json", str(valid_dir / "mo2_logic.json"))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["classification"] == "logic"
    top = payload["reports"][0]
    assert top["facts"]["boolean"] is False


def test_error_payload_is_machine_readable(capsys, mutants_dir):
    code, out, _ = run_cli(capsys, "check", "--json", str(mutants_dir / "dangling_label.json"))
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, ERROR_SCHEMA)
    assert payload["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "command, name, old, new, key",
    [
        ("dilate FILE", "pvm2.json", '"{1}": [', '"{0}": [', "{0}"),
        ("gns FILE", "m2_algebra.json", '"E10": [', '"E01": [', "E01"),
        (
            "stone powerset2_semiring.json --distribution FILE",
            "powerset2_distribution.json",
            '"{1}": 0.75',
            '"{0}": 0.75',
            "{0}",
        ),
        (
            "check FILE",
            "chain3.json",
            '"kind": "quasilogic",',
            '"kind": "logic", "kind": "quasilogic",',
            "kind",
        ),
    ],
)
def test_repeated_json_keys_are_a_parse_error(
    capsys, valid_dir, tmp_path, command, name, old, new, key
):
    # json.loads alone keeps the last of repeated keys: a POVM listing an
    # effect twice would dilate the second matrix
    text = (valid_dir / name).read_text()
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    argv = [
        str(path) if a == "FILE" else str(valid_dir / a) if a.endswith(".json") else a
        for a in command.split()
    ]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ParseError",
        "message": "duplicate key in JSON object",
        "details": {"key": key},
    }


def test_stone_reports_points_and_measure(capsys, valid_dir):
    code, out, _ = run_cli(
        capsys,
        "stone",
        "--json",
        str(valid_dir / "powerset2_semiring.json"),
        "--distribution",
        str(valid_dir / "powerset2_distribution.json"),
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert len(payload["points"]) == 2
    measure = payload["reports"][-1]["facts"]["measure"]
    assert measure["{}"] == 0.0
    assert sorted(measure.values()) == [0.0, 0.25, 0.75, 1.0]


def test_stone_rejects_non_semirings(capsys, valid_dir):
    code, _, err = run_cli(capsys, "stone", str(valid_dir / "mo2_logic.json"))
    assert code == 1
    assert "boolean semiring" in err


def test_stone_flags_the_disguised_semilogic(capsys, mutants_dir):
    code, _, _ = run_cli(capsys, "stone", str(mutants_dir / "mo2_as_semiring.json"))
    assert code == 1


def test_dilate_reports_dimensions(capsys, valid_dir, tmp_path):
    out_file = tmp_path / "dilation.json"
    code, out, _ = run_cli(
        capsys,
        "dilate",
        "--json",
        str(valid_dir / "trine_povm.json"),
        "--out",
        str(out_file),
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["reports"][-1]["facts"]["dim_e"] == 3
    written = json.loads(out_file.read_text())
    assert written["dim_e"] == 3


def test_dilate_exit_codes(capsys, mutants_dir):
    code, _, err = run_cli(capsys, "dilate", str(mutants_dir / "subnormalized_povm.json"))
    assert code == 1
    assert "sub-normalized" in err
    code, _, _ = run_cli(capsys, "dilate", str(mutants_dir / "povm_bad_matrix.json"))
    assert code == 2


def test_gns_reports_dimensions(capsys, valid_dir):
    code, out, _ = run_cli(capsys, "gns", "--json", str(valid_dir / "m2_algebra.json"))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    facts = payload["reports"][2]["facts"]
    assert facts["space_dim"] == 2 and facts["kernel_dim"] == 2

    code, out, _ = run_cli(
        capsys, "gns", "--json", str(valid_dir / "m2_algebra_full_rank.json")
    )
    facts = json.loads(out)["reports"][2]["facts"]
    assert facts["space_dim"] == 4 and facts["kernel_dim"] == 0


def test_gns_needs_a_state(capsys, mutants_dir):
    code, _, err = run_cli(capsys, "gns", str(mutants_dir / "algebra_no_state.json"))
    assert code == 1
    assert "no state" in err


def test_property_suite_runs_clean(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "property", "--suite", "order", "--seed", "0")
    assert code == 0
    assert "[pass] order" in out
    assert not (tmp_path / "qstruct-witness.json").exists()


def test_property_json_lists_all_suites(capsys):
    code, out, _ = run_cli(capsys, "property", "--json", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [s["suite"] for s in payload["suites"]]
    assert len(names) == 9


def test_tolerance_env_and_flag(capsys, valid_dir, monkeypatch):
    monkeypatch.setenv("QSTRUCT_TOL", "1e-6")
    code, _, _ = run_cli(capsys, "dilate", str(valid_dir / "trine_povm.json"))
    assert code == 0
    monkeypatch.delenv("QSTRUCT_TOL")
    code, _, _ = run_cli(
        capsys, "dilate", "--tol", "1e-10", str(valid_dir / "trine_povm.json")
    )
    assert code == 0


def error_payload(out):
    payload = json.loads(out)
    jsonschema.validate(payload, ERROR_SCHEMA)
    return payload["error"]


def test_unparsable_tolerance_env_is_a_parse_error(capsys, valid_dir, monkeypatch):
    monkeypatch.setenv("QSTRUCT_TOL", "abc")
    code, out, _ = run_cli(capsys, "dilate", "--json", str(valid_dir / "trine_povm.json"))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["details"] == {"value": "abc"}


def test_dilate_out_to_a_missing_directory_is_a_parse_error(capsys, valid_dir, tmp_path):
    target = tmp_path / "missing_dir" / "o.json"
    code, out, _ = run_cli(
        capsys, "dilate", "--json", str(valid_dir / "trine_povm.json"), "--out", str(target)
    )
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["message"] == "cannot write file"
    assert error["details"] == {"path": str(target), "error": "No such file or directory"}
    assert not target.parent.exists()


def test_negative_gns_samples_are_a_parse_error(capsys, valid_dir, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(qstruct.gns, "schwartz_check", no_sampling)
    code, out, _ = run_cli(
        capsys, "gns", "--json", "--samples", "-1", str(valid_dir / "m2_algebra.json")
    )
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["details"] == {"samples": -1}


def test_gns_samples_are_bounded_before_drawing(capsys, valid_dir, monkeypatch):
    alg, state = load_algebra(valid_dir / "m2_algebra.json")
    assert alg.n == 4
    over = MAX_SAMPLE_CELLS // alg.n + 1  # a (4, over) complex array is 16 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="samples"):
            schwartz_check(alg, state, samples=over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert schwartz_check(alg, state, samples=over - 1).ok
    check_sample_count(1000, 64)  # the default at M_8

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(qstruct.gns, "schwartz_check", no_sampling)
    code, out, _ = run_cli(
        capsys, "gns", "--json", "--samples", str(over), str(valid_dir / "m2_algebra.json")
    )
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["details"] == {"samples": over, "basis_size": 4}


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("command", ["gns", "property"])
def test_negative_seed_is_a_parse_error(capsys, valid_dir, monkeypatch, command):
    monkeypatch.setattr(qstruct.gns, "gns_construct", _no_work)
    monkeypatch.setattr(qstruct.properties, "run_suite", _no_work)
    if command == "gns":
        argv = [command, str(valid_dir / "m2_algebra.json")]
    else:
        argv = [command, "--suite", "order"]
    code, out, _ = run_cli(capsys, *argv, "--json", "--seed", "-5")
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["message"] == "--seed must not be negative"
    assert error["details"] == {"seed": -5}

    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --seed must not be negative", "  seed: -1"]


def _no_nan(literal):
    raise AssertionError(f"{literal} in JSON output")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_non_finite_tolerance_is_a_parse_error(capsys, valid_dir, monkeypatch, value, source):
    argv = ["dilate", "--json", str(valid_dir / "trine_povm.json")]
    if source == "flag":
        argv.append(f"--tol={value}")
    else:
        monkeypatch.setenv("QSTRUCT_TOL", value)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(out, parse_constant=_no_nan)
    jsonschema.validate(payload, ERROR_SCHEMA)
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["message"] == "tolerance must be a finite number"
    assert payload["error"]["details"] == {"value": str(float(value))}


@pytest.mark.parametrize("value", ["-1", "0", "1e300"])
def test_finite_tolerance_out_of_range_is_a_domain_error(capsys, valid_dir, value):
    code, out, _ = run_cli(
        capsys, "dilate", "--json", "--tol", value, str(valid_dir / "trine_povm.json")
    )
    assert code == 1
    payload = json.loads(out, parse_constant=_no_nan)
    assert payload["error"]["type"] == "DomainError"


# JSON number literals that Python's json accepts but that are no finite real
NOT_FINITE_REALS = ['"x"', "[1]", "null", "true", "NaN", "-Infinity", "1e400", "1" + "0" * 400]


def _with_literal(data, literal):
    """``data`` as JSON text with the string "BAD" replaced by a raw literal."""
    return json.dumps(data).replace('"BAD"', literal)


@pytest.mark.parametrize("literal", NOT_FINITE_REALS)
def test_state_values_must_be_finite_reals(capsys, valid_dir, tmp_path, literal):
    data = json.loads((valid_dir / "m2_algebra.json").read_text())
    data["state"][2] = [0.5, "BAD"]
    path = tmp_path / "bad_state.json"
    path.write_text(_with_literal(data, literal))
    code, out, _ = run_cli(capsys, "gns", "--json", str(path))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["details"] == {"entry": 2}


@pytest.mark.parametrize("literal", NOT_FINITE_REALS)
def test_matrix_entries_must_be_finite_reals(capsys, valid_dir, tmp_path, literal):
    algebra = json.loads((valid_dir / "m2_algebra.json").read_text())
    algebra["basis"]["E01"][1] = ["BAD", 0.0]
    povm = json.loads((valid_dir / "trine_povm.json").read_text())
    povm["effects"]["v"][3] = [0.0, "BAD"]
    for command, data, where in (("gns", algebra, "basis[E01]"), ("dilate", povm, "effects[v]")):
        path = tmp_path / f"{command}.json"
        path.write_text(_with_literal(data, literal))
        code, out, _ = run_cli(capsys, command, "--json", str(path))
        assert code == 2, command
        error = error_payload(out)
        assert error["type"] == "ParseError"
        assert error["message"] == f"{where}: entries are [re, im] number pairs"


@pytest.mark.parametrize(
    "text",
    [
        '{"values": {"{0}": "abc"}}',
        '{"values": {"{0}": null}}',
        '{"values": {"{0}": NaN}}',
        '{"values": {"{0}": Infinity}}',
        '{"values": {"{0}": 1e400}}',
        '{"values": {"{0}": true}}',
        '{"values": [["{0}", 0.25]]}',
        '{"values": "abc"}',
        '[{"values": {}}]',
        "{}",
        '{"values": {',
    ],
)
def test_stone_distribution_files_are_parsed_strictly(capsys, valid_dir, tmp_path, text):
    path = tmp_path / "distribution.json"
    path.write_text(text)
    semiring = str(valid_dir / "powerset2_semiring.json")
    code, out, _ = run_cli(capsys, "stone", "--json", semiring, "--distribution", str(path))
    assert code == 2
    assert error_payload(out)["type"] == "ParseError"
    code, out, _ = run_cli(
        capsys, "stone", "--json", semiring, "--distribution", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert error_payload(out)["message"] == "cannot read file"


def test_unknown_distribution_labels_are_parse_errors(capsys, valid_dir, tmp_path):
    path = tmp_path / "distribution.json"
    path.write_text('{"values": {"{0}": 0.25, "nope": 0.5}}')
    semiring = str(valid_dir / "powerset2_semiring.json")
    code, out, _ = run_cli(capsys, "stone", "--json", semiring, "--distribution", str(path))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["message"] == "distribution: unknown label"
    assert error["details"] == {"label": "nope"}


def test_too_many_outcomes_exit_2_with_the_error_object(capsys, tmp_path):
    outcomes = [f"o{i}" for i in range(64)]
    effect = [[1.0 / 64, 0.0]]
    data = {
        "kind": "povm",
        "dim": 1,
        "outcomes": outcomes,
        "effects": dict.fromkeys(outcomes, effect),
    }
    path = tmp_path / "wide_povm.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "dilate", "--json", str(path))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "StructuralError"
    assert error["message"].startswith("too many elements")


def test_twenty_thousand_outcomes_exit_2_with_the_count_as_a_power(capsys, tmp_path):
    # 2^20000 has 6,021 digits, past the int-to-str limit: formatting it escaped
    outcomes = [f"o{i}" for i in range(20_000)]
    data = {
        "kind": "povm",
        "dim": 1,
        "outcomes": outcomes,
        "effects": dict.fromkeys(outcomes, [[1.0 / 20_000, 0.0]]),
    }
    path = tmp_path / "wider_povm.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "dilate", "--json", str(path))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "StructuralError"
    assert error["message"] == "too many elements (2^20000 > 256)"


def test_duplicate_outcome_labels_are_a_parse_error(capsys, tmp_path):
    # read as four outcomes, this once ended in "unit effect exceeds the identity"
    data = {
        "kind": "povm",
        "dim": 1,
        "outcomes": ["b", "a", "b", "a"],
        "effects": {"a": [[0.5, 0.0]], "b": [[0.5, 0.0]]},
    }
    path = tmp_path / "repeated_outcomes.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "dilate", "--json", str(path))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "ParseError"
    assert error["message"] == "duplicate outcome label"
    assert error["details"] == {"label": "a"}


def _flat_identity(dim, scale):
    return [[scale if i == j else 0.0, 0.0] for i in range(dim) for j in range(dim)]


def _outcome_povm(outcomes, dim):
    names = [f"o{i}" for i in range(outcomes)]
    return {
        "kind": "povm",
        "dim": dim,
        "outcomes": names,
        "effects": dict.fromkeys(names, _flat_identity(dim, 1.0 / outcomes)),
    }


def _unit_algebra(dim):
    return {"kind": "star_algebra", "dim": dim, "basis": {"I": _flat_identity(dim, 1.0)}}


@pytest.mark.parametrize(
    "command, data, message",
    [
        # 8 outcomes on C^64 once asked gram_block for a 4 GiB array
        ("dilate", _outcome_povm(8, 64), "operator space too large (256 elements x dim 64 > 512)"),
        ("dilate", _outcome_povm(1, 65), "dim too large (65 > 64)"),
        ("dilate", _outcome_povm(3, 65), "dim too large (65 > 64)"),
        ("gns", _unit_algebra(65), "dim too large (65 > 64)"),
        # five matrices on C^2 cannot be independent; this read exit 1 once
        (
            "gns",
            {
                "kind": "star_algebra",
                "dim": 2,
                "basis": {f"a{k}": _flat_identity(2, 1.0) for k in range(5)},
            },
            "too many basis matrices (5 > dim^2 = 4)",
        ),
    ],
)
def test_oversized_operator_inputs_exit_2_before_any_allocation(
    command, data, message, capsys, tmp_path, monkeypatch
):
    def no_allocation(*args, **kwargs):
        raise AssertionError("matrix allocated before the size check")

    monkeypatch.setattr(qstruct.io_formats, "matrix_from_json", no_allocation)
    monkeypatch.setattr(np, "empty", no_allocation)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, command, "--json", str(path))
    assert code == 2
    error = error_payload(out)
    assert error["type"] == "StructuralError"
    assert error["message"] == message


@pytest.mark.parametrize("command, data", [("dilate", _outcome_povm(2, 1)), ("gns", _unit_algebra(1))])
def test_dim_true_is_not_a_dimension(command, data, capsys, tmp_path):
    # json reads true as a bool, which is an int; as dim it once escaped as a TypeError
    path = tmp_path / "dim_true.json"
    path.write_text(json.dumps(data | {"dim": True}))
    code, out, _ = run_cli(capsys, command, "--json", str(path))
    assert code == 2
    assert error_payload(out)["message"] == "dim must be a positive integer"


def test_operator_inputs_at_the_size_bound_still_verify(capsys, tmp_path):
    # 2^7 elements x dim 4 = 512, the largest space allowed
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_outcome_povm(7, 4)))
    code, out, _ = run_cli(capsys, "dilate", "--json", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_console_script_matches_the_module_entry(valid_dir, mutants_dir):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qstruct"]
    module, func = entry.split(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'qstruct'; sys.exit({func}())"
    )

    # Both processes import the qstruct under test, not some installed copy.
    env = dict(os.environ)
    src = str(Path(qstruct.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    cases = [
        (valid_dir / "chain3.json", 0),
        (mutants_dir / "chain3_bad_cancellation.json", 1),
        (mutants_dir / "le_cycle.json", 2),
    ]
    for path, want in cases:
        by_module = subprocess.run(
            [sys.executable, "-m", "qstruct.cli", "check", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        by_script = subprocess.run(
            [sys.executable, "-c", wrapper, "check", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert by_module.returncode == want, (path.name, by_module.stderr)
        assert by_script.returncode == by_module.returncode, (path.name, by_script.stderr)
        assert by_script.stdout == by_module.stdout, path.name
        if want == 0:
            assert by_module.stdout.splitlines()[-1] == "ok"
