"""The four workloads: seeded inputs, the public call that times each one, and
the outcome each must produce.

Every timed operation is one public entry point: ``qstruct.cli.main`` with
``--json`` (in process), a clan library function, or a
``python -m qstruct.cli ... --json`` subprocess. Each case knows its expected
outcome by construction (see gen.py) or, for the fixture corpus, from the
pinned table below; a sample whose outcome disagrees counts as failed.

A case is *witness* class when its expected outcome carries a witness: a
failed check, a ``boolean``/``distributive`` fact that is false, or an
exit-1/exit-2 error. Scans may stop at the first counterexample on those,
so they are timed apart from the *clean* cases, where every scan runs to
its end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gen

# Failing checks pinned from the seed commit; the generators draw the broken
# entry so that these sets do not depend on the seed.
CORRUPTED_LOGIC_FAILS = {
    "difference-cancellation",
    "difference-of-join",
    "difference-of-meet",
    "minuend-difference-identity",
    "minuend-monotone",
    "subtrahend-antitone",
    "subtrahend-difference-identity",
    "sum-lattice-identity",
}
ZEROED_SEMIRING_FAILS = {"product-additivity", "product-is-meet", "restricted-associativity"}
DIAMOND_FAILS = {"product-additivity"}

# Fixture corpus: file, subcommand, expected exit code, witness class.
# Exit codes pinned from the seed commit and cross-checked against the
# contract lists in tests/ by ``run.py --smoke``.
CORPUS: list[tuple[str, str, int, bool]] = [
    ("valid/chain3.json", "check", 0, False),
    ("valid/chain4.json", "check", 0, False),
    ("valid/diamond_semiring.json", "check", 1, True),
    ("valid/m2_algebra.json", "gns", 0, False),
    ("valid/m2_algebra_full_rank.json", "gns", 0, False),
    ("valid/mo2_logic.json", "check", 0, True),
    ("valid/mo2_quasilogic.json", "check", 0, False),
    ("valid/mo2_semilogic.json", "check", 0, False),
    ("valid/o6_logic.json", "check", 1, True),
    ("valid/poset_n.json", "check", 0, False),
    ("valid/powerset1_logic.json", "check", 0, False),
    ("valid/powerset2_distribution.json", "stone", 0, False),
    ("valid/powerset2_logic.json", "check", 0, False),
    ("valid/powerset2_semiring.json", "check", 0, False),
    ("valid/powerset3_logic.json", "check", 0, False),
    ("valid/powerset3_semiring.json", "check", 0, False),
    ("valid/powerset4_logic.json", "check", 0, False),
    ("valid/pvm2.json", "dilate", 0, False),
    ("valid/pvm2_by_reference.json", "dilate", 0, False),
    ("valid/pvm2_semiring.json", "check", 0, False),
    ("valid/trine_povm.json", "dilate", 0, False),
    ("mutants/algebra_no_state.json", "gns", 1, True),
    ("mutants/bad_json.json", "check", 2, True),
    ("mutants/chain2_two_zeros.json", "check", 1, True),
    ("mutants/chain3_bad_cancellation.json", "check", 1, True),
    ("mutants/chain3_diff_missing.json", "check", 1, True),
    ("mutants/chain3_diff_off_domain.json", "check", 2, True),
    ("mutants/dangling_label.json", "check", 2, True),
    ("mutants/le_cycle.json", "check", 2, True),
    ("mutants/mo2_as_semiring.json", "check", 1, True),
    ("mutants/mo2_neg_fixed_points.json", "check", 1, True),
    ("mutants/mo2_neg_not_involutive.json", "check", 2, True),
    ("mutants/mo2_neg_wrong_pairing.json", "check", 1, True),
    ("mutants/mo2_prod_conflict.json", "check", 2, True),
    ("mutants/mo2_prod_not_idempotent.json", "check", 1, True),
    ("mutants/mo2_prod_order_incoherent.json", "check", 1, True),
    ("mutants/povm_bad_matrix.json", "dilate", 2, True),
    ("mutants/subnormalized_povm.json", "dilate", 1, True),
    ("mutants/unit_not_greatest.json", "check", 2, True),
]
CORPUS_SMALLEST = ("valid/chain3.json", "valid/o6_logic.json", "mutants/bad_json.json")
FIXTURES = Path("tests") / "fixtures"


@dataclass
class Case:
    """One input: ``op`` is the timed call, ``expect`` returns a mismatch or None."""

    name: str
    witness: bool
    op: Callable[[], Any]
    expect: Callable[[Any], str | None]
    files: list[str]  # input files, whose total size picks the largest input


@dataclass
class Env:
    root: Path  # checkout root
    work: Path  # scratch directory for generated inputs
    rng: np.random.Generator
    smallest: bool  # smallest rung of every ladder, for the self-test
    child_env: dict[str, str]  # environment for CLI subprocesses
    runner: list[str]  # command that stands for `qstruct`, read at each call


# -- timed operations --------------------------------------------------------------


def cli_in_process(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def op() -> tuple[int, str]:
        import qstruct.cli  # attribute lookup at call time so tracing wrappers apply

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qstruct.cli.main([*argv, "--json"])
        return code, buf.getvalue()

    return op


def cli_process(env: Env, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def op() -> tuple[int, str]:
        proc = subprocess.run(
            [*env.runner, *argv, "--json"],
            cwd=env.root,
            env=env.child_env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    return op


def _matrices(entries: list, dim: int) -> list[np.ndarray]:
    return [np.array([complex(*e) for e in m]).reshape(dim, dim) for m in entries]


def clan_calls(path: Path) -> Callable[[], dict]:
    """Read a clan file and run verify_clan, distributivity_criterion, vector_state."""

    def op() -> dict:
        import qstruct.clan as clan
        from qstruct.matrix_core import Tolerance

        data = json.loads(path.read_text())
        members = _matrices(data["members"], data["dim"])
        xi = np.array([complex(*e) for e in data["vector"]])
        c = clan.Clan(members)
        tol = Tolerance.with_eps(1e-9)
        report = clan.verify_clan(c, tol)
        verdicts = clan.distributivity_criterion(c, tol)
        values, state = clan.vector_state(c, xi, tol)
        return {
            "n": c.n,
            "report": report.to_dict(),
            "verdicts": verdicts,
            "values": values.tolist(),
            "state": state.to_dict(),
        }

    return op


# -- outcome checks ----------------------------------------------------------------


def parse_cli(raw: tuple[int, str]) -> tuple[int, dict]:
    code, text = raw
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, {}


def failing_checks(payload: dict) -> set[str]:
    return {
        c["name"] for r in payload.get("reports", []) for c in r["checks"] if not c["passed"]
    }


def fact(payload: dict, key: str) -> Any:
    for r in payload.get("reports", []):
        if key in r["facts"]:
            return r["facts"][key]
    return None


def witness_count(payload: dict) -> int:
    return sum(len(c["witnesses"]) for r in payload.get("reports", []) for c in r["checks"])


def expect_cli(code: int, ok: bool | None = None, **want: Any) -> Callable[[Any], str | None]:
    """Exit code, ``ok``, and any pinned ``fails``/``classification``/fact values."""

    def check(raw: Any) -> str | None:
        got_code, payload = parse_cli(raw)
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if ok is not None and payload.get("ok") is not ok:
            return f"ok={payload.get('ok')}, expected {ok}"
        for key, value in want.items():
            if key == "fails":
                got = failing_checks(payload)
            elif key == "classification":
                got = payload.get(key)
            elif key == "error_type":  # any of a tuple of exception names
                got = payload.get("error", {}).get("type")
                if got in value:
                    continue
            elif key == "points":
                got = len(payload.get("points", []))
            else:
                got = fact(payload, key)
            if isinstance(value, float) and isinstance(got, (int, float)):
                if abs(got - value) > 1e-9:
                    return f"{key}={got}, expected {value}"
            elif got != value:
                return f"{key}={got!r}, expected {value!r}"
        return None

    return check


def expect_clan(distributive: bool) -> Callable[[dict], str | None]:
    def check(out: dict) -> str | None:
        facts = out["report"]["facts"]
        v = out["verdicts"]
        if not out["report"]["ok"] or not out["state"]["ok"]:
            return "clan or vector-state report failed"
        if facts.get("distributive") is not distributive or v["distributive"] is not distributive:
            return f"distributive={v['distributive']}, expected {distributive}"
        if v["criterion"] is not distributive or not v["agree"]:
            return "criterion disagrees with distributivity"
        if (v["criterion_witness"] is None) is not distributive:
            return "criterion witness presence is wrong"
        if abs(max(out["values"]) - 1.0) > 1e-9:
            return f"unit value {max(out['values'])}, expected 1"
        return None

    return check


def bell(n: int) -> int:
    """Bell number: partitions of an n-set."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


# -- workload builders -------------------------------------------------------------


def _write(env: Env, name: str, data: dict) -> str:
    path = env.work / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _cli_case(name: str, witness: bool, argv: list[str], expect) -> Case:
    files = [a for a in argv[1:] if not a.startswith("--")]
    return Case(name, witness, cli_in_process(argv), expect, files)


def logic_check(env: Env) -> list[Case]:
    rng, small = env.rng, env.smallest
    cases = []
    for k in (3,) if small else (7, 8):
        path = _write(env, f"powerset{k}", gen.powerset_logic(k, rng))
        cases.append(
            _cli_case(
                f"powerset-2^{k}",
                False,
                ["check", path],
                expect_cli(0, True, classification="boolean-algebra", boolean=True, distributive=True),
            )
        )
    for blocks, k in ((2, 3),) if small else ((4, 6), (2, 7)):
        path = _write(env, f"hsum{blocks}x{k}", gen.horizontal_sum(blocks, k, rng))
        cases.append(
            _cli_case(
                f"hsum-{blocks}x2^{k}",
                True,
                ["check", path],
                expect_cli(0, True, classification="logic", boolean=False, distributive=False),
            )
        )
    k = 4 if small else 7
    path = _write(env, f"corrupted{k}", gen.corrupted_logic(k, rng))
    cases.append(
        _cli_case(
            f"corrupted-2^{k}",
            True,
            ["check", path],
            expect_cli(1, False, fails=CORRUPTED_LOGIC_FAILS),
        )
    )
    return cases


def semiring_stone(env: Env) -> list[Case]:
    rng, small = env.rng, env.smallest
    k = 3 if small else 7
    path = _write(env, f"semiring{k}", gen.powerset_semiring(k, rng))
    cases = [
        _cli_case(
            f"semiring-2^{k}",
            False,
            ["check", path],
            # families of disjoint nonempty subsets of k points, with the empty one
            expect_cli(0, True, distributive=True, orthogonal_family_count=bell(k + 1)),
        )
    ]
    k = 3 if small else 6
    path = _write(env, f"stone{k}", gen.powerset_semiring(k, rng))
    dist = _write(env, f"stone{k}_distribution", gen.atom_distribution(k, rng))
    cases.append(
        _cli_case(
            f"stone-2^{k}",
            False,
            ["stone", path, "--distribution", dist],
            expect_cli(0, True, points=k, mass=1.0),
        )
    )
    path = _write(env, "diamond", gen.diamond_semiring())
    cases.append(
        _cli_case(
            "diamond",
            True,
            ["check", path],
            expect_cli(1, False, fails=DIAMOND_FAILS, distributive=False),
        )
    )
    path = _write(env, f"zeroed{k}", gen.zeroed_product_semiring(k, rng))
    cases.append(
        _cli_case(
            f"zeroed-2^{k}",
            True,
            ["check", path],
            expect_cli(1, False, fails=ZEROED_SEMIRING_FAILS, distributive=False),
        )
    )
    return cases


def operator(env: Env) -> list[Case]:
    rng, small = env.rng, env.smallest
    cases = []
    # the largest POVM lists every semiring element inline (a large file to
    # parse); the others list outcome atoms, the path through powerset_semiring
    for k, d, inline in ((3, 2, True),) if small else ((8, 2, True), (7, 2, False), (6, 4, False)):
        atoms, dim_e = gen.povm_atoms(k, d, rng)
        data = gen.povm_inline(atoms, d, rng) if inline else gen.povm_outcomes(atoms, d)
        path = _write(env, f"povm{k}x{d}", data)
        cases.append(
            _cli_case(f"povm-{k}x{d}", False, ["dilate", path], expect_cli(0, True, dim_e=dim_e))
        )
    for d in (2,) if small else (5, 6):
        for rank in (d, 2) if d > 2 else (d, 1):
            path = _write(env, f"algebra{d}r{rank}", gen.matrix_unit_algebra(d, rank, rng))
            cases.append(
                _cli_case(
                    f"gns-d{d}-rank{rank}",
                    False,
                    ["gns", path],
                    expect_cli(0, True, space_dim=d * rank),
                )
            )
    d = 2 if small else 5
    path = Path(_write(env, f"clan{d}", gen.rotated_diagonal_clan(d, rng)))
    cases.append(
        Case(f"clan-diagonal-d{d}", False, clan_calls(path), expect_clan(True), [str(path)])
    )

    k = 3 if small else 7
    atoms, _ = gen.povm_atoms(k, 2, rng)
    path = _write(env, f"subnormalized{k}", gen.povm_outcomes(atoms, 2, scale=0.9))
    cases.append(
        _cli_case(
            f"subnormalized-{k}x2",
            True,
            ["dilate", path],
            expect_cli(1, False, error_type=("DomainError",)),
        )
    )
    n = 3 if small else 24
    path = Path(_write(env, f"mo{n}", gen.mo_clan(n, rng)))
    cases.append(Case(f"clan-mo{n}", True, clan_calls(path), expect_clan(False), [str(path)]))
    return cases


def cli_corpus(env: Env) -> list[Case]:
    table = [row for row in CORPUS if not env.smallest or row[0] in CORPUS_SMALLEST]
    cases = []
    for i in env.rng.permutation(len(table)):
        rel, sub, code, witness = table[int(i)]
        path = str(FIXTURES / rel)
        if rel.endswith("powerset2_distribution.json"):
            argv = [sub, str(FIXTURES / "valid/powerset2_semiring.json"), "--distribution", path]
        else:
            argv = [sub, path]
        if code == 2:
            expect = expect_cli(2, False, error_type=("ParseError", "StructuralError"))
        else:
            expect = expect_cli(code, code == 0)
        files = [a for a in argv[1:] if not a.startswith("--")]
        cases.append(Case(rel, witness, cli_process(env, argv), expect, files))
    return cases


def build(name: str, env: Env) -> list[Case]:
    if name == "logic-check":
        return logic_check(env)
    if name == "semiring-stone":
        return semiring_stone(env)
    if name == "operator":
        return operator(env)
    return cli_corpus(env)


def acceptance_contract(root: Path) -> dict[tuple[str, str], int]:
    """(subcommand, fixture) -> exit code, as listed in tests/test_acceptance.py."""
    text = (root / "tests" / "test_acceptance.py").read_text()
    out = {}
    for where, name, code in re.findall(r'\((VALID|MUTANTS) / "([^"]+)", (\d)\)', text):
        out["check", f"{where.lower()}/{name}"] = int(code)
    pattern = r'main\(\["(\w+)", str\((VALID|MUTANTS) / "([^"]+)"\)\]\) == (\d)'
    for sub, where, name, code in re.findall(pattern, text):
        out[sub, f"{where.lower()}/{name}"] = int(code)
    return out


def child_environment(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env

