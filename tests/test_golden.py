"""Golden ``--json`` output on the fixture corpus.

``check`` and ``stone`` are pinned byte for byte on every structure fixture
(and on the one distribution fixture); ``dilate`` and ``gns`` outputs carry
floats that may move in the last bits with the BLAS build, so for those the
exit code, each check's name and ``passed``, and any error object are pinned.
The files under ``tests/golden/`` were written by ``python
tests/test_golden.py`` and are rewritten the same way when an output changes
on purpose. Fixtures are named relative to their directory, so error details
that carry a path read the same on every checkout.
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

import pytest

from qstruct.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
OPERATOR_KINDS = {"povm": "dilate", "star_algebra": "gns"}


def _kind(path: Path):
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return None  # bad JSON is a structure file that does not parse
    return data.get("kind") if isinstance(data, dict) else None


def corpus() -> list[tuple[str, list[str]]]:
    """(golden key, argv) per run, argv relative to ``FIXTURES``, in file order."""
    runs = []
    for path in sorted(FIXTURES.glob("*/*.json")):
        name = f"{path.parent.name}/{path.name}"
        if path.name.endswith("_distribution.json"):
            semiring = name.replace("_distribution", "_semiring")
            runs.append((f"stone {semiring} {name}", ["stone", semiring, "--distribution", name]))
            continue
        kind = _kind(path)
        if kind in OPERATOR_KINDS:
            runs.append((f"{OPERATOR_KINDS[kind]} {name}", [OPERATOR_KINDS[kind], name]))
        else:
            runs += [(f"{cmd} {name}", [cmd, name]) for cmd in ("check", "stone")]
    return runs


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--json"])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def pinned(argv: list[str], code: int, out: str) -> dict:
    """What the golden file holds for one run."""
    if argv[0] in ("check", "stone"):
        return {"exit": code, "stdout": out}
    payload = json.loads(out)
    if "error" in payload:
        return {"exit": code, "error": payload["error"]}
    checks = [[c["name"], c["passed"]] for r in payload["reports"] for c in r["checks"]]
    return {"exit": code, "checks": checks}


def golden_file(argv: list[str]) -> Path:
    return GOLDEN / ("structures.json" if argv[0] in ("check", "stone") else "operators.json")


@functools.cache
def load_golden() -> dict:
    out = {}
    for path in sorted(GOLDEN.glob("*.json")):
        out |= json.loads(path.read_text())
    return out


def test_the_golden_files_cover_the_corpus():
    keys = [key for key, _ in corpus()]
    assert len(keys) == len(set(keys))
    assert sorted(load_golden()) == sorted(keys)


@pytest.mark.parametrize("key, argv", corpus(), ids=[key for key, _ in corpus()])
def test_json_output_matches_the_golden_file(key, argv):
    assert pinned(argv, *run(argv)) == load_golden()[key]


if __name__ == "__main__":
    files: dict[Path, dict] = {}
    for key, argv in corpus():
        files.setdefault(golden_file(argv), {})[key] = pinned(argv, *run(argv))
    GOLDEN.mkdir(exist_ok=True)
    for path, entries in files.items():
        path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(entries)} runs", file=sys.stderr)
