"""The witness collector: every violation counted, the first MAX_WITNESSES kept in order.

Each check feeds its violation masks to one ``Witnesses`` collector, which
formats only the cells the report keeps. With the cap lifted the report
holds every witness, so a capped report must hold that list's first
entries and count its whole length. The many-violation inputs spread their
violations over blocks and levels: product-additivity over the pair level
and the levels above it, restricted associativity over row blocks, and the
De Morgan and difference checks over cell blocks and per-element blocks.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FIXTURES,
    flat_semilogic,
    horizontal_sum,
    horizontal_sum_semilogic,
    shuffled_difference_logic,
    structure_file,
)

import qstruct.cli
import qstruct.report
from qstruct import (
    ClosurePair,
    Filter,
    HomomorphismMap,
    Ideal,
    powerset_logic,
    powerset_semiring,
    serialize_structure,
    verify_closure,
    verify_filter,
    verify_homomorphism,
    verify_ideal,
)
from qstruct.report import VerificationReport, Witnesses

SUBCOMMANDS = {"povm": "dilate", "star_algebra": "gns"}
DEFAULT_CAP = qstruct.report.MAX_WITNESSES

# the whole witness list of a larger input is 130-210 MB of dicts; a child
# process gives it back to the system when it exits
CHILD = """
import json, sys
import pytest
from test_report import capped_and_full

with pytest.MonkeyPatch.context() as mp:
    print(json.dumps(capped_and_full(mp, sys.argv[1:])))
"""


def fixture_runs():
    """One CLI run per fixture file: its kind picks the subcommand."""
    runs = []
    for path in sorted(FIXTURES.glob("*/*.json")):
        try:
            kind = json.loads(path.read_text()).get("kind")
        except ValueError:
            kind = None
        if path.name == "powerset2_distribution.json":
            semiring = FIXTURES / "valid" / "powerset2_semiring.json"
            runs.append(["stone", str(semiring), "--distribution", str(path)])
        else:
            runs.append([SUBCOMMANDS.get(kind, "check"), str(path)])
    return runs


@pytest.fixture(scope="module")
def many_violation_runs(tmp_path_factory):
    """check, and stone on a semiring, over inputs with thousands of violations or more."""
    root = tmp_path_factory.mktemp("many")
    semiring = structure_file(flat_semilogic(12)) | {"kind": "boolean_semiring"}
    runs = []
    for name, sub, data in (
        ("flat12", "check", structure_file(flat_semilogic(12))),
        ("flat16", "check", structure_file(flat_semilogic(16))),
        ("hsum4x2^3", "check", structure_file(horizontal_sum_semilogic(4, 3))),
        ("shuffled2^8", "check", serialize_structure(shuffled_difference_logic(8, seed=8))),
        ("flat12-semiring", "stone", semiring),
    ):
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        runs.append([sub, str(path)])
    return runs


def checks_of(monkeypatch, argv):
    """(report, check, witnesses, violation_count) for every check that a CLI run reports.

    The reports are taken before they are turned into JSON, which would copy
    every witness once more.
    """
    reports = []

    def payload(command, reps, **extra):
        reports.extend(reps)
        return {"ok": True}

    monkeypatch.setattr(qstruct.cli, "_payload", payload)
    monkeypatch.setattr(qstruct.cli, "_emit", lambda args, payload, reps: 0)
    with contextlib.redirect_stdout(io.StringIO()):
        qstruct.cli.main(argv)
    return [
        (rep.subject, c.name, c.witnesses, c.violation_count) for rep in reports for c in rep.checks
    ]


def capped_and_full(monkeypatch, argv):
    """Per check: its witnesses and count at the default cap, and the same with the cap lifted.

    Of the whole list only its first entries and its length are returned.
    """
    monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", DEFAULT_CAP)
    capped = checks_of(monkeypatch, argv)
    monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", 10**7)
    full = checks_of(monkeypatch, argv)
    assert [c[:2] for c in capped] == [c[:2] for c in full], argv
    return [(c[1], c[2], c[3], f[2][:DEFAULT_CAP], len(f[2]), f[3]) for c, f in zip(capped, full)]


def capped_and_full_in_a_child(argv):
    env = dict(os.environ)
    paths = [str(Path(__file__).parent), str(Path(qstruct.__file__).parents[1])]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(row) for row in json.loads(proc.stdout)]


def test_the_collector_counts_every_cell_and_formats_the_first_ones(monkeypatch):
    monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", 5)
    formatted = []

    def fmt(i, j):
        formatted.append((i, j))
        return {"i": i, "j": j}

    found = Witnesses()
    found.add(np.array([[False, True], [True, True]]), fmt)
    found.extend([{"reason": "listed"}])
    found.add(np.zeros((3, 3), dtype=bool), fmt)
    found.add(np.eye(3, dtype=bool), fmt)
    assert found.count == 7
    assert found.kept == [
        {"i": 0, "j": 1}, {"i": 1, "j": 0}, {"i": 1, "j": 1}, {"reason": "listed"}, {"i": 0, "j": 0}
    ]
    assert formatted == [(0, 1), (1, 0), (1, 1), (0, 0)]  # nothing past the cap is formatted

    rep = VerificationReport()
    rep.record("masked", found)
    rep.record("listed", [{"reason": "one"}])
    rep.record("clean", Witnesses().add(np.zeros(4, dtype=bool), fmt))
    assert [(c.name, c.passed, c.violation_count) for c in rep.checks] == [
        ("masked", False, 7),
        ("listed", False, 1),
        ("clean", True, 0),
    ]


def test_the_default_cap_keeps_the_first_witnesses_of_the_whole_list(
    monkeypatch, many_violation_runs
):
    assert DEFAULT_CAP == 8
    runs = [capped_and_full(monkeypatch, argv) for argv in fixture_runs()]
    runs += [capped_and_full_in_a_child(argv) for argv in many_violation_runs]
    large = 0
    for checks in runs:
        for name, kept, count, first, length, full_count in checks:
            assert kept == first, name
            assert count == full_count == length, name
            large += count > 1000
    assert large >= 10  # the many-violation inputs do cross blocks and levels


def test_a_lowered_cap_keeps_fewer_witnesses_and_the_same_count(
    monkeypatch, many_violation_runs
):
    for argv in fixture_runs() + many_violation_runs:
        monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", DEFAULT_CAP)
        default = checks_of(monkeypatch, argv)
        monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", 3)
        lowered = checks_of(monkeypatch, argv)
        assert len(lowered) == len(default), argv
        for (_, name, kept, count), (_, _, eight, eight_count) in zip(lowered, default):
            assert count == eight_count, (argv, name)
            assert kept == eight[:3], (argv, name)
            assert len(kept) == min(3, count), (argv, name)


def library_runs():
    """Library reports with many violations: homomorphisms from a logic and from a
    semilogic, a filter, an ideal and a closure, each as a call that gives the same
    report every time."""
    rng = np.random.default_rng(18)
    logic, hsum = powerset_logic(6), horizontal_sum(3, 3)
    flat, semiring = flat_semilogic(8), powerset_semiring(6)
    to_hsum = rng.integers(0, hsum.n, size=logic.n).astype(np.int16)
    from_flat = rng.integers(0, hsum.n, size=flat.n).astype(np.int16)
    members = frozenset(rng.choice(semiring.n, 20, replace=False).tolist())
    # everything closes to the top, so only the bottom is open: 31 elements have no open above
    closure = ClosurePair(np.full(32, 31, dtype=np.int16))
    return [
        lambda: verify_homomorphism(HomomorphismMap(logic, hsum, to_hsum)),
        lambda: verify_homomorphism(HomomorphismMap(flat, hsum, from_flat)),
        lambda: verify_filter(semiring, Filter(members)),
        lambda: verify_ideal(semiring, Ideal(members)),
        lambda: verify_closure(powerset_semiring(5), closure),
    ]


def test_library_reports_keep_the_first_witnesses_of_the_whole_list(monkeypatch):
    large = set()
    for run in library_runs():
        monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", DEFAULT_CAP)
        capped = run()
        monkeypatch.setattr(qstruct.report, "MAX_WITNESSES", 10**7)
        full = run()
        assert [c.name for c in capped.checks] == [c.name for c in full.checks]
        for check, whole in zip(capped.checks, full.checks):
            assert check.witnesses == whole.witnesses[:DEFAULT_CAP], check.name
            assert check.violation_count == whole.violation_count == len(whole.witnesses)
            if check.violation_count > DEFAULT_CAP:
                large.add((capped.subject, check.name))
    assert {name for _, name in large} >= {
        "additive", "commutation-preserved", "upward-closed", "product-closed",
        "meet-absorbing", "sum-closed", "open-upper-family",
    }
