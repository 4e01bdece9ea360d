"""The randomized self-check suites behind `qstruct property`.

Each suite is run at a couple of fixed seeds; they are supposed to be clean
on the shipped code, and deterministic for a given seed. A suite stops at its
first failing case, which is its witness: the case counts are pinned, and a
verifier forced to fail shows that nothing after the failing case runs.
"""

import pytest

import qstruct.properties
from qstruct import QstructError, Tolerance
from qstruct.properties import SUITES, SuiteResult, run_suite, run_suites

# cases per clean suite; the same at seeds 0, 1 and 2
CASES = {
    "order": 15,
    "quasilogic": 397,
    "semilogic": 13,
    "stone": 34,
    "matrix": 24,
    "clan": 7,
    "gns": 20,
    "naimark": 20,
    "io": 16,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_seed_zero(name):
    result = run_suite(name, seed=0)
    assert result.passed, result.witness
    assert result.name == name
    assert result.cases > 0
    assert result.witness is None


def test_suites_are_deterministic_per_seed():
    a = run_suite("stone", seed=7)
    b = run_suite("stone", seed=7)
    assert (a.passed, a.cases) == (b.passed, b.cases)


def test_unknown_suite_is_rejected():
    with pytest.raises(QstructError) as err:
        run_suite("nonsense")
    assert err.value.details["available"] == sorted(SUITES)


def test_run_suites_preserves_order():
    results = run_suites(["gns", "order"], seed=3, tol=Tolerance())
    assert [r.name for r in results] == ["gns", "order"]
    assert all(r.passed for r in results)


def test_result_serialization():
    clean = SuiteResult(name="x", passed=True, cases=5).to_dict()
    assert clean == {"suite": "x", "passed": True, "cases": 5}
    failed = SuiteResult(name="x", passed=False, cases=5, witness={"case": "w"}).to_dict()
    assert failed["witness"] == {"case": "w"}


@pytest.mark.parametrize("seed", [1, 2])
def test_all_suites_stay_clean_at_other_seeds(seed):
    for result in run_suites(sorted(SUITES), seed=seed):
        assert result.passed, (result.name, result.witness)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clean_suites_count_every_case(seed):
    assert {r.name: r.cases for r in run_suites(list(SUITES), seed=seed)} == CASES


def test_a_suite_stops_at_its_first_failing_case(monkeypatch):
    calls = {"verify_semiring": 0, "stone_map": 0}
    verify_semiring = qstruct.properties.verify_semiring
    stone_map = qstruct.properties.stone_map

    def failing_third(bs):
        calls["verify_semiring"] += 1
        rep = verify_semiring(bs)
        if calls["verify_semiring"] == 3:
            rep.record("forced", [{"call": 3}])
        return rep

    def counted(bs):
        calls["stone_map"] += 1
        return stone_map(bs)

    monkeypatch.setattr(qstruct.properties, "verify_semiring", failing_third)
    monkeypatch.setattr(qstruct.properties, "stone_map", counted)
    result = run_suite("stone", seed=0)
    assert not result.passed
    # the third semiring is k=2, s=0; the two before it ran their four cases each
    assert result.witness == {"case": "semiring-verifies k=2", "failed_checks": ["forced"]}
    assert result.cases == 2 * 4 + 1
    assert calls == {"verify_semiring": 3, "stone_map": 2}
    assert result.to_dict()["witness"] == result.witness
