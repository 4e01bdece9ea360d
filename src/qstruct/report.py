"""Verification reports: an ordered list of named checks with witnesses.

Every ``verify_*`` function returns one of these instead of raising on the
first failure, so a report can show all broken axioms of a fixture at once.
Witnesses are plain dicts keyed by role (e.g. ``{"b": "1", "a": "x"}``) so they
serialize directly into the CLI's JSON output.

A check's ``violation_count`` counts every violation, and its ``witnesses``
hold the first ``MAX_WITNESSES`` in the check's own order. A check feeds its
violation masks to one ``Witnesses`` collector, which counts each mask and
formats only the cells it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

MAX_WITNESSES = 8


class Witnesses:
    """One check's violations: all of them counted, the first ``MAX_WITNESSES`` kept.

    The cap is read at each call, so a caller may raise it (tests compare
    whole lists that way).
    """

    def __init__(self) -> None:
        self.count = 0
        self.kept: list[dict[str, Any]] = []

    def add(self, mask: Any, fmt: Callable[..., dict[str, Any]]) -> "Witnesses":
        """Count the True cells of ``mask``; format the first ones, row-major, while room is left.

        ``fmt`` gets a kept cell's index, one int per axis of ``mask``.
        """
        import numpy as np

        count = int(np.count_nonzero(mask))
        room = MAX_WITNESSES - len(self.kept)
        if count and room > 0:
            first = np.unravel_index(np.flatnonzero(mask)[:room], np.shape(mask))
            self.kept += (fmt(*cell) for cell in zip(*(axis.tolist() for axis in first)))
        self.count += count
        return self

    def extend(self, violations: Iterable[dict[str, Any]]) -> "Witnesses":
        """Add violations that are already formatted, in order."""
        found = list(violations)
        self.kept += found[: max(0, MAX_WITNESSES - len(self.kept))]
        self.count += len(found)
        return self


def labelled(labels: Any, *keys: str, **values: Any) -> Callable[..., dict[str, Any]]:
    """A ``Witnesses.add`` formatter: the k-th key names the label at the cell's k-th index.

    Each keyword then names the float its array holds at the cell.
    """

    def fmt(*cell: int) -> dict[str, Any]:
        named = {key: labels[i] for key, i in zip(keys, cell)}
        return named | {key: float(array[cell]) for key, array in values.items()}

    return fmt


@dataclass
class Check:
    name: str
    passed: bool
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    violation_count: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": _jsonable(self.witnesses),
            "violation_count": self.violation_count,
        }


class VerificationReport:
    def __init__(self, subject: str = ""):
        self.subject = subject
        self.checks: list[Check] = []
        # free-form derived facts (classification labels, tables, masses...)
        self.facts: dict[str, Any] = {}

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, violations: Any, fmt: Callable[..., dict] | None = None) -> Check:
        """Close out one named check; no violations means it passed.

        ``violations`` is a ``Witnesses`` collector, a list of witnesses, or
        with ``fmt`` one mask for a fresh collector.
        """
        if fmt is not None:
            violations = Witnesses().add(violations, fmt)
        elif not isinstance(violations, Witnesses):
            violations = Witnesses().extend(violations)
        check = Check(name, not violations.count, violations.kept, violations.count)
        self.checks.append(check)
        return check

    def get(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(c.name == name for c in self.checks)

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                Check(prefix + c.name, c.passed, c.witnesses, c.violation_count)
            )
        for key, value in other.facts.items():
            self.facts.setdefault(prefix + key if prefix else key, value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "facts": _jsonable(self.facts),
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if not c.passed:
                line += f"  ({c.violation_count} violation"
                line += "s)" if c.violation_count != 1 else ")"
                for w in c.witnesses[:3]:
                    line += "\n         witness: " + _fmt_witness(w)
            out.append(line)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else "FAILED"
        return f"<VerificationReport {self.subject!r} {state} checks={len(self.checks)}>"


def _fmt_witness(w: dict[str, Any]) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in w.items())


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of facts to JSON-friendly types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [_jsonable(v) for v in value.tolist()]
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value
