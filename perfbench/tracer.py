"""Benchmark-side tracing: spans around the public functions of each layer.

``Tracer.install`` replaces each traced function by a wrapper that records a
span (metric name, start, end, parent span) in memory. A function bound into
other ``qstruct`` modules by ``from ... import`` is replaced in every such
namespace, so calls through any module are seen. Nothing under ``src/`` is
changed; ``uninstall`` puts the originals back.

Run as a script, ``python perfbench/tracer.py SPANS_OUT <qstruct arguments>``
is the traced stand-in for ``python -m qstruct.cli`` in traced cli-corpus
runs: same output and exit code, with the spans written to SPANS_OUT at exit.

A metric's self time is the summed duration of its spans minus the time
covered by their direct child spans. Each module also gets a ``.failed``
count: traced calls that raised ``QstructError``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# metric -> (module, attribute or Class.method) pairs that feed it
TARGETS: dict[str, list[tuple[str, str]]] = {
    "order.bound_tables": [
        ("qstruct.order", "FinitePoset.meet_table"),
        ("qstruct.order", "FinitePoset.join_table"),
    ],
    "order.join_of": [("qstruct.order", "join_of")],
    "order.verify_poset": [("qstruct.order", "verify_poset")],
    "quasilogic.verify_quasilogic": [("qstruct.quasilogic", "verify_quasilogic")],
    "quasilogic.check_de_morgan": [("qstruct.quasilogic", "check_de_morgan")],
    "quasilogic.check_sum_lattice_identity": [
        ("qstruct.quasilogic", "check_sum_lattice_identity")
    ],
    "quasilogic.classify": [("qstruct.quasilogic", "classify")],
    "semilogic.verify_semilogic": [("qstruct.semilogic", "verify_semilogic")],
    "semilogic.summable_families": [("qstruct.semilogic", "summable_families")],
    "ortho.verify_logic": [("qstruct.ortho", "verify_logic")],
    "ortho.is_distributive": [("qstruct.ortho", "is_distributive")],
    "ortho.boolean_criterion": [("qstruct.ortho", "boolean_criterion")],
    "boolean_rep.verify_semiring": [("qstruct.boolean_rep", "verify_semiring")],
    "boolean_rep.maximal_filters": [("qstruct.boolean_rep", "maximal_filters")],
    "boolean_rep.stone_map": [("qstruct.boolean_rep", "stone_map")],
    "boolean_rep.verify_stone": [("qstruct.boolean_rep", "verify_stone")],
    "boolean_rep.represent_distribution": [("qstruct.boolean_rep", "represent_distribution")],
    "matrix_core.op_norm": [("qstruct.matrix_core", "op_norm")],
    "matrix_core.rank_decomposition": [("qstruct.matrix_core", "rank_decomposition")],
    "matrix_core.pseudo_inverse": [("qstruct.matrix_core", "pseudo_inverse")],
    "matrix_core.eig_herm": [("qstruct.matrix_core", "eig_herm")],
    "naimark.verify_povm": [("qstruct.naimark", "verify_povm")],
    "naimark.dilate": [("qstruct.naimark", "dilate")],
    "naimark.verify_dilation": [("qstruct.naimark", "verify_dilation")],
    "gns.verify_algebra": [("qstruct.gns", "verify_algebra")],
    "gns.verify_state": [("qstruct.gns", "verify_state")],
    "gns.gns_construct": [("qstruct.gns", "gns_construct")],
    "gns.verify_gns": [("qstruct.gns", "verify_gns")],
    "gns.schwartz_check": [("qstruct.gns", "schwartz_check")],
    "clan.verify_clan": [("qstruct.clan", "verify_clan")],
    "clan.distributivity_criterion": [("qstruct.clan", "distributivity_criterion")],
    "clan.vector_state": [("qstruct.clan", "vector_state")],
    "clan.bound_tables": [("qstruct.clan", "bound_tables")],
    "io_formats.load": [
        ("qstruct.io_formats", "load_structure"),
        ("qstruct.io_formats", "load_povm"),
        ("qstruct.io_formats", "load_algebra"),
    ],
    "report.to_dict": [("qstruct.report", "VerificationReport.to_dict")],
    "cli.main": [("qstruct.cli", "main")],
}
MODULES = sorted({m.split(".")[0] for m in TARGETS})
# exact count of orthogonal families enumerated (cached lists counted once)
FAMILIES = ("qstruct.semilogic", "Semilogic._all_orthogonal_families")
FAMILY_METRIC = "semilogic.orthogonal_families"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        from qstruct.errors import QstructError

        self.missing = []
        for mod in {mod for targets in TARGETS.values() for mod, _ in targets}:
            importlib.import_module(mod)

        for metric, targets in TARGETS.items():
            module_name = metric.split(".")[0]
            for mod, attr in targets:
                owner, name, original = _resolve(mod, attr)
                if original is None:
                    self.missing.append(f"{mod}:{attr}")
                    continue
                wrapper = self._span_wrapper(metric, module_name, original, QstructError)
                self._patch(owner, name, original, wrapper)
        owner, name, original = _resolve(*FAMILIES)
        if original is None:
            self.missing.append(":".join(FAMILIES))
        else:
            self._patch(owner, name, original, self._family_counter(original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qstruct" and not mod_name.startswith("qstruct."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _span_wrapper(
        self, metric: str, module_name: str, fn: Callable, error: type
    ) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        failed = module_name + ".failed"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error:
                counts[failed] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (metric, start, end, parent)

        return wrapper

    def _family_counter(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            fresh = getattr(self_, "_families", None) is None
            out = fn(self_, *args, **kwargs)
            if fresh:
                counts[FAMILY_METRIC] += len(out)
            return out

        return wrapper

    # -- results -----------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """A pass boundary: span index and a copy of the counters."""
        return len(self.spans), dict(self.counts)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}


def _resolve(module: str, attr: str) -> tuple[Any, str, Any]:
    mod = sys.modules.get(module)
    if mod is None:
        return None, attr, None
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        return cls, name, (vars(cls).get(name) if isinstance(cls, type) else None)
    return mod, attr, getattr(mod, attr, None)


def aggregate(spans: list, counts: dict[str, int], base: int = 0) -> dict[str, float]:
    """calls, self time and counters per metric, over one group of spans.

    ``base`` is the index of ``spans[0]`` in the list its parent indices refer to.
    """
    out: dict[str, float] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for metric, start, end, parent in spans:
        if parent >= base:
            child_time[parent - base] += end - start
    for i, (metric, start, end, _) in enumerate(spans):
        out[metric + ".calls"] += 1
        out[metric + ".self_s"] += (end - start) - child_time[i]
    for key, value in counts.items():
        out[key] += value
    return dict(out)


def per_layer_names() -> list[str]:
    names = []
    for metric in TARGETS:
        names += [metric + ".calls", metric + ".self_s"]
    names.append(FAMILY_METRIC)
    names += [m + ".failed" for m in MODULES]
    return names


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import qstruct.cli

    try:
        return qstruct.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
