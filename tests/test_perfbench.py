"""The benchmark's self-test, run as Tier-1.

``perfbench/run.py --smoke`` runs every workload on its smallest rung, with
and without tracing, and checks each outcome against the generator's oracle
(for example the Naimark dimension of every generated POVM) and every metric
name against BENCHMARK.json. The tracer must also find every function it
wraps: a renamed or removed target would silently drop a per-layer metric.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines()


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()
