#!/usr/bin/env python3
"""qstruct benchmark: time to verdict on four workloads, and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload logic-check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

Workloads: logic-check, semiring-stone, operator, cli-corpus (see README.md).
A run generates the workload's inputs from the seed, times one full pass over
them, then keeps re-timing every input that still fits in ``--seconds``; each
metric is built from per-input medians. Every time is CPU time (user plus
system) of this process and the CLI processes it waits for. Fixed reference
work, timed about once a second between the samples, tracks how fast the
shared machine runs at the moment, and the end-to-end times are scaled by its
nominal time over its median (see README.md): reference_kernel in process, a
fresh interpreter importing standard-library modules on cli-corpus.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes, and prints the per-layer metrics and the tracing
overhead. The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the line before it holds run details (per-input
medians, failed_ratio, environment).

``--workload all`` runs each workload in its own process and prints both
lines for each. ``--smoke`` runs every workload on the smallest rung of its
ladder, traced and untraced, and checks that every metric named in
BENCHMARK.json prints with its unit and that no outcome is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
# BLAS threads in the benchmark's processes and their CLI children: one per
# process keeps timings steady on a shared machine and stays within nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
# Nominal CPU time of reference_kernel; end-to-end times are reported as
# measured CPU time times REFERENCE_S / (median of the run's reference times).
REFERENCE_S = 0.04
# The same for cli-corpus, whose processes spend their time in start-up and
# import, which reference_kernel does not model: under load the kernel slowed
# by half while those processes slowed by an eighth.
REFERENCE_IMPORTS = "import argparse, decimal, fractions, json"
REFERENCE_IMPORTS_S = 0.05
REFERENCE_EVERY_S = 1.0  # wall time between two timings of the reference work
WORKLOAD_NAMES = ("logic-check", "semiring-stone", "operator", "cli-corpus")

END_TO_END_UNITS = {
    "pass_s": "s",
    "clean_s": "s",
    "witness_s": "s",
    "largest_input_s": "s",
    "input_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reference_kernel() -> int:
    """Fixed work in the verifier's mix: numpy scalars read in Python loops, small eigh."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.integers(-1, 96, size=(96, 96))
    hits = 0
    for a in range(5 * 96):
        for c in range(96):
            x = int(table[a % 96, c])
            if x >= 0 and int(table[x, c]) == a % 96:
                hits += 1
    m = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    for k in range(2000):
        w, _ = np.linalg.eigh(m[k % 8].conj().T @ m[k % 8])
        hits += int(w[-1] > 1.0)
    return hits


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--rung",
        choices=("full", "smallest"),
        default="full",
        help="input ladder rung: full workload, or the smallest input of each kind",
    )
    p.add_argument("--smoke", action="store_true", help="self-test on the smallest rung")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def require_sources() -> None:
    """Exit with code 2 unless the package sources and fixtures are in the checkout."""
    needed = [ROOT / "src" / "qstruct" / "__init__.py", ROOT / "tests" / "fixtures"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark needs {', '.join(missing)} under {ROOT}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def fresh_import_seconds(child_env: dict[str, str]) -> float:
    """Time to import qstruct.cli in a new interpreter, measured inside it."""
    code = "import time; t = time.process_time(); import qstruct.cli; print(time.process_time() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def clear_caches() -> None:
    """Empty every function-level cache in qstruct, as a fresh CLI process has them."""
    for name, module in list(sys.modules.items()):
        if name == "qstruct" or name.startswith("qstruct."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Run:
    """One workload run: set-up, warm-up, timed samples and their checks."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.corpus = args.workload == "cli-corpus"
        self.work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.samples: dict[str, list[float]] = {}  # CPU seconds per call
        self.walls: dict[str, list[float]] = {}  # wall seconds per call, for scheduling
        self.reference: list[float] = []  # CPU seconds per timing of the reference work
        self.last_reference = -REFERENCE_EVERY_S
        self.attempted = 0
        self.failures: list[str] = []
        self.witnesses = 0
        self.child_spans = self.work / "child_spans.json"
        self.child_exports: list[dict] = []
        self.plain = [sys.executable, "-m", "qstruct.cli"]
        self.traced_cli = [sys.executable, str(BENCH_DIR / "tracer.py"), str(self.child_spans)]

    # -- set-up ----------------------------------------------------------------------

    def setup(self):
        """Generate and write the inputs, import in a fresh interpreter; repeated.

        Returns the cases, their Env, the set-up times and the import times.
        """
        import numpy as np
        import workloads

        child_env = workloads.child_environment(ROOT)
        setup_s, import_s = [], []
        for _ in range(SETUP_REPEATS):
            self.time_reference(force=True)
            t0 = cpu_seconds()
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            env = workloads.Env(
                ROOT,
                self.work,
                np.random.default_rng(self.args.seed),
                self.args.rung == "smallest",
                child_env,
                self.plain,
            )
            cases = workloads.build(self.args.workload, env)
            import_s.append(fresh_import_seconds(child_env))
            setup_s.append(cpu_seconds() - t0)
        # warm-up: the smallest rung once, untimed, in its own directory
        warm = workloads.Env(
            ROOT,
            self.work / "warmup",
            np.random.default_rng(self.args.seed),
            True,
            child_env,
            self.plain,
        )
        warm.work.mkdir()
        import qstruct.cli  # noqa: F401

        for case in workloads.build(self.args.workload, warm):
            clear_caches()
            case.op()
        return cases, env, setup_s, import_s

    # -- sampling --------------------------------------------------------------------

    def time_reference(self, force: bool = False) -> None:
        """Time the reference work if forced or a second has passed since it last ran."""
        if not force and time.perf_counter() - self.last_reference < REFERENCE_EVERY_S:
            return
        t0 = cpu_seconds()
        if self.corpus:
            subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True, timeout=60)
        else:
            reference_kernel()
        self.reference.append(cpu_seconds() - t0)
        self.last_reference = time.perf_counter()

    def sample(self, case, layer: dict | None = None) -> float:
        """Time one call, check its outcome; fold a traced child's spans into ``layer``."""
        import workloads

        self.time_reference()
        clear_caches()
        w0, t0 = time.perf_counter(), cpu_seconds()
        raw = case.op()
        dt, wall = cpu_seconds() - t0, time.perf_counter() - w0
        self.attempted += 1
        problem = case.expect(raw)
        if problem is not None:
            self.failures.append(f"{case.name}: {problem}")
        if isinstance(raw, tuple):
            self.witnesses += workloads.witness_count(workloads.parse_cli(raw)[1])
        if layer is not None:
            import tracer

            child = json.loads(self.child_spans.read_text())
            self.child_spans.unlink()
            self.child_exports.append(child)
            for key, value in tracer.aggregate(child["spans"], child["counts"]).items():
                layer[key] = layer.get(key, 0) + value
        self.samples.setdefault(case.name, []).append(dt)
        self.walls.setdefault(case.name, []).append(wall)
        return dt

    def fill(self, cases, deadline: float) -> None:
        """Re-time every input whose median still fits before the deadline."""
        while True:
            ran = False
            for case in cases:
                if statistics.median(self.walls[case.name]) <= deadline - time.perf_counter():
                    self.sample(case)
                    ran = True
            if not ran:
                return

    # -- the two run modes ---------------------------------------------------------

    def end_to_end(self) -> dict:
        cases, _, setup_s, _ = self.setup()
        start = time.perf_counter()
        for case in cases:
            self.sample(case)
        self.fill(cases, start + self.args.seconds)
        nominal = REFERENCE_IMPORTS_S if self.corpus else REFERENCE_S
        scale = nominal / statistics.median(self.reference)
        cpu = {c.name: statistics.median(self.samples[c.name]) for c in cases}
        med = {name: t * scale for name, t in cpu.items()}
        sizes = {c.name: sum(os.path.getsize(ROOT / f) for f in c.files) for c in cases}
        largest = max(cases, key=lambda c: sizes[c.name])
        who = resource.RUSAGE_CHILDREN if self.corpus else resource.RUSAGE_SELF
        metrics = {
            "pass_s": sum(med.values()),
            "clean_s": sum(med[c.name] for c in cases if not c.witness),
            "witness_s": sum(med[c.name] for c in cases if c.witness),
            "largest_input_s": med[largest.name],
            "input_p50_s": statistics.median(med.values()),
            "setup_s": statistics.median(setup_s) * scale,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        details = {
            "inputs": {
                c.name: {
                    "class": "witness" if c.witness else "clean",
                    "bytes": sizes[c.name],
                    "samples": len(self.samples[c.name]),
                    "median_s": med[c.name],
                    "median_cpu_s": cpu[c.name],
                    "median_wall_s": statistics.median(self.walls[c.name]),
                }
                for c in cases
            },
            "input_count": len(cases),
            "largest_input": largest.name,
            "setup_cpu_s": setup_s,
            "reference_cpu_s": self.reference,
        }
        return self._result(metrics, END_TO_END_UNITS, details)

    def traced(self) -> dict:
        """Pairs of passes, untraced then traced, while time remains (at least one)."""
        import tracer

        cases, env, _, import_s = self.setup()
        tr = tracer.Tracer()
        start = time.perf_counter()
        passes, untraced, traced = [], [], []
        while True:
            untraced.append(sum(self.sample(c) for c in cases))
            if self.corpus:
                env.runner = self.traced_cli  # CLI children trace themselves
            else:
                tr.install()
            first_span, counts_before = tr.mark()
            self.witnesses = 0
            layer: dict[str, float] = {}
            w0 = time.perf_counter()
            traced.append(sum(self.sample(c, layer if self.corpus else None) for c in cases))
            pair_wall = 2 * (time.perf_counter() - w0)
            if self.corpus:
                env.runner = self.plain
            else:
                tr.uninstall()
                counts = {k: v - counts_before.get(k, 0) for k, v in tr.counts.items()}
                layer = tracer.aggregate(tr.spans[first_span:], counts, first_span)
            layer["report.witnesses"] = self.witnesses
            passes.append(layer)
            if time.perf_counter() - start + pair_wall > self.args.seconds:
                break
        spans = self.child_exports if self.corpus else [tr.export()]
        (WORK_DIR / f"spans-{self.args.workload}-{self.args.seed}.json").write_text(
            json.dumps(spans)
        )
        units = per_layer_units()
        metrics = {name: statistics.median(p.get(name, 0) for p in passes) for name in units}
        metrics["cli.import_s"] = statistics.median(import_s)
        metrics["tracing.overhead_s"] = statistics.median(
            t - u for u, t in zip(untraced, traced)
        )
        details = {
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "tracer_missing": spans[0]["missing"] if spans else [],
        }
        return self._result(metrics, units, details)

    def _result(self, metrics: dict, units: dict, details: dict) -> dict:
        failed = len(self.failures)
        info = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "rung": self.args.rung,
            "failed_ratio": failed / self.attempted,
            "failures": self.failures[:8],
            "environment": environment(),
            **details,
        }
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return {"info": info, "result": result}


def per_layer_units() -> dict[str, str]:
    import tracer

    units = {name: ("s" if name.endswith("_s") else "count") for name in tracer.per_layer_names()}
    units.update({"report.witnesses": "count", "cli.import_s": "s", "tracing.overhead_s": "s"})
    return units


def run_one(args: argparse.Namespace) -> int:
    run = Run(args)
    try:
        out = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


def run_children(args: argparse.Namespace, names, rung: str) -> list[tuple[str, int, dict]]:
    """Run each workload in its own process; relay and return its result line."""
    results = []
    for name in names:
        for trace in (0, 1) if args.smoke else (args.trace,):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(0 if args.smoke else args.seconds),
                "--trace", str(trace),
                "--rung", rung,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
            result = json.loads(lines[-1])
            if args.smoke:
                print(f"smoke: {name} trace {trace}: {result['attempted']} attempted,"
                      f" {result['failed']} failed, {len(result['metrics'])} metrics")
            else:
                print(lines[-2])
                print(lines[-1])
            results.append((name, trace, result))
    return results


def smoke(args: argparse.Namespace) -> int:
    """Self-test: every named metric prints with its unit, no outcome is wrong."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name, trace, result in run_children(args, WORKLOAD_NAMES, "smallest"):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want[trace]:
            problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
        if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
            problems.append(f"{name} trace {trace}: non-numeric metric value")
        if result["failed"] or not result["correct"] or result["attempted"] < 1:
            problems.append(f"{name} trace {trace}: failed_ratio is not 0")
    pinned = {(sub, rel): code for rel, sub, code, _ in workloads.CORPUS}
    for key, code in workloads.acceptance_contract(ROOT).items():
        if key in pinned and pinned[key] != code:
            problems.append(f"corpus table disagrees with tests for {key}: {pinned[key]} != {code}")
        if key not in pinned:
            problems.append(f"corpus table lacks {key}")
    for p in problems:
        print("smoke:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads, inherited by children
    require_sources()
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        run_children(args, WORKLOAD_NAMES, args.rung)
        return 0
    import qstruct

    if ROOT / "src" not in Path(qstruct.__file__).resolve().parents:
        print(f"imported qstruct from {qstruct.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
