"""Command line front end.

Exit codes follow the error taxonomy: 0 all checks passed, 1 a check failed
or an operation hit a semantic precondition (DomainError and friends), 2 the
input could not be parsed into a well-formed structure. ``--json`` swaps the
human report for one machine-readable object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError, ParseError, QstructError, StructuralError

if TYPE_CHECKING:
    from .matrix_core import Tolerance
    from .report import VerificationReport

# the keys of properties.SUITES, in order: the parser is built without loading the suites
SUITE_NAMES = "order quasilogic semilogic stone matrix clan gns naimark io".split()

DEFAULT_EPS = 1e-9
TOL_ENV = "QSTRUCT_TOL"


def _tolerance(args: argparse.Namespace) -> Tolerance:
    from .matrix_core import Tolerance

    eps = getattr(args, "tol", None)
    if eps is None:
        raw = os.environ.get(TOL_ENV)
        try:
            eps = float(raw) if raw else DEFAULT_EPS
        except ValueError:
            raise ParseError(f"{TOL_ENV} is not a number", value=raw) from None
    if not math.isfinite(eps):
        raise ParseError("tolerance must be a finite number", value=str(eps))
    return Tolerance.with_eps(eps)


def _not_negative(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise ParseError(f"--{name} must not be negative", **{name: value})


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError("cannot write file", path=path, error=exc.strerror) from exc


def _emit(args: argparse.Namespace, payload: dict, reports: list[VerificationReport]) -> int:
    ok = bool(payload["ok"])
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    for rep in reports:
        print(f"subject: {rep.subject}")
        for line in rep.lines():
            print(line)
        facts = rep.to_dict()["facts"]
        for key, value in facts.items():
            print(f"  {key}: {json.dumps(value)}")
    for key in ("classification", "output_path"):
        if key in payload:
            print(f"{key}: {payload[key]}")
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def _payload(command: str, reports: list[VerificationReport], **extra) -> dict:
    return {
        "command": command,
        "ok": all(r.ok for r in reports),
        "reports": [r.to_dict() for r in reports],
        **extra,
    }


def cmd_check(args: argparse.Namespace) -> int:
    from importlib import import_module

    from .io_formats import KINDS, kind_of, load_structure

    obj = load_structure(args.file)
    kind = kind_of(obj)
    module, _, verifier, _ = KINDS[kind]  # loading imported this module, no other kind's
    verify = getattr(import_module(f".{module}", __package__), verifier)
    reports, extra = [verify(obj)], {}
    if kind in ("quasilogic", "ortho_logic"):
        from .quasilogic import check_de_morgan, check_sum_lattice_identity, classify

        reports += [check_de_morgan(obj), check_sum_lattice_identity(obj)]
        extra["classification"] = classify(obj)
    return _emit(args, _payload("check", reports, **extra), reports)


def cmd_stone(args: argparse.Namespace) -> int:
    from .boolean_rep import BooleanSemiring, represent_distribution, stone_map
    from .boolean_rep import verify_semiring, verify_stone
    from .io_formats import load_distribution, load_structure

    obj = load_structure(args.file)
    if not isinstance(obj, BooleanSemiring):
        raise DomainError(
            "stone representation needs a boolean semiring", kind=type(obj).__name__
        )
    reports = [verify_semiring(obj)]
    sr = stone_map(obj)
    srep = verify_stone(sr)
    srep.facts["extents"] = {
        obj.labels[b]: sorted(sr.extent[b]) for b in range(obj.n)
    }
    reports.append(srep)
    extra: dict = {
        "points": [sorted(obj.labels[i] for i in f.members) for f in sr.points]
    }
    if args.distribution:
        dist = load_distribution(args.distribution, obj)
        measure, mrep = represent_distribution(sr, dist)
        rows = sorted((len(s), sorted(s), v) for s, v in measure.items())  # sets are distinct
        mrep.facts["measure"] = {"{" + ",".join(map(str, s)) + "}": v for _, s, v in rows}
        reports.append(mrep)
    return _emit(args, _payload("stone", reports, **extra), reports)


def cmd_dilate(args: argparse.Namespace) -> int:
    from .io_formats import load_povm, serialize_dilation
    from .naimark import dilate, verify_dilation, verify_povm

    tol = _tolerance(args)
    povm = load_povm(args.file)
    reports = [verify_povm(povm, tol)]
    dil = dilate(povm, tol)
    reports.append(verify_dilation(dil, tol))
    extra: dict = {}
    if args.out:
        _write_text(args.out, json.dumps(serialize_dilation(dil), indent=2))
        extra["output_path"] = args.out
    return _emit(args, _payload("dilate", reports, **extra), reports)


def cmd_gns(args: argparse.Namespace) -> int:
    from .gns import check_sample_count, gns_construct, schwartz_check, verify_algebra
    from .gns import verify_gns, verify_state
    from .io_formats import load_algebra

    _not_negative(args, "samples", "seed")
    tol = _tolerance(args)
    alg, state = load_algebra(args.file)
    check_sample_count(args.samples, alg.n)  # before any work is spent on the state
    if state is None:
        raise DomainError("algebra file declares no state to represent")
    reports = [verify_algebra(alg, tol), verify_state(alg, state, tol)]
    rep_obj = gns_construct(alg, state, tol)
    reports.append(verify_gns(rep_obj, tol))
    reports.append(schwartz_check(alg, state, samples=args.samples, seed=args.seed, tol=tol))
    return _emit(args, _payload("gns", reports), reports)


def cmd_property(args: argparse.Namespace) -> int:
    from .properties import SUITES, run_suite

    _not_negative(args, "seed")
    tol = _tolerance(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, seed=args.seed, tol=tol) for name in names]
    ok = all(r.passed for r in results)
    payload = {
        "command": "property",
        "ok": ok,
        "seed": args.seed,
        "suites": [r.to_dict() for r in results],
    }
    if not ok:
        witness = {
            "seed": args.seed,
            "failures": [r.to_dict() for r in results if not r.passed],
        }
        _write_text(args.witness, json.dumps(witness, indent=2, default=repr))
        payload["witness_path"] = args.witness
    if args.json:
        print(json.dumps(payload, indent=2, default=repr))
        return 0 if ok else 1
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        line = f"  [{mark}] {r.name:<12} ({r.cases} cases)"
        if r.witness is not None:
            line += f"\n         witness: {r.witness.get('case', '?')}"
        print(line)
    if not ok:
        print(f"witness written to {args.witness}")
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstruct",
        description="Verify finite event structures and build their representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol: bool = True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if tol:
            p.add_argument(
                "--tol",
                type=float,
                default=None,
                help=f"numeric tolerance (default {DEFAULT_EPS}, or ${TOL_ENV})",
            )

    p = sub.add_parser("check", help="verify the axioms of a structure file")
    p.add_argument("file", help="structure JSON file")
    common(p, tol=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("stone", help="represent a boolean semiring by sets of points")
    p.add_argument("file", help="boolean semiring JSON file")
    p.add_argument(
        "--distribution", help="JSON file with a 'values' map to carry along", default=None
    )
    common(p, tol=False)
    p.set_defaults(fn=cmd_stone)

    p = sub.add_parser("dilate", help="dilate a POVM to a projective measure")
    p.add_argument("file", help="POVM JSON file")
    p.add_argument("--out", help="write the dilation to this JSON file", default=None)
    common(p)
    p.set_defaults(fn=cmd_dilate)

    p = sub.add_parser("gns", help="build the cyclic representation of a state")
    p.add_argument("file", help="algebra JSON file with a state")
    p.add_argument("--samples", type=int, default=1000, help="schwartz sample pairs")
    p.add_argument("--seed", type=int, default=0, help="schwartz sampling seed")
    common(p)
    p.set_defaults(fn=cmd_gns)

    p = sub.add_parser("property", help="run randomized self-check suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITE_NAMES],
        help="which suite to run (default all)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--witness",
        default="qstruct-witness.json",
        help="where to write the failure witness (only on failure)",
    )
    common(p)
    p.set_defaults(fn=cmd_property)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QstructError as exc:
        code = 2 if isinstance(exc, (ParseError, StructuralError)) else 1
        if args.json:
            print(
                json.dumps(
                    {
                        "command": args.command,
                        "ok": False,
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                            "details": exc.details,
                        },
                    },
                    indent=2,
                    default=repr,
                )
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
            for key, value in exc.details.items():
                print(f"  {key}: {value!r}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
