"""Start-up: each CLI process imports only the modules its subcommand runs.

The module-loading tests run a fresh interpreter, since this test process has
long since imported everything. The namespace test pins every public name
that ``qstruct`` resolved when its ``__init__`` still imported all
submodules eagerly. The process entry ``cli.run`` is tested the same way: it
must print what ``cli.main`` prints in process, with no collector pass.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from conftest import atom_semiring

import qstruct
import qstruct.cli
from qstruct.io_formats import serialize_structure
from qstruct.properties import SUITES

ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict[str, str]:
    """This environment, with the qstruct under test first on the path."""
    env = dict(os.environ)
    src = str(Path(qstruct.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


PUBLIC_NAMES = """
AlgebraState AxiomViolationError BooleanSemiring CLASSIFICATION_LABELS Check Clan
ClosurePair ConcreteStarAlgebra ConstructionError Dilation DistributionTable
DomainError Filter FinitePoset FinitePovm GnsRepresentation HomomorphismMap Ideal
OrthoLogic ParseError QstructError Quasilogic SUITES Semilogic StoneRepresentation
StructuralError SubsetTopology SuiteResult Tolerance VerificationReport atoms
boolean_criterion boolean_rep canonical_phases chain_quasilogic
check_de_morgan check_regularity check_sum_lattice_identity clan classify
diamond_semiring difference_table dilate distributivity_criterion errors gns
gns_construct gram_matrix induced_homomorphism io_formats is_distributive
is_orthoprojection is_upward_directed join join_of load_algebra load_povm
load_structure matrix_core maximal_filters meet mo2_logic mo2_quasilogic
mo2_semilogic mobius_blocks naimark o6_logic observable_norm op_norm
operator_distribution operator_order order ortho parse_algebra parse_povm
parse_structure partial_sum positive_parts povm_from_outcomes powerset_logic
powerset_poset powerset_quasilogic powerset_semiring properties pseudo_inverse
quasicommutes quasilogic quasiproduct range_join range_meet
rank_decomposition report represent_distribution run_suite
run_suites schwartz_check segment segment_logic semilogic serialize_algebra
serialize_dilation serialize_povm serialize_structure shuffled_powerset_logic
shuffled_powerset_semiring standard stone_map structures_equal
subset_semilogic summable summable_families support transitive_reduction
unitary_equivalence vector_state verify_algebra verify_clan verify_closure
verify_dilation verify_distribution verify_filter verify_gns verify_homomorphism
verify_ideal verify_logic verify_observable verify_poset verify_povm
verify_quasilogic verify_semilogic verify_semiring verify_state verify_stone
verify_topology
""".split()

OPERATOR_MODULES = {"gns", "clan", "naimark", "properties", "standard"}


def loaded_modules(*argv: str) -> set[str]:
    """numpy and the qstruct submodules a new interpreter holds after ``qstruct <argv>``.

    With no arguments, after ``import qstruct.cli`` alone.
    """
    code = (
        "import contextlib, io, json, sys\n"
        "import qstruct.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert qstruct.cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    return {n.removeprefix("qstruct.") for n in names if n.startswith("qstruct.")} | (
        {"numpy"} & set(names)
    )


def test_importing_the_cli_loads_no_numpy():
    assert loaded_modules() == {"cli", "errors"}


def test_check_on_a_logic_loads_no_operator_module(valid_dir):
    loaded = loaded_modules("check", str(valid_dir / "powerset4_logic.json"))
    assert {"io_formats", "ortho", "quasilogic"} <= loaded
    assert not loaded & OPERATOR_MODULES


def test_check_on_a_logic_or_a_poset_loads_no_semilogic_module(valid_dir):
    # the kind's module is loaded by the file; the semilogic path is never imported
    for name in ("powerset4_logic.json", "poset_n.json"):
        loaded = loaded_modules("check", str(valid_dir / name))
        assert not loaded & {"semilogic", "boolean_rep", "matrix_core"}, name


def test_dilate_loads_neither_gns_nor_properties(valid_dir):
    loaded = loaded_modules("dilate", str(valid_dir / "trine_povm.json"))
    assert "naimark" in loaded
    assert not loaded & {"gns", "properties"}


def test_dilate_on_a_listed_semiring_loads_no_standard(valid_dir):
    # only outcome lists build their powerset through standard
    loaded = loaded_modules("dilate", str(valid_dir / "pvm2_by_reference.json"))
    assert "naimark" in loaded
    assert "standard" not in loaded


def test_gns_loads_no_structure_kind_module(valid_dir):
    # io_formats resolves a file kind's class by name, when a file of that kind is read
    loaded = loaded_modules("gns", str(valid_dir / "m2_algebra.json"))
    assert {"gns", "io_formats"} <= loaded
    assert not loaded & {"boolean_rep", "ortho", "quasilogic", "semilogic"}


def test_every_public_name_still_resolves():
    assert sorted(qstruct.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(qstruct))
    home = qstruct._HOME
    for name in PUBLIC_NAMES:
        value = getattr(qstruct, name)
        if name in home:
            assert value is getattr(getattr(qstruct, home[name]), name), name
        else:
            assert isinstance(value, types.ModuleType) and value.__name__ == f"qstruct.{name}"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qstruct.no_such_name
    with pytest.raises(ImportError):
        from qstruct import no_such_name  # noqa: F401


def test_cli_suite_names_are_the_suites():
    assert list(qstruct.cli.SUITE_NAMES) == list(SUITES)


def test_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        qstruct.cli.main(["property", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


# -- the process entry ------------------------------------------------------------


def corpus_argvs() -> list[list[str]]:
    """The benchmark's fixture corpus, one argv per fixture, as its CLI processes run it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    fixtures = ROOT / "tests" / "fixtures"
    argvs = []
    for rel, sub, _, _ in workloads.CORPUS:
        path = str(fixtures / rel)
        if rel.endswith("powerset2_distribution.json"):
            semiring = str(fixtures / "valid" / "powerset2_semiring.json")
            argvs.append([sub, semiring, "--distribution", path])
        else:
            argvs.append([sub, path])
    return argvs


def test_the_entry_prints_what_main_prints_on_the_corpus(capsys):
    argvs = [argv + flag for argv in corpus_argvs() for flag in ([], ["--json"])]
    assert len(argvs) == 78

    def by_process(argv):
        return subprocess.run(
            [sys.executable, "-m", "qstruct.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(by_process, argvs))
    for argv, proc in zip(argvs, procs):
        code = qstruct.cli.main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out), argv
        assert "Traceback" not in proc.stderr, argv


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, valid_dir, mutants_dir, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        for argv in (
            ["check", str(valid_dir / "chain3.json")],
            ["dilate", str(valid_dir / "trine_povm.json"), "--json"],
            ["check", str(mutants_dir / "bad_json.json")],
        ):
            qstruct.cli.main(argv)
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_the_entry_runs_no_collection(valid_dir):
    # the same child through main() is the control: the hook does see collections there
    code = (
        "import gc, json, sys\n"
        "import qstruct.cli\n"
        "entry = getattr(qstruct.cli, sys.argv.pop(1))\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
        "code = entry()\n"
        "gc.callbacks.clear()\n"
        "print(json.dumps([code, len(starts), gc.get_freeze_count() > 0]))\n"
    )
    seen = {}
    for entry in ("run", "main"):
        proc = subprocess.run(
            [sys.executable, "-c", code, entry, "dilate", str(valid_dir / "trine_povm.json")],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        seen[entry] = json.loads(proc.stdout.splitlines()[-1])
    assert seen["run"] == [0, 0, True]
    code, starts, frozen = seen["main"]
    assert (code, frozen) == (0, False) and starts > 0


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("report, read", [("large", 1), ("large --json", 1), ("small", 0)])
def test_a_reader_that_closes_early_ends_the_run_with_exit_2(
    tmp_path, valid_dir, report, read, unbuffered
):
    # The large report (about 150 kB plain, 200 kB as JSON) is more than the
    # pipe holds, so the child is still writing when the reader goes away.
    # The small one has no reader from the start, so a buffered stdout still
    # holds it for the flush at shutdown.
    s = atom_semiring(12)
    path, dist = tmp_path / "atoms.json", tmp_path / "uniform.json"
    path.write_text(json.dumps(serialize_structure(s)))
    dist.write_text(json.dumps({"values": {label: 1 / 12 for label in s.labels[1:]}}))
    argv = {
        "large": ["stone", str(path), "--distribution", str(dist)],
        "large --json": ["stone", str(path), "--distribution", str(dist), "--json"],
        "small": ["check", str(valid_dir / "chain3.json")],
    }[report]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qstruct.cli", *argv],
        stdout=writer,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(writer)
    if read:
        assert len(os.read(reader, read)) == read
        os.close(reader)
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err
