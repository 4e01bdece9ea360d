"""Start-up: each CLI process imports only the modules its subcommand runs.

The module-loading tests run a fresh interpreter, since this test process has
long since imported everything. The namespace test pins every public name
that ``qstruct`` resolved when its ``__init__`` still imported all
submodules eagerly.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qstruct
import qstruct.cli
from qstruct.properties import SUITES

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
    env = dict(os.environ)
    src = str(Path(qstruct.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
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
