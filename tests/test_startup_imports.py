"""Start-up cost: a CLI call loads only the modules its subcommand runs.

The subprocess tests start a fresh interpreter, note its sys.modules, then
run cli.main once per command line and report which modules each step has
added since, so every check compares against a bare interpreter.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import riskalign

from .launchers import child_env, run_python
from .test_cli_golden import GOLDEN, GOLDEN_ESCAPED, GOLDEN_USAGE, load_golden, resolve

FIXTURES = Path(__file__).parent / "fixtures"
TAB = str(FIXTURES / "lab_model.tab")
XML = str(FIXTURES / "lab_model.xml")
OVERLAY = str(FIXTURES / "lab.overlay")
REGISTER = str(FIXTURES / "lab.risk")
LAB = ["--model", TAB, "--ruleset", "archimate21", "--overlay", OVERLAY]

# The public names of the package by home module; each must stay exported.
EXPORTS = {
    "analysis": ["CoverageReport", "TraceNode", "coverage", "impact_propagation", "trace"],
    "archimate_xml": ["import_archimate"],
    "builtin_tables": ["builtin_ruleset", "builtin_table_text"],
    "classify": [
        "ClassificationFact", "ClassificationSet", "ReviewEntry", "ReviewOverlay",
        "Tier", "apply_review", "classify_element", "classify_model",
        "parse_overlay", "tier_of", "unmapped_report",
    ],
    "concepts": ["CatalogEntry", "ISSRMConcept", "concept_catalog", "parse_concept"],
    "eamodel": [
        "EAElement", "EAModel", "EARelationship", "export_tabular", "neighbors",
        "normalize_name", "parse_tabular",
    ],
    "errors": ["InputError", "RiskAlignError"],
    "mappings": [
        "AlignmentRule", "AnnotationTarget", "AttributeTarget", "CompositeTarget",
        "ConceptTarget", "MappingKind", "MappingType", "NoTarget", "Ruleset",
        "parse_ruleset", "resolve_rules", "serialize_ruleset", "source_synonyms",
    ],
    "register": [
        "RiskCase", "RiskRegister", "induced_graph", "parse_risk_catalog",
        "validate_register",
    ],
    "riskgraph": [
        "Entity", "Relation", "RelationKind", "RiskGraph", "Severity", "Violation",
        "validate_structure",
    ],
}
SUBMODULES = [*EXPORTS, "cli", "recordio"]

STEPS_CHILD = """\
import sys
bare = set(sys.modules)
from riskalign import cli
for argv in {steps!r}:
    code = cli.main(argv)
    print(repr((code, sorted(set(sys.modules) - bare))))
"""


def run_child(code: str) -> str:
    """Run code in a fresh interpreter that imports this process's riskalign."""
    done = run_python(code, capture_output=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after_each(tmp_path, *steps: list[str]) -> list[set[str]]:
    """Modules a fresh interpreter has added after each command line."""
    out = str(tmp_path / "out.txt")
    argvs = [[*step, "--out", out] for step in steps]
    lines = run_child(STEPS_CHILD.format(steps=argvs)).splitlines()
    assert len(lines) == len(steps)
    loaded = []
    for line in lines:
        code, modules = ast.literal_eval(line)
        assert code in (0, 1)
        loaded.append(set(modules))
    return loaded


def ours(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "riskalign"}


def test_commands_without_a_register_load_no_register_modules(tmp_path):
    loaded = loaded_after_each(
        tmp_path,
        ["import", "--model", TAB],
        ["classify", *LAB],
        ["review", *LAB],
        ["query", "facts", "dev-tablet", *LAB],
        ["query", "neighbors", "dev-tablet", *LAB],
        ["report", "unmapped", *LAB],
        ["query", "supports", "dev-tablet", *LAB],
        ["classify", *LAB, "--stamp"],
    )
    assert ours(loaded[0]) == {
        "riskalign", "riskalign.cli", "riskalign.eamodel", "riskalign.errors",
        "riskalign.recordio",
    }
    for modules in loaded[1:6]:
        assert not ours(modules) & {
            "riskalign.register", "riskalign.riskgraph", "riskalign.analysis"
        }
    assert "riskalign.analysis" in loaded[6]
    assert not ours(loaded[6]) & {"riskalign.register", "riskalign.riskgraph"}
    for modules in loaded:
        assert "datetime" not in modules
        assert "xml.etree.ElementTree" not in modules
        assert "riskalign.archimate_xml" not in modules


def test_validate_loads_no_analysis_and_xml_loads_on_demand(tmp_path):
    loaded = loaded_after_each(
        tmp_path,
        ["validate", *LAB, "--register", REGISTER],
        ["import", "--model", XML],
    )
    assert {"riskalign.register", "riskalign.riskgraph"} <= loaded[0]
    assert "riskalign.analysis" not in loaded[0]
    assert "pyexpat" not in loaded[0]
    # an XML model loads the expat handlers' module, and no ElementTree
    assert {"riskalign.archimate_xml", "pyexpat"} <= loaded[1]
    assert not {name for name in loaded[1] if name.partition(".")[0] == "xml"}


@pytest.mark.parametrize("first", ["trace", "report coverage"])
def test_register_reads_load_riskgraph_only_to_validate(tmp_path, first):
    # trace and report coverage read a register but build no risk graph, so
    # only validate loads the graph validator.
    reads = {
        "trace": ["trace", "r1", *LAB, "--register", REGISTER],
        "report coverage": ["report", "coverage", *LAB, "--register", REGISTER],
    }
    second = next(name for name in reads if name != first)
    validate = ["validate", *LAB, "--register", REGISTER]
    alone, both, validated = loaded_after_each(
        tmp_path, reads[first], reads[second], validate
    )
    assert {"riskalign.register", "riskalign.analysis"} <= alone
    assert "riskalign.riskgraph" not in both
    assert "riskalign.riskgraph" in validated


def test_import_riskalign_loads_no_submodule():
    code = "import sys, riskalign\nprint(sorted(sys.modules))"
    modules = ast.literal_eval(run_child(code))
    assert ours(set(modules)) == {"riskalign"}


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    code = (
        "import riskalign\n"
        f"print([getattr(riskalign, name).__name__ for name in {SUBMODULES!r}])"
    )
    names = ast.literal_eval(run_child(code))
    assert names == [f"riskalign.{name}" for name in SUBMODULES]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exported_names_are_their_home_module_objects(module):
    home = importlib.import_module(f"riskalign.{module}")
    for name in EXPORTS[module]:
        assert getattr(riskalign, name) is getattr(home, name)


def test_star_import_binds_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from riskalign import *", namespace)
    for names in EXPORTS.values():
        for name in names:
            assert namespace[name] is getattr(riskalign, name)
    assert set(riskalign.__all__) == {n for names in EXPORTS.values() for n in names}
    assert set(riskalign.__all__) <= set(dir(riskalign))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        riskalign.no_such_name  # noqa: B018
    assert not hasattr(riskalign, "validate_structures")
    with pytest.raises(AttributeError, match="usage"):
        riskalign.usage  # noqa: B018  cli renders help and usage errors itself


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    code = (
        "import sys\nbare = set(sys.modules)\nfrom riskalign import cli\n"
        "print(sorted(set(sys.modules) - bare))"
    )
    heavy = {"dataclasses", "inspect"}
    assert not set(ast.literal_eval(run_child(code))) & heavy
    loaded = loaded_after_each(
        tmp_path,
        ["import", "--model", XML],
        ["classify", *LAB],
        ["review", *LAB],
        ["validate", *LAB, "--register", REGISTER],
        ["report", "unmapped", *LAB],
        ["report", "coverage", *LAB, "--register", REGISTER],
        ["trace", "r1", *LAB, "--register", REGISTER, "--format", "records"],
        ["query", "supports", "dev-tablet", *LAB],
        ["query", "facts", "dev-tablet", *LAB],
        ["query", "neighbors", "dev-tablet", *LAB],
    )
    for modules in loaded:
        assert not modules & heavy


def test_no_call_loads_argparse_gettext_or_locale():
    argvs = [
        resolve(case["argv"])
        for path in (GOLDEN, GOLDEN_ESCAPED) for case in load_golden(path).values()
    ]
    usage_cases = load_golden(GOLDEN_USAGE).values()
    usage = [case["argv"] for case in usage_cases]
    code = (
        "import contextlib, io, sys\nbare = set(sys.modules)\n"
        "from riskalign import cli\n"
        "def run(argvs):\n"
        "    codes = []\n"
        "    for argv in argvs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "            try:\n"
        "                codes.append(cli.main(argv))\n"
        "            except SystemExit as exc:\n"
        "                codes.append(exc.code)\n"
        "    return codes, sorted(set(sys.modules) - bare)\n"
        f"print(repr([run({argvs!r}), run({usage!r})]))"
    )
    golden_run, usage_run = ast.literal_eval(run_child(code))
    (codes, after_golden), (usage_codes, after_usage) = golden_run, usage_run
    assert len(codes) == len(argvs) > 180
    assert set(codes) == {0, 1, 2}
    assert usage_codes == [case["exit"] for case in usage_cases]
    assert "riskalign.archimate_xml" in after_golden
    loaded = after_golden + after_usage
    assert not {name for name in loaded if name.partition(".")[0] == "xml"}
    assert not set(after_usage) & {"argparse", "gettext", "locale"}


def test_help_and_usage_errors_load_only_the_clean_call_modules():
    # cli renders help and usage errors from its command table, so they load
    # no riskalign module that `import --model x.tab` does not.
    usage_cases = load_golden(GOLDEN_USAGE).values()
    usage = [case["argv"] for case in usage_cases]
    code = (
        "import contextlib, io, sys\nbare = set(sys.modules)\n"
        "from riskalign import cli\n"
        "codes = []\n"
        f"for argv in {usage!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            codes.append(cli.main(argv))\n"
        "        except SystemExit as exc:\n"
        "            codes.append(exc.code)\n"
        "print(repr((codes, sorted(set(sys.modules) - bare))))"
    )
    codes, loaded = ast.literal_eval(run_child(code))
    assert codes == [case["exit"] for case in usage_cases]
    assert set(codes) == {0, 2}
    assert ours(set(loaded)) == {
        "riskalign", "riskalign.cli", "riskalign.eamodel", "riskalign.errors",
        "riskalign.recordio",
    }


def test_no_command_loads_typing_re_contextlib_or_warnings_without_site(tmp_path):
    """Under `python -S`, no subcommand loads typing, re, contextlib or warnings.

    Without -S, site loads typing and re before the CLI runs, so the check
    would pass on any code. The child calls cli.main, as the console script
    does, and not `python -m riskalign.cli`: runpy itself loads contextlib
    and warnings.
    """
    out = str(tmp_path / "out.txt")
    steps = []
    for model in (TAB, XML):
        lab = ["--model", model, "--ruleset", "archimate21", "--overlay", OVERLAY]
        steps += [
            ["import", "--model", model],
            ["classify", *lab],
            ["review", *lab],
            ["validate", *lab, "--register", REGISTER],
            ["report", "unmapped", *lab],
            ["report", "coverage", *lab, "--register", REGISTER],
            ["trace", "r1", *lab, "--register", REGISTER],
            ["query", "supports", "dev-tablet", *lab],
            ["query", "facts", "dev-tablet", *lab],
            ["query", "neighbors", "dev-tablet", *lab],
        ]
    code = STEPS_CHILD.format(steps=[[*step, "--out", out] for step in steps])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(steps) == 20
    for step, line in zip(steps, lines):
        code, modules = ast.literal_eval(line)
        assert code == 0, step
        assert "riskalign.cli" in modules
        assert not set(modules) & {"typing", "re", "contextlib", "warnings"}, step
