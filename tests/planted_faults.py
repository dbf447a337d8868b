"""Planted faults kept as a check: each row plants one fault in a fresh copy
of the tree and runs the test files that must catch it.

    python3 tests/planted_faults.py

A row holds a file, an exact old text that must occur exactly once in it,
the new text, and the test files to run. The script first runs every listed
test file once on an unmodified copy, and that run must pass. Then, for each
row, it plants the fault in a new temporary copy of src/ and tests/ (with
perfbench/, pyproject.toml and README.md, which the tests read) and runs the row's
files. A row is killed when pytest exits 1, that is when a test fails. The
script prints each row's outcome and exits 1 if any row survives, errors
(any other exit status, such as a collection error) or has a missing
anchor. The checkout is only read.

A change that adds a rule or a fast path adds a row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


REGISTER_TESTS = ("tests/test_register.py", "tests/test_indexes.py")
REVIEW_TESTS = ("tests/test_classify.py", "tests/test_indexes.py")
FAULTS = [
    Fault("criterion rule counts the related tier", "src/riskalign/register.py",
          "(Tier.DEFINITE, Tier.CANDIDATE)",
          "(Tier.DEFINITE, Tier.CANDIDATE, Tier.RELATED)", REGISTER_TESTS),
    Fault("criterion rule counts the annotation tier", "src/riskalign/register.py",
          "(Tier.DEFINITE, Tier.CANDIDATE)",
          "(Tier.DEFINITE, Tier.CANDIDATE, Tier.ANNOTATION)", REGISTER_TESTS),
    Fault("binding priority swapped", "src/riskalign/register.py",
          "_BINDING_PRIORITY = (ISSRMConcept.IS_ASSET, ISSRMConcept.BUSINESS_ASSET)",
          "_BINDING_PRIORITY = (ISSRMConcept.BUSINESS_ASSET, ISSRMConcept.IS_ASSET)",
          REGISTER_TESTS),
    Fault("check_whole lets two parts pass", "src/riskalign/riskgraph.py",
          "if count > 1 and multi_code:", "if count > 2 and multi_code:",
          ("tests/test_riskgraph.py",)),
    Fault("import takes --overlay", "src/riskalign/cli.py",
          '"parse a model and write its tabular form", _MODEL + _OUT),',
          '"parse a model and write its tabular form", _MODEL + _OUT + _OVERLAY),',
          ("tests/test_cli_golden.py",)),
    Fault("an option prefix with two matches is not ambiguous", "src/riskalign/cli.py",
          "if len(hits) > 1:", "if len(hits) > 2:", ("tests/test_cli_parser.py",)),
    Fault("a lone carriage return does not end a record line",
          "src/riskalign/recordio.py",
          '"\\n").replace("\\r", "\\n")', '"\\n").removesuffix("\\r")',
          ("tests/test_recordio.py", "tests/test_recordio_reference.py",
           "tests/test_cli.py")),
    Fault("every leading byte order mark is dropped", "src/riskalign/recordio.py",
          'text.removeprefix("\\ufeff")', 'text.lstrip("\\ufeff")',
          ("tests/test_recordio.py",)),
    # one row per finding code validate_register emits
    Fault("THR_TARGET_NOT_ISASSET: a threat's first target goes unchecked",
          "src/riskalign/register.py",
          "ISSRMConcept.THREAT,\n                       threat.targets)",
          "ISSRMConcept.THREAT,\n                       threat.targets[1:])",
          REGISTER_TESTS),
    Fault("VULN_NOT_ON_ISASSET: a vulnerability's first element goes unchecked",
          "src/riskalign/register.py",
          "ISSRMConcept.VULNERABILITY, vuln.elements)",
          "ISSRMConcept.VULNERABILITY, vuln.elements[1:])", REGISTER_TESTS),
    Fault("THR_INCOMPLETE: a threat with an agent or a method is complete",
          "src/riskalign/register.py",
          "if not (threat.agent and threat.method):",
          "if not (threat.agent or threat.method):", REGISTER_TESTS),
    Fault("VULN_NO_ISASSET: only an event without a threat is checked",
          "src/riskalign/register.py",
          "if not vuln.elements:", "if not vuln.elements and threat is None:",
          REGISTER_TESTS),
    Fault("EVT_NO_THREAT: an event with a part always counts a threat",
          "src/riskalign/register.py",
          "[ISSRMConcept.THREAT] * (threat is not None)", "[ISSRMConcept.THREAT]",
          REGISTER_TESTS),
    Fault("EVT_NO_VULN: an event counts the risk's impacts as vulnerabilities",
          "src/riskalign/register.py",
          "[ISSRMConcept.VULNERABILITY] * len(case.vulnerabilities)",
          "[ISSRMConcept.VULNERABILITY] * len(case.impacts)", REGISTER_TESTS),
    Fault("RISK_NO_IMPACT: a risk always counts an impact",
          "src/riskalign/register.py",
          "[ISSRMConcept.IMPACT] * len(case.impacts)",
          "[ISSRMConcept.IMPACT] * max(1, len(case.impacts))", REGISTER_TESTS),
    Fault("IMP_HARM_UNCLASSIFIED: any fact classifies a harmed element",
          "src/riskalign/register.py",
          "if not any(element_id in classification.definite_elements(concept)\n"
          "                           for concept in ASSET_KINDS):",
          "if not classification.facts_for(element_id):", REGISTER_TESTS),
    Fault("CRIT_ON_UNCONFIRMED: a plain Asset claim is no business-asset claim",
          "src/riskalign/register.py",
          "asset_claims = {ISSRMConcept.ASSET, ISSRMConcept.BUSINESS_ASSET}",
          "asset_claims = {ISSRMConcept.BUSINESS_ASSET}", REGISTER_TESTS),
    Fault("CRIT_NOT_ON_BIZASSET: reported as CRIT_ON_UNCONFIRMED",
          "src/riskalign/register.py",
          '"CRIT_NOT_ON_BIZASSET", (crit.id, element_id),',
          '"CRIT_ON_UNCONFIRMED", (crit.id, element_id),', REGISTER_TESTS),
    # classify.apply_review decides each verdict on the facts it chooses
    Fault("review promotes and refines without confirmed=True",
          "src/riskalign/classify.py",
          "tier=Tier.DEFINITE, confirmed=True)", "tier=Tier.DEFINITE)",
          REVIEW_TESTS),
    Fault("review refines Asset facts of any tier", "src/riskalign/classify.py",
          "if fact.target == _ASSET_TARGET\n"
          "                          and fact.tier is Tier.DEFINITE]",
          "if fact.target == _ASSET_TARGET]", REVIEW_TESTS),
    Fault("reject drops every fact with the named target",
          "src/riskalign/classify.py",
          "[fact for fact in group if fact not in chosen]",
          "[fact for fact in group if fact.target != target]", REVIEW_TESTS),
    Fault("re-confirming a confirmed fact raises", "src/riskalign/classify.py",
          "continue  # idempotent re-confirmation",
          "pass  # idempotent re-confirmation", REVIEW_TESTS),
    # classify.ClassificationSet computes what a call reads, on demand
    Fault("definite holders ignore a confirm override", "src/riskalign/classify.py",
          "if fact.tier is Tier.DEFINITE:",
          "if fact.tier is Tier.DEFINITE and not fact.confirmed:", REVIEW_TESTS),
    Fault("a conditional plan's steps apply without evaluating their conditions",
          "src/riskalign/classify.py",
          "if plan.conditional else [(plan.steps, ids)]",
          "if False else [(plan.steps, ids)]",
          ("tests/test_classify.py", "tests/test_fast_paths.py")),
    Fault("facts drops the known groups", "src/riskalign/classify.py",
          "facts = [fact for group in known.values() for fact in group]", "facts = []",
          ("tests/test_classify.py", "tests/test_fast_paths.py")),
    # recordio.join_records checks a whole document once
    Fault("join_records' document check skips the pipe count", "src/riskalign/recordio.py",
          '!= len(rows)\n            or text.count("|") != seps):', "!= len(rows)):",
          ("tests/test_recordio.py", "tests/test_recordio_reference.py",
           "tests/test_library_fuzz.py")),
    Fault("join_records' whole-text passes skip the line break count",
          "src/riskalign/recordio.py",
          'text.count("\\r") != len(rows) - 1 or text.count("\\n") != seps:',
          'text.count("\\r") != len(rows) - 1:',
          ("tests/test_recordio.py", "tests/test_recordio_reference.py")),
    # the record parsers check the header before their record loop
    Fault("a FRAMEWORK header needs only its tag or its field count",
          "src/riskalign/eamodel.py",
          'if fields[0] != "FRAMEWORK" or len(fields) != 2:',
          'if fields[0] != "FRAMEWORK" and len(fields) != 2:',
          ("tests/test_eamodel.py",)),
    Fault("a RULESET header needs only its tag or its field count",
          "src/riskalign/mappings.py",
          'if fields[0] != "RULESET" or len(fields) != 3:',
          'if fields[0] != "RULESET" and len(fields) != 3:',
          ("tests/test_mappings.py",)),
    Fault("a second RULESET record reads as a short rule line",
          "src/riskalign/mappings.py",
          'if fields[0] == "RULESET":', "if False:", ("tests/test_mappings.py",)),
    # archimate_xml reads each record and name with expat handlers
    Fault("a record is kept under a container of the other kind",
          "src/riskalign/archimate_xml.py",
          "elif name == role:  # a record in its container",
          "elif {name, role} <= {*_CONTAINERS.values()}:  # a record in its container",
          ("tests/test_xml_stream.py",)),
    Fault("a name's text runs past its first child", "src/riskalign/archimate_xml.py",
          "# its first child ends a name's text\n            parser.CharacterDataHandler = None",
          "# its first child ends a name's text\n            pass",
          ("tests/test_xml_stream.py",)),
    Fault("the skipped-entity handler is removed", "src/riskalign/archimate_xml.py",
          "parser.SkippedEntityHandler = lambda name, parameter: parameter or undefined(name)",
          "", ("tests/test_xml_stream.py",)),
    Fault("no entity is noted as external", "src/riskalign/archimate_xml.py",
          "value is None and not parameter and external.add(name))", "False)",
          ("tests/test_xml_stream.py",)),
    # one row per straight path for a well-formed record
    Fault("the relationship straight path lets a carriage return through",
          "src/riskalign/archimate_xml.py",
          'ids := rec_id + src + dst) and "\\r" not in ids):',
          "ids := rec_id + src + dst)):",
          ("tests/test_archimate_xml.py", "tests/test_xml_stream.py")),
    Fault("the element straight path keeps an empty identifier",
          "src/riskalign/archimate_xml.py",
          'if not (rec_id and concept_name) or "\\n" in rec_id',
          'if rec_id is None or not concept_name or "\\n" in rec_id',
          ("tests/test_archimate_xml.py", "tests/test_xml_stream.py")),
    # riskgraph.check_edge reads each kind's endpoint rule
    Fault("check_edge reads its source and target kinds swapped",
          "src/riskalign/riskgraph.py",
          "source_kinds, target_kinds, target_code = _ENDPOINT_RULES[kind]",
          "target_kinds, source_kinds, target_code = _ENDPOINT_RULES[kind]",
          ("tests/test_riskgraph.py", *REGISTER_TESTS)),
    # one byte order mark drop per format, and no bare ValueError from export
    Fault("the CLI drops a byte order mark before the record readers",
          "src/riskalign/cli.py",
          'return data.decode("utf-8")',
          'return data.decode("utf-8").removeprefix("\\ufeff")', ("tests/test_cli.py",)),
    Fault("export lets recordio's bare ValueError out", "src/riskalign/eamodel.py",
          "except ValueError:  # recordio's line break error",
          "except KeyError:  # recordio's line break error", ("tests/test_eamodel.py",)),
    # one row per token of parse_attrs' coding; restoring "\n0" after the split
    # instead of before it reads the same, so no test can tell it apart
    Fault("parse_attrs restores an escaped backslash before dropping the others",
          "src/riskalign/recordio.py",
          '.replace("\\\\", "").replace("\\n0", "\\\\"))',
          '.replace("\\n0", "\\\\").replace("\\\\", ""))',
          ("tests/test_recordio.py", "tests/test_recordio_reference.py")),
    Fault("parse_attrs leaves an escaped \"=\" uncoded", "src/riskalign/recordio.py",
          '.replace("\\\\=", "\\n2")', "",
          ("tests/test_recordio.py", "tests/test_recordio_reference.py")),
    Fault("_decoded swaps \";\" and \"=\"", "src/riskalign/recordio.py",
          'piece.replace("\\n1", ";").replace("\\n2", "=")',
          'piece.replace("\\n1", "=").replace("\\n2", ";")',
          ("tests/test_recordio.py", "tests/test_recordio_reference.py")),
    # one row per regular expression replaced by str methods, and the records' slots
    Fault("a non-ASCII capital counts as a camel-case boundary",
          "src/riskalign/archimate_xml.py",
          '" " + char if char in _CAPITALS', '" " + char if char.isupper()',
          ("tests/test_str_patterns.py",)),
    Fault("the word test drops \"_\"", "src/riskalign/mappings.py",
          'text.replace("_", "a").isalnum()', "text.isalnum()",
          ("tests/test_str_patterns.py",)),
    Fault("a free-standing removal swallows nested parentheses",
          "src/riskalign/mappings.py",
          '" " + rest if close', '" " + piece.rpartition(")")[2] if close',
          ("tests/test_str_patterns.py",)),
    Fault("a record subclass lacks __slots__ = ()", "src/riskalign/riskgraph.py",
          "__slots__ = ()", "pass", ("tests/test_record_contract.py",)),
    # the vocabularies' shared base, and the cell memo its hash makes cheap
    Fault("vocabulary members hash by name again", "src/riskalign/concepts.py",
          "    __hash__ = object.__hash__\n", "",
          ("tests/test_vocabulary_contract.py",)),
    Fault("the facts reports' cell memo drops the row", "src/riskalign/classify.py",
          "key = fact[1:6]", "key = fact[1:5]",
          ("tests/test_classify.py", "tests/test_cli_golden.py")),
    # help and usage errors, rendered from the command table
    Fault("an option's metavar keeps its dest's case", "src/riskalign/cli.py",
          "_dest(arg).upper()", "_dest(arg)",
          ("tests/test_cli_golden.py", "tests/test_cli_parser.py")),
    Fault("an optional argument is shown without brackets", "src/riskalign/cli.py",
          'return word if required else f"[{word}]"', "return word",
          ("tests/test_cli_golden.py", "tests/test_cli_parser.py")),
    Fault("a usage error goes to stdout", "src/riskalign/cli.py",
          '_note(f"{usage}\\n{prog}: error: {message}")',
          '_emit(f"{usage}\\n{prog}: error: {message}\\n")',
          ("tests/test_cli_golden.py", "tests/test_cli_parser.py")),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=skip)
        else:
            shutil.copy2(source, dest / name)


def run_tests(tests: tuple[str, ...],
              fault: Fault | None = None) -> tuple[int, str, float]:
    """pytest's exit status and output on a fresh copy, with fault planted."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if fault:
            target = tree / fault.path
            target.write_text(target.read_text("utf-8").replace(fault.old, fault.new),
                              "utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - start


def main() -> int:
    every = tuple(dict.fromkeys(test for fault in FAULTS for test in fault.tests))
    code, output, seconds = run_tests(every)
    if code != 0:
        print(output)
        print(f"the unmodified copy fails its tests (exit {code}); no row was run")
        return 1
    print(f"unmodified copy: {len(every)} test files pass ({seconds:.1f} s)")
    bad = 0
    for fault in FAULTS:
        found = (ROOT / fault.path).read_text("utf-8").count(fault.old)
        if found != 1:
            outcome, seconds = f"MISSING ANCHOR ({found} matches)", 0.0
        else:
            code, output, seconds = run_tests(fault.tests, fault)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
        bad += outcome != "killed"
        print(f"{outcome}: {fault.name} ({fault.path}, {seconds:.1f} s)")
        if outcome != "SURVIVED" and found == 1:  # -x: the first failure, or the error
            lines = output.splitlines()
            shown = [line for line in lines if line.startswith("FAILED")] or lines[-5:]
            print("\n".join("    " + line for line in shown))
    print(f"{len(FAULTS) - bad} of {len(FAULTS)} planted faults killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
