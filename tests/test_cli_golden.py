"""Golden CLI output: stdout, stderr and exit code of cli.main, byte for byte.

Each case runs one command line over the fixtures and compares the result
with tests/fixtures/cli_golden.json, or, for the cases over the model,
overlay and register whose ids and texts carry record escapes,
tests/fixtures/cli_golden_escaped.json. Help and usage errors are golden
output too: tests/fixtures/cli_golden_usage.json holds the top-level help,
the help of every command in cli._COMMANDS and one usage error, so the help
cases pin the CLI's grammar and a new command's help lands there by
construction. Paths in the argument lists are written relative to
tests/fixtures as "{fixtures}/...". --stamp is left out because its output
carries the current time.

New checks of a command line's output go into this table. Other test
modules read the golden files through load_golden and resolve only. To add a
case, add its argv to golden_cases() (or escaped_cases() or usage_cases()),
then rewrite the golden files, as after a deliberate output change, with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review their diff.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from riskalign.cli import _COMMANDS, main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
GOLDEN_ESCAPED = FIXTURES / "cli_golden_escaped.json"
GOLDEN_USAGE = FIXTURES / "cli_golden_usage.json"

MODELS = {"xml": "lab_model.xml", "tab": "lab_model.tab"}
LAB = ["--ruleset", "archimate21", "--overlay", "{fixtures}/lab.overlay"]
REGISTER = ["--register", "{fixtures}/lab.risk"]
BARE = ["--register", "{fixtures}/golden_inputs/bare.risk"]


def golden_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) for every golden command line."""
    per_model = [
        ("import", ["import"]),
        ("classify", ["classify", "--ruleset", "archimate21"]),
        ("classify-overlay", ["classify", *LAB]),
        ("classify-rules-file",
         ["classify", "--ruleset", "{fixtures}/golden/archimate21.rules"]),
        ("review", ["review", *LAB]),
        ("validate", ["validate", *LAB, *REGISTER]),
        ("validate-no-overlay", ["validate", "--ruleset", "archimate21", *REGISTER]),
        ("validate-bare", ["validate", *LAB, *BARE]),
        ("report-unmapped", ["report", "unmapped", *LAB]),
        ("report-coverage", ["report", "coverage", *LAB, *REGISTER]),
        ("report-coverage-bare", ["report", "coverage", *LAB, *BARE]),
        ("trace-r1", ["trace", "r1", *LAB, *REGISTER]),
        ("trace-r2", ["trace", "r2", *LAB, *REGISTER]),
        ("trace-r1-kinds",
         ["trace", "r1", *LAB, *REGISTER, "--supports-kinds", "access"]),
        ("trace-x1", ["trace", "x1", *LAB, *BARE]),
        ("trace-x3", ["trace", "x3", *LAB, *BARE]),
        ("query-supports", ["query", "supports", "dev-tablet", *LAB]),
        ("query-supports-two",
         ["query", "supports", " do-prescription-data, dev-tablet ,", *LAB]),
        ("query-supports-kinds",
         ["query", "supports", "dev-tablet", *LAB, "--supports-kinds", "serving, access"]),
        ("query-facts", ["query", "facts", "dev-tablet", *LAB]),
        ("query-facts-reviewed", ["query", "facts", "bo-analysis-prescription", *LAB]),
        ("query-facts-unknown", ["query", "facts", "sh-privacy-regulator", *LAB]),
        ("query-neighbors-both", ["query", "neighbors", "do-prescription-data", *LAB]),
        ("query-neighbors-outgoing",
         ["query", "neighbors", "dev-tablet", *LAB, "--direction", "outgoing"]),
        ("query-neighbors-incoming",
         ["query", "neighbors", "dev-tablet", *LAB, "--direction", "incoming"]),
        ("query-neighbors-none", ["query", "neighbors", "sh-privacy-regulator", *LAB,
                                  "--direction", "incoming"]),
    ]
    extra = [
        ("structure-classify",
         ["classify", "--model", "{fixtures}/golden_inputs/structure.tab",
          "--ruleset", "archimate21"]),
        ("structure-report-unmapped",
         ["report", "unmapped", "--model", "{fixtures}/golden_inputs/structure.tab",
          "--ruleset", "archimate21"]),
        ("structure-query-facts",
         ["query", "facts", "se-1", "--model", "{fixtures}/golden_inputs/structure.tab",
          "--ruleset", "archimate21"]),
        ("warn-import", ["import", "--model", "{fixtures}/golden_inputs/warn.xml"]),
        ("warn-classify",
         ["classify", "--model", "{fixtures}/golden_inputs/warn.xml",
          "--ruleset", "archimate21"]),
        ("warn-query-neighbors",
         ["query", "neighbors", "dev-1", "--model", "{fixtures}/golden_inputs/warn.xml",
          "--ruleset", "archimate21"]),
    ]
    errors = [
        ("error-unknown-risk", ["trace", "r9", *LAB, *REGISTER]),
        ("error-unknown-element", ["query", "facts", "nope", *LAB]),
        ("error-neighbors-unknown", ["query", "neighbors", "nope", *LAB]),
        ("error-seed-not-is-asset",
         ["query", "supports", "bp-take-blood-home", *LAB]),
        ("error-no-seeds", ["query", "supports", " , ", *LAB]),
        ("error-empty-kinds",
         ["query", "supports", "dev-tablet", *LAB, "--supports-kinds", ","]),
        ("error-coverage-needs-register", ["report", "coverage", *LAB]),
        ("error-framework-mismatch", ["classify", "--ruleset", "togaf91"]),
    ]
    cases: list[tuple[str, list[str]]] = []
    for model_kind, model_file in MODELS.items():
        model = ["--model", "{fixtures}/" + model_file]
        for name, argv in per_model + errors:
            for fmt in ("text", "records"):
                cases.append(
                    (f"{name}-{model_kind}-{fmt}", [*argv, *model, "--format", fmt])
                )
    for name, argv in extra:
        for fmt in ("text", "records"):
            cases.append((f"{name}-{fmt}", [*argv, "--format", fmt]))
    return cases


def escaped_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) for every command line over golden_inputs/escaped.*,
    on the exchange XML and on the tabular text that import writes from it."""
    inputs = "{fixtures}/golden_inputs/escaped"
    review = ["--ruleset", "archimate21", "--overlay", inputs + ".overlay"]
    register = ["--register", inputs + ".risk"]
    per_model = [
        ("import", ["import"]),
        ("classify", ["classify", "--ruleset", "archimate21"]),
        ("classify-overlay", ["classify", *review]),
        ("review", ["review", *review]),
        ("validate", ["validate", *review, *register]),
        ("trace-r1", ["trace", "r|1", *review, *register]),
        ("trace-r2", ["trace", "r2", *review, *register]),
        ("report-coverage", ["report", "coverage", *review, *register]),
        ("query-supports", ["query", "supports", "dev\\|tablet", *review]),
        ("query-neighbors", ["query", "neighbors", "drv|conf", *review]),
    ]
    return [
        (f"escaped-{name}-{model_kind}-{fmt}",
         [*argv, "--model", f"{inputs}.{model_kind}", "--format", fmt])
        for model_kind in ("xml", "tab")
        for name, argv in per_model
        for fmt in ("text", "records")
    ]


def usage_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) for the help of the top level and of every command
    in the command table, and for one usage error."""
    return [
        ("help", ["--help"]),
        *((f"{command}-help", [command, "--help"]) for command in _COMMANDS),
        ("classify-no-ruleset", ["classify", "--model", "m"]),
    ]


@functools.lru_cache(maxsize=None)
def load_golden(path: Path) -> dict:
    """The golden file at path: case name -> argv, stdout, stderr, exit."""
    return json.loads(path.read_text(encoding="utf-8"))


def resolve(argv: list[str]) -> list[str]:
    """A golden argv with "{fixtures}" turned into the fixtures directory."""
    return [arg.replace("{fixtures}", str(FIXTURES)) for arg in argv]


def run_case(argv: list[str]) -> dict:
    """Run cli.main in-process; returns stdout, stderr and the exit code,
    which help and usage errors give as SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(resolve(argv))
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


GOLDEN_FILES = {GOLDEN: golden_cases(), GOLDEN_ESCAPED: escaped_cases(),
                GOLDEN_USAGE: usage_cases()}
CASES = [(path, name, argv) for path, cases in GOLDEN_FILES.items()
         for name, argv in cases]


def test_golden_file_names_every_case():
    for path, cases in GOLDEN_FILES.items():
        assert sorted(load_golden(path)) == sorted(name for name, _ in cases)


@pytest.mark.parametrize("path, name, argv", CASES, ids=[name for _, name, _ in CASES])
def test_cli_output_matches_golden(path, name, argv):
    expected = load_golden(path)[name]
    assert expected["argv"] == argv
    actual = run_case(argv)
    assert actual["stdout"] == expected["stdout"]
    assert actual["stderr"] == expected["stderr"]
    assert actual["exit"] == expected["exit"]


def test_review_equals_classify_with_overlay():
    for path, prefix in ((GOLDEN, ""), (GOLDEN_ESCAPED, "escaped-")):
        golden = load_golden(path)
        for suffix in ("xml-text", "xml-records", "tab-text", "tab-records"):
            review = golden[f"{prefix}review-{suffix}"]
            classify = golden[f"{prefix}classify-overlay-{suffix}"]
            for key in ("stdout", "stderr", "exit"):
                assert review[key] == classify[key], (prefix + suffix, key)


if __name__ == "__main__":
    for path, cases in GOLDEN_FILES.items():
        golden = {name: {"argv": argv, **run_case(argv)} for name, argv in cases}
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(golden)} cases to {path}", file=sys.stderr)
