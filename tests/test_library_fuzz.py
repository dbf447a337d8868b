"""Fuzzing the library's public parsers over mutated lab fixtures.

Each mutant applies one to three insertions, deletions or substitutions to
one fixture's text. The inserted text is dense in what the record and XML
readers treat specially: "|", "\\", line breaks, a byte order mark, NUL,
U+0085, U+2028, a lone surrogate and markup. Every parser may reject a
mutant, but only with a RiskAlignError. A model or ruleset it accepts must
survive export_tabular or serialize_ruleset and a second parse unchanged,
which also checks recordio.join_records on whatever text got through.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from riskalign.archimate_xml import import_archimate
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import apply_review, classify_model, parse_overlay
from riskalign.eamodel import export_tabular, parse_tabular
from riskalign.errors import RiskAlignError
from riskalign.mappings import parse_ruleset, serialize_ruleset
from riskalign.register import parse_risk_catalog, validate_register

FIXTURES = Path(__file__).parent / "fixtures"
INSERTS = ["|", "\\", "\\|", "\n", "\r\n", "\r", "\ufeff", "\x00", "\x85", "\u2028",
           "\udcff", ";", "=", ",", "::", "<", ">", "&", '"', " ", "#"]
MUTANTS = 1000


def mutants(text: str, seed: int, count: int = MUTANTS) -> list[str]:
    """Seeded mutants of text, each one to three edits away from it."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mutant = text
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(mutant))
            edit = rng.choice(("insert", "delete", "substitute"))
            if edit == "insert":
                mutant = mutant[:at] + rng.choice(INSERTS) + mutant[at:]
            elif edit == "delete":
                mutant = mutant[:at] + mutant[at + rng.randint(1, 8):]
            else:
                mutant = mutant[:at] + rng.choice(INSERTS) + mutant[at + 1:]
        out.append(mutant)
    return out


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def lab():
    """The lab model's classification, and its reviewed set."""
    model = parse_tabular(fixture("lab_model.tab"))
    classification = classify_model(builtin_ruleset(model.framework), model)
    return classification, apply_review(classification, parse_overlay(fixture("lab.overlay")))


@pytest.mark.parametrize("name, read", [
    ("lab_model.tab", parse_tabular),
    ("lab_model.xml", import_archimate),
], ids=["tabular", "xml"])
def test_model_parsers_raise_only_their_errors_and_round_trip(name, read):
    accepted = 0
    for mutant in mutants(fixture(name), seed=len(name)):
        try:
            model = read(mutant)
        except RiskAlignError:
            continue
        accepted += 1
        again = parse_tabular(export_tabular(model))
        assert again == model
        assert list(again.elements.values()) == list(model.elements.values())
    assert accepted  # some mutants do get through to the round trip


def test_ruleset_parser_raises_only_its_errors_and_round_trips():
    accepted = 0
    for mutant in mutants(fixture("golden/archimate21.rules"), seed=21):
        try:
            ruleset = parse_ruleset(mutant)
        except RiskAlignError:
            continue
        accepted += 1
        assert parse_ruleset(serialize_ruleset(ruleset)) == ruleset
    assert accepted


def test_overlay_parser_and_review_raise_only_their_errors(lab):
    classification, _ = lab
    accepted = 0
    for mutant in mutants(fixture("lab.overlay"), seed=22):
        try:
            apply_review(classification, parse_overlay(mutant)).facts
        except RiskAlignError:
            continue
        accepted += 1
    assert accepted


def test_register_parser_and_validation_raise_only_their_errors(lab):
    _, reviewed = lab
    accepted = 0
    for mutant in mutants(fixture("lab.risk"), seed=23):
        try:
            validate_register(parse_risk_catalog(mutant, reviewed))
        except RiskAlignError:
            continue
        accepted += 1
    assert accepted
