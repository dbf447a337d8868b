"""induced_graph and validate_register equal the inline reference copies.

oracles.assert_register_matches_reference, the one check that compares
them, runs in check_against_scans on every seeded model of test_indexes, on
all four frameworks, and here on registers of the register_3k benchmark's
size. validate_register finds its findings without building the graph, and
validate_register_inline finds them on the graph, so each checks the other.
The reference computes bound concepts and criterion verdicts from its own
scans of the facts, so a changed binding priority or criterion tier shows.
"""

from collections import Counter

import pytest

import riskalign.register
import riskalign.riskgraph
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import apply_review, classify_model, parse_overlay
from riskalign.eamodel import parse_tabular
from riskalign.register import parse_risk_catalog, validate_register

from .benchinputs import register_inputs
from .oracles import assert_register_matches_reference
from .test_cli_golden import GOLDEN, load_golden, run_case


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_sized_registers(tmp_path, seed):
    # The register_3k inputs: 3,000 elements, an overlay and 150 risks with
    # planted defects.
    paths, planted, _ = register_inputs(tmp_path, seed, 3000, 150)
    text = {kind: path.read_text(encoding="utf-8") for kind, path in paths.items()}
    classification = apply_review(
        classify_model(builtin_ruleset("archimate21"), parse_tabular(text["model"])),
        parse_overlay(text["overlay"]),
    )
    register = parse_risk_catalog(text["register"], classification)
    assert len(register.risks) == 150
    assert_register_matches_reference(register)
    assert Counter(v.code for v in validate_register(register)) == planted


def _no_graph(*args, **kwargs):
    raise AssertionError("validate_register built or walked a risk graph")


@pytest.mark.parametrize("case", [
    "validate-tab-text", "validate-tab-records",
    "validate-bare-tab-text", "validate-bare-tab-records",
])
def test_validation_builds_no_graph(monkeypatch, case):
    # The lab register and golden_inputs/bare.risk keep their golden findings
    # with the graph builder and the graph validator out of reach.
    monkeypatch.setattr(riskalign.register, "induced_graph", _no_graph)
    monkeypatch.setattr(riskalign.riskgraph, "validate_structure", _no_graph)
    expected = load_golden(GOLDEN)[case]
    actual = run_case(expected["argv"])
    assert actual == {key: expected[key] for key in ("stdout", "stderr", "exit")}
