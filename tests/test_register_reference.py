"""induced_graph and validate_register equal the inline reference copies.

oracles.assert_register_matches_reference, the one check that compares
them, runs in check_against_scans on every seeded model of test_indexes, on
all four frameworks, and here on registers of the register_3k benchmark's
size. validate_register finds its findings without building the graph, and
validate_register_inline finds them on the graph, so each checks the other.
The reference computes bound concepts and criterion verdicts from its own
scans of the facts, so a changed binding priority or criterion tier shows.
"""

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import riskalign.register
import riskalign.riskgraph
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import apply_review, classify_model, parse_overlay
from riskalign.eamodel import parse_tabular
from riskalign.register import parse_risk_catalog, validate_register

from .oracles import assert_register_matches_reference
from .test_cli_golden import GOLDEN, load_golden, run_case


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_gen(monkeypatch):
    """perfbench's gen and oracle modules, imported from this checkout."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("gen", "oracle"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("gen"), importlib.import_module("oracle")
    for name in ("gen", "oracle"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_sized_registers(perfbench_gen, seed):
    # The register_3k inputs: 3,000 elements, an overlay and 150 risks with
    # planted defects, drawn in the order the workload draws them.
    gen, oracle = perfbench_gen
    rng = random.Random(seed)
    model = gen.register_model(rng, 3000)
    overlay = gen.review_overlay(rng, model)
    planted = gen.risk_register(rng, oracle.Expected(model, overlay).roles(), 150)
    classification = apply_review(
        classify_model(builtin_ruleset("archimate21"),
                       parse_tabular(gen.tabular_text(model))),
        parse_overlay(gen.overlay_text(overlay)),
    )
    register = parse_risk_catalog(gen.register_text(planted), classification)
    assert len(register.risks) == 150
    assert_register_matches_reference(register)
    assert Counter(v.code for v in validate_register(register)) == planted.planted


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
