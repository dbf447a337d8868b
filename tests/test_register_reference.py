"""induced_graph and validate_register equal the inline reference copies.

The scan comparisons in test_indexes run the same register code on both
sides, so they cannot see a change in the graph a register induces or in the
findings validation adds; these tests compare against the copies in oracles.
validate_register finds its findings without building the graph, and
validate_register_inline finds them on the graph, so each checks the other.
The reference computes each element's bound concept and each criterion
binding's verdict itself, from a scan of the facts, so a change to the
binding priority or to the tiers the criterion rule counts shows here too.
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
from riskalign.classify import (
    ReviewOverlay,
    apply_review,
    classify_model,
    parse_overlay,
)
from riskalign.eamodel import parse_tabular
from riskalign.errors import InputError
from riskalign.register import induced_graph, parse_risk_catalog, validate_register

from .oracles import (
    induced_graph_inline,
    random_model,
    random_overlay,
    random_register_text,
    validate_register_inline,
)
from .test_cli_golden import GOLDEN, load_golden, run_case


def assert_matches_reference(register):
    got, want = induced_graph(register), induced_graph_inline(register)
    assert list(got.entities.values()) == list(want.entities.values())
    assert list(got.relations) == list(want.relations)
    assert [(v.code, v.subjects, v.message) for v in validate_register(register)] == [
        (v.code, v.subjects, v.message) for v in validate_register_inline(register)
    ]


def test_registers_drawn_as_in_the_scan_comparison():
    # Same draws as test_indexed_pipeline_matches_scans_on_random_models:
    # model, overlay applied entry by entry, then the register text.
    ruleset = builtin_ruleset("archimate21")
    for seed in range(150):
        rng = random.Random(seed)
        model = random_model(rng, max_elements=25, framework="archimate21")
        reviewed = classify_model(ruleset, model)
        for entry in random_overlay(rng, reviewed).entries:
            try:
                reviewed = apply_review(reviewed, ReviewOverlay((entry,)))
            except InputError:
                pass
        register = parse_risk_catalog(random_register_text(rng, model), reviewed)
        assert_matches_reference(register)


# Which event parts a risk declares: bare, threat only, vulnerabilities only,
# or both.
_SHAPES = ((False, 0), (True, 0), (False, 1), (False, 2), (True, 2))


def shaped_register_text(rng, model):
    """A register whose risks take every event shape, with or without impacts,
    criteria and treatments."""
    elems = sorted(model.elements)

    def pick_ids():
        return ",".join(rng.sample(elems, rng.randint(0, min(2, len(elems)))))

    lines = [f"CRIT|c{i}|Criterion {i}|{pick_ids()}" for i in range(rng.randint(0, 2))]
    crit_ids = [line.split("|")[1] for line in lines]
    for i in range(rng.randint(1, 6)):
        threat, vulns = rng.choice(_SHAPES)
        lines.append(f"RISK|k{i}|Risk {i}")
        if threat:
            agent, method = rng.choice(("A", "-")), rng.choice(("M", "-"))
            lines.append(f"THREAT|k{i}|{agent}|{method}|{pick_ids()}")
        lines += [f"VULN|k{i}|weakness {j}|{pick_ids()}" for j in range(vulns)]
        for j in range(rng.randint(0, 2)):
            negated = ",".join(rng.sample(crit_ids, rng.randint(0, len(crit_ids))))
            lines.append(f"IMPACT|k{i}|impact {j}|{pick_ids()}|{negated}")
        if rng.random() < 0.5:
            lines += [f"TREAT|k{i}|t{i}|treat", f"REQ|t{i}|q{i}|req"]
            lines += [f"CTRL|q{i}|x{i}|control"] * rng.randint(0, 1)
    return "\n".join(lines) + "\n"


def test_registers_with_bare_threat_only_and_vulnerability_only_risks():
    ruleset = builtin_ruleset("archimate21")
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng, max_elements=12, framework="archimate21")
        classification = classify_model(ruleset, model)
        text = shaped_register_text(rng, model)
        assert_matches_reference(parse_risk_catalog(text, classification))


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
    assert_matches_reference(register)
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
