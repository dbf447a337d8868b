"""induced_graph and validate_register equal the inline reference copies.

The scan comparisons in test_indexes run the same register code on both
sides, so they cannot see a change in the graph a register induces or in the
findings validation adds; these tests compare against the copies in oracles.
"""

import random

from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import ReviewOverlay, apply_review, classify_model
from riskalign.errors import InputError
from riskalign.register import induced_graph, parse_risk_catalog, validate_register

from .oracles import (
    induced_graph_inline,
    random_model,
    random_overlay,
    random_register_text,
    validate_register_inline,
)


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
