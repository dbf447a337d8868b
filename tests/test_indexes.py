"""The indexed lookups and single-pass checks equal the scans they replaced.

check_against_scans also runs each seeded model's register, on all four
frameworks, through the graph reference (assert_register_matches_reference).
"""

import random
from collections import Counter

import pytest

from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import Tier, classify_model
from riskalign.concepts import ISSRMConcept as C
from riskalign.mappings import AnnotationTarget, CompositeTarget
from riskalign.riskgraph import (
    Entity,
    Relation,
    RelationKind as K,
    RiskGraph,
    validate_structure,
)

from .oracles import (
    EVENT_SHAPES,
    check_against_scans,
    event_part_findings,
    random_model,
)


def test_indexed_pipeline_matches_scans_on_random_models():
    ruleset = builtin_ruleset("archimate21")
    shapes = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        model = random_model(rng, max_elements=25, framework="archimate21")
        register = check_against_scans(ruleset, model, rng)
        shapes.update(
            (case.threat is not None, len(case.vulnerabilities))
            for case in register.risks
        )
    # Bare, threat-only and vulnerability-only risks reach the reference too.
    assert all(shapes[shape] >= 20 for shape in EVENT_SHAPES), shapes


# What each framework's pool must reach for the differential to cover it.
_PLANTED = {
    "togaf91": lambda fact: fact.tier is Tier.RELATED,  # principle
    "dodaf202": lambda fact: (
        type(fact.target) is CompositeTarget and fact.tier is Tier.DEFINITE
    ),
    "iaf": lambda fact: fact.row == 1,  # the carries_information=true row
}


@pytest.mark.parametrize("framework", sorted(_PLANTED))
def test_indexed_pipeline_matches_scans_on_every_framework(framework):
    ruleset = builtin_ruleset(framework)
    planted = annotated = 0
    for seed in range(50):
        rng = random.Random(seed)
        model = random_model(rng, max_elements=25, framework=framework)
        facts = classify_model(ruleset, model).facts
        planted += any(map(_PLANTED[framework], facts))
        annotated += any(type(f.target) is AnnotationTarget for f in facts)
        check_against_scans(ruleset, model, rng)
    assert planted > 25
    if framework == "dodaf202":
        assert annotated > 25


_GRAPH_CONCEPTS = (
    C.EVENT,
    C.THREAT,
    C.VULNERABILITY,
    C.THREAT_AGENT,
    C.ATTACK_METHOD,
    C.RISK,
    C.IS_ASSET,
)
_GRAPH_KINDS = (K.PART_OF, K.PART_OF, K.CHARACTERISTIC_OF, K.USES)


def test_event_part_findings_match_relation_rescans_on_random_graphs():
    part_codes = ("THR_INCOMPLETE", "VULN_NO_ISASSET")
    for seed in range(300):
        rng = random.Random(seed)
        entities = [
            Entity(f"n{i}", rng.choice(_GRAPH_CONCEPTS))
            for i in range(rng.randint(1, 12))
        ]
        ids = [e.id for e in entities] + ["missing"]
        relations = [
            Relation(rng.choice(_GRAPH_KINDS), rng.choice(ids), rng.choice(ids))
            for _ in range(rng.randint(0, 20))
        ]
        graph = RiskGraph(entities, relations)
        got = [
            (v.code, v.subjects, v.message)
            for v in validate_structure(graph)
            if v.code in part_codes
        ]
        want = [(v.code, v.subjects, v.message) for v in event_part_findings(graph)]
        assert got == want, seed
