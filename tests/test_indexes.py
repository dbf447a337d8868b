"""The indexed lookups and single-pass checks equal the scans they replaced."""

import random

from riskalign.builtin_tables import builtin_ruleset
from riskalign.concepts import ISSRMConcept as C
from riskalign.riskgraph import (
    Entity,
    Relation,
    RelationKind as K,
    RiskGraph,
    validate_structure,
)

from .oracles import check_against_scans, event_part_findings, random_model


def test_indexed_pipeline_matches_scans_on_random_models():
    ruleset = builtin_ruleset("archimate21")
    for seed in range(150):
        rng = random.Random(seed)
        model = random_model(rng, max_elements=25, framework="archimate21")
        check_against_scans(ruleset, model, rng)


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
