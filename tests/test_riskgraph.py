import pytest
from hypothesis import given, settings, strategies as st

from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import classify_model
from riskalign.concepts import ISSRMConcept as C
from riskalign.eamodel import parse_tabular
from riskalign.errors import DuplicateIdError
from riskalign.register import parse_risk_catalog, validate_register
from riskalign.riskgraph import (
    PART_OF_PAIRS,
    Entity,
    Relation,
    RelationKind as K,
    RiskGraph,
    Severity,
    Violation,
    validate_structure,
)


def graph(*parts):
    entities = [p for p in parts if isinstance(p, Entity)]
    relations = [p for p in parts if isinstance(p, Relation)]
    return RiskGraph(entities, relations)


def codes(violations):
    return [v.code for v in violations]


def with_entity(g, entity):
    """A copy of a graph with one entity added."""
    return RiskGraph(list(g.entities.values()) + [entity], g.relations)


def test_duplicate_entity_id_rejected():
    with pytest.raises(DuplicateIdError):
        RiskGraph([Entity("x", C.RISK), Entity("x", C.EVENT)])


def test_entity_lookup():
    g = graph(Entity("a", C.THREAT))
    assert g.entity("a").concept is C.THREAT
    assert g.entity("missing") is None


def test_empty_graph_is_clean():
    assert validate_structure(RiskGraph()) == []


def test_bare_entities_are_clean():
    bare = [
        Entity(f"e{i}", concept)
        for i, concept in enumerate(C)
        if concept is not C.ATTRIBUTE_ANNOTATION
    ]
    assert validate_structure(RiskGraph(bare)) == []


def test_pseudo_concept_entity_flagged():
    vs = validate_structure(graph(Entity("x", C.ATTRIBUTE_ANNOTATION)))
    assert codes(vs) == ["ENT_PSEUDO_CONCEPT"]
    assert vs[0].subjects == ("x",)


# --- endpoint kind rules ----------------------------------------------------------

VALID_ENDPOINTS = {
    K.SUPPORTS: (C.IS_ASSET, C.BUSINESS_ASSET),
    K.CONSTRAINS: (C.SECURITY_CRITERION, C.BUSINESS_ASSET),
    K.TARGETS: (C.THREAT, C.IS_ASSET),
    K.CHARACTERISTIC_OF: (C.VULNERABILITY, C.IS_ASSET),
    K.USES: (C.THREAT_AGENT, C.ATTACK_METHOD),
    K.LEADS_TO: (C.EVENT, C.IMPACT),
    K.HARMS: (C.IMPACT, C.BUSINESS_ASSET),
    K.NEGATES: (C.IMPACT, C.SECURITY_CRITERION),
    K.DECISION_FOR: (C.RISK_TREATMENT, C.RISK),
    K.REFINES: (C.SECURITY_REQUIREMENT, C.RISK_TREATMENT),
    K.MITIGATES: (C.SECURITY_REQUIREMENT, C.RISK),
    K.IMPLEMENTS: (C.CONTROL, C.SECURITY_REQUIREMENT),
}

TARGET_CODE = {
    K.CONSTRAINS: "CRIT_NOT_ON_BIZASSET",
    K.TARGETS: "THR_TARGET_NOT_ISASSET",
    K.CHARACTERISTIC_OF: "VULN_NOT_ON_ISASSET",
}


@pytest.mark.parametrize("kind", sorted(VALID_ENDPOINTS, key=lambda k: k.value))
def test_valid_endpoints_are_clean(kind):
    src_c, dst_c = VALID_ENDPOINTS[kind]
    g = graph(Entity("s", src_c), Entity("t", dst_c), Relation(kind, "s", "t"))
    assert [v for v in validate_structure(g) if v.severity is Severity.ERROR] == []


@pytest.mark.parametrize("kind", sorted(VALID_ENDPOINTS, key=lambda k: k.value))
def test_wrong_source_kind_flagged(kind):
    _, dst_c = VALID_ENDPOINTS[kind]
    g = graph(Entity("s", C.CONTROL if kind is not K.IMPLEMENTS else C.RISK),
              Entity("t", dst_c), Relation(kind, "s", "t"))
    assert "REL_SOURCE_KIND" in codes(validate_structure(g))


@pytest.mark.parametrize("kind", sorted(VALID_ENDPOINTS, key=lambda k: k.value))
def test_wrong_target_kind_flagged(kind):
    src_c, _ = VALID_ENDPOINTS[kind]
    g = graph(Entity("s", src_c), Entity("t", C.RISK if kind not in (K.DECISION_FOR, K.MITIGATES) else C.EVENT),
              Relation(kind, "s", "t"))
    expected = TARGET_CODE.get(kind, "REL_TARGET_KIND")
    assert expected in codes(validate_structure(g))


def test_relation_subjects_identify_the_edge():
    g = graph(Entity("s", C.RISK), Entity("t", C.BUSINESS_ASSET),
              Relation(K.SUPPORTS, "s", "t"))
    (v,) = validate_structure(g)
    assert v.code == "REL_SOURCE_KIND"
    assert v.subjects == ("supports", "s", "t")


def test_missing_endpoint_single_finding():
    g = graph(Entity("s", C.IS_ASSET), Relation(K.SUPPORTS, "s", "ghost"))
    vs = validate_structure(g)
    assert codes(vs) == ["REL_ENDPOINT_MISSING"]
    assert vs[0].subjects == ("supports", "s", "ghost")


def test_criterion_on_is_asset_minimal():
    g = graph(
        Entity("c", C.SECURITY_CRITERION),
        Entity("a", C.IS_ASSET),
        Relation(K.CONSTRAINS, "c", "a"),
    )
    assert codes(validate_structure(g)) == ["CRIT_NOT_ON_BIZASSET"]


def test_vulnerability_on_business_asset_minimal():
    g = graph(
        Entity("v", C.VULNERABILITY),
        Entity("a", C.BUSINESS_ASSET),
        Relation(K.CHARACTERISTIC_OF, "v", "a"),
    )
    assert codes(validate_structure(g)) == ["VULN_NOT_ON_ISASSET"]


# --- part_of ----------------------------------------------------------------------

@pytest.mark.parametrize("part,whole", sorted(PART_OF_PAIRS, key=lambda p: (p[0].value, p[1].value)))
def test_legal_part_of_pairs(part, whole):
    g = graph(Entity("p", part), Entity("w", whole), Relation(K.PART_OF, "p", "w"))
    assert "PART_OF_PAIR" not in codes(validate_structure(g))


def test_illegal_part_of_pair():
    g = graph(Entity("p", C.IMPACT), Entity("w", C.EVENT), Relation(K.PART_OF, "p", "w"))
    assert "PART_OF_PAIR" in codes(validate_structure(g))


# --- gated existence rules ---------------------------------------------------------

def event_with(*part_concepts):
    entities = [Entity("ev", C.EVENT)]
    relations = []
    for i, concept in enumerate(part_concepts):
        entities.append(Entity(f"p{i}", concept))
        relations.append(Relation(K.PART_OF, f"p{i}", "ev"))
    return RiskGraph(entities, relations)


def test_event_without_vulnerability_minimal():
    g = event_with(C.THREAT)
    vs = validate_structure(g)
    errors = [v for v in vs if v.severity is Severity.ERROR]
    assert codes(errors) == ["EVT_NO_VULN"]
    assert errors[0].subjects == ("ev",)


def test_event_without_threat():
    g = event_with(C.VULNERABILITY)
    # the lone vulnerability also lacks its IS asset
    assert codes(validate_structure(g)) == ["EVT_NO_THREAT", "VULN_NO_ISASSET"]


def test_event_with_two_threats():
    g = event_with(C.THREAT, C.THREAT, C.VULNERABILITY)
    vs = codes(validate_structure(g))
    assert "EVT_MULTI_THREAT" in vs
    assert "EVT_NO_THREAT" not in vs


def test_risk_without_impact_minimal():
    g = graph(
        Entity("r", C.RISK),
        Entity("ev", C.EVENT),
        Relation(K.PART_OF, "ev", "r"),
    )
    impact_errors = [v for v in validate_structure(g) if v.subjects == ("r",)]
    assert codes(impact_errors) == ["RISK_NO_IMPACT"]


def test_risk_without_event():
    g = graph(
        Entity("r", C.RISK),
        Entity("i", C.IMPACT),
        Relation(K.PART_OF, "i", "r"),
    )
    assert codes(validate_structure(g)) == ["RISK_NO_EVENT"]


def test_risk_with_two_events():
    g = graph(
        Entity("r", C.RISK),
        Entity("e1", C.EVENT),
        Entity("e2", C.EVENT),
        Entity("i", C.IMPACT),
        Relation(K.PART_OF, "e1", "r"),
        Relation(K.PART_OF, "e2", "r"),
        Relation(K.PART_OF, "i", "r"),
    )
    assert "RISK_MULTI_EVENT" in codes(validate_structure(g))


# One case per legal part_of pair: the at-most-one finding and the missing-part
# finding it gives its whole, each with its exact message, or None.
CARDINALITY = [
    (C.THREAT, C.EVENT,
     ("EVT_MULTI_THREAT", "event has more than one threat part"),
     ("EVT_NO_THREAT", "event has no threat part")),
    (C.VULNERABILITY, C.EVENT, None,
     ("EVT_NO_VULN", "event has no vulnerability part")),
    (C.EVENT, C.RISK,
     ("RISK_MULTI_EVENT", "risk has more than one event part"),
     ("RISK_NO_EVENT", "risk has no event part")),
    (C.IMPACT, C.RISK, None,
     ("RISK_NO_IMPACT", "risk has no impact part")),
    (C.THREAT_AGENT, C.THREAT,
     ("THR_MULTI_AGENT", "threat has more than one agent part"), None),
    (C.ATTACK_METHOD, C.THREAT,
     ("THR_MULTI_METHOD", "threat has more than one method part"), None),
]


def whole_findings(whole, part_concepts):
    """(code, message) of each finding on a whole "w" with the given parts."""
    entities = [Entity("w", whole)]
    relations = []
    for i, concept in enumerate(part_concepts):
        entities.append(Entity(f"p{i}", concept))
        relations.append(Relation(K.PART_OF, f"p{i}", "w"))
    return [
        (v.code, v.message)
        for v in validate_structure(RiskGraph(entities, relations))
        if v.subjects == ("w",)
    ]


def test_cardinality_cases_cover_every_part_of_pair():
    assert sorted((p.value, w.value) for p, w, _, _ in CARDINALITY) == sorted(
        (p.value, w.value) for p, w in PART_OF_PAIRS
    )


@pytest.mark.parametrize("part,whole,multi,missing", CARDINALITY)
def test_cardinality_findings_and_messages(part, whole, multi, missing):
    others = [p for p, w in PART_OF_PAIRS if w is whole and p is not part]
    assert whole_findings(whole, [part, part, *others]) == [multi] * bool(multi)
    assert whole_findings(whole, others) == [missing] * bool(missing)


def test_bare_register_event_findings_name_the_risk():
    # The event of a risk with no threat and no vulnerability has no part in
    # the induced graph, so validate_register reports its two gaps itself.
    model = parse_tabular("FRAMEWORK|togaf91\n")
    classification = classify_model(builtin_ruleset("togaf91"), model)
    register = parse_risk_catalog("RISK|r|Bare risk\n", classification)
    assert [(v.code, v.subjects, v.message) for v in validate_register(register)] == [
        ("EVT_NO_THREAT", ("r::event",), "risk 'r' declares no threat"),
        ("EVT_NO_VULN", ("r::event",), "risk 'r' declares no vulnerability"),
        ("RISK_NO_IMPACT", ("r",), "risk has no impact part"),
    ]


# --- every finding text --------------------------------------------------------------

def findings(violations):
    return [(v.code, v.subjects, v.message) for v in violations]


# One case per relation kind but part_of: a source of the wrong concept
# (Control, or Risk for implements) and a target of the wrong concept (Risk,
# or Event where Risk is legal), with the exact source and target findings.
EDGE_FINDINGS = [
    (K.SUPPORTS, "supports source must be ISAsset, got Control",
     "REL_TARGET_KIND", "supports target must be BusinessAsset, got Risk"),
    (K.CONSTRAINS, "constrains source must be SecurityCriterion, got Control",
     "CRIT_NOT_ON_BIZASSET", "constrains target must be BusinessAsset, got Risk"),
    (K.TARGETS, "targets source must be Threat, got Control",
     "THR_TARGET_NOT_ISASSET", "targets target must be ISAsset, got Risk"),
    (K.CHARACTERISTIC_OF,
     "characteristic_of source must be Vulnerability, got Control",
     "VULN_NOT_ON_ISASSET", "characteristic_of target must be ISAsset, got Risk"),
    (K.USES, "uses source must be ThreatAgent, got Control",
     "REL_TARGET_KIND", "uses target must be AttackMethod, got Risk"),
    (K.LEADS_TO, "leads_to source must be Event, got Control",
     "REL_TARGET_KIND", "leads_to target must be Impact, got Risk"),
    (K.HARMS, "harms source must be Impact, got Control",
     "REL_TARGET_KIND",
     "harms target must be Asset or BusinessAsset or ISAsset, got Risk"),
    (K.NEGATES, "negates source must be Impact, got Control",
     "REL_TARGET_KIND", "negates target must be SecurityCriterion, got Risk"),
    (K.DECISION_FOR, "decision_for source must be RiskTreatment, got Control",
     "REL_TARGET_KIND", "decision_for target must be Risk, got Event"),
    (K.REFINES, "refines source must be SecurityRequirement, got Control",
     "REL_TARGET_KIND", "refines target must be RiskTreatment, got Risk"),
    (K.MITIGATES, "mitigates source must be SecurityRequirement, got Control",
     "REL_TARGET_KIND", "mitigates target must be Risk, got Event"),
    (K.IMPLEMENTS, "implements source must be Control, got Risk",
     "REL_TARGET_KIND", "implements target must be SecurityRequirement, got Risk"),
]


def test_edge_findings_cover_every_kind_but_part_of():
    assert sorted(kind.value for kind, *_ in EDGE_FINDINGS) == sorted(
        kind.value for kind in K if kind is not K.PART_OF
    )


@pytest.mark.parametrize("kind,source_message,target_code,target_message",
                         EDGE_FINDINGS)
def test_edge_finding_messages(kind, source_message, target_code, target_message):
    src_c = C.RISK if kind is K.IMPLEMENTS else C.CONTROL
    dst_c = C.EVENT if kind in (K.DECISION_FOR, K.MITIGATES) else C.RISK
    g = graph(Entity("s", src_c), Entity("t", dst_c), Relation(kind, "s", "t"))
    subjects = (kind.value, "s", "t")
    assert findings(validate_structure(g)) == sorted([
        ("REL_SOURCE_KIND", subjects, source_message),
        (target_code, subjects, target_message),
    ])


# One minimal graph per code neither EDGE_FINDINGS nor CARDINALITY covers,
# with every finding it gives, exactly.
OTHER_FINDINGS = [
    ([Entity("s", C.IS_ASSET), Relation(K.SUPPORTS, "s", "ghost")],
     [("REL_ENDPOINT_MISSING", ("supports", "s", "ghost"),
       "supports endpoint 'ghost' is not an entity in the graph")]),
    ([Entity("t", C.BUSINESS_ASSET), Relation(K.SUPPORTS, "ghost", "t")],
     [("REL_ENDPOINT_MISSING", ("supports", "ghost", "t"),
       "supports endpoint 'ghost' is not an entity in the graph")]),
    ([Entity("p", C.IMPACT), Entity("w", C.EVENT), Relation(K.PART_OF, "p", "w")],
     [("PART_OF_PAIR", ("part_of", "p", "w"), "Impact cannot be part of Event")]),
    ([Entity("x", C.ATTRIBUTE_ANNOTATION)],
     [("ENT_PSEUDO_CONCEPT", ("x",),
       "AttributeAnnotation marks rule targets and cannot type an entity")]),
    ([Entity("ev", C.EVENT), Entity("t", C.THREAT), Entity("v", C.VULNERABILITY),
      Entity("a", C.IS_ASSET), Relation(K.PART_OF, "t", "ev"),
      Relation(K.PART_OF, "v", "ev"), Relation(K.CHARACTERISTIC_OF, "v", "a")],
     [("THR_INCOMPLETE", ("t",),
       "threat in an event lacks an agent or attack method")]),
    ([Entity("ev", C.EVENT), Entity("v", C.VULNERABILITY),
      Relation(K.PART_OF, "v", "ev")],
     [("EVT_NO_THREAT", ("ev",), "event has no threat part"),
      ("VULN_NO_ISASSET", ("v",),
       "vulnerability in an event is not a characteristic of any IS asset")]),
]


@pytest.mark.parametrize("parts,expected", OTHER_FINDINGS)
def test_other_finding_messages(parts, expected):
    assert findings(validate_structure(graph(*parts))) == expected


def test_register_binding_finding_messages(lab_reviewed):
    register = parse_risk_catalog(
        "CRIT|ca|Integrity|pri-data-privacy-directive\n"
        "CRIT|cb|Integrity|dev-tablet\n"
        "RISK|x1|Risk\n"
        "THREAT|x1|Thief|Theft|bs-home-blood-taking\n"
        "VULN|x1|weak lock|bs-home-blood-taking\n"
        "IMPACT|x1|outage|goal-confidentiality-personal-info|\n",
        lab_reviewed,
    )
    assert findings(validate_register(register)) == [
        ("CRIT_NOT_ON_BIZASSET", ("cb", "dev-tablet"),
         "criterion 'cb' constrains 'dev-tablet', which is not classified as "
         "a business asset"),
        ("CRIT_ON_UNCONFIRMED", ("ca", "pri-data-privacy-directive"),
         "criterion 'ca' constrains 'pri-data-privacy-directive', whose "
         "business-asset classification is not confirmed"),
        ("IMP_HARM_UNCLASSIFIED",
         ("x1::impact1", "goal-confidentiality-personal-info"),
         "harmed element 'goal-confidentiality-personal-info' has no definite "
         "asset classification"),
        ("THR_TARGET_NOT_ISASSET",
         ("targets", "x1::threat", "bs-home-blood-taking"),
         "targets target must be ISAsset, got BusinessAsset"),
        ("VULN_NOT_ON_ISASSET",
         ("characteristic_of", "x1::vuln1", "bs-home-blood-taking"),
         "characteristic_of target must be ISAsset, got BusinessAsset"),
    ]


def test_register_part_finding_messages(lab_reviewed):
    # A risk with a threat but no vulnerability, and one with a vulnerability
    # on no element but no threat; neither has an impact.
    register = parse_risk_catalog(
        "RISK|y1|Threat only\n"
        "THREAT|y1|-|Theft|dev-tablet\n"
        "RISK|y2|Vulnerability only\n"
        "VULN|y2|floating weakness|\n",
        lab_reviewed,
    )
    assert findings(validate_register(register)) == [
        ("EVT_NO_THREAT", ("y2::event",), "event has no threat part"),
        ("EVT_NO_VULN", ("y1::event",), "event has no vulnerability part"),
        ("RISK_NO_IMPACT", ("y1",), "risk has no impact part"),
        ("RISK_NO_IMPACT", ("y2",), "risk has no impact part"),
        ("THR_INCOMPLETE", ("y1::threat",),
         "threat in an event lacks an agent or attack method"),
        ("VULN_NO_ISASSET", ("y2::vuln1",),
         "vulnerability in an event is not a characteristic of any IS asset"),
    ]


def test_invalid_part_does_not_arm_existence_checks():
    # impact part_of event is illegal, so the event still counts as bare
    g = graph(
        Entity("ev", C.EVENT),
        Entity("i", C.IMPACT),
        Relation(K.PART_OF, "i", "ev"),
    )
    assert codes(validate_structure(g)) == ["PART_OF_PAIR"]


def test_threat_multi_agent_is_ungated():
    g = graph(
        Entity("t", C.THREAT),
        Entity("a1", C.THREAT_AGENT),
        Entity("a2", C.THREAT_AGENT),
        Relation(K.PART_OF, "a1", "t"),
        Relation(K.PART_OF, "a2", "t"),
    )
    assert "THR_MULTI_AGENT" in codes(validate_structure(g))


def test_threat_incomplete_only_inside_event():
    bare = graph(Entity("t", C.THREAT))
    assert validate_structure(bare) == []
    g = graph(
        Entity("ev", C.EVENT),
        Entity("t", C.THREAT),
        Entity("v", C.VULNERABILITY),
        Entity("a", C.IS_ASSET),
        Relation(K.PART_OF, "t", "ev"),
        Relation(K.PART_OF, "v", "ev"),
        Relation(K.CHARACTERISTIC_OF, "v", "a"),
    )
    vs = validate_structure(g)
    assert codes(vs) == ["THR_INCOMPLETE"]
    assert vs[0].severity is Severity.WARN


def test_complete_threat_has_no_warning():
    g = graph(
        Entity("ev", C.EVENT),
        Entity("t", C.THREAT),
        Entity("ag", C.THREAT_AGENT),
        Entity("me", C.ATTACK_METHOD),
        Entity("v", C.VULNERABILITY),
        Entity("a", C.IS_ASSET),
        Relation(K.PART_OF, "t", "ev"),
        Relation(K.PART_OF, "ag", "t"),
        Relation(K.PART_OF, "me", "t"),
        Relation(K.USES, "ag", "me"),
        Relation(K.PART_OF, "v", "ev"),
        Relation(K.CHARACTERISTIC_OF, "v", "a"),
    )
    assert validate_structure(g) == []


def test_vulnerability_outside_event_needs_no_asset():
    g = graph(Entity("v", C.VULNERABILITY))
    assert validate_structure(g) == []


# --- violation identity and ordering -----------------------------------------------

def test_violation_equality_ignores_message():
    assert Violation("EVT_NO_VULN", ("e",), "a") == Violation("EVT_NO_VULN", ("e",), "b")
    assert len({Violation("X_", ("e",), "a"), Violation("X_", ("e",), "b")}) == 1


def test_violations_sorted_and_deduplicated():
    g = graph(
        Entity("c", C.SECURITY_CRITERION),
        Entity("a", C.IS_ASSET),
        Entity("b", C.IS_ASSET),
        Relation(K.CONSTRAINS, "c", "b"),
        Relation(K.CONSTRAINS, "c", "a"),
        Relation(K.CONSTRAINS, "c", "a"),
    )
    vs = validate_structure(g)
    assert [v.subjects for v in vs] == [
        ("constrains", "c", "a"),
        ("constrains", "c", "b"),
    ]


# --- properties --------------------------------------------------------------------

_CONCEPTS = [c for c in C if c is not C.ATTRIBUTE_ANNOTATION]
_KINDS = list(K)


@st.composite
def arbitrary_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    entities = [
        Entity(f"n{i}", draw(st.sampled_from(_CONCEPTS))) for i in range(n)
    ]
    relations = []
    if n:
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            relations.append(
                Relation(
                    draw(st.sampled_from(_KINDS)),
                    draw(st.sampled_from(entities)).id,
                    draw(st.sampled_from(entities)).id,
                )
            )
    return RiskGraph(entities, relations)


@given(arbitrary_graphs())
@settings(max_examples=150, deadline=None)
def test_validation_is_pure(g):
    assert validate_structure(g) == validate_structure(g)


@given(arbitrary_graphs(), st.sampled_from(_CONCEPTS))
@settings(max_examples=150, deadline=None)
def test_bare_entity_never_adds_violations(g, concept):
    before = validate_structure(g)
    after = validate_structure(with_entity(g, Entity("fresh", concept)))
    assert after == before


@given(arbitrary_graphs())
@settings(max_examples=150, deadline=None)
def test_result_is_sorted_unique(g):
    vs = validate_structure(g)
    keys = [v.sort_key() for v in vs]
    assert keys == sorted(keys)
    assert len(set(vs)) == len(vs)


def test_every_kind_reads_its_endpoint_rule():
    # Every kind once, each with wrong endpoints, so every rule is read.
    entities = [Entity("x", C.RISK), Entity("y", C.RISK)]
    relations = [Relation(kind, "x", "y") for kind in K]
    found = validate_structure(RiskGraph(entities, relations))
    assert {v.subjects[0] for v in found if len(v.subjects) == 3} == {
        kind.value for kind in K
    }
