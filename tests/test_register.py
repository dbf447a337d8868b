import pytest

from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import apply_review, classify_model, parse_overlay
from riskalign.concepts import ISSRMConcept as C
from riskalign.eamodel import parse_tabular
from riskalign.errors import CatalogFormatError, UnknownRiskError
from riskalign.register import (
    ControlSpec,
    RequirementSpec,
    TreatmentSpec,
    bound_concept,
    induced_graph,
    parse_risk_catalog,
    validate_register,
)
from riskalign.riskgraph import RelationKind as K, Severity


def classification_of(text):
    return classify_model(builtin_ruleset("togaf91"), parse_tabular(text))


SMALL = (
    "FRAMEWORK|togaf91\n"
    "E|lab|Organization unit|Biomedical laboratory|\n"
    "E|data|Data entity|Clinical information|\n"
    "E|svc|Business service|Prescription validation and input|\n"
    "E|drv|Driver|Confidentiality|\n"
    "E|prn|Principle|Data protection|\n"
)


def test_lab_register_shape(lab_register):
    assert [r.id for r in lab_register.risks] == ["r1", "r2"]
    r1 = lab_register.risk("r1")
    assert r1.threat.agent == "Malicious insider"
    assert r1.threat.targets == ("do-prescription-data",)
    assert [v.text for v in r1.vulnerabilities] == [
        "Prescription data stored unencrypted"
    ]
    assert r1.impacts[0].negated == ("c1",)
    assert [t.id for t in r1.treatments] == ["t1"]
    assert [q.id for q in r1.treatments[0].requirements] == ["q1"]
    assert [k.id for k in r1.treatments[0].requirements[0].controls] == ["k1"]
    assert [c.id for c in lab_register.criteria] == ["c1"]


def test_interleaved_treatment_records_keep_record_order():
    text = (
        "RISK|x1|Risk one\n"
        "RISK|x2|Risk two\n"
        "TREAT|x2|t2|second\n"
        "TREAT|x1|t1|first\n"
        "REQ|t1|q1|one\n"
        "REQ|t2|q2|two\n"
        "CTRL|q2|k1|a\n"
        "REQ|t1|q3|three\n"
        "CTRL|q1|k2|b\n"
        "CTRL|q2|k3|c\n"
        "TREAT|x1|t3|third\n"
    )
    x1, x2 = parse_risk_catalog(text, classification_of(SMALL)).risks
    assert x1.treatments == [
        TreatmentSpec(
            "t1",
            "first",
            (
                RequirementSpec("q1", "one", (ControlSpec("k2", "b"),)),
                RequirementSpec("q3", "three"),
            ),
        ),
        TreatmentSpec("t3", "third"),
    ]
    assert x2.treatments == [
        TreatmentSpec(
            "t2",
            "second",
            (
                RequirementSpec(
                    "q2", "two", (ControlSpec("k1", "a"), ControlSpec("k3", "c"))
                ),
            ),
        )
    ]


def test_dash_means_no_agent_or_method(lab_register):
    threat = lab_register.risk("r2").threat
    assert threat.agent == ""
    assert threat.method == ""


def test_unknown_risk_lookup(lab_register):
    with pytest.raises(UnknownRiskError):
        lab_register.risk("r9")


def test_register_model_property(lab_register, lab_model):
    assert lab_register.model == lab_model


@pytest.mark.parametrize(
    "line,error_bit",
    [
        ("RISK|x1", "3 fields"),
        ("CRIT|c9|Name", "4 fields"),
        ("RISK|lab|Duplicate of an element id", "collides"),
        ("THREAT|r9|a|m|data", "unknown risk"),
        ("VULN|r9|text|data", "unknown risk"),
        ("IMPACT|r9|text|data|", "unknown risk"),
        ("TREAT|r9|t9|text", "unknown risk"),
        ("REQ|t9|q9|text", "unknown treatment"),
        ("CTRL|q9|k9|text", "unknown requirement"),
        ("BOGUS|x", "unknown record tag"),
        ("RISK||Empty id", "empty id"),
    ],
)
def test_catalog_reference_errors(line, error_bit):
    with pytest.raises(CatalogFormatError) as exc:
        parse_risk_catalog(line + "\n", classification_of(SMALL))
    assert error_bit in str(exc.value)


def test_catalog_unknown_element_id():
    text = "RISK|x1|Risk\nTHREAT|x1|a|m|ghost\n"
    with pytest.raises(CatalogFormatError) as exc:
        parse_risk_catalog(text, classification_of(SMALL))
    assert exc.value.line == 2
    assert "ghost" in str(exc.value)


def test_catalog_duplicate_threat_rejected():
    text = "RISK|x1|Risk\nTHREAT|x1|a|m|data\nTHREAT|x1|b|n|data\n"
    with pytest.raises(CatalogFormatError) as exc:
        parse_risk_catalog(text, classification_of(SMALL))
    assert "already has a threat" in str(exc.value)


def test_catalog_duplicate_id_rejected():
    text = "RISK|x1|One\nRISK|x1|Two\n"
    with pytest.raises(CatalogFormatError):
        parse_risk_catalog(text, classification_of(SMALL))


def test_catalog_unknown_criterion_in_impact():
    text = "RISK|x1|Risk\nIMPACT|x1|text||c9\n"
    with pytest.raises(CatalogFormatError) as exc:
        parse_risk_catalog(text, classification_of(SMALL))
    assert "criterion" in str(exc.value)


def test_criterion_must_be_declared_before_negation():
    text = "RISK|x1|Risk\nIMPACT|x1|text||c1\nCRIT|c1|Conf|\n"
    with pytest.raises(CatalogFormatError):
        parse_risk_catalog(text, classification_of(SMALL))


# --- binding --------------------------------------------------------------------------

def test_bound_concept_prefers_strongest_definite(lab_reviewed):
    assert bound_concept(lab_reviewed, "dev-tablet") is C.IS_ASSET
    assert bound_concept(lab_reviewed, "bs-home-blood-taking") is C.BUSINESS_ASSET
    # candidate-only elements fall back to plain Asset
    assert bound_concept(lab_reviewed, "pri-data-privacy-directive") is C.ASSET
    assert bound_concept(lab_reviewed, "goal-confidentiality-personal-info") is C.ASSET


def test_induced_graph_shape(lab_register):
    g = induced_graph(lab_register)
    assert g.entity("r1").concept is C.RISK
    assert g.entity("r1::event").concept is C.EVENT
    assert g.entity("r1::threat").concept is C.THREAT
    assert g.entity("r1::agent").name == "Malicious insider"
    assert g.entity("r1::method").concept is C.ATTACK_METHOD
    assert g.entity("r1::vuln1").concept is C.VULNERABILITY
    assert g.entity("r1::impact1").concept is C.IMPACT
    assert g.entity("c1").concept is C.SECURITY_CRITERION
    assert g.entity("do-prescription-data").concept is C.IS_ASSET
    # the incomplete threat has no agent or method entities
    assert g.entity("r2::agent") is None
    assert g.entity("r2::method") is None


def test_induced_graph_relations(lab_register):
    g = induced_graph(lab_register)
    kinds = {(r.kind, r.source, r.target) for r in g.relations}
    assert (K.PART_OF, "r1::event", "r1") in kinds
    assert (K.PART_OF, "r1::threat", "r1::event") in kinds
    assert (K.USES, "r1::agent", "r1::method") in kinds
    assert (K.TARGETS, "r1::threat", "do-prescription-data") in kinds
    assert (K.CHARACTERISTIC_OF, "r1::vuln1", "do-prescription-data") in kinds
    assert (K.LEADS_TO, "r1::event", "r1::impact1") in kinds
    assert (K.HARMS, "r1::impact1", "product-home-blood-analysis") in kinds
    assert (K.NEGATES, "r1::impact1", "c1") in kinds
    assert (K.DECISION_FOR, "t1", "r1") in kinds
    assert (K.REFINES, "q1", "t1") in kinds
    assert (K.MITIGATES, "q1", "r1") in kinds
    assert (K.IMPLEMENTS, "k1", "q1") in kinds
    # no uses edge without both parts, and criterion edges are not induced
    assert not any(k is K.USES and s.startswith("r2") for k, s, _ in kinds)
    assert not any(k is K.CONSTRAINS for k, _, _ in kinds)


def test_lab_register_validates_with_single_warning(lab_register):
    violations = validate_register(lab_register)
    assert [(v.code, v.subjects) for v in violations] == [
        ("THR_INCOMPLETE", ("r2::threat",))
    ]
    assert violations[0].severity is Severity.WARN


def register_from(catalog_text, classification):
    return parse_risk_catalog(catalog_text, classification)


def test_empty_risk_reports_all_three_gaps():
    reg = register_from("RISK|x1|Bare risk\n", classification_of(SMALL))
    codes = [v.code for v in validate_register(reg)]
    assert codes == ["EVT_NO_THREAT", "EVT_NO_VULN", "RISK_NO_IMPACT"]


def test_threat_with_agent_but_no_method_warns():
    text = (
        "RISK|x1|Risk\n"
        "THREAT|x1|Insider|-|data\n"
        "VULN|x1|weak|data\n"
        "IMPACT|x1|leak|data|\n"
    )
    reg = register_from(text, classification_of(SMALL))
    codes = [v.code for v in validate_register(reg)]
    assert codes == ["THR_INCOMPLETE"]


def test_criterion_on_definite_business_asset_is_clean(lab_reviewed):
    reg = register_from(
        "CRIT|cx|Integrity|meaning-prescribed-analyses\n", lab_reviewed
    )
    assert validate_register(reg) == []


def test_criterion_on_is_asset_flagged(lab_reviewed):
    reg = register_from("CRIT|cx|Integrity|dev-tablet\n", lab_reviewed)
    (v,) = validate_register(reg)
    assert v.code == "CRIT_NOT_ON_BIZASSET"
    assert v.subjects == ("cx", "dev-tablet")


def test_criterion_on_candidate_asset_flagged_as_unconfirmed(lab_reviewed):
    reg = register_from(
        "CRIT|cx|Integrity|pri-data-privacy-directive\n", lab_reviewed
    )
    (v,) = validate_register(reg)
    assert v.code == "CRIT_ON_UNCONFIRMED"


def test_review_refinement_unlocks_criterion_binding(lab_classification, lab_reviewed):
    # before review the prescription is a plain definite Asset
    catalog = "CRIT|cx|Integrity|bo-analysis-prescription\n"
    before = register_from(catalog, lab_classification)
    assert [v.code for v in validate_register(before)] == ["CRIT_ON_UNCONFIRMED"]
    after = register_from(catalog, lab_reviewed)
    assert validate_register(after) == []


def test_impact_harming_unclassified_element_flagged(lab_reviewed):
    text = (
        "RISK|x1|Risk\n"
        "THREAT|x1|Thief|Theft|dev-tablet\n"
        "VULN|x1|weak lock|dev-tablet\n"
        "IMPACT|x1|outage|goal-confidentiality-personal-info|\n"
    )
    reg = register_from(text, lab_reviewed)
    codes = {v.code for v in validate_register(reg)}
    assert "IMP_HARM_UNCLASSIFIED" in codes


def test_vulnerability_without_element_binding_flagged(lab_reviewed):
    text = (
        "RISK|x1|Risk\n"
        "THREAT|x1|Thief|Theft|dev-tablet\n"
        "VULN|x1|floating weakness|\n"
        "IMPACT|x1|outage|bs-home-blood-taking|\n"
    )
    reg = register_from(text, lab_reviewed)
    codes = [v.code for v in validate_register(reg)]
    assert codes == ["VULN_NO_ISASSET"]


def test_threat_targeting_business_asset_flagged(lab_reviewed):
    text = (
        "RISK|x1|Risk\n"
        "THREAT|x1|Thief|Theft|bs-home-blood-taking\n"
        "VULN|x1|weak lock|dev-tablet\n"
        "IMPACT|x1|outage|bs-home-blood-taking|\n"
    )
    reg = register_from(text, lab_reviewed)
    codes = [v.code for v in validate_register(reg)]
    assert codes == ["THR_TARGET_NOT_ISASSET"]
