import pytest

from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import (
    ClassificationFact,
    Tier,
    apply_review,
    classify_element,
    classify_model,
    parse_overlay,
    render_facts_records,
    render_facts_text,
    tier_of,
    unmapped_report,
)
from riskalign.concepts import ISSRMConcept as C
from riskalign.eamodel import EAElement, parse_tabular
from riskalign.errors import (
    FrameworkMismatchError,
    OverlayFormatError,
    ReviewError,
    UnknownElementError,
)
from riskalign.mappings import (
    ASSOCIATION,
    AGGREGATION,
    COMPOSITION,
    EQUIVALENCE,
    GENERALISATION,
    SPECIALISATION,
    UNSPECIFIED,
    AnnotationTarget,
    AttributeTarget,
    CompositeTarget,
    ConceptTarget,
    NoTarget,
    non_standard,
    parse_ruleset,
)


# --- tiers --------------------------------------------------------------------------

CONCEPT = ConceptTarget(C.IS_ASSET)


@pytest.mark.parametrize(
    "mapping,expected",
    [
        (EQUIVALENCE, Tier.DEFINITE),
        (SPECIALISATION, Tier.DEFINITE),
        (GENERALISATION, Tier.CANDIDATE),
        (non_standard("specification"), Tier.CANDIDATE),
        (ASSOCIATION, Tier.RELATED),
        (AGGREGATION, Tier.RELATED),
        (COMPOSITION, Tier.RELATED),
        (UNSPECIFIED, Tier.RELATED),
    ],
)
def test_tier_of_concept_targets(mapping, expected):
    assert tier_of(mapping, CONCEPT) is expected


def test_tier_of_attribute_targets_is_annotation():
    assert tier_of(EQUIVALENCE, AttributeTarget(C.BUSINESS_ASSET, "value")) is Tier.ANNOTATION
    assert tier_of(ASSOCIATION, AnnotationTarget()) is Tier.ANNOTATION


def test_tier_of_composite_follows_mapping():
    assert tier_of(EQUIVALENCE, CompositeTarget((C.IS_ASSET, C.BUSINESS_ASSET))) is Tier.DEFINITE


def test_tier_of_rejects_no_target():
    with pytest.raises(ValueError):
        tier_of(SPECIALISATION, NoTarget())


# --- element classification -----------------------------------------------------------

def test_classify_element_conditional():
    rs = builtin_ruleset("iaf")
    carrier = EAElement("a", "business object", "Ledger", {"carries_information": "true"})
    facts = classify_element(rs, carrier)
    assert [f.target for f in facts] == [ConceptTarget(C.IS_ASSET)]
    assert facts[0].tier is Tier.DEFINITE
    plain = EAElement("b", "business object", "Logo", {})
    assert classify_element(rs, plain) == []


def test_classify_element_composite():
    facts = classify_element(builtin_ruleset("dodaf202"), EAElement("c", "capability"))
    assert [f.target for f in facts] == [CompositeTarget((C.IS_ASSET, C.BUSINESS_ASSET))]
    assert facts[0].tier is Tier.DEFINITE


def test_classify_element_unknown_concept_is_empty():
    assert classify_element(builtin_ruleset("togaf91"), EAElement("x", "wormhole")) == []


def test_fact_provenance():
    fact = ClassificationFact("e", CONCEPT, SPECIALISATION, Tier.DEFINITE, "iaf", 7)
    assert fact.provenance == "iaf:7"


# --- model classification --------------------------------------------------------------

def test_classify_model_requires_matching_framework(lab_model):
    with pytest.raises(FrameworkMismatchError):
        classify_model(builtin_ruleset("togaf91"), lab_model)


def test_lab_classification_shape(lab_classification):
    cs = lab_classification
    assert len(cs.facts) == 29
    assert cs.unmapped == ()
    assert cs.unknown == ()
    ids = [f.element_id for f in cs.facts]
    assert ids == sorted(ids)


def test_lab_definite_asset_counts(lab_classification):
    cs = lab_classification
    is_assets = [
        e for e in cs.model.elements
        if C.IS_ASSET in cs.definite_concepts(e)
    ]
    biz_assets = [
        e for e in cs.model.elements
        if C.BUSINESS_ASSET in cs.definite_concepts(e)
    ]
    assert len(is_assets) == 14
    assert len(biz_assets) == 7


def test_lab_candidates(lab_classification):
    candidates = {
        f.element_id: f.target.concept
        for f in lab_classification.facts
        if f.tier is Tier.CANDIDATE
    }
    assert candidates == {
        "asm-disclosure-risk": C.RISK,
        "drv-confidentiality": C.SECURITY_CRITERION,
        "pri-data-privacy-directive": C.ASSET,
        "req-access-control": C.SECURITY_REQUIREMENT,
    }


def test_lab_annotation_fact(lab_classification):
    (fact,) = [f for f in lab_classification.facts if f.tier is Tier.ANNOTATION]
    assert fact.element_id == "value-home-care"
    assert fact.target == AttributeTarget(C.BUSINESS_ASSET, "value")


def test_lab_blank_type_warning(lab_classification):
    assert len(lab_classification.warnings) == 1
    assert "sh-privacy-regulator" in lab_classification.warnings[0]


@pytest.mark.parametrize("target", ["ISAsset::owner", "@attributes"])
def test_irregular_type_warnings_name_the_annotation_tier(target):
    # An attribute-level target classifies at annotation tier whatever its
    # mapping type, and the warning names the tier the fact got.
    ruleset = parse_ruleset(
        "RULESET|iaf|irregular types\n"
        f"actor|Business Architecture|{target}|||\n"
        f"sla|Business Architecture|{target}|specification||\n"
    )
    model = parse_tabular("FRAMEWORK|iaf\nE|a|actor|Actor|\nE|s|sla|SLA|\n")
    result = classify_model(ruleset, model)
    assert [fact.tier for fact in result.facts] == [Tier.ANNOTATION] * 2
    assert result.warnings == (
        "a: iaf row 1 (actor) has a blank mapping type; classified at annotation tier",
        "s: iaf row 2 (sla) uses non-standard mapping type 'specification'; "
        "classified at annotation tier",
    )


def test_unmapped_and_unknown_partition():
    text = (
        "FRAMEWORK|togaf91\n"
        "E|e1|Event|Launch|\n"
        "E|e2|Actor|Alice|\n"
        "E|e3|Wormhole|Hole|\n"
    )
    cs = classify_model(builtin_ruleset("togaf91"), parse_tabular(text))
    assert cs.unmapped == ("e1",)
    assert cs.unknown == ("e3",)
    assert [f.element_id for f in cs.facts] == ["e2"]


def test_unmapped_report_carries_reason():
    text = "FRAMEWORK|archimate21\nE|s1|Structure element||\nE|e1|Business event||\n"
    cs = classify_model(builtin_ruleset("archimate21"), parse_tabular(text))
    entries = {e.element_id: e for e in unmapped_report(cs)}
    assert entries["s1"].reason == "because not instantiated"
    assert entries["e1"].reason == ""


# --- review overlays -------------------------------------------------------------------

def test_parse_overlay_rejects_bad_lines():
    with pytest.raises(OverlayFormatError):
        parse_overlay("CONFIRM|a|Risk|confirm|\n")
    with pytest.raises(OverlayFormatError):
        parse_overlay("REVIEW|a|Risk|maybe|\n")
    with pytest.raises(OverlayFormatError):
        parse_overlay("REVIEW|a|NotAConcept|confirm|\n")
    with pytest.raises(OverlayFormatError):
        parse_overlay("REVIEW|a|Risk|confirm\n")


def test_review_promotes_candidates(lab_classification, lab_reviewed):
    before = {
        f.element_id: f.tier
        for f in lab_classification.facts
        if f.element_id == "asm-disclosure-risk"
    }
    assert before == {"asm-disclosure-risk": Tier.CANDIDATE}
    (fact,) = lab_reviewed.facts_for("asm-disclosure-risk")
    assert fact.tier is Tier.DEFINITE
    assert fact.confirmed
    # an unreviewed candidate stays a candidate
    (pri,) = lab_reviewed.facts_for("pri-data-privacy-directive")
    assert pri.tier is Tier.CANDIDATE


def test_review_refines_definite_asset(lab_reviewed):
    (fact,) = lab_reviewed.facts_for("bo-analysis-prescription")
    assert fact.target == ConceptTarget(C.BUSINESS_ASSET)
    assert fact.tier is Tier.DEFINITE
    assert fact.confirmed


def test_review_is_idempotent(fixtures_dir, lab_classification, lab_reviewed):
    overlay = parse_overlay((fixtures_dir / "lab.overlay").read_text())
    again = apply_review(lab_reviewed, overlay)
    assert again.facts == lab_reviewed.facts


def test_reject_removes_candidate(lab_classification):
    overlay = parse_overlay("REVIEW|pri-data-privacy-directive|Asset|reject|not relevant\n")
    cs = apply_review(lab_classification, overlay)
    assert cs.facts_for("pri-data-privacy-directive") == ()


def test_review_acts_only_on_the_candidate_beside_a_definite_fact():
    # One source names ISAsset twice: definite by specialisation, and a
    # candidate by generalisation where an attribute holds.
    ruleset = parse_ruleset(
        "RULESET|archimate21|one target at two tiers\n"
        "node|Technology layer|ISAsset|specialisation||\n"
        "node|Technology layer|ISAsset|generalisation|shared=yes|\n"
    )
    model = parse_tabular("FRAMEWORK|archimate21\nE|n|node|Server|shared=yes\n")
    classification = classify_model(ruleset, model)
    definite, candidate = classification.facts_for("n")
    assert (definite.tier, candidate.tier) == (Tier.DEFINITE, Tier.CANDIDATE)

    def review(verdict):
        overlay = parse_overlay(f"REVIEW|n|ISAsset|{verdict}|\n")
        return apply_review(classification, overlay).facts_for("n")

    assert review("reject") == (definite,)
    promoted = candidate._replace(tier=Tier.DEFINITE, confirmed=True)
    assert review("confirm") == (definite, promoted)


def test_review_keeps_unmapped_and_unknown_so_a_rejected_element_is_in_none():
    model = parse_tabular("FRAMEWORK|archimate21\nE|d|driver|Conf|\nE|z|zzz||\n")
    classification = classify_model(builtin_ruleset("archimate21"), model)
    (fact,) = classification.facts_for("d")
    assert fact.tier is Tier.CANDIDATE
    overlay = parse_overlay("REVIEW|d|SecurityCriterion|reject|no\n")
    reviewed = apply_review(classification, overlay)
    assert reviewed.facts_for("d") == () and reviewed.facts == ()
    assert reviewed.unmapped == classification.unmapped
    assert reviewed.unknown == classification.unknown == ("z",)
    assert "d" not in (*reviewed.unmapped, *reviewed.unknown)


def test_reject_definite_fact_fails(lab_classification):
    overlay = parse_overlay("REVIEW|dev-tablet|ISAsset|reject|\n")
    with pytest.raises(ReviewError):
        apply_review(lab_classification, overlay)


def test_confirm_unreviewable_definite_fails(lab_classification):
    overlay = parse_overlay("REVIEW|dev-tablet|ISAsset|confirm|\n")
    with pytest.raises(ReviewError):
        apply_review(lab_classification, overlay)


def test_confirm_without_matching_fact_fails(lab_classification):
    overlay = parse_overlay("REVIEW|dev-tablet|Risk|confirm|\n")
    with pytest.raises(ReviewError):
        apply_review(lab_classification, overlay)


def test_review_unknown_element_fails(lab_classification):
    overlay = parse_overlay("REVIEW|ghost|Risk|confirm|\n")
    with pytest.raises(UnknownElementError):
        apply_review(lab_classification, overlay)


# --- reports ---------------------------------------------------------------------------

def test_render_facts_records_shape(lab_reviewed):
    lines = render_facts_records(lab_reviewed).splitlines()
    assert len(lines) == len(lab_reviewed.facts)
    assert all(line.startswith("F|") for line in lines)
    tablet = next(line for line in lines if "dev-tablet" in line)
    assert tablet == "F|dev-tablet|ISAsset|specialisation|definite|archimate21:29"


def test_render_facts_records_unmapped_unknown():
    text = "FRAMEWORK|togaf91\nE|e1|Event||\nE|e3|Wormhole||\n"
    cs = classify_model(builtin_ruleset("togaf91"), parse_tabular(text))
    lines = render_facts_records(cs).splitlines()
    assert lines == ["U|e1|", "X|e3"]


def test_render_facts_text_mentions_confirmation(lab_reviewed):
    text = render_facts_text(lab_reviewed)
    assert "facts: 29" in text
    assert (
        "asm-disclosure-risk (Risk of disclosure of personal data due to lack "
        "of employee's awareness) -> Risk [generalisation, definite, confirmed] "
        "archimate21:36" in text
    )
    assert "unmapped: 0" in text
    assert "unknown: 0" in text
