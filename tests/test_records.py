"""Value semantics of the record types: equality, hashing, truthiness, copies."""

from riskalign.classify import ClassificationFact, Tier
from riskalign.concepts import ISSRMConcept
from riskalign.eamodel import EAElement
from riskalign.mappings import (
    EQUIVALENCE,
    GENERALISATION,
    AnnotationTarget,
    AttributeTarget,
    CompositeTarget,
    ConceptTarget,
    NoTarget,
)
from riskalign.riskgraph import Violation

TARGETS = [
    ConceptTarget(ISSRMConcept.ASSET),
    AttributeTarget(ISSRMConcept.ASSET, "*"),
    CompositeTarget((ISSRMConcept.ASSET,)),
    AnnotationTarget(),
    NoTarget(),
    NoTarget("not modelled"),
]


def test_mapping_targets_of_different_types_never_compare_equal():
    for i, left in enumerate(TARGETS):
        for j, right in enumerate(TARGETS):
            assert (left == right) is (i == j)
            assert (left != right) is (i != j)
    assert AnnotationTarget() != ()
    assert () != AnnotationTarget()


def test_annotation_target_is_truthy_hashable_and_equal_to_itself():
    assert AnnotationTarget()
    assert AnnotationTarget() == AnnotationTarget()
    assert hash(AnnotationTarget()) == hash(AnnotationTarget())
    assert len({AnnotationTarget(), AnnotationTarget(), *TARGETS}) == len(TARGETS)
    assert repr(AnnotationTarget()) == "AnnotationTarget()"
    assert all(TARGETS)


def test_elements_built_without_attributes_do_not_share_a_dict():
    first, second = EAElement("a", "node"), EAElement("b", "node")
    assert first.attributes == second.attributes == {}
    assert first.attributes is not second.attributes
    first.attributes["k"] = "v"
    assert second.attributes == {}
    assert EAElement("c", "node").attributes == {}
    assert repr(second) == "EAElement(id='b', concept_name='node', name='', attributes={})"


def test_copied_fact_equals_and_hashes_like_a_fresh_one():
    target = ConceptTarget(ISSRMConcept.BUSINESS_ASSET)
    candidate = ClassificationFact("e", target, GENERALISATION, Tier.CANDIDATE, "iaf", 3)
    copied = candidate._replace(tier=Tier.DEFINITE, confirmed=True)
    fresh = ClassificationFact(
        "e", target, GENERALISATION, Tier.DEFINITE, "iaf", 3, confirmed=True
    )
    assert copied == fresh
    assert hash(copied) == hash(fresh)
    assert type(copied) is ClassificationFact
    assert candidate.tier is Tier.CANDIDATE and not candidate.confirmed
    assert copied != candidate._replace(mapping_type=EQUIVALENCE)
    assert copied.provenance == "iaf:3"


def test_violations_deduplicate_on_code_and_subjects_only():
    first = Violation("PART_OF_PAIR", ("a", "b"), "first wording")
    reworded = Violation("PART_OF_PAIR", ("a", "b"), "second wording")
    other = Violation("PART_OF_PAIR", ("a", "c"), "first wording")
    assert first == reworded and not first != reworded
    assert hash(first) == hash(reworded)
    assert first != other
    assert {first, reworded, other} == {first, other}
    assert len({first, reworded, other}) == 2
    assert first != ("PART_OF_PAIR", ("a", "b"), "first wording")
    assert Violation("PART_OF_PAIR", ("a", "b")).message == ""
