"""The five vocabularies' contract against plain `enum.Enum` references.

ISSRMConcept, RelationKind, MappingKind, Tier and Severity subclass
`concepts.Vocabulary`, which changes two things of `enum.Enum`: a member
prints as its value, and it hashes by identity. Everything else (members,
order, repr, format, lookups, pickling, copies) must stay as a plain Enum
with the same members has it. The expected members are written out here, so
a change in how the vocabularies are declared cannot change any of them.
"""

from __future__ import annotations

import copy
import enum
import pickle

import pytest

import riskalign
from riskalign.classify import Tier
from riskalign.concepts import ISSRMConcept, Vocabulary
from riskalign.mappings import MappingKind
from riskalign.riskgraph import RelationKind, Severity

# Each class with its members, "NAME=value", in definition order.
EXPECTED = {
    ISSRMConcept: """ASSET=Asset BUSINESS_ASSET=BusinessAsset IS_ASSET=ISAsset
        SECURITY_CRITERION=SecurityCriterion RISK=Risk IMPACT=Impact EVENT=Event
        THREAT=Threat VULNERABILITY=Vulnerability THREAT_AGENT=ThreatAgent
        ATTACK_METHOD=AttackMethod RISK_TREATMENT=RiskTreatment
        SECURITY_REQUIREMENT=SecurityRequirement CONTROL=Control
        SECURITY_OBJECTIVE=SecurityObjective
        ATTRIBUTE_ANNOTATION=AttributeAnnotation""",
    RelationKind: """SUPPORTS=supports CONSTRAINS=constrains TARGETS=targets
        CHARACTERISTIC_OF=characteristic_of USES=uses PART_OF=part_of
        LEADS_TO=leads_to HARMS=harms NEGATES=negates DECISION_FOR=decision_for
        REFINES=refines MITIGATES=mitigates IMPLEMENTS=implements""",
    MappingKind: """EQUIVALENCE=equivalence GENERALISATION=generalisation
        SPECIALISATION=specialisation AGGREGATION=aggregation
        COMPOSITION=composition ASSOCIATION=association UNSPECIFIED=unspecified
        NON_STANDARD=non-standard""",
    Tier: "DEFINITE=definite CANDIDATE=candidate RELATED=related ANNOTATION=annotation",
    Severity: "ERROR=ERROR WARN=WARN",
}
CLASSES = list(EXPECTED)
IDS = [cls.__name__ for cls in CLASSES]


class _PrintsValue(enum.Enum):
    """A plain Enum whose members print as their value."""

    def __str__(self) -> str:
        return self.value


def reference(cls: type) -> type:
    """A plain Enum named as cls, with cls's expected members."""
    members = [item.split("=") for item in EXPECTED[cls].split()]
    return _PrintsValue(cls.__name__, names=members)


def pairs(cls: type) -> list[tuple[object, object]]:
    return list(zip(cls, reference(cls), strict=True))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_names_values_and_order_match_the_reference(cls):
    ref = reference(cls)
    assert [(m.name, m.value) for m in cls] == [(r.name, r.value) for r in ref]
    assert list(cls.__members__) == list(ref.__members__)
    assert len(cls) == len(ref)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_str_and_format_match_the_reference(cls):
    for member, ref in pairs(cls):
        assert repr(member) == repr(ref)
        assert str(member) == str(ref) == member.value
        assert format(member, "") == format(ref, "") == f"{member}" == member.value


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_lookups_return_the_member_itself(cls):
    for member, ref in pairs(cls):
        assert cls(member.value) is member and type(ref)(ref.value) is ref
        assert cls[member.name] is member and type(ref)[ref.name] is ref
        assert getattr(cls, member.name) is member
        assert isinstance(member, cls) and isinstance(member, Vocabulary)
    with pytest.raises(ValueError):
        cls("no such value")
    with pytest.raises(KeyError):
        cls["NO_SUCH_NAME"]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickling_returns_the_member_itself(cls, protocol):
    for member in cls:
        assert pickle.loads(pickle.dumps(member, protocol)) is member


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copies_are_the_member_itself(cls):
    for member in cls:
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member
        assert copy.deepcopy({member: [member]}) == {member: [member]}


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_members_hash_by_identity(cls):
    for member in cls:
        assert hash(member) == object.__hash__(member)
    index = {member: member.name for member in cls}
    assert all(index[member] == member.name for member in cls)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_no_member_equals_its_value(cls):
    for member in cls:
        assert member != member.value and member.value != member
        assert member.value not in {member}


def test_the_base_is_shared_memberless_and_not_exported():
    assert list(Vocabulary) == []
    for cls in CLASSES:
        assert cls.__bases__ == (Vocabulary,)
        assert "__str__" not in vars(cls) and "__hash__" not in vars(cls)
    assert "Vocabulary" not in riskalign.__all__
