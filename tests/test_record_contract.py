"""The value records' contract: fields, defaults, repr, equality, hashing,
pickling, copies of the same type, and no per-instance __dict__.

The expected fields, defaults and reprs are those the record types have had
since they were declared, so a change in how a record is declared cannot
change any of them.
"""

from __future__ import annotations

import importlib
import pickle

import pytest

from riskalign.classify import Tier
from riskalign.concepts import ISSRMConcept as C
from riskalign.mappings import AttributeEquals, ConceptTarget, MappingKind, MappingType
from riskalign.riskgraph import RelationKind

TARGET = ConceptTarget(C.ASSET)
EQUIV = MappingType(MappingKind.EQUIVALENCE)
TARGET_REPR = "ConceptTarget(concept=<ISSRMConcept.ASSET: 'Asset'>)"
EQUIV_REPR = "MappingType(kind=<MappingKind.EQUIVALENCE: 'equivalence'>, text='')"

# (home module, record type, fields, defaults, sample arguments, sample repr)
RECORDS = [
    ("eamodel", "_ElementFields", "id concept_name name attributes", {},
     ("e1", "node", "Tablet", {"k": "v"}),
     "_ElementFields(id='e1', concept_name='node', name='Tablet', attributes={'k': 'v'})"),
    ("eamodel", "EAElement", "id concept_name name attributes", {},
     ("e1", "node", "Tablet", {"k": "v"}),
     "EAElement(id='e1', concept_name='node', name='Tablet', attributes={'k': 'v'})"),
    ("eamodel", "EARelationship", "id kind source target", {},
     ("r1", "serving", "e1", "e2"),
     "EARelationship(id='r1', kind='serving', source='e1', target='e2')"),
    ("mappings", "MappingType", "kind text", {"text": ""},
     (MappingKind.NON_STANDARD, "uses"),
     "MappingType(kind=<MappingKind.NON_STANDARD: 'non-standard'>, text='uses')"),
    ("mappings", "ConceptTarget", "concept", {}, (C.ASSET,), TARGET_REPR),
    ("mappings", "AttributeTarget", "concept attribute", {}, (C.IS_ASSET, "*"),
     "AttributeTarget(concept=<ISSRMConcept.IS_ASSET: 'ISAsset'>, attribute='*')"),
    ("mappings", "CompositeTarget", "concepts", {}, ((C.ASSET, C.RISK),),
     "CompositeTarget(concepts=(<ISSRMConcept.ASSET: 'Asset'>, "
     "<ISSRMConcept.RISK: 'Risk'>))"),
    ("mappings", "NoTarget", "reason", {"reason": ""}, ("not modelled",),
     "NoTarget(reason='not modelled')"),
    ("mappings", "AttributeEquals", "key value", {}, ("critical", "true"),
     "AttributeEquals(key='critical', value='true')"),
    ("mappings", "AlignmentRule",
     "framework row section source target mapping_type condition example",
     {"condition": None, "example": ""},
     ("iaf", 3, "Core", "node", TARGET, EQUIV, AttributeEquals("k", "v"), "a server"),
     f"AlignmentRule(framework='iaf', row=3, section='Core', source='node', "
     f"target={TARGET_REPR}, mapping_type={EQUIV_REPR}, "
     "condition=AttributeEquals(key='k', value='v'), example='a server')"),
    ("concepts", "CatalogEntry", "concept category", {}, (C.RISK, "risk-related"),
     "CatalogEntry(concept=<ISSRMConcept.RISK: 'Risk'>, category='risk-related')"),
    ("classify", "ClassificationFact",
     "element_id target mapping_type tier framework row confirmed", {"confirmed": False},
     ("e1", TARGET, EQUIV, Tier.DEFINITE, "iaf", 3, True),
     f"ClassificationFact(element_id='e1', target={TARGET_REPR}, "
     f"mapping_type={EQUIV_REPR}, tier=<Tier.DEFINITE: 'definite'>, "
     "framework='iaf', row=3, confirmed=True)"),
    ("classify", "_Step", "condition fact warning", {},
     (None, (TARGET, EQUIV, Tier.DEFINITE, "iaf", 3, False), "a warning"),
     f"_Step(condition=None, fact=({TARGET_REPR}, {EQUIV_REPR}, "
     "<Tier.DEFINITE: 'definite'>, 'iaf', 3, False), warning='a warning')"),
    ("classify", "_ConceptPlan", "steps conditional", {}, ((), False),
     "_ConceptPlan(steps=(), conditional=False)"),
    ("classify", "ReviewEntry", "element_id concept verdict note", {"note": ""},
     ("e1", C.ASSET, "confirm", "checked"),
     "ReviewEntry(element_id='e1', concept=<ISSRMConcept.ASSET: 'Asset'>, "
     "verdict='confirm', note='checked')"),
    ("classify", "ReviewOverlay", "entries", {}, ((),), "ReviewOverlay(entries=())"),
    ("classify", "UnmappedEntry", "element_id name concept_name reason", {},
     ("e1", "Tablet", "node", "no counterpart"),
     "UnmappedEntry(element_id='e1', name='Tablet', concept_name='node', "
     "reason='no counterpart')"),
    ("register", "ThreatSpec", "agent method targets", {}, ("Thief", "-", ("e1", "e2")),
     "ThreatSpec(agent='Thief', method='-', targets=('e1', 'e2'))"),
    ("register", "VulnerabilitySpec", "text elements", {}, ("weak lock", ("e1",)),
     "VulnerabilitySpec(text='weak lock', elements=('e1',))"),
    ("register", "ImpactSpec", "text harmed negated", {}, ("data loss", ("e2",), ("c1",)),
     "ImpactSpec(text='data loss', harmed=('e2',), negated=('c1',))"),
    ("register", "ControlSpec", "id text", {}, ("k1", "encrypt"),
     "ControlSpec(id='k1', text='encrypt')"),
    ("register", "RequirementSpec", "id text controls", {"controls": ()},
     ("q1", "protect", ()), "RequirementSpec(id='q1', text='protect', controls=())"),
    ("register", "TreatmentSpec", "id text requirements", {"requirements": ()},
     ("t1", "reduce", ()), "TreatmentSpec(id='t1', text='reduce', requirements=())"),
    ("register", "CriterionSpec", "id name constrains", {},
     ("c1", "confidentiality", ("e2",)),
     "CriterionSpec(id='c1', name='confidentiality', constrains=('e2',))"),
    ("riskgraph", "Entity", "id concept name", {"name": ""}, ("e1", C.IS_ASSET, "Tablet"),
     "Entity(id='e1', concept=<ISSRMConcept.IS_ASSET: 'ISAsset'>, name='Tablet')"),
    ("riskgraph", "Relation", "kind source target", {},
     (RelationKind.SUPPORTS, "e1", "e2"),
     "Relation(kind=<RelationKind.SUPPORTS: 'supports'>, source='e1', target='e2')"),
    ("riskgraph", "Violation", "code subjects message", {"message": ""},
     ("PART_OF_PAIR", ("a", "b"), "first wording"),
     "Violation(code='PART_OF_PAIR', subjects=('a', 'b'), message='first wording')"),
    ("analysis", "TraceNode", "kind ref label children flags path",
     {"children": (), "flags": (), "path": ()},
     ("risk", "r1", "Theft", (), ("UNTREATED",), ()),
     "TraceNode(kind='risk', ref='r1', label='Theft', children=(), "
     "flags=('UNTREATED',), path=())"),
    ("analysis", "CoverageReport",
     "is_asset_count is_assets_with_vulnerability risks_total risks_with_treatment "
     "requirements_total requirements_with_control unmapped_count unknown_count", {},
     (1, 2, 3, 4, 5, 6, 7, 8),
     "CoverageReport(is_asset_count=1, is_assets_with_vulnerability=2, risks_total=3, "
     "risks_with_treatment=4, requirements_total=5, requirements_with_control=6, "
     "unmapped_count=7, unknown_count=8)"),
]
IDS = [name for _, name, *_ in RECORDS]


def test_every_record_type_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 29  # 28 declared types and EAElement


@pytest.mark.parametrize(("module", "name", "fields", "defaults", "args", "text"),
                         RECORDS, ids=IDS)
def test_record_contract(module, name, fields, defaults, args, text):
    record_type = getattr(importlib.import_module(f"riskalign.{module}"), name)
    record = record_type(*args)
    assert record_type._fields == tuple(fields.split())
    assert record_type._field_defaults == defaults
    assert repr(record) == text
    assert record == record_type(*args) and not record != record_type(*args)
    assert record != record._replace(**{record_type._fields[0]: "other"})
    if module == "eamodel" and name != "EARelationship":
        with pytest.raises(TypeError):  # the attributes dict is unhashable
            hash(record)
    else:
        assert hash(record) == hash(record_type(*args))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(record, protocol))
        assert type(copied) is record_type and copied == record
    assert type(record._replace()) is record_type
    assert record._replace() == record
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(("module", "name", "fields", "defaults", "args", "text"),
                         RECORDS, ids=IDS)
def test_omitted_fields_take_their_defaults(module, name, fields, defaults, args, text):
    record_type = getattr(importlib.import_module(f"riskalign.{module}"), name)
    record = record_type(*args[:len(args) - len(defaults)])
    assert {field: getattr(record, field) for field in defaults} == defaults
