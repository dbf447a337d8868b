"""Typed risk graphs and their structural validator.

A RiskGraph holds entities typed by ISSRM concept and relations drawn from a
closed kind vocabulary. validate_structure() reports rule breaches as
Violation values instead of raising, so callers can collect, sort and render
them. Graphs are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .concepts import ASSET_KINDS, ISSRMConcept
from .errors import DuplicateIdError


class RelationKind(enum.Enum):
    SUPPORTS = "supports"
    CONSTRAINS = "constrains"
    TARGETS = "targets"
    CHARACTERISTIC_OF = "characteristic_of"
    USES = "uses"
    PART_OF = "part_of"
    LEADS_TO = "leads_to"
    HARMS = "harms"
    NEGATES = "negates"
    DECISION_FOR = "decision_for"
    REFINES = "refines"
    MITIGATES = "mitigates"
    IMPLEMENTS = "implements"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Entity:
    id: str
    concept: ISSRMConcept
    name: str = ""


@dataclass(frozen=True)
class Relation:
    kind: RelationKind
    source: str
    target: str


class Severity(enum.Enum):
    ERROR = "ERROR"
    WARN = "WARN"

    def __str__(self) -> str:
        return self.value


# Every violation code the validators can emit, with its severity.
SEVERITY_BY_CODE: dict[str, Severity] = {
    "REL_ENDPOINT_MISSING": Severity.ERROR,
    "REL_SOURCE_KIND": Severity.ERROR,
    "REL_TARGET_KIND": Severity.ERROR,
    "PART_OF_PAIR": Severity.ERROR,
    "THR_TARGET_NOT_ISASSET": Severity.ERROR,
    "VULN_NOT_ON_ISASSET": Severity.ERROR,
    "CRIT_NOT_ON_BIZASSET": Severity.ERROR,
    "ENT_PSEUDO_CONCEPT": Severity.ERROR,
    "EVT_NO_THREAT": Severity.ERROR,
    "EVT_MULTI_THREAT": Severity.ERROR,
    "EVT_NO_VULN": Severity.ERROR,
    "RISK_NO_EVENT": Severity.ERROR,
    "RISK_MULTI_EVENT": Severity.ERROR,
    "RISK_NO_IMPACT": Severity.ERROR,
    "THR_MULTI_AGENT": Severity.ERROR,
    "THR_MULTI_METHOD": Severity.ERROR,
    "VULN_NO_ISASSET": Severity.ERROR,
    "THR_INCOMPLETE": Severity.WARN,
    # register-level binding checks
    "IMP_HARM_UNCLASSIFIED": Severity.ERROR,
    "CRIT_ON_UNCONFIRMED": Severity.ERROR,
}


@dataclass(frozen=True)
class Violation:
    """One structural finding.

    Identity is (code, subjects) only; the message is presentation and never
    affects equality, hashing or ordering.
    """

    code: str
    subjects: tuple[str, ...]
    message: str = field(default="", compare=False)

    @property
    def severity(self) -> Severity:
        return SEVERITY_BY_CODE[self.code]

    def sort_key(self) -> tuple[str, tuple[str, ...]]:
        return (self.code, self.subjects)


# Endpoint kind constraints per relation kind. The target-side code is
# specialized where a named rule exists for that relation.
_SOURCE = "REL_SOURCE_KIND"
_TARGET = "REL_TARGET_KIND"
_ENDPOINT_RULES: dict[
    RelationKind,
    tuple[frozenset[ISSRMConcept], frozenset[ISSRMConcept], str],
] = {
    RelationKind.SUPPORTS: (
        frozenset({ISSRMConcept.IS_ASSET}),
        frozenset({ISSRMConcept.BUSINESS_ASSET}),
        _TARGET,
    ),
    RelationKind.CONSTRAINS: (
        frozenset({ISSRMConcept.SECURITY_CRITERION}),
        frozenset({ISSRMConcept.BUSINESS_ASSET}),
        "CRIT_NOT_ON_BIZASSET",
    ),
    RelationKind.TARGETS: (
        frozenset({ISSRMConcept.THREAT}),
        frozenset({ISSRMConcept.IS_ASSET}),
        "THR_TARGET_NOT_ISASSET",
    ),
    RelationKind.CHARACTERISTIC_OF: (
        frozenset({ISSRMConcept.VULNERABILITY}),
        frozenset({ISSRMConcept.IS_ASSET}),
        "VULN_NOT_ON_ISASSET",
    ),
    RelationKind.USES: (
        frozenset({ISSRMConcept.THREAT_AGENT}),
        frozenset({ISSRMConcept.ATTACK_METHOD}),
        _TARGET,
    ),
    RelationKind.LEADS_TO: (
        frozenset({ISSRMConcept.EVENT}),
        frozenset({ISSRMConcept.IMPACT}),
        _TARGET,
    ),
    RelationKind.HARMS: (
        frozenset({ISSRMConcept.IMPACT}),
        ASSET_KINDS,
        _TARGET,
    ),
    RelationKind.NEGATES: (
        frozenset({ISSRMConcept.IMPACT}),
        frozenset({ISSRMConcept.SECURITY_CRITERION}),
        _TARGET,
    ),
    RelationKind.DECISION_FOR: (
        frozenset({ISSRMConcept.RISK_TREATMENT}),
        frozenset({ISSRMConcept.RISK}),
        _TARGET,
    ),
    RelationKind.REFINES: (
        frozenset({ISSRMConcept.SECURITY_REQUIREMENT}),
        frozenset({ISSRMConcept.RISK_TREATMENT}),
        _TARGET,
    ),
    RelationKind.MITIGATES: (
        frozenset({ISSRMConcept.SECURITY_REQUIREMENT}),
        frozenset({ISSRMConcept.RISK}),
        _TARGET,
    ),
    RelationKind.IMPLEMENTS: (
        frozenset({ISSRMConcept.CONTROL}),
        frozenset({ISSRMConcept.SECURITY_REQUIREMENT}),
        _TARGET,
    ),
}

# Legal (part concept, whole concept) pairs for part_of.
PART_OF_PAIRS = frozenset(
    {
        (ISSRMConcept.THREAT, ISSRMConcept.EVENT),
        (ISSRMConcept.VULNERABILITY, ISSRMConcept.EVENT),
        (ISSRMConcept.EVENT, ISSRMConcept.RISK),
        (ISSRMConcept.IMPACT, ISSRMConcept.RISK),
        (ISSRMConcept.THREAT_AGENT, ISSRMConcept.THREAT),
        (ISSRMConcept.ATTACK_METHOD, ISSRMConcept.THREAT),
    }
)


class RiskGraph:
    """Immutable graph of typed entities and relations.

    Duplicate entity ids raise DuplicateIdError at construction; everything
    else (bad endpoint kinds, missing endpoints, cardinality breaches) is a
    matter for validate_structure.
    """

    def __init__(self, entities: list[Entity] | tuple[Entity, ...] = (),
                 relations: list[Relation] | tuple[Relation, ...] = ()):
        by_id: dict[str, Entity] = {}
        for ent in entities:
            if ent.id in by_id:
                raise DuplicateIdError(f"duplicate entity id {ent.id!r}")
            by_id[ent.id] = ent
        self._entities = by_id
        self._relations = tuple(relations)

    @property
    def entities(self) -> dict[str, Entity]:
        return dict(self._entities)

    @property
    def relations(self) -> tuple[Relation, ...]:
        return self._relations

    def entity(self, entity_id: str) -> Entity | None:
        return self._entities.get(entity_id)

    def with_entity(self, entity: Entity) -> "RiskGraph":
        """Return a copy with one entity added."""
        return RiskGraph(list(self._entities.values()) + [entity], self._relations)

    def with_relation(self, relation: Relation) -> "RiskGraph":
        """Return a copy with one relation added."""
        return RiskGraph(list(self._entities.values()), self._relations + (relation,))


def _relation_subjects(rel: Relation) -> tuple[str, str, str]:
    return (rel.kind.value, rel.source, rel.target)


def validate_structure(graph: RiskGraph) -> list[Violation]:
    """Check a risk graph against the structural rules.

    Returns violations sorted by (code, subjects) with duplicates removed.
    Existence-cardinality rules are gated: a composite must have at least one
    valid part before "is missing its X part" findings apply, so adding a
    bare entity never introduces a violation. At-most-one rules always apply.
    """
    entities = graph._entities
    found: set[Violation] = set()

    def emit(code: str, subjects: tuple[str, ...], message: str) -> None:
        found.add(Violation(code, subjects, message))

    # Valid part_of edges feeding each composite, by part concept.
    parts: dict[str, list[Entity]] = {eid: [] for eid in entities}
    in_event: set[str] = set()  # entities part_of some event
    characterizes: set[str] = set()  # sources of characteristic_of edges

    for rel in graph.relations:
        subjects = _relation_subjects(rel)
        src = entities.get(rel.source)
        dst = entities.get(rel.target)
        if src is None or dst is None:
            missing = rel.source if src is None else rel.target
            emit(
                "REL_ENDPOINT_MISSING",
                subjects,
                f"{rel.kind} endpoint {missing!r} is not an entity in the graph",
            )
            continue
        if rel.kind is RelationKind.CHARACTERISTIC_OF:
            characterizes.add(src.id)
        if rel.kind is RelationKind.PART_OF:
            if dst.concept is ISSRMConcept.EVENT:
                in_event.add(src.id)
            if (src.concept, dst.concept) in PART_OF_PAIRS:
                parts[dst.id].append(src)
            else:
                emit(
                    "PART_OF_PAIR",
                    subjects,
                    f"{src.concept} cannot be part of {dst.concept}",
                )
            continue
        source_kinds, target_kinds, target_code = _ENDPOINT_RULES[rel.kind]
        if src.concept not in source_kinds:
            emit(
                _SOURCE,
                subjects,
                f"{rel.kind} source must be "
                f"{_kinds_label(source_kinds)}, got {src.concept}",
            )
        if dst.concept not in target_kinds:
            emit(
                target_code,
                subjects,
                f"{rel.kind} target must be "
                f"{_kinds_label(target_kinds)}, got {dst.concept}",
            )

    for ent in entities.values():
        if ent.concept is ISSRMConcept.ATTRIBUTE_ANNOTATION:
            emit(
                "ENT_PSEUDO_CONCEPT",
                (ent.id,),
                "AttributeAnnotation marks rule targets and cannot type an entity",
            )
        own_parts = parts[ent.id]

        if ent.concept is ISSRMConcept.EVENT:
            threats = [p for p in own_parts if p.concept is ISSRMConcept.THREAT]
            vulns = [p for p in own_parts if p.concept is ISSRMConcept.VULNERABILITY]
            if len(threats) > 1:
                emit("EVT_MULTI_THREAT", (ent.id,), "event has more than one threat part")
            if own_parts:
                if not threats:
                    emit("EVT_NO_THREAT", (ent.id,), "event has no threat part")
                if not vulns:
                    emit("EVT_NO_VULN", (ent.id,), "event has no vulnerability part")

        elif ent.concept is ISSRMConcept.RISK:
            events = [p for p in own_parts if p.concept is ISSRMConcept.EVENT]
            impacts = [p for p in own_parts if p.concept is ISSRMConcept.IMPACT]
            if len(events) > 1:
                emit("RISK_MULTI_EVENT", (ent.id,), "risk has more than one event part")
            if own_parts:
                if not events:
                    emit("RISK_NO_EVENT", (ent.id,), "risk has no event part")
                if not impacts:
                    emit("RISK_NO_IMPACT", (ent.id,), "risk has no impact part")

        elif ent.concept is ISSRMConcept.THREAT:
            agents = [p for p in own_parts if p.concept is ISSRMConcept.THREAT_AGENT]
            methods = [p for p in own_parts if p.concept is ISSRMConcept.ATTACK_METHOD]
            if len(agents) > 1:
                emit("THR_MULTI_AGENT", (ent.id,), "threat has more than one agent part")
            if len(methods) > 1:
                emit("THR_MULTI_METHOD", (ent.id,), "threat has more than one method part")
            if ent.id in in_event and (not agents or not methods):
                emit(
                    "THR_INCOMPLETE",
                    (ent.id,),
                    "threat in an event lacks an agent or attack method",
                )

        elif ent.concept is ISSRMConcept.VULNERABILITY:
            if ent.id in in_event and ent.id not in characterizes:
                emit(
                    "VULN_NO_ISASSET",
                    (ent.id,),
                    "vulnerability in an event is not a characteristic of any IS asset",
                )

    return sorted(found, key=Violation.sort_key)


def _kinds_label(kinds: frozenset[ISSRMConcept]) -> str:
    return " or ".join(sorted(k.value for k in kinds))
