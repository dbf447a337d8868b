"""Typed risk graphs and their structural validator.

A RiskGraph holds entities typed by ISSRM concept and relations drawn from a
closed kind vocabulary. validate_structure() reports rule breaches as
Violation values instead of raising, so callers can collect, sort and render
them. Graphs are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .concepts import ASSET_KINDS, ISSRMConcept
from .errors import DuplicateIdError
from . import recordio


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


class Entity(NamedTuple):
    id: str
    concept: ISSRMConcept
    name: str = ""


class Relation(NamedTuple):
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


class Violation(NamedTuple):
    """One structural finding.

    Identity is (code, subjects) only; the message is presentation and never
    affects equality, hashing or sort_key.
    """

    code: str
    subjects: tuple[str, ...]
    message: str = ""

    def __eq__(self, other: object) -> bool:
        return type(other) is Violation and self.sort_key() == other.sort_key()

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.sort_key())

    @property
    def severity(self) -> Severity:
        return SEVERITY_BY_CODE[self.code]

    def sort_key(self) -> tuple[str, tuple[str, ...]]:
        return (self.code, self.subjects)


# Endpoint kind constraints per relation kind. The target-side code is
# specialized where a named rule exists for that relation. Kinds sit in
# tuples, so membership compares members by identity instead of hashing
# them through Enum.__hash__, a Python function before 3.12.
_SOURCE = "REL_SOURCE_KIND"
_TARGET = "REL_TARGET_KIND"
_ENDPOINT_RULES: dict[
    RelationKind,
    tuple[tuple[ISSRMConcept, ...], tuple[ISSRMConcept, ...], str],
] = {
    RelationKind.SUPPORTS: (
        (ISSRMConcept.IS_ASSET,),
        (ISSRMConcept.BUSINESS_ASSET,),
        _TARGET,
    ),
    RelationKind.CONSTRAINS: (
        (ISSRMConcept.SECURITY_CRITERION,),
        (ISSRMConcept.BUSINESS_ASSET,),
        "CRIT_NOT_ON_BIZASSET",
    ),
    RelationKind.TARGETS: (
        (ISSRMConcept.THREAT,),
        (ISSRMConcept.IS_ASSET,),
        "THR_TARGET_NOT_ISASSET",
    ),
    RelationKind.CHARACTERISTIC_OF: (
        (ISSRMConcept.VULNERABILITY,),
        (ISSRMConcept.IS_ASSET,),
        "VULN_NOT_ON_ISASSET",
    ),
    RelationKind.USES: (
        (ISSRMConcept.THREAT_AGENT,),
        (ISSRMConcept.ATTACK_METHOD,),
        _TARGET,
    ),
    RelationKind.LEADS_TO: (
        (ISSRMConcept.EVENT,),
        (ISSRMConcept.IMPACT,),
        _TARGET,
    ),
    RelationKind.HARMS: (
        (ISSRMConcept.IMPACT,),
        tuple(ASSET_KINDS),
        _TARGET,
    ),
    RelationKind.NEGATES: (
        (ISSRMConcept.IMPACT,),
        (ISSRMConcept.SECURITY_CRITERION,),
        _TARGET,
    ),
    RelationKind.DECISION_FOR: (
        (ISSRMConcept.RISK_TREATMENT,),
        (ISSRMConcept.RISK,),
        _TARGET,
    ),
    RelationKind.REFINES: (
        (ISSRMConcept.SECURITY_REQUIREMENT,),
        (ISSRMConcept.RISK_TREATMENT,),
        _TARGET,
    ),
    RelationKind.MITIGATES: (
        (ISSRMConcept.SECURITY_REQUIREMENT,),
        (ISSRMConcept.RISK,),
        _TARGET,
    ),
    RelationKind.IMPLEMENTS: (
        (ISSRMConcept.CONTROL,),
        (ISSRMConcept.SECURITY_REQUIREMENT,),
        _TARGET,
    ),
}

# Legal (part concept, whole concept) pairs for part_of.
PART_OF_PAIRS = (
    (ISSRMConcept.THREAT, ISSRMConcept.EVENT),
    (ISSRMConcept.VULNERABILITY, ISSRMConcept.EVENT),
    (ISSRMConcept.EVENT, ISSRMConcept.RISK),
    (ISSRMConcept.IMPACT, ISSRMConcept.RISK),
    (ISSRMConcept.THREAT_AGENT, ISSRMConcept.THREAT),
    (ISSRMConcept.ATTACK_METHOD, ISSRMConcept.THREAT),
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

    # Unpack each relation once: NamedTuple field reads cost more than locals.
    # Subjects are built only for findings: kind.value is a Python descriptor.
    for kind, source, target in graph.relations:
        src = entities.get(source)
        dst = entities.get(target)
        if src is None or dst is None:
            missing = source if src is None else target
            emit(
                "REL_ENDPOINT_MISSING",
                (kind.value, source, target),
                f"{kind} endpoint {missing!r} is not an entity in the graph",
            )
            continue
        if kind is RelationKind.CHARACTERISTIC_OF:
            characterizes.add(source)
        if kind is RelationKind.PART_OF:
            if dst.concept is ISSRMConcept.EVENT:
                in_event.add(source)
            if (src.concept, dst.concept) in PART_OF_PAIRS:
                parts[target].append(src)
            else:
                emit(
                    "PART_OF_PAIR",
                    (kind.value, source, target),
                    f"{src.concept} cannot be part of {dst.concept}",
                )
            continue
        source_kinds, target_kinds, target_code = _ENDPOINT_RULES[kind]
        if src.concept not in source_kinds:
            emit(
                _SOURCE,
                (kind.value, source, target),
                f"{kind} source must be "
                f"{_kinds_label(source_kinds)}, got {src.concept}",
            )
        if dst.concept not in target_kinds:
            emit(
                target_code,
                (kind.value, source, target),
                f"{kind} target must be "
                f"{_kinds_label(target_kinds)}, got {dst.concept}",
            )

    for ent_id, concept, _ in entities.values():
        if concept is ISSRMConcept.ATTRIBUTE_ANNOTATION:
            emit(
                "ENT_PSEUDO_CONCEPT",
                (ent_id,),
                "AttributeAnnotation marks rule targets and cannot type an entity",
            )
        own_parts = parts[ent_id]

        if concept is ISSRMConcept.EVENT:
            threats = [p for p in own_parts if p.concept is ISSRMConcept.THREAT]
            vulns = [p for p in own_parts if p.concept is ISSRMConcept.VULNERABILITY]
            if len(threats) > 1:
                emit("EVT_MULTI_THREAT", (ent_id,), "event has more than one threat part")
            if own_parts:
                if not threats:
                    emit("EVT_NO_THREAT", (ent_id,), "event has no threat part")
                if not vulns:
                    emit("EVT_NO_VULN", (ent_id,), "event has no vulnerability part")

        elif concept is ISSRMConcept.RISK:
            events = [p for p in own_parts if p.concept is ISSRMConcept.EVENT]
            impacts = [p for p in own_parts if p.concept is ISSRMConcept.IMPACT]
            if len(events) > 1:
                emit("RISK_MULTI_EVENT", (ent_id,), "risk has more than one event part")
            if own_parts:
                if not events:
                    emit("RISK_NO_EVENT", (ent_id,), "risk has no event part")
                if not impacts:
                    emit("RISK_NO_IMPACT", (ent_id,), "risk has no impact part")

        elif concept is ISSRMConcept.THREAT:
            agents = [p for p in own_parts if p.concept is ISSRMConcept.THREAT_AGENT]
            methods = [p for p in own_parts if p.concept is ISSRMConcept.ATTACK_METHOD]
            if len(agents) > 1:
                emit("THR_MULTI_AGENT", (ent_id,), "threat has more than one agent part")
            if len(methods) > 1:
                emit("THR_MULTI_METHOD", (ent_id,), "threat has more than one method part")
            if ent_id in in_event and (not agents or not methods):
                emit(
                    "THR_INCOMPLETE",
                    (ent_id,),
                    "threat in an event lacks an agent or attack method",
                )

        elif concept is ISSRMConcept.VULNERABILITY:
            if ent_id in in_event and ent_id not in characterizes:
                emit(
                    "VULN_NO_ISASSET",
                    (ent_id,),
                    "vulnerability in an event is not a characteristic of any IS asset",
                )

    return sorted(found, key=Violation.sort_key)


def _kinds_label(kinds: tuple[ISSRMConcept, ...]) -> str:
    return " or ".join(sorted(k.value for k in kinds))


def render_violations_text(violations: list[Violation]) -> str:
    lines = [f"violations: {len(violations)}"]
    lines.extend(
        f"  {v.severity} {v.code} [{', '.join(v.subjects)}] {v.message}"
        for v in violations
    )
    return "\n".join(lines) + "\n"


def render_violations_records(violations: list[Violation]) -> str:
    return recordio.join_records(
        ("V", str(v.severity), v.code, ",".join(v.subjects), v.message)
        for v in violations
    )
