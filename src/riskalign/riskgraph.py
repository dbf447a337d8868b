"""Typed risk graphs and their structural validator.

A RiskGraph holds entities typed by ISSRM concept and relations drawn from a
closed kind vocabulary. validate_structure() reports rule breaches as
Violation values instead of raising, so callers can collect, sort and render
them. Graphs are immutable after construction and safe to share between
threads. check_edge, check_whole, incomplete_threat and unbound_vulnerability
are public because register.validate_register runs them on a register too.
"""

from __future__ import annotations

from collections import namedtuple

from .concepts import ASSET_KINDS, ISSRMConcept, Vocabulary
from .errors import DuplicateIdError
from . import recordio


class RelationKind(Vocabulary):
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


# id: str; concept: ISSRMConcept; name: str = ""
Entity = namedtuple("Entity", "id concept name", defaults=("",))
# kind: RelationKind; source, target: entity ids (str)
Relation = namedtuple("Relation", "kind source target")


class Severity(Vocabulary):
    ERROR = "ERROR"
    WARN = "WARN"


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


class Violation(namedtuple("Violation", "code subjects message", defaults=("",))):
    """One structural finding: code: str; subjects: tuple[str, ...];
    message: str = "".

    Identity is (code, subjects) only; the message is presentation and never
    affects equality, hashing or sort_key.
    """

    __slots__ = ()

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
# specialized where a named rule exists for that relation.
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

# The part_of shape, one row per legal (part concept, whole concept) pair:
# the word findings use for the part, the code for a whole with more than one
# such part, and the code for a whole that has some valid part but none of
# this one. None means the rule does not apply to that pair.
PART_OF_RULES = (
    (ISSRMConcept.THREAT, ISSRMConcept.EVENT,
     "threat", "EVT_MULTI_THREAT", "EVT_NO_THREAT"),
    (ISSRMConcept.VULNERABILITY, ISSRMConcept.EVENT,
     "vulnerability", None, "EVT_NO_VULN"),
    (ISSRMConcept.EVENT, ISSRMConcept.RISK,
     "event", "RISK_MULTI_EVENT", "RISK_NO_EVENT"),
    (ISSRMConcept.IMPACT, ISSRMConcept.RISK,
     "impact", None, "RISK_NO_IMPACT"),
    (ISSRMConcept.THREAT_AGENT, ISSRMConcept.THREAT,
     "agent", "THR_MULTI_AGENT", None),
    (ISSRMConcept.ATTACK_METHOD, ISSRMConcept.THREAT,
     "method", "THR_MULTI_METHOD", None),
)
# Legal (part concept, whole concept) pairs for part_of.
PART_OF_PAIRS = tuple((part, whole) for part, whole, *_ in PART_OF_RULES)


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
    Each edge goes through check_edge and each whole with a valid part through
    check_whole, the checks validate_register shares.
    """
    entities = graph._entities
    found: set[Violation] = set()

    # The concepts of the valid parts of each composite that has one.
    parts: dict[str, list[ISSRMConcept]] = {}
    in_event: set[str] = set()  # entities part_of some event
    characterizes: set[str] = set()  # sources of characteristic_of edges

    # Unpack each relation once: NamedTuple field reads cost more than locals.
    # Subjects are built only for findings: kind.value is a Python descriptor.
    for kind, source, target in graph.relations:
        src = entities.get(source)
        dst = entities.get(target)
        if src is None or dst is None:
            missing = source if src is None else target
            found.add(Violation(
                "REL_ENDPOINT_MISSING", (kind.value, source, target),
                f"{kind} endpoint {missing!r} is not an entity in the graph"))
            continue
        if kind is RelationKind.CHARACTERISTIC_OF:
            characterizes.add(source)
        if kind is RelationKind.PART_OF:
            if dst.concept is ISSRMConcept.EVENT:
                in_event.add(source)
            if (src.concept, dst.concept) in PART_OF_PAIRS:
                parts.setdefault(target, []).append(src.concept)
            else:
                found.add(Violation(
                    "PART_OF_PAIR", (kind.value, source, target),
                    f"{src.concept} cannot be part of {dst.concept}"))
            continue
        check_edge(found, kind, source, target, src.concept, dst.concept)

    for ent_id, concept, _ in entities.values():
        if concept is ISSRMConcept.ATTRIBUTE_ANNOTATION:
            found.add(Violation(
                "ENT_PSEUDO_CONCEPT", (ent_id,),
                "AttributeAnnotation marks rule targets and cannot type an entity"))
        if concept is ISSRMConcept.THREAT:
            own_parts = parts.get(ent_id, ())
            if ent_id in in_event and (
                ISSRMConcept.THREAT_AGENT not in own_parts
                or ISSRMConcept.ATTACK_METHOD not in own_parts
            ):
                found.add(incomplete_threat(ent_id))

        elif concept is ISSRMConcept.VULNERABILITY:
            if ent_id in in_event and ent_id not in characterizes:
                found.add(unbound_vulnerability(ent_id))

    # Only a whole with a valid part is in parts, which gates the existence rules.
    for whole_id, part_concepts in parts.items():
        check_whole(found, whole_id, entities[whole_id].concept, part_concepts)

    return sorted(found, key=Violation.sort_key)


def check_edge(found: set[Violation], kind: RelationKind, source: str, target: str,
               source_concept: ISSRMConcept, target_concept: ISSRMConcept) -> None:
    """Add to found the endpoint findings of a kind edge between ends of the given
    concepts; an edge with legal ends builds nothing."""
    source_kinds, target_kinds, target_code = _ENDPOINT_RULES[kind]
    if source_concept in source_kinds and target_concept in target_kinds:
        return
    for end, concept, kinds, code in (
        ("source", source_concept, source_kinds, "REL_SOURCE_KIND"),
        ("target", target_concept, target_kinds, target_code),
    ):
        if concept not in kinds:
            label = " or ".join(sorted(k.value for k in kinds))
            found.add(Violation(code, (kind.value, source, target),
                                f"{kind} {end} must be {label}, got {concept}"))


def check_whole(found: set[Violation], whole_id: str, concept: ISSRMConcept,
                part_concepts: list[ISSRMConcept]) -> None:
    """Add to found the PART_OF_RULES findings of a whole whose valid parts have
    part_concepts; callers gate the existence rules by passing some part."""
    for part, whole, word, multi_code, missing_code in PART_OF_RULES:
        if whole is not concept:
            continue
        count = part_concepts.count(part)
        if count > 1 and multi_code:
            found.add(Violation(multi_code, (whole_id,), f"{concept.value.lower()} "
                                f"has more than one {word} part"))
        if not count and missing_code:
            found.add(Violation(missing_code, (whole_id,),
                                f"{concept.value.lower()} has no {word} part"))


def incomplete_threat(threat_id: str) -> Violation:
    return Violation("THR_INCOMPLETE", (threat_id,),
                     "threat in an event lacks an agent or attack method")


def unbound_vulnerability(vuln_id: str) -> Violation:
    return Violation("VULN_NO_ISASSET", (vuln_id,), "vulnerability in an event is "
                     "not a characteristic of any IS asset")


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
