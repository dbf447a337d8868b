"""Risk registers: risk cases bound to model elements.

A risk catalog is the line-oriented description of risks, their threat,
vulnerabilities, impacts and treatment chain, plus the security criteria
constraining business assets. Records bind to model elements by id and are
validated in two stages: parse errors for malformed or dangling references,
and Violation findings for bindings whose classification does not support
the role the register gives them.

Record order is declare-before-use: a risk precedes its THREAT, VULN,
IMPACT and TREAT records, a treatment its REQ records, a requirement its
CTRL records, and a criterion any IMPACT that negates it.

    CRIT|<id>|<name>|<constrained element ids>
    RISK|<id>|<name>
    THREAT|<risk>|<agent name or ->|<method name or ->|<target element ids>
    VULN|<risk>|<text>|<element ids>
    IMPACT|<risk>|<text>|<harmed element ids>|<negated criterion ids>
    TREAT|<risk>|<id>|<text>
    REQ|<treatment>|<id>|<text>
    CTRL|<requirement>|<id>|<text>

Id lists are comma separated and may be empty. Declared ids may not
contain "::", which names the entities induced_graph derives from a risk.
"""

from __future__ import annotations

from collections.abc import Container
from functools import cached_property
from typing import NamedTuple

from .classify import ClassificationSet, Tier
from .concepts import ASSET_KINDS, ISSRMConcept
from .eamodel import EAModel
from .errors import CatalogFormatError, UnknownRiskError
from .mappings import target_concepts
from .riskgraph import Entity, Relation, RelationKind, RiskGraph, Violation, validate_structure
from . import recordio


class ThreatSpec(NamedTuple):
    agent: str  # display name; empty when the catalog says "-"
    method: str
    targets: tuple[str, ...]  # model element ids


class VulnerabilitySpec(NamedTuple):
    text: str
    elements: tuple[str, ...]


class ImpactSpec(NamedTuple):
    text: str
    harmed: tuple[str, ...]
    negated: tuple[str, ...]  # criterion ids


class ControlSpec(NamedTuple):
    id: str
    text: str


class RequirementSpec(NamedTuple):
    id: str
    text: str
    controls: tuple[ControlSpec, ...] = ()


class TreatmentSpec(NamedTuple):
    id: str
    text: str
    requirements: tuple[RequirementSpec, ...] = ()


class CriterionSpec(NamedTuple):
    id: str
    name: str
    constrains: tuple[str, ...]  # model element ids


class RiskCase:
    """One risk; parsing fills in its threat and appends the other parts."""

    def __init__(self, id: str, name: str):
        self.id = id
        self.name = name
        self.threat: ThreatSpec | None = None
        self.vulnerabilities: list[VulnerabilitySpec] = []
        self.impacts: list[ImpactSpec] = []
        self.treatments: list[TreatmentSpec] = []

    @property
    def event_id(self) -> str:
        """Id of the event entity induced_graph derives for this risk."""
        return f"{self.id}::event"


class RiskRegister:
    def __init__(
        self,
        classification: ClassificationSet,
        risks: tuple[RiskCase, ...],
        criteria: tuple[CriterionSpec, ...],
    ):
        self.classification = classification
        self.risks = risks
        self.criteria = criteria

    @property
    def model(self) -> EAModel:
        return self.classification.model

    def risk(self, risk_id: str) -> RiskCase:
        try:
            return self._risks_by_id[risk_id]
        except KeyError:
            raise UnknownRiskError(f"unknown risk id {risk_id!r}") from None

    @cached_property
    def _risks_by_id(self) -> dict[str, RiskCase]:
        return {case.id: case for case in self.risks}


# Fields per catalog record, the tag included.
_FIELD_COUNTS = {
    "CRIT": 4, "RISK": 3, "THREAT": 5, "VULN": 4,
    "IMPACT": 5, "TREAT": 4, "REQ": 4, "CTRL": 4,
}


def parse_risk_catalog(text: str, classification: ClassificationSet) -> RiskRegister:
    """Parse a risk catalog against a classified model.

    Reference errors (unknown element ids, undeclared risks, id collisions)
    raise with line numbers. Classification-quality problems do not raise;
    they surface from validate_register as Violations.
    """
    model = classification.model
    risks: dict[str, RiskCase] = {}
    criteria: dict[str, CriterionSpec] = {}
    # Treatments and requirements collect their children in lists until the end.
    treatments: dict[str, TreatmentSpec] = {}
    requirements: dict[str, RequirementSpec] = {}
    declared: set[str] = set()

    def declare(record_id: str, lineno: int) -> None:
        if not record_id:
            raise CatalogFormatError("record with empty id", lineno)
        if record_id in declared:
            raise CatalogFormatError(f"duplicate id {record_id!r}", lineno)
        if "::" in record_id:
            raise CatalogFormatError(
                f"id {record_id!r} contains '::', which is reserved for derived ids",
                lineno,
            )
        if record_id in model:
            raise CatalogFormatError(
                f"id {record_id!r} collides with a model element id", lineno
            )
        declared.add(record_id)

    def elements(ids_field: str, lineno: int, known: Container[str] = model,
                 what: str = "element") -> tuple[str, ...]:
        ids = recordio.split_list(ids_field)
        for item_id in ids:
            if item_id not in known:
                raise CatalogFormatError(f"unknown {what} id {item_id!r}", lineno)
        return ids

    for lineno, fields in recordio.iter_records(text):
        tag = fields[0]
        count = _FIELD_COUNTS.get(tag)
        if count is None:
            raise CatalogFormatError(f"unknown record tag {tag!r}", lineno)
        if len(fields) != count:
            raise CatalogFormatError(f"{tag} needs {count} fields", lineno)
        if tag == "CRIT":
            _, crit_id, name, constrained = fields
            declare(crit_id, lineno)
            criteria[crit_id] = CriterionSpec(crit_id, name, elements(constrained, lineno))
        elif tag == "RISK":
            _, risk_id, name = fields
            declare(risk_id, lineno)
            risks[risk_id] = RiskCase(risk_id, name)
        elif tag == "THREAT":
            _, risk_id, agent, method, targets = fields
            case = _case(risks, risk_id, lineno)
            if case.threat is not None:
                raise CatalogFormatError(
                    f"risk {risk_id!r} already has a threat", lineno
                )
            case.threat = ThreatSpec(
                agent="" if agent == "-" else agent,
                method="" if method == "-" else method,
                targets=elements(targets, lineno),
            )
        elif tag == "VULN":
            _, risk_id, vuln_text, ids_field = fields
            case = _case(risks, risk_id, lineno)
            case.vulnerabilities.append(
                VulnerabilitySpec(vuln_text, elements(ids_field, lineno))
            )
        elif tag == "IMPACT":
            _, risk_id, impact_text, harmed, negated = fields
            case = _case(risks, risk_id, lineno)
            negated_ids = elements(negated, lineno, criteria, "criterion")
            case.impacts.append(
                ImpactSpec(impact_text, elements(harmed, lineno), negated_ids)
            )
        elif tag == "TREAT":
            _, risk_id, treat_id, treat_text = fields
            case = _case(risks, risk_id, lineno)
            declare(treat_id, lineno)
            treatments[treat_id] = TreatmentSpec(treat_id, treat_text, [])
            case.treatments.append(treatments[treat_id])
        elif tag == "REQ":
            _, treat_id, req_id, req_text = fields
            if treat_id not in treatments:
                raise CatalogFormatError(f"unknown treatment id {treat_id!r}", lineno)
            declare(req_id, lineno)
            requirements[req_id] = RequirementSpec(req_id, req_text, [])
            treatments[treat_id].requirements.append(requirements[req_id])
        elif tag == "CTRL":
            _, req_id, ctrl_id, ctrl_text = fields
            if req_id not in requirements:
                raise CatalogFormatError(f"unknown requirement id {req_id!r}", lineno)
            declare(ctrl_id, lineno)
            requirements[req_id].controls.append(ControlSpec(ctrl_id, ctrl_text))

    for case in risks.values():
        case.treatments = [
            TreatmentSpec(treat.id, treat.text, tuple(
                RequirementSpec(req.id, req.text, tuple(req.controls))
                for req in treat.requirements
            ))
            for treat in case.treatments
        ]
    return RiskRegister(
        classification=classification,
        risks=tuple(risks.values()),
        criteria=tuple(criteria.values()),
    )


def _case(risks: dict[str, RiskCase], risk_id: str, lineno: int) -> RiskCase:
    try:
        return risks[risk_id]
    except KeyError:
        raise CatalogFormatError(f"unknown risk id {risk_id!r}", lineno) from None


# --- induced graph and validation --------------------------------------------------


_BINDING_PRIORITY = (
    ISSRMConcept.IS_ASSET,
    ISSRMConcept.BUSINESS_ASSET,
    ISSRMConcept.ASSET,
)


def bound_concept(classification: ClassificationSet, element_id: str) -> ISSRMConcept:
    """Asset concept a bound element plays in the risk graph.

    The strongest definite asset fact wins (IS over business over plain
    asset); an element with no definite asset fact enters as plain Asset and
    the validators flag the binding.
    """
    definite = classification.definite_concepts(element_id)
    for concept in _BINDING_PRIORITY:
        if concept in definite:
            return concept
    return ISSRMConcept.ASSET


def induced_graph(register: RiskRegister) -> RiskGraph:
    """Build the risk graph a register implies over its model.

    Bound model elements become asset entities; each risk contributes its
    event, threat, vulnerability, impact and treatment entities with the
    fixed part_of shape. Criterion constrains edges are deliberately not
    induced; criterion bindings are checked against the classification
    directly by validate_register.
    """
    classification = register.classification
    entities: dict[str, Entity] = {}
    relations: list[Relation] = []

    def bind(element_id: str) -> str:
        if element_id not in entities:
            element = register.model.element(element_id)
            entities[element_id] = Entity(
                element_id, bound_concept(classification, element_id), element.name
            )
        return element_id

    for crit in register.criteria:
        entities[crit.id] = Entity(crit.id, ISSRMConcept.SECURITY_CRITERION, crit.name)
        for element_id in crit.constrains:
            bind(element_id)

    def part(part_id: str, concept: ISSRMConcept, name: str, whole: str,
             kind: RelationKind = RelationKind.PART_OF) -> str:
        """Add an entity together with its edge to the whole it belongs to."""
        entities[part_id] = Entity(part_id, concept, name)
        relations.append(Relation(kind, part_id, whole))
        return part_id

    for case in register.risks:
        entities[case.id] = Entity(case.id, ISSRMConcept.RISK, case.name)
        event_id = part(case.event_id, ISSRMConcept.EVENT, f"{case.name} event",
                        case.id)

        threat = case.threat
        if threat is not None:
            threat_id = part(f"{case.id}::threat", ISSRMConcept.THREAT, "", event_id)
            if threat.agent:
                agent_id = part(f"{case.id}::agent", ISSRMConcept.THREAT_AGENT,
                                threat.agent, threat_id)
            if threat.method:
                method_id = part(f"{case.id}::method", ISSRMConcept.ATTACK_METHOD,
                                 threat.method, threat_id)
                if threat.agent:
                    relations.append(Relation(RelationKind.USES, agent_id, method_id))
            for element_id in threat.targets:
                relations.append(
                    Relation(RelationKind.TARGETS, threat_id, bind(element_id))
                )

        for index, vuln in enumerate(case.vulnerabilities, start=1):
            vuln_id = part(f"{case.id}::vuln{index}", ISSRMConcept.VULNERABILITY,
                           vuln.text, event_id)
            for element_id in vuln.elements:
                relations.append(
                    Relation(
                        RelationKind.CHARACTERISTIC_OF, vuln_id, bind(element_id)
                    )
                )

        for index, impact in enumerate(case.impacts, start=1):
            impact_id = part(f"{case.id}::impact{index}", ISSRMConcept.IMPACT,
                             impact.text, case.id)
            relations.append(Relation(RelationKind.LEADS_TO, event_id, impact_id))
            for element_id in impact.harmed:
                relations.append(
                    Relation(RelationKind.HARMS, impact_id, bind(element_id))
                )
            for crit_id in impact.negated:
                relations.append(Relation(RelationKind.NEGATES, impact_id, crit_id))

        for treatment in case.treatments:
            part(treatment.id, ISSRMConcept.RISK_TREATMENT, treatment.text, case.id,
                 RelationKind.DECISION_FOR)
            for req in treatment.requirements:
                part(req.id, ISSRMConcept.SECURITY_REQUIREMENT, req.text, treatment.id,
                     RelationKind.REFINES)
                relations.append(Relation(RelationKind.MITIGATES, req.id, case.id))
                for ctrl in req.controls:
                    part(ctrl.id, ISSRMConcept.CONTROL, ctrl.text, req.id,
                         RelationKind.IMPLEMENTS)

    return RiskGraph(list(entities.values()), relations)


def validate_register(register: RiskRegister) -> list[Violation]:
    """Structural findings for a register: graph rules plus binding checks."""
    classification = register.classification
    graph = induced_graph(register)
    found = set(validate_structure(graph))

    for case in register.risks:
        # The structure gate checks an event's parts only once it has one. An
        # event with a threat or a vulnerability is checked there; one with
        # neither is bare in the graph, so its two findings are added here.
        # Risks need no such case: their event is always a part.
        if case.threat is None and not case.vulnerabilities:
            for code, missing in (("EVT_NO_THREAT", "threat"),
                                  ("EVT_NO_VULN", "vulnerability")):
                message = f"risk {case.id!r} declares no {missing}"
                found.add(Violation(code, (case.event_id,), message))
    for kind, impact_id, element_id in graph.relations:
        if kind is RelationKind.HARMS and not (
            classification.definite_concepts(element_id) & ASSET_KINDS
        ):
            found.add(
                Violation(
                    "IMP_HARM_UNCLASSIFIED",
                    (impact_id, element_id),
                    f"harmed element {element_id!r} has no definite "
                    "asset classification",
                )
            )

    for crit in register.criteria:
        for element_id in crit.constrains:
            found.update(_criterion_binding(classification, crit.id, element_id))

    return sorted(found, key=Violation.sort_key)


def _criterion_binding(
    classification: ClassificationSet, crit_id: str, element_id: str
) -> list[Violation]:
    """A criterion may only constrain confirmed business assets."""
    facts = classification.facts_for(element_id)
    definite = classification.definite_concepts(element_id)
    if ISSRMConcept.BUSINESS_ASSET in definite:
        return []
    asset_tiers = {
        concept
        for fact in facts
        if fact.tier in (Tier.DEFINITE, Tier.CANDIDATE)
        for concept in target_concepts(fact.target)
        if concept in ASSET_KINDS
    }
    if ISSRMConcept.BUSINESS_ASSET in asset_tiers or ISSRMConcept.ASSET in asset_tiers:
        return [
            Violation(
                "CRIT_ON_UNCONFIRMED",
                (crit_id, element_id),
                f"criterion {crit_id!r} constrains {element_id!r}, whose "
                "business-asset classification is not confirmed",
            )
        ]
    return [
        Violation(
            "CRIT_NOT_ON_BIZASSET",
            (crit_id, element_id),
            f"criterion {crit_id!r} constrains {element_id!r}, which is not "
            "classified as a business asset",
        )
    ]
