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

Id lists are comma separated and may be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classify import ClassificationSet, Tier
from .concepts import ASSET_KINDS, ISSRMConcept
from .eamodel import EAModel
from .errors import CatalogFormatError, UnknownRiskError
from .mappings import target_concepts
from .riskgraph import Entity, Relation, RelationKind, RiskGraph, Violation, validate_structure
from . import recordio


@dataclass(frozen=True)
class ThreatSpec:
    agent: str  # display name; empty when the catalog says "-"
    method: str
    targets: tuple[str, ...]  # model element ids


@dataclass(frozen=True)
class VulnerabilitySpec:
    text: str
    elements: tuple[str, ...]


@dataclass(frozen=True)
class ImpactSpec:
    text: str
    harmed: tuple[str, ...]
    negated: tuple[str, ...]  # criterion ids


@dataclass(frozen=True)
class ControlSpec:
    id: str
    text: str


@dataclass(frozen=True)
class RequirementSpec:
    id: str
    text: str
    controls: tuple[ControlSpec, ...] = ()


@dataclass(frozen=True)
class TreatmentSpec:
    id: str
    text: str
    requirements: tuple[RequirementSpec, ...] = ()


@dataclass(frozen=True)
class CriterionSpec:
    id: str
    name: str
    constrains: tuple[str, ...]  # model element ids


@dataclass
class RiskCase:
    id: str
    name: str
    threat: ThreatSpec | None = None
    vulnerabilities: list[VulnerabilitySpec] = field(default_factory=list)
    impacts: list[ImpactSpec] = field(default_factory=list)
    treatments: list[TreatmentSpec] = field(default_factory=list)


@dataclass(frozen=True)
class RiskRegister:
    classification: ClassificationSet
    risks: tuple[RiskCase, ...]
    criteria: tuple[CriterionSpec, ...]

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


@dataclass
class _Draft:
    """A treatment or requirement whose REQ or CTRL children are still being read."""

    id: str
    text: str
    children: list = field(default_factory=list)


def _id_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def parse_risk_catalog(text: str, classification: ClassificationSet) -> RiskRegister:
    """Parse a risk catalog against a classified model.

    Reference errors (unknown element ids, undeclared risks, id collisions)
    raise with line numbers. Classification-quality problems do not raise;
    they surface from validate_register as Violations.
    """
    model = classification.model
    risks: dict[str, RiskCase] = {}
    criteria: dict[str, CriterionSpec] = {}
    treatments: dict[str, tuple[str, _Draft]] = {}  # id -> (risk id, draft)
    requirements: dict[str, _Draft] = {}
    declared: set[str] = set()

    def declare(record_id: str, lineno: int) -> None:
        if not record_id:
            raise CatalogFormatError("record with empty id", lineno)
        if record_id in declared:
            raise CatalogFormatError(f"duplicate id {record_id!r}", lineno)
        if record_id in model:
            raise CatalogFormatError(
                f"id {record_id!r} collides with a model element id", lineno
            )
        declared.add(record_id)

    def elements(ids_field: str, lineno: int) -> tuple[str, ...]:
        ids = _id_list(ids_field)
        for elem_id in ids:
            if elem_id not in model:
                raise CatalogFormatError(
                    f"unknown element id {elem_id!r}", lineno
                )
        return ids

    for lineno, fields in recordio.iter_records(text):
        tag = fields[0]
        if tag == "CRIT":
            if len(fields) != 4:
                raise CatalogFormatError("CRIT needs 4 fields", lineno)
            _, crit_id, name, constrained = fields
            declare(crit_id, lineno)
            criteria[crit_id] = CriterionSpec(crit_id, name, elements(constrained, lineno))
        elif tag == "RISK":
            if len(fields) != 3:
                raise CatalogFormatError("RISK needs 3 fields", lineno)
            _, risk_id, name = fields
            declare(risk_id, lineno)
            risks[risk_id] = RiskCase(risk_id, name)
        elif tag == "THREAT":
            if len(fields) != 5:
                raise CatalogFormatError("THREAT needs 5 fields", lineno)
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
            if len(fields) != 4:
                raise CatalogFormatError("VULN needs 4 fields", lineno)
            _, risk_id, vuln_text, ids_field = fields
            case = _case(risks, risk_id, lineno)
            case.vulnerabilities.append(
                VulnerabilitySpec(vuln_text, elements(ids_field, lineno))
            )
        elif tag == "IMPACT":
            if len(fields) != 5:
                raise CatalogFormatError("IMPACT needs 5 fields", lineno)
            _, risk_id, impact_text, harmed, negated = fields
            case = _case(risks, risk_id, lineno)
            negated_ids = _id_list(negated)
            for crit_id in negated_ids:
                if crit_id not in criteria:
                    raise CatalogFormatError(
                        f"unknown criterion id {crit_id!r}", lineno
                    )
            case.impacts.append(
                ImpactSpec(impact_text, elements(harmed, lineno), negated_ids)
            )
        elif tag == "TREAT":
            if len(fields) != 4:
                raise CatalogFormatError("TREAT needs 4 fields", lineno)
            _, risk_id, treat_id, treat_text = fields
            _case(risks, risk_id, lineno)
            declare(treat_id, lineno)
            treatments[treat_id] = (risk_id, _Draft(treat_id, treat_text))
        elif tag == "REQ":
            if len(fields) != 4:
                raise CatalogFormatError("REQ needs 4 fields", lineno)
            _, treat_id, req_id, req_text = fields
            if treat_id not in treatments:
                raise CatalogFormatError(f"unknown treatment id {treat_id!r}", lineno)
            declare(req_id, lineno)
            requirements[req_id] = _Draft(req_id, req_text)
            treatments[treat_id][1].children.append(requirements[req_id])
        elif tag == "CTRL":
            if len(fields) != 4:
                raise CatalogFormatError("CTRL needs 4 fields", lineno)
            _, req_id, ctrl_id, ctrl_text = fields
            if req_id not in requirements:
                raise CatalogFormatError(f"unknown requirement id {req_id!r}", lineno)
            declare(ctrl_id, lineno)
            requirements[req_id].children.append(ControlSpec(ctrl_id, ctrl_text))
        else:
            raise CatalogFormatError(f"unknown record tag {tag!r}", lineno)

    for risk_id, draft in treatments.values():
        requirement_specs = tuple(
            RequirementSpec(req.id, req.text, tuple(req.children))
            for req in draft.children
        )
        risks[risk_id].treatments.append(
            TreatmentSpec(draft.id, draft.text, requirement_specs)
        )
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

    for case in register.risks:
        entities[case.id] = Entity(case.id, ISSRMConcept.RISK, case.name)
        event_id = f"{case.id}::event"
        entities[event_id] = Entity(event_id, ISSRMConcept.EVENT, f"{case.name} event")
        relations.append(Relation(RelationKind.PART_OF, event_id, case.id))

        if case.threat is not None:
            threat_id = f"{case.id}::threat"
            entities[threat_id] = Entity(threat_id, ISSRMConcept.THREAT)
            relations.append(Relation(RelationKind.PART_OF, threat_id, event_id))
            if case.threat.agent:
                agent_id = f"{case.id}::agent"
                entities[agent_id] = Entity(
                    agent_id, ISSRMConcept.THREAT_AGENT, case.threat.agent
                )
                relations.append(Relation(RelationKind.PART_OF, agent_id, threat_id))
            if case.threat.method:
                method_id = f"{case.id}::method"
                entities[method_id] = Entity(
                    method_id, ISSRMConcept.ATTACK_METHOD, case.threat.method
                )
                relations.append(Relation(RelationKind.PART_OF, method_id, threat_id))
                if case.threat.agent:
                    relations.append(
                        Relation(RelationKind.USES, f"{case.id}::agent", method_id)
                    )
            for element_id in case.threat.targets:
                relations.append(
                    Relation(RelationKind.TARGETS, threat_id, bind(element_id))
                )

        for index, vuln in enumerate(case.vulnerabilities, start=1):
            vuln_id = f"{case.id}::vuln{index}"
            entities[vuln_id] = Entity(vuln_id, ISSRMConcept.VULNERABILITY, vuln.text)
            relations.append(Relation(RelationKind.PART_OF, vuln_id, event_id))
            for element_id in vuln.elements:
                relations.append(
                    Relation(
                        RelationKind.CHARACTERISTIC_OF, vuln_id, bind(element_id)
                    )
                )

        for index, impact in enumerate(case.impacts, start=1):
            impact_id = f"{case.id}::impact{index}"
            entities[impact_id] = Entity(impact_id, ISSRMConcept.IMPACT, impact.text)
            relations.append(Relation(RelationKind.PART_OF, impact_id, case.id))
            relations.append(Relation(RelationKind.LEADS_TO, event_id, impact_id))
            for element_id in impact.harmed:
                relations.append(
                    Relation(RelationKind.HARMS, impact_id, bind(element_id))
                )
            for crit_id in impact.negated:
                relations.append(Relation(RelationKind.NEGATES, impact_id, crit_id))

        for treatment in case.treatments:
            entities[treatment.id] = Entity(
                treatment.id, ISSRMConcept.RISK_TREATMENT, treatment.text
            )
            relations.append(Relation(RelationKind.DECISION_FOR, treatment.id, case.id))
            for req in treatment.requirements:
                entities[req.id] = Entity(
                    req.id, ISSRMConcept.SECURITY_REQUIREMENT, req.text
                )
                relations.append(Relation(RelationKind.REFINES, req.id, treatment.id))
                relations.append(Relation(RelationKind.MITIGATES, req.id, case.id))
                for ctrl in req.controls:
                    entities[ctrl.id] = Entity(ctrl.id, ISSRMConcept.CONTROL, ctrl.text)
                    relations.append(
                        Relation(RelationKind.IMPLEMENTS, ctrl.id, req.id)
                    )

    return RiskGraph(list(entities.values()), relations)


def validate_register(register: RiskRegister) -> list[Violation]:
    """Structural findings for a register: graph rules plus binding checks."""
    classification = register.classification
    found = set(validate_structure(induced_graph(register)))

    for case in register.risks:
        event_id = f"{case.id}::event"
        if case.threat is None:
            found.add(
                Violation(
                    "EVT_NO_THREAT", (event_id,),
                    f"risk {case.id!r} declares no threat",
                )
            )
        if not case.vulnerabilities:
            found.add(
                Violation(
                    "EVT_NO_VULN", (event_id,),
                    f"risk {case.id!r} declares no vulnerability",
                )
            )
        if not case.impacts:
            found.add(
                Violation(
                    "RISK_NO_IMPACT", (case.id,),
                    f"risk {case.id!r} declares no impact",
                )
            )
        for index, impact in enumerate(case.impacts, start=1):
            impact_id = f"{case.id}::impact{index}"
            for element_id in impact.harmed:
                if not classification.definite_concepts(element_id) & ASSET_KINDS:
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
