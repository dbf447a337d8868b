"""Independent reference implementations the tests compare against.

Deliberately different algorithms and data structures from the library:
priority-queue search instead of layered BFS, exhaustive path enumeration
for small graphs, and plain recounting for coverage. The scans the library
replaced with indexes live on here as references: per-lookup fact scans,
list-scanning review, relation rescans for part_of, and one full
impact_propagation per traced IS asset. The exchange-XML importer that
built the whole tree and walked it twice lives on as import_archimate_tree,
the register graph and validation that spelled every risk part and
derived id inline as induced_graph_inline and validate_register_inline, the
classifier that resolved every element's rules afresh as
classify_model_per_element, and the tabular parser whose model constructor
checked every id and endpoint again as parse_tabular_checked_twice. The
record readers that stepped through each escaped line one character at a
time live on as unescape_by_char, split_escaped_by_char and the readers
built on them, and the writer that escaped each field on its own as
join_record_per_field; parse_tabular_checked_twice and
export_tabular_per_field read and write through them.
"""

import heapq
import random
import re
import xml.etree.ElementTree as ET
from collections import defaultdict

from riskalign.analysis import TraceNode, impact_propagation, trace
from riskalign.archimate_xml import _XSI_TYPE, ELEMENT_TOKENS
from riskalign import recordio
from riskalign.classify import (
    ClassificationFact,
    ClassificationSet,
    ReviewEntry,
    ReviewOverlay,
    Tier,
    apply_review,
    classify_model,
    tier_of,
)
from riskalign.concepts import ASSET_KINDS, ISSRMConcept
from riskalign.eamodel import (
    EAElement,
    EAModel,
    EARelationship,
    check_framework,
    normalize_name,
)
from riskalign.errors import (
    FrameworkMismatchError,
    InputError,
    LineError,
    ModelFormatError,
    ReviewError,
    UnknownElementError,
    UnknownFrameworkError,
    UnknownRiskError,
)
from riskalign.mappings import (
    AlignmentRule,
    ConceptTarget,
    MappingKind,
    NoTarget,
    Ruleset,
    resolve_rules,
    target_concepts,
)
from riskalign.register import (
    _criterion_binding,
    bound_concept,
    induced_graph,
    parse_risk_catalog,
    validate_register,
)
from riskalign.riskgraph import (
    Entity,
    Relation,
    RelationKind,
    RiskGraph,
    Violation,
    validate_structure,
)


def definite_set(classification, concept):
    out = set()
    for fact in classification.facts:
        if fact.tier is Tier.DEFINITE and concept in target_concepts(fact.target):
            out.add(fact.element_id)
    return out


def _edges(classification, allowed_kinds):
    model = classification.model
    is_assets = definite_set(classification, ISSRMConcept.IS_ASSET)
    business = definite_set(classification, ISSRMConcept.BUSINESS_ASSET)
    allowed = (
        None
        if allowed_kinds is None
        else {normalize_name(k) for k in allowed_kinds}
    )
    transit = defaultdict(set)
    terminal = defaultdict(set)
    for rel in model.relationships:
        if allowed is not None and rel.kind not in allowed:
            continue
        if rel.source not in is_assets:
            continue
        if rel.target in is_assets:
            transit[rel.source].add(rel.target)
        if rel.target in business:
            terminal[rel.source].add(rel.target)
    return transit, terminal


def dijkstra_propagation(classification, seeds, allowed_kinds=None):
    """Witness-path search ordered by (length, path) cost via a heap."""
    transit, terminal = _edges(classification, allowed_kinds)
    heap = [(1, (seed,)) for seed in set(seeds)]
    heapq.heapify(heap)
    best = {}
    while heap:
        length, path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = path
        for succ in sorted(transit[node]):
            if succ not in best:
                heapq.heappush(heap, (length + 1, path + (succ,)))
    reached = {}
    for node, path in best.items():
        for target in terminal[node]:
            candidate = path + (target,)
            current = reached.get(target)
            if current is None or (len(candidate), candidate) < (
                len(current),
                current,
            ):
                reached[target] = candidate
    return reached


def enumerate_propagation(classification, seeds, allowed_kinds=None):
    """Exhaustive simple-path enumeration; only viable for small graphs."""
    transit, terminal = _edges(classification, allowed_kinds)
    reached = {}

    def note(target, path):
        current = reached.get(target)
        if current is None or (len(path), path) < (len(current), current):
            reached[target] = path

    def walk(path):
        node = path[-1]
        for target in terminal[node]:
            note(target, path + (target,))
        for succ in transit[node]:
            if succ not in path:
                walk(path + (succ,))

    for seed in set(seeds):
        walk((seed,))
    return reached


def closure_targets(classification, seeds, allowed_kinds=None):
    """Reachable business assets by set closure, paths ignored."""
    transit, terminal = _edges(classification, allowed_kinds)
    seen = set(seeds)
    frontier = set(seeds)
    while frontier:
        step = set()
        for node in frontier:
            step.update(transit[node])
        frontier = step - seen
        seen |= frontier
    out = set()
    for node in seen:
        out.update(terminal[node])
    return out


def recount_coverage(register):
    classification = register.classification
    is_assets = definite_set(classification, ISSRMConcept.IS_ASSET)
    vulnerable = set()
    for case in register.risks:
        for vuln in case.vulnerabilities:
            vulnerable.update(e for e in vuln.elements if e in is_assets)
    requirements = [
        req
        for case in register.risks
        for treatment in case.treatments
        for req in treatment.requirements
    ]
    return {
        "is_asset_count": len(is_assets),
        "is_assets_with_vulnerability": len(vulnerable),
        "risks_total": len(register.risks),
        "risks_with_treatment": sum(1 for c in register.risks if c.treatments),
        "requirements_total": len(requirements),
        "requirements_with_control": sum(1 for r in requirements if r.controls),
        "unmapped_count": len(classification.unmapped),
        "unknown_count": len(classification.unknown),
    }


# --- the scans the classification index replaced ----------------------------------


class ScanningClassification(ClassificationSet):
    """A ClassificationSet whose lookups rescan every fact on each call."""

    def facts_for(self, element_id):
        return tuple(f for f in self.facts if f.element_id == element_id)

    def definite_concepts(self, element_id):
        out = set()
        for fact in self.facts_for(element_id):
            if fact.tier is Tier.DEFINITE:
                out.update(target_concepts(fact.target))
        return frozenset(out)

    def definite_elements(self, concept):
        return frozenset(definite_set(self, concept))


_SET_FIELDS = ("model", "ruleset", "facts", "unmapped", "unknown", "warnings")


def scanning(classification, **changes):
    fields = {name: getattr(classification, name) for name in _SET_FIELDS}
    return ScanningClassification(**{**fields, **changes})


_REFINABLE = {ISSRMConcept.BUSINESS_ASSET, ISSRMConcept.IS_ASSET}


def apply_review_scan(classification, overlay):
    """apply_review over one flat fact list, rescanned per overlay entry."""
    facts = list(classification.facts)
    for entry in overlay.entries:
        if entry.element_id not in classification.model:
            raise UnknownElementError(
                f"review names unknown element id {entry.element_id!r}"
            )
        exact_target = ConceptTarget(entry.concept)
        exact = [
            i
            for i, f in enumerate(facts)
            if f.element_id == entry.element_id and f.target == exact_target
        ]
        if entry.verdict == "confirm":
            promotable = [i for i in exact if facts[i].tier is Tier.CANDIDATE]
            if promotable:
                for i in promotable:
                    facts[i] = facts[i]._replace(tier=Tier.DEFINITE, confirmed=True)
                continue
            if any(facts[i].confirmed for i in exact):
                continue
            if _refine_scan(facts, entry):
                continue
            raise ReviewError(_confirm_error_scan(facts, entry, exact))
        rejectable = [i for i in exact if facts[i].tier is Tier.CANDIDATE]
        if not rejectable:
            reason = (
                "only candidate facts can be rejected" if exact else "no matching fact"
            )
            raise ReviewError(
                f"cannot reject ({entry.element_id}, {entry.concept}); {reason}"
            )
        for i in sorted(rejectable, reverse=True):
            del facts[i]
    return scanning(classification, facts=tuple(facts))


def _refine_scan(facts, entry):
    if entry.concept not in _REFINABLE:
        return False
    asset_target = ConceptTarget(ISSRMConcept.ASSET)
    refined = False
    for i, fact in enumerate(facts):
        if (
            fact.element_id == entry.element_id
            and fact.target == asset_target
            and fact.tier is Tier.DEFINITE
        ):
            facts[i] = fact._replace(target=ConceptTarget(entry.concept), confirmed=True)
            refined = True
    return refined


def _confirm_error_scan(facts, entry, exact):
    if exact:
        return (
            f"cannot confirm ({entry.element_id}, {entry.concept}); "
            "the fact is already definite without review"
        )
    if not any(f.element_id == entry.element_id for f in facts):
        return f"element {entry.element_id!r} has no classification facts"
    return f"no candidate fact ({entry.element_id}, {entry.concept}) to confirm"


def is_part_of_some(graph, entity_id, whole):
    """Whether any part_of relation leads from the entity to a `whole`."""
    for rel in graph.relations:
        if rel.kind is not RelationKind.PART_OF or rel.source != entity_id:
            continue
        dst = graph.entity(rel.target)
        if dst is not None and dst.concept is whole:
            return True
    return False


def event_part_findings(graph):
    """THR_INCOMPLETE and VULN_NO_ISASSET by rescanning relations per entity."""

    def has_part(whole_id, concept):
        return any(
            rel.kind is RelationKind.PART_OF
            and rel.target == whole_id
            and graph.entity(rel.source) is not None
            and graph.entity(rel.source).concept is concept
            for rel in graph.relations
        )

    def characterizes(entity_id):
        return any(
            rel.kind is RelationKind.CHARACTERISTIC_OF
            and rel.source == entity_id
            and graph.entity(rel.target) is not None
            for rel in graph.relations
        )

    found = []
    for ent in graph.entities.values():
        if not is_part_of_some(graph, ent.id, ISSRMConcept.EVENT):
            continue
        if ent.concept is ISSRMConcept.THREAT and not (
            has_part(ent.id, ISSRMConcept.THREAT_AGENT)
            and has_part(ent.id, ISSRMConcept.ATTACK_METHOD)
        ):
            found.append(
                Violation(
                    "THR_INCOMPLETE",
                    (ent.id,),
                    "threat in an event lacks an agent or attack method",
                )
            )
        if ent.concept is ISSRMConcept.VULNERABILITY and not characterizes(ent.id):
            found.append(
                Violation(
                    "VULN_NO_ISASSET",
                    (ent.id,),
                    "vulnerability in an event is not a characteristic of any IS asset",
                )
            )
    return sorted(found, key=Violation.sort_key)


def trace_scan(register, risk_id, allowed_kinds=None):
    """trace with one impact_propagation per IS asset and scanned lookups."""
    case = next((c for c in register.risks if c.id == risk_id), None)
    if case is None:
        raise UnknownRiskError(f"unknown risk id {risk_id!r}")
    classification = register.classification
    model = register.model

    def asset_node(element_id):
        children = []
        if ISSRMConcept.IS_ASSET in classification.definite_concepts(element_id):
            reached = impact_propagation(classification, [element_id], allowed_kinds)
            for target_id in sorted(reached):
                criteria = tuple(
                    TraceNode("criterion", crit.id, crit.name)
                    for crit in register.criteria
                    if target_id in crit.constrains
                )
                children.append(
                    TraceNode(
                        "business_asset",
                        target_id,
                        model.element(target_id).name,
                        criteria,
                        path=reached[target_id],
                    )
                )
        return TraceNode(
            "is_asset", element_id, model.element(element_id).name, tuple(children)
        )

    event_children = []
    if case.threat is not None:
        threat_children = []
        if case.threat.agent:
            threat_children.append(TraceNode("threat_agent", "", case.threat.agent))
        if case.threat.method:
            threat_children.append(TraceNode("attack_method", "", case.threat.method))
        threat_children.extend(asset_node(t) for t in case.threat.targets)
        flags = () if case.threat.agent and case.threat.method else ("INCOMPLETE",)
        event_children.append(
            TraceNode("threat", "", "threat", tuple(threat_children), flags)
        )
    for vuln in case.vulnerabilities:
        anchors = tuple(asset_node(e) for e in vuln.elements)
        event_children.append(TraceNode("vulnerability", "", vuln.text, anchors))

    children = [
        TraceNode(
            "event", f"{case.id}::event", f"{case.name} event", tuple(event_children)
        )
    ]
    for impact in case.impacts:
        impact_children = [
            TraceNode("harmed_asset", e, model.element(e).name) for e in impact.harmed
        ]
        for crit_id in impact.negated:
            crit = next(c for c in register.criteria if c.id == crit_id)
            impact_children.append(TraceNode("criterion", crit.id, crit.name))
        children.append(TraceNode("impact", "", impact.text, tuple(impact_children)))
    for treatment in case.treatments:
        req_nodes = tuple(
            TraceNode(
                "requirement",
                req.id,
                req.text,
                tuple(TraceNode("control", c.id, c.text) for c in req.controls),
            )
            for req in treatment.requirements
        )
        children.append(
            TraceNode("treatment", treatment.id, treatment.text, req_nodes)
        )
    flags = () if case.treatments else ("UNTREATED",)
    return TraceNode("risk", case.id, case.name, tuple(children), flags)


# --- random inputs -------------------------------------------------------------------

# Concepts per framework by classification outcome. togaf91: definite IS,
# definite business, related-only, explicitly unmapped, and never mentioned.
# archimate21 adds what review acts on: a definite plain Asset to refine and
# candidate Asset, SecurityCriterion, Risk and SecurityRequirement facts.
_CONCEPT_POOLS = {
    "togaf91": (
        ["data entity"] * 4
        + ["business service"] * 3
        + ["principle", "event", "wormhole"]
    ),
    "archimate21": (
        ["data object"] * 3
        + ["device", "business service", "business service"]
        + ["business object"] * 2
        + ["principle", "driver", "assessment", "requirement"]
        + ["stakeholder", "business event", "wormhole"]
    ),
    # capability is the composite ISAsset+BusinessAsset, measure an
    # @attributes annotation, resource a refinable definite Asset.
    "dodaf202": (
        ["capability"] * 3
        + ["resource"] * 2
        + ["data", "system", "activity", "measure", "desired effect"]
        + ["condition", "architecture description", "wormhole"]
    ),
    # business object is conditional on carries_information; an entry may be
    # a (concept, attributes) pair.
    "iaf": (
        ["business object"]
        + [("business object", {"carries_information": "true"})] * 2
        + [("business object", {"carries_information": "false"})]
        + ["object contracts", "physical business component", "control"]
        + ["business standards, rules and guidelines", "business event"]
        + ["information system standards, rules and guidelines", "wormhole"]
    ),
}
_KINDS = ("flow", "association", "realization")


def _pool_element(elem_id: str, entry, name: str) -> EAElement:
    concept, attributes = (entry, None) if isinstance(entry, str) else entry
    return EAElement(elem_id, concept, name, dict(attributes or {}))


def random_model(
    rng: random.Random,
    max_elements: int = 20,
    min_elements: int = 2,
    framework: str = "togaf91",
) -> EAModel:
    pool = _CONCEPT_POOLS[framework]
    count = rng.randint(min_elements, max_elements)
    elements = [_pool_element("e0", pool[0], "seed element")]
    for i in range(1, count):
        elements.append(_pool_element(f"e{i}", rng.choice(pool), f"element {i}"))
    ids = [e.id for e in elements]
    relationships = []
    for i in range(rng.randint(0, 2 * count)):
        relationships.append(
            EARelationship(
                f"r{i}", rng.choice(_KINDS), rng.choice(ids), rng.choice(ids)
            )
        )
    return EAModel(framework, elements, relationships)


_REVIEW_CONCEPTS = (
    ISSRMConcept.ASSET,
    ISSRMConcept.BUSINESS_ASSET,
    ISSRMConcept.IS_ASSET,
    ISSRMConcept.RISK,
    ISSRMConcept.SECURITY_CRITERION,
    ISSRMConcept.SECURITY_REQUIREMENT,
)


def random_overlay(rng: random.Random, classification, max_entries: int = 8):
    """Verdicts mostly on candidate facts and refinable Asset facts, the rest
    on any element and concept, so every review branch gets exercised."""
    candidates = [f for f in classification.facts if f.tier is Tier.CANDIDATE]
    assets = [
        f.element_id
        for f in classification.facts
        if f.tier is Tier.DEFINITE and f.target == ConceptTarget(ISSRMConcept.ASSET)
    ]
    ids = sorted(classification.model.elements)
    entries = []
    for _ in range(rng.randint(0, max_entries)):
        roll = rng.random()
        element_id = rng.choice(ids)
        concept = rng.choice(_REVIEW_CONCEPTS)
        if candidates and roll < 0.5:
            fact = rng.choice(candidates)
            element_id = fact.element_id
            if rng.random() < 0.8:
                concept = rng.choice(sorted(target_concepts(fact.target), key=str))
        elif assets and roll < 0.7:
            element_id = rng.choice(assets)
            concept = rng.choice(sorted(_REFINABLE, key=str))
        verdict = "confirm" if rng.random() < 0.7 else "reject"
        entries.append(ReviewEntry(element_id, concept, verdict))
    return ReviewOverlay(tuple(entries))


def random_register_text(
    rng: random.Random, model: EAModel, max_risks: int = 3
) -> str:
    elems = sorted(model.elements)

    def pick_ids(limit=2):
        k = rng.randint(0, min(limit, len(elems)))
        return ",".join(rng.sample(elems, k))

    lines = []
    crit_ids = []
    for i in range(rng.randint(0, 2)):
        crit_id = f"crit{i}"
        crit_ids.append(crit_id)
        lines.append(f"CRIT|{crit_id}|Criterion {i}|{pick_ids()}")
    for i in range(rng.randint(0, max_risks)):
        risk_id = f"risk{i}"
        lines.append(f"RISK|{risk_id}|Risk {i}")
        if rng.random() < 0.8:
            agent = rng.choice(("Agent", "-"))
            method = rng.choice(("Method", "-"))
            lines.append(f"THREAT|{risk_id}|{agent}|{method}|{pick_ids()}")
        for j in range(rng.randint(0, 2)):
            lines.append(f"VULN|{risk_id}|weakness {j}|{pick_ids()}")
        for j in range(rng.randint(0, 2)):
            negated = ",".join(
                rng.sample(crit_ids, rng.randint(0, len(crit_ids)))
            )
            lines.append(f"IMPACT|{risk_id}|impact {j}|{pick_ids()}|{negated}")
        for j in range(rng.randint(0, 2)):
            treat_id = f"treat{i}_{j}"
            lines.append(f"TREAT|{risk_id}|{treat_id}|treatment text")
            for q in range(rng.randint(0, 2)):
                req_id = f"req{i}_{j}_{q}"
                lines.append(f"REQ|{treat_id}|{req_id}|requirement text")
                for c in range(rng.randint(0, 2)):
                    lines.append(f"CTRL|{req_id}|ctrl{i}{j}{q}{c}|control text")
    return "\n".join(lines) + "\n"


# --- indexed code against the scans ------------------------------------------------


def _outcome(review, classification, overlay):
    try:
        return review(classification, overlay)
    except InputError as exc:
        return (type(exc), str(exc))


def _same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.facts == want.facts


def _findings(violations):
    return [(v.code, v.subjects, v.message) for v in violations]


def check_against_scans(ruleset, model, rng, lookups=None, max_risks=3):
    """Run the pipeline indexed and scanning on one model; assert equal results.

    Compares lookups (on `lookups` sampled elements, all when None), review
    outcomes entry by entry and for the whole overlay, violations with their
    messages, the event-part findings of the induced graph, and the trace
    tree of every risk.
    """
    classification = classify_model(ruleset, model)
    reference = scanning(classification)
    ids = sorted(model.elements)
    if lookups is not None:
        ids = rng.sample(ids, min(lookups, len(ids)))
    for element_id in [*ids, "absent"]:
        assert classification.facts_for(element_id) == reference.facts_for(element_id)
        assert classification.definite_concepts(
            element_id
        ) == reference.definite_concepts(element_id)
    for concept in ISSRMConcept:
        assert classification.definite_elements(
            concept
        ) == reference.definite_elements(concept)

    overlay = random_overlay(rng, classification)
    _same_outcome(
        _outcome(apply_review, classification, overlay),
        _outcome(apply_review_scan, reference, overlay),
    )
    reviewed = classification
    for entry in overlay.entries:
        single = ReviewOverlay((entry,))
        got = _outcome(apply_review, reviewed, single)
        want = _outcome(apply_review_scan, reference, single)
        _same_outcome(got, want)
        if not isinstance(want, tuple):
            reviewed, reference = got, want

    text = random_register_text(rng, model, max_risks)
    register = parse_risk_catalog(text, reviewed)
    reference_register = parse_risk_catalog(text, reference)
    assert _findings(validate_register(register)) == _findings(
        validate_register(reference_register)
    )
    graph = induced_graph(register)
    part_codes = ("THR_INCOMPLETE", "VULN_NO_ISASSET")
    assert _findings(
        v for v in validate_structure(graph) if v.code in part_codes
    ) == _findings(event_part_findings(graph))
    kinds = rng.choice([None, {"flow"}, {"flow", "association"}])
    for case in register.risks:
        assert trace(register, case.id, kinds) == trace_scan(
            reference_register, case.id, kinds
        )


def _local(tag: object) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _type_token(node: ET.Element) -> str:
    token = node.get(_XSI_TYPE) or node.get("type") or ""
    # some exports prefix the type with the archimate namespace alias
    return token.split(":")[-1].strip()


def _child_text(node: ET.Element, *names: str) -> str:
    for child in node:
        if _local(child.tag) in names:
            return (child.text or "").strip()
    return ""


_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def _one_line(text: str) -> str:
    """Replace each line break with one space; model records are single-line."""
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _id_attr(node: ET.Element, *names: str) -> str:
    """The first non-empty id attribute among names; ids cannot span lines."""
    value = next(filter(None, map(node.get, names)), "")
    if "\n" in value or "\r" in value:
        raise ModelFormatError(f"{names[0]} {value!r} contains a line break")
    return value


def _relationship_kind(token: str) -> str:
    if token.endswith("Relationship"):
        token = token[: -len("Relationship")]
    return normalize_name(_CAMEL.sub(" ", token))


def import_archimate_tree(data: str | bytes, source: str = "") -> EAModel:
    """Parse exchange-format XML into an EAModel tagged archimate21."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ModelFormatError(
            f"not well-formed XML at column {column}: {exc.msg.split(':')[0]}", line
        ) from None
    if _local(root.tag) != "model":
        raise ModelFormatError(f"expected a <model> document, got <{_local(root.tag)}>")

    warnings: list[str] = []
    elements: list[EAElement] = []
    for container in root.iter():
        if _local(container.tag) != "elements":
            continue
        for node in container:
            if _local(node.tag) != "element":
                continue
            elem_id = _id_attr(node, "identifier", "id")
            if not elem_id:
                raise ModelFormatError("element without an identifier attribute")
            token = _type_token(node)
            if not token:
                raise ModelFormatError(f"element {elem_id!r} has no type")
            concept_name = ELEMENT_TOKENS.get(token)
            if concept_name is None:
                concept_name = normalize_name(token)
                warnings.append(
                    f"unknown element type token {token!r} on {elem_id!r}"
                )
            name = _one_line(_child_text(node, "name", "label"))
            attrs = {
                _one_line(prop.get("key") or prop.get("name") or ""):
                    _one_line(prop.get("value") or "")
                for child in node
                if _local(child.tag) == "properties"
                for prop in child
                if _local(prop.tag) == "property"
            }
            attrs.pop("", None)
            elements.append(EAElement(elem_id, concept_name, name, attrs))

    relationships: list[EARelationship] = []
    for container in root.iter():
        if _local(container.tag) != "relationships":
            continue
        for node in container:
            if _local(node.tag) != "relationship":
                continue
            rel_id = _id_attr(node, "identifier", "id")
            if not rel_id:
                raise ModelFormatError("relationship without an identifier attribute")
            token = _type_token(node)
            if not token:
                raise ModelFormatError(f"relationship {rel_id!r} has no type")
            src = _id_attr(node, "source")
            dst = _id_attr(node, "target")
            relationships.append(
                EARelationship(rel_id, _relationship_kind(token), src, dst)
            )

    return EAModel(
        "archimate21", elements, relationships, source=source, warnings=warnings
    )


# --- register graph and validation with every part and derived id inline ----------


def induced_graph_inline(register) -> RiskGraph:
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


def validate_register_inline(register) -> list[Violation]:
    """Structural findings for a register: graph rules plus binding checks."""
    classification = register.classification
    found = set(validate_structure(induced_graph_inline(register)))

    for case in register.risks:
        # The structure gate checks an event's parts only once it has one. An
        # event with a threat or a vulnerability is checked there; one with
        # neither is bare in the graph, so its two findings are added here.
        # Risks need no such case: their event is always a part.
        if case.threat is None and not case.vulnerabilities:
            event_id = f"{case.id}::event"
            found.add(
                Violation(
                    "EVT_NO_THREAT", (event_id,),
                    f"risk {case.id!r} declares no threat",
                )
            )
            found.add(
                Violation(
                    "EVT_NO_VULN", (event_id,),
                    f"risk {case.id!r} declares no vulnerability",
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


# The classifier that resolved the rules of every element afresh and the
# tabular parser whose model constructor checked the ids and endpoints a
# second time, copied verbatim apart from their names.


def _target_rules_per_element(ruleset: Ruleset, element: EAElement) -> list[AlignmentRule]:
    """The element's applicable rules that name a target, in table order."""
    return [
        rule
        for rule in resolve_rules(ruleset, element.concept_name, element.attributes)
        if not isinstance(rule.target, NoTarget)
    ]


def _fact_per_element(element_id: str, rule: AlignmentRule) -> ClassificationFact:
    return ClassificationFact(
        element_id=element_id,
        target=rule.target,
        mapping_type=rule.mapping_type,
        tier=tier_of(rule.mapping_type, rule.target),
        framework=rule.framework,
        row=rule.row,
    )


def classify_model_per_element(ruleset: Ruleset, model: EAModel) -> ClassificationSet:
    """Classify every element of a model against a matching-framework ruleset."""
    if ruleset.framework != model.framework:
        raise FrameworkMismatchError(
            f"model is {model.framework!r} but ruleset is {ruleset.framework!r}"
        )
    facts: list[ClassificationFact] = []
    unmapped: list[str] = []
    unknown: list[str] = []
    warnings: list[str] = []
    for elem_id in sorted(model.elements):
        element = model.element(elem_id)
        if not ruleset.rules_for(element.concept_name):
            unknown.append(elem_id)
            continue
        rules = _target_rules_per_element(ruleset, element)
        if not rules:
            unmapped.append(elem_id)
        for rule in rules:
            facts.append(_fact_per_element(elem_id, rule))
            if rule.mapping_type.kind is MappingKind.UNSPECIFIED:
                warnings.append(
                    f"{elem_id}: {rule.framework} row {rule.row} ({rule.source}) "
                    "has a blank mapping type; classified at related tier"
                )
            elif rule.mapping_type.kind is MappingKind.NON_STANDARD:
                warnings.append(
                    f"{elem_id}: {rule.framework} row {rule.row} ({rule.source}) "
                    f"uses non-standard mapping type {rule.mapping_type.text!r}; "
                    "classified at candidate tier"
                )
    return ClassificationSet(
        model=model,
        ruleset=ruleset,
        facts=tuple(facts),
        unmapped=tuple(unmapped),
        unknown=tuple(unknown),
        warnings=tuple(warnings),
    )


# --- record readers and writers one character or one field at a time ---------------


def unescape_by_char(value: str) -> str:
    """Remove one level of backslash escaping."""
    if "\\" not in value:
        return value
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch == "\\":
            out.append(next(it, ""))
        else:
            out.append(ch)
    return "".join(out)


def split_escaped_by_char(value: str, sep: str) -> list[str]:
    """Split on unescaped separators, keeping escapes in the pieces."""
    pieces: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in value:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == sep:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    pieces.append("".join(current))
    return pieces


def split_record_by_char(line: str) -> list[str]:
    """Split a record line into unescaped fields."""
    return [unescape_by_char(f) for f in split_escaped_by_char(line, "|")]


def iter_records_by_char(text: str):
    """Yield (line number, fields) for each record line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if not line.strip() or line.startswith("#"):
            continue
        yield lineno, split_record_by_char(line)


def parse_attrs_by_char(field: str, lineno: int | None = None) -> dict[str, str]:
    """Parse a k=v;k=v attribute field. Empty input means no attributes."""
    if not field:
        return {}
    attrs: dict[str, str] = {}
    for item in split_escaped_by_char(field, ";"):
        parts = split_escaped_by_char(item, "=")
        if len(parts) != 2:
            raise LineError(f"malformed attribute {unescape_by_char(item)!r}", lineno)
        key, value = unescape_by_char(parts[0]), unescape_by_char(parts[1])
        if not key:
            raise LineError("attribute with empty key", lineno)
        if key in attrs:
            raise LineError(f"duplicate attribute key {key!r}", lineno)
        attrs[key] = value
    return attrs


def join_record_per_field(fields) -> str:
    return "|".join(recordio.escape_field(f) for f in fields)


def join_records_per_field(rows) -> str:
    return "".join(join_record_per_field(row) + "\n" for row in rows)


def export_tabular_per_field(model: EAModel) -> str:
    """The tabular text of a model, elements before relationships."""
    rows = [("FRAMEWORK", model.framework)]
    rows.extend(
        ("E", elem.id, elem.concept_name, elem.name, recordio.format_attrs(elem.attributes))
        for elem in model.elements.values()
    )
    rows.extend(
        ("R", rel.id, rel.kind, rel.source, rel.target) for rel in model.relationships
    )
    return join_records_per_field(rows)


def parse_tabular_checked_twice(text: str, source: str = "") -> EAModel:
    """Parse the tabular model format. Errors carry 1-based line numbers."""
    framework: str | None = None
    elements: list[EAElement] = []
    element_ids: set[str] = set()
    relationships: list[EARelationship] = []
    rel_ids: set[str] = set()

    for lineno, fields in iter_records_by_char(text):
        tag = fields[0]
        if framework is None:
            if tag != "FRAMEWORK" or len(fields) != 2:
                raise ModelFormatError(
                    "expected FRAMEWORK|<id> as the first record", lineno
                )
            try:
                framework = check_framework(fields[1])
            except UnknownFrameworkError as exc:
                raise ModelFormatError(str(exc), lineno) from None
            continue
        if tag == "E":
            if len(fields) != 5:
                raise ModelFormatError(
                    f"E record needs 5 fields, got {len(fields)}", lineno
                )
            _, elem_id, concept_name, name, attr_field = fields
            if not elem_id:
                raise ModelFormatError("element with empty id", lineno)
            if elem_id in element_ids:
                raise ModelFormatError(f"duplicate element id {elem_id!r}", lineno)
            element_ids.add(elem_id)
            # field unescaping strips one level, leaving attr escapes intact
            attrs = parse_attrs_by_char(attr_field, lineno)
            elements.append(
                EAElement(elem_id, normalize_name(concept_name), name, attrs)
            )
        elif tag == "R":
            if len(fields) != 5:
                raise ModelFormatError(
                    f"R record needs 5 fields, got {len(fields)}", lineno
                )
            _, rel_id, kind, src, dst = fields
            if not rel_id:
                raise ModelFormatError("relationship with empty id", lineno)
            if rel_id in rel_ids:
                raise ModelFormatError(f"duplicate relationship id {rel_id!r}", lineno)
            rel_ids.add(rel_id)
            for endpoint in (src, dst):
                if endpoint not in element_ids:
                    raise ModelFormatError(
                        f"unknown endpoint {endpoint!r}", lineno
                    )
            relationships.append(
                EARelationship(rel_id, normalize_name(kind), src, dst)
            )
        else:
            raise ModelFormatError(f"unknown record tag {tag!r}", lineno)

    if framework is None:
        raise ModelFormatError("empty model text; FRAMEWORK record missing")
    return EAModel(framework, elements, relationships, source=source)
