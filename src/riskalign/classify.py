"""Classification of model elements into ISSRM roles.

classify_model runs one ruleset over one model and produces facts (element,
target, mapping type, confidence tier, provenance), plus the two reject
lists: unmapped elements (a rule says the concept has no counterpart) and
unknown elements (no rule mentions the concept at all). A review overlay can
then promote candidate facts to definite, refine plain Asset facts to a
subtype, or reject candidates.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import NamedTuple

from .concepts import ISSRMConcept, parse_concept
from .eamodel import EAElement, EAModel
from .errors import (
    FrameworkMismatchError,
    OverlayFormatError,
    ReviewError,
    UnknownElementError,
)
from .mappings import (
    AnnotationTarget,
    AttributeEquals,
    AttributeTarget,
    ConceptTarget,
    MappingKind,
    MappingType,
    NoTarget,
    Ruleset,
    TargetSpec,
    resolve_rules,
    serialize_target,
    target_concepts,
    transcription_warning,
)
from . import recordio


class Tier(enum.Enum):
    DEFINITE = "definite"
    CANDIDATE = "candidate"
    RELATED = "related"
    ANNOTATION = "annotation"

    def __str__(self) -> str:
        return self.value


def tier_of(mapping_type: MappingType, target: TargetSpec) -> Tier:
    """Confidence tier of one rule application.

    Attribute-level targets always classify as annotation regardless of the
    mapping type; equivalence and specialisation read "every instance is
    one", so they are definite; generalisation only promises some instances,
    so candidate; non-standard types are candidate pending review; the
    structural relations and unspecified cells are merely related.
    """
    if isinstance(target, NoTarget):
        raise ValueError("no-counterpart rules produce no classification")
    if isinstance(target, (AnnotationTarget, AttributeTarget)):
        return Tier.ANNOTATION
    kind = mapping_type.kind
    if kind in (MappingKind.EQUIVALENCE, MappingKind.SPECIALISATION):
        return Tier.DEFINITE
    if kind in (MappingKind.GENERALISATION, MappingKind.NON_STANDARD):
        return Tier.CANDIDATE
    return Tier.RELATED


class ClassificationFact(NamedTuple):
    element_id: str
    target: TargetSpec
    mapping_type: MappingType
    tier: Tier
    framework: str
    row: int
    confirmed: bool = False

    @property
    def provenance(self) -> str:
        return f"{self.framework}:{self.row}"


def classify_element(ruleset: Ruleset, element: EAElement) -> list[ClassificationFact]:
    """Facts for one element, in table order. Empty for unmapped or unknown."""
    plan = _concept_plan(ruleset, element.concept_name)
    if plan is None:
        return []
    return [ClassificationFact(element.id, *step.fact) for step in _steps(plan, element)]


class ClassificationSet:
    """Outcome of classifying one model with one ruleset.

    Facts are ordered by element id then table row; unmapped and unknown are
    sorted element ids. Every model element lands in exactly one of: has a
    fact, unmapped, unknown.

    Every lookup reads one of two indexes, each built from the facts in one
    pass the first time it is asked for: the facts by element, and the
    elements that definitely hold each concept.
    """

    def __init__(
        self,
        model: EAModel,
        ruleset: Ruleset,
        facts: tuple[ClassificationFact, ...],
        unmapped: tuple[str, ...],
        unknown: tuple[str, ...],
        warnings: tuple[str, ...],
    ):
        self.model = model
        self.ruleset = ruleset
        self.facts = facts
        self.unmapped = unmapped
        self.unknown = unknown
        self.warnings = warnings

    def facts_for(self, element_id: str) -> tuple[ClassificationFact, ...]:
        return self._facts_by_element.get(element_id, ())

    def definite_concepts(self, element_id: str) -> frozenset[ISSRMConcept]:
        """Concepts this element definitely holds, composites included."""
        return frozenset(
            concept
            for concept, holders in self._definite_holders.items()
            if element_id in holders
        )

    def definite_elements(self, concept: ISSRMConcept) -> frozenset[str]:
        """Ids of the elements that definitely hold a concept."""
        return self._definite_holders.get(concept, frozenset())

    @cached_property
    def _facts_by_element(self) -> dict[str, tuple[ClassificationFact, ...]]:
        groups: dict[str, list[ClassificationFact]] = {}
        for fact in self.facts:
            groups.setdefault(fact.element_id, []).append(fact)
        return {element_id: tuple(group) for element_id, group in groups.items()}

    @cached_property
    def _definite_holders(self) -> dict[ISSRMConcept, frozenset[str]]:
        holders: dict[ISSRMConcept, set[str]] = {}
        for fact in self.facts:
            if fact.tier is Tier.DEFINITE:
                for concept in target_concepts(fact.target):
                    holders.setdefault(concept, set()).add(fact.element_id)
        return {concept: frozenset(ids) for concept, ids in holders.items()}


def classify_model(ruleset: Ruleset, model: EAModel) -> ClassificationSet:
    """Classify every element of a model against a matching-framework ruleset.

    The rules, tiers and warning texts are resolved once per distinct
    concept name; only a concept with a conditional rule evaluates the
    conditions against each element's attributes.
    """
    if ruleset.framework != model.framework:
        raise FrameworkMismatchError(
            f"model is {model.framework!r} but ruleset is {ruleset.framework!r}"
        )
    facts: list[ClassificationFact] = []
    unmapped: list[str] = []
    unknown: list[str] = []
    warnings: list[str] = []
    plans: dict[str, _ConceptPlan | None] = {}
    index = model.elements
    new = tuple.__new__  # facts without their Python-level __new__
    for elem_id in sorted(index):
        element = index[elem_id]
        try:
            plan = plans[element.concept_name]
        except KeyError:
            plan = plans[element.concept_name] = _concept_plan(
                ruleset, element.concept_name
            )
        if plan is None:
            unknown.append(elem_id)
            continue
        steps = _steps(plan, element)
        if not steps:
            unmapped.append(elem_id)
        for step in steps:
            facts.append(new(ClassificationFact, (elem_id, *step.fact)))
            if step.warning:
                warnings.append(f"{elem_id}: {step.warning}")
    return ClassificationSet(
        model=model,
        ruleset=ruleset,
        facts=tuple(facts),
        unmapped=tuple(unmapped),
        unknown=tuple(unknown),
        warnings=tuple(warnings),
    )


class _Step(NamedTuple):
    """One target-naming rule of a concept, resolved for classification."""

    condition: AttributeEquals | None
    fact: tuple[TargetSpec, MappingType, Tier, str, int, bool]  # fields after the id
    warning: str  # the warning text after "<element id>: ", or ""


class _ConceptPlan(NamedTuple):
    steps: tuple[_Step, ...]
    conditional: bool  # some step has a condition to evaluate per element


def _concept_plan(ruleset: Ruleset, concept_name: str) -> _ConceptPlan | None:
    """The target-naming rules of one concept, in table order; None when no
    rule mentions the concept."""
    rules = ruleset.rules_for(concept_name)
    if not rules:
        return None
    steps: list[_Step] = []
    for rule in rules:
        if not isinstance(rule.target, NoTarget):
            tier = tier_of(rule.mapping_type, rule.target)
            warning = transcription_warning(rule)
            steps.append(_Step(
                rule.condition,
                (rule.target, rule.mapping_type, tier, rule.framework, rule.row, False),
                warning and f"{warning}; classified at {tier} tier",
            ))
    return _ConceptPlan(tuple(steps), any(step.condition is not None for step in steps))


def _steps(plan: _ConceptPlan, element: EAElement) -> tuple[_Step, ...]:
    """The plan's steps whose condition holds for the element."""
    if not plan.conditional:
        return plan.steps
    attributes = element.attributes or {}
    return tuple(
        step
        for step in plan.steps
        if step.condition is None or step.condition.evaluate(attributes)
    )


# --- review overlays -----------------------------------------------------------


class ReviewEntry(NamedTuple):
    element_id: str
    concept: ISSRMConcept
    verdict: str  # "confirm" or "reject"
    note: str = ""


class ReviewOverlay(NamedTuple):
    entries: tuple[ReviewEntry, ...]


def parse_overlay(text: str) -> ReviewOverlay:
    """Parse REVIEW|<element id>|<concept>|<verdict>|<note> lines."""
    entries: list[ReviewEntry] = []
    for lineno, fields in recordio.iter_records(text):
        if fields[0] != "REVIEW" or len(fields) != 5:
            raise OverlayFormatError(
                "expected REVIEW|<element id>|<concept>|<verdict>|<note>", lineno
            )
        _, element_id, concept_token, verdict, note = fields
        if verdict not in ("confirm", "reject"):
            raise OverlayFormatError(
                f"verdict must be confirm or reject, got {verdict!r}", lineno
            )
        try:
            concept = parse_concept(concept_token)
        except ValueError as exc:
            raise OverlayFormatError(str(exc), lineno) from None
        entries.append(ReviewEntry(element_id, concept, verdict, note))
    return ReviewOverlay(tuple(entries))


_REFINABLE = {ISSRMConcept.BUSINESS_ASSET, ISSRMConcept.IS_ASSET}
_ASSET_TARGET = ConceptTarget(ISSRMConcept.ASSET)


def apply_review(
    classification: ClassificationSet, overlay: ReviewOverlay
) -> ClassificationSet:
    """Apply review verdicts, returning a new classification set.

    A verdict acts on the element's candidate facts with the named concept
    target: confirm promotes them to definite, reject removes them.
    Confirming an already confirmed fact is a no-op; confirming
    BusinessAsset or ISAsset with no such candidate refines the element's
    definite Asset facts to the subtype. Anything else is a ReviewError.
    """
    edited: dict[str, list[ClassificationFact]] = {}  # the groups a verdict names
    for entry in overlay.entries:
        element_id, concept = entry.element_id, entry.concept
        if element_id not in classification.model:
            raise UnknownElementError(f"review names unknown element id {element_id!r}")
        group = edited.get(element_id, classification.facts_for(element_id))
        target = ConceptTarget(concept)
        exact = [fact for fact in group if fact.target == target]
        chosen = [fact for fact in exact if fact.tier is Tier.CANDIDATE]
        confirm = entry.verdict == "confirm"
        if confirm and not chosen:
            if any(fact.confirmed for fact in exact):
                continue  # idempotent re-confirmation
            if concept in _REFINABLE:
                chosen = [fact for fact in group if fact.target == _ASSET_TARGET
                          and fact.tier is Tier.DEFINITE]
        if not chosen:
            pair = f"({element_id}, {concept})"
            if not confirm:
                reason = ("only candidate facts can be rejected" if exact
                          else "no matching fact")
                message = f"cannot reject {pair}; {reason}"
            elif exact:
                message = (f"cannot confirm {pair}; "
                           "the fact is already definite without review")
            elif group:
                message = f"no candidate fact {pair} to confirm"
            else:
                message = f"element {element_id!r} has no classification facts"
            raise ReviewError(message)
        # equal facts are acted on alike, so a fact is chosen by its value
        if confirm:
            edited[element_id] = [
                fact._replace(target=target, tier=Tier.DEFINITE, confirmed=True)
                if fact in chosen else fact
                for fact in group
            ]
        else:
            edited[element_id] = [fact for fact in group if fact not in chosen]
    return ClassificationSet(
        model=classification.model,
        ruleset=classification.ruleset,
        facts=tuple(
            fact
            for element_id, group in classification._facts_by_element.items()
            for fact in edited.get(element_id, group)
        ),
        unmapped=classification.unmapped,
        unknown=classification.unknown,
        warnings=classification.warnings,
    )


# --- reports ---------------------------------------------------------------------


class UnmappedEntry(NamedTuple):
    element_id: str
    name: str
    concept_name: str
    reason: str


def unmapped_report(classification: ClassificationSet) -> list[UnmappedEntry]:
    """Unmapped elements with the no-counterpart reason from their rule."""
    out: list[UnmappedEntry] = []
    for elem_id in classification.unmapped:
        element = classification.model.element(elem_id)
        reason = ""
        for rule in resolve_rules(
            classification.ruleset, element.concept_name, element.attributes
        ):
            if isinstance(rule.target, NoTarget) and rule.target.reason:
                reason = rule.target.reason
                break
        out.append(UnmappedEntry(elem_id, element.name, element.concept_name, reason))
    return out


def render_unmapped_text(entries: list[UnmappedEntry]) -> str:
    lines = [f"unmapped elements: {len(entries)}"]
    for e in entries:
        reason = f": {e.reason}" if e.reason else ""
        lines.append(f"  {e.element_id} ({e.name}) concept {e.concept_name!r}{reason}")
    return "\n".join(lines) + "\n"


def render_unmapped_records(entries: list[UnmappedEntry]) -> str:
    return recordio.join_records(
        ("U", e.element_id, e.concept_name, e.name, e.reason) for e in entries
    )


def _fact_cells(facts: tuple[ClassificationFact, ...]) -> list[tuple[str, str, str]]:
    """The target, mapping type and tier texts of each fact. Facts share few
    distinct (target, mapping type, tier) cells, and each is rendered once."""
    rendered: dict[tuple[TargetSpec, MappingType, Tier], tuple[str, str, str]] = {}
    cells = []
    for fact in facts:
        key = (fact.target, fact.mapping_type, fact.tier)
        cell = rendered.get(key)
        if cell is None:
            cell = rendered[key] = (serialize_target(key[0]), str(key[1]), str(key[2]))
        cells.append(cell)
    return cells


def render_facts_records(classification: ClassificationSet) -> str:
    """Record-format report: F lines, then U lines, then X lines."""
    facts = classification.facts
    rows: list[tuple[str, ...]] = [
        ("F", fact.element_id, *cell, fact.provenance)
        for fact, cell in zip(facts, _fact_cells(facts))
    ]
    rows.extend(
        ("U", entry.element_id, entry.reason)
        for entry in unmapped_report(classification)
    )
    rows.extend(("X", elem_id) for elem_id in classification.unknown)
    return recordio.join_records(rows)


def render_facts_text(classification: ClassificationSet) -> str:
    """Human-readable report, one line per fact."""
    facts, index = classification.facts, classification.model.elements
    lines = [f"facts: {len(facts)}"]
    for fact, (target, mapping, tier) in zip(facts, _fact_cells(facts)):
        suffix = ", confirmed" if fact.confirmed else ""
        lines.append(
            f"  {fact.element_id} ({index[fact.element_id].name}) -> "
            f"{target} [{mapping or 'unspecified'}, {tier}{suffix}] "
            f"{fact.provenance}"
        )
    lines.append(f"unmapped: {len(classification.unmapped)}")
    for entry in unmapped_report(classification):
        reason = f": {entry.reason}" if entry.reason else ""
        lines.append(f"  {entry.element_id} ({entry.name}){reason}")
    lines.append(f"unknown: {len(classification.unknown)}")
    for elem_id in classification.unknown:
        element = index[elem_id]
        lines.append(f"  {elem_id} ({element.name}) concept {element.concept_name!r}")
    return "\n".join(lines) + "\n"
