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
from dataclasses import dataclass, replace
from functools import cached_property

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


@dataclass(frozen=True)
class ClassificationFact:
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
    facts: list[ClassificationFact] = []
    for rule in resolve_rules(ruleset, element.concept_name, element.attributes):
        if isinstance(rule.target, NoTarget):
            continue
        facts.append(
            ClassificationFact(
                element_id=element.id,
                target=rule.target,
                mapping_type=rule.mapping_type,
                tier=tier_of(rule.mapping_type, rule.target),
                framework=rule.framework,
                row=rule.row,
            )
        )
    return facts


@dataclass(frozen=True)
class ClassificationSet:
    """Outcome of classifying one model with one ruleset.

    Facts are ordered by element id then table row; unmapped and unknown are
    sorted element ids. Every model element lands in exactly one of: has a
    fact, unmapped, unknown.

    The per-element lookups read an index built from the facts the first
    time one is asked for, once per instance; dataclasses.replace gives a
    new instance with a fresh index.
    """

    model: EAModel
    ruleset: Ruleset
    facts: tuple[ClassificationFact, ...]
    unmapped: tuple[str, ...]
    unknown: tuple[str, ...]
    warnings: tuple[str, ...]

    def facts_for(self, element_id: str) -> tuple[ClassificationFact, ...]:
        return self._facts_by_element.get(element_id, ())

    def definite_concepts(self, element_id: str) -> frozenset[ISSRMConcept]:
        """Concepts this element definitely holds, composites included."""
        return self._definite_by_element.get(element_id, frozenset())

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
    def _definite_by_element(self) -> dict[str, frozenset[ISSRMConcept]]:
        return {
            element_id: frozenset(
                concept
                for fact in group
                if fact.tier is Tier.DEFINITE
                for concept in target_concepts(fact.target)
            )
            for element_id, group in self._facts_by_element.items()
        }

    @cached_property
    def _definite_holders(self) -> dict[ISSRMConcept, frozenset[str]]:
        holders: dict[ISSRMConcept, set[str]] = {}
        for element_id, concepts in self._definite_by_element.items():
            for concept in concepts:
                holders.setdefault(concept, set()).add(element_id)
        return {concept: frozenset(ids) for concept, ids in holders.items()}


def classify_model(ruleset: Ruleset, model: EAModel) -> ClassificationSet:
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
        applicable = resolve_rules(ruleset, element.concept_name, element.attributes)
        element_facts = classify_element(ruleset, element)
        if not element_facts:
            unmapped.append(elem_id)
        facts.extend(element_facts)
        for rule in applicable:
            if isinstance(rule.target, NoTarget):
                continue
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


# --- review overlays -----------------------------------------------------------


@dataclass(frozen=True)
class ReviewEntry:
    element_id: str
    concept: ISSRMConcept
    verdict: str  # "confirm" or "reject"
    note: str = ""


@dataclass(frozen=True)
class ReviewOverlay:
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


def apply_review(
    classification: ClassificationSet, overlay: ReviewOverlay
) -> ClassificationSet:
    """Apply review verdicts, returning a new classification set.

    Confirm promotes candidate facts with the named concept target to
    definite; confirming an already confirmed fact is a no-op; confirming a
    definite Asset fact as BusinessAsset or ISAsset refines the target to
    the subtype. Reject removes candidate facts. Anything else is a
    ReviewError.
    """
    groups = {
        element_id: list(group)
        for element_id, group in classification._facts_by_element.items()
    }
    for entry in overlay.entries:
        if entry.element_id not in classification.model:
            raise UnknownElementError(
                f"review names unknown element id {entry.element_id!r}"
            )
        group = groups.get(entry.element_id, [])
        exact_target = ConceptTarget(entry.concept)
        exact = [i for i, f in enumerate(group) if f.target == exact_target]
        if entry.verdict == "confirm":
            promotable = [i for i in exact if group[i].tier is Tier.CANDIDATE]
            if promotable:
                for i in promotable:
                    group[i] = replace(group[i], tier=Tier.DEFINITE, confirmed=True)
                continue
            if any(group[i].confirmed for i in exact):
                continue  # idempotent re-confirmation
            if _refine(group, entry):
                continue
            raise ReviewError(_confirm_error(group, entry, exact))
        else:
            rejectable = [i for i in exact if group[i].tier is Tier.CANDIDATE]
            if not rejectable:
                if exact:
                    raise ReviewError(
                        f"cannot reject ({entry.element_id}, {entry.concept}); "
                        "only candidate facts can be rejected"
                    )
                raise ReviewError(
                    f"cannot reject ({entry.element_id}, {entry.concept}); "
                    "no matching fact"
                )
            for i in sorted(rejectable, reverse=True):
                del group[i]
    facts = tuple(fact for group in groups.values() for fact in group)
    return replace(classification, facts=facts)


def _refine(group: list[ClassificationFact], entry: ReviewEntry) -> bool:
    """Refine the element's definite Asset facts to the entry's subtype."""
    if entry.concept not in _REFINABLE:
        return False
    asset_target = ConceptTarget(ISSRMConcept.ASSET)
    refined = False
    for i, fact in enumerate(group):
        if fact.target == asset_target and fact.tier is Tier.DEFINITE:
            group[i] = replace(
                fact, target=ConceptTarget(entry.concept), confirmed=True
            )
            refined = True
    return refined


def _confirm_error(
    group: list[ClassificationFact], entry: ReviewEntry, exact: list[int]
) -> str:
    if exact:
        return (
            f"cannot confirm ({entry.element_id}, {entry.concept}); "
            "the fact is already definite without review"
        )
    if not group:
        return f"element {entry.element_id!r} has no classification facts"
    return (
        f"no candidate fact ({entry.element_id}, {entry.concept}) to confirm"
    )


# --- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class UnmappedEntry:
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


def render_facts_records(classification: ClassificationSet) -> str:
    """Record-format report: F lines, then U lines, then X lines."""
    lines: list[str] = []
    for fact in classification.facts:
        lines.append(
            recordio.join_record(
                (
                    "F",
                    fact.element_id,
                    serialize_target(fact.target),
                    str(fact.mapping_type),
                    str(fact.tier),
                    fact.provenance,
                )
            )
        )
    for entry in unmapped_report(classification):
        lines.append(recordio.join_record(("U", entry.element_id, entry.reason)))
    for elem_id in classification.unknown:
        lines.append(recordio.join_record(("X", elem_id)))
    return "\n".join(lines) + "\n" if lines else ""


def render_facts_text(classification: ClassificationSet) -> str:
    """Human-readable report, one line per fact."""
    lines = [f"facts: {len(classification.facts)}"]
    for fact in classification.facts:
        element = classification.model.element(fact.element_id)
        mapping = str(fact.mapping_type) or "unspecified"
        suffix = ", confirmed" if fact.confirmed else ""
        lines.append(
            f"  {fact.element_id} ({element.name}) -> "
            f"{serialize_target(fact.target)} [{mapping}, {fact.tier}{suffix}] "
            f"{fact.provenance}"
        )
    lines.append(f"unmapped: {len(classification.unmapped)}")
    for entry in unmapped_report(classification):
        reason = f": {entry.reason}" if entry.reason else ""
        lines.append(f"  {entry.element_id} ({entry.name}){reason}")
    lines.append(f"unknown: {len(classification.unknown)}")
    for elem_id in classification.unknown:
        element = classification.model.element(elem_id)
        lines.append(f"  {elem_id} ({element.name}) concept {element.concept_name!r}")
    return "\n".join(lines) + "\n"
