"""Classification of model elements into ISSRM roles.

classify_model runs one ruleset over one model and produces facts (element,
target, mapping type, confidence tier, provenance), plus the two reject
lists: unmapped elements (a rule says the concept has no counterpart) and
unknown elements (no rule mentions the concept at all). A review overlay can
then promote candidate facts to definite, refine plain Asset facts to a
subtype, or reject candidates.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Mapping
from functools import cache, cached_property, partial
from operator import itemgetter

from .concepts import ISSRMConcept, Vocabulary, parse_concept
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


class Tier(Vocabulary):
    DEFINITE = "definite"
    CANDIDATE = "candidate"
    RELATED = "related"
    ANNOTATION = "annotation"


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


class ClassificationFact(namedtuple(
    "ClassificationFact",
    "element_id target mapping_type tier framework row confirmed",
    defaults=(False,),
)):
    """element_id: str; target: TargetSpec; mapping_type: MappingType;
    tier: Tier; framework: str; row: int; confirmed: bool = False"""

    __slots__ = ()

    @property
    def provenance(self) -> str:
        return f"{self.framework}:{self.row}"


def classify_element(ruleset: Ruleset, element: EAElement) -> list[ClassificationFact]:
    """Facts for one element, in table order. Empty for unmapped or unknown."""
    return _facts(_concept_plan(ruleset, element.concept_name), (element.id,),
                  {element.id: element})


class ClassificationSet:
    """Outcome of classifying one model with one ruleset.

    Facts are ordered by element id then table row; unmapped and unknown are
    sorted element ids. Classifying puts every model element in exactly one of:
    has a fact, unmapped, unknown. A reviewed set keeps the classification's
    unmapped and unknown, so an element with every candidate rejected is in none.

    Each part is computed on its first read and kept. An element's facts come
    from its concept's plan, resolved once per concept name. unmapped,
    unknown, warnings and the definite holders of each concept come from one
    pass over the element ids grouped by concept name, where only a conditional
    plan evaluates its elements; facts is built from the same groups. A set
    built from explicit facts knows every element's facts from the start.
    """

    def __init__(
        self,
        model: EAModel,
        ruleset: Ruleset,
        facts: tuple[ClassificationFact, ...] | None = None,
        unmapped: tuple[str, ...] = (),
        unknown: tuple[str, ...] = (),
        warnings: tuple[str, ...] = (),
    ):
        self.model = model
        self.ruleset = ruleset
        # the facts of each element known so far: computed, given or reviewed
        self._known: dict[str, tuple[ClassificationFact, ...]] = {}
        if facts is None:
            return
        self._plan = lambda concept_name: None
        self.facts = facts
        self._grouped = ({}, {}, unmapped, unknown, warnings)
        for fact in facts:
            self._known[fact.element_id] = (*self._known.get(fact.element_id, ()), fact)

    unmapped = property(lambda self: self._grouped[2])
    unknown = property(lambda self: self._grouped[3])
    warnings = property(lambda self: self._grouped[4])
    _plan = cached_property(lambda self: cache(partial(_concept_plan, self.ruleset)))

    def facts_for(self, element_id: str) -> tuple[ClassificationFact, ...]:
        facts = self._known.get(element_id)
        if facts is None:
            element = self.model.elements.get(element_id)
            if element is None:
                return ()
            facts = self._known[element_id] = tuple(_facts(
                self._plan(element.concept_name), (element_id,), self.model.elements))
        return facts

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
    def facts(self) -> tuple[ClassificationFact, ...]:
        """Every fact by element id then row, built group by group, sorted once."""
        known, index = self._known, self.model.elements
        facts = [fact for group in known.values() for fact in group]
        for concept_name, ids in self._grouped[0].items():
            if known:
                ids = [element_id for element_id in ids if element_id not in known]
            facts += _facts(self._plan(concept_name), ids, index)
        facts.sort(key=itemgetter(0))  # stable: row order per element
        return tuple(facts)

    @cached_property
    def _grouped(self) -> tuple[dict[str, list[str]], dict[ISSRMConcept, set[str]],
                                tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """Element ids by concept name, the elements that definitely hold each
        concept by their plans, then unmapped, unknown and warnings."""
        groups: dict[str, list[str]] = defaultdict(list)
        index = self.model.elements
        for element_id, element in index.items():
            groups[element.concept_name].append(element_id)
        holders: dict[ISSRMConcept, set[str]] = {}
        unmapped: list[str] = []
        unknown: list[str] = []
        warnings: list[tuple[str, str]] = []
        for concept_name, ids in groups.items():
            plan = self._plan(concept_name)
            if plan is None:
                unknown.extend(ids)
                continue
            outcomes = ([(_steps(plan, index[i]), (i,)) for i in ids]
                        if plan.conditional else [(plan.steps, ids)])
            for steps, members in outcomes:
                if not steps:
                    unmapped.extend(members)
                for step in steps:
                    target, _, tier = step.fact[:3]
                    if tier is Tier.DEFINITE:
                        for concept in target_concepts(target):
                            holders.setdefault(concept, set()).update(members)
                    if step.warning:
                        warnings.extend((i, f"{i}: {step.warning}") for i in members)
        warnings.sort(key=lambda pair: pair[0])  # stable: row order per element
        return (groups, holders, tuple(sorted(unmapped)), tuple(sorted(unknown)),
                tuple(text for _, text in warnings))

    @cached_property
    def _definite_holders(self) -> dict[ISSRMConcept, frozenset[str]]:
        """The holders by plan, with each known element's facts in place of
        its plan's."""
        known = self._known
        holders = {concept: ids.difference(known)
                   for concept, ids in self._grouped[1].items()}
        for element_id, facts in known.items():
            for fact in facts:
                if fact.tier is Tier.DEFINITE:
                    for concept in target_concepts(fact.target):
                        holders.setdefault(concept, set()).add(element_id)
        return {concept: frozenset(ids) for concept, ids in holders.items()}


def classify_model(ruleset: Ruleset, model: EAModel) -> ClassificationSet:
    """Classify every element of a model against a matching-framework ruleset.

    The rules, tiers and warning texts are resolved once per distinct
    concept name; only a concept with a conditional rule evaluates the
    conditions against each element's attributes. Each part of the result
    is computed on its first read.
    """
    if ruleset.framework != model.framework:
        raise FrameworkMismatchError(
            f"model is {model.framework!r} but ruleset is {ruleset.framework!r}"
        )
    return ClassificationSet(model, ruleset)


class _Step(namedtuple("_Step", "condition fact warning")):
    """One target-naming rule of a concept, resolved for classification.

    condition: AttributeEquals | None;
    fact: tuple[TargetSpec, MappingType, Tier, str, int, bool], the fields
    after the id; warning: str, the warning text after "<element id>: ", or ""
    """

    __slots__ = ()


# steps: tuple[_Step, ...]; conditional: bool, some step has a condition to
# evaluate per element
_ConceptPlan = namedtuple("_ConceptPlan", "steps conditional")


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


def _facts(plan: _ConceptPlan | None, ids: list[str] | tuple[str, ...],
           index: Mapping[str, EAElement]) -> list[ClassificationFact]:
    """The facts of these ids' elements, which share a concept's plan, in table
    order per element; none without a plan. Only a conditional plan reads index."""
    if plan is None:
        return []
    new = tuple.__new__  # facts without their Python-level __new__
    if plan.conditional:
        return [new(ClassificationFact, (i, *step.fact))
                for i in ids for step in _steps(plan, index[i])]
    steps = plan.steps
    return [new(ClassificationFact, (i, *step.fact)) for i in ids for step in steps]


def _steps(plan: _ConceptPlan, element: EAElement) -> tuple[_Step, ...]:
    """The conditional plan's steps whose condition holds for the element."""
    attributes = element.attributes or {}
    return tuple(
        step
        for step in plan.steps
        if step.condition is None or step.condition.evaluate(attributes)
    )


# --- review overlays -----------------------------------------------------------


# element_id: str; concept: ISSRMConcept; verdict: str, "confirm" or
# "reject"; note: str = ""
ReviewEntry = namedtuple("ReviewEntry", "element_id concept verdict note", defaults=("",))
ReviewOverlay = namedtuple("ReviewOverlay", "entries")  # entries: tuple[ReviewEntry, ...]


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

    The new set keeps the edited fact groups as overrides and shares the
    rest with the classification: its plans and its grouped pass, which
    runs here if the classification has not run it yet.
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
    reviewed = ClassificationSet(classification.model, classification.ruleset)
    reviewed._plan, reviewed._grouped = classification._plan, classification._grouped
    reviewed._known = {**classification._known,
                       **{element_id: tuple(group) for element_id, group in edited.items()}}
    return reviewed


# --- reports ---------------------------------------------------------------------


# element_id, name, concept_name, reason: str
UnmappedEntry = namedtuple("UnmappedEntry", "element_id name concept_name reason")


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


def _fact_cells(facts: tuple[ClassificationFact, ...]) -> list[tuple[str, ...]]:
    """The target, mapping type, tier and provenance texts of each fact. Facts
    share few distinct cells, each rendered once, keyed by the fact's fields
    from target to row."""
    rendered: dict[tuple, tuple[str, ...]] = {}
    cells = []
    for fact in facts:
        key = fact[1:6]
        cell = rendered.get(key)
        if cell is None:
            cell = rendered[key] = (serialize_target(fact.target),
                                    str(fact.mapping_type), str(fact.tier),
                                    fact.provenance)
        cells.append(cell)
    return cells


def render_facts_records(classification: ClassificationSet) -> str:
    """Record-format report: F lines, then U lines, then X lines."""
    facts = classification.facts
    rows: list[tuple[str, ...]] = [
        ("F", fact.element_id, *cell) for fact, cell in zip(facts, _fact_cells(facts))
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
    for fact, (target, mapping, tier, provenance) in zip(facts, _fact_cells(facts)):
        suffix = ", confirmed" if fact.confirmed else ""
        lines.append(
            f"  {fact.element_id} ({index[fact.element_id].name}) -> "
            f"{target} [{mapping or 'unspecified'}, {tier}{suffix}] {provenance}"
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
