"""Alignment rules: how framework concepts map onto the ISSRM vocabulary.

A ruleset is an executable transcription of one framework-to-ISSRM alignment
table. Each rule keeps its table row index and the verbatim source label,
mapping type and running example, so reports can cite the exact line a
classification came from.

Text form, one rule per line after the header:

    RULESET|<framework id>|<version note>
    <source>|<section>|<target>|<mapping type>|<condition>|<example>

Target grammar: NONE, NONE:<reason>, @attributes, <Concept>,
<Concept>::<attr> ("*" stands for an unnamed attribute), or a composite
<Concept>+<Concept>. Mapping type is one of the six semantic relation names,
blank for an unspecified cell, or any other token kept verbatim as a
non-standard type. Condition is blank or <key>=<value>.
"""

from __future__ import annotations

from collections import namedtuple

from .concepts import ISSRMConcept, Vocabulary, parse_concept
from .eamodel import check_framework, normalize_name
from .errors import RulesetFormatError, UnknownFrameworkError
from . import recordio


class MappingKind(Vocabulary):
    EQUIVALENCE = "equivalence"
    GENERALISATION = "generalisation"
    SPECIALISATION = "specialisation"
    AGGREGATION = "aggregation"
    COMPOSITION = "composition"
    ASSOCIATION = "association"
    UNSPECIFIED = "unspecified"
    NON_STANDARD = "non-standard"


_STANDARD_KINDS = set(MappingKind) - {MappingKind.UNSPECIFIED, MappingKind.NON_STANDARD}


class MappingType(namedtuple("MappingType", "kind text", defaults=("",))):
    """A semantic mapping relation, read "source is a <kind> of target".

    kind is a MappingKind; text (str, default "") is set only for a
    non-standard type. Non-standard table tokens are carried verbatim in
    text; unspecified stands for a blank (or N/A) type cell. Both always
    warrant a transcription warning.
    """

    __slots__ = ()

    @property
    def is_standard(self) -> bool:
        return self.kind in _STANDARD_KINDS

    def __str__(self) -> str:
        if self.kind is MappingKind.NON_STANDARD:
            return self.text
        if self.kind is MappingKind.UNSPECIFIED:
            return ""
        return self.kind.value


EQUIVALENCE = MappingType(MappingKind.EQUIVALENCE)
GENERALISATION = MappingType(MappingKind.GENERALISATION)
SPECIALISATION = MappingType(MappingKind.SPECIALISATION)
AGGREGATION = MappingType(MappingKind.AGGREGATION)
COMPOSITION = MappingType(MappingKind.COMPOSITION)
ASSOCIATION = MappingType(MappingKind.ASSOCIATION)
UNSPECIFIED = MappingType(MappingKind.UNSPECIFIED)


def non_standard(text: str) -> MappingType:
    if not text:
        raise ValueError("non-standard mapping type needs its verbatim token")
    return MappingType(MappingKind.NON_STANDARD, text)


def parse_mapping_type(token: str) -> MappingType:
    token = token.strip()
    if not token or token.lower() == "n/a":
        return UNSPECIFIED
    lowered = token.lower()
    for kind in _STANDARD_KINDS:
        if lowered == kind.value:
            return MappingType(kind)
    return non_standard(token)


# --- target specifications ---------------------------------------------------


ConceptTarget = namedtuple("ConceptTarget", "concept")  # concept: ISSRMConcept


class AttributeTarget(namedtuple("AttributeTarget", "concept attribute")):
    """An attribute of a concept; attribute "*" means the cell named none.

    concept is an ISSRMConcept, attribute a str.
    """

    __slots__ = ()


# concepts: tuple[ISSRMConcept, ...]
CompositeTarget = namedtuple("CompositeTarget", "concepts")


class AnnotationTarget:
    """The table cell "attributes of the concepts" as a whole.

    A plain class, not an empty tuple, so it is truthy and equals only
    another AnnotationTarget.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is AnnotationTarget

    def __hash__(self) -> int:
        return hash(AnnotationTarget)

    def __repr__(self) -> str:
        return "AnnotationTarget()"


NoTarget = namedtuple("NoTarget", "reason", defaults=("",))  # reason: str


TargetSpec = ConceptTarget | AttributeTarget | CompositeTarget | AnnotationTarget | NoTarget


def target_concepts(target: TargetSpec) -> frozenset[ISSRMConcept]:
    """Concepts a target contributes facts for."""
    if isinstance(target, (ConceptTarget, AttributeTarget)):
        return frozenset({target.concept})
    if isinstance(target, CompositeTarget):
        return frozenset(target.concepts)
    return frozenset()


def parse_target(text: str) -> TargetSpec:
    text = text.strip()
    if not text:
        raise ValueError("empty target")
    if text == "NONE" or text.startswith("NONE:"):
        return NoTarget(text[5:].strip() if text.startswith("NONE:") else "")
    if text == "@attributes":
        return AnnotationTarget()
    if "::" in text:
        concept_token, _, attribute = text.partition("::")
        attribute = attribute.strip()
        if not attribute:
            raise ValueError(f"attribute target {text!r} names no attribute")
        concept = _rule_concept(concept_token)
        return AttributeTarget(concept, attribute)
    if "+" in text:
        concepts = tuple(_rule_concept(part) for part in text.split("+"))
        if len(set(concepts)) != len(concepts):
            raise ValueError(f"composite target {text!r} repeats a concept")
        return CompositeTarget(concepts)
    return ConceptTarget(_rule_concept(text))


def _rule_concept(token: str) -> ISSRMConcept:
    concept = parse_concept(token)
    if concept is ISSRMConcept.ATTRIBUTE_ANNOTATION:
        raise ValueError(
            "AttributeAnnotation is only reachable through the @attributes target"
        )
    return concept


def serialize_target(target: TargetSpec) -> str:
    if isinstance(target, NoTarget):
        return f"NONE:{target.reason}" if target.reason else "NONE"
    if isinstance(target, AnnotationTarget):
        return "@attributes"
    if isinstance(target, AttributeTarget):
        return f"{target.concept}::{target.attribute}"
    if isinstance(target, CompositeTarget):
        return "+".join(str(c) for c in target.concepts)
    return str(target.concept)


# --- conditions ---------------------------------------------------------------


class AttributeEquals(namedtuple("AttributeEquals", "key value")):
    """Predicate over element attributes: key and value are str.

    Values "true"/"false" are boolean-valued: a missing attribute counts as
    "false", and any value other than "true" is false.
    """

    __slots__ = ()

    def evaluate(self, attributes: dict[str, str]) -> bool:
        if self.value == "true":
            return attributes.get(self.key) == "true"
        if self.value == "false":
            return attributes.get(self.key) != "true"
        return attributes.get(self.key) == self.value

    def __str__(self) -> str:
        return f"{self.key}={self.value}"


def parse_condition(text: str) -> AttributeEquals | None:
    text = text.strip()
    if not text:
        return None
    key, sep, value = text.partition("=")
    if not sep or not key.strip() or not value.strip():
        raise ValueError(f"malformed condition {text!r}; expected key=value")
    key = key.strip()
    if any(char.isspace() for char in key):
        raise ValueError(f"malformed condition {text!r}; key {key!r} contains whitespace")
    return AttributeEquals(key, value.strip())


# --- rules and rulesets --------------------------------------------------------


# framework: str; row: int, the 1-based table row (multi-rule rows share the
# index); section: str; source: str, the normalized source concept label,
# verbatim otherwise; target: TargetSpec; mapping_type: MappingType;
# condition: AttributeEquals | None = None; example: str = ""
AlignmentRule = namedtuple(
    "AlignmentRule",
    "framework row section source target mapping_type condition example",
    defaults=(None, ""),
)


def transcription_warning(rule: AlignmentRule) -> str:
    """The warning for a rule's blank or non-standard mapping type cell, else ""."""
    where = f"{rule.framework} row {rule.row} ({rule.source})"
    if rule.mapping_type.kind is MappingKind.UNSPECIFIED:
        return f"{where} has a blank mapping type"
    if rule.mapping_type.kind is MappingKind.NON_STANDARD:
        return f"{where} uses non-standard mapping type {rule.mapping_type.text!r}"
    return ""


def source_synonyms(source: str) -> tuple[str, ...]:
    """Names under which a rule source is matched.

    The printed label is always included. Slash-separated alternatives are
    split; a single-word continuation inherits the head words of the first
    alternative ("application function/ interaction" also matches
    "application interaction"). An attached parenthetical is an alternation
    ("person(nel) role" matches "person role" and "personnel role"); a
    free-standing parenthetical is optional ("business tasks
    (specifications)" also matches "business tasks").
    """
    source = normalize_name(source)
    names: list[str] = [source]

    parts = [p.strip() for p in source.split("/") if p.strip()]
    head_words = parts[0].split() if parts else []
    for part in parts:
        expanded = part
        if len(part.split()) == 1 and len(head_words) > 1:
            expanded = " ".join(head_words[:-1] + [part])
        for variant in _parenthetical_variants(expanded):
            if variant and variant not in names:
                names.append(variant)
    return tuple(names)


def _is_word(text: str) -> bool:
    """Whether text is one or more of the regex word characters (Unicode \\w):
    those for which str.isalnum holds, and "_"."""
    return text.replace("_", "a").isalnum()


def _parenthetical_variants(name: str) -> list[str]:
    # str-method forms of the substitutions r"(\w+)\((\w+)\)" -> r"\1" and
    # r"\1\2" (made only where it matches) and r"\s*\([^()]*\)" -> " ". A "("
    # is attached when a word character precedes it and word characters then
    # ")" follow it; it opens a free-standing parenthetical when the next
    # parenthesis after it is ")". normalize_name takes up the blanks before
    # a free-standing one, which the pattern also removed.
    variants = [name]
    first, *pieces = name.split("(")
    dropped = joined = optional = first
    attached = False
    for before, piece in zip([first, *pieces], pieces):
        inner, close, rest = piece.partition(")")
        if close and _is_word(before[-1:]) and _is_word(inner):
            attached = True
            dropped += rest
            joined += inner + rest
        else:
            dropped += "(" + piece
            joined += "(" + piece
        optional += " " + rest if close else "(" + piece
    if attached:
        variants.append(normalize_name(dropped))
        variants.append(normalize_name(joined))
    variants.append(normalize_name(optional))
    return variants


class Ruleset:
    """An ordered set of alignment rules for one framework.

    Immutable once built. Transcription warnings cover every rule whose
    mapping type is unspecified or non-standard.
    """

    def __init__(self, framework: str, version_note: str,
                 rules: list[AlignmentRule] | tuple[AlignmentRule, ...]):
        self.framework = check_framework(framework)
        self.version_note = version_note
        self.rules = tuple(rules)
        seen: set[tuple[str, str, object]] = set()
        index: dict[str, list[AlignmentRule]] = {}
        for rule in self.rules:
            if rule.framework != framework:
                raise RulesetFormatError(
                    f"rule for {rule.framework!r} in a {framework!r} ruleset"
                )
            key = (rule.source, serialize_target(rule.target), rule.condition)
            if key in seen:
                raise RulesetFormatError(
                    f"duplicate rule for {rule.source!r} "
                    f"(target {serialize_target(rule.target)!r})"
                )
            seen.add(key)
            for name in source_synonyms(rule.source):
                index.setdefault(name, []).append(rule)
        self._index = index
        self.warnings = tuple(filter(None, map(transcription_warning, self.rules)))

    @property
    def row_count(self) -> int:
        return len({rule.row for rule in self.rules})

    def rules_for(self, concept_name: str) -> tuple[AlignmentRule, ...]:
        """All rules whose source matches a concept name, in table order."""
        return tuple(self._index.get(normalize_name(concept_name), ()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ruleset):
            return NotImplemented
        return (
            self.framework == other.framework
            and self.version_note == other.version_note
            and self.rules == other.rules
        )

    def __repr__(self) -> str:
        return f"Ruleset({self.framework!r}, {len(self.rules)} rules)"


def resolve_rules(
    ruleset: Ruleset, concept_name: str, attributes: dict[str, str] | None = None
) -> tuple[AlignmentRule, ...]:
    """Rules applicable to one element: source matches and condition holds."""
    attributes = attributes or {}
    return tuple(
        rule
        for rule in ruleset.rules_for(concept_name)
        if rule.condition is None or rule.condition.evaluate(attributes)
    )


def parse_ruleset(text: str) -> Ruleset:
    """Parse ruleset text. Errors carry 1-based line numbers."""
    records = recordio.iter_records(text)
    lineno, fields = next(records, (None, None))
    if fields is None:
        raise RulesetFormatError("empty ruleset text; RULESET record missing")
    if fields[0] != "RULESET" or len(fields) != 3:
        raise RulesetFormatError(
            "expected RULESET|<framework>|<note> as the first record", lineno
        )
    try:
        header = (check_framework(fields[1]), fields[2])
    except UnknownFrameworkError as exc:
        raise RulesetFormatError(str(exc), lineno) from None
    rules: list[AlignmentRule] = []
    row = 0
    previous_key: tuple[str, str] | None = None

    for lineno, fields in records:
        if len(fields) != 6:
            problem = f"rule line needs 6 fields, got {len(fields)}"
            if fields[0] == "RULESET":
                problem = "duplicate RULESET record"
            raise RulesetFormatError(problem, lineno)
        source_label, section, target_text, type_text, condition_text, example = fields
        source = normalize_name(source_label)
        if not source:
            raise RulesetFormatError("rule with empty source", lineno)
        try:
            target = parse_target(target_text)
            mapping_type = parse_mapping_type(type_text)
            condition = parse_condition(condition_text)
        except ValueError as exc:
            raise RulesetFormatError(str(exc), lineno) from None
        key = (source, section)
        if key != previous_key:
            row += 1
            previous_key = key
        rules.append(
            AlignmentRule(
                framework=header[0],
                row=row,
                section=section,
                source=source,
                target=target,
                mapping_type=mapping_type,
                condition=condition,
                example=example,
            )
        )

    return Ruleset(header[0], header[1], rules)


def serialize_ruleset(ruleset: Ruleset) -> str:
    """Serialize a ruleset; parse_ruleset(serialize_ruleset(rs)) == rs."""
    rows = [("RULESET", ruleset.framework, ruleset.version_note)]
    rows.extend(
        (
            rule.source,
            rule.section,
            serialize_target(rule.target),
            str(rule.mapping_type),
            str(rule.condition) if rule.condition else "",
            rule.example,
        )
        for rule in ruleset.rules
    )
    return recordio.join_records(rows)
