"""Enterprise architecture models and their tabular text format.

An EAModel is a framework-tagged set of elements plus typed relationships.
Element concept names are stored normalized (lowercase, single spaces) so
they can be matched against alignment rule sources directly.

The tabular format is line oriented:

    FRAMEWORK|<framework id>
    E|<id>|<concept name>|<display name>|<k=v;k=v attributes>
    R|<id>|<relationship kind>|<source id>|<target id>

"#" starts a comment line; "\\|" escapes a pipe inside a field. Parsing the
export of a model yields an equal model.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    DuplicateIdError,
    ModelFormatError,
    ModelStructureError,
    UnknownElementError,
    UnknownFrameworkError,
)
from . import recordio

FRAMEWORKS = ("archimate21", "togaf91", "dodaf202", "iaf")


def check_framework(framework: str) -> str:
    """Return a supported framework id; raise UnknownFrameworkError otherwise."""
    if framework not in FRAMEWORKS:
        raise UnknownFrameworkError(
            f"unknown framework {framework!r}; expected one of "
            + ", ".join(FRAMEWORKS)
        )
    return framework


def normalize_name(name: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(name.split()).lower()


class _ElementFields(NamedTuple):
    id: str
    concept_name: str  # normalized framework concept, e.g. "business process"
    name: str
    attributes: dict[str, str]


class EAElement(_ElementFields):
    """A model element; each one built without attributes gets its own dict."""

    __slots__ = ()

    def __new__(
        cls, id: str, concept_name: str, name: str = "", attributes: dict[str, str] | None = None
    ) -> EAElement:
        attributes = {} if attributes is None else attributes
        return super().__new__(cls, id, concept_name, name, attributes)


class EARelationship(NamedTuple):
    id: str
    kind: str  # normalized framework relationship name, e.g. "assignment"
    source: str
    target: str


class EAModel:
    """Immutable architecture model.

    Ids are unique per element set and per relationship set, and every
    relationship endpoint must exist; breaches raise at construction.
    parse_tabular checks these with line numbers as it reads, so it builds
    its model through _checked, which does not check them again.
    Equality ignores the source description and importer warnings.
    """

    def __init__(
        self,
        framework: str,
        elements: list[EAElement] | tuple[EAElement, ...] = (),
        relationships: list[EARelationship] | tuple[EARelationship, ...] = (),
        source: str = "",
        warnings: list[str] | tuple[str, ...] = (),
    ):
        self.framework = check_framework(framework)
        self.source = source
        self.warnings = tuple(warnings)
        self._elements: dict[str, EAElement] = {}
        for elem in elements:
            if elem.id in self._elements:
                raise DuplicateIdError(f"duplicate element id {elem.id!r}")
            self._elements[elem.id] = elem
        rel_ids: set[str] = set()
        for rel in relationships:
            if rel.id in rel_ids:
                raise DuplicateIdError(f"duplicate relationship id {rel.id!r}")
            rel_ids.add(rel.id)
            for endpoint in (rel.source, rel.target):
                if endpoint not in self._elements:
                    raise ModelStructureError(
                        f"relationship {rel.id!r} references unknown endpoint {endpoint!r}"
                    )
        self.relationships = tuple(relationships)

    @classmethod
    def _checked(
        cls,
        framework: str,
        elements: dict[str, EAElement],
        relationships: tuple[EARelationship, ...],
        source: str,
    ) -> EAModel:
        """A model from parts its parser has already checked: a supported
        framework, an element index with unique ids, unique relationship ids
        and endpoints that exist."""
        model = cls.__new__(cls)
        model.framework = framework
        model.source = source
        model.warnings = ()
        model._elements = elements
        model.relationships = relationships
        return model

    @property
    def elements(self) -> MappingProxyType[str, EAElement]:
        """A read-only view of the element index, in insertion order."""
        return MappingProxyType(self._elements)

    def element(self, element_id: str) -> EAElement:
        try:
            return self._elements[element_id]
        except KeyError:
            raise UnknownElementError(f"unknown element id {element_id!r}") from None

    def __contains__(self, element_id: str) -> bool:
        return element_id in self._elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EAModel):
            return NotImplemented
        return (
            self.framework == other.framework
            and self._elements == other._elements
            and self.relationships == other.relationships
        )

    def __repr__(self) -> str:
        return (
            f"EAModel({self.framework!r}, {len(self._elements)} elements, "
            f"{len(self.relationships)} relationships)"
        )


def neighbors(
    model: EAModel, element_id: str, direction: str = "both"
) -> list[tuple[EARelationship, EAElement]]:
    """List (relationship, other endpoint) pairs touching an element.

    direction is "outgoing", "incoming" or "both"; results follow
    relationship id order and a relationship appears at most once.
    """
    if direction not in ("outgoing", "incoming", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    model.element(element_id)  # raises for unknown ids
    out: list[tuple[EARelationship, EAElement]] = []
    for rel in sorted(model.relationships, key=lambda r: r.id):
        if direction in ("outgoing", "both") and rel.source == element_id:
            out.append((rel, model.element(rel.target)))
        elif direction in ("incoming", "both") and rel.target == element_id:
            out.append((rel, model.element(rel.source)))
    return out


def render_neighbors_text(
    element_id: str, pairs: list[tuple[EARelationship, EAElement]]
) -> str:
    lines = [f"neighbors of {element_id}: {len(pairs)}"]
    lines.extend(
        f"  {rel.id} {rel.kind} {rel.source} -> {rel.target} (other: {other.id})"
        for rel, other in pairs
    )
    return "\n".join(lines) + "\n"


def render_neighbors_records(pairs: list[tuple[EARelationship, EAElement]]) -> str:
    return recordio.join_records(
        ("N", rel.id, rel.kind, rel.source, rel.target, other.id) for rel, other in pairs
    )


def parse_tabular(text: str, source: str = "") -> EAModel:
    """Parse the tabular model format. Errors carry 1-based line numbers.

    Each distinct concept and relationship token is normalized once, and
    ids and endpoints are checked here, once, as the element index is built.
    """
    framework: str | None = None
    elements: dict[str, EAElement] = {}
    relationships: list[EARelationship] = []
    rel_ids: set[str] = set()
    normalized: dict[str, str] = {}
    new = tuple.__new__  # records from checked fields, without their Python-level __new__

    for lineno, fields in recordio.iter_records(text):
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
            if elem_id in elements:
                raise ModelFormatError(f"duplicate element id {elem_id!r}", lineno)
            concept = normalized.get(concept_name)
            if concept is None:
                concept = normalized[concept_name] = normalize_name(concept_name)
            # field unescaping strips one level, leaving attr escapes intact
            attrs = recordio.parse_attrs(attr_field, lineno)
            elements[elem_id] = new(EAElement, (elem_id, concept, name, attrs))
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
                if endpoint not in elements:
                    raise ModelFormatError(
                        f"unknown endpoint {endpoint!r}", lineno
                    )
            norm_kind = normalized.get(kind)
            if norm_kind is None:
                norm_kind = normalized[kind] = normalize_name(kind)
            relationships.append(new(EARelationship, (rel_id, norm_kind, src, dst)))
        elif tag == "FRAMEWORK":
            raise ModelFormatError("duplicate FRAMEWORK record", lineno)
        else:
            raise ModelFormatError(f"unknown record tag {tag!r}", lineno)

    if framework is None:
        raise ModelFormatError("empty model text; FRAMEWORK record missing")
    return EAModel._checked(framework, elements, tuple(relationships), source)


def export_tabular(model: EAModel) -> str:
    """Serialize a model to the tabular format, elements before relationships."""
    rows = [("FRAMEWORK", model.framework)]
    rows.extend(
        ("E", elem.id, elem.concept_name, elem.name, recordio.format_attrs(elem.attributes))
        for elem in model.elements.values()
    )
    rows.extend(
        ("R", rel.id, rel.kind, rel.source, rel.target) for rel in model.relationships
    )
    return recordio.join_records(rows)
