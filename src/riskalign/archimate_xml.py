"""Importer for ArchiMate model exchange XML.

Matching is namespace insensitive: only local names of tags matter, so
exports that vary the exchange-format namespace URI still load. Element and
relationship types are taken from the xsi:type (or plain type) attribute and
mapped to the normalized concept names used by the alignment rules; unknown
type tokens are kept, normalized, and reported as model warnings so they can
surface later as unknown-concept classifications.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections.abc import Iterator

from .eamodel import EAElement, EAModel, EARelationship, normalize_name
from .errors import ModelFormatError

_XSI_TYPE = "{http://www.w3.org/2001/XMLSchema-instance}type"
_SLICE = 1 << 16  # characters fed to the parser at a time
_CONTAINERS = {"elements": "element", "relationships": "relationship"}

# Exchange-format element tokens and the concept names the rules use.
ELEMENT_TOKENS: dict[str, str] = {
    "Value": "value",
    "Product": "product",
    "Contract": "contract",
    "BusinessObject": "business object",
    "Meaning": "meaning",
    "Representation": "representation",
    "BusinessService": "business service",
    "BusinessProcess": "business process",
    "BusinessFunction": "function",
    "BusinessInteraction": "interaction",
    "BusinessEvent": "business event",
    "BusinessInterface": "business interface",
    "BusinessRole": "business role",
    "BusinessCollaboration": "business collaboration",
    "Location": "location",
    "BusinessActor": "business actor",
    "DataObject": "data object",
    "ApplicationService": "application service",
    "ApplicationFunction": "application function",
    "ApplicationInteraction": "application interaction",
    "ApplicationInterface": "application interface",
    "ApplicationComponent": "application component",
    "ApplicationCollaboration": "application collaboration",
    "Artifact": "artifact",
    "InfrastructureService": "infrastructure service",
    "InfrastructureFunction": "infrastructure function",
    "InfrastructureInterface": "infrastructure interface",
    "Node": "node",
    "SystemSoftware": "system software",
    "Device": "device",
    "CommunicationPath": "communication path",
    "Network": "network",
    "Stakeholder": "stakeholder",
    "Driver": "driver",
    "Assessment": "assessment",
    "Goal": "goal",
    "Principle": "principle",
    "Requirement": "requirement",
    "Constraint": "constraint",
}


_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def _one_line(text: str) -> str:
    """Replace each line break with one space; model records are single-line."""
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _id_attr(node: ET.Element, name: str, alias: str = "") -> str:
    """The first non-empty id attribute of the two; ids cannot span lines."""
    value = node.get(name) or node.get(alias) or ""
    if "\n" in value or "\r" in value:
        raise ModelFormatError(f"{name} {value!r} contains a line break")
    return value


def _relationship_kind(token: str) -> str:
    if token.endswith("Relationship"):
        token = token[: -len("Relationship")]
    return normalize_name(_CAMEL.sub(" ", token))


def _record(
    node: ET.Element,
    record_tag: str,
    local: dict[str, str],
    kinds: dict[str, str],
    notes: dict[int, list[str]],
) -> EAElement | EARelationship:
    """The record of a closed element or relationship node. An element's
    warnings go to notes, under the id of its record."""
    rec_id = _id_attr(node, "identifier", "id")
    if not rec_id:
        raise ModelFormatError(f"{record_tag} without an identifier attribute")
    token = node.get(_XSI_TYPE) or node.get("type") or ""
    # some exports prefix the type with the archimate namespace alias
    token = token.rpartition(":")[2].strip()
    if not token:
        raise ModelFormatError(f"{record_tag} {rec_id!r} has no type")
    if record_tag == "relationship":
        src, dst = _id_attr(node, "source"), _id_attr(node, "target")
        if not (src and dst):
            end = "target" if src else "source"
            raise ModelFormatError(f"relationship {rec_id!r} has no {end}")
        kind = kinds.get(token) or kinds.setdefault(token, _relationship_kind(token))
        return EARelationship(rec_id, kind, src, dst)
    warnings: list[str] = []
    concept_name = ELEMENT_TOKENS.get(token)
    if concept_name is None:
        concept_name = normalize_name(token)
        warnings.append(f"unknown element type token {token!r} on {rec_id!r}")
    name: str | None = None
    attrs: dict[str, str] = {}
    for child in node:  # every child has closed, so its tag is in local
        part = local[child.tag]
        if name is None and part in ("name", "label"):
            name = _one_line((child.text or "").strip())
        for prop in child if part == "properties" else ():
            if local[prop.tag] == "property":
                key = _one_line(prop.get("key") or prop.get("name") or "")
                if key and key in attrs:
                    warnings.append(f"element {rec_id!r} repeats property key "
                                    f"{key!r}; the last value is kept")
                attrs[key] = _one_line(prop.get("value") or "")
    attrs.pop("", None)
    record = EAElement(rec_id, concept_name, name or "", attrs)
    if warnings:
        notes[id(record)] = warnings
    return record


def _end_events(text: str) -> Iterator[tuple[str, ET.Element]]:
    """Feed text to a pull parser in slices; yield each node as it closes."""
    parser = ET.XMLPullParser(("end",))
    for start in range(0, len(text), _SLICE):
        try:
            parser.feed(text[start : start + _SLICE])
        except UnicodeEncodeError as exc:  # a lone surrogate in a str
            raise ModelFormatError(
                f"not encodable as UTF-8 at character offset {start + exc.start}"
            ) from None
        yield from parser.read_events()
    parser.close()
    yield from parser.read_events()


def import_archimate(data: str | bytes, source: str = "") -> EAModel:
    """Parse exchange-format XML into an EAModel tagged archimate21.

    One pass builds each element and relationship as its node closes, then
    clears the node; a container keeps its children's records when it
    closes, then detaches them. Records follow the pre-order of their
    containers, as a walk of the whole tree would. Errors wait for the end
    of the parse and come in this order: malformed XML, a root other than
    <model>, the first bad element, the first bad relationship.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(
                f"not valid UTF-8 at byte offset {exc.start}"
            ) from None
    local: dict[str, str] = {}  # tag -> local name
    kinds: dict[str, str] = {}  # relationship type token -> kind
    notes: dict[int, list[str]] = {}  # id of an element record -> warnings
    # record tag -> closed node -> its record, or the error it raises
    pending: dict[str, dict] = {"element": {}, "relationship": {}}
    blocks: list[tuple[str, list]] = []  # (record tag, kept records), pre-order
    # closed node -> index of the first block kept inside it, which is where
    # the block of a container around it goes
    starts: dict[ET.Element, int] = {}
    try:
        for _, node in _end_events(data):
            tag = node.tag
            name = local.get(tag) or local.setdefault(tag, tag.rpartition("}")[2])
            record_tag = _CONTAINERS.get(name)
            if record_tag is None and name not in pending:
                continue
            inside = ()
            if starts and len(node):
                inside = [starts.pop(sub) for sub in node.iter() if sub in starts]
            start = min(inside) if inside else len(blocks)
            if record_tag:
                closed = pending[record_tag]
                kept = [closed.pop(child) for child in node if child in closed]
                blocks.insert(start, (record_tag, kept))
                del node[:]
            else:
                try:
                    pending[name][node] = _record(node, name, local, kinds, notes)
                except ModelFormatError as exc:
                    pending[name][node] = exc
                node.clear()
            if record_tag or inside:
                starts[node] = start
    except ET.ParseError as exc:
        line, column = exc.position
        raise ModelFormatError(
            f"not well-formed XML at column {column}: {exc.msg.split(':')[0]}", line
        ) from None
    if name != "model":
        raise ModelFormatError(f"expected a <model> document, got <{name}>")
    records: dict[str, list] = {"element": [], "relationship": []}
    for record_tag, kept in blocks:
        records[record_tag] += kept
    elements, relationships = records["element"], records["relationship"]
    for record in elements + relationships:
        if isinstance(record, ModelFormatError):
            raise record
    warnings = [w for element in elements for w in notes.get(id(element), ())]
    return EAModel(
        "archimate21", elements, relationships, source=source, warnings=warnings
    )
