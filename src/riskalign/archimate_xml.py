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

from .eamodel import EAElement, EAModel, EARelationship, normalize_name
from .errors import ModelFormatError

_XSI_TYPE = "{http://www.w3.org/2001/XMLSchema-instance}type"

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


def import_archimate(data: str | bytes, source: str = "") -> EAModel:
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
