"""Importer for ArchiMate model exchange XML.

Matching is namespace insensitive: only local names of tags matter, so
exports that vary the exchange-format namespace URI still load. Element and
relationship types are taken from the xsi:type (or plain type) attribute and
mapped to the normalized concept names used by the alignment rules; unknown
type tokens are kept, normalized, and reported as model warnings so they can
surface later as unknown-concept classifications.

Expat handlers read the text in one pass without a node tree: a record is
built from its start tag, an element's name and properties from its children.
A record with one-line ids and a known type skips the checks; every other
record goes through _id_and_token and _relationship, which decide each error.
"""

from __future__ import annotations

from pyexpat import ErrorString, ExpatError, ParserCreate

from .eamodel import EAElement, EAModel, EARelationship, normalize_name
from .errors import ModelFormatError

_XSI_TYPE = "http://www.w3.org/2001/XMLSchema-instance}type"
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


# ASCII only, as the camel-case pattern (?<=[a-z0-9])(?=[A-Z]) is
_CAPITALS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER_OR_DIGIT = "abcdefghijklmnopqrstuvwxyz0123456789"

# One (role, owner) frame per open node. A container's role is its record tag
# and a kept element's properties have the role "property": a child with that
# local name is read. The other two roles match no local name.
_ELEMENT = "<element>"  # a kept element: its first name and properties are read
_NAME = "<name>"  # a kept element's first name: its text is read
_SKIP = ("", None)  # a node whose children are not read


def _one_line(text: str) -> str:
    """Replace each line break with one space; model records are single-line."""
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _id_and_token(attrs: dict[str, str], record_tag: str) -> tuple[str, str]:
    """A record's id and type token, read from its start tag's attributes."""
    rec_id = attrs.get("identifier") or attrs.get("id") or ""
    if not rec_id or "\n" in rec_id or "\r" in rec_id:  # ids cannot span lines
        raise ModelFormatError(f"identifier {rec_id!r} contains a line break" if rec_id
                               else f"{record_tag} without an identifier attribute")
    token = attrs.get(_XSI_TYPE) or attrs.get("type") or ""
    # some exports prefix the type with the archimate namespace alias
    token = token.rpartition(":")[2].strip()
    if not token:
        raise ModelFormatError(f"{record_tag} {rec_id!r} has no type")
    return rec_id, token


def _camel_words(token: str) -> str:
    """token with a blank before each capital that follows a lowercase letter
    or a digit, as substituting " " for the camel-case pattern gives."""
    return "".join(" " + char if char in _CAPITALS and before in _LOWER_OR_DIGIT
                   else char for before, char in zip(" " + token, token))


def _relationship(attrs: dict[str, str], kinds: dict[str, str]) -> EARelationship:
    """A relationship from its start tag's attributes; kinds caches the kind of
    each raw type value that has built a record."""
    rec_id, token = _id_and_token(attrs, "relationship")
    src, dst = attrs.get("source") or "", attrs.get("target") or ""
    if not (src and dst) or "\n" in src + dst or "\r" in src + dst:
        for end, value in (("source", src), ("target", dst)):
            if "\n" in value or "\r" in value:
                raise ModelFormatError(f"{end} {value!r} contains a line break")
        end = "target" if src else "source"
        raise ModelFormatError(f"relationship {rec_id!r} has no {end}")
    raw = attrs.get(_XSI_TYPE) or attrs.get("type")
    kind = kinds.get(raw) or kinds.setdefault(
        raw, normalize_name(_camel_words(token.removesuffix("Relationship"))))
    return tuple.__new__(EARelationship, (rec_id, kind, src, dst))


def import_archimate(data: str | bytes, source: str = "") -> EAModel:
    """Parse exchange-format XML into an EAModel tagged archimate21.

    Records follow the pre-order of their containers, as a walk of the whole
    tree would. Errors wait for the end of the parse and come in this order:
    malformed XML, a root other than <model>, the first bad element, the
    first bad relationship.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(
                f"not valid UTF-8 at byte offset {exc.start}"
            ) from None
    parser = ParserCreate(None, "}")
    local: dict[str, str] = {}  # tag -> local name; the root's comes first
    kinds: dict[str, str] = {}  # relationship raw type value -> kind
    # (record tag, entries), one per container from its start tag, so in
    # pre-order; entries are records, their errors and an element's warnings
    blocks: list[tuple[str, list]] = []
    frames: list[tuple] = [_SKIP]
    external: set[str] = set()  # external entity names, undefined to ElementTree

    def start(tag: str, attrs: dict[str, str]) -> None:
        name = local.get(tag) or local.setdefault(tag, tag.rpartition("}")[2])
        role, owner = frames[-1]
        frames.append(_SKIP)
        if role is _NAME:  # its first child ends a name's text
            parser.CharacterDataHandler = None
        if name in _CONTAINERS:
            frames[-1] = (_CONTAINERS[name], [])
            blocks.append(frames[-1])
        elif name == role == "property":  # of a kept element
            rec_id, _, _, props, block = owner
            key = _one_line(attrs.get("key") or attrs.get("name") or "")
            if key in props:
                block.append(f"element {rec_id!r} repeats property key {key!r}; "
                             "the last value is kept")
            if key:
                props[key] = _one_line(attrs.get("value") or "")
        elif name == role:  # a record in its container
            try:  # one-line ids and a known type skip the checks
                if role == "relationship":
                    rec_id, src = attrs.get("identifier"), attrs.get("source")
                    dst, kind = attrs.get("target"), kinds.get(attrs.get(_XSI_TYPE))
                    if (kind and rec_id and src and dst and "\n" not in (
                            ids := rec_id + src + dst) and "\r" not in ids):
                        record = rec_id, kind, src, dst
                        owner.append(tuple.__new__(EARelationship, record))
                    else:
                        owner.append(_relationship(attrs, kinds))
                    return
                rec_id = attrs.get("identifier")
                concept_name = ELEMENT_TOKENS.get(attrs.get(_XSI_TYPE))
                if not (rec_id and concept_name) or "\n" in rec_id or "\r" in rec_id:
                    rec_id, token = _id_and_token(attrs, "element")
                    concept_name = ELEMENT_TOKENS.get(token)
                    if concept_name is None:
                        concept_name = normalize_name(token)
                        owner.append(f"unknown element type token {token!r} "
                                     f"on {rec_id!r}")
                frames[-1] = (_ELEMENT, [rec_id, concept_name, None, {}, owner])
            except ModelFormatError as exc:
                owner.append(exc)
        elif role is _ELEMENT and name == "properties":
            frames[-1] = ("property", owner)
        elif role is _ELEMENT and name in ("name", "label") and owner[2] is None:
            owner[2] = text = []
            parser.CharacterDataHandler = text.append
            frames[-1] = (_NAME, owner)

    def end(tag: str) -> None:
        role, owner = frames.pop()
        if role is _ELEMENT:
            rec_id, concept_name, name, attrs, block = owner
            record = rec_id, concept_name, name or "", attrs
            block.append(tuple.__new__(EAElement, record))
        elif role is _NAME:
            parser.CharacterDataHandler = None
            owner[2] = _one_line("".join(owner[2]).strip())

    def undefined(name: str) -> None:  # ElementTree's text, cut at 117 bytes
        text = f"undefined entity &{name};".encode()[:117].decode(errors="replace")
        at = f"not well-formed XML at column {parser.CurrentColumnNumber}"
        raise ModelFormatError(f"{at}: {text}", parser.CurrentLineNumber)

    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.SkippedEntityHandler = lambda name, parameter: parameter or undefined(name)
    parser.EntityDeclHandler = lambda name, parameter, value, *_: (
        value is None and not parameter and external.add(name))
    parser.ExternalEntityRefHandler = lambda context, *_: undefined(
        next(name for name in context.split("\f") if name in external))
    try:
        for at in range(0, len(data), _SLICE):
            parser.Parse(data[at : at + _SLICE], False)
        parser.Parse("", True)
    except UnicodeEncodeError as exc:  # a lone surrogate in a str
        raise ModelFormatError(
            f"not encodable as UTF-8 at character offset {at + exc.start}"
        ) from None
    except ExpatError as exc:
        raise ModelFormatError(f"not well-formed XML at column {exc.offset}: "
                               f"{ErrorString(exc.code)}", exc.lineno) from None
    root = next(iter(local.values()))
    if root != "model":
        raise ModelFormatError(f"expected a <model> document, got <{root}>")
    elements = [entry for tag, kept in blocks if tag == "element" for entry in kept]
    relationships = [rel for tag, kept in blocks if tag != "element" for rel in kept]
    for entry in elements + relationships:
        if isinstance(entry, ModelFormatError):
            raise entry
    return EAModel("archimate21", [e for e in elements if type(e) is EAElement],
                   relationships, source=source,
                   warnings=[e for e in elements if type(e) is str])
