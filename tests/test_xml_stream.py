"""The streaming exchange-XML importer against the tree-walking reference.

Random models are written out with a random layout: default-namespaced,
plain or archimate:-prefixed tags, xsi:type or plain type attributes with
bare or prefixed tokens, sections in any order, one to three containers of
each kind with some nested inside another container or inside a record
node, label or name (or both, or neither), properties with empty keys,
"|", "\\" and line breaks in text. The streaming importer must give the
same model, element order, warnings, and error (type, message and line) as
oracles.import_archimate_tree, including on documents with several defects
and on documents whose DTD leaves entity references to the parser's handlers.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from xml.sax.saxutils import escape, quoteattr

import pytest

from riskalign.archimate_xml import ELEMENT_TOKENS, import_archimate
from riskalign.errors import InputError, ModelFormatError

from . import oracles

XSI = "http://www.w3.org/2001/XMLSchema-instance"
NS = "http://www.opengroup.org/xsd/archimate"
TOKENS = {concept: token for token, concept in ELEMENT_TOKENS.items()}
TEXT_NOISE = ["", "|", "\\", "\n  ", "&#13;&#10;", "&#13;", " a|b\\c "]


class Node:
    def __init__(self, tag: str, attrs: dict[str, str] | None = None, children=()):
        self.tag = tag
        self.attrs = dict(attrs or {})
        self.children = list(children)

    def render(self, rng: random.Random, prefix: str) -> str:
        attrs = "".join(f" {k}={quoteattr(v)}" for k, v in self.attrs.items())
        tag = prefix + self.tag
        if not self.children and rng.random() < 0.5:
            return f"<{tag}{attrs}/>"
        gap = rng.choice(["", "\n", "\n    "])
        inner = gap.join(
            c if isinstance(c, str) else c.render(rng, prefix) for c in self.children
        )
        return f"<{tag}{attrs}>{gap}{inner}{gap}</{tag}>"


def _text(rng: random.Random, base: str) -> str:
    return escape(base).replace(" ", rng.choice(TEXT_NOISE), 1) + rng.choice(TEXT_NOISE)


def _type_attr(rng: random.Random, token: str) -> dict[str, str]:
    token = rng.choice([token, f"archimate:{token}", f" {token} "])
    return {rng.choice(["xsi:type", "type"]): token}


def _element(rng: random.Random, element) -> Node:
    attrs = {rng.choice(["identifier", "id"]): element.id}
    attrs.update(_type_attr(rng, TOKENS.get(element.concept_name, "Wormhole")))
    children = []
    for tag in rng.sample(["name", "label", "documentation"], rng.randint(0, 3)):
        children.append(f"<{{p}}{tag}>{_text(rng, element.name)}</{{p}}{tag}>")
    keys = rng.sample(["zone", "owner", "", "", "k|1", "path\\x"], rng.randint(0, 4))
    if keys:
        props = [
            Node("property", {rng.choice(["key", "name"]): key,
                              "value": rng.choice(["dmz", "a|b", "c:\\d", "x\ny"])})
            for key in keys
        ]
        children.append(Node("properties", children=props))
    return Node("element", attrs, children)


def _relationship(rng: random.Random, rel) -> Node:
    token = rel.kind.title().replace(" ", "")
    token += rng.choice(["", "Relationship"])
    attrs = {"identifier": rel.id, **_type_attr(rng, token),
             "source": rel.source, "target": rel.target}
    children = [Node("name", children=["link"])] if rng.random() < 0.2 else []
    return Node("relationship", attrs, children)


def _split(rng: random.Random, items: list, parts: int) -> list[list]:
    cuts = sorted(rng.sample(range(len(items) + 1), parts - 1)) if items else []
    bounds = [0, *cuts, len(items)] if items else [0] * (parts + 1)
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def layout(rng: random.Random, model, defects: int = 0) -> str:
    """Exchange XML for model in a random layout, with up to `defects`
    random defects that the reference importer also rejects."""
    elements = [_element(rng, e) for e in model.elements.values()]
    relationships = [_relationship(rng, r) for r in model.relationships]
    containers = [
        Node("elements", children=part)
        for part in _split(rng, elements, rng.randint(1, 3))
    ] + [
        Node("relationships", children=part)
        for part in _split(rng, relationships, rng.randint(1, 3))
    ]
    rng.shuffle(containers)
    top = list(containers)
    for _ in range(rng.randint(1, 2)):
        if len(top) < 2:
            break
        inner, host = rng.sample(top, 2)
        top.remove(inner)
        records = [c for c in host.children if isinstance(c, Node) and c.tag in
                   ("element", "relationship")]
        where = rng.choice(["container", "wrapper", "record"])
        if where == "record" and records:
            rng.choice(records).children.append(inner)
        else:
            if where == "wrapper":
                inner = Node("folder", children=[inner])
            host.children.insert(rng.randint(0, len(host.children)), inner)
    # records without a type that the tree walk skips, because they are not
    # direct children of a container of their kind
    for tag in rng.sample(["element", "relationship", "folder"], rng.randint(0, 2)):
        stray = Node(tag.replace("folder", "element"), {"identifier": "stray"})
        hosts = [c for c in containers if c.tag != stray.tag + "s" or tag == "folder"]
        host = rng.choice(hosts)
        host.children.insert(rng.randint(0, len(host.children)),
                             Node("folder", children=[stray]) if tag == "folder" else stray)
    root = Node("model", {"identifier": "m"}, [f"<{{p}}name>{_text(rng, 'model')}</{{p}}name>"])
    root.children += top
    root.children.insert(rng.randint(1, len(root.children)),
                         Node("organizations", children=[Node("item", {"identifierRef": "e0"})]))
    records = elements + relationships
    for _ in range(defects):
        _defect(rng, root, records)
    style = rng.choice(["namespaced", "plain", "prefixed"])
    prefix = "archimate:" if style == "prefixed" else ""
    if style == "namespaced":
        root.attrs["xmlns"] = NS
    elif style == "prefixed":
        root.attrs["xmlns:archimate"] = NS
    root.attrs["xmlns:xsi"] = XSI
    text = root.render(rng, prefix).replace("{p}", prefix)
    if rng.random() < 0.5:
        text = '<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n"
    return text


def _defect(rng: random.Random, root: Node, records: list[Node]) -> None:
    kinds = ["no id", "no type", "line break", "dangling", "duplicate"]
    kind = rng.choice(kinds * 2 + ["root"] if records else ["root"])
    if kind == "root":
        root.tag = rng.choice(["folder", "elements", "element"])
        return
    node = rng.choice(records)
    id_attr = "identifier" if "identifier" in node.attrs else "id"
    if kind == "no id":
        node.attrs.pop(id_attr, None)
    elif kind == "no type":
        for attr in ("xsi:type", "type"):
            node.attrs.pop(attr, None)
    elif kind == "line break":
        attrs = [a for a in (id_attr, "source", "target") if a in node.attrs]
        if attrs:
            node.attrs[rng.choice(attrs)] += "\n"
    elif kind == "dangling" and node.tag == "relationship":
        node.attrs[rng.choice(["source", "target"])] = "ghost"
    else:
        twin = rng.choice([r for r in records if r.tag == node.tag])
        node.attrs[id_attr] = twin.attrs.get("identifier") or twin.attrs.get("id") or "x"


def outcome(importer, text: str):
    try:
        model = importer(text, "doc.xml")
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return model, list(model.elements), model.relationships, model.warnings, model.source


def random_text(seed: int, defects: int = 0) -> str:
    rng = random.Random(seed)
    model = oracles.random_model(rng, max_elements=25, framework="archimate21")
    return layout(rng, model, defects)


@pytest.mark.parametrize("seed", range(150))
def test_matches_the_tree_walk_on_random_layouts(seed):
    text = random_text(seed)
    got = outcome(import_archimate, text)
    assert got == outcome(oracles.import_archimate_tree, text)
    assert not isinstance(got[0], type)


@pytest.mark.parametrize("seed", range(1000, 1100))
def test_matches_the_tree_walk_on_defective_layouts(seed):
    rng = random.Random(seed)
    text = random_text(seed, defects=rng.randint(1, 3))
    if rng.random() < 0.3:  # and malformed XML somewhere
        cut = rng.randint(0, len(text))
        garbage = rng.choice(["<", "</x>", "&bogus;", "<a b='1' b='2'/>", "]]>"])
        text = text[:cut] + garbage + text[cut:]
    assert outcome(import_archimate, text) == outcome(oracles.import_archimate_tree, text)


HEAD = f'<model xmlns:xsi="{XSI}">'
MULTI_DEFECT = {
    "malformed XML after a missing identifier": (
        HEAD + '<elements><element xsi:type="Device"/></elements>\n'
        '<relationships><relationship identifier="r1" type="Flow" '
        'source="a" target="b"></relationships></model>'
    ),
    "a missing type before a dangling endpoint": (
        HEAD + '<elements><element identifier="a" type="Device"/></elements>'
        '<relationships><relationship identifier="r1" source="a" target="a"/>'
        '<relationship identifier="r2" type="Flow" source="a" target="ghost"/>'
        "</relationships></model>"
    ),
    "a non-model root that also has element errors": (
        '<folder><elements><element type="Device"/><element identifier="x"/>'
        "</elements></folder>"
    ),
    "an element error after a relationship error": (
        HEAD + '<relationships><relationship identifier="r1" source="a" '
        'target="a"/></relationships><elements><element identifier="a"/>'
        "</elements></model>"
    ),
    "an outer container's error before a nested container's": (
        HEAD + '<elements><elements><element identifier="inner"/></elements>'
        '<element xsi:type="Device"/></elements></model>'
    ),
    "an element error before a duplicate id": (
        HEAD + '<elements><element identifier="a" type="Device"/>'
        '<element identifier="a" type="Device"/><element identifier="b"/>'
        "</elements></model>"
    ),
    "an unclosed document": HEAD + "<elements>",
    "an empty document": "",
}


@pytest.mark.parametrize("name", sorted(MULTI_DEFECT))
def test_multi_defect_documents_report_what_the_tree_walk_reports(name):
    text = MULTI_DEFECT[name]
    got = outcome(import_archimate, text)
    assert got == outcome(oracles.import_archimate_tree, text)
    assert got[0] is ModelFormatError


def test_nested_containers_keep_the_tree_walk_order():
    text = (
        HEAD + '<elements><element identifier="a" type="Device">'
        '<elements><element identifier="b" type="Node"/></elements></element>'
        '<folder><elements><element identifier="c" type="Gadget"/></elements></folder>'
        '<element identifier="d" type="Widget"/></elements>'
        '<elements><element identifier="e" type="Device"/></elements></model>'
    )
    model = import_archimate(text)
    assert list(model.elements) == ["a", "d", "b", "c", "e"]
    assert model.warnings == (
        "unknown element type token 'Widget' on 'd'",
        "unknown element type token 'Gadget' on 'c'",
    )
    assert outcome(import_archimate, text) == outcome(oracles.import_archimate_tree, text)


def test_a_name_is_its_text_before_its_first_child():
    text = (
        HEAD + '<elements><element identifier="a" type="Device">'
        "<name>Box<![CDATA[ & ]]>Co<!-- a comment -->. <i>ignored</i> tail</name>"
        '<label>not read</label></element><element identifier="b" type="Node">'
        '<label>Rack <elements><element identifier="c" type="Device">'
        "<name> Inner </name></element></elements>after</label></element>"
        "</elements></model>"
    )
    model = import_archimate(text)
    assert [(e.id, e.name) for e in model.elements.values()] == [
        ("a", "Box & Co."), ("b", "Rack"), ("c", "Inner")
    ]
    assert outcome(import_archimate, text) == outcome(oracles.import_archimate_tree, text)


EXTERNAL_DTD = '<!DOCTYPE model SYSTEM "model.dtd">\n'
PARAMETER_ENTITY = '<!DOCTYPE model [\n<!ENTITY % pe "">\n%pe;\n]>\n'
LONG_NAME = "\u00e9" * 60  # 120 bytes in UTF-8, so the error text is cut
# (doctype, where the entity reference goes, the reference, an error or not).
# Where the parser cannot read all of a document's DTD, it leaves a reference
# to an entity it does not know, or to an external one, to its handlers, and
# ElementTree reports it as undefined; in an attribute value it is dropped.
DTD_CASES = {
    "external DTD, in a name": (EXTERNAL_DTD, "name", "&undef;", True),
    "external DTD, in an attribute value": (
        EXTERNAL_DTD, "attribute", "&undef;", False),
    "external DTD, outside any record": (EXTERNAL_DTD, "outside", "&undef;", True),
    "parameter entity, in a name": (PARAMETER_ENTITY, "name", "&undef;", True),
    "parameter entity, in an attribute value": (
        PARAMETER_ENTITY, "attribute", "&undef;", False),
    "parameter entity, outside any record": (
        PARAMETER_ENTITY, "outside", "&undef;", True),
    "undefined parameter entity, in a name": (
        "<!DOCTYPE model [ %pe; ]>\n", "name", "&undef;", True),
    "external DTD, a long name": (EXTERNAL_DTD, "name", f"&{LONG_NAME};", True),
    "standalone, external DTD": (  # the parser's own undefined entity error
        '<?xml version="1.0" standalone="yes"?>' + EXTERNAL_DTD, "name", "&undef;",
        True),
    "a declared external entity": (
        '<!DOCTYPE model [<!ENTITY ext SYSTEM "ext.xml">]>\n', "name", "&ext;", True),
    "an external entity inside an internal one": (
        '<!DOCTYPE model [<!ENTITY ext SYSTEM "ext.xml">\n<!ENTITY a "x&ext;">'
        '<!ENTITY b "&a;y">]>\n', "name", "&b;", True),
    "an internal entity, expanded": (
        '<!DOCTYPE model SYSTEM "model.dtd" [<!ENTITY co "&amp;Co">]>\n', "name",
        "&co;", False),
}


def dtd_document(doctype: str, where: str, entity: str) -> str:
    name = f"Box {entity}" if where == "name" else "Box"
    value = f"a{entity}b" if where == "attribute" else "ab"
    outside = entity if where == "outside" else ""
    return (
        doctype + HEAD + "<elements>\n"
        f'<element identifier="a" type="Device"><name>{name}</name><properties>'
        f'<property key="k" value="{value}"/></properties></element>\n'
        f"</elements>{outside}</model>"
    )


@pytest.mark.parametrize("case", sorted(DTD_CASES))
def test_dtd_documents_report_what_the_tree_walk_reports(case):
    doctype, where, entity, error = DTD_CASES[case]
    text = dtd_document(doctype, where, entity)
    got = outcome(import_archimate, text)
    assert got == outcome(oracles.import_archimate_tree, text)
    assert (got[0] is ModelFormatError) is error, got
    if where == "name" and not error:
        assert got[0].element("a").name == "Box &Co"


def _peak(importer, text: str) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        importer(text)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_well_below_the_whole_tree():
    rng = random.Random(8)
    model = oracles.random_model(rng, 8000, 8000, framework="archimate21")
    text = layout(random.Random(0), model)
    streamed = _peak(import_archimate, text)
    tree = _peak(oracles.import_archimate_tree, text)
    assert streamed <= 0.6 * tree, (streamed, tree)
