import random
import re
from pathlib import Path

import pytest

from riskalign.archimate_xml import (
    _SLICE, _XSI_TYPE, ELEMENT_TOKENS, _relationship, import_archimate,
)
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import classify_model
from riskalign.eamodel import export_tabular, parse_tabular
from riskalign.errors import InputError, ModelFormatError

LAB_XML = (Path(__file__).parent / "fixtures" / "lab_model.xml").read_text()


def test_lab_fixture_imports(lab_model):
    assert lab_model.framework == "archimate21"
    assert len(lab_model.elements) == 29
    assert len(lab_model.relationships) == 29
    assert lab_model.warnings == ()


def test_lab_fixture_element_details(lab_model):
    tablet = lab_model.element("dev-tablet")
    assert tablet.concept_name == "device"
    assert tablet.name == "Tablet"
    serving = next(r for r in lab_model.relationships if r.id == "r-06")
    assert serving.kind == "serving"
    assert serving.source == "dev-tablet"
    assert serving.target == "as-prescription-input"


MINIMAL = """\
<model xmlns="urn:example" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <elements>
    <element identifier="a" xsi:type="Device"><name>Box</name></element>
    <element identifier="b" xsi:type="BusinessService"/>
  </elements>
  <relationships>
    <relationship identifier="r1" xsi:type="RealizationRelationship" source="a" target="b"/>
  </relationships>
</model>
"""


def test_namespace_is_ignored():
    m = import_archimate(MINIMAL)
    assert m.element("a").concept_name == "device"


def test_missing_name_becomes_empty():
    m = import_archimate(MINIMAL)
    assert m.element("b").name == ""


def test_relationship_suffix_stripped_and_camel_split():
    m = import_archimate(MINIMAL)
    assert m.relationships[0].kind == "realization"
    m2 = import_archimate(MINIMAL.replace("RealizationRelationship", "UsedBy"))
    assert m2.relationships[0].kind == "used by"


def test_unknown_type_token_warns_but_loads():
    text = MINIMAL.replace('xsi:type="Device"', 'xsi:type="GridComputer"')
    m = import_archimate(text)
    assert m.element("a").concept_name == "gridcomputer"
    assert any("GridComputer" in w for w in m.warnings)


def test_prefixed_type_token():
    text = MINIMAL.replace('xsi:type="Device"', 'xsi:type="archimate:Device"')
    assert import_archimate(text).element("a").concept_name == "device"


def test_properties_become_attributes():
    text = MINIMAL.replace(
        "<name>Box</name>",
        "<name>Box</name><properties>"
        '<property key="carries_information" value="true"/>'
        '<property name="zone" value="dmz"/>'
        "</properties>",
    )
    attrs = import_archimate(text).element("a").attributes
    assert attrs == {"carries_information": "true", "zone": "dmz"}


def test_line_breaks_in_names_and_properties_become_spaces():
    text = MINIMAL.replace(
        "<name>Box</name>",
        "<name>\n  Big\n  box&#13;&#10;on&#13;a|shelf\n</name><properties>"
        '<property key="zone&#10;name" value="d&#13;m\tz"/>'
        "</properties>",
    )
    element = import_archimate(text).element("a")
    assert element.name == "Big   box on a|shelf"
    assert element.attributes == {"zone name": "d m z"}


@pytest.mark.parametrize("attribute", ["identifier", "source", "target"])
def test_line_break_in_an_id_attribute_rejected(attribute):
    old = {
        "identifier": 'identifier="r1"',
        "source": 'source="a"',
        "target": 'target="b"',
    }
    value = old[attribute].replace('="', '="x&#10;')
    with pytest.raises(ModelFormatError, match="contains a line break"):
        import_archimate(MINIMAL.replace(old[attribute], value))


def test_tabular_round_trip_classifies_like_the_xml(fixtures_dir):
    text = (fixtures_dir / "lab_model.xml").read_text()
    text = text.replace("<name>Tablet</name>", "<name>Tab\n  let</name>")
    xml_model = import_archimate(text)
    tab_model = parse_tabular(export_tabular(xml_model))
    ruleset = builtin_ruleset("archimate21")
    direct = classify_model(ruleset, xml_model)
    via_tabular = classify_model(ruleset, tab_model)
    assert tab_model.element("dev-tablet").name == "Tab   let"
    assert via_tabular.facts == direct.facts
    assert via_tabular.unmapped == direct.unmapped
    assert via_tabular.unknown == direct.unknown


def test_bytes_input_accepted():
    m = import_archimate(MINIMAL.encode("utf-8"))
    assert len(m.elements) == 2


def test_malformed_xml_reports_position():
    with pytest.raises(ModelFormatError) as exc:
        import_archimate("<model>\n  <elements>\n</model>")
    assert exc.value.line == 3


def test_non_model_root_rejected():
    with pytest.raises(ModelFormatError):
        import_archimate("<folder/>")


def test_element_without_identifier_rejected():
    with pytest.raises(ModelFormatError):
        import_archimate(
            '<model><elements><element xsi:type="Device" '
            'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"/></elements></model>'
        )


def test_element_without_type_rejected():
    with pytest.raises(ModelFormatError):
        import_archimate('<model><elements><element identifier="a"/></elements></model>')


@pytest.mark.parametrize("end", ["source", "target"])
@pytest.mark.parametrize("missing", ["absent", "empty"])
def test_relationship_without_an_endpoint_rejected(end, missing):
    value = {"source": 'source="a"', "target": 'target="b"'}[end]
    text = MINIMAL.replace(value, "" if missing == "absent" else f'{end}=""')
    with pytest.raises(ModelFormatError, match=f"^relationship 'r1' has no {end}$"):
        import_archimate(text)


def relationships_doc(*relationships: str) -> str:
    """MINIMAL with these relationship start tags in place of its one."""
    old = MINIMAL[MINIMAL.index("<relationship ") : MINIMAL.index("\n  </relationships>")]
    return MINIMAL.replace(old, "".join(relationships))


FLOW = '<relationship identifier="{}" xsi:type="Flow" source="a" target="b"/>'


@pytest.mark.parametrize("attribute", ["identifier", "source", "target"])
@pytest.mark.parametrize("line_break", ["&#10;", "&#13;"])
def test_a_line_break_is_rejected_after_its_type_is_known(attribute, line_break):
    # the first Flow relationship makes the type known; the second still has
    # every id checked for a line break
    second = FLOW.format("r2").replace(f'{attribute}="', f'{attribute}="x{line_break}')
    value = {"identifier": "r2", "source": "a", "target": "b"}[attribute]
    shown = repr("x" + {"&#10;": "\n", "&#13;": "\r"}[line_break] + value)
    with pytest.raises(ModelFormatError) as exc:
        import_archimate(relationships_doc(FLOW.format("r1"), second))
    assert str(exc.value) == f"{attribute} {shown} contains a line break"


@pytest.mark.parametrize("end", ["source", "target"])
def test_a_relationship_without_an_endpoint_is_rejected_after_its_type_is_known(end):
    value = {"source": 'source="a"', "target": 'target="b"'}[end]
    second = FLOW.format("r2").replace(value, f'{end}=""')
    with pytest.raises(ModelFormatError, match=f"^relationship 'r2' has no {end}$"):
        import_archimate(relationships_doc(FLOW.format("r1"), second))


def test_an_empty_identifier_falls_back_to_id_after_the_type_is_known():
    second = FLOW.format("").replace('identifier=""', 'identifier="" id="r2"')
    m = import_archimate(relationships_doc(FLOW.format("r1"), second))
    assert [rel.id for rel in m.relationships] == ["r1", "r2"]


def test_a_rejected_relationship_leaves_its_type_uncached():
    no_source = FLOW.format("r1").replace('source="a" ', "")
    bad_target = FLOW.format("r3").replace('target="b"', 'target="b&#13;"')
    with pytest.raises(ModelFormatError, match="^relationship 'r1' has no source$"):
        import_archimate(relationships_doc(no_source, FLOW.format("r2"), bad_target))
    with pytest.raises(ModelFormatError, match=r"^target 'b\\r' contains a line break$"):
        import_archimate(relationships_doc(FLOW.format("r2"), bad_target, no_source))
    kinds: dict[str, str] = {}
    attrs = {"identifier": "r1", _XSI_TYPE: "Flow", "target": "b"}
    with pytest.raises(ModelFormatError):
        _relationship(attrs, kinds)
    assert kinds == {}
    assert _relationship({**attrs, "source": "a"}, kinds) == ("r1", "flow", "a", "b")
    assert kinds == {"Flow": "flow"}


def test_every_spelling_of_a_type_gives_its_kind():
    spellings = ["Flow", "archimate:Flow", " Flow ", "FlowRelationship"] * 2
    m = import_archimate(relationships_doc(*(
        FLOW.format(f"r{i}").replace('"Flow"', f'"{spelling}"')
        for i, spelling in enumerate(spellings)
    )))
    assert [rel.kind for rel in m.relationships] == ["flow"] * len(spellings)


def test_an_element_with_an_empty_identifier_falls_back_to_id():
    text = MINIMAL.replace('identifier="a"', 'identifier="" id="x"').replace(
        'source="a"', 'source="x"')
    m = import_archimate(text)
    assert list(m.elements) == ["x", "b"]
    assert m.element("x").concept_name == "device"


@pytest.mark.parametrize("line_break", ["&#10;", "&#13;"])
def test_an_element_identifier_with_a_line_break_is_rejected(line_break):
    text = MINIMAL.replace('identifier="a"', f'identifier="a{line_break}"')
    shown = repr("a" + {"&#10;": "\n", "&#13;": "\r"}[line_break])
    with pytest.raises(ModelFormatError) as exc:
        import_archimate(text)
    assert str(exc.value) == f"identifier {shown} contains a line break"


def test_bytes_that_are_not_utf8_rejected_with_the_offset():
    data = MINIMAL.encode("utf-8").replace(b"Box", b"B\xffx")
    offset = data.index(b"\xff")
    with pytest.raises(ModelFormatError) as exc:
        import_archimate(data)
    assert str(exc.value) == f"not valid UTF-8 at byte offset {offset}"


@pytest.mark.parametrize(
    "prefix", ["", " " * (1 << 16)], ids=["first_slice", "later_slice"]
)
def test_lone_surrogate_in_a_str_rejected_with_the_offset(prefix):
    # a str is encoded to UTF-8 for the parser, slice by slice; the offset
    # counts characters from the start of the whole text
    text = f"<model>{prefix}<name>x\udcff</name></model>"
    with pytest.raises(ModelFormatError) as exc:
        import_archimate(text)
    offset = text.index("\udcff")
    assert str(exc.value) == (
        f"not encodable as UTF-8 at character offset {offset}"
    )
    assert exc.value.line is None


def test_repeated_property_key_warns_and_keeps_the_last_value():
    text = MINIMAL.replace(
        "<name>Box</name>",
        "<name>Box</name><properties>"
        '<property key="zone" value="lan"/><property key="owner" value="ops"/>'
        '<property name="zone" value="dmz"/><property key="zone&#10;" value="x"/>'
        '<property key="" value="1"/><property key="" value="2"/>'
        "</properties>",
    ).replace('xsi:type="BusinessService"', 'xsi:type="Gizmo"')
    text = text.replace(
        '<element identifier="b"',
        '<element identifier="c" xsi:type="Node"><properties>'
        '<property key="k" value="1"/><property key="k" value="2"/>'
        '</properties></element>\n    <element identifier="b"',
    )
    m = import_archimate(text)
    assert m.element("a").attributes == {"zone": "dmz", "owner": "ops", "zone ": "x"}
    assert m.element("c").attributes == {"k": "2"}
    assert m.warnings == (
        "element 'a' repeats property key 'zone'; the last value is kept",
        "element 'c' repeats property key 'k'; the last value is kept",
        "unknown element type token 'Gizmo' on 'b'",
    )


def test_dangling_relationship_endpoint_rejected():
    text = MINIMAL.replace('target="b"', 'target="ghost"')
    with pytest.raises(Exception):
        import_archimate(text)


def test_token_table_covers_the_ruleset_sources():
    # every exchange token lands on a concept some archimate21 rule mentions
    from riskalign.builtin_tables import builtin_ruleset

    ruleset = builtin_ruleset("archimate21")
    missing = [
        token
        for token, concept in ELEMENT_TOKENS.items()
        if not ruleset.rules_for(concept)
    ]
    assert missing == []


def xml_line_end_variant(seed: int) -> str:
    """The lab model with CRLF, CR-only or mixed line ends, "\\r" or "\\r\\n"
    inside some names, sometimes a CRLF across the first _SLICE boundary,
    and in 40% of the seeds a syntax error."""
    rng = random.Random(seed)
    text = re.sub(
        "<name>([^<]*) ",
        lambda m: m[0][:-1] + rng.choice(["\r", "\r\n", " "]),
        LAB_XML,
    )
    ends = rng.choice([["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])  # CRLF, CR or mixed
    text = "".join(piece + rng.choice(ends) for piece in text.split("\n")[:-1])
    if rng.random() < 0.3:  # the "\r" is the last character of the first slice
        declaration, rest = text.split(">", 1)
        pad = _SLICE - len(declaration) - 1 - len("<!---->") - 1
        text = f"{declaration}><!--{'x' * pad}-->\r\n{rest}"
    if rng.random() < 0.4:
        at = rng.randint(0, len(text))
        garbage = rng.choice(["<", "</x>", "&bogus;", "<a b='1' b='2'/>"])
        text = text[:at] + garbage + text[at:]
    return text


def xml_outcome(text: str):
    try:
        model = import_archimate(text)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return model, list(model.elements.values()), model.warnings


def test_xml_parser_reads_line_ends_as_translated_text():
    # The CLI passes exchange XML through with its line ends: the parser's
    # own end-of-line handling reads "\r\n" and a lone "\r" as "\n".
    errors = 0
    for seed in range(300):
        text = xml_line_end_variant(seed)
        translated = text.replace("\r\n", "\n").replace("\r", "\n")
        got = xml_outcome(text)
        assert got == xml_outcome(translated), seed
        errors += got[0] is ModelFormatError
    assert 60 < errors < 180  # the malformed variants raise, and the rest import
