import pytest

from riskalign.archimate_xml import ELEMENT_TOKENS, import_archimate
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import classify_model
from riskalign.eamodel import export_tabular, parse_tabular
from riskalign.errors import ModelFormatError


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
