import pytest
from hypothesis import given, settings, strategies as st

from riskalign.eamodel import (
    EAElement,
    EAModel,
    EARelationship,
    export_tabular,
    neighbors,
    normalize_name,
    parse_tabular,
)
from riskalign.errors import (
    DuplicateIdError,
    LineError,
    ModelFormatError,
    ModelStructureError,
    UnknownElementError,
    UnknownFrameworkError,
)


def test_normalize_name():
    assert normalize_name("  Business   Process ") == "business process"
    assert normalize_name("DataObject") == "dataobject"
    assert normalize_name("") == ""


def test_unknown_framework_rejected():
    with pytest.raises(UnknownFrameworkError):
        EAModel("archimate30")


def test_duplicate_element_id_rejected():
    with pytest.raises(DuplicateIdError):
        EAModel("iaf", [EAElement("a", "x"), EAElement("a", "y")])


def test_duplicate_relationship_id_rejected():
    elems = [EAElement("a", "x"), EAElement("b", "y")]
    rels = [
        EARelationship("r", "flow", "a", "b"),
        EARelationship("r", "flow", "b", "a"),
    ]
    with pytest.raises(DuplicateIdError):
        EAModel("iaf", elems, rels)


def test_dangling_endpoint_rejected():
    with pytest.raises(ModelStructureError):
        EAModel("iaf", [EAElement("a", "x")], [EARelationship("r", "flow", "a", "b")])


def test_element_lookup_and_contains():
    m = EAModel("togaf91", [EAElement("a", "actor", "Alice")])
    assert m.element("a").name == "Alice"
    assert "a" in m and "b" not in m
    with pytest.raises(UnknownElementError):
        m.element("b")


def test_elements_is_a_read_only_view_of_the_index():
    parsed = parse_tabular(
        "FRAMEWORK|togaf91\nE|b|actor|Bob|\nE|a|actor|Alice|\n"
    )
    built = EAModel("togaf91", [EAElement("b", "actor"), EAElement("a", "actor")])
    for m in (parsed, built):
        assert list(m.elements) == ["b", "a"]
        assert m.elements["a"] is m.element("a")
        with pytest.raises(TypeError):
            m.elements["c"] = EAElement("c", "actor")
        with pytest.raises(TypeError):
            del m.elements["a"]
        with pytest.raises(AttributeError):
            m.elements.pop("a")
        assert list(m.elements) == ["b", "a"]


def test_equality_ignores_source_and_warnings():
    elems = [EAElement("a", "actor")]
    m1 = EAModel("togaf91", elems, source="one.tab", warnings=("w",))
    m2 = EAModel("togaf91", elems, source="two.xml")
    assert m1 == m2
    assert m1 != EAModel("iaf", elems)
    assert m1 != ("togaf91", elems)
    assert repr(m1) == "EAModel('togaf91', 1 elements, 0 relationships)"


def fan_model():
    return EAModel(
        "archimate21",
        [
            EAElement("hub", "node"),
            EAElement("a", "device"),
            EAElement("b", "device"),
        ],
        [
            EARelationship("r2", "association", "hub", "a"),
            EARelationship("r1", "assignment", "b", "hub"),
            EARelationship("r3", "association", "hub", "hub"),
        ],
    )


def test_neighbors_outgoing():
    pairs = neighbors(fan_model(), "hub", "outgoing")
    assert [(r.id, e.id) for r, e in pairs] == [("r2", "a"), ("r3", "hub")]


def test_neighbors_incoming():
    pairs = neighbors(fan_model(), "hub", "incoming")
    assert [(r.id, e.id) for r, e in pairs] == [("r1", "b"), ("r3", "hub")]


def test_neighbors_both_orders_by_relationship_id():
    pairs = neighbors(fan_model(), "hub")
    assert [(r.id, e.id) for r, e in pairs] == [
        ("r1", "b"),
        ("r2", "a"),
        ("r3", "hub"),
    ]


def test_neighbors_rejects_bad_direction():
    with pytest.raises(ValueError):
        neighbors(fan_model(), "hub", "sideways")


def test_neighbors_rejects_unknown_element():
    with pytest.raises(UnknownElementError):
        neighbors(fan_model(), "ghost")


# --- tabular format -----------------------------------------------------------------

GOOD = """\
FRAMEWORK|togaf91
# people
E|a1|Actor|Alice|clearance=high
E|p1|Process||
R|r1|flow|a1|p1
"""


def test_parse_tabular_basic():
    m = parse_tabular(GOOD, "good.tab")
    assert m.framework == "togaf91"
    assert m.source == "good.tab"
    assert m.element("a1").concept_name == "actor"
    assert m.element("a1").attributes == {"clearance": "high"}
    assert m.element("p1").name == ""
    assert m.relationships[0].kind == "flow"


@pytest.mark.parametrize(
    "text,line",
    [
        ("E|a|actor||", 1),
        ("FRAMEWORK|nothing\n", 1),
        ("# c\n\n  \nE|a|actor||\n", 4),
        ("# c\n\n  \nFRAMEWORK|nothing\n", 4),
        ("FRAMEWORK|iaf\nE|a|actor|", 2),
        ("FRAMEWORK|iaf\nE||actor||", 2),
        ("FRAMEWORK|iaf\nE|a|actor||\nE|a|actor||", 3),
        ("FRAMEWORK|iaf\nE|a|actor||\nR|r|flow|a|ghost", 3),
        ("FRAMEWORK|iaf\nE|a|actor||\nR|r|flow|a|a\nR|r|flow|a|a", 4),
        ("FRAMEWORK|iaf\nQ|zzz", 2),
        ("FRAMEWORK|iaf\nE|a|actor||broken", 2),
    ],
)
def test_parse_tabular_errors_carry_line_numbers(text, line):
    # malformed attributes raise the shared LineError; the rest the model one
    with pytest.raises(LineError) as exc:
        parse_tabular(text)
    assert exc.value.line == line


@pytest.mark.parametrize("first", ["FRAMEWORK", "FRAMEWORK|iaf|extra"])
def test_parse_tabular_first_record_needs_two_fields(first):
    with pytest.raises(ModelFormatError) as exc:
        parse_tabular(first + "\nE|a|actor||\n")
    assert str(exc.value) == "line 1: expected FRAMEWORK|<id> as the first record"


def test_relationship_with_empty_id_rejected_at_its_line():
    with pytest.raises(LineError) as exc:
        parse_tabular("FRAMEWORK|iaf\nE|a|actor||\nR||flow|a|a\n")
    assert exc.value.line == 3
    assert str(exc.value) == "line 3: relationship with empty id"


def test_parse_tabular_empty_text():
    for text in ("", "# nothing here\n", "\ufeff\n  \r\n# c\r"):
        with pytest.raises(ModelFormatError) as exc:
            parse_tabular(text)
        assert str(exc.value) == "empty model text; FRAMEWORK record missing"
        assert exc.value.line is None


def test_export_then_parse_is_identity():
    m = parse_tabular(GOOD)
    again = parse_tabular(export_tabular(m))
    assert again == m


@pytest.mark.parametrize("brk", ["\n", "\r"])
@pytest.mark.parametrize("what,field,build", [
    ("element", "id", lambda b: ([EAElement(f"a{b}", "actor")], [])),
    ("element", "concept_name", lambda b: ([EAElement("a", f"act{b}or")], [])),
    ("element", "name", lambda b: ([EAElement("a", "actor", f"x{b}y")], [])),
    ("element", "attributes", lambda b: ([EAElement("a", "actor", "", {f"k{b}": "v"})], [])),
    ("element", "attributes", lambda b: ([EAElement("a", "actor", "", {"k": f"{b}v"})], [])),
    ("relationship", "kind",
     lambda b: ([EAElement("a", "actor")], [EARelationship("r", f"fl{b}ow", "a", "a")])),
    ("relationship", "id",
     lambda b: ([EAElement("a", "actor")], [EARelationship(f"r{b}", "flow", "a", "a")])),
])
def test_export_names_the_field_with_a_line_break(brk, what, field, build):
    elements, relationships = build(brk)
    model = EAModel("iaf", elements, relationships)
    record = (relationships or elements)[0]
    with pytest.raises(ModelStructureError) as exc:
        export_tabular(model)
    assert str(exc.value) == f"{what} {record.id!r} has a line break in its {field}"


def test_escaped_pipe_in_name():
    text = 'FRAMEWORK|iaf\nE|a|actor|Alice \\| Bob|\n'
    m = parse_tabular(text)
    assert m.element("a").name == "Alice | Bob"
    assert parse_tabular(export_tabular(m)) == m


ident = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=8
)
display = st.text(
    alphabet=st.characters(blacklist_characters="\n\r"), max_size=20
)
attr_key = st.text(
    alphabet=st.sampled_from("abcxyz=;|\\ "), min_size=1, max_size=6
).filter(lambda s: s.strip())


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(
        st.lists(ident, min_size=n, max_size=n, unique=True)
    )
    elements = []
    for elem_id in ids:
        attrs = draw(st.dictionaries(attr_key, display, max_size=3))
        elements.append(
            EAElement(
                elem_id,
                normalize_name(draw(st.sampled_from(["actor", "process", "data entity"]))),
                draw(display),
                attrs,
            )
        )
    rel_count = draw(st.integers(min_value=0, max_value=6))
    relationships = []
    for i in range(rel_count):
        relationships.append(
            EARelationship(
                f"r{i}",
                draw(st.sampled_from(["flow", "association"])),
                draw(st.sampled_from(ids)),
                draw(st.sampled_from(ids)),
            )
        )
    return EAModel(draw(st.sampled_from(["togaf91", "iaf"])), elements, relationships)


@given(models())
@settings(max_examples=120, deadline=None)
def test_tabular_round_trip_property(m):
    assert parse_tabular(export_tabular(m)) == m


def test_twin_fixtures_are_equal(fixtures_dir, lab_model):
    twin = parse_tabular((fixtures_dir / "lab_model.tab").read_text(), "lab_model.tab")
    assert twin == lab_model


def test_lab_export_matches_twin_fixture(fixtures_dir, lab_model):
    assert export_tabular(lab_model) == (fixtures_dir / "lab_model.tab").read_text()
