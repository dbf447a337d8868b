import pytest

from riskalign.concepts import ISSRMConcept as C
from riskalign.errors import RulesetFormatError, UnknownFrameworkError
from riskalign.mappings import (
    ASSOCIATION,
    AGGREGATION,
    COMPOSITION,
    EQUIVALENCE,
    GENERALISATION,
    SPECIALISATION,
    UNSPECIFIED,
    AlignmentRule,
    AnnotationTarget,
    AttributeEquals,
    AttributeTarget,
    CompositeTarget,
    ConceptTarget,
    MappingKind,
    NoTarget,
    Ruleset,
    non_standard,
    parse_condition,
    parse_mapping_type,
    parse_ruleset,
    parse_target,
    resolve_rules,
    serialize_ruleset,
    serialize_target,
    source_synonyms,
    target_concepts,
)


# --- mapping types ------------------------------------------------------------------

@pytest.mark.parametrize(
    "token,expected",
    [
        ("equivalence", EQUIVALENCE),
        ("Generalisation", GENERALISATION),
        ("SPECIALISATION", SPECIALISATION),
        ("aggregation", AGGREGATION),
        ("composition", COMPOSITION),
        ("association", ASSOCIATION),
        ("", UNSPECIFIED),
        ("   ", UNSPECIFIED),
        ("n/a", UNSPECIFIED),
        ("N/A", UNSPECIFIED),
    ],
)
def test_parse_mapping_type(token, expected):
    assert parse_mapping_type(token) == expected


def test_parse_mapping_type_keeps_unrecognized_text():
    mt = parse_mapping_type("specification")
    assert mt.kind is MappingKind.NON_STANDARD
    assert mt.text == "specification"
    assert mt == non_standard("specification")


def test_mapping_type_is_standard():
    assert EQUIVALENCE.is_standard
    assert ASSOCIATION.is_standard
    assert not UNSPECIFIED.is_standard
    assert not non_standard("specification").is_standard


def test_mapping_type_str():
    assert str(SPECIALISATION) == "specialisation"
    assert str(UNSPECIFIED) == ""
    assert str(non_standard("specification")) == "specification"
    with pytest.raises(ValueError, match="verbatim token"):
        non_standard("")


# --- targets ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("ISAsset", ConceptTarget(C.IS_ASSET)),
        ("Business asset", ConceptTarget(C.BUSINESS_ASSET)),
        ("NONE", NoTarget()),
        ("NONE:because not instantiated", NoTarget("because not instantiated")),
        ("@attributes", AnnotationTarget()),
        ("BusinessAsset::value", AttributeTarget(C.BUSINESS_ASSET, "value")),
        ("BusinessAsset:: value ", AttributeTarget(C.BUSINESS_ASSET, "value")),
        ("ISAsset+BusinessAsset", CompositeTarget((C.IS_ASSET, C.BUSINESS_ASSET))),
    ],
)
def test_parse_target(text, expected):
    assert parse_target(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "ISAsset::", "ISAsset+ISAsset", "AttributeAnnotation", "NotAConcept"],
)
def test_parse_target_rejects(text):
    with pytest.raises(ValueError):
        parse_target(text)


@pytest.mark.parametrize(
    "target",
    [
        ConceptTarget(C.RISK),
        NoTarget(),
        NoTarget("reason text"),
        AnnotationTarget(),
        AttributeTarget(C.IS_ASSET, "*"),
        CompositeTarget((C.IS_ASSET, C.BUSINESS_ASSET)),
    ],
)
def test_target_serialization_round_trips(target):
    assert parse_target(serialize_target(target)) == target


def test_target_concepts():
    assert target_concepts(ConceptTarget(C.RISK)) == {C.RISK}
    assert target_concepts(AttributeTarget(C.IS_ASSET, "x")) == {C.IS_ASSET}
    assert target_concepts(CompositeTarget((C.IS_ASSET, C.BUSINESS_ASSET))) == {
        C.IS_ASSET,
        C.BUSINESS_ASSET,
    }
    assert target_concepts(NoTarget()) == frozenset()
    assert target_concepts(AnnotationTarget()) == frozenset()


# --- conditions ---------------------------------------------------------------------

def test_condition_true_matches_only_true():
    cond = AttributeEquals("carries_information", "true")
    assert cond.evaluate({"carries_information": "true"})
    assert not cond.evaluate({"carries_information": "yes"})
    assert not cond.evaluate({})


def test_condition_false_matches_absent():
    cond = AttributeEquals("carries_information", "false")
    assert cond.evaluate({})
    assert cond.evaluate({"carries_information": "false"})
    assert cond.evaluate({"carries_information": "other"})
    assert not cond.evaluate({"carries_information": "true"})


def test_condition_plain_value_is_exact():
    cond = AttributeEquals("zone", "dmz")
    assert cond.evaluate({"zone": "dmz"})
    assert not cond.evaluate({"zone": "lan"})
    assert not cond.evaluate({})


def test_parse_condition():
    assert parse_condition("") is None
    assert parse_condition(" k = v ") == AttributeEquals("k", "v")
    with pytest.raises(ValueError):
        parse_condition("novalue")
    with pytest.raises(ValueError):
        parse_condition("=x")


def test_parse_condition_rejects_whitespace_in_the_key():
    # An "IF" keyword would otherwise become part of a key no attribute has.
    with pytest.raises(ValueError, match="contains whitespace"):
        parse_condition("IF a=b")
    assert parse_condition(" a =b") == AttributeEquals("a", "b")


# --- source synonyms ----------------------------------------------------------------

def test_synonyms_always_include_the_printed_label():
    assert source_synonyms("Business Process")[0] == "business process"


def test_synonyms_slash_with_head_completion():
    names = source_synonyms("application function/ interaction")
    assert "application function" in names
    assert "application interaction" in names


def test_synonyms_multiword_alternative_stands_alone():
    names = source_synonyms(
        "business migration specifications/implementation guidelines"
    )
    assert "implementation guidelines" in names
    assert "business migration implementation guidelines" not in names
    assert "business migration specifications" in names


def test_synonyms_attached_parenthetical_alternation():
    names = source_synonyms("person(nel) role /person type")
    assert "person role" in names
    assert "personnel role" in names
    assert "person type" in names


def test_synonyms_freestanding_parenthetical_optional():
    names = source_synonyms("business tasks (specifications)")
    assert "business tasks" in names
    assert "business tasks (specifications)" in names


def test_synonyms_sla_abbreviation():
    names = source_synonyms("service level agreement (sla)")
    assert "service level agreement" in names


# --- rulesets -----------------------------------------------------------------------

def rule(source, target, row=1, mapping=SPECIALISATION, condition=None,
         section="S", framework="iaf", example=""):
    return AlignmentRule(
        framework=framework,
        row=row,
        section=section,
        source=source,
        target=target,
        mapping_type=mapping,
        condition=condition,
        example=example,
    )


def test_ruleset_rejects_unknown_framework():
    with pytest.raises(UnknownFrameworkError):
        Ruleset("nothing", "", [])


def test_ruleset_rejects_foreign_rule():
    with pytest.raises(RulesetFormatError):
        Ruleset("iaf", "", [rule("actor", ConceptTarget(C.IS_ASSET), framework="togaf91")])


def test_ruleset_rejects_duplicate_source_target_condition():
    rules = [
        rule("actor", ConceptTarget(C.IS_ASSET)),
        rule("actor", ConceptTarget(C.IS_ASSET), row=2),
    ]
    with pytest.raises(RulesetFormatError):
        Ruleset("iaf", "", rules)


def test_ruleset_allows_same_target_under_different_conditions():
    rules = [
        rule("business object", ConceptTarget(C.IS_ASSET),
             condition=AttributeEquals("carries_information", "true")),
        rule("business object", NoTarget(),
             condition=AttributeEquals("carries_information", "false")),
    ]
    rs = Ruleset("iaf", "", rules)
    assert len(rs.rules) == 2


def test_ruleset_warnings_flag_irregular_types():
    rules = [
        rule("stakeholder", ConceptTarget(C.ASSET), mapping=UNSPECIFIED),
        rule("sla", ConceptTarget(C.CONTROL), row=2,
             mapping=non_standard("specification")),
        rule("actor", ConceptTarget(C.IS_ASSET), row=3),
    ]
    rs = Ruleset("iaf", "", rules)
    assert len(rs.warnings) == 2
    assert "row 1 (stakeholder)" in rs.warnings[0]
    assert "blank" in rs.warnings[0]
    assert "row 2 (sla)" in rs.warnings[1]
    assert "'specification'" in rs.warnings[1]


def test_rules_for_matches_synonyms_and_normalizes():
    rs = Ruleset("iaf", "", [rule("person(nel) role", ConceptTarget(C.IS_ASSET))])
    assert rs.rules_for("Personnel  Role")
    assert rs.rules_for("person role")
    assert rs.rules_for("operator") == ()


def test_row_count_counts_rows_not_rules():
    rules = [
        rule("role", ConceptTarget(C.BUSINESS_ASSET)),
        rule("role", ConceptTarget(C.ASSET), mapping=ASSOCIATION),
        rule("actor", ConceptTarget(C.IS_ASSET), row=2),
    ]
    rs = Ruleset("iaf", "", rules)
    assert rs.row_count == 2
    assert repr(rs) == "Ruleset('iaf', 3 rules)"
    assert rs != rules


def test_resolve_rules_applies_conditions():
    rules = [
        rule("business object", ConceptTarget(C.IS_ASSET),
             condition=AttributeEquals("carries_information", "true")),
        rule("business object", NoTarget(),
             condition=AttributeEquals("carries_information", "false")),
    ]
    rs = Ruleset("iaf", "", rules)
    hit = resolve_rules(rs, "business object", {"carries_information": "true"})
    assert len(hit) == 1 and hit[0].target == ConceptTarget(C.IS_ASSET)
    miss = resolve_rules(rs, "business object", {})
    assert len(miss) == 1 and miss[0].target == NoTarget()


# --- ruleset text format -------------------------------------------------------------

SAMPLE = """\
RULESET|iaf|test subset
# business section
role|Business|BusinessAsset|specialisation||worker
role|Business|Asset|association||worker
actor|Business|ISAsset|specialisation||
business object|Business|ISAsset|specialisation|carries_information=true|
business object|Business|NONE|specialisation|carries_information=false|
sla|Quality|Control|specification||
stakeholder|Quality|Asset|||
"""


def test_parse_ruleset_groups_consecutive_rows():
    rs = parse_ruleset(SAMPLE)
    assert [r.row for r in rs.rules] == [1, 1, 2, 3, 3, 4, 5]
    assert rs.row_count == 5
    assert rs.framework == "iaf"
    assert rs.version_note == "test subset"


def test_parse_ruleset_reads_types_and_conditions():
    rs = parse_ruleset(SAMPLE)
    sla = rs.rules_for("sla")[0]
    assert sla.mapping_type == non_standard("specification")
    stakeholder = rs.rules_for("stakeholder")[0]
    assert stakeholder.mapping_type == UNSPECIFIED
    conditional = rs.rules_for("business object")
    assert conditional[0].condition == AttributeEquals("carries_information", "true")


def test_parse_ruleset_warnings():
    rs = parse_ruleset(SAMPLE)
    assert len(rs.warnings) == 2


def test_serialize_parse_identity():
    rs = parse_ruleset(SAMPLE)
    assert parse_ruleset(serialize_ruleset(rs)) == rs


@pytest.mark.parametrize(
    "text,line",
    [
        ("role|Business|Asset|||", 1),
        ("RULESET|unknownfw|x\n", 1),
        ("# c\n\n  \nrole|Business|Asset|||\n", 4),
        ("# c\n\n  \nRULESET|nothing|x\n", 4),
        ("RULESET|iaf|x\nrole|Business|Asset||", 2),
        ("RULESET|iaf|x\nrole|Business|NotAConcept|||", 2),
        ("RULESET|iaf|x\nrole|Business|Asset||novalue|", 2),
        ("RULESET|iaf|x\n|Business|Asset|||", 2),
    ],
)
def test_parse_ruleset_errors_carry_line_numbers(text, line):
    with pytest.raises(RulesetFormatError) as exc:
        parse_ruleset(text)
    assert exc.value.line == line


def test_parse_ruleset_empty_text():
    for text in ("", "# only a comment\n", "\ufeff\n  \r\n# c\r"):
        with pytest.raises(RulesetFormatError) as exc:
            parse_ruleset(text)
        assert str(exc.value) == "empty ruleset text; RULESET record missing"
        assert exc.value.line is None


def test_parse_ruleset_names_a_second_header_as_a_duplicate():
    with pytest.raises(RulesetFormatError) as exc:
        parse_ruleset("RULESET|iaf|x\nrole|Business|Asset|||\nRULESET|iaf|y\n")
    assert str(exc.value) == "line 3: duplicate RULESET record"
    assert exc.value.line == 3
    # a RULESET record of any other length is a duplicate too; a 6-field line
    # whose source is "RULESET" is a rule
    for extra in ("RULESET\n", "RULESET|iaf\n", "RULESET|a|b|c|d|e|f\n"):
        with pytest.raises(RulesetFormatError) as exc:
            parse_ruleset("RULESET|iaf|x\n" + extra)
        assert str(exc.value) == "line 2: duplicate RULESET record"
    ruleset = parse_ruleset("RULESET|iaf|x\nRULESET|Business|Asset|||\n")
    assert [rule.source for rule in ruleset.rules] == ["ruleset"]
    with pytest.raises(RulesetFormatError) as exc:
        parse_ruleset("RULESET|iaf|x\nrole|Business|Asset\n")
    assert str(exc.value) == "line 2: rule line needs 6 fields, got 3"


def test_parse_ruleset_rejects_a_condition_key_with_whitespace():
    text = "RULESET|iaf|x\nrole|Business|Asset||IF carries_information=true|\n"
    with pytest.raises(RulesetFormatError, match="contains whitespace") as exc:
        parse_ruleset(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("header", ["RULESET|iaf", "RULESET|iaf|note|extra"])
def test_parse_ruleset_header_needs_three_fields(header):
    with pytest.raises(RulesetFormatError) as exc:
        parse_ruleset(header + "\nrole|Business|Asset|||\n")
    assert str(exc.value) == (
        "line 1: expected RULESET|<framework>|<note> as the first record"
    )


def test_rulesets_differing_in_one_field_are_unequal():
    rules = [rule("actor", ConceptTarget(C.IS_ASSET))]
    base = Ruleset("iaf", "note", rules)
    assert base == Ruleset("iaf", "note", list(rules))
    assert base != Ruleset("togaf91", "note", [r._replace(framework="togaf91")
                                               for r in rules])
    assert base != Ruleset("iaf", "other note", rules)
    assert base != Ruleset("iaf", "note", [rule("actor", ConceptTarget(C.ASSET))])
