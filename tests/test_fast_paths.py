"""The per-concept classifier and the single-check tabular parser against the
per-element references they replaced.

classify_model resolves each concept's rules once and evaluates conditions
per element only where a rule has one; it must give the same facts,
unmapped, unknown and warnings, in order, as
oracles.classify_model_per_element on seeded models of every framework,
including iaf business objects whose carries_information is true, false,
absent or another value, and elements built through EAModel whose concept
names are not normalized. parse_tabular normalizes each token once and
checks ids and endpoints once; it must give the same model, or the same
error type, message and line, as oracles.parse_tabular_checked_twice on
seeded texts with one injected defect each. The facts reports render each
distinct (target, mapping type, tier) cell once; they must give the same
bytes as oracles.render_facts_text_per_fact and
oracles.render_facts_records_per_fact on classified, reviewed and one-element
query sets, and on a ruleset with every target and mapping-type form.
"""

from __future__ import annotations

import random

import pytest

from riskalign.archimate_xml import import_archimate
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import (
    ClassificationSet,
    apply_review,
    ReviewEntry,
    ReviewOverlay,
    Tier,
    classify_element,
    classify_model,
    render_facts_records,
    render_facts_text,
)
from riskalign.concepts import ISSRMConcept
from riskalign.cli import main
from riskalign.eamodel import EAElement, EAModel, EARelationship, parse_tabular
from riskalign.errors import (
    DuplicateIdError,
    InputError,
    ModelFormatError,
    ModelStructureError,
    ReviewError,
)
from riskalign.mappings import ConceptTarget, parse_ruleset, source_synonyms

from . import oracles

FRAMEWORKS = ("archimate21", "togaf91", "dodaf202", "iaf")
SEEDS = range(150)

# A concept with an unconditional rule beside conditional ones (one of them
# with no counterpart), a non-boolean condition value, a non-standard and a
# blank mapping type, and a no-counterpart synonym of a conditional source.
MIXED_RULESET = """\
RULESET|archimate21|mixed conditions
business object|s|Asset|generalisation||
Business Object|s|BusinessAsset|specialisation|class=secret|
business object|s|NONE: public data|equivalence|class=public|
node / device|s|ISAsset|mapsTo|zone=dmz|
node|s|NONE||zone=core|
data object|s|Asset|||
"""


def _respell(rng: random.Random, token: str) -> str:
    """The token as a user might write it: case and whitespace varied."""
    token = rng.choice([token, token.upper(), token.title(), token])
    token = token.replace(" ", rng.choice([" ", "  ", "\t", " "]))
    return rng.choice(["", " ", "\t"]) + token + rng.choice(["", " ", "\n"])


def _attributes(rng: random.Random) -> dict[str, str]:
    attributes = {}
    if rng.random() < 0.7:
        value = rng.choice(["true", "false", "yes", "TRUE", ""])
        attributes["carries_information"] = value
    for key in rng.sample(["class", "zone", "owner"], rng.randint(0, 2)):
        attributes[key] = rng.choice(["secret", "public", "dmz", "core", "x"])
    return attributes


def _model(rng: random.Random, framework: str, tokens: list[str]) -> EAModel:
    ids = rng.sample(range(1000), rng.randint(0, 30))
    elements = []
    for i in ids:
        token = rng.choice(tokens)
        concept = _respell(rng, token) if rng.random() < 0.3 else token
        elements.append(EAElement(f"e{i}", concept, f"element {i}", _attributes(rng)))
    relationships = [
        EARelationship(f"r{k}", "flow", rng.choice(elements).id, rng.choice(elements).id)
        for k in range(rng.randint(0, 5) if elements else 0)
    ]
    return EAModel(framework, elements, relationships)


def _tokens(ruleset) -> list[str]:
    """Every name a rule matches, an unknown and an empty one, with the
    conditional iaf concept drawn more often."""
    names = {name for rule in ruleset.rules for name in source_synonyms(rule.source)}
    return sorted(names) + ["wormhole", "", "business object", "business object"]


def _same_classification(got: ClassificationSet, want: ClassificationSet) -> None:
    assert got.facts == want.facts
    assert [type(fact) for fact in got.facts] == [type(fact) for fact in want.facts]
    assert got.unmapped == want.unmapped
    assert got.unknown == want.unknown
    assert got.warnings == want.warnings
    assert got.model is want.model and got.ruleset is want.ruleset


def _check_classification(ruleset, model) -> ClassificationSet:
    got = classify_model(ruleset, model)
    want = oracles.classify_model_per_element(ruleset, model)
    _same_classification(got, want)
    for element in model.elements.values():
        assert classify_element(ruleset, element) == [
            fact for fact in want.facts if fact.element_id == element.id
        ]
    return got


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_classify_model_matches_per_element_reference(framework):
    ruleset = builtin_ruleset(framework)
    tokens = _tokens(ruleset)
    for seed in SEEDS:
        _check_classification(ruleset, _model(random.Random(seed), framework, tokens))


def test_classify_model_matches_reference_on_mixed_conditions():
    ruleset = parse_ruleset(MIXED_RULESET)
    tokens = _tokens(ruleset)
    for seed in SEEDS:
        _check_classification(ruleset, _model(random.Random(seed), "archimate21", tokens))


def test_iaf_business_objects_by_carries_information():
    ruleset = builtin_ruleset("iaf")
    model = EAModel("iaf", [
        EAElement("a", "business object", "true", {"carries_information": "true"}),
        EAElement("b", "Business  Object", "false", {"carries_information": "false"}),
        EAElement("c", "business object", "absent"),
        EAElement("d", " BUSINESS OBJECT", "yes", {"carries_information": "yes"}),
    ])
    got = _check_classification(ruleset, model)
    assert [fact.element_id for fact in got.facts] == ["a"]
    assert got.unmapped == ("b", "c", "d")


def _verdicts(rng: random.Random, classification: ClassificationSet) -> ReviewOverlay:
    """A verdict that applies on some candidate and definite Asset facts."""
    entries = {}
    for fact in classification.facts:
        if type(fact.target) is not ConceptTarget or rng.random() < 0.3:
            continue
        key = (fact.element_id, fact.target.concept)
        if fact.tier is Tier.CANDIDATE:
            entries[key] = rng.choice(["confirm", "reject"])
        elif fact.tier is Tier.DEFINITE and fact.target.concept is ISSRMConcept.ASSET:
            entries[(fact.element_id, ISSRMConcept.IS_ASSET)] = "confirm"
    return ReviewOverlay(tuple(
        ReviewEntry(element_id, concept, verdict)
        for (element_id, concept), verdict in entries.items()
    ))


def test_reviewed_index_equals_one_rebuilt_from_the_facts():
    ruleset = builtin_ruleset("archimate21")
    emptied = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        model = oracles.random_model(rng, framework="archimate21")
        overlay = _verdicts(rng, classify_model(ruleset, model))
        # a fresh set, so the review, facts and the lookups compute the facts
        raw = classify_model(ruleset, model)
        reviewed = apply_review(raw, overlay)
        assert reviewed.facts == oracles.apply_review_scan(raw, overlay).facts
        rebuilt = ClassificationSet(
            reviewed.model, reviewed.ruleset, reviewed.facts,
            reviewed.unmapped, reviewed.unknown, reviewed.warnings,
        )
        ids = sorted(reviewed.model.elements)
        assert [reviewed.facts_for(e) for e in ids] == [rebuilt.facts_for(e) for e in ids]
        for concept in ISSRMConcept:
            assert reviewed.definite_elements(concept) == rebuilt.definite_elements(concept)
        emptied += sum(bool(raw.facts_for(e)) > bool(reviewed.facts_for(e)) for e in ids)
    assert emptied > 0


# --- facts reports ----------------------------------------------------------------

# Each target form (concept, composite, attribute and @attributes) with a
# blank, a non-standard and a standard mapping type, one source concept each.
CELL_TARGETS = (
    "BusinessAsset", "ISAsset+BusinessAsset", "ISAsset::owner", "@attributes",
)
CELL_RULESET = "RULESET|archimate21|every target and mapping-type form\n" + "".join(
    f"{target} {i}|s|{target}|{mapping}||\n"
    for target in CELL_TARGETS
    for i, mapping in enumerate(("", "mapsTo", "generalisation"))
)


def _query_facts(result: ClassificationSet, element_id: str) -> ClassificationSet:
    """The one-element set query facts renders, built as cli._cmd_query does."""
    return ClassificationSet(
        model=result.model,
        ruleset=result.ruleset,
        facts=result.facts_for(element_id),
        unmapped=tuple(e for e in result.unmapped if e == element_id),
        unknown=tuple(e for e in result.unknown if e == element_id),
        warnings=(),
    )


def _same_reports(result: ClassificationSet) -> None:
    for subset in (result, *(_query_facts(result, e) for e in result.model.elements)):
        assert render_facts_text(subset) == oracles.render_facts_text_per_fact(subset)
        assert render_facts_records(subset) == oracles.render_facts_records_per_fact(
            subset
        )


def _reviewed(rng: random.Random, result: ClassificationSet) -> ClassificationSet:
    """result with each verdict of a random overlay that applies on its own."""
    for entry in oracles.random_overlay(rng, result).entries:
        try:
            result = apply_review(result, ReviewOverlay((entry,)))
        except ReviewError:
            pass
    return result


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_facts_reports_match_per_fact_references(framework):
    ruleset = builtin_ruleset(framework)
    confirmed = refined = 0
    for seed in range(60):
        rng = random.Random(seed)
        model = oracles.random_model(rng, max_elements=25, framework=framework)
        classified = classify_model(ruleset, model)
        reviewed = _reviewed(rng, classified)
        _same_reports(classified)
        _same_reports(reviewed)
        for fact in reviewed.facts:
            if fact.confirmed:
                confirmed += 1
                targets = {f.target for f in classified.facts_for(fact.element_id)}
                refined += fact.target not in targets
    # togaf91's concepts give no candidate fact, and iaf's no definite Asset.
    assert confirmed > 0 or framework == "togaf91"
    assert refined > 0 or framework in ("togaf91", "iaf")


def test_facts_reports_match_references_on_every_cell_form():
    ruleset = parse_ruleset(CELL_RULESET)
    model = parse_tabular("FRAMEWORK|archimate21\n" + "".join(
        f"E|{rule.row}-{copy}|{rule.source}|element {rule.row}-{copy}|\n"
        for rule in ruleset.rules
        for copy in range(2)
    ) + "E|w|wormhole|Wormhole|\n")
    classified = classify_model(ruleset, model)
    reviewed = apply_review(classified, ReviewOverlay((
        ReviewEntry("2-0", ISSRMConcept.BUSINESS_ASSET, "confirm"),
        ReviewEntry("3-1", ISSRMConcept.BUSINESS_ASSET, "reject"),
    )))
    assert len(classified.facts) == 24 and classified.unknown == ("w",)
    _same_reports(classified)
    _same_reports(reviewed)
    assert "2-0 (element 2-0) -> BusinessAsset [mapsTo, definite, confirmed]" in (
        render_facts_text(reviewed)
    )


# --- tabular parsing --------------------------------------------------------------


CONCEPTS = ["data object", "Business  Object", "DEVICE", "node", " business actor "]
KINDS = ["flow", "Flow", "  association ", "realization", "ASSIGNMENT"]
NAMES = ["plain", "a\\|b", "back\\\\slash", ""]
ATTRS = ["", "zone=dmz", "owner=t1;zone=core", "k\\\\=1=v\\\\;2"]
DEFECTS = (
    "duplicate element", "duplicate relationship", "dangling endpoint",
    "forward endpoint", "empty element id", "empty relationship id",
    "bad element arity", "bad relationship arity",
)


def _records(rng: random.Random) -> tuple[list[str], list[str], list[str]]:
    """A valid model as record lines, each relationship after its endpoints."""
    lines: list[str] = []
    element_ids: list[str] = []
    rel_ids: list[str] = []
    for i in rng.sample(range(100), rng.randint(1, 12)):
        element_ids.append(f"e{i}")
        lines.append("|".join(["E", f"e{i}", rng.choice(CONCEPTS),
                               rng.choice(NAMES), rng.choice(ATTRS)]))
        for _ in range(rng.randint(0, 2)):
            rel_ids.append(f"r{len(rel_ids)}")
            lines.append("|".join(["R", rel_ids[-1], rng.choice(KINDS),
                                   rng.choice(element_ids), rng.choice(element_ids)]))
        if rng.random() < 0.2:
            lines.append(rng.choice(["# note", "", "   "]))
    return lines, element_ids, rel_ids


def _inject(rng: random.Random, lines: list[str], element_ids: list[str],
            rel_ids: list[str], defect: str) -> None:
    def insert_after(prefix: str, line: str) -> None:
        first = next(i for i, old in enumerate(lines) if old.startswith(prefix))
        lines.insert(rng.randint(first + 1, len(lines)), line)

    some = rng.choice(element_ids)
    if defect == "duplicate element":
        insert_after(f"E|{some}|", f"E|{some}|data object|again|")
    elif defect == "duplicate relationship" and rel_ids:
        rel = rng.choice(rel_ids)
        insert_after(f"R|{rel}|", f"R|{rel}|flow|{some}|{some}")
    elif defect == "dangling endpoint":
        ends = [some, "ghost"]
        rng.shuffle(ends)
        lines.insert(rng.randint(0, len(lines)), f"R|rx|flow|{ends[0]}|{ends[1]}")
    elif defect == "forward endpoint":
        at = next(i for i, old in enumerate(lines) if old.startswith(f"E|{some}|"))
        lines.insert(at, f"R|rx|flow|{some}|{element_ids[0]}")
    elif defect == "empty element id":
        lines.insert(rng.randint(0, len(lines)), "E||device|nameless|")
    elif defect == "empty relationship id":
        lines.append(f"R||flow|{some}|{some}")
    elif defect == "bad element arity":
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(["E|ex|device|x", "E|ex|device|x||extra"]))
    elif defect == "bad relationship arity":
        lines.append(rng.choice([f"R|rx|flow|{some}", f"R|rx|flow|{some}|{some}|x"]))


def _text(rng: random.Random, lines: list[str]) -> str:
    header = rng.choice(["", "# model\n", "\n"]) + "FRAMEWORK|archimate21\n"
    return header + "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def _outcome(parse, text: str):
    try:
        model = parse(text, source="m.tab")
    except InputError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("model", model, list(model.elements.items()), model.relationships,
            model.framework, model.source, model.warnings)


def _same_parse(text: str):
    got = _outcome(parse_tabular, text)
    want = _outcome(oracles.parse_tabular_checked_twice, text)
    assert got == want
    if got[0] == "model":
        assert type(got[1].relationships) is tuple
    return got


def test_parse_tabular_matches_reference_on_valid_texts():
    for seed in SEEDS:
        rng = random.Random(seed)
        lines, _, _ = _records(rng)
        assert _same_parse(_text(rng, lines))[0] == "model"


@pytest.mark.parametrize("defect", DEFECTS)
def test_parse_tabular_matches_reference_on_one_defect(defect):
    errors = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        lines, element_ids, rel_ids = _records(rng)
        _inject(rng, lines, element_ids, rel_ids, defect)
        outcome = _same_parse(_text(rng, lines))
        if outcome[0] == "error":
            assert outcome[1] is ModelFormatError and outcome[3] is not None
            errors += 1
    assert errors > len(SEEDS) // 2


def test_parse_tabular_normalizes_each_spelling():
    model = parse_tabular(
        "FRAMEWORK|archimate21\n"
        "E|a|Business  Object|A|\nE|b|business object|B|\nE|c|DEVICE|C|\n"
        "R|r1|FLOW|a|b\nR|r2|flow|b|c\nR|r3| Serving  |c|a\n"
    )
    assert [e.concept_name for e in model.elements.values()] == [
        "business object", "business object", "device",
    ]
    assert [r.kind for r in model.relationships] == ["flow", "flow", "serving"]


# --- a second FRAMEWORK record --------------------------------------------------------


def test_second_framework_record_is_a_duplicate():
    with pytest.raises(ModelFormatError) as info:
        parse_tabular("FRAMEWORK|archimate21\nE|a|node|A|\n\nFRAMEWORK|iaf\n")
    assert str(info.value) == "line 4: duplicate FRAMEWORK record"
    assert info.value.line == 4


def test_cli_reports_a_second_framework_record_at_its_line(tmp_path, capsys):
    path = tmp_path / "twice.tab"
    path.write_text("FRAMEWORK|archimate21\nFRAMEWORK|archimate21\n", encoding="utf-8")
    assert main(["import", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: duplicate FRAMEWORK record\n"


# --- the constructor keeps its checks ---------------------------------------------------


@pytest.mark.parametrize("elements, relationships, error, message", [
    ([EAElement("a", "node"), EAElement("a", "device")], [],
     DuplicateIdError, "duplicate element id 'a'"),
    ([EAElement("a", "node")],
     [EARelationship("r", "flow", "a", "a"), EARelationship("r", "flow", "a", "a")],
     DuplicateIdError, "duplicate relationship id 'r'"),
    ([EAElement("a", "node")], [EARelationship("r", "flow", "a", "b")],
     ModelStructureError, "relationship 'r' references unknown endpoint 'b'"),
])
def test_direct_construction_and_xml_import_keep_their_checks(
    elements, relationships, error, message
):
    with pytest.raises(error) as info:
        EAModel("archimate21", elements, relationships)
    assert str(info.value) == message
    xml = (
        "<model><elements>"
        + "".join(f'<element identifier="{e.id}" type="Node"/>' for e in elements)
        + "</elements><relationships>"
        + "".join(
            f'<relationship identifier="{r.id}" type="Flow" source="{r.source}" '
            f'target="{r.target}"/>'
            for r in relationships
        )
        + "</relationships></model>"
    )
    with pytest.raises(error) as info:
        import_archimate(xml)
    assert str(info.value) == message
