"""The str-method code that replaced three regular expressions gives what the
expressions gave, on every input drawn here.

The references below use re: the camel-case split of relationship type
tokens, and the attached and free-standing parentheticals of rule sources.
The runtime modules do not import re.
"""

from __future__ import annotations

import random
import re

import pytest

from riskalign.archimate_xml import _camel_words
from riskalign.builtin_tables import builtin_ruleset
from riskalign.eamodel import FRAMEWORKS, normalize_name
from riskalign.mappings import _parenthetical_variants, source_synonyms

CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
ATTACHED = re.compile(r"(\w+)\((\w+)\)")
FREESTANDING = re.compile(r"\s*\([^()]*\)")

# Exchange-format relationship types, ArchiMate 2.1 and 3.x spellings.
RELATIONSHIP_TOKENS = [
    f"{kind}{suffix}"
    for kind in (
        "Access", "Aggregation", "Assignment", "Association", "Composition", "Flow",
        "Influence", "Realisation", "Realization", "Serving", "Specialisation",
        "Specialization", "Triggering", "UsedBy",
    )
    for suffix in ("", "Relationship")
]

# Non-ASCII letters (capitals, a titlecase one, a dotted capital I and the
# dotless i), non-ASCII digits and numerals, and non-ASCII spaces.
LETTERS = "éÉßΣσǅİıЖж"
DIGITS = "٣²Ⅷ߁"
SPACES = [" ", " ", "　", "\x1c", "\t"]


def variants_by_regex(name: str) -> list[str]:
    variants = [name]
    if ATTACHED.search(name):
        variants.append(normalize_name(ATTACHED.sub(r"\1", name)))
        variants.append(normalize_name(ATTACHED.sub(r"\1\2", name)))
    variants.append(normalize_name(FREESTANDING.sub(" ", name)))
    return variants


def synonyms_by_regex(source: str) -> tuple[str, ...]:
    source = normalize_name(source)
    names = [source]
    parts = [p.strip() for p in source.split("/") if p.strip()]
    head_words = parts[0].split() if parts else []
    for part in parts:
        expanded = part
        if len(part.split()) == 1 and len(head_words) > 1:
            expanded = " ".join(head_words[:-1] + [part])
        for variant in variants_by_regex(expanded):
            if variant and variant not in names:
                names.append(variant)
    return tuple(names)


def random_label(rng: random.Random) -> str:
    """A label of words, "_", parentheses (balanced, unbalanced and nested),
    slashes and blanks, ASCII or not."""
    pieces = [
        "a", "b", "Z", "7", "_", "x_y", "(", ")", "/", " ", " ", "()", "(s)", "(nel)",
        "(a b)", "((c))", "(d(e)f)", ")(", *LETTERS, *DIGITS, *SPACES,
    ]
    return "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 12)))


def test_camel_words_split_every_relationship_type_as_the_regex_does():
    for token in RELATIONSHIP_TOKENS:
        assert _camel_words(token) == CAMEL.sub(" ", token), token
    assert _camel_words("UsedByRelationship") == "Used By Relationship"


@pytest.mark.parametrize("alphabet", ["aZ9 _-", "aZ9" + LETTERS + DIGITS + "".join(SPACES)])
def test_camel_words_match_the_regex_on_random_strings(alphabet):
    rng = random.Random(61)
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
        assert _camel_words(text) == CAMEL.sub(" ", text), text


def test_rule_sources_of_every_builtin_table_match_the_regexes():
    sources = [rule.source for fw in FRAMEWORKS for rule in builtin_ruleset(fw).rules]
    assert len(sources) > 100
    for source in sources:
        assert _parenthetical_variants(source) == variants_by_regex(source), source
        assert source_synonyms(source) == synonyms_by_regex(source), source


def test_parentheticals_match_the_regexes_on_random_labels():
    rng = random.Random(62)
    attached = optional = 0
    for _ in range(100_000):
        label = random_label(rng)
        variants = _parenthetical_variants(label)
        assert variants == variants_by_regex(label), label
        assert source_synonyms(label) == synonyms_by_regex(label), label
        attached += len(variants) == 4
        optional += variants[-1] != normalize_name(label)
    # the draw reaches both substitutions often
    assert attached > 10_000 and optional > 10_000


@pytest.mark.parametrize(("label", "variants"), [
    ("person(nel) role", ["person(nel) role", "person role", "personnel role",
                          "person role"]),
    ("a_b(c_d)", ["a_b(c_d)", "a_b", "a_bc_d", "a_b"]),
    ("é(ß)", ["é(ß)", "é", "éß", "é"]),
    ("x (a (b) c) y", ["x (a (b) c) y", "x (a c) y"]),
    ("a (b", ["a (b", "a (b"]),
    ("task (spec)", ["task (spec)", "task"]),
])
def test_parenthetical_examples(label, variants):
    assert _parenthetical_variants(label) == variants == variants_by_regex(label)
