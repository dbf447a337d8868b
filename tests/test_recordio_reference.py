"""recordio's whole-string readers and writers against the per-character and
per-field references in tests/oracles.py.

The readers code escaped backslashes and separators as "\\n"-led tokens, so
they are compared on seeded random strings over an alphabet dense in "\\",
the separators, "\\r" and the tokens' second characters "0", "1" and "2", and on
hypothesis-drawn text. The tabular parser and writer are compared with the
references on perfbench's escape-heavy trace models.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from riskalign import recordio
from riskalign.eamodel import export_tabular, parse_tabular
from riskalign.errors import LineError

from . import oracles
from .oracles import outcome
from .benchinputs import modules

ALPHABET = "\\\\\\|;=\r012a "  # backslash three times as likely as the rest
DRAWS = 100_000


def random_strings(seed: int, count: int = DRAWS, max_len: int = 12,
                   alphabet: str = ALPHABET) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choices(alphabet, k=rng.randint(0, max_len))) for _ in range(count)]


@pytest.fixture(scope="module")
def strings() -> list[str]:
    return random_strings(10)


def test_split_record_matches_reference(strings):
    for line in strings:
        assert recordio.split_record(line) == oracles.split_record_by_char(line), line


def read_at(sep, split, parse, value):
    """value read as a record line of attribute fields ("|"), as an item
    between two others (";"), or as both the key and the value of one item
    ("=")."""
    if sep == "|":
        return [parse(field, 4) for field in split(value)]
    return parse(f"a=1;{value};z=2" if sep == ";" else f"{value}={value}", 4)


@pytest.mark.parametrize("sep", "|;=")
def test_value_at_each_separator_matches_reference(strings, sep):
    for value in strings:
        assert (outcome(read_at, sep, recordio.split_record, recordio.parse_attrs, value)
                == outcome(read_at, sep, oracles.split_record_by_char,
                           oracles.parse_attrs_by_char, value)), value


def test_attribute_value_matches_reference(strings):
    """Each string as one value, raw and escaped for the attribute layer."""
    for value in strings:
        assert (outcome(recordio.parse_attrs, "k=" + value, 5)
                == outcome(oracles.parse_attrs_by_char, "k=" + value, 5)), value
        if "\r" not in value:  # escape_item rejects a line break
            assert recordio.parse_attrs("k=" + recordio.escape_item(value)) == {"k": value}


def test_parse_attrs_matches_reference(strings):
    for lineno, field in enumerate(strings):
        assert (outcome(recordio.parse_attrs, field, lineno)
                == outcome(oracles.parse_attrs_by_char, field, lineno)), field


# the attribute layer's characters, and fields that pin each escape of it
ATTRIBUTE_ALPHABET = "a\u00e9 =;\\"


def test_parse_attrs_matches_reference_on_attribute_text():
    """parse_attrs codes escaped "\\", ";" and "=" as "\\n"-led tokens, drops
    the other backslashes, splits, and restores the tokens in each piece."""
    for lineno, field in enumerate(random_strings(22, alphabet=ATTRIBUTE_ALPHABET)):
        assert (outcome(recordio.parse_attrs, field, lineno)
                == outcome(oracles.parse_attrs_by_char, field, lineno)), field


@pytest.mark.parametrize("field, read", [
    ("a\\\\;b=c", (LineError, "line 6: malformed attribute 'a\\\\'", 6)),
    ("k=v\\;w", {"k": "v;w"}),
    ("k\\=x=v", {"k=x": "v"}),
    ("k=\\x", {"k": "x"}),
    ("k=v\\", {"k": "v"}),
    ("k\r=v\\\r", {"k\r": "v\r"}),
], ids=["escaped backslash", "escaped ;", "escaped =", "lone \\x", "trailing \\", "CR"])
def test_parse_attrs_reads_each_escape(field, read):
    assert outcome(recordio.parse_attrs, field, 6) == read
    assert outcome(oracles.parse_attrs_by_char, field, 6) == read


def test_iter_records_matches_reference():
    rng = random.Random(13)
    lines = random_strings(14) + ["#" + s for s in random_strings(15, 5_000)] + [""] * 5_000
    for _ in range(DRAWS // 10):
        text = "".join(line + rng.choice(("\n", "\r\n", "\r"))
                       for line in rng.choices(lines, k=rng.randint(0, 10)))
        text = text.removesuffix(rng.choice(("", "\n", "\r\n", "\r")))
        assert list(recordio.iter_records(text)) == list(oracles.iter_records_by_char(text)), text


def test_join_record_matches_reference():
    rng = random.Random(16)
    fields = random_strings(17, 20_000, 6) + ["a\nb", "\n", "x\r\n"]
    for _ in range(DRAWS):
        row = rng.choices(fields, k=rng.randint(0, 6))
        line = outcome(recordio.join_record, row)
        assert line == outcome(oracles.join_record_per_field, row), row
        if isinstance(line, str):
            assert recordio.split_record(line) == (row or [""])


def test_join_records_matches_reference():
    rng = random.Random(18)
    fields = random_strings(19, 5_000, 6)
    for _ in range(DRAWS // 10):
        rows = [tuple(rng.choices(fields, k=rng.randint(0, 5))) for _ in range(rng.randint(0, 5))]
        assert (outcome(recordio.join_records, rows)
                == outcome(oracles.join_records_per_field, rows)), rows


@pytest.mark.parametrize("kind", ["clean", "escaped", "mixed", "line break"])
def test_join_records_matches_per_field_reference_on_documents(kind):
    """join_records checks a whole document once and, only if that fails,
    line by line. Clean documents pass the one check; escaped and mixed ones
    fail it on a backslash or on the pipe count alone; a line break raises
    the per-field reference's ValueError. Row lists and rows may be empty."""
    rng = random.Random(20)
    drawn = random_strings(21, 20_000, 6)
    clean = [s for s in drawn if not any(c in s for c in "\\|\r")]
    escaped = [s for s in drawn if ("\\" in s or "|" in s) and "\r" not in s]
    pipes = [s for s in escaped if "\\" not in s]
    pool = {"clean": clean, "escaped": escaped, "mixed": clean * 20 + escaped + pipes,
            "line break": clean * 20 + escaped + ["a\nb", "\n", "x\r\n", "\r"]}[kind]
    raised = 0
    for _ in range(DRAWS // 10):
        rows = [tuple(rng.choices(pool, k=rng.randint(0, 5))) for _ in range(rng.randint(0, 8))]
        got = outcome(recordio.join_records, iter(rows))  # callers pass generators too
        assert got == outcome(oracles.join_records_per_field, rows), rows
        raised += not isinstance(got, str)
    assert (raised > 0) == (kind == "line break")
    assert recordio.join_records([]) == ""


# hypothesis: the dense alphabet, mixed with any character but a line break
dense_text = st.text(
    alphabet=st.one_of(st.sampled_from(ALPHABET), st.characters(blacklist_characters="\n")),
    max_size=30,
)


@given(dense_text, st.sampled_from("|;="))
def test_readers_match_reference_on_drawn_text(value, sep):
    assert recordio.split_record(value) == oracles.split_record_by_char(value)
    assert (outcome(read_at, sep, recordio.split_record, recordio.parse_attrs, value)
            == outcome(read_at, sep, oracles.split_record_by_char,
                       oracles.parse_attrs_by_char, value))
    assert outcome(recordio.parse_attrs, value, 3) == outcome(oracles.parse_attrs_by_char, value, 3)


@given(st.lists(st.one_of(dense_text, st.just("a\nb")), max_size=6))
def test_join_record_matches_reference_on_drawn_fields(row):
    assert outcome(recordio.join_record, row) == outcome(oracles.join_record_per_field, row)


@given(st.lists(dense_text, max_size=8))
def test_iter_records_matches_reference_on_drawn_lines(lines):
    text = "\n".join(lines)
    assert list(recordio.iter_records(text)) == list(oracles.iter_records_by_char(text))


# parse_attrs rejects a line break anywhere in a field: in a value, after an
# escape, in a later item and in a key. Those rows keep the ids of the
# per-layer readers parse_attrs replaced.
@pytest.mark.parametrize("read", [
    recordio.split_record,
    lambda text: recordio.parse_attrs("k=" + text, 1),
    lambda text: recordio.parse_attrs("k=\\|" + text, 1),
    lambda text: recordio.parse_attrs("k=v;" + text, 1),
    lambda text: recordio.parse_attrs(text + "=v", 1),
    lambda text: recordio.parse_attrs(text, 1),
], ids=["split_record", "unescape", "split_escaped|", "split_escaped;", "split_escaped=",
        "parse_attrs"])
@pytest.mark.parametrize("text", ["a\nb", "a\\\nb", "\\\\\n", "k=v\n", "\n\\|"])
def test_readers_reject_a_line_break(read, text):
    with pytest.raises(ValueError, match="line break"):
        read(text)


@pytest.fixture(scope="module")
def trace_texts() -> list[str]:
    """Tabular texts of seeded perfbench trace models, half the names escaped."""
    with modules():
        import gen

        return [gen.tabular_text(gen.trace_model(random.Random(seed), 400))
                for seed in range(8)]


def test_tabular_parse_and_export_match_reference(trace_texts):
    escaped = sum(text.count("\\") for text in trace_texts)
    assert escaped > 1000  # the models do exercise the escaped path
    for text in trace_texts:
        model = parse_tabular(text)
        reference = oracles.parse_tabular_checked_twice(text)
        assert model == reference
        assert list(model.elements.values()) == list(reference.elements.values())
        assert export_tabular(model) == oracles.export_tabular_per_field(reference)
        assert parse_tabular(export_tabular(model)) == model
