"""recordio's whole-string readers and writers against the per-character and
per-field references in tests/oracles.py.

The readers code escaped backslashes and separators as "\\n"-led tokens, so
they are compared on seeded random strings over an alphabet dense in "\\",
the separators, "\\r" and the tokens' second characters "0" and "1", and on
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
from .benchinputs import modules

ALPHABET = "\\\\\\|;=\r01a "  # backslash three times as likely as the rest
DRAWS = 100_000


def random_strings(seed: int, count: int = DRAWS, max_len: int = 12) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choices(ALPHABET, k=rng.randint(0, max_len))) for _ in range(count)]


@pytest.fixture(scope="module")
def strings() -> list[str]:
    return random_strings(10)


def outcome(func, *args):
    """func's result, or its exception's type, message and line."""
    try:
        return func(*args)
    except (LineError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_split_record_matches_reference(strings):
    for line in strings:
        assert recordio.split_record(line) == oracles.split_record_by_char(line), line


@pytest.mark.parametrize("sep", "|;=")
def test_split_escaped_matches_reference(strings, sep):
    for value in strings:
        assert recordio.split_escaped(value, sep) == oracles.split_escaped_by_char(value, sep), value


def test_unescape_matches_reference(strings):
    for value in strings:
        assert recordio.unescape(value) == oracles.unescape_by_char(value), value


def test_parse_attrs_matches_reference(strings):
    for lineno, field in enumerate(strings):
        assert (outcome(recordio.parse_attrs, field, lineno)
                == outcome(oracles.parse_attrs_by_char, field, lineno)), field


def test_iter_records_matches_reference():
    rng = random.Random(13)
    lines = random_strings(14) + ["#" + s for s in random_strings(15, 5_000)] + [""] * 5_000
    for _ in range(DRAWS // 10):
        text = "\n".join(rng.choices(lines, k=rng.randint(0, 10)))
        text += rng.choice(("", "\n", "\r\n"))
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


# hypothesis: the dense alphabet, mixed with any character but a line break
dense_text = st.text(
    alphabet=st.one_of(st.sampled_from(ALPHABET), st.characters(blacklist_characters="\n")),
    max_size=30,
)


@given(dense_text, st.sampled_from("|;="))
def test_readers_match_reference_on_drawn_text(value, sep):
    assert recordio.split_record(value) == oracles.split_record_by_char(value)
    assert recordio.split_escaped(value, sep) == oracles.split_escaped_by_char(value, sep)
    assert recordio.unescape(value) == oracles.unescape_by_char(value)
    assert outcome(recordio.parse_attrs, value, 3) == outcome(oracles.parse_attrs_by_char, value, 3)


@given(st.lists(st.one_of(dense_text, st.just("a\nb")), max_size=6))
def test_join_record_matches_reference_on_drawn_fields(row):
    assert outcome(recordio.join_record, row) == outcome(oracles.join_record_per_field, row)


@given(st.lists(dense_text, max_size=8))
def test_iter_records_matches_reference_on_drawn_lines(lines):
    text = "\n".join(lines)
    assert list(recordio.iter_records(text)) == list(oracles.iter_records_by_char(text))


@pytest.mark.parametrize("read", [
    recordio.split_record,
    recordio.unescape,
    lambda text: recordio.split_escaped(text, "|"),
    lambda text: recordio.split_escaped(text, ";"),
    lambda text: recordio.split_escaped(text, "="),
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
