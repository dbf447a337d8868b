import pytest
from hypothesis import given, strategies as st

from riskalign import recordio
from riskalign.errors import LineError

from .oracles import iter_records_by_char, outcome, parse_attrs_by_char

# Single-line text; the container format reserves newlines as record breaks.
field_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r"), max_size=40
)


@given(field_text)
def test_field_escape_round_trip(text):
    assert recordio.split_record(recordio.escape_field(text)) == [text]


@given(field_text)
def test_escaped_field_has_no_bare_separator(text):
    escaped = recordio.escape_field(text)
    unescaped_positions = []
    i = 0
    while i < len(escaped):
        if escaped[i] == "\\":
            i += 2
            continue
        if escaped[i] == "|":
            unescaped_positions.append(i)
        i += 1
    assert unescaped_positions == []


@given(st.lists(field_text, min_size=1, max_size=6))
def test_record_round_trip(fields):
    line = recordio.join_record(fields)
    assert recordio.split_record(line) == list(fields)


@given(
    st.dictionaries(
        st.text(
            alphabet=st.characters(blacklist_characters="\n\r"),
            min_size=1,
            max_size=12,
        ).filter(lambda s: s.strip()),
        field_text,
        max_size=5,
    )
)
def test_attrs_round_trip(attrs):
    encoded = recordio.format_attrs(attrs)
    assert recordio.parse_attrs(encoded, 1) == attrs


# Backslash-free text rich in the separators: the str.split fast paths.
plain_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("|;= "),
        st.characters(blacklist_characters="\\\n\r"),
    ),
    max_size=40,
)


@given(plain_text)
def test_plain_lines_split_like_split_record(line):
    records = list(recordio.iter_records(line))
    line = line.removeprefix("\ufeff")  # iter_records drops a leading byte order mark
    if not line.strip() or line.startswith("#"):
        assert records == []
    else:
        assert records == [(1, recordio.split_record(line))]


@given(plain_text)
def test_plain_attribute_fields_split_like_split_escaped(field):
    # the reference splits with split_escaped_by_char
    assert outcome(recordio.parse_attrs, field, 2) == outcome(parse_attrs_by_char, field, 2)


def test_attrs_with_reserved_characters():
    attrs = {"a;b": "x=y", "c|d": "e\\f"}
    assert recordio.parse_attrs(recordio.format_attrs(attrs), 1) == attrs


def test_parse_attrs_rejects_missing_equals():
    with pytest.raises(LineError) as exc:
        recordio.parse_attrs("novalue", 7)
    assert exc.value.line == 7


def test_parse_attrs_rejects_empty_key():
    with pytest.raises(LineError):
        recordio.parse_attrs("=x", 1)


def test_parse_attrs_rejects_duplicate_key():
    with pytest.raises(LineError):
        recordio.parse_attrs("a=1;a=2", 1)


def test_parse_attrs_empty_string_is_empty():
    assert recordio.parse_attrs("", 1) == {}


def test_iter_records_skips_blanks_and_comments():
    text = "# header\n\nA|1\n  \n# mid\nB|2|x\n"
    records = list(recordio.iter_records(text))
    assert records == [(3, ["A", "1"]), (6, ["B", "2", "x"])]


def test_iter_records_line_numbers_are_one_based():
    records = list(recordio.iter_records("X|y"))
    assert records == [(1, ["X", "y"])]


def test_iter_records_drops_one_leading_byte_order_mark():
    assert list(recordio.iter_records("\ufeffX|y\n")) == [(1, ["X", "y"])]
    assert list(recordio.iter_records("\ufeff# c\nX|y")) == [(2, ["X", "y"])]
    assert list(recordio.iter_records("\ufeff\ufeffX|y")) == [(1, ["\ufeffX", "y"])]
    assert list(recordio.iter_records("X|\ufeffy")) == [(1, ["X", "\ufeffy"])]


@pytest.mark.parametrize("text", [
    "# a path: C:\\models\\lab\nA|1|x\nB||\n",
    "A|1\n# an escaped \\| pipe and a trailing \\\nB|2|\n",
    "# a CRLF comment\r\nA|1\nB|2|y",
    "A|1\n\r\nB|2\n \r \n",
    "A|1\n# a\rb\nB|2\n# the end\r",
    "# \\ and \r\r\n|A||1|\n\r\n\t\r\nB\n",
    "A|1\n# a lone CR ends this comment\rB|2\n",
])
def test_whole_text_checks_leave_plain_records_alone(text):
    # A "\r" ends a line, and the text holds a backslash only in a comment,
    # so every record splits as a plain line would.
    records = list(recordio.iter_records(text))
    assert records == list(iter_records_by_char(text))
    fields = [field for _, record in records for field in record]
    assert fields and not any("\\" in field or "\r" in field for field in fields)


@pytest.mark.parametrize("text", ["A|1\nB|2\n", "A|\\|\nB|2", "A|1\r\nB|2\r\n"],
                         ids=["plain", "escaped", "crlf"])
def test_iter_records_is_a_lazy_iterator(text):
    records = recordio.iter_records(text)
    assert iter(records) is records
    assert next(records)[0] == 1


def test_join_record_rejects_newline():
    with pytest.raises(ValueError):
        recordio.join_record(["a\nb"])


def test_escape_layers_nest():
    # Attr encoding inside a record field survives both escape layers.
    attrs = {"k|1": "v;w=\\"}
    record = recordio.join_record(["E", recordio.format_attrs(attrs)])
    fields = recordio.split_record(record)
    assert recordio.parse_attrs(fields[1], 1) == attrs
