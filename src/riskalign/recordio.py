"""Reading and writing the pipe-delimited record formats.

All text formats in this package share one escaping rule: a backslash quotes
the next character, and a trailing lone backslash is dropped. The field
layer escapes backslash and the pipe separator; the attribute layer inside a
field additionally escapes ";" and "=". Layers nest cleanly because each one
escapes its own backslashes. Readers and writers take single-line text; both
reject a "\\n" (writers a "\\r" too), so readers code escaped pairs as
"\\n"-led tokens. Pairing backslashes from the left with str.replace matches
a left-to-right scan, because every run of backslashes starts unescaped.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import LineError

_LINE_BREAK = "record text contains a line break"


def escape_field(value: str) -> str:
    _reject_newline(value)
    return value.replace("\\", "\\\\").replace("|", "\\|")


def escape_item(value: str) -> str:
    """Escape an attribute key or value for the k=v;k=v layer."""
    _reject_newline(value)
    return (
        value.replace("\\", "\\\\")
        .replace(";", "\\;")
        .replace("=", "\\=")
    )


def join_record(fields: list[str] | tuple[str, ...]) -> str:
    """One record line; only one with a backslash, pipe or line break in a field is escaped."""
    line = "|".join(fields)
    if "\\" in line or "\n" in line or "\r" in line or line.count("|") != len(fields) - 1:
        return "|".join([escape_field(f) for f in fields])
    return line


def join_records(rows: Iterable[list[str] | tuple[str, ...]]) -> str:
    """A records document: one joined line per row, each ended by a newline.
    A document with a backslash or a pipe in a field is escaped in whole-text
    passes over fields joined by "\\n" and rows by "\\r"; one with a line break
    in a field, or an empty row, is joined row by row, as join_record does."""
    rows = list(rows)
    text = "\n".join([*map("|".join, rows), ""])
    seps = sum(map(len, rows)) - len(rows)
    if ("\\" in text or "\r" in text or text.count("\n") != len(rows)
            or text.count("|") != seps):
        text = "\r".join(map("\n".join, rows))
        if text.count("\r") != len(rows) - 1 or text.count("\n") != seps:
            return "\n".join([*map(join_record, rows), ""])
        text = text.replace("\\", "\\\\").replace("|", "\\|")
        text = text.replace("\n", "|").replace("\r", "\n") + "\n"
    return text


def split_list(text: str) -> tuple[str, ...]:
    """Split a comma-separated list, dropping blanks around and between items."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def split_record(line: str) -> list[str]:
    """Split a record line into unescaped fields."""
    if "\n" in line:
        raise ValueError(_LINE_BREAK)
    return _split_line(line)


def _split_line(line: str) -> list[str]:
    """split_record for a line known to hold no line break."""
    if "\\" not in line:
        return line.split("|")
    # escaped "\\" and "|" become tokens; other escapes go and "\\" returns before the split
    coded = line.replace("\\\\", "\n0").replace("\\|", "\n1").replace("\\", "").replace("\n0", "\\")
    fields = coded.split("|")
    return [field.replace("\n1", "|") for field in fields] if "\n" in coded else fields


def iter_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record line.

    A line ends at "\\n", "\\r\\n" or a lone "\\r", and one leading byte order
    mark is dropped, for every caller of the record parsers. Blank lines and
    lines starting with "#" are skipped. Line numbers are 1-based over the
    full text, comments included.
    """
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = enumerate(text.split("\n"), start=1)
    if "\\" in text:
        return ((lineno, _split_line(line)) for lineno, line in lines
                if line.strip() and line[0] != "#")
    return ((lineno, line.split("|")) for lineno, line in lines
            if line.strip() and line[0] != "#")


def format_attrs(attrs: dict[str, str]) -> str:
    return ";".join(
        f"{escape_item(k)}={escape_item(v)}" for k, v in attrs.items()
    )


def parse_attrs(field: str, lineno: int | None = None) -> dict[str, str]:
    """Parse a k=v;k=v attribute field. Empty input means no attributes."""
    if "\n" in field:
        raise ValueError(_LINE_BREAK)
    if not field:
        return {}
    if "\\" in field:
        # escaped "\\", ";" and "=" become tokens, as in _split_line
        field = (field.replace("\\\\", "\n0").replace("\\;", "\n1")
                 .replace("\\=", "\n2").replace("\\", "").replace("\n0", "\\"))
    attrs: dict[str, str] = {}
    for item in field.split(";"):
        parts = item.split("=")
        if len(parts) != 2:
            raise LineError(f"malformed attribute {_decoded(item)!r}", lineno)
        key, value = _decoded(parts[0]), _decoded(parts[1])
        if not key:
            raise LineError("attribute with empty key", lineno)
        if key in attrs:
            raise LineError(f"duplicate attribute key {key!r}", lineno)
        attrs[key] = value
    return attrs


def _decoded(piece: str) -> str:
    """An attribute item, key or value with its coded ";" and "=" restored."""
    return piece.replace("\n1", ";").replace("\n2", "=") if "\n" in piece else piece


def _reject_newline(value: str) -> None:
    if "\n" in value or "\r" in value:
        raise ValueError("field contains a line break")
