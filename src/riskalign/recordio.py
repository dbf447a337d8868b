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


def unescape(value: str) -> str:
    """Remove one level of backslash escaping."""
    if "\n" in value:
        raise ValueError(_LINE_BREAK)
    if "\\" not in value:
        return value
    return value.replace("\\\\", "\n").replace("\\", "").replace("\n", "\\")


def split_escaped(value: str, sep: str) -> list[str]:
    """Split on unescaped sep ("|", ";" or "="), keeping escapes in the pieces."""
    if "\n" in value:
        raise ValueError(_LINE_BREAK)
    if "\\" not in value:
        return value.split(sep)
    escaped_sep = "\\" + sep
    coded = value.replace("\\\\", "\n0").replace(escaped_sep, "\n1")
    return [
        piece.replace("\n1", escaped_sep).replace("\n0", "\\\\") if "\n" in piece else piece
        for piece in coded.split(sep)
    ]


def join_record(fields: list[str] | tuple[str, ...]) -> str:
    """One record line; only one with a backslash, pipe or line break in a field is escaped."""
    line = "|".join(fields)
    if "\\" in line or "\n" in line or "\r" in line or line.count("|") != len(fields) - 1:
        return "|".join([escape_field(f) for f in fields])
    return line


def join_records(rows: Iterable[list[str] | tuple[str, ...]]) -> str:
    """A records document: one joined line per row, each ended by a newline."""
    return "".join([join_record(row) + "\n" for row in rows])


def split_list(text: str) -> tuple[str, ...]:
    """Split a comma-separated list, dropping blanks around and between items."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def split_record(line: str) -> list[str]:
    """Split a record line into unescaped fields."""
    if "\n" in line:
        raise ValueError(_LINE_BREAK)
    if "\\" not in line:
        return line.split("|")
    # escaped "\\" and "|" become tokens; other escapes go and "\\" returns before the split
    coded = line.replace("\\\\", "\n0").replace("\\|", "\n1").replace("\\", "").replace("\n0", "\\")
    fields = coded.split("|")
    return [field.replace("\n1", "|") for field in fields] if "\n" in coded else fields


def iter_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record line.

    Records are newline delimited; a trailing "\\r" is tolerated so CRLF
    files parse. Blank lines and lines starting with "#" are skipped. Line
    numbers are 1-based over the full text, comments included.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if not line.strip() or line.startswith("#"):
            continue
        yield lineno, split_record(line)


def format_attrs(attrs: dict[str, str]) -> str:
    return ";".join(
        f"{escape_item(k)}={escape_item(v)}" for k, v in attrs.items()
    )


def parse_attrs(field: str, lineno: int | None = None) -> dict[str, str]:
    """Parse a k=v;k=v attribute field. Empty input means no attributes."""
    if not field:
        return {}
    attrs: dict[str, str] = {}
    for item in split_escaped(field, ";"):
        parts = split_escaped(item, "=")
        if len(parts) != 2:
            raise LineError(f"malformed attribute {unescape(item)!r}", lineno)
        key, value = unescape(parts[0]), unescape(parts[1])
        if not key:
            raise LineError("attribute with empty key", lineno)
        if key in attrs:
            raise LineError(f"duplicate attribute key {key!r}", lineno)
        attrs[key] = value
    return attrs


def _reject_newline(value: str) -> None:
    if "\n" in value or "\r" in value:
        raise ValueError("field contains a line break")
