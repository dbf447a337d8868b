"""Reading and writing the pipe-delimited record formats.

All text formats in this package share one escaping rule: a backslash quotes
the next character. The field layer escapes backslash and the pipe
separator; the attribute layer inside a field additionally escapes ";" and
"=". Layers nest cleanly because each one escapes its own backslashes.
Fields are single-line; writers reject embedded line breaks.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import LineError


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
    if "\\" not in value:
        return value
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch == "\\":
            out.append(next(it, ""))
        else:
            out.append(ch)
    return "".join(out)


def split_escaped(value: str, sep: str) -> list[str]:
    """Split on unescaped separators, keeping escapes in the pieces."""
    pieces: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in value:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == sep:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    pieces.append("".join(current))
    return pieces


def join_record(fields: list[str] | tuple[str, ...]) -> str:
    return "|".join(escape_field(f) for f in fields)


def split_record(line: str) -> list[str]:
    """Split a record line into unescaped fields."""
    return [unescape(f) for f in split_escaped(line, "|")]


def iter_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record line.

    Records are newline delimited; a trailing "\\r" is tolerated so CRLF
    files parse. Blank lines and lines starting with "#" are skipped. Line
    numbers are 1-based over the full text, comments included. A line with
    no backslash has nothing to unescape, so str.split gives its fields.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if not line.strip() or line.startswith("#"):
            continue
        yield lineno, split_record(line) if "\\" in line else line.split("|")


def format_attrs(attrs: dict[str, str]) -> str:
    return ";".join(
        f"{escape_item(k)}={escape_item(v)}" for k, v in attrs.items()
    )


def parse_attrs(field: str, lineno: int | None = None) -> dict[str, str]:
    """Parse a k=v;k=v attribute field. Empty input means no attributes."""
    if not field:
        return {}
    attrs: dict[str, str] = {}
    for item in _split(field, ";"):
        parts = _split(item, "=")
        if len(parts) != 2:
            raise LineError(f"malformed attribute {unescape(item)!r}", lineno)
        key, value = unescape(parts[0]), unescape(parts[1])
        if not key:
            raise LineError("attribute with empty key", lineno)
        if key in attrs:
            raise LineError(f"duplicate attribute key {key!r}", lineno)
        attrs[key] = value
    return attrs


def _split(value: str, sep: str) -> list[str]:
    """split_escaped, taking str.split when there is no escape to keep."""
    return split_escaped(value, sep) if "\\" in value else value.split(sep)


def _reject_newline(value: str) -> None:
    if "\n" in value or "\r" in value:
        raise ValueError("field contains a line break")
