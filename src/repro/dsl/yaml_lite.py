"""A from-scratch YAML-subset parser for the Bifrost DSL.

The paper's DSL is "an internal DSL on top of YAML as a host language"
(section 4.2.2).  Strategy documents only ever use a small, regular part
of YAML, which this module implements without external dependencies:

* block mappings (``key: value`` / ``key:`` + indented block),
* block sequences (``- item``, including ``- key: value`` mapping items),
* scalars: null (``null``/``~``/empty), booleans, ints, floats, plain and
  quoted strings,
* flow sequences of scalars (``[a, b, c]``),
* ``#`` comments (full-line and trailing) and blank lines.

Unsupported YAML (anchors, aliases, multi-document streams, flow mappings,
block scalars, tabs for indentation) raises :class:`YamlError` with a line
number rather than silently misparsing, as does a document nested deeper
than :data:`MAX_DEPTH` levels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any


class YamlError(Exception):
    """The document is not in the supported YAML subset."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")


class LocatedMap(dict):
    """A parsed block mapping that remembers where it came from.

    Behaves exactly like a ``dict`` (equality, iteration, serialization)
    but additionally records the 1-based source line of the mapping itself
    (``line``) and of every key (``key_lines``), plus the 1-based start
    column of the mapping (``column``) and of every key (``key_columns``),
    so downstream tooling — the lint engine in particular — can point
    diagnostics at the offending YAML position instead of an abstract
    document path.
    """

    __slots__ = ("line", "column", "key_lines", "key_columns")

    def __init__(self, line: int | None = None, column: int | None = None):
        super().__init__()
        self.line = line
        self.column = column
        self.key_lines: dict[str, int] = {}
        self.key_columns: dict[str, int] = {}


class LocatedList(list):
    """A parsed block sequence carrying its source line and column."""

    __slots__ = ("line", "column")

    def __init__(self, line: int | None = None, column: int | None = None):
        super().__init__()
        self.line = line
        self.column = column


def node_line(value: Any) -> int | None:
    """The source line a parsed node started on, if it is known."""
    return getattr(value, "line", None)


def node_column(value: Any) -> int | None:
    """The 1-based source column a parsed node started on, if known."""
    return getattr(value, "column", None)


def key_line(mapping: Any, key: str) -> int | None:
    """The source line of ``key:`` within a parsed mapping, if known.

    Falls back to the mapping's own line so callers always get *some*
    anchor when the mapping was parsed from text.
    """
    lines = getattr(mapping, "key_lines", None)
    if lines is not None and key in lines:
        return lines[key]
    return node_line(mapping)


def key_column(mapping: Any, key: str) -> int | None:
    """The 1-based column of ``key:`` within a parsed mapping, if known.

    Unlike :func:`key_line` there is no fallback to the mapping's own
    column — a column anchor is only useful when it is exact.
    """
    columns = getattr(mapping, "key_columns", None)
    if columns is not None and key in columns:
        return columns[key]
    return None


@dataclass(frozen=True)
class _Line:
    number: int  # 1-based, for error messages
    indent: int
    content: str  # stripped of indentation and comments


#: A plain key runs to the first ``:`` followed by whitespace or the end of
#: the line; a ``:`` inside it (``a:b``) belongs to the key, as in YAML.
_PLAIN_KEY = re.compile(r"(?P<key>[^:\s'\"](?:[^:]|:(?!\s|$))*?)\s*:(?:\s+|$)")
_SEPARATOR = re.compile(r"\s*:(?:\s+|$)")


def _closing_quote(text: str) -> int | None:
    """Index of the quote closing the string *text* opens, if any."""
    quote = text[0]
    index = 1
    while index < len(text):
        char = text[index]
        if quote == '"' and char == "\\":
            index += 2
            continue
        if char == quote:
            return index
        index += 1
    return None


def _split_key(content: str) -> tuple[str, str] | None:
    """``(key token, inline value)`` of a ``key: value`` line, else ``None``.

    The separator is looked for outside quotes: a quoted key may contain
    ``": "`` itself, and a quoted scalar (``"x: y"``) is no mapping line.
    """
    if content[:1] in ("'", '"'):
        end = _closing_quote(content)
        if end is None:
            return None
        match = _SEPARATOR.match(content, end + 1)
        if match is None:
            return None
        return content[: end + 1], content[match.end():].strip()
    match = _PLAIN_KEY.match(content)
    if match is None:
        return None
    return match.group("key").strip(), content[match.end():].strip()


def _strip_comment(text: str, line_number: int) -> str:
    """Remove a trailing comment, respecting quoted strings.

    Inside double quotes, backslash escapes are honored (``\\"`` does not
    close the string, ``\\\\"`` does); single-quoted strings have no
    escapes in this subset.
    """
    quote: str | None = None
    index = 0
    while index < len(text):
        char = text[index]
        if quote == '"' and char == "\\":
            index += 2  # skip the escaped character
            continue
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "#" and (index == 0 or text[index - 1] in " \t"):
            return text[:index].rstrip()
        index += 1
    if quote:
        raise YamlError(f"unterminated {quote} quote", line_number)
    return text.rstrip()


def _logical_lines(text: str) -> list[_Line]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", number)
        without_comment = _strip_comment(raw, number)
        stripped = without_comment.strip()
        if not stripped:
            continue
        if stripped == "---":
            if lines:
                raise YamlError("multi-document streams are not supported", number)
            continue  # leading document marker is tolerated
        if stripped.startswith(("&", "*", "|", ">")):
            raise YamlError(
                f"unsupported YAML feature at {stripped[:10]!r}", number
            )
        indent = len(without_comment) - len(without_comment.lstrip(" "))
        lines.append(_Line(number, indent, stripped))
    return lines


def parse_scalar(token: str, line_number: int | None = None) -> Any:
    """Interpret one scalar token."""
    if token == "":
        return None
    if token[0] in "'\"":
        quote = token[0]
        if len(token) < 2 or token[-1] != quote:
            raise YamlError(f"unterminated quoted string: {token!r}", line_number)
        body = token[1:-1]
        if quote == '"':
            body = (
                body.replace("\\\\", "\x00")
                .replace('\\"', '"')
                .replace("\\n", "\n")
                .replace("\\t", "\t")
                .replace("\x00", "\\")
            )
        return body
    lowered = token.lower()
    if lowered in ("null", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if re.fullmatch(r"[+-]?\d+", token):
        try:
            return int(token)
        except ValueError:  # past the interpreter's digit limit
            raise YamlError(f"integer too long: {token[:10]!r}...", line_number) from None
    if re.fullmatch(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?", token) and any(
        c in token for c in ".eE"
    ):
        return float(token)
    if token.startswith("["):
        return _parse_flow_sequence(token, line_number)
    if token == "{}":
        return {}
    if token.startswith("{"):
        raise YamlError("flow mappings are not supported", line_number)
    if token.startswith(("&", "*")) or token in ("|", "|-", "|+", ">", ">-", ">+"):
        raise YamlError(
            f"unsupported YAML feature at {token[:10]!r}", line_number
        )
    return token


def _parse_flow_sequence(token: str, line_number: int | None) -> list[Any]:
    if not token.endswith("]"):
        raise YamlError(f"unterminated flow sequence: {token!r}", line_number)
    inner = token[1:-1].strip()
    if not inner:
        return []
    if "[" in inner or "{" in inner:
        raise YamlError("nested flow collections are not supported", line_number)
    return [parse_scalar(part.strip(), line_number) for part in inner.split(",")]


#: Deepest nesting of block mappings and sequences a document may have.
#: The parser recurses once per level, so a deeper document would exhaust
#: Python's stack; strategy documents nest fewer than a dozen levels.
MAX_DEPTH = 100


def _check_depth(depth: int, line: _Line | None) -> None:
    if depth > MAX_DEPTH:
        raise YamlError(
            f"document nests deeper than {MAX_DEPTH} levels",
            line.number if line is not None else None,
        )


class _Parser:
    def __init__(self, lines: list[_Line]):
        self._lines = lines
        self._index = 0

    def parse_document(self) -> Any:
        if not self._lines:
            return None
        value = self._parse_block(self._lines[0].indent, 1)
        if self._index < len(self._lines):
            line = self._lines[self._index]
            raise YamlError(
                f"unexpected content at indent {line.indent}: {line.content!r}",
                line.number,
            )
        return value

    def _peek(self) -> _Line | None:
        if self._index < len(self._lines):
            return self._lines[self._index]
        return None

    # The block parsers recurse once per nesting level; *depth* is the
    # level of the mapping or sequence being parsed, 1 at the top, see
    # MAX_DEPTH.
    def _parse_block(self, indent: int, depth: int) -> Any:
        line = self._peek()
        assert line is not None
        if line.content.startswith("- ") or line.content == "-":
            return self._parse_sequence(indent, depth)
        if _split_key(line.content):
            return self._parse_mapping(indent, depth)
        # A lone scalar document / value.
        self._index += 1
        return parse_scalar(line.content, line.number)

    def _parse_mapping(self, indent: int, depth: int) -> dict[str, Any]:
        first = self._peek()
        _check_depth(depth, first)
        mapping = LocatedMap(
            first.number if first is not None else None,
            first.indent + 1 if first is not None else None,
        )
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                return mapping
            if line.indent > indent:
                raise YamlError(
                    f"unexpected indentation {line.indent} (expected {indent})",
                    line.number,
                )
            split = _split_key(line.content)
            if split is None:
                if line.content.startswith("- ") or line.content == "-":
                    return mapping  # sibling sequence ends this mapping
                raise YamlError(f"expected 'key: value', got {line.content!r}", line.number)
            token, remainder = split
            key = parse_scalar(token, line.number)
            if not isinstance(key, str):
                key = str(key)
            if key in mapping:
                raise YamlError(f"duplicate mapping key {key!r}", line.number)
            self._index += 1
            mapping.key_lines[key] = line.number
            mapping.key_columns[key] = line.indent + 1
            if remainder:
                mapping[key] = parse_scalar(remainder, line.number)
            else:
                mapping[key] = self._parse_nested(indent, depth + 1)

    def _parse_nested(self, parent_indent: int, depth: int) -> Any:
        """Value of a ``key:`` with nothing inline: a nested block or null."""
        line = self._peek()
        if line is None or line.indent <= parent_indent:
            # "key:" with no indented block under it...
            if (
                line is not None
                and line.indent == parent_indent
                and (line.content.startswith("- ") or line.content == "-")
            ):
                # ...except sequences, which YAML allows at the same indent.
                return self._parse_sequence(parent_indent, depth)
            return None
        return self._parse_block(line.indent, depth)

    def _parse_sequence(self, indent: int, depth: int) -> list[Any]:
        first = self._peek()
        _check_depth(depth, first)
        items = LocatedList(
            first.number if first is not None else None,
            first.indent + 1 if first is not None else None,
        )
        while True:
            line = self._peek()
            if line is None or line.indent != indent:
                if line is not None and line.indent > indent:
                    raise YamlError(
                        f"unexpected indentation {line.indent} (expected {indent})",
                        line.number,
                    )
                return items
            if line.content == "-":
                self._index += 1
                nested = self._peek()
                if nested is None or nested.indent <= indent:
                    items.append(None)
                else:
                    items.append(self._parse_block(nested.indent, depth + 1))
                continue
            if not line.content.startswith("- "):
                return items
            remainder = line.content[2:].strip()
            item_indent = indent + 2
            if _split_key(remainder):
                # "- key: value": the item is a mapping whose first entry is
                # inline; rewrite the line and parse a mapping at item depth.
                self._lines[self._index] = _Line(line.number, item_indent, remainder)
                items.append(self._parse_mapping(item_indent, depth + 1))
            else:
                self._index += 1
                items.append(parse_scalar(remainder, line.number))


def loads(text: str) -> Any:
    """Parse a YAML-subset document into Python objects."""
    return _Parser(_logical_lines(text)).parse_document()


def dumps(value: Any, indent: int = 0) -> str:
    """Render Python objects back to the YAML subset (round-trippable)."""
    return "".join(_dump(value, indent)) or "null\n"


def _dump(value: Any, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return [f"{pad}{{}}\n"]  # only place flow syntax appears
        chunks = []
        for key, item in value.items():
            # Quote ambiguous keys (numeric-looking, quotes, ...) so they
            # reload as the same strings.
            rendered_key = _dump_scalar(str(key))
            if isinstance(item, (dict, list)) and item:
                chunks.append(f"{pad}{rendered_key}:\n")
                chunks.extend(_dump(item, indent + 2))
            else:
                chunks.append(f"{pad}{rendered_key}: {_dump_scalar(item)}\n")
        return chunks
    if isinstance(value, list):
        if not value:
            return [f"{pad}[]\n"]
        chunks = []
        for item in value:
            if isinstance(item, dict) and item:
                rendered = _dump(item, indent + 2)
                first = rendered[0].lstrip()
                chunks.append(f"{pad}- {first}")
                chunks.extend(rendered[1:])
            elif isinstance(item, list) and item:
                raise YamlError("nested block sequences cannot be serialized")
            else:
                chunks.append(f"{pad}- {_dump_scalar(item)}\n")
        return chunks
    return [f"{pad}{_dump_scalar(value)}\n"]


def _dump_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, dict) and not value:
        return "{}"
    if isinstance(value, list) and not value:
        return "[]"
    text = str(value)
    needs_quoting = (
        text == ""
        or text.strip() != text
        or text[0] in "-?:#&*!|>'\"%@`[]{}"
        or ": " in text
        or text.endswith(":")
        # Quote characters and hashes anywhere would confuse the
        # comment/quote scanner on reload, and a line break would end
        # the scalar; play safe and quote (both escape below).
        or any(c in text for c in "'\"#\n\t")
        or text.lower() in ("null", "~", "true", "false")
        # Must match everything parse_scalar would read back as a number.
        or re.fullmatch(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?", text) is not None
    )
    if needs_quoting:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    return text
