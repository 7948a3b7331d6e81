"""Case-insensitive multi-valued HTTP headers.

HTTP header field names are case-insensitive (RFC 7230 section 3.2) and a
field may appear several times (most importantly ``Set-Cookie``).  This
module provides a small mapping type that preserves insertion order and the
original casing for serialization while comparing names case-insensitively.

A field name is lower-cased **once**, when the field is parsed or added;
lookups, the serializer and the forwarding copy compare the stored key.
"""

from __future__ import annotations

from typing import Iterable

#: Never forwarded by a reverse proxy: the hop-by-hop fields of RFC 7230
#: section 6.1, plus ``Host``, which each hop writes for its own upstream.
_NOT_FORWARDED = frozenset(
    ("connection", "keep-alive", "te", "transfer-encoding", "upgrade", "host")
)


class Headers:
    """An ordered, case-insensitive multimap of header fields."""

    __slots__ = ("_fields",)

    def __init__(self, items: Iterable[tuple[str, str]] | dict[str, str] | None = None):
        #: ``(lowered name, name as given, value)`` per field.
        self._fields: list[tuple[str, str, str]] = []
        if items is None:
            return
        pairs = items.items() if isinstance(items, dict) else items
        for name, value in pairs:
            self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a field without touching existing fields of the same name."""
        name = str(name)
        self._fields.append((name.lower(), name, str(value)))

    def set(self, name: str, value: str) -> None:
        """Replace every field called *name* with a single field."""
        name = str(name)
        key = name.lower()
        self._fields = [field for field in self._fields if field[0] != key]
        self._fields.append((key, name, str(value)))

    def setdefault(self, name: str, value: str) -> str:
        """Add *name* only if absent; return the effective value."""
        existing = self.get(name)
        if existing is not None:
            return existing
        self.add(name, value)
        return value

    def merge(self, name: str, value: str, separator: str) -> None:
        """Join *value* onto the first field called *name*, in place, or
        add the field when there is none (``Cookie`` pairs join on "; ")."""
        wanted = name.lower()
        for index, (key, existing, current) in enumerate(self._fields):
            if key == wanted:
                self._fields[index] = (key, existing, f"{current}{separator}{value}")
                return
        self._fields.append((wanted, str(name), str(value)))

    def remove(self, name: str) -> None:
        """Drop every field called *name*; silently ignore absent names."""
        wanted = name.lower()
        self._fields = [field for field in self._fields if field[0] != wanted]

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return the first value for *name*, or *default*."""
        wanted = name.lower()
        for key, _, value in self._fields:
            if key == wanted:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        """Return every value for *name*, in insertion order."""
        wanted = name.lower()
        return [value for key, _, value in self._fields if key == wanted]

    def wire_head(self, start_line: str, framing: str) -> bytes:
        """A message head as wire bytes: *start_line*, every field except
        the framing fields, then *framing* — the ``Content-Length`` or
        ``Transfer-Encoding`` line for the body actually sent.  A stale one
        (say, from a chunked message that was buffered) must not survive,
        or the peer reads chunk framing that is not there."""
        lines = [start_line]
        append = lines.append
        for key, name, value in self._fields:
            if key != "content-length" and key != "transfer-encoding":
                append(f"{name}: {value}\r\n")
        append(framing)
        return "".join(lines).encode("latin-1")

    def copy(self) -> "Headers":
        return Headers._adopt(list(self._fields))

    @classmethod
    def _adopt(cls, fields: list[tuple[str, str, str]]) -> "Headers":
        """Wrap an already-keyed field list, taking ownership of it."""
        headers = cls.__new__(cls)
        headers._fields = fields
        return headers

    def forward_copy(self) -> "Headers":
        """**The** forwarding overlay: the fields a reverse proxy passes
        upstream, as a fresh object — the gateway and the Bifrost proxy
        all start from it and append their own ``Host`` (and markers).
        Hop-by-hop fields, fields nominated by ``Connection`` (RFC 7230
        section 6.1) and ``Host`` are left out; everything else keeps its
        order, casing and repetitions.  The receiver is never mutated."""
        drop = _NOT_FORWARDED
        nominated = self.get_all("connection")
        if nominated:
            drop = drop.union(
                token.strip().lower() for value in nominated for token in value.split(",")
            )
        return Headers._adopt([field for field in self._fields if field[0] not in drop])
