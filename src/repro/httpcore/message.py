"""HTTP/1.1 request and response messages.

This is the wire-level substrate under the Bifrost proxies and the case-study
microservices: the subset of RFC 7230 that the paper's stack (Node.js
``http`` + node-http-proxy) exercises — start lines, case-insensitive
repeatable headers (:mod:`repro.httpcore.headers`), ``Content-Length`` and
``Transfer-Encoding: chunked`` framing, and JSON accessors, since every
case-study service speaks JSON.

A body is either buffered — ``.body`` as whole ``bytes``, what handlers and
tests see by default — or streamed: a
:class:`~repro.httpcore.stream.BodyStream` on ``.stream`` whose chunks
transit bounded, and ``await aread()`` buffers it into ``.body``.
:func:`read_request` and :func:`read_response` turn one head (start line
through the blank line) into a message; framing the bytes off the wire is
:class:`~repro.httpcore.connection.HttpConnection`'s job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator
from urllib.parse import unquote, unquote_to_bytes, urlsplit

from .cookies import parse_cookie_header
from .errors import ProtocolError
from .headers import Headers
from .stream import BodyStream

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
#: ``framing`` of a message whose head declared ``Transfer-Encoding: chunked``.
CHUNKED = -1

#: Minimal status-code reason phrases; unknown codes render as "Unknown".
REASON_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Body:
    """Body access shared by :class:`Request` and :class:`Response`."""

    body: bytes
    stream: BodyStream | None

    def json(self) -> Any:
        """Decode the body as JSON; raises :class:`ProtocolError` if invalid.

        A body nested too deep for the decoder's recursion is invalid too.
        """
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc

    async def aread(self) -> bytes:
        """The whole body, buffering :attr:`stream` into :attr:`body` first.

        The compatibility bridge for handlers that want the full payload
        of a streamed message; a no-op on buffered messages.
        """
        if self.stream is not None:
            self.body = self.body + await self.stream.read()
            self.stream = None
        return self.body

    def iter_body(self) -> AsyncIterator[bytes]:
        """The body as an async chunk iterator, whichever form it is in."""
        if self.stream is not None:
            return self.stream
        return _buffered_chunks(self.body)


@dataclass
class Request(_Body):
    """An HTTP request as seen by servers and produced by clients."""

    method: str
    target: str
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    http_version: str = "HTTP/1.1"
    #: Streaming body, when read with ``stream=True`` or built around a
    #: chunk source.  ``body`` stays empty until :meth:`aread` buffers it.
    stream: BodyStream | None = field(default=None, repr=False, compare=False)
    #: Path parameters extracted by the router (e.g. ``{"id": "42"}``).
    path_params: dict[str, str] = field(default_factory=dict)
    #: The peer sent ``Connection: close`` (resolved while the head was
    #: parsed; the server's keep-alive decision reads this, not the headers).
    connection_close: bool = field(default=False, repr=False, compare=False)
    #: The body framing the parsed head declared: a ``Content-Length``,
    #: :data:`CHUNKED`, or ``None`` for no body.
    framing: int | None = field(default=None, repr=False, compare=False)
    # Per-object parse caches, keyed on the raw input so header or target
    # mutation invalidates them.  The proxy reads ``cookies`` and ``path``
    # several times per request; each used to re-parse from scratch.
    _url_cache: tuple[str, str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _cookie_cache: tuple[str | None, dict[str, str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _split_target(self) -> tuple[str, str, str]:
        """``(target, path, query)``, split once per distinct target."""
        cached = self._url_cache
        target = self.target
        if cached is None or cached[0] != target:
            if target.startswith("/"):
                # Origin form (RFC 7230 §5.3.1): everything up to the first
                # "?" is the path, even when it starts with "//" — urlsplit
                # would read "//host/..." as an authority.
                path, _, query = target.partition("#")[0].partition("?")
            else:
                parts = urlsplit(target)
                path, query = parts.path, parts.query
            cached = self._url_cache = (target, path, query)
        return cached

    @property
    def path(self) -> str:
        """The path component of the request target (no query string)."""
        return self._split_target()[1] or "/"

    @property
    def query(self) -> dict[str, str]:
        """Query-string parameters; later duplicates win.

        Exactly ``dict(urllib.parse.parse_qsl(query))``: pairs split on
        ``&``, a pair without ``=`` or with an empty value is dropped,
        ``+`` is a space and percent-escapes decode as UTF-8 with
        replacement.  ``tests/property/test_query_decoding.py`` holds it
        to that oracle.
        """
        params: dict[str, str] = {}
        query = self._split_target()[2]
        if query:
            for pair in query.split("&"):
                name, _, value = pair.partition("=")
                if value:
                    params[_unquote_plus(name)] = _unquote_plus(value)
        return params

    @property
    def cookies(self) -> dict[str, str]:
        """Cookies sent by the client via the ``Cookie`` header.

        Parsed once per distinct ``Cookie`` header value; callers must not
        mutate the returned mapping.
        """
        raw = self.headers.get("Cookie")
        cached = self._cookie_cache
        if cached is None or cached[0] != raw:
            cached = (raw, parse_cookie_header(raw))
            self._cookie_cache = cached
        return cached[1]

    def serialize(self) -> bytes:
        """Render the request as HTTP/1.1 wire bytes.

        Single join + single encode: no header copy, no per-line encode.
        Any caller-supplied ``Content-Length`` is superseded by the actual
        body length (matching the old copy-and-set behaviour).
        """
        head = self.headers.wire_head(
            f"{self.method} {self.target} {self.http_version}\r\n",
            f"Content-Length: {len(self.body)}\r\n\r\n",
        )
        return head + self.body

    def serialize_head(self) -> bytes:
        """Wire bytes for the head of a **streamed** request: framing is
        taken from :attr:`stream` (``Content-Length`` when the length is
        known, ``Transfer-Encoding: chunked`` otherwise)."""
        return self.headers.wire_head(
            f"{self.method} {self.target} {self.http_version}\r\n",
            _stream_framing(self.stream),
        )


@dataclass
class Response(_Body):
    """An HTTP response as produced by servers and consumed by clients."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    http_version: str = "HTTP/1.1"
    #: Streaming body — see :class:`Request.stream`.
    stream: BodyStream | None = field(default=None, repr=False, compare=False)
    #: The peer sent ``Connection: close``: the client will not pool it.
    connection_close: bool = field(default=False, repr=False, compare=False)
    #: See :attr:`Request.framing`.
    framing: int | None = field(default=None, repr=False, compare=False)

    @property
    def reason(self) -> str:
        return REASON_PHRASES.get(self.status, "Unknown")

    @classmethod
    def streaming(
        cls,
        chunks: "BodyStream | AsyncIterator[bytes]",
        status: int = 200,
        headers: Headers | None = None,
        length: int | None = None,
    ) -> "Response":
        """Build a response whose body is produced as it is sent."""
        stream = (
            chunks
            if isinstance(chunks, BodyStream)
            else BodyStream.from_iterable(chunks, length=length)
        )
        return cls(
            status=status,
            headers=headers.copy() if headers is not None else Headers(),
            stream=stream,
        )

    @classmethod
    def from_json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Headers | None = None,
    ) -> "Response":
        """Build a JSON response with the right ``Content-Type``."""
        response = cls(
            status=status,
            headers=headers.copy() if headers is not None else Headers(),
            body=json.dumps(payload).encode("utf-8"),
        )
        response.headers.setdefault("Content-Type", "application/json")
        return response

    @classmethod
    def text(cls, text: str, status: int = 200) -> "Response":
        """Build a plain-text response."""
        response = cls(status=status, body=text.encode("utf-8"))
        response.headers.set("Content-Type", "text/plain; charset=utf-8")
        return response

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "Response":
        """Build an HTML response."""
        response = cls(status=status, body=markup.encode("utf-8"))
        response.headers.set("Content-Type", "text/html; charset=utf-8")
        return response

    def copy(self) -> "Response":
        return Response(
            status=self.status,
            headers=self.headers.copy(),
            body=self.body,
            http_version=self.http_version,
        )

    def serialize(self) -> bytes:
        """Render the response as HTTP/1.1 wire bytes (single join +
        single encode, no header copy — see :meth:`Request.serialize`)."""
        head = self.headers.wire_head(
            f"{self.http_version} {self.status} {self.reason}\r\n",
            f"Content-Length: {len(self.body)}\r\n\r\n",
        )
        return head + self.body

    def serialize_head(self) -> bytes:
        """Wire bytes for the head of a **streamed** response — see
        :meth:`Request.serialize_head`."""
        return self.headers.wire_head(
            f"{self.http_version} {self.status} {self.reason}\r\n",
            _stream_framing(self.stream),
        )


def _unquote_plus(part: str) -> str:
    """``parse_qsl``'s decoding of one name or value, minus its generality:
    only a part with an escape is unquoted, and an ASCII one (every
    well-formed target) skips ``unquote``'s split into ASCII runs."""
    if "+" in part:
        part = part.replace("+", " ")
    if "%" not in part:
        return part
    if part.isascii():
        return unquote_to_bytes(part).decode("utf-8", "replace")
    return unquote(part)


async def _buffered_chunks(body: bytes) -> AsyncIterator[bytes]:
    if body:
        yield body


def _stream_framing(stream: BodyStream | None) -> str:
    """The framing line of a streamed head: caller-supplied framing
    headers are superseded by the stream's actual framing."""
    if stream is None:
        raise ValueError("serialize_head() needs a streaming body")
    if stream.length is not None:
        return f"Content-Length: {stream.length}\r\n\r\n"
    return "Transfer-Encoding: chunked\r\n\r\n"


#: The fields the head parser resolves while it builds the header list.
_RESOLVED_IN_PARSE = frozenset(("content-length", "transfer-encoding", "connection"))


def _parse_fields(lines: list[str]) -> tuple[Headers, int | None, bool, bool]:
    """Parse the field lines after the start line, in one pass, into
    ``(headers, content_length, chunked, connection_close)``.

    Each name is lower-cased once, here (see :class:`Headers`), and the
    first ``Transfer-Encoding``, ``Content-Length`` and ``Connection``
    values are picked up on the way, so framing and persistence need no
    second scan.  ``Transfer-Encoding`` wins over ``Content-Length`` (RFC
    7230 §3.3.3), the only transfer coding we speak is ``chunked``, and
    ``(None, False)`` means "no body".  Otherwise a ``Content-Length`` is
    ``1*DIGIT`` and every repeat of it must carry the same value.
    """
    fields: list[tuple[str, str, str]] = []
    found: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        if not name or name != name.strip():
            # RFC 7230: no whitespace between field name and colon.
            raise ProtocolError(f"malformed header name: {name!r}")
        key = name.lower()
        value = value.strip()
        fields.append((key, name, value))
        if key in _RESOLVED_IN_PARSE:
            first = found.setdefault(key, value)
            if first != value and key == "content-length":
                # Kept as the one comma-joined value they are equivalent to
                # (§3.2.2), which the digits rule below rejects (§3.3.3).
                found[key] = f"{first}, {value}"
    headers = Headers._adopt(fields)
    if not found:
        return headers, None, False, False
    close = found.get("connection", "").lower() == "close"
    encoding = found.get("transfer-encoding")
    if encoding is not None:
        tokens = [
            token.strip().lower()
            for token in encoding.split(",")
            if token.strip()
        ]
        if tokens != ["chunked"]:
            raise ProtocolError(f"unsupported Transfer-Encoding: {encoding!r}")
        return headers, None, True, close
    raw_length = found.get("content-length")
    if raw_length is None:
        return headers, None, False, close
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ProtocolError(f"bad Content-Length: {raw_length!r}")
    return headers, int(raw_length), False, close


def read_request(head: bytes) -> Request:
    """Parse one request head (start line through the blank line)."""
    lines = str(head, "latin-1").split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise ProtocolError(f"bad HTTP version: {version!r}")
    if not target.startswith("/"):
        # An authority urlsplit cannot read ("http://[x/") is a 400 here,
        # not a ValueError out of the first ``.path``.
        try:
            urlsplit(target)
        except ValueError as exc:
            raise ProtocolError(f"bad request target: {target!r}") from exc
    headers, length, chunked, close = _parse_fields(lines)
    return Request(
        method=method.upper(),
        target=target,
        headers=headers,
        http_version=version,
        connection_close=close,
        framing=CHUNKED if chunked else length,
    )


def read_response(head: bytes) -> Response:
    """Parse one response head (status line through the blank line)."""
    lines = str(head, "latin-1").split("\r\n")
    status_line = lines[0]
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line: {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise ProtocolError(f"bad status code: {parts[1]!r}") from exc
    headers, length, chunked, close = _parse_fields(lines)
    return Response(
        status=status,
        headers=headers,
        http_version=parts[0],
        connection_close=close,
        framing=CHUNKED if chunked else length,
    )
