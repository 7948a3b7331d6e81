"""Minimal asyncio HTTP/1.1 substrate.

Stands in for the Node.js ``http`` module / ExpressJS stack the Bifrost
prototype was built on.  Provides message types, a routing server, a pooled
client, streaming body primitives, and cookie helpers.
"""

from .client import HttpClient
from .connection import HttpConnection
from .cookies import SetCookie, parse_cookie_header
from .errors import (
    BodyTooLarge,
    ConnectionClosed,
    HeaderTooLarge,
    HttpError,
    IncompleteMessage,
    ProtocolError,
    RequestTimeout,
    RouteNotFound,
    StreamAborted,
)
from .headers import Headers
from .message import Request, Response, read_request, read_response
from .router import Handler, Router, compile_pattern
from .server import HttpServer, Middleware
from .stream import (
    CHUNKED_EOF,
    DEFAULT_CHUNK_SIZE,
    BodyStream,
    StreamTee,
    encode_chunk,
    relay_body,
)

__all__ = [
    "BodyStream",
    "BodyTooLarge",
    "CHUNKED_EOF",
    "ConnectionClosed",
    "compile_pattern",
    "DEFAULT_CHUNK_SIZE",
    "encode_chunk",
    "Handler",
    "HeaderTooLarge",
    "Headers",
    "HttpClient",
    "HttpConnection",
    "HttpError",
    "HttpServer",
    "IncompleteMessage",
    "Middleware",
    "parse_cookie_header",
    "ProtocolError",
    "read_request",
    "read_response",
    "relay_body",
    "Request",
    "RequestTimeout",
    "Response",
    "RouteNotFound",
    "Router",
    "SetCookie",
    "StreamAborted",
    "StreamTee",
]
