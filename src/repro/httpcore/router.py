"""Path-pattern routing for HTTP services.

Routes are registered as ``METHOD`` + path pattern.  Patterns support
``{name}`` segments that capture one path segment into
``request.path_params``, in the style of ExpressJS routes used by the
paper's case-study services (e.g. ``/products/{id}``).
"""

from __future__ import annotations

import re
from typing import Awaitable, Callable

from .errors import RouteNotFound
from .message import Request, Response

Handler = Callable[[Request], Awaitable[Response]]

_SEGMENT = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def compile_pattern(pattern: str) -> re.Pattern[str]:
    """Compile a ``/products/{id}`` style pattern into a regex."""
    if not pattern.startswith("/"):
        raise ValueError(f"route pattern must start with '/': {pattern!r}")
    parts: list[str] = []
    index = 0
    for match in _SEGMENT.finditer(pattern):
        parts.append(re.escape(pattern[index : match.start()]))
        parts.append(f"(?P<{match.group(1)}>[^/]+)")
        index = match.end()
    parts.append(re.escape(pattern[index:]))
    return re.compile("^" + "".join(parts) + "$")


class Router:
    """Maps (method, path) to a handler coroutine."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern[str], Handler]] = []
        self._fallback: Handler | None = None

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register *handler* for *method* requests matching *pattern*."""
        self._routes.append((method.upper(), compile_pattern(pattern), handler))

    def route(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`add`."""

        def decorator(handler: Handler) -> Handler:
            self.add(method, pattern, handler)
            return handler

        return decorator

    def get(self, pattern: str) -> Callable[[Handler], Handler]:
        return self.route("GET", pattern)

    def post(self, pattern: str) -> Callable[[Handler], Handler]:
        return self.route("POST", pattern)

    def put(self, pattern: str) -> Callable[[Handler], Handler]:
        return self.route("PUT", pattern)

    def delete(self, pattern: str) -> Callable[[Handler], Handler]:
        return self.route("DELETE", pattern)

    def set_fallback(self, handler: Handler) -> None:
        """Handler used when no route matches (e.g. catch-all proxying)."""
        self._fallback = handler

    def resolve(self, request: Request) -> Handler:
        """Find the handler for *request*, filling ``request.path_params``.

        Raises :class:`RouteNotFound` when nothing matches and no fallback
        is registered.  A path that matches with a different method is still
        reported as not-found; the 405 distinction is not needed by the
        case study and would complicate the proxy fallback path.
        """
        path = request.path
        for method, pattern, handler in self._routes:
            if method != request.method:
                continue
            match = pattern.match(path)
            if match:
                request.path_params = match.groupdict()
                return handler
        if self._fallback is not None:
            return self._fallback
        raise RouteNotFound(f"{request.method} {path}")
