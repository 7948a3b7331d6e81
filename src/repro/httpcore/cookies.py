"""Cookie parsing and formatting.

Bifrost proxies rely on cookies for sticky sessions and A/B bucket
assignment (paper section 4.2.2): the proxy sets an RFC-compliant UUID via
``Set-Cookie`` and re-identifies the client on subsequent requests.  This
module implements the small subset of RFC 6265 needed for that:

* parsing a request ``Cookie`` header into a name/value mapping,
* formatting a ``Set-Cookie`` response header with common attributes.
"""

from __future__ import annotations

from dataclasses import dataclass


def parse_cookie_header(header: str | None) -> dict[str, str]:
    """Parse a request ``Cookie`` header into a dict.

    Later duplicates win, mirroring typical server-side behaviour.  Malformed
    pairs (no ``=``) are skipped rather than raising: cookies come from
    arbitrary clients and must never take a proxy down.
    """
    cookies: dict[str, str] = {}
    if not header:
        return cookies
    for part in header.split(";"):
        part = part.strip()
        if not part or "=" not in part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        if name:
            cookies[name] = value
    return cookies


@dataclass(frozen=True)
class SetCookie:
    """A ``Set-Cookie`` response header value."""

    name: str
    value: str
    path: str = "/"
    max_age: int | None = None
    http_only: bool = True
    secure: bool = False
    same_site: str | None = None

    def format(self) -> str:
        """Render the attribute list for the ``Set-Cookie`` header."""
        parts = [f"{self.name}={self.value}"]
        if self.path:
            parts.append(f"Path={self.path}")
        if self.max_age is not None:
            parts.append(f"Max-Age={self.max_age}")
        if self.http_only:
            parts.append("HttpOnly")
        if self.secure:
            parts.append("Secure")
        if self.same_site:
            parts.append(f"SameSite={self.same_site}")
        return "; ".join(parts)
