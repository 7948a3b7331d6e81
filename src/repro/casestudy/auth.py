"""The auth service: login and token validation.

"The auth service authenticates and authorizes users based on their
provided e-mail and password, and validates tokens" (section 5.1.1).  It
is deliberately *not* fronted by a Bifrost proxy in the experiments — the
stable service whose traffic is never live-tested.

The service can also act as the external η-injection point for
header-based routing: when a :class:`~repro.core.selection.VersionAssigner`
is attached, logins are answered with the user's test group, which clients
then send as the group header ("the concrete header field has to be
injected somewhere else in the process, e.g., by an external service
called at the user's login", section 4.2.2).
"""

from __future__ import annotations

import uuid

from ..core.selection import VersionAssigner
from ..httpcore import ProtocolError, Request, Response
from .base import InstrumentedService
from .documents import MongoClient


class AuthService(InstrumentedService):
    """Authentication + token validation over the user collection."""

    def __init__(
        self,
        mongo_address: str,
        group_assigner: VersionAssigner | None = None,
        **kwargs,
    ):
        super().__init__(name="auth", **kwargs)
        self._mongo_address = mongo_address
        self.group_assigner = group_assigner
        self._tokens: dict[str, dict[str, str]] = {}
        self.logins_total = self.registry.counter("logins_total", "Successful logins")
        self.validations_total = self.registry.counter(
            "token_validations_total", "Token validation calls"
        )
        self.router.post("/auth/login")(self._handle_login)
        self.router.get("/auth/validate")(self._handle_validate)

    @property
    def mongo(self) -> MongoClient:
        return MongoClient(self._mongo_address, self.http)

    async def _handle_login(self, request: Request) -> Response:
        try:
            credentials = request.json()
        except ProtocolError as exc:
            return Response.from_json({"error": str(exc)}, 400)
        if not isinstance(credentials, dict):
            return Response.from_json({"error": "expected credentials object"}, 400)
        email = credentials.get("email")
        password = credentials.get("password")
        if not email or not password:
            return Response.from_json({"error": "email and password required"}, 400)
        user = await self.mongo.find_one(
            "users", {"email": email, "password": password}
        )
        if user is None:
            return Response.from_json({"error": "invalid credentials"}, 401)
        await self.simulate_processing()
        token = str(uuid.uuid4())
        session = {"email": email, "country": user.get("country", "")}
        self._tokens[token] = session
        self.logins_total.inc()
        payload = {"token": token, "email": email}
        if self.group_assigner is not None:
            payload["group"] = self.group_assigner.assign(
                email, {"country": session["country"]}
            )
        return Response.from_json(payload)

    async def _handle_validate(self, request: Request) -> Response:
        self.validations_total.inc()
        token = request.query.get("token") or _bearer_token(request)
        if not token:
            return Response.from_json({"error": "missing token"}, 401)
        session = self._tokens.get(token)
        if session is None:
            return Response.from_json({"error": "invalid token"}, 401)
        await self.simulate_processing()
        return Response.from_json({"email": session["email"], "country": session["country"]})

    def issue_token(self, email: str, country: str = "") -> str:
        """Mint a token directly (test and load-generator convenience)."""
        token = str(uuid.uuid4())
        self._tokens[token] = {"email": email, "country": country}
        return token


def _bearer_token(request: Request) -> str | None:
    header = request.headers.get("Authorization", "")
    if header.lower().startswith("bearer "):
        return header[7:].strip()
    return None
