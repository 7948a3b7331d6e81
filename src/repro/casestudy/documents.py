"""The document store — our MongoDB stand-in.

The case-study application stores products and users in MongoDB (section
5.1.1).  This module provides an in-memory document engine with a useful
query subset, plus an HTTP server exposing it so that database calls are
real network hops — which matters for the dark-launch experiment, where
shadowed product requests also shadow their database traffic.

Query operators: equality, ``$gt``, ``$gte``, ``$lt``, ``$lte``, ``$ne``,
``$in``, ``$contains`` (substring, case-insensitive).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any

from ..httpcore import HttpServer, ProtocolError, Request, Response


class QueryError(Exception):
    """A filter document is malformed."""


def _matches(document: dict[str, Any], query: dict[str, Any]) -> bool:
    for field, condition in query.items():
        value = document.get(field)
        if isinstance(condition, dict):
            for op, operand in condition.items():
                if op == "$gt":
                    if not (value is not None and value > operand):
                        return False
                elif op == "$gte":
                    if not (value is not None and value >= operand):
                        return False
                elif op == "$lt":
                    if not (value is not None and value < operand):
                        return False
                elif op == "$lte":
                    if not (value is not None and value <= operand):
                        return False
                elif op == "$ne":
                    if value == operand:
                        return False
                elif op == "$in":
                    if value not in operand:
                        return False
                elif op == "$contains":
                    if not isinstance(value, str) or str(operand).lower() not in value.lower():
                        return False
                else:
                    raise QueryError(f"unknown operator {op!r}")
        elif value != condition:
            return False
    return True


class Collection:
    """One named set of documents with auto-assigned ``_id``."""

    def __init__(self, name: str):
        self.name = name
        self._documents: dict[int, dict[str, Any]] = {}
        self._ids = itertools.count(1)

    def insert(self, document: dict[str, Any]) -> int:
        doc_id = next(self._ids)
        stored = dict(document)
        stored["_id"] = doc_id
        self._documents[doc_id] = stored
        return doc_id

    def find(
        self, query: dict[str, Any] | None = None, limit: int | None = None
    ) -> list[dict[str, Any]]:
        results = []
        for document in self._documents.values():
            if query is None or _matches(document, query):
                results.append(dict(document))
                if limit is not None and len(results) >= limit:
                    break
        return results

    def find_one(self, query: dict[str, Any] | None = None) -> dict[str, Any] | None:
        found = self.find(query, limit=1)
        return found[0] if found else None

    def update(self, query: dict[str, Any], changes: dict[str, Any]) -> int:
        updated = 0
        for document in self._documents.values():
            if _matches(document, query):
                document.update(changes)
                updated += 1
        return updated

    def delete(self, query: dict[str, Any]) -> int:
        doomed = [
            doc_id
            for doc_id, document in self._documents.items()
            if _matches(document, query)
        ]
        for doc_id in doomed:
            del self._documents[doc_id]
        return len(doomed)

    def count(self, query: dict[str, Any] | None = None) -> int:
        if query is None:
            return len(self._documents)
        return sum(_matches(d, query) for d in self._documents.values())


class DocumentStore:
    """A set of named collections."""

    def __init__(self) -> None:
        self._collections: dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def drop(self, name: str) -> None:
        self._collections.pop(name, None)

    @property
    def names(self) -> list[str]:
        return sorted(self._collections)


class MongoServer(HttpServer):
    """HTTP facade over a :class:`DocumentStore`.

    Endpoints mirror the driver operations:
    ``POST /db/{collection}/insert|find|find_one|update|delete|count``.
    *op_delay* adds artificial per-operation latency, approximating a real
    database's work so response-time experiments have a realistic floor.
    """

    def __init__(
        self,
        store: DocumentStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        op_delay: float = 0.0,
    ):
        super().__init__(host=host, port=port, name="mongo")
        self.store = store or DocumentStore()
        self.op_delay = op_delay
        self.operations = 0
        self.router.post("/db/{collection}/{op}")(self._handle_op)
        self.router.get("/healthz")(self._handle_health)

    async def _handle_op(self, request: Request) -> Response:
        self.operations += 1
        if self.op_delay > 0:
            await asyncio.sleep(self.op_delay)
        collection = self.store.collection(request.path_params["collection"])
        op = request.path_params["op"]
        try:
            body = request.json() if request.body else {}
        except ProtocolError as exc:
            return Response.from_json({"error": str(exc)}, 400)
        if not isinstance(body, dict):
            return Response.from_json({"error": "body must be an object"}, 400)
        try:
            if op == "insert":
                doc_id = collection.insert(body.get("document", {}))
                return Response.from_json({"inserted_id": doc_id})
            if op == "find":
                documents = collection.find(body.get("query"), body.get("limit"))
                return Response.from_json({"documents": documents})
            if op == "find_one":
                document = collection.find_one(body.get("query"))
                return Response.from_json({"document": document})
            if op == "update":
                count = collection.update(body.get("query", {}), body.get("changes", {}))
                return Response.from_json({"updated": count})
            if op == "delete":
                count = collection.delete(body.get("query", {}))
                return Response.from_json({"deleted": count})
            if op == "count":
                return Response.from_json({"count": collection.count(body.get("query"))})
        except QueryError as exc:
            return Response.from_json({"error": str(exc)}, 400)
        return Response.from_json({"error": f"unknown operation {op!r}"}, 404)

    async def _handle_health(self, request: Request) -> Response:
        return Response.from_json({"status": "up", "collections": self.store.names})


class MongoClient:
    """Async driver for :class:`MongoServer`, used by the services."""

    def __init__(self, address: str, client):
        self.address = address
        self._client = client

    async def _op(self, collection: str, op: str, payload: dict[str, Any]) -> Any:
        response = await self._client.post(
            f"http://{self.address}/db/{collection}/{op}", json_body=payload
        )
        if response.status != 200:
            raise QueryError(f"db operation failed: {response.body[:200]!r}")
        return response.json()

    async def insert(self, collection: str, document: dict[str, Any]) -> int:
        result = await self._op(collection, "insert", {"document": document})
        return result["inserted_id"]

    async def find(
        self,
        collection: str,
        query: dict[str, Any] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        payload: dict[str, Any] = {"query": query}
        if limit is not None:
            payload["limit"] = limit
        result = await self._op(collection, "find", payload)
        return result["documents"]

    async def find_one(
        self, collection: str, query: dict[str, Any] | None = None
    ) -> dict[str, Any] | None:
        result = await self._op(collection, "find_one", {"query": query})
        return result["document"]

    async def update(
        self, collection: str, query: dict[str, Any], changes: dict[str, Any]
    ) -> int:
        result = await self._op(collection, "update", {"query": query, "changes": changes})
        return result["updated"]

    async def count(self, collection: str, query: dict[str, Any] | None = None) -> int:
        result = await self._op(collection, "count", {"query": query})
        return result["count"]
