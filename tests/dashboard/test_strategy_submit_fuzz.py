"""Generated strategy documents for ``POST /api/strategies``.

Hypothesis builds ``yaml_lite`` bodies from the example strategies: a
document as written, or with one value made hostile (another type, a
negative, non-finite or huge number, an empty, long or non-ASCII text,
an unclosed quote or flow sequence, unsupported YAML), cut short, or with
a byte that is not UTF-8; and documents nested past the parser's limit
in block mappings, block sequences and flow sequences.

Every answer is below 500 and arrives before a deadline, and the
connection then serves ``/healthz``.  A refused document is a 400 with
``{"status": "error"}`` and leaves the execution list as it was; a 201
adds one execution.
"""

import asyncio
import json
import re
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.clock import VirtualClock
from repro.core import Engine, RecordingController
from repro.dashboard import EngineApiServer

DEADLINE = 5.0
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
DOCUMENTS = [
    (EXAMPLES / name).read_text(encoding="utf-8")
    for name in ("chaos_canary.yaml", "resilient_canary.yaml", "shadow_backpressure.yaml")
]
#: ``key: value`` lines, and ``- value`` items, whose value can be swapped.
VALUE = re.compile(r"^(\s*(?:- )?(?:[\w-]+: |- ))(\S.*)$", re.MULTILINE)
HOSTILE = [
    "-1", "0", "-0.0", "1e309", "-1e309", ".nan", "nan", "inf", "9" * 5000, "1" + "0" * 400,
    "0x10", "1_000", "true", "null", "~", "''", '""', "'", '"', "[", "[a, [b]]", "]",
    "{a: 1}", "&anchor x", "*alias", "|", ">", "é" * 3, "x" * 5000, "a: b", "- a", "#",
    "\t1", "\x00", " ", "%",
]


def hostile_value(chosen) -> str:
    """The document with its *index*-th swappable value replaced."""
    document, index, value = chosen
    matches = list(VALUE.finditer(document))
    match = matches[index % len(matches)]
    return document[: match.start(2)] + value + document[match.end(2) :]


def nested(chosen) -> str:
    style, depth = chosen
    if style == "mapping":
        return "\n".join(" " * level + "a:" for level in range(depth))
    if style == "sequence":
        return "\n".join(" " * (2 * level) + "-" for level in range(depth))
    return "strategy: " + "[" * depth + "]" * depth


def damage(chosen) -> bytes:
    text, (how, at) = chosen
    data = text.encode()
    at = at % (len(data) + 1)
    if how == "cut":
        return data[:at]
    if how == "byte":
        return data[:at] + b"\xff" + data[at:]
    return data


documents = st.one_of(
    st.sampled_from(DOCUMENTS),
    st.tuples(  # twice: most documents carry one hostile value
        st.sampled_from(DOCUMENTS), st.integers(0, 10**6), st.sampled_from(HOSTILE)
    ).map(hostile_value),
    st.tuples(
        st.sampled_from(DOCUMENTS), st.integers(0, 10**6), st.sampled_from(HOSTILE)
    ).map(hostile_value),
)
bodies = st.one_of(
    st.tuples(
        documents, st.tuples(st.sampled_from(["whole"] * 6 + ["cut", "byte"]), st.integers(0, 10**6))
    ).map(damage),
    st.tuples(st.sampled_from(["mapping", "sequence", "flow"]), st.integers(90, 3000))
    .map(nested)
    .map(str.encode),
)


async def exchange(reader, writer, method: str, target: str, body: bytes = b"") -> tuple[int, bytes]:
    head = f"{method} {target} HTTP/1.1\r\nHost: engine\r\nContent-Length: {len(body)}\r\n\r\n"
    writer.write(head.encode() + body)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return status, await reader.readexactly(length)


def test_hostile_strategy_documents_are_answered_below_500():
    loop = asyncio.new_event_loop()
    engine = Engine(controller=RecordingController(), clock=VirtualClock())
    server = EngineApiServer(engine)

    async def setup():
        await server.start()
        return await asyncio.open_connection(server.host, server.port, limit=1 << 20)

    reader, writer = loop.run_until_complete(setup())

    def send(method: str, target: str, body: bytes = b"") -> tuple[int, bytes]:
        return loop.run_until_complete(
            asyncio.wait_for(exchange(reader, writer, method, target, body), DEADLINE)
        )

    @settings(max_examples=300, deadline=None)
    @given(body=bodies)
    @example(body=DOCUMENTS[0].encode())
    @example(body=b"")
    @example(body=nested(("mapping", 400)).encode())
    @example(body=nested(("mapping", 3000)).encode())
    @example(body=nested(("sequence", 3000)).encode())
    @example(body=nested(("flow", 3000)).encode())
    def hostile(body):
        before = list(engine.executions)
        status, answer = send("POST", "/api/strategies", body)
        assert status < 500, (body[:300], answer[:300])
        assert send("GET", "/healthz")[0] == 200
        if 400 <= status < 500:
            assert status == 400 and json.loads(answer)["status"] == "error", answer[:300]
            assert list(engine.executions) == before
        if status == 201:
            assert len(engine.executions) == len(before) + 1

    try:
        hostile()
    finally:
        writer.close()
        loop.run_until_complete(server.stop())
        loop.run_until_complete(engine.shutdown())
        loop.close()
