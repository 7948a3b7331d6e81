"""Generated hostile targets for ``GET /api/v1/query``.

Hypothesis builds request targets from broken and truncated percent
escapes, ``+``, repeated and misspelt ``query=`` parameters, numbers that
are not finite or overflow, deep nesting, empty values and long label
values.  Every answer is below 500 and arrives before a deadline, the
connection then serves a valid request, no query changes the store, and the
server's per-target tables stay within their bound.  A 5xx answer to a
generated invalid input counts as a failure, as in *LLM-Based Robustness
Testing of Microservice Applications*.
"""

import asyncio
from urllib.parse import quote

from hypothesis import given, settings, strategies as st

import repro.metrics.server as metrics_server
from repro.clock import VirtualClock
from repro.metrics import MetricsServer

DEADLINE = 5.0
TABLE_BOUND = 8

#: Characters a request target may carry unescaped.
TARGET_CHARS = "abcxyz019-._~!$'()*,;:@/?%+=&"

FRAGMENTS = [
    "%", "%4", "%zz", "%C3", "%ff%fe", "%ED%A0%80", "%00", "%25", "+", "%2B", "%20",
    "NaN", "nan", "inf", "-inf", "+Inf", "1e309", "9" * 400, "0x10", "0.", ".5",
    "m", "sum(m)", "rate(m%5B1s%5D)", "histogram_quantile(0.5,m)", "m%7Ba%3D%22b%22%7D",
    "m%7Ba%3D~%22(%22%7D", "%7B", "%7D", "%22", "%5C", "%5B5m%5D", "(", ")", ",", "/", "*", "-",
    "=~", "query=", "&", "=", "",
]


def _nested(depth: int) -> str:
    return quote("sum(" * depth + "m" + ")" * depth)


def _long_label(length: int) -> str:
    return quote('m{a="' + "\\" * (length % 3) + "v" * length + '"}')


values = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.text(alphabet=TARGET_CHARS, max_size=12),
        st.integers(min_value=1, max_value=160).map(_nested),
        st.integers(min_value=0, max_value=9000).map(_long_label),
    ),
    max_size=6,
).map("".join)
names = st.sampled_from(["query", "query", "Query", "q", "", "query%3D", "qu%65ry", "query[]"])
targets = st.lists(st.tuples(names, st.booleans(), values), max_size=4).map(
    lambda params: "/api/v1/query" + (
        "?" + "&".join(name + ("=" if equals else "") + value for name, equals, value in params)
        if params else ""
    )
)


async def _exchange(reader, writer, target: str) -> tuple[int, bytes]:
    writer.write(f"GET {target} HTTP/1.1\r\nHost: metrics\r\n\r\n".encode("ascii"))
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return status, await reader.readexactly(length)


def test_hostile_query_targets_are_answered_below_500(monkeypatch):
    monkeypatch.setattr(metrics_server, "CACHE_ENTRIES", TABLE_BOUND)
    loop = asyncio.new_event_loop()
    server = MetricsServer(clock=VirtualClock(start=10.0))
    server.store.record("m", 1.0, 9.0, {"a": "b"})
    server.store.record("m", 2.0, 9.0, {"a": "c", "le": "+Inf"})
    loop.run_until_complete(server.start(scrape=False))
    reader, writer = loop.run_until_complete(
        asyncio.open_connection(server.host, server.port, limit=1 << 20)
    )
    generation = server.store.generation

    @settings(max_examples=300)
    @given(target=targets)
    def hostile(target):
        status, body = loop.run_until_complete(
            asyncio.wait_for(_exchange(reader, writer, target), DEADLINE)
        )
        assert status < 500, (target, body[:200])
        status, body = loop.run_until_complete(
            asyncio.wait_for(_exchange(reader, writer, "/api/v1/query?query=m"), DEADLINE)
        )
        assert status == 200 and body.startswith(b'{"status": "success"')
        assert server.store.generation == generation
        assert len(server._targets) <= TABLE_BOUND
        assert len(server._bodies) <= TABLE_BOUND

    try:
        hostile()
    finally:
        writer.close()
        loop.run_until_complete(server.stop())
        loop.close()
