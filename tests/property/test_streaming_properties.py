"""Property suite for the streaming data plane.

Two families of invariants:

* the chunked encoder/decoder are inverses — under arbitrary payload
  splits, torn reads (the wire arriving in adversarially-sized pieces),
  chunk extensions, and trailer fields;
* relaying a body through the proxy is representation-independent —
  a streamed relay and a buffered relay produce byte-for-byte identical
  bodies on both sides of the proxy.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.httpcore import BodyStream, HttpClient, HttpServer, Request, Response
from repro.httpcore.stream import CHUNKED_EOF, encode_chunk, relay_body
from repro.proxy import BifrostProxy
from tests.httpcore.wire import decode_chunked

chunk_lists = st.lists(
    st.binary(min_size=1, max_size=200), min_size=0, max_size=12
)

#: ASCII-safe chunk-extension and trailer-name alphabets (no CR/LF/;/:).
ext_text = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N")), min_size=1, max_size=8
)


def encode_wire(chunks, extensions, trailers) -> bytes:
    """Hand-rolled chunked encoding with optional extensions + trailers."""
    wire = bytearray()
    for index, chunk in enumerate(chunks):
        ext = extensions[index % len(extensions)] if extensions else None
        size = b"%x" % len(chunk)
        if ext is not None:
            size += b";" + ext.encode("ascii") + b"=1"
        wire += size + b"\r\n" + chunk + b"\r\n"
    wire += b"0\r\n"
    for name in trailers:
        wire += name.encode("ascii") + b": ignored\r\n"
    wire += b"\r\n"
    return bytes(wire)


@settings(max_examples=100, deadline=None)
@given(
    chunk_lists,
    st.lists(ext_text, max_size=3),
    st.lists(ext_text, max_size=3),
    st.lists(st.integers(min_value=1, max_value=64), max_size=8),
)
def test_chunked_decoder_inverts_any_encoding(chunks, extensions, trailers, tears):
    wire = encode_wire(chunks, extensions, trailers)

    # The wire arrives in adversarially torn pieces, one per loop turn.
    assert asyncio.run(decode_chunked(wire, tears)) == b"".join(chunks)


@settings(max_examples=100, deadline=None)
@given(chunk_lists, st.integers(min_value=1, max_value=64))
def test_relay_encoding_round_trips(chunks, chunk_size):
    """relay_body's chunked emission is exactly what the connection decodes."""

    class Sink:
        def __init__(self):
            self.data = bytearray()

        def write(self, data):
            self.data += data

        async def drain(self):
            pass

    async def drive():
        sink = Sink()
        await relay_body(sink, BodyStream.from_iterable(list(chunks)))
        assert bytes(sink.data).endswith(CHUNKED_EOF)
        return await decode_chunked(bytes(sink.data), (chunk_size,))

    assert asyncio.run(drive()) == b"".join(chunks)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2000), st.integers(min_value=1, max_value=128))
def test_encode_chunk_round_trips_single_payload(payload, chunk_size):
    wire = (encode_chunk(payload) if payload else b"") + CHUNKED_EOF

    assert asyncio.run(decode_chunked(wire, (chunk_size,))) == payload


@settings(max_examples=10, deadline=None)
@given(chunk_lists)
def test_streamed_and_buffered_relay_are_byte_identical(chunks):
    """A chunked body streamed through the proxy and the same body sent
    with a Content-Length agree byte-for-byte, upstream-observed body
    included."""
    body = b"".join(chunks)

    async def drive():
        seen: list[bytes] = []
        upstream = HttpServer(name="echo")

        @upstream.router.post("/echo")
        async def echo(request):
            seen.append(request.body)
            return Response(body=request.body)

        await upstream.start()
        proxy = BifrostProxy("s", default_upstream=upstream.address)
        await proxy.start()
        client = HttpClient()
        try:
            streamed_request = Request(
                method="POST",
                target="/echo",
                stream=BodyStream.from_iterable(list(chunks)),
            )
            streamed_request.headers.set("Host", proxy.address)
            via_stream = await client.send(streamed_request, proxy.host, proxy.port)
            via_buffer = await client.post(f"http://{proxy.address}/echo", body=body)
            assert via_stream.status == via_buffer.status == 200
            assert via_stream.body == via_buffer.body == body
            assert seen == [body, body]
        finally:
            await client.close()
            await proxy.stop()
            await upstream.stop()

    asyncio.run(drive())
