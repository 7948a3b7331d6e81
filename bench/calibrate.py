"""Machine-speed calibration: a fixed stdlib kernel timed between windows.

On a shared two-core box back-to-back runs of the same closed loop differ
by 10-25 % in raw wall-clock, because frequency, cache pressure and steal
change under neighbours.  The kernel below does a fixed amount of the same
*kind* of work the workloads do (loopback socket round trips, header
splitting, dict and bytes churn) and imports nothing from ``repro``, so a
change to the system under test cannot move it.  Each measurement window
is scaled by ``(CALIB_REF_CPU_S / mean(cpu of the two neighbouring kernel
runs)) ** CALIB_ELASTICITY``: a slow machine inflates the window and the
kernel alike and the ratio cancels.  Units therefore stay ms and 1/s "at
reference speed".

The kernel's *CPU* time is the divisor, not its wall time: CPU time tracks
frequency, cache and steal slowdowns, but not a pre-emption of the 20 ms
kernel itself, which would otherwise be charged to the window beside it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time

#: Median kernel CPU time on the reference machine (2 vCPU Xeon 2.1 GHz,
#: quiet; see ``bench/AA.md``).  Changing it rescales every reported time.
CALIB_REF_CPU_S = 0.0190

#: How much of the kernel's slowdown the workloads share.  When a neighbour
#: makes the kernel 1.6x slower, the workloads get 1.5x slower: the tight
#: kernel loses a little more to a busy sibling thread than code with a
#: larger working set.  Fitted over the A/A runs in ``bench/AA.md``.
CALIB_ELASTICITY = 0.9

#: Round trips per kernel run, sized so one run is ~20 ms at reference speed.
ROUND_TRIPS = 300

#: Header-churn passes per round trip.  The workloads spend about nine
#: tenths of their CPU time in user mode; a bare echo loop spends a quarter
#: in the kernel and then over-reacts to a busy neighbour (``bench/AA.md``).
CHURN_PASSES = 4

#: Neighbouring kernel runs disagreeing by more than this mark a window
#: as disturbed (the machine changed speed while the window ran).
DISAGREEMENT_LIMIT = 0.10

_MESSAGE = (
    b"POST /calibrate/echo?step=1 HTTP/1.1\r\n"
    b"Host: 127.0.0.1:0\r\n"
    b"User-Agent: bench-calibration/1\r\n"
    b"Accept: application/json\r\n"
    b"Cookie: session=0123456789abcdef; theme=dark\r\n"
    b"X-Request-Id: 4f2c1d7e-calibration\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 0\r\n"
    b"\r\n"
)


def speed_factor(before_cpu_s: float, after_cpu_s: float) -> float:
    """Multiplier bringing a window's timings to reference machine speed."""
    kernel_cpu_s = (before_cpu_s + after_cpu_s) / 2.0
    return (CALIB_REF_CPU_S / kernel_cpu_s) ** CALIB_ELASTICITY


def neighbours_disagree(before_cpu_s: float, after_cpu_s: float) -> bool:
    """True when the two kernel runs around a window differ by > 10 %."""
    low, high = sorted((before_cpu_s, after_cpu_s))
    return (high - low) / low > DISAGREEMENT_LIMIT


def _churn(head: bytes) -> int:
    """Header split + dict/bytes churn over one echoed message."""
    return sum(_churn_once(head) for _ in range(CHURN_PASSES)) + _codec(head)


def _codec(head: bytes) -> int:
    """The C-level helpers every hop leans on: JSON both ways, one digest."""
    document = json.loads(json.dumps({"n": len(head), "tags": [1, 2, 3], "pad": "xyz" * 10}))
    return len(document) + hashlib.sha256(head).digest()[0]


def _churn_once(head: bytes) -> int:
    lines = head.decode("latin-1").split("\r\n")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            fields[name.lower()] = value.strip()
    cookies = {}
    for part in fields.get("cookie", "").split(";"):
        key, _, value = part.strip().partition("=")
        cookies[key] = value
    rendered = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
    body = rendered.encode("latin-1") + b"\r\n" + head[:64]
    return len(body) + len(cookies)


class Calibrator:
    """One loopback echo connection and the fixed kernel run over it."""

    def __init__(self) -> None:
        self._server: asyncio.AbstractServer | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._echo, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        self._reader, self._writer = await asyncio.open_connection("127.0.0.1", port)
        for _ in range(3):  # warm the connection and the code paths
            await self.run()

    async def stop(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    @staticmethod
    async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                writer.write(head)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def run(self) -> tuple[float, float]:
        """One kernel run; returns ``(wall_s, cpu_s)``."""
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        checksum = 0
        wall = time.perf_counter()
        cpu = time.process_time()
        for _ in range(ROUND_TRIPS):
            writer.write(_MESSAGE)
            head = await reader.readuntil(b"\r\n\r\n")
            checksum += _churn(head)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        if checksum <= 0:
            raise RuntimeError("calibration kernel produced no work")
        return wall, cpu
