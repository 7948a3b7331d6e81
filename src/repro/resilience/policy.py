"""Resilience policies: retry with backoff, timeouts, circuit breaking.

The enactment middleware talks to two kinds of flaky dependencies —
metrics backends and proxy admin endpoints — and the paper's premise
(contain release risk) collapses if a transient blip on either one is
indistinguishable from a bad release.  These policies give every caller
the same vocabulary:

* :class:`RetryPolicy` — exponential backoff with *deterministic* jitter:
  the delay schedule is a pure function of ``(seed, key, attempt)``, so
  virtual-clock tests can assert exact schedules and two engines with the
  same seed behave identically.
* :class:`Timeout` — bounds one awaited call using the injected
  :class:`~repro.clock.Clock`, so timeouts fire instantly under a
  :class:`~repro.clock.VirtualClock` instead of stalling the test suite.
* :class:`CircuitBreaker` — closed/open/half-open with a failure-rate
  threshold over a sliding window and a cool-down before probing again.

All policies are clock-injected and allocation-light; they are composed
by the wrappers in :mod:`repro.resilience.wrappers`.
"""

from __future__ import annotations

import asyncio
import enum
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Awaitable, TypeVar

from ..clock import Clock

T = TypeVar("T")


class ResilienceError(Exception):
    """Base class for policy-level failures."""


class TimeoutExceeded(ResilienceError):
    """A guarded call did not finish within its budget."""


def _jitter_fraction(seed: int, key: str, attempt: int) -> float:
    """A deterministic pseudo-random fraction in [0, 1).

    Derived by hashing ``(seed, key, attempt)`` so the same policy against
    the same query produces the same schedule on every run, while distinct
    keys (queries, services) de-synchronize — the point of jitter.
    """
    digest = hashlib.blake2b(
        f"{seed}:{key}:{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: delay_i = base · multiplier^i, capped and jittered.

    ``attempts`` counts *total* tries (1 means no retries).  Jitter shaves
    up to ``jitter`` fraction off each delay deterministically (see
    :func:`_jitter_fraction`), keeping schedules reproducible given a seed.
    """

    attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ResilienceError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0:
            raise ResilienceError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ResilienceError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def retries(self) -> int:
        return self.attempts - 1

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number *attempt* (0-based)."""
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        return raw * (1.0 - self.jitter * _jitter_fraction(self.seed, key, attempt))

    def schedule(self, key: str = "") -> tuple[float, ...]:
        """Every retry delay this policy would sleep, in order."""
        return tuple(self.delay(attempt, key) for attempt in range(self.retries))


@dataclass(frozen=True)
class Timeout:
    """Bounds one awaited call against the injected clock.

    ``asyncio.wait_for`` counts wall time; under a virtual clock a hung
    provider would block the suite for real seconds.  :meth:`guard` races
    the call against ``clock.sleep`` instead, so advancing the virtual
    clock fires the timeout instantly.
    """

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ResilienceError(f"timeout must be positive, got {self.seconds}")

    async def guard(self, clock: Clock, call: Awaitable[T]) -> T:
        task: asyncio.Task[T] = asyncio.ensure_future(call)
        timer = asyncio.ensure_future(clock.sleep(self.seconds))
        try:
            done, _ = await asyncio.wait(
                {task, timer}, return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            task.cancel()
            timer.cancel()
            raise
        if task in done:
            timer.cancel()
            return task.result()
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, Exception):
            pass
        raise TimeoutExceeded(f"call exceeded {self.seconds}s budget")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate circuit breaker with a cool-down and half-open probes.

    * CLOSED — outcomes feed a sliding window of the last ``window`` calls;
      once at least ``min_calls`` are recorded and the failure fraction
      reaches ``failure_rate``, the breaker opens.
    * OPEN — :meth:`allow` refuses every call until ``cooldown`` seconds of
      clock time pass, then transitions to HALF_OPEN.
    * HALF_OPEN — up to ``probes`` calls are let through; all of them
      succeeding closes the breaker (window cleared), any failure re-opens
      it and restarts the cool-down.

    The breaker itself is transport-agnostic and synchronous; wrappers
    observe :attr:`state` around each interaction to publish transition
    events.
    """

    def __init__(
        self,
        clock: Clock,
        *,
        window: int = 10,
        failure_rate: float = 0.5,
        min_calls: int = 3,
        cooldown: float = 30.0,
        probes: int = 1,
    ):
        if window < 1:
            raise ResilienceError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_rate <= 1.0:
            raise ResilienceError(f"failure_rate must be in (0, 1], got {failure_rate}")
        if min_calls < 1:
            raise ResilienceError(f"min_calls must be >= 1, got {min_calls}")
        if cooldown <= 0:
            raise ResilienceError(f"cooldown must be positive, got {cooldown}")
        if probes < 1:
            raise ResilienceError(f"probes must be >= 1, got {probes}")
        self.clock = clock
        self.failure_rate = failure_rate
        self.min_calls = min_calls
        self.cooldown = cooldown
        self.probes = probes
        self.state = BreakerState.CLOSED
        self._results: deque[int] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probes_granted = 0
        self._probe_successes = 0
        #: True while a chaos campaign holds the breaker open.
        self.forced = False
        #: (at, old_state, new_state) transitions, newest last.
        self.transitions: list[tuple[float, BreakerState, BreakerState]] = []

    @property
    def failure_fraction(self) -> float:
        if not self._results:
            return 0.0
        return 1.0 - sum(self._results) / len(self._results)

    def _transition(self, new_state: BreakerState) -> None:
        if new_state is self.state:
            return
        self.transitions.append((self.clock.now(), self.state, new_state))
        self.state = new_state

    def allow(self) -> bool:
        """May a call proceed right now?  (Transitions OPEN → HALF_OPEN.)"""
        if self.forced:
            return False
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock.now() - self._opened_at < self.cooldown:
                return False
            self._transition(BreakerState.HALF_OPEN)
            self._probes_granted = 0
            self._probe_successes = 0
        if self._probes_granted >= self.probes:
            return False
        self._probes_granted += 1
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.probes:
                self._results.clear()
                self._transition(BreakerState.CLOSED)
            return
        self._results.append(1)

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._open()
            return
        self._results.append(0)
        if (
            self.state is BreakerState.CLOSED
            and len(self._results) >= self.min_calls
            and self.failure_fraction >= self.failure_rate
        ):
            self._open()

    def _open(self) -> None:
        self._opened_at = self.clock.now()
        self._transition(BreakerState.OPEN)

    def force_open(self) -> None:
        """Hold the breaker open until :meth:`force_close` (chaos forcing).

        While forced, :meth:`allow` refuses every call — the cooldown
        does not elapse into HALF_OPEN.  The transition is recorded like
        any organic one so event wrappers and healthz views see it.
        """
        self.forced = True
        self._open()

    def force_close(self) -> None:
        """Release a forced hold and close the breaker with a clean window."""
        self.forced = False
        self._results.clear()
        self._probes_granted = 0
        self._probe_successes = 0
        self._transition(BreakerState.CLOSED)

    def snapshot(self) -> dict:
        """JSON-friendly view for ``/healthz`` endpoints."""
        counts = {state.value: 0 for state in BreakerState}
        for _, _, new_state in self.transitions:
            counts[new_state.value] += 1
        return {
            "state": self.state.value,
            "forced": self.forced,
            "failure_fraction": round(self.failure_fraction, 4),
            "transitions": counts,
            "transitions_total": len(self.transitions),
        }
