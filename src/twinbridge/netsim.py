"""Deterministic discrete-event network simulation.

Provides the simulation clock used by every other component, piecewise-constant
time profiles, and a point-to-point impaired link with time-varying latency,
probabilistic loss, a bandwidth cap, and scripted disconnect windows.

Determinism contract: identical (seed, profiles, input schedule) produce
byte-identical event traces. The loss RNG draws exactly one uniform per send,
whether or not the draw is consumed, so profile changes never desynchronize
the random stream.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple


class PiecewiseConstant:
    """Right-continuous step function over simulated time.

    Defined by (t, value) breakpoints; the value at time t is the value of the
    latest breakpoint <= t. Before the first breakpoint the first value holds.
    Of breakpoints sharing a time, the last one given holds. Values are stored
    as given and may be any type, such as 3-vectors for a scripted force.
    """

    __slots__ = ("_times", "_values")

    def __init__(self, points: Iterable[tuple[float, Any]] | float):
        if isinstance(points, (int, float)):
            points = [(0.0, float(points))]
        pts = sorted({float(t): v for t, v in points}.items())
        if not pts:
            raise ValueError("profile needs at least one breakpoint")
        if any(t != t for t, _ in pts):  # NaN: the breakpoints must be totally ordered
            raise ValueError("breakpoint time must not be NaN")
        self._times = [t for t, _ in pts]
        self._values = [v for _, v in pts]

    def value_at(self, t: float) -> Any:
        idx = bisect_right(self._times, t) - 1
        return self._values[max(idx, 0)]

    def breakpoints(self) -> list[tuple[float, Any]]:
        return list(zip(self._times, self._values))


class SimClock:
    """Simulated-time event queue.

    Events fire in (time, insertion order); time never moves backwards.
    Callbacks may schedule further events, including at the current time.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        if not at >= self.now:  # NaN fails too: it would stall the heap
            raise ValueError(f"cannot schedule at {at} before now={self.now}")
        heapq.heappush(self._heap, (at, next(self._seq), callback))

    def advance(self, dt: float) -> list[float]:
        """Advance by dt >= 0, firing every event due on the way.

        Returns the time of each fired event, in firing order. dt = 0 fires
        only events due exactly now.
        """
        if not dt >= 0:  # NaN fails too: now would never compare again
            raise ValueError("dt must be >= 0")
        target = self.now + dt
        fired: list[float] = []
        heap = self._heap
        while heap and heap[0][0] <= target:
            at, _, callback = heapq.heappop(heap)
            self.now = at
            fired.append(at)
            callback()
        self.now = target
        return fired


def whole_ticks(duration: float, tick: float, name: str) -> int:
    """The number of `tick`s in `duration`, to a relative 1e-9; ValueError, naming the tick, if it falls between two."""
    if not math.isclose(n := duration / tick, ticks := round(n)):
        raise ValueError(f"duration {duration} is not a whole number of {name} ({tick} s)")
    return ticks


@dataclass(frozen=True)
class NetworkConditions:
    """Time-varying impairments for one link direction.

    latency/loss are piecewise-constant profiles; bandwidth_cap is bytes per
    second (None = uncapped); disconnect windows are sorted, non-overlapping
    [start, end) intervals during which every send is dropped.
    """

    latency: PiecewiseConstant
    loss: PiecewiseConstant
    bandwidth_cap: float | None = None
    disconnects: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for t, v in self.latency.breakpoints():
            if not v >= 0:  # NaN fails too
                raise ValueError(f"latency {v} at t={t} must be >= 0")
        for t, v in self.loss.breakpoints():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"loss {v} at t={t} must be in [0, 1]")
        if self.bandwidth_cap is not None and not self.bandwidth_cap > 0:  # NaN fails too
            raise ValueError("bandwidth_cap must be positive or None")
        prev_end = None
        for start, end in self.disconnects:
            if end <= start:
                raise ValueError(f"disconnect window [{start}, {end}) is empty")
            if prev_end is not None and start < prev_end:
                raise ValueError("disconnect windows must be sorted and disjoint")
            prev_end = end

    def in_disconnect(self, t: float) -> bool:
        for start, end in self.disconnects:
            if start <= t < end:
                return True
            if t < start:
                break
        return False

    @staticmethod
    def ideal() -> "NetworkConditions":
        return NetworkConditions(PiecewiseConstant(0.0), PiecewiseConstant(0.0))


class TraceEvent(NamedTuple):
    """One send and its outcome, as an immutable tuple: send time, size, landing time."""

    t_send: float
    size: int
    deliver_at: float | None  # None: dropped at send time

    @property
    def dropped(self) -> bool:
        return self.deliver_at is None


class NetLink:
    """One direction of an impaired point-to-point link.

    Packets are atomic: a send is either dropped at send time or delivered
    whole at t + L(t) + size/bandwidth, serialized FIFO behind earlier
    traffic. Serialization keeps send order, but latency is read at send
    time, so when L(t) drops a later packet can land before an earlier one.
    """

    def __init__(
        self,
        clock: SimClock,
        conditions: NetworkConditions,
        seed: int,
    ) -> None:
        self.clock = clock
        self.conditions = conditions
        self.on_deliver: Callable[[bytes, float], None] | None = None
        self._rng = random.Random(seed)
        self._free_at = 0.0
        self._in_flight: dict[int, bytes] = {}
        self._flight_seq = itertools.count()
        self._trace: list[TraceEvent] = []

    def send(self, payload: bytes) -> TraceEvent:
        """Send one packet; returns its trace entry, the last of replay_trace."""
        t = self.clock.now
        draw = self._rng.random()
        size = len(payload)
        if self.conditions.in_disconnect(t) or draw < self.conditions.loss.value_at(t):
            # tuple.__new__ skips the NamedTuple's Python-level constructor
            event = tuple.__new__(TraceEvent, (t, size, None))
            self._trace.append(event)
            return event

        cap = self.conditions.bandwidth_cap
        serialization = (size / cap) if cap else 0.0
        start = max(t, self._free_at)
        done = start + serialization
        self._free_at = done
        deliver_at = done + self.conditions.latency.value_at(t)

        flight_id = next(self._flight_seq)
        self._in_flight[flight_id] = payload

        def _deliver() -> None:
            self._in_flight.pop(flight_id, None)
            if self.on_deliver is not None:
                self.on_deliver(payload, deliver_at)

        self.clock.schedule(deliver_at, _deliver)
        event = tuple.__new__(TraceEvent, (t, size, deliver_at))
        self._trace.append(event)
        return event

    def in_flight(self) -> list[bytes]:
        """Payloads scheduled but not yet delivered (for end-of-run audits)."""
        return list(self._in_flight.values())


def replay_trace(link: NetLink) -> list[TraceEvent]:
    """Ordered log of every send with its outcome; one entry per send call."""
    return list(link._trace)


def link_pair(
    clock: SimClock, conditions: NetworkConditions, seed: int
) -> tuple[NetLink, NetLink]:
    """Two directions of a link between endpoint peers, independently seeded."""
    fwd = NetLink(clock, conditions, seed ^ 0x5BD1E995)
    rev = NetLink(clock, conditions, seed ^ 0x27D4EB2F)
    return fwd, rev
