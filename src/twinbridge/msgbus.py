"""In-process topic bus: named topics, typed payloads, bounded FIFO fan-out.

The bus is the substrate agents and bridge endpoints attach to. Topics are
path-like names ("/robot1/odom"). Each subscriber owns a bounded FIFO queue;
on overflow the oldest message is dropped and counted. Subscribing to a topic
that has not been advertised yet is allowed (delivery starts when it appears),
so a bridge can subscribe to its whole topic list up front. A topic name is
validated once, at `advertise` or `subscribe`; the messages published on it
are not re-checked.

Timestamps are simulated seconds supplied by the caller, never wall clock.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import NamedTuple

from .envelope import MAX_PAYLOAD


class MessageKind(IntEnum):
    POSE = 0
    TWIST = 1
    SCAN2D = 2
    POINTCLOUD = 3
    COMMAND = 4
    BLOB = 5


class InvalidTopic(ValueError):
    """Topic name violates the naming invariants."""


class KindMismatch(ValueError):
    """Topic already advertised with a different message kind."""


def validate_topic(name: str) -> str:
    if not name or not name.startswith("/"):
        raise InvalidTopic(f"topic {name!r:.40} must be non-empty and start with '/'")
    if any(ch.isspace() for ch in name):
        raise InvalidTopic(f"topic {name!r:.40} must not contain whitespace")
    try:
        if len(name.encode("utf-8")) > 0xFFFF:
            raise InvalidTopic("topic is over the wire's limit of 65535 UTF-8 bytes")
    except UnicodeEncodeError:
        raise InvalidTopic(f"topic {name!r:.40} has no UTF-8 form") from None
    return name


class _MessageFields(NamedTuple):
    topic: str
    payload: bytes
    publish_time: float
    kind: MessageKind
    origin: str | None = None


class Message(_MessageFields):
    """One payload on one topic at one simulated instant, as an immutable tuple.

    `origin` identifies the publishing endpoint for bridge loop suppression;
    it never crosses the wire. A payload over 16 MiB is refused when the
    message is built.
    """

    __slots__ = ()  # no instance dict, so no attribute can be added either

    def __new__(cls, topic: str, payload: bytes, publish_time: float, kind: MessageKind, origin: str | None = None):
        if len(payload) > MAX_PAYLOAD:
            raise ValueError(f"payload of {len(payload)} bytes exceeds 16 MiB")
        return tuple.__new__(cls, (topic, payload, publish_time, kind, origin))


class Subscription:
    """Single-consumer FIFO queue bound to one topic."""

    def __init__(self, topic: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.topic = topic
        self.capacity = capacity
        self.drops = 0
        self._queue: deque[Message] = deque()
        self.ready: set[str] | None = None  # a consumer's set; each push adds the topic

    def _push(self, msg: Message) -> None:
        if len(self._queue) >= self.capacity:
            self._queue.popleft()
            self.drops += 1
        self._queue.append(msg)
        if self.ready is not None:
            self.ready.add(self.topic)

    def drain(self) -> list[Message]:
        out = list(self._queue)
        self._queue.clear()
        return out


class Publisher:
    """Handle for publishing to one advertised topic.

    Enforces monotone non-decreasing publish_time per handle.
    """

    def __init__(self, bus: "TopicBus", topic: str, kind: MessageKind) -> None:
        self._bus = bus
        self.topic = topic
        self.kind = kind
        self._last_time: float | None = None

    def publish(self, payload: bytes, publish_time: float, origin: str | None = None) -> None:
        if self._last_time is not None and publish_time < self._last_time:
            raise ValueError(
                f"publish_time {publish_time} regresses below {self._last_time} on {self.topic}"
            )
        self._last_time = publish_time
        self._bus._dispatch(Message(self.topic, payload, publish_time, self.kind, origin))


class TopicBus:
    """Shareable in-process pub/sub bus with per-subscriber FIFO queues."""

    def __init__(self) -> None:
        self._kinds: dict[str, MessageKind] = {}
        self._subs: dict[str, list[Subscription]] = {}

    def advertise(self, topic: str, kind: MessageKind) -> Publisher:
        validate_topic(topic)
        existing = self._kinds.get(topic)
        if existing is not None and existing != kind:
            raise KindMismatch(
                f"topic {topic!r} already advertised as {existing.name}, not {kind.name}"
            )
        self._kinds[topic] = kind
        return Publisher(self, topic, kind)

    def subscribe(self, topic: str, queue_capacity: int) -> Subscription:
        validate_topic(topic)
        sub = Subscription(topic, queue_capacity)
        self._subs.setdefault(topic, []).append(sub)
        return sub

    def kind_of(self, topic: str) -> MessageKind | None:
        return self._kinds.get(topic)

    def _dispatch(self, msg: Message) -> None:
        for sub in self._subs.get(msg.topic, ()):
            sub._push(msg)
