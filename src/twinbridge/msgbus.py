"""In-process topic bus: named topics, typed payloads, bounded FIFO fan-out.

The bus is the substrate agents and bridge endpoints attach to. Topics are
path-like names ("/robot1/odom"). Each subscriber owns a bounded FIFO queue;
on overflow the oldest message is dropped and counted. Subscribing to a topic
that has not been advertised yet is allowed (delivery starts when it appears),
so a bridge can subscribe to its whole topic list up front. A topic name is
validated once, at `advertise` or `subscribe`; the messages published on it
are not re-checked. A publish refuses a payload over 16 MiB whether or not
the topic has a subscriber, and builds a `Message` only for a topic that has.

Timestamps are simulated seconds supplied by the caller, never wall clock.
"""

from __future__ import annotations

import sys
from enum import IntEnum
from typing import NamedTuple

from .envelope import MAX_PAYLOAD

_MAX_TIME = sys.float_info.max  # the largest finite float


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


def _check_payload(payload: bytes) -> None:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds 16 MiB")


def validate_topic(name: str) -> str:
    if not name or not name.startswith("/"):
        raise InvalidTopic(f"topic {name!r:.40} must be non-empty and start with '/'")
    if name.split() != [name]:  # str.split cuts at every code point that isspace()
        raise InvalidTopic(f"topic {name!r:.40} must not contain whitespace")
    try:
        if len(name.encode("utf-8")) > 0xFFFF:
            raise InvalidTopic("topic is over the wire's limit of 65535 UTF-8 bytes")
    except UnicodeEncodeError:
        raise InvalidTopic(f"topic {name!r:.40} has no UTF-8 form") from None
    return name


class Message(NamedTuple):
    """One payload on one topic at one simulated instant, as an immutable tuple.

    `origin` is the bridge endpoint that republished the message, matched by
    identity for loop suppression; it never crosses the wire.
    `Publisher.publish` refuses a payload over 16 MiB before it builds one.
    """

    topic: str
    payload: bytes
    publish_time: float
    kind: MessageKind
    origin: object = None


class Subscription:
    """Single-consumer FIFO queue bound to one topic.

    The queue is a plain list that `drain` hands over whole, starting an empty
    one, so nothing is copied and an idle subscription holds an empty list. On
    overflow the oldest message is dropped and counted: O(capacity) a drop,
    paid only by a queue that is full.
    """

    __slots__ = ("topic", "capacity", "drops", "_queue", "ready")

    def __init__(self, topic: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.topic = topic
        self.capacity = capacity
        self.drops = 0
        self._queue: list[Message] = []
        self.ready: set[str] | None = None  # a consumer's set; each push adds the topic

    def _push(self, msg: Message) -> None:
        queue = self._queue
        if len(queue) >= self.capacity:
            del queue[0]
            self.drops += 1
        queue.append(msg)
        if self.ready is not None:
            self.ready.add(self.topic)

    def drain(self) -> list[Message]:
        out, self._queue = self._queue, []
        return out


class Publisher:
    """Handle for publishing to one advertised topic.

    Enforces a finite, monotone non-decreasing publish_time per handle.
    """

    __slots__ = ("_subs", "topic", "kind", "_last_time")

    def __init__(self, subs: list[Subscription], topic: str, kind: MessageKind) -> None:
        self._subs = subs  # the bus's live subscriber list for the topic
        self.topic = topic
        self.kind = kind
        self._last_time = -_MAX_TIME

    def publish(self, payload: bytes, publish_time: float, origin: object = None) -> None:
        """Refuse a payload over 16 MiB or a time that is not finite or regresses, then queue a
        Message on each subscriber, if any."""
        _check_payload(payload)
        if not self._last_time <= publish_time <= _MAX_TIME:  # NaN fails too
            problem = f"regresses below {self._last_time}" if abs(publish_time) <= _MAX_TIME else "is not finite"
            raise ValueError(f"publish_time {publish_time} {problem} on {self.topic}")
        self._last_time = publish_time
        if self._subs:
            # tuple.__new__ skips the NamedTuple's Python-level constructor
            msg = tuple.__new__(Message, (self.topic, payload, publish_time, self.kind, origin))
            for sub in self._subs:
                sub._push(msg)


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
        return Publisher(self._subs.setdefault(topic, []), topic, kind)

    def subscribe(self, topic: str, queue_capacity: int) -> Subscription:
        validate_topic(topic)
        sub = Subscription(topic, queue_capacity)
        self._subs.setdefault(topic, []).append(sub)
        return sub

    def kind_of(self, topic: str) -> MessageKind | None:
        return self._kinds.get(topic)
