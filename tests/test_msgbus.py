"""Topic bus semantics: advertising, FIFO fan-out, bounded queues."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinbridge.envelope import MAX_PAYLOAD
from twinbridge.msgbus import (
    InvalidTopic,
    KindMismatch,
    MessageKind,
    TopicBus,
    validate_topic,
)

# every code point str.isspace() holds for, so each is drawn often
SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.fixture
def bus():
    return TopicBus()


class TestAdvertise:
    def test_idempotent_same_kind(self, bus):
        bus.advertise("/a", MessageKind.POSE)
        bus.advertise("/a", MessageKind.POSE)
        assert bus.kind_of("/a") == MessageKind.POSE

    def test_kind_is_unknown_until_advertised(self, bus):
        bus.subscribe("/a", 4)
        assert bus.kind_of("/a") is None
        bus.advertise("/a", MessageKind.BLOB)
        assert bus.kind_of("/a") == MessageKind.BLOB

    def test_kind_conflict(self, bus):
        bus.advertise("/a", MessageKind.POSE)
        with pytest.raises(KindMismatch):
            bus.advertise("/a", MessageKind.SCAN2D)

    @pytest.mark.parametrize("name", ["", "no-slash", "/has space", "/tab\tname", "/nl\n"])
    def test_invalid_topics(self, bus, name):
        with pytest.raises(InvalidTopic):
            bus.advertise(name, MessageKind.POSE)

    @given(st.text(st.one_of(st.sampled_from(SPACES), st.characters(exclude_categories=("Cs",)))))
    def test_whitespace_is_rejected_exactly_where_a_character_isspace(self, tail):
        name = "/" + tail
        try:
            validate_topic(name)
            rejected = False
        except InvalidTopic as exc:
            rejected = "whitespace" in str(exc)
        assert rejected == any(ch.isspace() for ch in name)


class TestSubscribe:
    def test_in_order_delivery(self, bus):
        pub = bus.advertise("/a", MessageKind.POSE)
        sub = bus.subscribe("/a", queue_capacity=10)
        for i in range(3):
            pub.publish(bytes([i]), float(i))
        got = sub.drain()
        assert [m.payload for m in got] == [b"\x00", b"\x01", b"\x02"]
        assert sub.drops == 0

    def test_overflow_drops_oldest(self, bus):
        pub = bus.advertise("/a", MessageKind.POSE)
        sub = bus.subscribe("/a", queue_capacity=3)
        for i in range(5):
            pub.publish(bytes([i]), float(i))
        got = sub.drain()
        assert [m.payload[0] for m in got] == [2, 3, 4]
        assert sub.drops == 2

    def test_subscribe_before_advertise(self, bus):
        sub = bus.subscribe("/later", queue_capacity=4)
        pub = bus.advertise("/later", MessageKind.COMMAND)
        pub.publish(b"go", 1.0)
        assert len(sub.drain()) == 1

    def test_no_delivery_of_earlier_messages(self, bus):
        pub = bus.advertise("/a", MessageKind.POSE)
        pub.publish(b"before", 0.0)
        sub = bus.subscribe("/a", queue_capacity=4)
        pub.publish(b"after", 1.0)
        got = sub.drain()
        assert [m.payload for m in got] == [b"after"]

    def test_capacity_must_be_positive(self, bus):
        with pytest.raises(ValueError):
            bus.subscribe("/a", queue_capacity=0)

    def test_conservation_after_quiescence(self, bus):
        pub = bus.advertise("/a", MessageKind.POSE)
        sub = bus.subscribe("/a", queue_capacity=7)
        published = 23
        for i in range(published):
            pub.publish(b"m", float(i))
        assert sub.drops + len(sub.drain()) == published


class TestMessage:
    def test_monotone_publish_time_per_publisher(self, bus):
        pub = bus.advertise("/a", MessageKind.POSE)
        pub.publish(b"x", 5.0)
        with pytest.raises(ValueError):
            pub.publish(b"y", 4.0)
        pub.publish(b"z", 5.0)  # equal is fine

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), float("-inf")])
    def test_a_time_that_is_not_finite_is_refused_and_the_clock_holds(self, bus, at):
        # an accepted NaN would turn the regression check off for the handle, and
        # the bridge's next tick would fail to turn the time into microseconds
        pub = bus.advertise("/a", MessageKind.POSE)
        sub = bus.subscribe("/a", queue_capacity=4)
        with pytest.raises(ValueError, match="is not finite"):
            pub.publish(b"x", at)
        pub.publish(b"y", 5.0)
        with pytest.raises(ValueError, match="is not finite"):
            pub.publish(b"x", at)
        with pytest.raises(ValueError, match="regresses below 5.0"):
            pub.publish(b"z", 4.0)
        assert [m.payload for m in sub.drain()] == [b"y"]


    @pytest.mark.parametrize("subscribed", [True, False], ids=["subscribed", "unsubscribed"])
    def test_a_refused_publish_leaves_the_publishers_clock(self, bus, subscribed):
        pub = bus.advertise("/a", MessageKind.BLOB)
        sub = bus.subscribe("/a", queue_capacity=4) if subscribed else None
        with pytest.raises(ValueError, match="exceeds 16 MiB"):
            pub.publish(bytes(MAX_PAYLOAD + 1), 5.0)
        pub.publish(b"x", 4.0)
        with pytest.raises(ValueError, match="regresses below 4.0"):
            pub.publish(b"y", 3.0)
        if subscribed:
            assert [(m.topic, m.payload, m.publish_time, m.kind) for m in sub.drain()] == [
                ("/a", b"x", 4.0, MessageKind.BLOB)
            ]


def test_queue_depth_before_and_after_drain(bus):
    pub = bus.advertise("/a", MessageKind.POSE)
    sub = bus.subscribe("/a", queue_capacity=10)
    pub.publish(b"1", 0.0)
    pub.publish(b"2", 0.1)
    assert sub.drops == 0
    assert len(sub.drain()) == 2
    assert sub.drain() == []
