"""Topic bus semantics: advertising, FIFO fan-out, bounded queues."""

import pytest

from twinbridge.msgbus import (
    InvalidTopic,
    KindMismatch,
    Message,
    MessageKind,
    TopicBus,
)


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
    def test_payload_limit(self):
        with pytest.raises(ValueError):
            Message("/a", b"x" * (16 * 1024 * 1024 + 1), 0.0, MessageKind.BLOB)

    def test_monotone_publish_time_per_publisher(self, bus):
        pub = bus.advertise("/a", MessageKind.POSE)
        pub.publish(b"x", 5.0)
        with pytest.raises(ValueError):
            pub.publish(b"y", 4.0)
        pub.publish(b"z", 5.0)  # equal is fine


def test_queue_depth_before_and_after_drain(bus):
    pub = bus.advertise("/a", MessageKind.POSE)
    sub = bus.subscribe("/a", queue_capacity=10)
    pub.publish(b"1", 0.0)
    pub.publish(b"2", 0.1)
    assert sub.drops == 0
    assert len(sub.drain()) == 2
    assert sub.drain() == []
