"""Prioritization, replay, and endpoint integration."""

import struct
import zlib
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbridge import bridge
from twinbridge.bridge import (
    HEARTBEAT_TOPIC,
    REPLAY_TOPIC,
    BridgeEndpoint,
    EndpointConfig,
    PriorityPolicy,
    ReplayBuffer,
    TierScheduler,
)
from twinbridge.engine import BridgeScenario, TopicTraffic, _audit
from twinbridge.envelope import (
    FLAG_REPLAY,
    TIER_BULK,
    TIER_CRITICAL,
    TIER_STANDARD,
    Envelope,
    decode_stream,
    encode_envelope,
    frame_size,
)
from twinbridge.mmcf import BridgeConfig
from twinbridge.msgbus import MessageKind, Publisher, Subscription, TopicBus
from twinbridge.netsim import (
    NetLink,
    NetworkConditions,
    PiecewiseConstant,
    SimClock,
    link_pair,
)


def frame(topic="/t", tier=TIER_STANDARD, seq=0, size=100):
    return Envelope(tier, 0, seq, 0, topic, 0, bytes(size))


def raw_frame(topic: bytes, payload: bytes, tier=TIER_CRITICAL, seq=0, kind=4) -> bytes:
    """A CRC-valid frame built from the documented layout, bypassing the encoder."""
    body = struct.pack("<4sBBBQQH", b"SERN", 1, tier, 0, seq, 0, len(topic)) + topic
    body += struct.pack("<BI", kind, len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def control_payload(topic: bytes, tail: bytes) -> bytes:
    return struct.pack("<H", len(topic)) + topic + tail


def queues(critical=(), standard=(), bulk=()):
    return {
        TIER_CRITICAL: deque(critical),
        TIER_STANDARD: deque(standard),
        TIER_BULK: deque(bulk),
    }


class TestPolicy:
    def test_first_match_wins(self):
        policy = PriorityPolicy(
            rules=(("/robot*/pose", TIER_CRITICAL), ("/robot1/*", TIER_BULK)),
            default_tier=TIER_STANDARD,
        )
        assert policy.classify("/robot1/pose") == TIER_CRITICAL
        assert policy.classify("/robot1/points") == TIER_BULK
        assert policy.classify("/other") == TIER_STANDARD


class TestTierScheduler:
    def test_only_bulk_uses_full_budget(self):
        q = queues(bulk=[frame(tier=TIER_BULK, size=900) for _ in range(10)])
        plan = TierScheduler().plan(q, budget=5000)
        sent = sum(frame_size(item) for item in plan)
        assert sent >= 4 * 930  # frames are ~934 bytes; most of the budget used
        assert all(item.tier == TIER_BULK for item in plan)

    def test_strict_priority_critical_saturates(self):
        q = queues(
            critical=[frame(tier=TIER_CRITICAL, size=400) for _ in range(10)],
            standard=[frame(tier=TIER_STANDARD, size=400) for _ in range(10)],
        )
        plan = TierScheduler().plan(q, budget=1000)
        assert plan  # some critical sent
        assert all(item.tier == TIER_CRITICAL for item in plan)

    def test_bulk_floor_under_saturation(self):
        q = queues(
            critical=[frame(tier=TIER_CRITICAL, size=1000) for _ in range(200)],
            standard=[frame(tier=TIER_STANDARD, size=1000) for _ in range(200)],
            bulk=[frame(tier=TIER_BULK, size=1000) for _ in range(200)],
        )
        plan = TierScheduler().plan(q, budget=100 * 1024)
        bulk_bytes = sum(frame_size(item) for item in plan if item.tier == TIER_BULK)
        assert bulk_bytes >= 5 * 1024

    def test_standard_gets_only_what_critical_leaves(self):
        # all three tiers backlogged: bulk takes its 5% floor, critical the
        # rest, and standard, below critical in strict priority, nothing
        q = queues(
            critical=[frame(tier=TIER_CRITICAL, size=100) for _ in range(100)],
            standard=[frame(tier=TIER_STANDARD, size=100) for _ in range(100)],
            bulk=[frame(tier=TIER_BULK, size=100) for _ in range(100)],
        )
        plan = TierScheduler().plan(q, budget=1000)
        by_tier = {}
        for item in plan:
            by_tier[item.tier] = by_tier.get(item.tier, 0) + frame_size(item)
        assert by_tier.get(TIER_STANDARD, 0) == 0
        assert by_tier[TIER_CRITICAL] >= 0.95 * 1000
        assert 0 < by_tier[TIER_BULK] <= 0.05 * 1000 + max(frame_size(item) for item in plan)

    def test_deficit_lets_oversized_frame_send_eventually(self):
        sched = TierScheduler()
        q = queues(critical=[frame(tier=TIER_CRITICAL, size=5000)])
        sent = []
        for _ in range(12):
            sent.extend(sched.plan(q, budget=500))
        assert len(sent) == 1

    def test_leftover_cascades_down(self):
        q = queues(
            critical=[frame(tier=TIER_CRITICAL, size=100)],
            standard=[frame(tier=TIER_STANDARD, size=100) for _ in range(3)],
        )
        plan = TierScheduler().plan(q, budget=10_000)
        assert len(plan) == 4

    @given(
        crit_sizes=st.lists(st.integers(1, 400), max_size=12),
        std_sizes=st.lists(st.integers(1, 400), max_size=12),
        bulk_sizes=st.lists(st.integers(1, 400), max_size=12),
        budget=st.integers(200, 5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_starvation_guard_property(self, crit_sizes, std_sizes, bulk_sizes, budget):
        q = queues(
            critical=[frame(tier=TIER_CRITICAL, size=s) for s in crit_sizes],
            standard=[frame(tier=TIER_STANDARD, size=s) for s in std_sizes],
            bulk=[frame(tier=TIER_BULK, size=s) for s in bulk_sizes],
        )
        bulk_available = sum(frame_size(item) for item in q[TIER_BULK])
        plan = TierScheduler().plan(q, budget=budget)
        # transmit order is strictly by tier
        tiers_in_plan = [item.tier for item in plan]
        assert tiers_in_plan == sorted(tiers_in_plan)
        # bulk gets its floor whenever it has traffic: at least 5% of the
        # budget worth of bulk bytes, or everything it had queued
        if bulk_available:
            bulk_sent = sum(frame_size(item) for item in plan if item.tier == TIER_BULK)
            assert bulk_sent >= min(0.05 * budget, bulk_available)


@pytest.mark.parametrize("tick", [0.0, -1.0, float("nan"), float("-inf")])
def test_endpoint_config_rejects_a_tick_that_is_not_positive(tick):
    with pytest.raises(ValueError, match="tick"):
        EndpointConfig(tick=tick)


@pytest.mark.parametrize(
    "field, value", [("redundancy", 4), ("redundancy", -1), ("redundancy", float("nan")), ("batch_size", 0)]
)
def test_one_range_rule_for_endpoint_and_bridge_configs(field, value):
    for build in (EndpointConfig, BridgeConfig):
        with pytest.raises(ValueError, match=field):
            build(**{field: value})


@pytest.mark.parametrize(
    "rules, default", [((("/a", 7),), TIER_STANDARD), ((("/a", TIER_BULK),), 3), ((), -1)]
)
def test_policy_rejects_a_tier_that_is_not_one_of_the_tiers(rules, default):
    with pytest.raises(ValueError, match="tier"):
        PriorityPolicy(rules, default)


class TestReplayBuffer:
    def env(self, topic="/t", seq=0):
        return Envelope(TIER_CRITICAL, 0, seq, 0, topic, 0, b"x")

    def test_range_fully_buffered(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(5):
            buf.insert(self.env(seq=i))
        assert [e.seq for e in buf.get_range("/t", 1, 3)] == [1, 2, 3]

    def test_unknown_topic_empty(self):
        buf = ReplayBuffer(capacity=10)
        assert buf.get_range("/missing", 0, 5) == []

    def test_half_evicted_range(self):
        buf = ReplayBuffer(capacity=4)
        for i in range(8):
            buf.insert(self.env(seq=i))
        assert [e.seq for e in buf.get_range("/t", 2, 5)] == [4, 5]

    def test_non_consecutive_insert_raises(self):
        buf = ReplayBuffer(capacity=4)
        buf.insert(self.env(seq=0))
        with pytest.raises(ValueError):
            buf.insert(self.env(seq=2))
        with pytest.raises(ValueError):
            buf.insert(self.env(seq=0))
        buf.insert(self.env(seq=1))
        assert [e.seq for e in buf.get_range("/t", 0, 9)] == [0, 1]

    seq_bounds = st.integers(0, 50) | st.sampled_from([2**63, 2**64 - 2, 2**64 - 1])

    @given(capacity=st.integers(1, 8), n=st.integers(0, 40), lo=seq_bounds, hi=seq_bounds)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, capacity, n, lo, hi):
        buf = ReplayBuffer(capacity)
        for seq in range(n):
            buf.insert(self.env(seq=seq))
        kept = list(range(n))[-capacity:]  # the oracle: the last `capacity` seqs sent
        assert [e.seq for e in buf.get_range("/t", lo, hi)] == [s for s in kept if lo <= s <= hi]
        assert buf.contains("/t", lo) == (lo in kept)
        assert buf.contains("/t", hi) == (hi in kept)
        assert buf.dropped == max(0, n - capacity)


def ideal_pair(clock, seed=1, **kwargs):
    cond = NetworkConditions(
        PiecewiseConstant(kwargs.pop("latency", 0.0)),
        PiecewiseConstant(kwargs.pop("loss", 0.0)),
        kwargs.pop("bandwidth", None),
        tuple(kwargs.pop("disconnects", ())),
    )
    return link_pair(clock, cond, seed)


def make_pair(clock, fwd, rev, policy=None, config=None, remote_config=None):
    policy = policy or PriorityPolicy()
    config = config or EndpointConfig(topics=("/data",))
    bus_a, bus_b = TopicBus(), TopicBus()
    local = BridgeEndpoint(bus_a, fwd, rev, policy, clock, config)
    remote = BridgeEndpoint(bus_b, rev, fwd, policy, clock, remote_config or EndpointConfig(topics=()))
    return bus_a, bus_b, local, remote


def ping_both_ways():
    """20 pings published on /ping at A, with both endpoints bridging /ping.

    Returns (pings received at B, seqs the remote endpoint delivered, seqs
    the local endpoint delivered back to A).
    """
    clock = SimClock()
    fwd, rev = ideal_pair(clock)
    config = EndpointConfig(topics=("/ping",))
    bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, config=config, remote_config=config)
    pub = bus_a.advertise("/ping", MessageKind.POSE)
    sub = bus_b.subscribe("/ping", 64)
    for i in range(20):
        pub.publish(bytes([i]), clock.now)
        clock.advance(0.1)
    clock.advance(2.0)
    rx_back = local.rx_stats().get("/ping")
    return len(sub.drain()), len(remote.rx_stats()["/ping"].delivered), len(rx_back.delivered) if rx_back else 0


class TestEndpoint:
    def test_basic_bridging(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev)
        pub = bus_a.advertise("/data", MessageKind.POSE)
        sub = bus_b.subscribe("/data", 64)
        for i in range(5):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.05)
        clock.advance(1.0)
        got = sub.drain()
        assert [m.payload[0] for m in got] == [0, 1, 2, 3, 4]
        assert bus_b.kind_of("/data") == MessageKind.POSE

    def test_a_topic_off_the_list_is_not_bridged(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev)
        listed = bus_a.advertise("/data", MessageKind.POSE)
        unlisted = bus_a.advertise("/other", MessageKind.POSE)
        sub = bus_b.subscribe("/other", 64)
        for i in range(10):
            listed.publish(bytes([i]), clock.now)
            unlisted.publish(bytes([i]), clock.now)
            clock.advance(0.05)
        clock.advance(1.0)
        assert sub.drain() == []
        assert "/other" not in local.tx_stats()
        assert bus_b.kind_of("/other") is None
        assert len(remote.rx_stats()["/data"].delivered) == 10

    def test_order_preserved_under_loss_standard_tier(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock, loss=0.3, seed=9)
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev)
        pub = bus_a.advertise("/data", MessageKind.BLOB)
        sub = bus_b.subscribe("/data", 256)
        for i in range(60):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.02)
        clock.advance(2.0)
        seqs = [m.payload[0] for m in sub.drain()]
        assert seqs == sorted(seqs)
        assert len(seqs) < 60  # standard tier is not repaired

    def test_critical_tier_eventual_delivery_under_loss(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock, loss=0.25, seed=4)
        policy = PriorityPolicy(rules=(("/data", TIER_CRITICAL),))
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, policy=policy)
        pub = bus_a.advertise("/data", MessageKind.COMMAND)
        sub = bus_b.subscribe("/data", 512)
        for i in range(80):
            pub.publish(i.to_bytes(2, "little"), clock.now)
            clock.advance(0.02)
        clock.advance(15.0)  # drain window for replays
        got = [int.from_bytes(m.payload, "little") for m in sub.drain()]
        assert got == list(range(80))  # exactly once, in order

    def test_disconnect_then_replay(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock, disconnects=((1.0, 6.0),), seed=2)
        policy = PriorityPolicy(rules=(("/data", TIER_CRITICAL),))
        config = EndpointConfig(topics=("/data",), replay_capacity=128)
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, policy=policy, config=config)
        pub = bus_a.advertise("/data", MessageKind.COMMAND)
        sub = bus_b.subscribe("/data", 512)
        # 10 Hz for 8 seconds straddling the 5 s blackout
        for i in range(80):
            pub.publish(i.to_bytes(2, "little"), clock.now)
            clock.advance(0.1)
        clock.advance(10.0)
        got = [int.from_bytes(m.payload, "little") for m in sub.drain()]
        assert got == list(range(80))

    def test_no_echo_loop_with_bidirectional_topic_lists(self):
        # each message crosses exactly once; nothing bounces back
        assert ping_both_ways() == (20, 20, 0)

    def test_the_origin_guard_is_what_stops_the_echo(self, monkeypatch):
        # republished messages lose their origin mark, so `_drain_bus` cannot
        # tell an endpoint's own republish from local traffic
        publish = Publisher.publish
        monkeypatch.setattr(Publisher, "publish", lambda self, payload, at, origin=None: publish(self, payload, at))
        received, _, echoed = ping_both_ways()
        assert received > 20 and echoed > 0

    def test_request_replay_counts(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/data", TIER_CRITICAL),))
        config = EndpointConfig(topics=("/data",), replay_capacity=4)
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, policy=policy, config=config)
        pub = bus_a.advertise("/data", MessageKind.COMMAND)
        for i in range(8):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.05)
        clock.advance(1.0)

        def served(topic, from_seq, to_seq):
            before = local.replays_served
            local.request_replay(topic, from_seq, to_seq)
            return local.replays_served - before

        # capacity 4: seqs 4..7 retained
        assert served("/data", 0, 7) == 4
        assert served("/data", 0, 3) == 0
        assert served("/missing", 0, 3) == 0

    def test_replayed_frames_carry_replay_flag(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/data", TIER_CRITICAL),))
        config = EndpointConfig(topics=("/data",), replay_capacity=64)
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, policy=policy, config=config)
        pub = bus_a.advertise("/data", MessageKind.COMMAND)
        for i in range(4):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.05)
        clock.advance(0.5)
        local.request_replay("/data", 1, 2)
        flagged = local.pending_frames()
        assert flagged and all(env.flags & FLAG_REPLAY for env in flagged)
        assert [env.seq for env in flagged] == [1, 2]

    def critical_sent(self, n):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/data", TIER_CRITICAL),))
        bus_a, _, local, _ = make_pair(clock, fwd, rev, policy=policy)
        pub = bus_a.advertise("/data", MessageKind.COMMAND)
        for i in range(n):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.05)
        clock.advance(0.5)
        return clock, local

    def test_overlapping_requests_queue_one_copy_per_seq(self):
        _, local = self.critical_sent(6)
        local.request_replay("/data", 1, 3)
        local.request_replay("/data", 2, 4)  # a second NACK before the copies leave
        pending = local.pending_frames()
        assert [env.seq for env in pending] == [1, 2, 3, 4]
        assert all(env.flags & FLAG_REPLAY for env in pending)
        assert local.replays_served == 4

    def test_a_sent_replay_copy_can_be_queued_again(self):
        clock, local = self.critical_sent(4)
        local.request_replay("/data", 0, 3)
        local.request_replay("/data", 0, 3)
        assert [env.seq for env in local.pending_frames()] == [0, 1, 2, 3]
        sends = local.link_sends
        clock.advance(0.05)  # one tick puts every copy on the link
        assert local.pending_frames() == [] and local.link_sends > sends
        local.request_replay("/data", 0, 3)
        assert [env.seq for env in local.pending_frames()] == [0, 1, 2, 3]
        assert local.replays_served == 8

    def test_a_seq_whose_replay_copy_is_queued_is_buffered_in_the_audit(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock, loss=1.0)  # every original is lost
        bus_a, _, local, remote = make_pair(clock, fwd, rev)
        pub = bus_a.advertise("/data", MessageKind.BLOB)
        for i in range(6):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.05)
        clock.advance(0.5)
        local.request_replay("/data", 1, 3)
        local.request_replay("/data", 2, 4)
        assert [env.seq for env in local.pending_frames()] == [1, 2, 3, 4]
        # a standard topic: the receiver asks for no replay of it, so its ring
        # copies do not count, and only a queued copy keeps a seq buffered
        traffic = (TopicTraffic("/data", MessageKind.BLOB, 1.0, 1),)
        scenario = BridgeScenario("audit", 1, 1.0, fwd.conditions, traffic, PriorityPolicy())
        res = _audit(scenario, list(traffic), bus_a, local, remote, fwd, rev).topics["/data"]
        assert (res.sent, res.delivered, res.buffered, res.dropped) == (6, 0, 4, 2)

    @staticmethod
    def burst_sender(batch_size):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        config = EndpointConfig(topics=("/data",), batch_size=batch_size)
        bus_a, _, local, _ = make_pair(clock, fwd, rev, config=config)
        pub = bus_a.advertise("/data", MessageKind.BLOB)
        for i in range(8):  # all in one tick: batchable burst
            pub.publish(bytes([i]), clock.now)
        clock.advance(0.5)
        return local

    def test_batching_reduces_link_sends(self):
        assert self.burst_sender(8).link_sends < self.burst_sender(1).link_sends

    def test_batch_need_is_the_largest_batch_or_one_past_a_limit_that_cut(self):
        assert [self.burst_sender(b).batch_need for b in (1, 3, 8, 64)] == [2, 4, 8, 8]

    def test_fifo_baseline_no_replay(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock, loss=0.25, seed=4)
        config = EndpointConfig(topics=("/data",), prioritized=False)
        bus_a, bus_b, local, remote = make_pair(
            clock, fwd, rev, config=config,
            remote_config=EndpointConfig(prioritized=False, topics=()),
        )
        pub = bus_a.advertise("/data", MessageKind.COMMAND)
        sub = bus_b.subscribe("/data", 512)
        for i in range(80):
            pub.publish(i.to_bytes(2, "little"), clock.now)
            clock.advance(0.02)
        clock.advance(10.0)
        got = [int.from_bytes(m.payload, "little") for m in sub.drain()]
        assert 0 < len(got) < 80  # loss is permanent without replay
        assert got == sorted(got)


class TestWakeOnWork:
    """Egress work follows the messages published, not topics x ticks."""

    TOPICS = tuple(f"/robot{i:02d}/pose" for i in range(30))

    @pytest.fixture
    def drains(self, monkeypatch):
        calls: list[str] = []
        real = Subscription.drain
        monkeypatch.setattr(Subscription, "drain", lambda sub: calls.append(sub.topic) or real(sub))
        return calls

    def idle_endpoint(self):
        """30 bridged, advertised topics after 50 ticks with nothing published."""
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        config = EndpointConfig(topics=self.TOPICS)
        bus_a, bus_b, _, _ = make_pair(clock, fwd, rev, config=config)
        pubs = {topic: bus_a.advertise(topic, MessageKind.POSE) for topic in self.TOPICS}
        for _ in range(50):
            clock.advance(config.tick)
        return clock, pubs, bus_b

    def test_idle_ticks_drain_nothing(self, drains):
        self.idle_endpoint()
        assert drains == []

    def test_one_publish_drains_once_on_the_next_tick(self, drains):
        clock, pubs, bus_b = self.idle_endpoint()
        sub = bus_b.subscribe("/robot07/pose", 8)
        pubs["/robot07/pose"].publish(b"x", clock.now)
        clock.advance(EndpointConfig.tick)
        assert drains == ["/robot07/pose"]
        clock.advance(0.5)
        assert drains == ["/robot07/pose"]
        assert [m.payload for m in sub.drain()] == [b"x"]

    def test_topic_listed_before_it_is_advertised_is_bridged(self):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/late", TIER_CRITICAL),))
        config = EndpointConfig(topics=("/late",))
        bus_a, bus_b, local, _ = make_pair(clock, fwd, rev, policy=policy, config=config)
        sub = bus_b.subscribe("/late", 8)
        clock.advance(0.3)
        pub = bus_a.advertise("/late", MessageKind.COMMAND)
        for i in range(3):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.1)
        clock.advance(1.0)
        assert [m.payload for m in sub.drain()] == [b"\x00", b"\x01", b"\x02"]
        assert local.tx_stats()["/late"].next_seq == 3


class TestDeadlineHeaps:
    """Idle ticks skip the egress work; heartbeat and retry deadlines keep their times."""

    def test_idle_ticks_plan_nothing(self, monkeypatch):
        plans, ticks = [], []
        plan, tick = TierScheduler.plan, BridgeEndpoint._tick
        monkeypatch.setattr(TierScheduler, "plan", lambda s, q, b: plans.append(b) or plan(s, q, b))
        monkeypatch.setattr(BridgeEndpoint, "_tick", lambda e: ticks.append(e) or tick(e))
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/robot0*", TIER_CRITICAL),))
        config = EndpointConfig(topics=TestWakeOnWork.TOPICS)
        bus_a, _, _, _ = make_pair(clock, fwd, rev, policy=policy, config=config)
        pubs = {topic: bus_a.advertise(topic, MessageKind.POSE) for topic in config.topics}
        for _ in range(100):
            clock.advance(config.tick)
        assert len(ticks) == 200 and plans == []
        pubs["/robot03/pose"].publish(b"x", clock.now)
        clock.advance(config.tick)
        assert len(plans) == 1

    def test_heartbeats_due_on_one_tick_leave_in_name_order(self, monkeypatch):
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/*", TIER_CRITICAL),))
        config = EndpointConfig(topics=("/c", "/a", "/b"))
        bus_a, _, local, _ = make_pair(clock, fwd, rev, policy=policy, config=config)
        pubs = {topic: bus_a.advertise(topic, MessageKind.COMMAND) for topic in config.topics}
        beats: list[tuple[float, str]] = []
        send = local._send_control

        def record(control_topic, payload, now):
            if control_topic == HEARTBEAT_TOPIC:
                (n,) = struct.unpack_from("<H", payload)
                beats.append((now, payload[2 : 2 + n].decode()))
            send(control_topic, payload, now)

        monkeypatch.setattr(local, "_send_control", record)
        # /b sends one tick before the others, then again beside them, so its
        # first heap entry is stale by the time it would fall due
        clock.advance(config.tick)
        pubs["/b"].publish(b"0", clock.now)
        clock.advance(config.tick)
        for topic in ("/c", "/a", "/b"):
            pubs[topic].publish(b"1", clock.now)
        clock.advance(config.tick)
        last_sent = local.tx_stats()["/a"].last_sent_at
        clock.advance(0.3)
        assert [topic for _, topic in beats] == ["/a", "/b", "/c"]
        assert len({now for now, _ in beats}) == 1
        assert beats[0][0] - last_sent >= config.heartbeat_interval
        assert beats[0][0] - config.tick - last_sent < config.heartbeat_interval

    def test_gap_re_requests_leave_at_the_same_times(self, monkeypatch):
        # each request is re-sent on the first tick at or after its deadline,
        # due topics in name order, until the attempt budget runs out; a
        # re-ask on new evidence stands in for the timer's next re-ask
        clock = SimClock()
        fwd, rev = ideal_pair(clock)
        policy = PriorityPolicy(rules=(("/c*", TIER_CRITICAL),))
        _, _, _, remote = make_pair(clock, fwd, rev, policy=policy)
        requests: list[tuple[str, int, int, float]] = []
        send = BridgeEndpoint._send_gap_request

        def record(endpoint, topic, lo, hi, now):
            requests.append((topic, lo, hi, now))
            return send(endpoint, topic, lo, hi, now)

        monkeypatch.setattr(BridgeEndpoint, "_send_gap_request", record)
        clock.advance(0.05)
        for topic in ("/cb", "/ca"):
            remote._on_deliver(raw_frame(topic.encode(), b"x", seq=0), clock.now)
            remote._on_deliver(raw_frame(topic.encode(), b"x", seq=3), clock.now)
        clock.advance(0.1)
        remote._on_deliver(raw_frame(b"/ca", b"x", seq=5), clock.now)
        clock.advance(5.0)
        assert requests[:9] == [
            ("/cb", 1, 2, 0.05),
            ("/ca", 1, 2, 0.05),
            ("/ca", 1, 2, 0.15000000000000002),
            ("/ca", 4, 4, 0.15000000000000002),
            ("/cb", 1, 2, 0.35000000000000014),
            ("/ca", 1, 2, 0.45000000000000023),
            ("/ca", 4, 4, 0.45000000000000023),
            ("/cb", 1, 2, 0.6500000000000004),
            ("/ca", 1, 2, 0.7500000000000004),
        ]
        assert requests[-3:] == [
            ("/ca", 4, 4, 3.189999999999976),
            ("/cb", 1, 2, 3.3999999999999715),
            ("/ca", 4, 4, 3.4999999999999694),
        ]
        # no run goes unasked for longer than REPLAY_RETRY (plus the tick that finds its deadline)
        for run in {request[:3] for request in requests}:
            times = [now for *named, now in requests if tuple(named) == run]
            assert max(b - a for a, b in zip(times, times[1:])) < bridge.REPLAY_RETRY + EndpointConfig.tick
        assert len(requests) == 3 * EndpointConfig.replay_attempts


class TestGapRequests:
    """A replay request names only missing seqs; new evidence re-asks the open runs."""

    @staticmethod
    def receiver(monkeypatch):
        clock = SimClock()
        fwd, rev = ideal_pair(clock, latency=0.05)
        policy = PriorityPolicy(rules=(("/c*", TIER_CRITICAL),))
        config = EndpointConfig(topics=("/c",))
        bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, policy=policy, config=config)
        log: list[tuple[float, int, int, set[int], int]] = []
        send = BridgeEndpoint._send_gap_request

        def record(endpoint, name, lo, hi, now):
            rx = endpoint.rx_stats()[name]
            log.append((now, lo, hi, set(rx.ahead), rx.expected))
            return send(endpoint, name, lo, hi, now)

        monkeypatch.setattr(BridgeEndpoint, "_send_gap_request", record)
        return clock, (fwd, rev), bus_a, bus_b, local, remote, log

    def test_scripted_arrivals_ask_only_for_missing_seqs(self, monkeypatch):
        clock, _, _, bus_b, _, remote, log = self.receiver(monkeypatch)
        sub = bus_b.subscribe("/c", 64)

        def deliver(*seqs):
            for seq in seqs:
                remote._on_deliver(raw_frame(b"/c", bytes([seq]), seq=seq), clock.now)

        clock.advance(0.05)
        deliver(0, 3)
        clock.advance(0.05)
        deliver(5)  # asking for 1..4 would name the held 3
        clock.advance(0.05)
        deliver(2)  # a replay lands inside the open run 1..2
        clock.advance(0.05)
        deliver(9)
        beat = control_payload(b"/c", struct.pack("<Q", 11))
        remote._on_deliver(raw_frame(HEARTBEAT_TOPIC.encode(), beat), clock.now)
        assert [(round(now, 2), lo, hi) for now, lo, hi, _, _ in log] == [
            (0.05, 1, 2),
            (0.1, 1, 2), (0.1, 4, 4),
            (0.15, 1, 1), (0.15, 4, 4),
            (0.2, 1, 1), (0.2, 4, 4), (0.2, 6, 8),
            (0.2, 10, 11),  # asked at 0.2 already, so the heartbeat re-asks nothing
        ]
        asked: set[int] = set()
        for _, lo, hi, ahead, expected in log:
            named = set(range(lo, hi + 1))
            assert expected <= lo and not named & ahead
            assert named <= asked or not named & asked  # a re-ask, or a first request
            asked |= named
        deliver(1, 4, 6, 7, 8, 10, 11)
        clock.advance(1.0)
        assert len(log) == 9  # every run closed before its retry deadline
        assert [m.payload[0] for m in sub.drain()] == list(range(12))

    @given(
        n=st.integers(2, 24),
        order=st.randoms(use_true_random=False),
        keep=st.lists(st.booleans(), min_size=24, max_size=24),
    )
    @settings(max_examples=150, deadline=None)
    def test_dropped_and_reordered_frames_are_delivered_once_in_order_property(self, n, order, keep):
        with pytest.MonkeyPatch.context() as monkeypatch:
            clock, (fwd, _), bus_a, bus_b, _, remote, log = self.receiver(monkeypatch)
            pub = bus_a.advertise("/c", MessageKind.COMMAND)
            sub = bus_b.subscribe("/c", 64)
            captured: list[bytes] = []
            fwd.on_deliver = lambda payload, at: captured.append(payload)
            for i in range(n):
                pub.publish(bytes([i]), clock.now)
                clock.advance(0.02)
            clock.advance(0.1)
            fwd.on_deliver = remote._on_deliver
            frames = [env for payload in captured for env in decode_stream(payload)]
            frames = [env for env, kept in zip(frames, keep) if kept]
            order.shuffle(frames)
            for env in frames:
                remote._on_deliver(encode_envelope(env), clock.now)
                clock.advance(0.01)
            clock.advance(3.0)
        for _, lo, hi, ahead, expected in log:
            assert expected <= lo <= hi and not any(lo <= seq <= hi for seq in ahead)
        assert [m.payload[0] for m in sub.drain()] == list(range(n))

    def test_a_forged_heartbeat_for_the_last_u64_seq_never_raises(self, monkeypatch):
        clock, (fwd, rev), bus_a, bus_b, local, remote, log = self.receiver(monkeypatch)
        pub = bus_a.advertise("/c", MessageKind.COMMAND)
        sub = bus_b.subscribe("/c", 64)
        beat = control_payload(b"/c", struct.pack("<Q", 2**64 - 1))
        remote._on_deliver(raw_frame(HEARTBEAT_TOPIC.encode(), beat), clock.now)
        captured: list[bytes] = []
        fwd.on_deliver = lambda payload, at: captured.append(payload)
        for i in range(10):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.02)
        fwd.on_deliver = remote._on_deliver
        frames = [env for payload in captured for env in decode_stream(payload)]
        for env in sorted(frames, key=lambda env: -env.seq)[:6:2]:  # seqs 9, 7 and 5
            remote._on_deliver(encode_envelope(env), clock.now)
        clock.advance(10.0)  # past the last retry of the run
        assert remote.decode_errors == 0
        assert log[0][1:3] == (0, 2**64 - 1)
        per_instant: dict[float, list[int]] = {}
        for now, _, _, ahead, _ in log:
            per_instant.setdefault(now, []).append(len(ahead))
        assert all(len(held) <= max(held) + 1 for held in per_instant.values())
        assert [m.payload[0] for m in sub.drain()] == list(range(10))
        traffic = (TopicTraffic("/c", MessageKind.COMMAND, 1.0, 1),)
        policy = PriorityPolicy(rules=(("/c*", TIER_CRITICAL),))
        scenario = BridgeScenario("forged", 1, 1.0, fwd.conditions, traffic, policy)
        res = _audit(scenario, list(traffic), bus_a, local, remote, fwd, rev).topics["/c"]
        assert res.sent == res.delivered + res.dropped + res.buffered == 10

    def test_a_run_a_forged_heartbeat_announced_is_given_up_only_to_the_last_seq_that_arrived(
        self, monkeypatch
    ):
        clock, _, bus_a, bus_b, _, remote, _ = self.receiver(monkeypatch)
        pub = bus_a.advertise("/c", MessageKind.COMMAND)
        sub = bus_b.subscribe("/c", 64)
        for i in range(5):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.02)
        clock.advance(0.2)
        beat = control_payload(b"/c", struct.pack("<Q", 2**64 - 1))
        remote._on_deliver(raw_frame(HEARTBEAT_TOPIC.encode(), beat), clock.now)
        clock.advance(6.0)  # past the last retry of the forged run
        rx = remote.rx_stats()["/c"]
        assert (rx.expected, rx.known, rx.gaps) == (5, 4, {})
        for i in range(5, 10):
            pub.publish(bytes([i]), clock.now)
            clock.advance(0.02)
        clock.advance(1.0)
        assert [m.payload[0] for m in sub.drain()] == list(range(10))


# CRC-valid frames that no endpoint can act on, and whether each one decodes
# (a frame that decodes is dropped alone; one that does not loses its batch)
BAD_PEER_FRAMES = {
    "replay-1-byte-payload": (raw_frame(REPLAY_TOPIC.encode(), b"\x05"), True),
    "replay-inverted-range": (
        raw_frame(REPLAY_TOPIC.encode(), control_payload(b"/data", struct.pack("<QQ", 5, 2))),
        True,
    ),
    "replay-topic-not-utf8": (
        raw_frame(REPLAY_TOPIC.encode(), control_payload(b"/\xff\xfe", struct.pack("<QQ", 0, 1))),
        True,
    ),
    "heartbeat-short": (
        raw_frame(HEARTBEAT_TOPIC.encode(), control_payload(b"/data", b"\x01\x02")),
        True,
    ),
    "data-topic-not-utf8": (raw_frame(b"/\xff\xfe", b"x"), False),
    "data-topic-invalid-name": (raw_frame(b"no-slash", b"x"), True),
}


@pytest.mark.parametrize("name", sorted(BAD_PEER_FRAMES))
def test_bad_peer_frame_is_counted_and_dropped(name):
    bad, decodes = BAD_PEER_FRAMES[name]
    clock = SimClock()
    fwd, rev = ideal_pair(clock)
    bus_a, bus_b, local, remote = make_pair(clock, fwd, rev)
    bus_b.advertise("/data", MessageKind.POSE)
    sub = bus_b.subscribe("/data", 16)

    def good(seq):
        return raw_frame(b"/data", b"ok%d" % seq, tier=TIER_STANDARD, seq=seq,
                         kind=int(MessageKind.POSE))

    remote._on_deliver(bad, clock.now)
    assert remote.decode_errors == 1
    remote._on_deliver(good(0), clock.now)
    assert [m.payload for m in sub.drain()] == [b"ok0"]
    remote._on_deliver(bad + good(1), clock.now)
    assert remote.decode_errors == 2
    assert [m.payload for m in sub.drain()] == ([b"ok1"] if decodes else [])
    clock.advance(1.0)


def test_first_frame_of_a_topic_with_a_clashing_kind_is_dropped():
    clock = SimClock()
    fwd, rev = ideal_pair(clock)
    bus_a, bus_b, local, remote = make_pair(clock, fwd, rev)
    bus_b.advertise("/data", MessageKind.POSE)
    remote._on_deliver(raw_frame(b"/data", b"x", kind=int(MessageKind.BLOB)), clock.now)
    assert remote.decode_errors == 1
    assert remote.rx_stats() == {}


def _control_payload_is_wellformed(control: str, payload: bytes) -> bool:
    """Independent oracle for the control payload layouts."""
    if len(payload) < 2:
        return False
    (n,) = struct.unpack_from("<H", payload)
    tail = 16 if control == REPLAY_TOPIC else 8
    if len(payload) != 2 + n + tail:
        return False
    try:
        payload[2 : 2 + n].decode("utf-8")
    except UnicodeDecodeError:
        return False
    if control == REPLAY_TOPIC:
        lo, hi = struct.unpack_from("<QQ", payload, 2 + n)
        return lo <= hi
    return True


u64 = st.integers(0, 2**64 - 1)
control_payloads = st.one_of(
    st.binary(max_size=40),
    st.builds(
        control_payload,
        st.one_of(st.just(b"/data"), st.binary(max_size=12)),
        st.one_of(
            st.binary(max_size=20),
            st.builds(lambda lo, hi: struct.pack("<QQ", lo, hi), st.integers(0, 12) | u64, st.integers(0, 12) | u64),
            u64.map(lambda seq: struct.pack("<Q", seq)),
        ),
    ),
)


@given(control=st.sampled_from([REPLAY_TOPIC, HEARTBEAT_TOPIC]), payload=control_payloads)
@settings(max_examples=200, deadline=None)
def test_control_frames_never_raise_property(control, payload):
    clock = SimClock()
    fwd, rev = ideal_pair(clock)
    policy = PriorityPolicy(rules=(("/data", TIER_CRITICAL),))
    bus_a, bus_b, local, remote = make_pair(clock, fwd, rev, policy=policy)
    pub = bus_a.advertise("/data", MessageKind.COMMAND)
    sub = bus_b.subscribe("/data", 64)
    for i in range(4):
        pub.publish(bytes([i]), clock.now)
        clock.advance(0.05)
    local._on_deliver(raw_frame(control.encode(), payload), clock.now)
    assert local.decode_errors == (0 if _control_payload_is_wellformed(control, payload) else 1)
    for i in range(4, 8):
        pub.publish(bytes([i]), clock.now)
        clock.advance(0.05)
    clock.advance(1.0)
    assert [m.payload[0] for m in sub.drain()] == list(range(8))
