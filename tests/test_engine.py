"""Engine-level traffic runs and configuration measurement behavior."""

import itertools
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
import zlib
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbridge import bridge, engine, mmcf
from twinbridge.bridge import BridgeEndpoint, EndpointConfig, PriorityPolicy, TierScheduler
from twinbridge.engine import (
    BridgeScenario, TopicTraffic, _filler, _missing_runs, _payload, percentile, run_traffic,
)
from twinbridge.envelope import (
    TIER_BULK, TIER_CRITICAL, TIER_STANDARD, Envelope, FrameError, decode_stream, encode_envelope,
)
from twinbridge.mmcf import ScenarioError, measure_config
from twinbridge.msgbus import MessageKind, Publisher
from twinbridge.netsim import NetLink, NetworkConditions, PiecewiseConstant, SimClock
from twinbridge.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

POLICY = PriorityPolicy(
    rules=(("/*/pose", TIER_CRITICAL), ("/*/points", TIER_BULK)),
)


def simple_scenario(loss=0.0, cap=None, seed=5, duration=6.0, drain=1.0):
    cond = NetworkConditions(PiecewiseConstant(0.02), PiecewiseConstant(loss), cap)
    traffic = (
        TopicTraffic("/r1/pose", MessageKind.POSE, 10.0, 64),
        TopicTraffic("/r1/scan", MessageKind.SCAN2D, 5.0, 600),
    )
    return BridgeScenario("simple", seed, duration, cond, traffic, POLICY, drain=drain)


def name_endpoints(monkeypatch) -> dict[BridgeEndpoint, str]:
    """Name each endpoint run_traffic builds by identity: the first is local."""
    names: dict[BridgeEndpoint, str] = {}
    init = BridgeEndpoint.__init__

    def named_init(endpoint, *args, **kwargs):
        init(endpoint, *args, **kwargs)
        names[endpoint] = "remote" if names else "local"

    monkeypatch.setattr(BridgeEndpoint, "__init__", named_init)
    return names


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_topic_traffic_rejects_a_rate_that_is_not_positive_and_finite(rate):
    # construction only: at an infinite rate run_traffic's publish heap never empties
    with pytest.raises(ValueError, match="rate"):
        TopicTraffic("/t", MessageKind.BLOB, rate, 8)


@pytest.mark.parametrize(
    "duration, drain",
    [(float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan")), (0.0, 0.0), (1.0, -0.1), (1.0, 1.0)],
)
def test_bridge_scenario_rejects_a_duration_or_drain_out_of_range(duration, drain):
    # a NaN drain would publish once per topic, and a NaN or infinite duration
    # would fail only when run_traffic counts its ticks
    traffic = (TopicTraffic("/t", MessageKind.BLOB, 10.0, 8),)
    with pytest.raises(ValueError, match="duration|drain"):
        BridgeScenario("bad", 1, duration, NetworkConditions.ideal(), traffic, PriorityPolicy(), drain=drain)


@pytest.mark.parametrize("duration", [0.05, 0.01, 6.01])
def test_run_traffic_refuses_a_duration_between_bridge_ticks(duration):
    # rounded, 0.05 s would run 2 ticks and send 1 of the 2 messages due every 0.045 s, and 0.01 s would run none
    traffic = (TopicTraffic("/t", MessageKind.BLOB, 1 / 0.045, 8),)
    scenario = BridgeScenario("off-grid", 1, duration, NetworkConditions.ideal(), traffic, PriorityPolicy())
    with pytest.raises(ValueError, match=rf"duration {duration} is not a whole number of bridge\.TICK \(0\.02 s\)"):
        run_traffic(scenario)


class TestRunTraffic:
    def test_conservation_under_loss(self):
        result = run_traffic(simple_scenario(loss=0.2))
        for topic, res in result.topics.items():
            assert res.sent == res.delivered + res.dropped + res.buffered, topic

    def test_no_traffic_scenario(self):
        cond = NetworkConditions.ideal()
        scenario = BridgeScenario("none", 1, 2.0, cond, (), PriorityPolicy())
        result = run_traffic(scenario)
        assert result.totals() == (0, 0, 0, 0)

    def test_zero_impairment_delivers_everything(self):
        result = run_traffic(simple_scenario())
        sent, delivered, dropped, buffered = result.totals()
        assert sent == delivered
        assert dropped == 0

    def test_a_ring_copy_no_receiver_will_request_counts_as_dropped(self):
        # only critical topics are replayed, so a standard or bulk message the
        # link lost is gone even while the sender's ring still holds it
        result = run_traffic(load_scenario(SCENARIOS / "bridge_loss.yaml").bridge_scenario())
        lossy = [res for res in result.topics.values() if res.tier != "critical"]
        assert lossy and any(res.dropped for res in lossy)
        for res in lossy:
            assert res.dropped == res.sent - res.delivered
            assert res.buffered == 0

    def test_the_outage_run_evicts_before_replay_gives_up_and_counts_the_ring(self, monkeypatch):
        counts = {"give_up": 0, "evicted_before_replay": 0, "contains": 0}
        give_up = BridgeEndpoint._give_up_gap
        get_range, contains = bridge.ReplayBuffer.get_range, bridge.ReplayBuffer.contains

        def counted_give_up(self, rx, hi, now):
            counts["give_up"] += 1
            return give_up(self, rx, hi, now)

        def counted_get_range(self, topic, from_seq, to_seq):
            # a request that names a seq below the ring's window asks for an evicted frame
            _, last, slots = self._rings[topic]
            counts["evicted_before_replay"] += from_seq <= last - len(slots)
            return get_range(self, topic, from_seq, to_seq)

        def counted_contains(self, topic, seq):
            counts["contains"] += 1
            return contains(self, topic, seq)

        monkeypatch.setattr(BridgeEndpoint, "_give_up_gap", counted_give_up)
        monkeypatch.setattr(bridge.ReplayBuffer, "get_range", counted_get_range)
        monkeypatch.setattr(bridge.ReplayBuffer, "contains", counted_contains)
        result = run_traffic(load_scenario(SCENARIOS / "bridge_outage.yaml").bridge_scenario())
        assert all(counts.values()), counts
        for topic, res in result.topics.items():
            assert res.sent == res.delivered + res.dropped + res.buffered, topic
            assert res.delivered <= res.sent, topic

    def test_critical_delivery_survives_reordering_latency_steps(self, monkeypatch):
        # each latency drop lets later packets overtake earlier ones
        bridge = load_scenario(SCENARIOS / "bridge_loss.yaml").bridge_scenario()
        latency = PiecewiseConstant([(0.0, 0.3), (5.0, 0.01), (10.0, 0.3), (15.0, 0.01)])
        bridge = replace(bridge, conditions=replace(bridge.conditions, latency=latency))
        landings: dict[int, list[float]] = {}
        republished: list[tuple[str, int]] = []
        send, republish = NetLink.send, BridgeEndpoint._republish

        def record_send(link, payload):
            event = send(link, payload)
            if event.deliver_at is not None:
                landings.setdefault(id(link), []).append(event.deliver_at)
            return event

        def record_republish(endpoint, rx, env, at):
            republished.append((env.topic, env.seq))
            republish(endpoint, rx, env, at)

        monkeypatch.setattr(NetLink, "send", record_send)
        monkeypatch.setattr(BridgeEndpoint, "_republish", record_republish)
        result = run_traffic(bridge)
        assert any(b < a for lands in landings.values() for a, b in zip(lands, lands[1:]))
        for topic, res in result.topics.items():
            assert res.sent == res.delivered + res.dropped + res.buffered, topic
            if res.tier == "critical":
                seqs = sorted(seq for name, seq in republished if name == topic)
                assert seqs == list(range(res.sent)), topic

    @pytest.mark.parametrize(
        "tier, topic, kind, sent",
        [
            (TIER_CRITICAL, "/r1/pose", MessageKind.POSE, 50),
            (TIER_STANDARD, "/r1/scan", MessageKind.SCAN2D, 25),
            (TIER_BULK, "/r1/points", MessageKind.POINTCLOUD, 5),
        ],
        ids=["critical", "standard", "bulk"],
    )
    @pytest.mark.parametrize("seq", [1000, 2**64 - 1], ids=["seq1000", "u64max"])
    def test_a_forged_seq_beyond_sent_fails_the_audit(self, monkeypatch, tier, topic, kind, sent, seq):
        # a critical receiver holds the forged frame, gives up on the gap before
        # it and republishes it; any other tier republishes it on arrival and
        # drops every real frame after it as old: a delivery of a seq the sender
        # never sent, which would break conservation if it passed. The delivery
        # log holds any u64 seq, so the largest ends in the audit too
        forged = encode_envelope(Envelope(tier, 0, seq, 0, topic, int(kind), b"x"))
        points = TopicTraffic("/r1/points", MessageKind.POINTCLOUD, 1.0, 2000)
        scenario = simple_scenario()
        scenario = replace(scenario, traffic=(*scenario.traffic, points))

        class Forging(BridgeEndpoint):
            def __init__(self, *args, topics=()):
                super().__init__(*args, topics=topics)
                if not topics:
                    clock = self.tx_link.clock
                    clock.schedule(1.0, lambda: self._on_deliver(forged, clock.now))

        monkeypatch.setattr(engine, "BridgeEndpoint", Forging)
        with pytest.raises(RuntimeError, match=f"{topic}: seq {seq} delivered, only {sent} sent"):
            run_traffic(scenario)

    @pytest.mark.parametrize(
        "latency, link, topics",
        [
            (0.5, (183, 63, 53), {
                "/r1/cmd": (60, 60, 0, 0, 76.25),
                "/r1/pose": (30, 30, 0, 0, 27.75),
                "/r1/scan": (120, 87, 33, 0, 49.125),
            }),
            (0.25, (172, 51, 41), {
                "/r1/cmd": (60, 60, 0, 0, 42.25),
                "/r1/pose": (30, 30, 0, 0, 20.75),
                "/r1/scan": (120, 89, 31, 0, 28.0),
            }),
            (0.0, (181, 68, 50), {
                "/r1/cmd": (60, 60, 0, 0, 39.0),
                "/r1/pose": (30, 30, 0, 0, 19.5),
                "/r1/scan": (120, 93, 27, 0, 6.0),
            }),
        ],
    )
    def test_deliveries_landing_on_tick_times_keep_their_order(self, monkeypatch, latency, link, topics):
        # a 0.25 s tick, latency and publish times are exact in binary, so deliveries
        # land exactly on tick times; every delivery due at a tick instant fires
        # before both endpoints tick, so at 0.25 s latency a replay request sent
        # on one tick is served on the next; any change to that order moves these
        for module in (bridge, engine):
            monkeypatch.setattr(module, "TICK", 0.25)
        cond = NetworkConditions(PiecewiseConstant(latency), PiecewiseConstant(0.3), None)
        traffic = (
            TopicTraffic("/r1/cmd", MessageKind.COMMAND, 4.0, 32),
            TopicTraffic("/r1/pose", MessageKind.POSE, 2.0, 64),
            TopicTraffic("/r1/scan", MessageKind.SCAN2D, 8.0, 200),
        )
        policy = PriorityPolicy(rules=(("/*/cmd", TIER_CRITICAL), ("/*/pose", TIER_CRITICAL)))
        scenario = BridgeScenario("ties", 7, 20.0, cond, traffic, policy, drain=5.0)
        result = run_traffic(scenario)
        assert (result.link_sends, result.replays_requested, result.replays_served) == link
        assert {
            topic: (res.sent, res.delivered, res.dropped, res.buffered, sum(res.latencies))
            for topic, res in result.topics.items()
        } == topics

    def test_the_clock_heap_holds_link_deliveries_and_never_a_tick(self, monkeypatch):
        # the engine ticks each endpoint every TICK, after the link deliveries due at
        # that instant, so each schedule is one delivery
        scheduled, delivered_sends = [], []
        schedule, send = SimClock.schedule, NetLink.send

        def counted_schedule(clock, at, callback):
            scheduled.append(callback)
            return schedule(clock, at, callback)

        def counted_send(link, payload):
            event = send(link, payload)
            delivered_sends.append(not event.dropped)
            return event

        monkeypatch.setattr(SimClock, "schedule", counted_schedule)
        monkeypatch.setattr(NetLink, "send", counted_send)
        result = run_traffic(simple_scenario(loss=0.2))
        assert len(delivered_sends) == result.link_sends
        assert 0 < len(scheduled) == sum(delivered_sends) < result.link_sends
        assert not any(getattr(callback, "__func__", None) is BridgeEndpoint._tick for callback in scheduled)

    def test_each_endpoint_ticks_once_per_tick_instant_local_first(self, monkeypatch):
        ticks = []
        tick = BridgeEndpoint._tick
        names = name_endpoints(monkeypatch)

        def logged_tick(endpoint, now):
            ticks.append((now, names[endpoint]))
            return tick(endpoint, now)

        monkeypatch.setattr(BridgeEndpoint, "_tick", logged_tick)
        run_traffic(simple_scenario(duration=2.0, drain=0.5))
        expected, t = [], 0.0
        for _ in range(round(2.0 / bridge.TICK)):
            t += bridge.TICK
            expected += [(t, "local"), (t, "remote")]
        assert ticks == expected

    @pytest.mark.parametrize("latency", [0.25, 0.0])
    def test_a_delivery_fires_before_the_ticks_of_its_instant_unless_a_tick_sent_it(self, monkeypatch, latency):
        # 0.25 s ticks and latency are exact in binary, so deliveries land on tick
        # instants; at 0.0 s a tick's frame lands at its own instant and fires after
        # that instant's remote tick, before any later tick
        for module in (bridge, engine):
            monkeypatch.setattr(module, "TICK", 0.25)
        log = []
        tick, on_deliver, send = BridgeEndpoint._tick, BridgeEndpoint._on_deliver, NetLink.send
        carried = []
        names = name_endpoints(monkeypatch)

        def logged_tick(endpoint, now):
            log.append(("tick", now, names[endpoint]))
            return tick(endpoint, now)

        def logged_deliver(endpoint, payload, at):
            log.append(("deliver", endpoint.tx_link.clock.now, at))
            return on_deliver(endpoint, payload, at)

        monkeypatch.setattr(BridgeEndpoint, "_tick", logged_tick)
        def counted_send(link, payload):
            event = send(link, payload)
            carried.append(event.deliver_at)
            return event

        monkeypatch.setattr(BridgeEndpoint, "_on_deliver", logged_deliver)
        monkeypatch.setattr(NetLink, "send", counted_send)
        cond = NetworkConditions(PiecewiseConstant(latency), PiecewiseConstant(0.3), None)
        traffic = (TopicTraffic("/r1/pose", MessageKind.POSE, 2.0, 64),)
        scenario = BridgeScenario("ties", 7, 10.0, cond, traffic, POLICY, drain=2.0)
        run_traffic(scenario)
        deliveries = [i for i, entry in enumerate(log) if entry[0] == "deliver"]
        # a frame the last ticks send lands after the run ends
        assert 0 < len(deliveries) == sum(at is not None and at <= 10.0 for at in carried) < len(carried)
        for i in deliveries:
            _, now, at = log[i]
            assert now == at
            ticks_at = [j for j, entry in enumerate(log) if entry[0] == "tick" and entry[1] == at]
            if latency:
                assert ticks_at and i < ticks_at[0]
            else:
                assert ticks_at and i > ticks_at[-1] and log[ticks_at[-1]][2] == "remote"
                assert all(entry[1] > at for entry in log[i + 1 :] if entry[0] == "tick")

    def test_replay_stays_lean_on_an_overloaded_fleet(self):
        # agents20 at 200 agents, seed 11, the fleet benchmark's run: a request
        # names only missing seqs, so few replays are served for the requests
        result = run_traffic(load_scenario(SCENARIOS / "agents20.yaml").bridge_scenario(count=200))
        assert result.replays_served <= 700
        assert result.replays_requested <= 2000
        assert result.totals()[1] >= 7532

    @pytest.mark.parametrize("redundancy", [0, 2])
    def test_each_frame_is_encoded_once_when_it_goes_on_the_link(self, monkeypatch, redundancy):
        # agents20 at 50 agents overloads its link, so frames are left queued
        scenario = load_scenario(SCENARIOS / "agents20.yaml").bridge_scenario(count=50)
        scenario = replace(scenario, endpoint=replace(scenario.endpoint, redundancy=redundancy))
        counts = {"encoded": 0, "on_link": 0, "control": 0, "copies": 0}
        encode, send, send_control = bridge.encode_envelope, NetLink.send, BridgeEndpoint._send_control
        plan = TierScheduler.plan

        def counted_encode(env):
            counts["encoded"] += 1
            return encode(env)

        def counted_send(link, payload):
            counts["on_link"] += len(decode_stream(payload))
            return send(link, payload)

        def counted_control(endpoint, *args):
            counts["control"] += 1
            return send_control(endpoint, *args)

        def counted_plan(scheduler, queues, budget):
            frames = plan(scheduler, queues, budget)
            # a redundant copy that follows its own envelope reuses its frame
            counts["copies"] += sum(env is prev for prev, env in zip(frames, frames[1:]))
            return frames

        monkeypatch.setattr(bridge, "encode_envelope", counted_encode)
        monkeypatch.setattr(NetLink, "send", counted_send)
        monkeypatch.setattr(BridgeEndpoint, "_send_control", counted_control)
        monkeypatch.setattr(TierScheduler, "plan", counted_plan)
        result = run_traffic(scenario)
        assert sum(res.buffered for res in result.topics.values()) > 0
        assert counts["encoded"] == counts["on_link"] - counts["copies"]
        if redundancy:
            assert counts["encoded"] < counts["on_link"]
        else:
            assert counts["copies"] == 0
        # `encodes` counts each frame built once, whatever its redundant copies
        assert result.encodes == result.totals()[0] + result.replays_served + counts["control"]

    @pytest.mark.parametrize("baseline", [True, False], ids=["fifo", "prioritized"])
    def test_only_a_prioritized_run_meets_heartbeat_and_retry_deadlines(self, monkeypatch, baseline):
        # only a critical topic has deadlines, and a FIFO endpoint classifies every topic as standard
        duties = ("_emit_heartbeats", "_retry_gap_requests")
        calls, endpoints = [], []

        def counted(duty, met):
            return lambda endpoint, now: calls.append(duty) or met(endpoint, now)

        for duty in duties:
            monkeypatch.setattr(BridgeEndpoint, duty, counted(duty, getattr(BridgeEndpoint, duty)))
        audit = engine._audit
        monkeypatch.setattr(engine, "_audit", lambda *args: endpoints.extend(args[2:]) or audit(*args))
        run_traffic(load_scenario(SCENARIOS / "bridge_loss.yaml").bridge_scenario(baseline=baseline))
        if baseline:
            assert calls == []
            assert [(ep._beats, ep._retries) for ep in endpoints] == [([], [])] * 2
        else:
            assert set(calls) == set(duties)

    @pytest.mark.parametrize("baseline", [True, False], ids=["fifo", "prioritized"])
    @pytest.mark.parametrize("name, count", [("bridge_loss.yaml", None), ("agents20.yaml", 50)])
    def test_data_copies_are_left_only_on_the_forward_path(self, monkeypatch, baseline, name, count):
        # what the audit rests on: the remote endpoint queues and sends control frames alone,
        # and the local endpoint never holds a frame for reassembly
        ends = []
        audit = engine._audit
        monkeypatch.setattr(engine, "_audit", lambda *args: ends.append(args[2:]) or audit(*args))
        run_traffic(load_scenario(SCENARIOS / name).bridge_scenario(count=count, baseline=baseline))
        [(local, remote)] = ends
        in_flight = [env for payload in remote.tx_link.in_flight() for env in decode_stream(payload)]
        backward = remote.pending_frames() + in_flight
        assert all(env.topic.startswith(bridge.CONTROL_PREFIX) for env in backward)
        assert local.held_for_reassembly() == [] and local.rx_stats() == {}

    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 95) == 0.0


@given(
    rates=st.lists(st.sampled_from([0.3, 2.5, 3.0, 7.0, 10.0]) | st.floats(0.2, 50.0), min_size=1, max_size=5),
    steps=st.integers(1, 300),
    drain_share=st.floats(0.0, 0.99),
)
@example(rates=[10.0, 2.5], steps=50, drain_share=0.0)  # n * period reaches duration - drain = 1.0 s exactly
@example(rates=[10.0, 5.0, 2.0, 10.0, 5.0], steps=50, drain_share=0.0)  # topics share rates, and rates coincide
@example(rates=[1.0, 10.0, 5.0, 1.0], steps=100, drain_share=0.25)  # all three rates are due at 1.0 s, where 1 Hz stops
@settings(max_examples=100, deadline=None)
def test_publishes_stream_in_time_then_topic_order_on_the_first_tick_due_property(rates, steps, drain_share):
    # run_traffic runs round(duration / TICK) ticks, so a duration of whole ticks
    # (here up to 6 s) leaves no publish time past the last tick
    duration = steps * bridge.TICK
    drain = drain_share * duration
    topics = [f"/t{i}" for i in range(len(rates))]
    traffic = tuple(TopicTraffic(topic, MessageKind.BLOB, rate, 8) for topic, rate in zip(topics, rates))
    scenario = BridgeScenario("stream", 3, duration, NetworkConditions.ideal(), traffic, PriorityPolicy(), drain=drain)
    publish, advance = Publisher.publish, SimClock.advance
    records: list[tuple[float, str, int]] = []  # (time, topic, clock.advance calls before the publish)
    advances = 0

    def recorded_publish(pub, payload, at, origin=None):
        if origin is None:  # the engine's own publishes, not a bridge republish
            records.append((at, pub.topic, advances))
        return publish(pub, payload, at, origin)

    def counted_advance(clock, dt):
        nonlocal advances
        advances += 1
        return advance(clock, dt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Publisher, "publish", recorded_publish)
        mp.setattr(SimClock, "advance", counted_advance)
        run_traffic(scenario)

    def times(rate):
        period = 1.0 / rate
        return itertools.takewhile(lambda at: at < duration - drain, (n * period for n in itertools.count()))

    assert [(at, topic) for at, topic, _ in records] == sorted(
        (at, topic) for topic, rate in zip(topics, rates) for at in times(rate)
    )
    for at, _, before in records:
        k = before + 1
        assert at <= k * bridge.TICK and (k == 1 or at > (k - 1) * bridge.TICK)


# (index of the link send it rides on, kind, random bytes, byte position, xor mask)
INJECTIONS = st.lists(
    st.tuples(
        st.integers(0, 80),  # the run makes 90 link sends
        st.sampled_from(["random", "corrupt", "duplicate"]),
        st.binary(max_size=64),
        st.integers(0, 2**16),
        st.integers(1, 255),
    ),
    max_size=12,
)


@given(injections=INJECTIONS)
@settings(max_examples=40, deadline=None)
def test_injected_peer_bytes_never_break_a_lossy_run_property(injections):
    """Random bytes, single-byte corruptions and duplicates of real batches fed
    to both endpoints during a prioritized bridge_loss run, shortened to 6 s."""
    bridge = replace(load_scenario(SCENARIOS / "bridge_loss.yaml").bridge_scenario(), duration=6.0, drain=3.0)
    send, republish = NetLink.send, BridgeEndpoint._republish
    sends = 0
    republished: list[tuple[str, int]] = []

    def inject(link, data):
        endpoint = link.on_deliver.__self__
        before = endpoint.decode_errors
        link.on_deliver(data, link.clock.now)
        try:
            decode_stream(data)
            failed = 0
        except FrameError:
            failed = 1
        # a batch that fails to decode counts once; a real batch's frames act cleanly
        assert endpoint.decode_errors == before + failed

    def injecting_send(link, payload):
        nonlocal sends
        event = send(link, payload)
        for at, kind, noise, pos, mask in injections:
            if at != sends:
                continue
            data = bytearray(payload)
            if kind == "random":
                data = noise
            elif kind == "corrupt":
                data[pos % len(data)] ^= mask
            link.clock.schedule(link.clock.now, lambda data=bytes(data): inject(link, data))
        sends += 1
        return event

    def record_republish(endpoint, rx, env, at):
        republished.append((env.topic, env.seq))
        republish(endpoint, rx, env, at)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetLink, "send", injecting_send)
        mp.setattr(BridgeEndpoint, "_republish", record_republish)
        result = run_traffic(bridge)
    for topic, res in result.topics.items():
        assert res.sent == res.delivered + res.dropped + res.buffered, topic
        if res.tier == "critical":
            seqs = sorted(seq for name, seq in republished if name == topic)
            assert seqs == list(range(res.sent)), topic


class TestMeasureConfig:
    def test_zero_impairment_zero_loss(self):
        metrics = measure_config(EndpointConfig(), simple_scenario())
        assert metrics.loss == 0.0
        assert metrics.latency > 0.0

    def test_same_seed_identical(self):
        cfg = EndpointConfig(redundancy=1)
        a = measure_config(cfg, simple_scenario(loss=0.15))
        b = measure_config(cfg, simple_scenario(loss=0.15))
        assert a == b

    def test_redundancy_monotonicity_under_loss(self):
        # doubling redundancy never worsens loss and never shrinks bandwidth
        scenario = simple_scenario(loss=0.2, duration=8.0, drain=1.0)
        metrics = [
            measure_config(EndpointConfig(redundancy=r), scenario) for r in (0, 1, 2)
        ]
        for worse, better in zip(metrics, metrics[1:]):
            assert better.loss <= worse.loss + 1e-12
            assert better.bandwidth >= worse.bandwidth - 1e-9

    def test_scenario_failure_wrapped(self):
        cond = NetworkConditions.ideal()
        bad = BridgeScenario(
            "bad", 1, 1.0, cond,
            (TopicTraffic("x", MessageKind.POSE, 1.0, 8),),  # the bus rejects the name at run time
            PriorityPolicy(),
        )
        with pytest.raises(ScenarioError):
            measure_config(EndpointConfig(), bad)


def test_payload_filler_independent_of_hash_seed():
    script = (
        "from twinbridge.engine import TopicTraffic, _filler, _payload\n"
        "from twinbridge.msgbus import MessageKind\n"
        "for i in range(8):\n"
        "    t = TopicTraffic(f'/robot{i}/pose', MessageKind.POSE, 1.0, 16)\n"
        "    print(_payload(t, 7, _filler(16)).hex())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")

    def payloads(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout

    assert payloads("1") == payloads("2")


def test_payload_filler_matches_the_per_byte_formula():
    def basis(seed):
        return (zlib.crc32(f"/t:{seed}".encode("utf-8")) & 0xFF) or 1

    seed_for: dict[int, int] = {}
    for seed in range(20_000):
        seed_for.setdefault(basis(seed), seed)
    assert sorted(seed_for) == list(range(1, 256))
    for b, seed in sorted(seed_for.items()):
        for size in (0, 1, 255, 256, 257, 1440, 12000):
            expected = bytes((b + i) % 256 for i in range(size))
            assert _payload(TopicTraffic("/t", MessageKind.BLOB, 1.0, size), seed, _filler(size)) == expected, (b, size)


@given(delivered=st.sets(st.integers(0, 60)), sent=st.integers(0, 70))
def test_the_audit_walk_yields_every_seq_not_delivered(delivered, sent):
    log = array("Q", sorted(seq for seq in delivered if seq < sent))
    missing = itertools.chain.from_iterable(_missing_runs("/t", log, sent))
    assert list(missing) == [seq for seq in range(sent) if seq not in delivered]


@pytest.mark.parametrize(
    "log, sent, error",
    [
        ([0, 1, 2, 3], 3, "seq 3 delivered, only 3 sent"),  # follows the last seq: caught at the end
        ([0, 5], 3, "seq 5 delivered, only 3 sent"),
        ([0, 2, 2], 5, "seq 2 republished after seq 2"),
        ([1, 0], 5, "seq 0 republished after seq 1"),
    ],
)
def test_the_audit_walk_rejects_a_log_that_does_not_rise_below_sent(log, sent, error):
    with pytest.raises(RuntimeError, match=f"^/t: {error}$"):
        list(itertools.chain.from_iterable(_missing_runs("/t", array("Q", log), sent)))


def test_every_payload_of_a_run_is_a_view_of_one_filler(monkeypatch):
    scenario = load_scenario(SCENARIOS / "agents20.yaml").bridge_scenario(count=50)
    payloads = []
    payload = engine._payload

    def recorded(t, seed, filler):
        view = payload(t, seed, filler)
        payloads.append((t, view))
        return view

    monkeypatch.setattr(engine, "_payload", recorded)
    run_traffic(scenario)
    assert len(payloads) == len(scenario.traffic) == 150
    assert len({id(view.obj) for _, view in payloads}) == 1
    for t, view in payloads:
        basis = (zlib.crc32(f"{t.topic}:{scenario.seed}".encode("utf-8")) & 0xFF) or 1
        assert view == bytes((basis + i) % 256 for i in range(t.size)), t.topic


@pytest.fixture(scope="module")
def fleet_peak() -> int:
    """The traced peak of one run of agents20 at 50 agents: 150 topics of 64, 1 440 and
    12 000 bytes, 3 000 publishes. A warm-up run fills the caches first."""
    scenario = load_scenario(SCENARIOS / "agents20.yaml").bridge_scenario(count=50)
    run_traffic(scenario)
    tracemalloc.start()
    try:
        run_traffic(scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fleet_run_holds_no_filler_copy_per_topic(fleet_peak):
    # On CPython 3.11 the traced peak of one run read 1.24 MB with views of one filler,
    # 1.89 MB with a private filler copy per topic put back, and 1.99 MB with a dict
    # delivery log as well; 1.5 MB sits between, with room for another interpreter's
    # object sizes.
    assert fleet_peak < 1_500_000


def test_a_fleet_run_holds_per_topic_state_only_for_what_it_holds(fleet_peak):
    # On CPython 3.11 the same peak reads 0.95 MB with list subscription queues, exact
    # circular replay rings, slotted per-topic records and an audit keyed per topic,
    # and 1.24 MB with a deque per subscription and per ring, a __dict__ per record
    # and an audit set of (topic, seq) tuples. 1.12 MB sits between, 18% above the
    # first and 10% below the second.
    assert fleet_peak < 1_120_000


def other_interpreters():
    """CPython 3.10+ interpreters found on this host, other than the one running the tests.

    A candidate that does not start or reports an older version (a broken
    version-manager shim, say) is skipped; one reporting a `sys.version`
    already found is the same build again.
    """
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 15)]
    candidates += ["/usr/bin/python3", *map(str, sorted(Path.home().glob(".pyenv/versions/*/bin/python3")))]
    probe = "import sys; print(sys.version_info >= (3, 10)); print(sys.version)"
    found = {sys.version: sys.executable}
    for exe in filter(None, candidates):
        try:
            out = subprocess.run([exe, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        ok, _, version = out.stdout.partition("\n")
        if out.returncode == 0 and ok == "True":
            found.setdefault(version.strip(), exe)
    del found[sys.version]
    return found


def test_traffic_results_are_identical_on_every_interpreter_installed():
    # the traffic core imports only the standard library, so a pickled
    # scenario runs under -I -S with nothing but src on the path
    scenarios = [
        load_scenario(SCENARIOS / name).bridge_scenario(baseline=baseline)
        for name in (
            "agents20.yaml", "bridge_loss.yaml", "bridge_outage.yaml", "bridge_sweep.yaml", "mmcf_default.yaml"
        )
        for baseline in (False, True)
    ]
    expected = "".join(f"{run_traffic(scenario)!r}\n" for scenario in scenarios)
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ interpreter found")
    script = (
        "import pickle, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from twinbridge.engine import run_traffic\n"
        "for scenario in pickle.load(sys.stdin.buffer):\n"
        "    print(repr(run_traffic(scenario)))\n"
    )
    runs_the_same_on(interpreters, script, scenarios, expected)


def runs_the_same_on(interpreters, script, inputs, expected):
    """Run script under each interpreter with -I -S, src on its path and inputs pickled on stdin; compare stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    blob = pickle.dumps(inputs, protocol=4)
    for version, exe in sorted(interpreters.items()):
        out = subprocess.run([exe, "-I", "-S", "-c", script, src], input=blob, capture_output=True, timeout=300)
        assert out.returncode == 0, (version, out.stderr.decode(errors="replace"))
        assert out.stdout.decode() == expected, f"{exe} ({version}) ran the scenarios differently"


def test_the_mmcf_search_is_identical_on_every_interpreter_installed():
    # the optimizer imports only the standard library, the engine and the bridge,
    # and its configurations are EndpointConfigs, which pickle
    scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
    spec, base = scenario.mmcf, scenario.bridge_scenario()
    probes, space, weights = spec.probe_configs(), spec.space, spec.weights
    evaluate = mmcf.reusing_evaluator()
    result = mmcf.optimize(space, base, mmcf.calibrate_bounds(probes, base, evaluate), weights, evaluate)
    expected = "".join(f"{value!r}\n" for value in (result.table, result.best, result.cost, result.clamps))
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ interpreter found")
    script = (
        "import pickle, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from twinbridge.mmcf import calibrate_bounds, optimize, reusing_evaluator\n"
        "base, probes, space, weights = pickle.load(sys.stdin.buffer)\n"
        "evaluate = reusing_evaluator()\n"
        "result = optimize(space, base, calibrate_bounds(probes, base, evaluate), weights, evaluate)\n"
        "for value in (result.table, result.best, result.cost, result.clamps):\n"
        "    print(repr(value))\n"
    )
    runs_the_same_on(interpreters, script, (base, probes, space, weights), expected)
