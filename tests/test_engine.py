"""Engine-level traffic runs and configuration measurement behavior."""

import os
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from twinbridge import engine
from twinbridge.bridge import BridgeEndpoint, EndpointConfig, PriorityPolicy
from twinbridge.engine import BridgeScenario, TopicTraffic, _payload, percentile, run_traffic
from twinbridge.envelope import TIER_BULK, TIER_CRITICAL, Envelope, encode_envelope
from twinbridge.mmcf import BridgeConfig, ScenarioError, measure_config
from twinbridge.msgbus import MessageKind
from twinbridge.netsim import NetLink, NetworkConditions, PiecewiseConstant
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
    return BridgeScenario(
        "simple", seed, duration, cond, traffic, POLICY,
        endpoint=EndpointConfig(tick=0.02), drain=drain,
    )


class TestRunTraffic:
    def test_conservation_under_loss(self):
        result = run_traffic(simple_scenario(loss=0.2))
        for topic, res in result.topics.items():
            assert res.sent == res.delivered + res.dropped + res.buffered, topic

    def test_no_traffic_scenario(self):
        cond = NetworkConditions.ideal()
        scenario = BridgeScenario(
            "none", 1, 2.0, cond, (), PriorityPolicy(), endpoint=EndpointConfig(tick=0.02)
        )
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

    def test_a_forged_critical_seq_beyond_sent_fails_the_audit(self, monkeypatch):
        # the receiver holds the forged frame, gives up on the gap before it
        # and republishes it: a delivery of a seq the sender never sent
        forged = encode_envelope(
            Envelope(TIER_CRITICAL, 0, 1000, 0, "/r1/pose", int(MessageKind.POSE), b"x")
        )

        class Forging(BridgeEndpoint):
            def __init__(self, *args):
                super().__init__(*args)
                if not self.config.topics:
                    self.clock.schedule(1.0, lambda: self._on_deliver(forged, self.clock.now))

        monkeypatch.setattr(engine, "BridgeEndpoint", Forging)
        with pytest.raises(RuntimeError, match="/r1/pose: seq 1000 delivered, only 50 sent"):
            run_traffic(simple_scenario())

    @pytest.mark.parametrize(
        "latency, link, topics",
        [
            (0.5, (224, 103, 178), {
                "/r1/cmd": (60, 60, 0, 0, 81.0),
                "/r1/pose": (30, 30, 0, 0, 39.5),
                "/r1/scan": (120, 88, 32, 0, 49.75),
            }),
            (0.25, (210, 92, 125), {
                "/r1/cmd": (60, 60, 0, 0, 61.0),
                "/r1/pose": (30, 30, 0, 0, 24.75),
                "/r1/scan": (120, 94, 26, 0, 29.625),
            }),
            (0.0, (188, 60, 79), {
                "/r1/cmd": (60, 60, 0, 0, 27.75),
                "/r1/pose": (30, 30, 0, 0, 11.75),
                "/r1/scan": (120, 96, 24, 0, 6.25),
            }),
        ],
    )
    def test_deliveries_landing_on_tick_times_keep_their_order(self, latency, link, topics):
        # tick, latency and publish times are exact in binary, so deliveries
        # land exactly on tick times and the clock breaks each tie by the order
        # its events were scheduled in; any change to that order moves these
        cond = NetworkConditions(PiecewiseConstant(latency), PiecewiseConstant(0.3), None)
        traffic = (
            TopicTraffic("/r1/cmd", MessageKind.COMMAND, 4.0, 32),
            TopicTraffic("/r1/pose", MessageKind.POSE, 2.0, 64),
            TopicTraffic("/r1/scan", MessageKind.SCAN2D, 8.0, 200),
        )
        policy = PriorityPolicy(rules=(("/*/cmd", TIER_CRITICAL), ("/*/pose", TIER_CRITICAL)))
        scenario = BridgeScenario(
            "ties", 7, 20.0, cond, traffic, policy, endpoint=EndpointConfig(tick=0.25), drain=5.0
        )
        result = run_traffic(scenario)
        assert (result.link_sends, result.replays_requested, result.replays_served) == link
        assert {
            topic: (res.sent, res.delivered, res.dropped, res.buffered, sum(res.latencies))
            for topic, res in result.topics.items()
        } == topics

    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 95) == 0.0


class TestMeasureConfig:
    def test_zero_impairment_zero_loss(self):
        metrics = measure_config(BridgeConfig(), simple_scenario())
        assert metrics.loss == 0.0
        assert metrics.latency > 0.0

    def test_same_seed_identical(self):
        cfg = BridgeConfig(redundancy=1)
        a = measure_config(cfg, simple_scenario(loss=0.15))
        b = measure_config(cfg, simple_scenario(loss=0.15))
        assert a == b

    def test_redundancy_monotonicity_under_loss(self):
        # doubling redundancy never worsens loss and never shrinks bandwidth
        scenario = simple_scenario(loss=0.2, duration=8.0, drain=1.0)
        metrics = [
            measure_config(BridgeConfig(redundancy=r), scenario) for r in (0, 1, 2)
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
            endpoint=EndpointConfig(tick=0.02),
        )
        with pytest.raises(ScenarioError):
            measure_config(BridgeConfig(), bad)


def test_payload_filler_independent_of_hash_seed():
    script = (
        "from twinbridge.engine import TopicTraffic, _payload\n"
        "from twinbridge.msgbus import MessageKind\n"
        "for i in range(8):\n"
        "    t = TopicTraffic(f'/robot{i}/pose', MessageKind.POSE, 1.0, 16)\n"
        "    print(_payload(t, 7).hex())\n"
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
            assert _payload(TopicTraffic("/t", MessageKind.BLOB, 1.0, size), seed) == expected, (b, size)
