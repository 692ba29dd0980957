"""Engine-level traffic runs and configuration measurement behavior."""

import os
import pickle
import shutil
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbridge import bridge, engine
from twinbridge.bridge import BridgeEndpoint, EndpointConfig, PriorityPolicy
from twinbridge.engine import BridgeScenario, TopicTraffic, _payload, percentile, run_traffic
from twinbridge.envelope import TIER_BULK, TIER_CRITICAL, Envelope, FrameError, decode_stream, encode_envelope
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


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_topic_traffic_rejects_a_rate_that_is_not_positive_and_finite(rate):
    # construction only: at an infinite rate run_traffic's schedule never ends
    with pytest.raises(ValueError, match="rate"):
        TopicTraffic("/t", MessageKind.BLOB, rate, 8)


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
            (0.5, (183, 63, 53), {
                "/r1/cmd": (60, 60, 0, 0, 76.25),
                "/r1/pose": (30, 30, 0, 0, 27.75),
                "/r1/scan": (120, 87, 33, 0, 49.125),
            }),
            (0.25, (182, 75, 66), {
                "/r1/cmd": (60, 60, 0, 0, 65.25),
                "/r1/pose": (30, 30, 0, 0, 29.0),
                "/r1/scan": (120, 96, 24, 0, 30.25),
            }),
            (0.0, (181, 68, 50), {
                "/r1/cmd": (60, 60, 0, 0, 39.0),
                "/r1/pose": (30, 30, 0, 0, 19.5),
                "/r1/scan": (120, 93, 27, 0, 6.0),
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
        counts = {"encoded": 0, "on_link": 0, "control": 0}
        encode, send, send_control = bridge.encode_envelope, NetLink.send, BridgeEndpoint._send_control

        def counted_encode(env):
            counts["encoded"] += 1
            return encode(env)

        def counted_send(link, payload):
            counts["on_link"] += len(decode_stream(payload))
            return send(link, payload)

        def counted_control(endpoint, *args):
            counts["control"] += 1
            return send_control(endpoint, *args)

        monkeypatch.setattr(bridge, "encode_envelope", counted_encode)
        monkeypatch.setattr(NetLink, "send", counted_send)
        monkeypatch.setattr(BridgeEndpoint, "_send_control", counted_control)
        result = run_traffic(scenario)
        assert sum(res.buffered for res in result.topics.values()) > 0
        assert counts["encoded"] == counts["on_link"]
        # `encodes` counts each frame built once, whatever its redundant copies
        assert result.encodes == result.totals()[0] + result.replays_served + counts["control"]

    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 95) == 0.0


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
        for name in ("agents20.yaml", "bridge_loss.yaml", "bridge_sweep.yaml", "mmcf_default.yaml")
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
    src = str(Path(__file__).resolve().parent.parent / "src")
    blob = pickle.dumps(scenarios, protocol=4)
    for version, exe in sorted(interpreters.items()):
        out = subprocess.run([exe, "-I", "-S", "-c", script, src], input=blob, capture_output=True, timeout=300)
        assert out.returncode == 0, (version, out.stderr.decode(errors="replace"))
        assert out.stdout.decode() == expected, f"{exe} ({version}) ran the scenarios differently"
