"""Deterministic execution engine for bridge traffic scenarios.

Builds two buses joined by a bridged link pair, publishes scripted periodic
traffic on the local side, runs the shared clock, and audits the fate of
every logical message at the end: delivered, still buffered somewhere (tier
queue, in flight, held for reassembly, or recoverable from the replay ring),
or dropped. The audit makes the conservation invariant
sent = delivered + dropped + buffered checkable exactly. A ring copy counts
as buffered only for a critical topic, at or above the receiver's next
expected seq: the receiver asks for replays of nothing else. A critical seq
delivered but never sent, which only a forged frame can bring about, raises.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

from .bridge import BridgeEndpoint, EndpointConfig, PriorityPolicy
from .envelope import TIER_CRITICAL, TIER_NAMES
from .msgbus import MessageKind, TopicBus
from .netsim import NetLink, NetworkConditions, SimClock, link_pair


@dataclass(frozen=True)
class TopicTraffic:
    """One periodic publisher: fixed-size payloads at a fixed rate, from t = 0."""

    topic: str
    kind: MessageKind
    rate: float  # messages per simulated second
    size: int  # payload bytes

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:  # NaN fails too
            raise ValueError("rate must be positive and finite")
        if self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass(frozen=True)
class BridgeScenario:
    """Everything the engine needs for one deterministic traffic run."""

    name: str
    seed: int
    duration: float
    conditions: NetworkConditions
    traffic: tuple[TopicTraffic, ...]
    policy: PriorityPolicy
    endpoint: EndpointConfig = EndpointConfig()
    drain: float = 0.0  # quiet tail after traffic stops, still simulated

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.drain < 0 or self.drain >= self.duration:
            raise ValueError("drain must be in [0, duration)")


@dataclass
class TopicResult:
    tier: str
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    buffered: int = 0
    bytes_sent: int = 0
    latencies: list[float] = field(default_factory=list)


@dataclass
class TrafficResult:
    """Outcome of one engine run, keyed by topic."""

    duration: float
    topics: dict[str, TopicResult]
    encodes: int
    decodes: int
    link_sends: int
    link_bytes: int
    replays_requested: int
    replays_served: int
    replay_evictions: int = 0
    sub_queue_drops: int = 0
    batch_need: int = 0  # the largest batch sent, or batch_size + 1 if the limit cut one

    def tier_latencies(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {name: [] for name in TIER_NAMES.values()}
        for res in self.topics.values():
            out[res.tier].extend(res.latencies)
        return out

    def totals(self) -> tuple[int, int, int, int]:
        sent = sum(r.sent for r in self.topics.values())
        delivered = sum(r.delivered for r in self.topics.values())
        dropped = sum(r.dropped for r in self.topics.values())
        buffered = sum(r.buffered for r in self.topics.values())
        return sent, delivered, dropped, buffered

    @property
    def mean_latency(self) -> float:
        all_lat = [x for r in self.topics.values() for x in r.latencies]
        return sum(all_lat) / len(all_lat) if all_lat else 0.0

    @property
    def loss_rate(self) -> float:
        sent, delivered, _, _ = self.totals()
        return 1.0 - delivered / sent if sent else 0.0

    @property
    def compute_time(self) -> float:
        """Deterministic compute proxy: per-op costs in seconds. `encodes` counts a frame
        once, when it is built; its redundant copies, each encoded as it is sent, share it."""
        return (self.encodes + self.decodes) * 20e-6 + self.link_sends * 30e-6

    @property
    def bandwidth_used(self) -> float:
        return self.link_bytes / self.duration if self.duration else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; deterministic, no interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_traffic(scenario: BridgeScenario) -> TrafficResult:
    """Execute one bridge traffic scenario and audit every message's fate."""
    clock = SimClock()
    bus_local = TopicBus()
    bus_remote = TopicBus()
    fwd, rev = link_pair(clock, scenario.conditions, scenario.seed)

    topics = sorted(scenario.traffic, key=lambda t: t.topic)
    endpoint_cfg = scenario.endpoint
    if not endpoint_cfg.topics:
        endpoint_cfg = replace(endpoint_cfg, topics=tuple(t.topic for t in topics))

    publishers = {t.topic: bus_local.advertise(t.topic, t.kind) for t in topics}
    payloads = {t.topic: _payload(t, scenario.seed) for t in topics}

    local = BridgeEndpoint(bus_local, fwd, rev, scenario.policy, clock, endpoint_cfg)
    remote = BridgeEndpoint(bus_remote, rev, fwd, scenario.policy, clock, replace(endpoint_cfg, topics=()))

    # precomputed publish schedule keeps event ordering independent of float
    # accumulation quirks
    schedule: list[tuple[float, str]] = []
    stop_at = scenario.duration - scenario.drain
    for t in topics:
        period = 1.0 / t.rate
        n = 0
        while n * period < stop_at:
            schedule.append((n * period, t.topic))
            n += 1
    schedule.sort()

    tick = endpoint_cfg.tick
    steps = int(round(scenario.duration / tick))
    cursor = 0
    for k in range(1, steps + 1):
        now = k * tick
        while cursor < len(schedule) and schedule[cursor][0] <= now:
            at, topic = schedule[cursor]
            publishers[topic].publish(payloads[topic], at)
            cursor += 1
        clock.advance(tick)
    clock.advance(0.0)

    return _audit(scenario, topics, bus_local, local, remote, fwd, rev)


def _payload(t: TopicTraffic, seed: int) -> bytes:
    # deterministic filler unique per topic; crc32, unlike hash(), is not
    # salted per process
    basis = (zlib.crc32(f"{t.topic}:{seed}".encode("utf-8")) & 0xFF) or 1
    # byte i is (basis + i) % 256
    return (bytes(range(256)) * (t.size // 256 + 2))[basis : basis + t.size]


def _audit(
    scenario: BridgeScenario,
    topics: list[TopicTraffic],
    bus_local: TopicBus,
    local: BridgeEndpoint,
    remote: BridgeEndpoint,
    fwd: NetLink,
    rev: NetLink,
) -> TrafficResult:
    from .envelope import decode_stream

    # tier labels always describe the topic's policy class, even in FIFO mode
    # where the runtime ignores them; comparisons then line up across modes
    tier_of = {t.topic: TIER_NAMES[local.policy.classify(t.topic)] for t in topics}
    results = {t.topic: TopicResult(tier=tier_of[t.topic]) for t in topics}

    tx_stats = local.tx_stats()
    rx_stats = remote.rx_stats()

    # copies still recoverable somewhere, keyed (topic, seq)
    in_queues: set[tuple[str, int]] = set()
    for env in local.pending_frames() + remote.pending_frames():
        in_queues.add((env.topic, env.seq))
    for payload in fwd.in_flight() + rev.in_flight():
        for env in decode_stream(payload):
            in_queues.add((env.topic, env.seq))
    for env in local.held_for_reassembly() + remote.held_for_reassembly():
        in_queues.add((env.topic, env.seq))

    for t in topics:
        res = results[t.topic]
        tx = tx_stats.get(t.topic)
        rx = rx_stats.get(t.topic)
        sent = tx.next_seq if tx else 0
        res.sent = sent
        res.bytes_sent = sent * t.size
        delivered = rx.delivered if rx else {}
        res.latencies = sorted(delivered.values())
        if tx and tx.tier == TIER_CRITICAL:
            if max(delivered, default=-1) >= sent:
                raise RuntimeError(f"{t.topic}: seq {max(delivered)} delivered, only {sent} sent")
            replayable_from = rx.expected if rx else 0
        else:
            replayable_from = sent
        buffered = 0
        dropped = 0
        for seq in range(sent):
            if seq in delivered:
                continue
            if (t.topic, seq) in in_queues or (
                seq >= replayable_from and local.replay_buffer.contains(t.topic, seq)
            ):
                buffered += 1
            else:
                dropped += 1
        res.delivered = len(delivered)
        res.buffered = buffered
        res.dropped = dropped

    return TrafficResult(
        duration=scenario.duration,
        topics=dict(sorted(results.items())),
        encodes=local.encodes + remote.encodes,
        decodes=local.decodes + remote.decodes,
        link_sends=local.link_sends + remote.link_sends,
        link_bytes=local.bytes_sent + remote.bytes_sent,
        replays_requested=remote.replays_requested,
        replays_served=local.replays_served,
        replay_evictions=local.replay_buffer.dropped,
        sub_queue_drops=sum(t.sub.drops for t in tx_stats.values()),
        batch_need=max(local.batch_need, remote.batch_need),
    )
