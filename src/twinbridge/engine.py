"""Deterministic execution engine for bridge traffic scenarios.

Builds two buses joined by a bridged link pair, streams scripted periodic
traffic onto the local side from a heap of each publish rate's next
`n * period` instant (the topics of rates that coincide interleave by name),
feeds both endpoints the shared clock's time, and audits the fate of
every logical message at the end: delivered, still buffered, or dropped.
Data flows from local to remote alone, so a copy of a sent seq can only be in
a tier queue or the replay ring at local, in flight on the forward link, or
held for reassembly at remote. Each topic's payload is a view of one filler.
The audit makes the conservation invariant sent = delivered + dropped +
buffered checkable exactly. A ring copy counts as buffered only for a
critical topic, at or above the receiver's next expected seq: the receiver
asks for replays of nothing else. A seq delivered but never sent, which only
a forged frame can bring about, raises `AuditError`, and so does a seq
delivered twice.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .bridge import TICK, BridgeEndpoint, EndpointConfig, PriorityPolicy
from .envelope import TIER_CRITICAL, TIER_NAMES
from .msgbus import MessageKind, TopicBus
from .netsim import NetworkConditions, SimClock, link_pair, whole_ticks


@dataclass(frozen=True, slots=True)
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
        if not 0 < self.duration < math.inf:  # NaN fails too
            raise ValueError("duration must be positive and finite")
        if not 0 <= self.drain < self.duration:
            raise ValueError("drain must be in [0, duration)")


@dataclass
class TopicResult:
    tier: str
    sent: int
    delivered: int
    dropped: int
    buffered: int
    bytes_sent: int
    latencies: list[float]


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
        total = 0.0
        for x in all_lat:  # a loop, not sum(): Python 3.12's compensated sum() gives other bits
            total += x
        return total / len(all_lat) if all_lat else 0.0

    @property
    def loss_rate(self) -> float:
        sent, delivered, _, _ = self.totals()
        return 1.0 - delivered / sent if sent else 0.0

    @property
    def compute_time(self) -> float:
        """Deterministic compute proxy: per-op costs in seconds. `encodes` counts a frame
        once, when it is built; its redundant copies share the count, and copies sent in
        one tick share one encoding too."""
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
    """Execute one bridge traffic scenario and audit every message's fate.

    A topic publishes at `n * period`, never a running sum, while that is before
    `duration - drain`. Topics that share a rate share one heap entry, so an
    instant costs one heap step per rate due, not one per topic. Each step
    publishes what is due by its end in (time, topic) order, advances the
    clock by `TICK`, firing the link deliveries due, then ticks the local and
    then the remote endpoint with `clock.now`. A duration between ticks is a ValueError.
    """
    clock = SimClock()
    bus_local = TopicBus()
    bus_remote = TopicBus()
    fwd, rev = link_pair(clock, scenario.conditions, scenario.seed)

    topics = sorted(scenario.traffic, key=lambda t: t.topic)
    filler = _filler(max((t.size for t in topics), default=0))
    # one (time, i, n, period, members) entry per rate still publishing, its
    # (topic, publish, payload) members in name order; all at 0.0 in order of i, a heap
    rates: dict[float, list] = {}
    for t in topics:
        member = (t.topic, bus_local.advertise(t.topic, t.kind).publish, _payload(t, scenario.seed, filler))
        rates.setdefault(1.0 / t.rate, []).append(member)

    names = tuple(t.topic for t in topics)
    local = BridgeEndpoint(bus_local, fwd, rev, scenario.policy, scenario.endpoint, topics=names)
    remote = BridgeEndpoint(bus_remote, rev, fwd, scenario.policy, scenario.endpoint)
    pending = [(0.0, i, 0, period, members) for i, (period, members) in enumerate(rates.items())]
    stop_at = scenario.duration - scenario.drain
    steps = whole_ticks(scenario.duration, TICK, "bridge.TICK")
    for k in range(1, steps + 1):
        now = k * TICK
        while pending and pending[0][0] <= now:
            at = pending[0][0]
            due = []
            while pending and pending[0][0] == at:
                _, i, n, period, members = pending[0]
                due.append(members)
                if (n + 1) * period < stop_at:
                    heapq.heapreplace(pending, ((n + 1) * period, i, n + 1, period, members))
                else:
                    heapq.heappop(pending)
            # rates that fall due together interleave their topics by name
            for _, publish, payload in due[0] if len(due) == 1 else sorted(itertools.chain(*due)):
                publish(payload, at)
        clock.advance(TICK)
        local._tick(clock.now)
        remote._tick(clock.now)
    clock.advance(0.0)  # fires what the last ticks scheduled at the end instant

    return _audit(scenario, topics, local, remote)


_FILLER = bytes(range(256))


def _filler(size: int) -> memoryview:
    """Byte i is i % 256, long enough for a payload of `size` bytes at any basis."""
    return memoryview(_FILLER * (size // 256 + 2))


def _payload(t: TopicTraffic, seed: int, filler: memoryview) -> memoryview:
    # deterministic filler unique per topic, a view that copies nothing;
    # crc32, unlike hash(), is not salted per process
    basis = (zlib.crc32(f"{t.topic}:{seed}".encode("utf-8")) & 0xFF) or 1
    # byte i is (basis + i) % 256
    return filler[basis : basis + t.size]


class AuditError(RuntimeError):
    """A delivery log that no correct run can leave: a seq delivered twice or never sent."""


def _missing_runs(topic: str, delivered: Iterable[int], sent: int) -> Iterator[range]:
    """The runs of seqs below `sent` missing from `delivered`, a log that must rise strictly below `sent`."""
    last = -1
    for seq in delivered:
        if seq != last + 1:  # a seq that follows the last one, the common case, needs no test
            if seq <= last:
                raise AuditError(f"{topic}: seq {seq} republished after seq {last}")
            if seq >= sent:
                raise AuditError(f"{topic}: seq {seq} delivered, only {sent} sent")
            yield range(last + 1, seq)
        last = seq
    if last >= sent:
        raise AuditError(f"{topic}: seq {last} delivered, only {sent} sent")
    yield range(last + 1, sent)


def _audit(
    scenario: BridgeScenario,
    topics: list[TopicTraffic],
    local: BridgeEndpoint,
    remote: BridgeEndpoint,
) -> TrafficResult:
    from .envelope import decode_stream

    tx_stats = local.tx_stats()
    rx_stats = remote.rx_stats()

    # the seqs of copies still recoverable, per topic, outside the replay ring
    in_queues: defaultdict[str, set[int]] = defaultdict(set)
    in_flight = itertools.chain.from_iterable(map(decode_stream, local.tx_link.in_flight()))
    for env in itertools.chain(local.pending_frames(), in_flight, remote.held_for_reassembly()):
        in_queues[env.topic].add(env.seq)

    results = {}
    for t in topics:
        tx = tx_stats.get(t.topic)
        rx = rx_stats.get(t.topic)
        sent = tx.next_seq if tx else 0
        delivered = rx.delivered if rx else ()
        if tx and tx.tier == TIER_CRITICAL:
            replayable_from = rx.expected if rx else 0
        else:
            replayable_from = sent
        queued = in_queues.get(t.topic, ())
        buffered = 0
        dropped = 0
        for seq in itertools.chain.from_iterable(_missing_runs(t.topic, delivered, sent)):
            if seq in queued or (
                seq >= replayable_from and local.replay_buffer.contains(t.topic, seq)
            ):
                buffered += 1
            else:
                dropped += 1
        # the tier label is the topic's policy class, in FIFO mode too, where
        # the runtime ignores it; comparisons then line up across modes
        tier = TIER_NAMES[scenario.policy.classify(t.topic)]
        latencies = sorted(rx.latencies) if rx else []
        results[t.topic] = TopicResult(tier, sent, len(delivered), dropped, buffered, sent * t.size, latencies)

    return TrafficResult(
        duration=scenario.duration,
        topics=results,
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
