"""Prioritized, fault-tolerant topic bridging between two buses over a link.

An endpoint runs three duties on the shared simulation clock:

* egress: drain only the subscribed topics that received messages, classify
  each message into a priority tier, frame it, and feed per-tier send queues
  emptied by the tier scheduler under a per-tick byte budget;
* ingress: decode arriving frames, deduplicate by sequence number, republish
  on the local bus in per-topic sequence order, and detect gaps;
* discovery: periodically subscribe to newly advertised topics that pass the
  allow/deny lists.

Critical-tier gaps trigger replay requests over the reverse link; requests
are re-sent on a timer until the gap closes or the attempt budget runs out.
Heartbeat and gap-retry deadlines live in min-heaps, so an idle tick, with
nothing ready, queued or due, costs O(1): it only reschedules itself.
Every frame sent is retained in a per-topic replay ring that keeps the last
`replay_capacity` frames of each topic.

A baseline mode (prioritization, replay, and discovery all off, every topic
in the standard queue sent FIFO) stands in for a conventional unprioritized
setup in comparisons.

Nothing that arrives from the peer raises out of an endpoint: a batch that
does not decode, and a decoded frame the endpoint cannot act on, are counted
in `decode_errors` and dropped.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from .envelope import (
    TIER_BULK,
    TIER_CRITICAL,
    TIER_STANDARD,
    TIERS,
    BadTopic,
    Envelope,
    FrameError,
    decode_stream,
    encode_envelope,
    with_replay_flag,
)
from .msgbus import InvalidTopic, KindMismatch, MessageKind, Publisher, Subscription, TopicBus
from .netsim import NetLink, SimClock

CONTROL_PREFIX = "/__bridge"
REPLAY_TOPIC = "/__bridge/replay"
HEARTBEAT_TOPIC = "/__bridge/beat"

_REQ_HEAD = struct.Struct("<H")
_REQ_RANGE = struct.Struct("<QQ")
_BEAT_SEQ = struct.Struct("<Q")

BULK_BUDGET_FRACTION = 0.05


class BadControl(FrameError):
    """A control frame whose payload the endpoint cannot act on."""


# --- prioritization -------------------------------------------------------------


@dataclass(frozen=True)
class PriorityPolicy:
    """Ordered glob rules mapping topics to tiers; first match wins."""

    rules: tuple[tuple[str, int], ...] = ()
    default_tier: int = TIER_STANDARD

    def classify(self, topic: str) -> int:
        for pattern, tier in self.rules:
            if fnmatchcase(topic, pattern):
                return tier
        return self.default_tier


# --- replay buffer ---------------------------------------------------------------


class ReplayBuffer:
    """Per-topic ring of the last `capacity` envelopes sent.

    Each topic's envelopes must arrive with consecutive seqs, so a ring is
    one unbroken window of seqs and a lookup is arithmetic on its ends.
    `dropped` counts the envelopes pushed out of full rings.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("replay capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._rings: dict[str, deque[Envelope]] = {}

    def insert(self, env: Envelope) -> None:
        ring = self._rings.get(env.topic)
        if ring is None:
            ring = self._rings[env.topic] = deque(maxlen=self.capacity)
        elif env.seq != ring[-1].seq + 1:
            raise ValueError(f"{env.topic} seq {env.seq} does not follow {ring[-1].seq}")
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(env)

    def get_range(self, topic: str, from_seq: int, to_seq: int) -> list[Envelope]:
        ring = self._rings.get(topic)
        if not ring:
            return []
        # peers send u64 bounds: clip them to the window, never walk them
        first = ring[0].seq
        start = max(from_seq, first) - first
        stop = min(to_seq, ring[-1].seq) - first + 1
        return list(itertools.islice(ring, start, stop)) if start < stop else []

    def contains(self, topic: str, seq: int) -> bool:
        ring = self._rings.get(topic)
        return bool(ring) and ring[0].seq <= seq <= ring[-1].seq


# --- discovery ------------------------------------------------------------------


@dataclass(frozen=True)
class DiscoveryConfig:
    """Dynamic topic discovery, off unless enabled: period and allow/deny glob lists."""

    enabled: bool = False
    period: float = 0.5
    allow: tuple[str, ...] = ()
    deny: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.enabled and self.period <= 0:
            raise ValueError("discovery period must be positive when enabled")

    def permits(self, topic: str) -> bool:
        if topic.startswith(CONTROL_PREFIX):
            return False
        if self.allow and not any(fnmatchcase(topic, pat) for pat in self.allow):
            return False
        return not any(fnmatchcase(topic, pat) for pat in self.deny)


# --- tier scheduling --------------------------------------------------------------


@dataclass
class QueuedFrame:
    env: Envelope
    frame: bytes

    @property
    def size(self) -> int:
        return len(self.frame)


def check_shares(shares: tuple[float, float, float] | None) -> None:
    """Raise ValueError unless shares is None or 3 non-negative fractions summing to <= 1."""
    # written so that NaN fails each check
    if shares is not None and (
        len(shares) != 3 or not all(0 <= s for s in shares) or not sum(shares) <= 1.0 + 1e-9
    ):
        raise ValueError("shares must be 3 non-negative fractions summing to <= 1")


class TierScheduler:
    """Strict-priority scheduler with a bulk floor and per-tier byte credit.

    Each tick the bulk tier reserves 5% of the budget whenever it has traffic;
    critical then standard drain the remainder in strict priority, and unused
    allowance cascades down. A tier sends whole frames while its credit is
    positive and may borrow ahead (credit goes negative), which keeps the
    long-run byte rate at the allowance while letting frames larger than one
    tick's budget through instead of stalling.
    """

    def __init__(self, shares: tuple[float, float, float] | None = None) -> None:
        check_shares(shares)
        self.shares = shares
        self._credit = {tier: 0.0 for tier in TIERS}

    def plan(self, queues: dict[int, deque[QueuedFrame]], budget: float) -> list[QueuedFrame]:
        """Pop frames to send this tick, in transmit order."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        out: list[QueuedFrame] = []
        bulk_waiting = bool(queues.get(TIER_BULK))

        if self.shares is None:
            reserve = BULK_BUDGET_FRACTION * budget if bulk_waiting else 0.0
            quanta = {TIER_CRITICAL: budget - reserve, TIER_STANDARD: 0.0, TIER_BULK: reserve}
        else:
            sc, ss, sb = self.shares
            spare = max(0.0, 1.0 - (sc + ss + sb))
            if bulk_waiting:
                sb = max(sb, BULK_BUDGET_FRACTION)
            quanta = {
                TIER_CRITICAL: (sc + spare) * budget,
                TIER_STANDARD: ss * budget,
                TIER_BULK: sb * budget,
            }

        carry = 0.0
        for tier in (TIER_CRITICAL, TIER_STANDARD, TIER_BULK):
            queue = queues.get(tier) or deque()
            self._credit[tier] += quanta[tier] + carry
            carry = 0.0
            while queue and self._credit[tier] > 0:
                item = queue.popleft()
                self._credit[tier] -= item.size
                out.append(item)
            if not queue:
                # an idle tier neither banks nor owes; surplus cascades down
                carry = max(self._credit[tier], 0.0)
                self._credit[tier] = 0.0
        return out


# --- bridge endpoint ---------------------------------------------------------------


@dataclass(frozen=True)
class EndpointConfig:
    """Tunable endpoint parameters; `prioritized=False` is the FIFO baseline."""

    prioritized: bool = True
    tick: float = 0.01
    budget_per_tick: float | None = None  # default: bandwidth cap * tick
    batch_size: int = 4
    redundancy: int = 0
    shares: tuple[float, float, float] | None = None
    replay_capacity: int = 256
    sub_capacity: int = 4096
    heartbeat_interval: float = 0.25
    replay_retry: float = 0.3
    replay_attempts: int = 12
    topics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if not 0 <= self.redundancy <= 3:
            raise ValueError("redundancy must be in 0..3")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.budget_per_tick is not None and not self.budget_per_tick > 0:  # NaN fails too
            raise ValueError("budget_per_tick must be positive")
        check_shares(self.shares)


@dataclass
class _RxTopic:
    # every seq below `expected` was delivered or given up; it never decreases
    expected: int = 0
    ahead: dict[int, Envelope] = field(default_factory=dict)
    gaps: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)
    delivered: dict[int, float] = field(default_factory=dict)  # seq -> latency, in republish order


@dataclass
class _TxTopic:
    tier: int
    kind: int
    sub: Subscription
    next_seq: int = 0  # also the count of envelopes sent
    last_sent_at: float = 0.0


class BridgeEndpoint:
    """One side of a bridged link."""

    _ids = itertools.count()

    def __init__(
        self,
        bus: TopicBus,
        tx_link: NetLink,
        rx_link: NetLink,
        policy: PriorityPolicy,
        discovery: DiscoveryConfig,
        clock: SimClock,
        config: EndpointConfig = EndpointConfig(),
    ) -> None:
        self.bus = bus
        self.tx_link = tx_link
        self.policy = policy
        self.discovery = discovery
        self.clock = clock
        self.config = config
        self.origin_id = f"bridge-{next(self._ids)}"

        self.replay_buffer = ReplayBuffer(config.replay_capacity)
        self._scheduler = TierScheduler(config.shares)
        self._tx: dict[str, _TxTopic] = {}
        self._ready: set[str] = set()  # subscribed topics with queued messages
        # lazy deadline heaps: (last_sent_at, topic) per critical topic that has
        # sent, stale after a later send; (retry_at, topic) per gap request
        self._beats: list[tuple[float, str]] = []
        self._retries: list[tuple[float, str]] = []
        self._rx: dict[str, _RxTopic] = {}
        self._queues: dict[int, deque[QueuedFrame]] = {t: deque() for t in TIERS}
        self._publishers: dict[str, Publisher] = {}
        self._control_seq = {REPLAY_TOPIC: 0, HEARTBEAT_TOPIC: 0}

        # op counters feed the deterministic compute metric and reports
        self.encodes = 0
        self.decodes = 0
        self.link_sends = 0
        self.bytes_sent = 0
        self.decode_errors = 0
        self.replays_served = 0
        self.replays_requested = 0

        rx_link.on_deliver = self._on_deliver
        for topic in config.topics:
            self._ensure_subscription(topic)
        self._schedule_tick()
        if discovery.enabled and config.prioritized:
            self._run_discovery()

    # --- wiring -------------------------------------------------------------

    def _schedule_tick(self) -> None:
        self.clock.schedule(self.clock.now + self.config.tick, self._tick)

    def _budget(self) -> float:
        if self.config.budget_per_tick is not None:
            return self.config.budget_per_tick
        cap = self.tx_link.conditions.bandwidth_cap
        # 10% headroom keeps backlog in the prioritized tier queues instead
        # of the link's FIFO serialization queue
        return 0.9 * cap * self.config.tick if cap else 1_000_000.0

    # --- discovery duty -------------------------------------------------------

    def _run_discovery(self) -> None:
        for topic, _kind in sorted(self.bus.list_topics()):
            if topic in self._tx or topic in self._publishers:
                continue
            if self.discovery.permits(topic):
                self._ensure_subscription(topic)
        self.clock.schedule(self.clock.now + self.discovery.period, self._run_discovery)

    def _ensure_subscription(self, topic: str) -> None:
        if topic in self._tx:
            return
        kind = self.bus.kind_of(topic)
        sub = self.bus.subscribe(topic, self.config.sub_capacity)
        sub.ready = self._ready
        tier = self.policy.classify(topic) if self.config.prioritized else TIER_STANDARD
        self._tx[topic] = _TxTopic(
            tier=tier, kind=int(kind) if kind is not None else int(MessageKind.BLOB), sub=sub
        )

    # --- egress duty ----------------------------------------------------------

    def _tick(self) -> None:
        now, beats, retries = self.clock.now, self._beats, self._retries
        # an idle tick (nothing ready, queued or due) would send nothing and
        # leave every scheduler credit at 0, as the last full tick did
        if self._ready or any(self._queues.values()) or (retries and retries[0][0] <= now) or (
            beats and now - beats[0][0] >= self.config.heartbeat_interval
        ):
            self._drain_bus(now)
            if self.config.prioritized:
                self._emit_heartbeats(now)
                self._retry_gap_requests(now)
                plan = self._scheduler.plan(self._queues, self._budget())
            else:
                plan = self._plan_fifo(self._budget())
            self._transmit(plan)
        self._schedule_tick()

    def _drain_bus(self, now: float) -> None:
        ready = sorted(self._ready)
        self._ready.clear()
        for topic in ready:
            tx = self._tx[topic]
            for msg in tx.sub.drain():
                if msg.origin == self.origin_id:
                    continue
                env = Envelope(
                    tier=tx.tier,
                    flags=0,
                    seq=tx.next_seq,
                    sim_time_us=int(round(msg.publish_time * 1e6)),
                    topic=topic,
                    kind=int(msg.kind),
                    payload=msg.payload,
                )
                if tx.next_seq == 0 and tx.tier == TIER_CRITICAL:
                    heapq.heappush(self._beats, (now, topic))
                tx.next_seq += 1
                tx.last_sent_at = now
                frame = encode_envelope(env)
                self.encodes += 1
                if self.config.prioritized:
                    self.replay_buffer.insert(env)
                for _ in range(1 + self.config.redundancy):
                    self._queues[tx.tier].append(QueuedFrame(env, frame))

    def _plan_fifo(self, budget: float) -> list[QueuedFrame]:
        # baseline mode classifies every topic as standard: one FIFO queue
        fifo = self._queues[TIER_STANDARD]
        out: list[QueuedFrame] = []
        spent = 0.0
        while fifo and (not out or spent + fifo[0].size <= budget):
            item = fifo.popleft()
            spent += item.size
            out.append(item)
        return out

    def _transmit(self, plan: list[QueuedFrame]) -> None:
        # one transport packet never mixes tiers, so a small critical packet
        # is not serialized behind bulk bytes sharing its batch
        batch: list[bytes] = []
        batch_tier: int | None = None
        for item in plan:
            if batch and (item.env.tier != batch_tier or len(batch) >= self.config.batch_size):
                self._send_batch(batch)
                batch = []
            batch_tier = item.env.tier
            batch.append(item.frame)
        if batch:
            self._send_batch(batch)

    def _send_batch(self, frames: list[bytes]) -> None:
        payload = b"".join(frames)
        self.tx_link.send(payload)
        self.link_sends += 1
        self.bytes_sent += len(payload)

    def _emit_heartbeats(self, now: float) -> None:
        beats, due = self._beats, []
        while beats and now - beats[0][0] >= self.config.heartbeat_interval:
            last, topic = beats[0]
            if last == self._tx[topic].last_sent_at:
                due.append(heapq.heappop(beats)[1])
            else:
                heapq.heapreplace(beats, (self._tx[topic].last_sent_at, topic))
        for topic in sorted(due):
            tx = self._tx[topic]
            tx.last_sent_at = now
            heapq.heappush(beats, (now, topic))
            payload = _pack_topic(topic) + _BEAT_SEQ.pack(tx.next_seq - 1)
            self._send_control(HEARTBEAT_TOPIC, payload, now)

    def _send_control(self, control_topic: str, payload: bytes, now: float) -> None:
        env = Envelope(
            tier=TIER_CRITICAL,
            flags=0,
            seq=self._control_seq[control_topic],
            sim_time_us=int(round(now * 1e6)),
            topic=control_topic,
            kind=int(MessageKind.COMMAND),
            payload=payload,
        )
        self._control_seq[control_topic] += 1
        self.encodes += 1
        self._queues[TIER_CRITICAL].append(QueuedFrame(env, encode_envelope(env)))

    # --- ingress duty -----------------------------------------------------------

    def _on_deliver(self, payload: bytes, at: float) -> None:
        try:
            frames = decode_stream(payload)
        except FrameError:
            self.decode_errors += 1
            return
        for env in frames:
            self.decodes += 1
            try:
                if env.topic.startswith(CONTROL_PREFIX):
                    self._handle_control(env, at)
                else:
                    self._handle_data(env, at)
            except FrameError:
                # dropped alone: the rest of the batch decoded and still counts
                self.decode_errors += 1

    def _handle_control(self, env: Envelope, at: float) -> None:
        if env.topic == REPLAY_TOPIC:
            topic, from_seq, to_seq = _unpack_control(env.payload, _REQ_RANGE)
            if from_seq > to_seq:
                raise BadControl(f"replay range {from_seq}..{to_seq} is inverted")
            self.request_replay(topic, from_seq, to_seq)
        elif env.topic == HEARTBEAT_TOPIC:
            topic, last_seq = _unpack_control(env.payload, _BEAT_SEQ)
            rx = self._rx.setdefault(topic, _RxTopic())
            if self.config.prioritized and last_seq >= rx.expected:
                self._note_gap(rx, topic, rx.expected, last_seq, at)

    def _handle_data(self, env: Envelope, at: float) -> None:
        # a topic is advertised with its first frame, so one the local bus
        # refuses is rejected before any receive state exists for it
        if env.topic not in self._publishers:
            kind = MessageKind(env.kind) if env.kind in MessageKind._value2member_map_ else MessageKind.BLOB
            try:
                self._publishers[env.topic] = self.bus.advertise(env.topic, kind)
            except (InvalidTopic, KindMismatch) as exc:
                raise BadTopic(str(exc)) from None
        rx = self._rx.setdefault(env.topic, _RxTopic())
        if self.config.prioritized and env.tier == TIER_CRITICAL:
            self._handle_critical(rx, env, at)
        elif env.seq >= rx.expected:
            self._republish(rx, env, at)
            rx.expected = env.seq + 1

    def _handle_critical(self, rx: _RxTopic, env: Envelope, at: float) -> None:
        if env.seq < rx.expected or env.seq in rx.ahead:
            return  # delivered, given up or already held
        if env.seq == rx.expected:
            self._republish(rx, env, at)
            rx.expected += 1
            self._flush_ahead(rx, at)
        else:
            rx.ahead[env.seq] = env
            self._note_gap(rx, env.topic, rx.expected, env.seq - 1, at)

    def _flush_ahead(self, rx: _RxTopic, at: float) -> None:
        # a gap this closes is dropped by the next _retry_gap_requests
        while rx.expected in rx.ahead:
            self._republish(rx, rx.ahead.pop(rx.expected), at)
            rx.expected += 1

    def _note_gap(self, rx: _RxTopic, topic: str, lo: int, hi: int, at: float) -> None:
        for (glo, ghi) in rx.gaps:
            if glo <= lo and hi <= ghi:
                return
        rx.gaps[(lo, hi)] = (self._send_gap_request(topic, lo, hi, at), 1)

    def _send_gap_request(self, topic: str, lo: int, hi: int, now: float) -> float:
        """Ask the peer to replay [lo, hi] of topic; returns the retry deadline."""
        payload = _pack_topic(topic) + _REQ_RANGE.pack(lo, hi)
        self._send_control(REPLAY_TOPIC, payload, now)
        self.replays_requested += 1
        retry_at = now + self.config.replay_retry
        heapq.heappush(self._retries, (retry_at, topic))
        return retry_at

    def _retry_gap_requests(self, now: float) -> None:
        # a gap closed before its deadline stays in rx.gaps until then; it lies
        # below `expected`, where no later gap starts, so _note_gap skips it
        retries, due = self._retries, set()
        while retries and retries[0][0] <= now:
            due.add(heapq.heappop(retries)[1])
        for topic in sorted(due):
            rx = self._rx[topic]
            updated: dict[tuple[int, int], tuple[float, int]] = {}
            for (lo, hi), (retry_at, attempts) in sorted(rx.gaps.items()):
                live_lo = max(lo, rx.expected)
                if hi < live_lo:
                    continue
                if now < retry_at:
                    updated[(lo, hi)] = (retry_at, attempts)
                    continue
                if attempts >= self.config.replay_attempts:
                    self._give_up_gap(rx, hi, now)
                    continue
                updated[(lo, hi)] = (self._send_gap_request(topic, live_lo, hi, now), attempts + 1)
            rx.gaps = updated

    def _give_up_gap(self, rx: _RxTopic, hi: int, now: float) -> None:
        rx.expected = max(rx.expected, hi + 1)
        self._flush_ahead(rx, now)

    def _republish(self, rx: _RxTopic, env: Envelope, at: float) -> None:
        # callers advance `expected` past env.seq, so each seq lands here once
        self._publishers[env.topic].publish(env.payload, at, origin=self.origin_id)
        rx.delivered[env.seq] = at - env.sim_time

    # --- replay -------------------------------------------------------------------

    def request_replay(self, topic: str, from_seq: int, to_seq: int) -> None:
        """Re-enqueue buffered envelopes in [from_seq, to_seq]."""
        found = self.replay_buffer.get_range(topic, from_seq, to_seq)
        for env in found:
            flagged = with_replay_flag(env)
            self._queues[flagged.tier].append(QueuedFrame(flagged, encode_envelope(flagged)))
            self.encodes += 1
        self.replays_served += len(found)

    # --- audits ---------------------------------------------------------------------

    def pending_frames(self) -> list[Envelope]:
        """Frames waiting in send queues (for end-of-run audits)."""
        return [item.env for q in self._queues.values() for item in q]

    def held_for_reassembly(self) -> list[Envelope]:
        return [env for rx in self._rx.values() for env in rx.ahead.values()]

    def rx_stats(self) -> dict[str, _RxTopic]:
        return dict(self._rx)

    def tx_stats(self) -> dict[str, _TxTopic]:
        return dict(self._tx)


def _pack_topic(topic: str) -> bytes:
    raw = topic.encode("utf-8")
    return _REQ_HEAD.pack(len(raw)) + raw


def _unpack_control(payload: bytes, tail: struct.Struct) -> tuple:
    """Split a control payload into its topic and the fields of `tail`."""
    try:
        (n,) = _REQ_HEAD.unpack_from(payload, 0)
        topic = payload[2 : 2 + n].decode("utf-8")
        fields = tail.unpack(payload[2 + n :])
    except (struct.error, UnicodeDecodeError) as exc:
        raise BadControl(f"malformed control payload: {exc}") from None
    return (topic, *fields)
