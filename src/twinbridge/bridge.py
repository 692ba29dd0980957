"""Prioritized, fault-tolerant topic bridging between two buses over a link.

An endpoint bridges the fixed list of topics in its config, and runs two
duties on the shared simulation clock:

* egress: drain only the subscribed topics that received messages, classify
  each message into a priority tier, and queue its envelope per tier; the tier
  scheduler empties the queues in strict priority under a per-tick byte budget
  fixed from the link's bandwidth cap, and each frame is encoded as it goes on
  the link;
* ingress: decode arriving frames, deduplicate by sequence number, republish
  on the local bus in per-topic sequence order, and detect gaps.

The receiver keeps each critical topic's missing seqs as disjoint runs, and
asks the peer over the reverse link to replay them; a request never names a
seq the receiver holds. New evidence (a critical frame that arrives out of
order, or a heartbeat that announces a seq not yet delivered) asks once for
the seqs no earlier evidence announced, and re-asks each open run that was
not already asked at that instant. The `REPLAY_RETRY` timer re-asks a run no
request has named for that long; its deadlines alone use up
`replay_attempts`, after which the run is given up, but never past the
highest seq that arrived: the runs beyond it rest on a heartbeat's word alone,
which a forged heartbeat can inflate, so they are forgotten until new evidence
reopens them. A held seq splits the run it lands in, so a run is never walked
by the range a peer announced: a re-ask sends at most one request per held
seq, plus one.
A replay request never queues a second copy of a frame already waiting to be
sent: a seq whose replay copy is queued is skipped until that copy goes on
the link.
Replay-request and heartbeat frames carry seq 0: the receiver acts on their
payload alone.
Heartbeat and gap-retry deadlines live in min-heaps, so an idle tick, with
nothing ready, queued or due, costs O(1): it only reschedules itself.
Every frame sent is retained in a per-topic replay ring that keeps the last
`replay_capacity` frames of each topic.

A baseline mode (prioritization and replay off, every topic in the standard
queue sent FIFO) stands in for a conventional unprioritized setup in
comparisons.

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
    FLAG_REPLAY,
    TIER_BULK,
    TIER_CRITICAL,
    TIER_STANDARD,
    TIERS,
    BadTopic,
    Envelope,
    FrameError,
    decode_stream,
    encode_envelope,
    frame_size,
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
# messages a bridged topic's bus subscription holds before the oldest is dropped
SUB_CAPACITY = 4096
# seconds after a request named a gap run before the run is asked for again
REPLAY_RETRY = 0.3


class BadControl(FrameError):
    """A control frame whose payload the endpoint cannot act on."""


# --- prioritization -------------------------------------------------------------


@dataclass(frozen=True)
class PriorityPolicy:
    """Ordered glob rules mapping topics to tiers; first match wins."""

    rules: tuple[tuple[str, int], ...] = ()
    default_tier: int = TIER_STANDARD

    def __post_init__(self) -> None:
        if any(tier not in TIERS for tier in (self.default_tier, *(t for _, t in self.rules))):
            raise ValueError(f"every tier must be one of {TIERS}")

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


# --- tier scheduling --------------------------------------------------------------


class TierScheduler:
    """Strict-priority scheduler with a bulk floor and per-tier byte credit.

    Each tick the bulk tier reserves 5% of the budget whenever it has traffic;
    critical then standard drain the remainder in strict priority, and unused
    allowance cascades down. A tier sends whole frames while its credit is
    positive and may borrow ahead (credit goes negative), which keeps the
    long-run byte rate at the allowance while letting frames larger than one
    tick's budget through instead of stalling. Credit counts `frame_size` bytes.
    """

    def __init__(self) -> None:
        self._credit = {tier: 0.0 for tier in TIERS}

    def plan(self, queues: dict[int, deque[Envelope]], budget: float) -> list[Envelope]:
        """Pop frames to send this tick, in transmit order; budget is positive."""
        out: list[Envelope] = []
        reserve = BULK_BUDGET_FRACTION * budget if queues.get(TIER_BULK) else 0.0
        quanta = {TIER_CRITICAL: budget - reserve, TIER_STANDARD: 0.0, TIER_BULK: reserve}
        carry = 0.0
        for tier in (TIER_CRITICAL, TIER_STANDARD, TIER_BULK):
            queue = queues.get(tier) or deque()
            self._credit[tier] += quanta[tier] + carry
            carry = 0.0
            while queue and self._credit[tier] > 0:
                env = queue.popleft()
                self._credit[tier] -= frame_size(env)
                out.append(env)
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
    batch_size: int = 4
    redundancy: int = 0
    replay_capacity: int = 256
    heartbeat_interval: float = 0.25
    replay_attempts: int = 12
    topics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not self.tick > 0:
            raise ValueError("tick must be positive")
        if not 0 <= self.redundancy <= 3:
            raise ValueError("redundancy must be in 0..3")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(slots=True)
class _Gap:
    """A run of missing seqs, from its key in `_RxTopic.gaps` to `hi`."""

    hi: int
    retry_at: float  # the next deadline, `REPLAY_RETRY` after a request named the run
    attempts: int  # the first request plus each deadline passed since
    asked_at: float  # when a request last named the run, on evidence or on a deadline


@dataclass
class _RxTopic:
    # every seq below `expected` was delivered or given up; it never decreases
    expected: int = 0
    # the highest seq that arrived out of order or that a heartbeat announced,
    # cut back to the highest that arrived when a run beyond it is given up:
    # each seq in [expected, known] is held in `ahead` or inside one gap
    known: int = -1
    ahead: dict[int, Envelope] = field(default_factory=dict)
    gaps: dict[int, _Gap] = field(default_factory=dict)  # disjoint runs, keyed by first seq
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
        clock: SimClock,
        config: EndpointConfig = EndpointConfig(),
    ) -> None:
        self.bus = bus
        self.tx_link = tx_link
        self.policy = policy
        self.clock = clock
        self.config = config
        cap = tx_link.conditions.bandwidth_cap
        # bytes per tick; 10% headroom keeps backlog in the prioritized tier
        # queues instead of the link's FIFO serialization queue
        self._budget = 0.9 * cap * config.tick if cap else 1_000_000.0
        self.origin_id = f"bridge-{next(self._ids)}"

        self.replay_buffer = ReplayBuffer(config.replay_capacity)
        self._scheduler = TierScheduler()
        self._tx: dict[str, _TxTopic] = {}
        self._ready: set[str] = set()  # subscribed topics with queued messages
        # lazy deadline heaps: (last_sent_at, topic) per critical topic that has
        # sent, stale after a later send; (retry_at, topic) per gap request
        self._beats: list[tuple[float, str]] = []
        self._retries: list[tuple[float, str]] = []
        self._rx: dict[str, _RxTopic] = {}
        self._queues: dict[int, deque[Envelope]] = {t: deque() for t in TIERS}
        self._queued_replays: set[tuple[str, int]] = set()  # (topic, seq) of replay copies not yet sent
        self._publishers: dict[str, Publisher] = {}

        # op counters feed the deterministic compute metric and reports
        self.encodes = 0
        self.decodes = 0
        self.link_sends = 0
        self.bytes_sent = 0
        self.decode_errors = 0
        self.replays_served = 0
        self.replays_requested = 0
        # the least batch limit that cuts no batch of the plans sent: the largest
        # batch, or at least `batch_size + 1` once a batch was cut at `batch_size`
        self.batch_need = 0

        rx_link.on_deliver = self._on_deliver
        for topic in config.topics:
            self._ensure_subscription(topic)
        self._schedule_tick()

    # --- wiring -------------------------------------------------------------

    def _schedule_tick(self) -> None:
        self.clock.schedule(self.clock.now + self.config.tick, self._tick)

    def _ensure_subscription(self, topic: str) -> None:
        if topic in self._tx:
            return
        kind = self.bus.kind_of(topic)
        sub = self.bus.subscribe(topic, SUB_CAPACITY)
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
                plan = self._scheduler.plan(self._queues, self._budget)
            else:
                plan = self._plan_fifo(self._budget)
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
                self.encodes += 1
                if self.config.prioritized:
                    self.replay_buffer.insert(env)
                self._queues[tx.tier].extend([env] * (1 + self.config.redundancy))

    def _plan_fifo(self, budget: float) -> list[Envelope]:
        # baseline mode classifies every topic as standard: one FIFO queue
        fifo = self._queues[TIER_STANDARD]
        out: list[Envelope] = []
        spent = 0.0
        while fifo and (not out or spent + frame_size(fifo[0]) <= budget):
            spent += frame_size(fifo[0])
            out.append(fifo.popleft())
        return out

    def _transmit(self, plan: list[Envelope]) -> None:
        # one transport packet never mixes tiers, so a small critical packet
        # is not serialized behind bulk bytes sharing its batch
        batch: list[bytes] = []
        batch_tier: int | None = None
        for env in plan:
            if env.flags & FLAG_REPLAY:
                self._queued_replays.discard((env.topic, env.seq))
            if batch and (env.tier != batch_tier or len(batch) >= self.config.batch_size):
                if env.tier == batch_tier:
                    self.batch_need = self.config.batch_size + 1
                self._send_batch(batch)
                batch = []
            batch_tier = env.tier
            batch.append(encode_envelope(env))
        if batch:
            self._send_batch(batch)

    def _send_batch(self, frames: list[bytes]) -> None:
        payload = b"".join(frames)
        self.tx_link.send(payload)
        self.link_sends += 1
        self.bytes_sent += len(payload)
        if len(frames) > self.batch_need:
            self.batch_need = len(frames)

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
            seq=0,
            sim_time_us=int(round(now * 1e6)),
            topic=control_topic,
            kind=int(MessageKind.COMMAND),
            payload=payload,
        )
        self.encodes += 1
        self._queues[TIER_CRITICAL].append(env)

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
                self._note_evidence(rx, topic, last_seq, at)

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
        seq = env.seq
        if seq < rx.expected or seq in rx.ahead:
            return  # delivered, given up or already held
        if seq == rx.expected:
            self._republish(rx, env, at)
            rx.expected += 1
            self._flush_ahead(rx, at)
            return
        rx.ahead[seq] = env
        if seq <= rx.known:
            _split_gap(rx.gaps, seq)
        self._note_evidence(rx, env.topic, seq - 1, at)
        rx.known = max(rx.known, seq)

    def _flush_ahead(self, rx: _RxTopic, at: float) -> None:
        # a gap this closes is dropped when its topic's gaps are next walked
        while rx.expected in rx.ahead:
            self._republish(rx, rx.ahead.pop(rx.expected), at)
            rx.expected += 1

    def _note_evidence(self, rx: _RxTopic, topic: str, last: int, at: float) -> None:
        """Every seq up to `last` was sent: re-ask the open gaps, then open the new one."""
        for lo, gap in sorted(rx.gaps.items()):
            live_lo = max(lo, rx.expected)
            if gap.hi < live_lo:
                del rx.gaps[lo]
            elif gap.asked_at != at:
                gap.asked_at = at
                self._send_gap_request(topic, live_lo, gap.hi, at)
        lo = max(rx.expected, rx.known + 1)
        if lo <= last:
            retry_at = at + REPLAY_RETRY
            rx.gaps[lo] = _Gap(last, retry_at, 1, at)
            heapq.heappush(self._retries, (retry_at, topic))
            self._send_gap_request(topic, lo, last, at)
            rx.known = last

    def _send_gap_request(self, topic: str, lo: int, hi: int, now: float) -> None:
        """Ask the peer to replay [lo, hi] of topic."""
        self._send_control(REPLAY_TOPIC, _pack_topic(topic) + _REQ_RANGE.pack(lo, hi), now)
        self.replays_requested += 1

    def _retry_gap_requests(self, now: float) -> None:
        retries, due = self._retries, set()
        while retries and retries[0][0] <= now:
            due.add(heapq.heappop(retries)[1])
        for topic in sorted(due):
            rx = self._rx[topic]
            for lo, gap in sorted(rx.gaps.items()):
                if rx.gaps.get(lo) is not gap:
                    continue  # dropped when a run below it was given up
                live_lo = max(lo, rx.expected)
                if gap.hi < live_lo:
                    del rx.gaps[lo]
                elif gap.retry_at > now:
                    continue
                elif gap.attempts >= self.config.replay_attempts:
                    del rx.gaps[lo]
                    self._give_up_gap(rx, gap.hi, now)
                else:
                    gap.attempts += 1
                    # a re-ask on evidence within REPLAY_RETRY stands in for this
                    # one, and the next deadline falls REPLAY_RETRY after it
                    if gap.asked_at + REPLAY_RETRY <= now:
                        gap.asked_at = now
                        self._send_gap_request(topic, live_lo, gap.hi, now)
                    gap.retry_at = gap.asked_at + REPLAY_RETRY
                    heapq.heappush(retries, (gap.retry_at, topic))

    def _give_up_gap(self, rx: _RxTopic, hi: int, now: float) -> None:
        # give up no further than the highest seq that arrived: past it, the run
        # rests on an announcement alone, which a forged heartbeat can inflate
        top = max(rx.ahead, default=rx.expected - 1)
        if top < hi:
            for lo in [lo for lo in rx.gaps if lo > top]:
                del rx.gaps[lo]
            rx.known = hi = top
        rx.expected = max(rx.expected, hi + 1)
        self._flush_ahead(rx, now)

    def _republish(self, rx: _RxTopic, env: Envelope, at: float) -> None:
        # callers advance `expected` past env.seq, so each seq lands here once
        self._publishers[env.topic].publish(env.payload, at, origin=self.origin_id)
        rx.delivered[env.seq] = at - env.sim_time

    # --- replay -------------------------------------------------------------------

    def request_replay(self, topic: str, from_seq: int, to_seq: int) -> None:
        """Re-enqueue buffered envelopes in [from_seq, to_seq] whose replay copy is not already queued."""
        queued = self._queued_replays
        for env in self.replay_buffer.get_range(topic, from_seq, to_seq):
            if (topic, env.seq) in queued:
                continue
            queued.add((topic, env.seq))
            self._queues[env.tier].append(with_replay_flag(env))
            self.encodes += 1
            self.replays_served += 1

    # --- audits ---------------------------------------------------------------------

    def pending_frames(self) -> list[Envelope]:
        """Frames waiting in send queues (for end-of-run audits)."""
        return [env for q in self._queues.values() for env in q]

    def held_for_reassembly(self) -> list[Envelope]:
        return [env for rx in self._rx.values() for env in rx.ahead.values()]

    def rx_stats(self) -> dict[str, _RxTopic]:
        return dict(self._rx)

    def tx_stats(self) -> dict[str, _TxTopic]:
        return dict(self._tx)


def _split_gap(gaps: dict[int, _Gap], seq: int) -> None:
    """Take a seq that arrived out of order out of the gap that holds it."""
    for lo, gap in gaps.items():
        if lo <= seq <= gap.hi:
            break
    else:
        return
    if seq < gap.hi:
        gaps[seq + 1] = _Gap(gap.hi, gap.retry_at, gap.attempts, gap.asked_at)
    gap.hi = seq - 1
    if gap.hi < lo:
        del gaps[lo]


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
