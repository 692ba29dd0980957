"""Per-layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` replaces each layer's public functions with timing
wrappers. A wrapper is bound where the caller looks the name up: a module
that imports a function by name keeps its own reference, so
``twinbridge.bridge.encode_envelope`` is wrapped rather than
``twinbridge.envelope.encode_envelope``, and ``calibrate_bounds``/``optimize``
are observed through ``twinbridge.mmcf.run_traffic`` because they capture
``measure_config`` as a default argument.

Spans are aggregated in memory per name: calls, total time and self time
(duration minus the time covered by child spans). A layer's self time is the
sum over its spans, so the layers partition the traced ``runner.run``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from twinbridge import bridge, engine, envelope, mmcf, msgbus, netsim, runner, twinsync

# (span name, owner, attribute); the layer is the name's first component
SPANS = (
    ("runner.write_csvs", runner.RunReport, "write_csvs"),
    ("msgbus.kind_of", msgbus.TopicBus, "kind_of"),
    ("msgbus.subscribe", msgbus.TopicBus, "subscribe"),
    ("msgbus.advertise", msgbus.TopicBus, "advertise"),
    ("msgbus.publish", msgbus.Publisher, "publish"),
    ("engine.payload", engine, "_payload"),
    ("engine.audit", engine, "_audit"),
    ("bridge.tick", bridge.BridgeEndpoint, "_tick"),
    ("bridge.on_deliver", bridge.BridgeEndpoint, "_on_deliver"),
    ("bridge.replay.insert", bridge.ReplayBuffer, "insert"),
    ("bridge.replay.get_range", bridge.ReplayBuffer, "get_range"),
    ("bridge.replay.contains", bridge.ReplayBuffer, "contains"),
    ("netsim.schedule", netsim.SimClock, "schedule"),
    ("twinsync.predict_step", twinsync, "predict_step"),
    ("twinsync.state_at", twinsync.VirtualTwin, "state_at"),
    ("twinsync.schedule_gains", twinsync, "schedule_gains"),
    ("twinsync.gronwall_bound", twinsync, "gronwall_bound"),
    ("twinsync.run_sync_loop", runner, "run_sync_loop"),
    ("mmcf.calibrate_bounds", runner, "calibrate_bounds"),
    ("mmcf.optimize", runner, "optimize"),
)


def _p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile, the rule the runner's reports use."""
    return engine.percentile(values, 95)


class Tracer:
    def __init__(self) -> None:
        self._open: list[float] = []  # child time covered so far, per open span
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.eval_s: list[float] = []
        self.queue_waits: list[float] = []
        self._links: list[netsim.NetLink] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result, duration) runs once it returns."""
        open_spans = self._open
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child
            if after is not None:
                after(result, duration)
            return result

        return wrapper

    def install(self) -> None:
        for name, owner, attr in SPANS:
            setattr(owner, attr, self.span(name, getattr(owner, attr)))
        counts = self.counts

        def _encoded(frame, _d):
            counts["encode_bytes"] += len(frame)

        def _decoded(frames, _d):
            counts["decode_frames"] += len(frames)

        def _drained(msgs, _d):
            counts["drain_useful"] += bool(msgs)

        def _planned(frames, _d):
            counts["plan_frames"] += len(frames)

        def _advanced(fired, _d):
            counts["clock_events"] += len(fired)

        def _sent(outcome, _d):
            counts["link_drops"] += outcome.dropped

        def _gated(force, _d):
            counts["gate_open"] += bool((force != 0.0).any())

        def _traffic(result, _d):
            counts["replays_requested"] += result.replays_requested
            counts["replays_served"] += result.replays_served
            counts["replay_evictions"] += result.replay_evictions
            self._collect_queue_waits()

        def _evaluated(result, duration):
            self.eval_s.append(duration)
            _traffic(result, duration)

        wrap = self.span
        bridge.encode_envelope = wrap("envelope.encode", bridge.encode_envelope, _encoded)
        bridge.decode_stream = wrap("envelope.decode", bridge.decode_stream, _decoded)
        # engine._audit imports decode_stream from the envelope module at call time
        envelope.decode_stream = wrap("envelope.decode", envelope.decode_stream, _decoded)
        msgbus.Subscription.drain = wrap("msgbus.drain", msgbus.Subscription.drain, _drained)
        bridge.TierScheduler.plan = wrap("bridge.plan", bridge.TierScheduler.plan, _planned)
        netsim.SimClock.advance = wrap("netsim.advance", netsim.SimClock.advance, _advanced)
        netsim.NetLink.send = wrap("netsim.send", netsim.NetLink.send, _sent)
        twinsync.pd_correct = wrap("twinsync.pd_correct", twinsync.pd_correct, _gated)
        runner.run_traffic = wrap("engine.run_traffic", runner.run_traffic, _traffic)
        mmcf.run_traffic = wrap("engine.run_traffic", mmcf.run_traffic, _evaluated)

        links = self._links
        link_init = netsim.NetLink.__init__

        @functools.wraps(link_init)
        def _register(link, *args, **kwargs):
            link_init(link, *args, **kwargs)
            links.append(link)

        netsim.NetLink.__init__ = _register

    def _collect_queue_waits(self) -> None:
        """Simulated serialization-queue wait of every delivered send, from the link traces."""
        for link in self._links:
            cap = link.conditions.bandwidth_cap
            for ev in netsim.replay_trace(link):
                if ev.deliver_at is None:
                    continue
                unqueued = ev.t_send + link.conditions.latency.value_at(ev.t_send)
                unqueued += ev.size / cap if cap else 0.0
                self.queue_waits.append(max(0.0, ev.deliver_at - unqueued))
        self._links.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced so far."""
        self._collect_queue_waits()  # the sync section's link

        def calls(name: str) -> int:
            return self.spans.get(name, [0])[0]

        def total(name: str) -> float:
            return self.spans.get(name, [0, 0.0])[1]

        def self_s(name: str) -> float:
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        layer_self: defaultdict[str, float] = defaultdict(float)
        for name, (_calls, _total, own) in self.spans.items():
            layer_self[name.split(".")[0]] += own
        evals = sorted(self.eval_s)
        m = {
            "msgbus.drain.calls": calls("msgbus.drain"),
            "msgbus.drain.useful_ratio": ratio(c["drain_useful"], calls("msgbus.drain")),
            "msgbus.kind_of.calls": calls("msgbus.kind_of"),
            "msgbus.publish.calls": calls("msgbus.publish"),
            "engine.payload_s": total("engine.payload"),
            "engine.audit_s": total("engine.audit"),
            "bridge.replay.insert.calls": calls("bridge.replay.insert"),
            "bridge.replay.insert.self_s": self_s("bridge.replay.insert"),
            "bridge.replay.get_range.calls": calls("bridge.replay.get_range"),
            "bridge.replay.get_range.self_s": self_s("bridge.replay.get_range"),
            "bridge.replay.contains.calls": calls("bridge.replay.contains"),
            "bridge.replay.contains.self_s": self_s("bridge.replay.contains"),
            "bridge.replay.requested": c["replays_requested"],
            "bridge.replay.yield": ratio(c["replays_served"], c["replays_requested"]),
            "bridge.replay.evictions": c["replay_evictions"],
            "bridge.plan.calls": calls("bridge.plan"),
            "bridge.plan.self_s": self_s("bridge.plan"),
            "bridge.plan.frames_per_call": ratio(c["plan_frames"], calls("bridge.plan")),
            "envelope.encode.calls": calls("envelope.encode"),
            "envelope.encode.bytes": c["encode_bytes"],
            "envelope.encode.self_s": self_s("envelope.encode"),
            "envelope.decode.frames": c["decode_frames"],
            "envelope.decode.self_s": self_s("envelope.decode"),
            "netsim.clock.events": c["clock_events"],
            "netsim.link.sends": calls("netsim.send"),
            "netsim.link.send_self_s": self_s("netsim.send"),
            "netsim.link.drop_ratio": ratio(c["link_drops"], calls("netsim.send")),
            "netsim.link.queue_wait_p95_s": _p95(self.queue_waits),
            "twinsync.predict_step.calls": calls("twinsync.predict_step"),
            "twinsync.predict_step.us_per_call": 1e6 * ratio(
                total("twinsync.predict_step"), calls("twinsync.predict_step")
            ),
            "twinsync.state_at.self_s": self_s("twinsync.state_at"),
            "twinsync.schedule_gains.self_s": self_s("twinsync.schedule_gains"),
            "twinsync.gronwall_bound.self_s": self_s("twinsync.gronwall_bound"),
            "twinsync.gate_open_ratio": ratio(c["gate_open"], calls("twinsync.pd_correct")),
            "twinsync.run_sync_loop.self_s": self_s("twinsync.run_sync_loop"),
            "mmcf.evaluations": len(evals),
            "mmcf.eval_s_p50": evals[(len(evals) - 1) // 2] if evals else 0.0,
            "mmcf.optimize.self_s": self_s("mmcf.optimize"),
            "runner.write_csvs_s": total("runner.write_csvs"),
        }
        for layer in ("runner", "engine", "bridge", "envelope", "msgbus", "netsim", "twinsync", "mmcf"):
            m[f"{layer}.self_s"] = layer_self[layer]
        return m
