"""Multi-metric cost function for bridge configuration selection.

Latency, loss, compute, and bandwidth measurements are normalized into [0, 1]
against empirically calibrated bounds, combined under mission weights that
sum to one, and minimized over a finite configuration space in one
exhaustive pass that evaluates and tabulates every configuration. A
configuration is the bridge's own `EndpointConfig`, which a measurement
binds into the scenario whole.

A search simulates each distinct run once (`reusing_evaluator`), and it
counts a run simulated before it, such as a scenario's plain traffic run, as
one of its own: `twinbridge run` on `mmcf_default.yaml` simulates 10 runs in
all, the plain run included, for 24 configurations. A
configuration reuses an earlier simulation when it binds to the same
scenario on every field but `replay_capacity` and `batch_size`, and on each
of those two fields its value equals the earlier run's, or both values are at
least what that run needed: its busiest topic's sent count for the replay ring, if no
ring evicted, and its largest batch for the batch limit, if no batch was cut
at the limit. Neither limit then binds, so the runs are the same event for
event. A reused measurement is an exact copy, so the table reads as if
every configuration had been simulated afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .bridge import EndpointConfig
from .engine import BridgeScenario, TrafficResult, run_traffic


class InvalidWeights(ValueError):
    """Weights must be non-negative and sum to one."""


class EmptySpace(ValueError):
    """The configuration space has no candidates."""


class ScenarioError(RuntimeError):
    """A measurement scenario failed to complete."""


@dataclass(frozen=True)
class MetricBounds:
    """Empirical normalization bounds for the four metrics."""

    latency_min: float
    latency_max: float
    loss_min: float
    loss_max: float
    compute_max: float
    bandwidth_max: float

    def __post_init__(self) -> None:
        if not self.latency_max > self.latency_min:
            raise ValueError("latency_max must exceed latency_min")
        if not self.loss_max > self.loss_min:
            raise ValueError("loss_max must exceed loss_min")
        if self.compute_max <= 0 or self.bandwidth_max <= 0:
            raise ValueError("compute_max and bandwidth_max must be positive")


@dataclass(frozen=True)
class MmcfWeights:
    """Mission weights (latency, loss, compute, bandwidth); must sum to 1."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        vals = (self.alpha, self.beta, self.gamma, self.delta)
        if any(w < 0 for w in vals):
            raise InvalidWeights("weights must be non-negative")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise InvalidWeights(f"weights sum to {sum(vals)}, expected 1")

    def weigh(self, normalized: tuple[float, float, float, float]) -> float:
        """The MMCF cost: weighted sum of normalized (latency, loss, compute, bandwidth), in [0, 1]."""
        lat, loss, compute, bandwidth = normalized
        return self.alpha * lat + self.beta * loss + self.gamma * compute + self.delta * bandwidth


@dataclass(frozen=True)
class MeasuredMetrics:
    """Raw measurements for one configuration."""

    latency: float  # seconds, mean end-to-end
    loss: float  # probability
    compute: float  # seconds
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        for name in ("latency", "loss", "compute", "bandwidth"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class ClampCounter:
    clamps: int = 0


def _clamp01(x: float, counter: ClampCounter | None) -> float:
    if x < 0.0 or x > 1.0:
        if counter is not None:
            counter.clamps += 1
        return min(max(x, 0.0), 1.0)
    return x


def normalize(
    metrics: MeasuredMetrics, bounds: MetricBounds, counter: ClampCounter | None = None
) -> tuple[float, float, float, float]:
    """Normalized (latency, loss, compute, bandwidth), each clamped to [0, 1].

    Measurements outside the calibrated bounds clamp rather than fail; each
    clamp increments the supplied counter.
    """
    lat = _clamp01(
        (metrics.latency - bounds.latency_min) / (bounds.latency_max - bounds.latency_min), counter
    )
    loss = _clamp01(
        (metrics.loss - bounds.loss_min) / (bounds.loss_max - bounds.loss_min), counter
    )
    compute = _clamp01(metrics.compute / bounds.compute_max, counter)
    bandwidth = _clamp01(metrics.bandwidth / bounds.bandwidth_max, counter)
    return lat, loss, compute, bandwidth


def measure_config(config: EndpointConfig, scenario: BridgeScenario) -> MeasuredMetrics:
    """Run the scenario under one configuration and collect its metrics.

    Deterministic: the scenario seed is fixed, the compute metric is an
    operation-count proxy, so repeated calls return identical values.
    """
    return _metrics(_simulate(replace(scenario, endpoint=config)))


def _simulate(bound: BridgeScenario) -> TrafficResult:
    try:
        return run_traffic(bound)
    except Exception as exc:  # re-raised with measurement context
        raise ScenarioError(f"scenario {bound.name!r} failed under {bound.endpoint}: {exc}") from exc


def _metrics(result: TrafficResult) -> MeasuredMetrics:
    return MeasuredMetrics(
        latency=result.mean_latency,
        loss=result.loss_rate,
        compute=result.compute_time,
        bandwidth=result.bandwidth_used,
    )


Evaluator = Callable[[EndpointConfig, BridgeScenario], MeasuredMetrics]


def reusing_evaluator(known: Iterable[tuple[BridgeScenario, TrafficResult]] = ()) -> Evaluator:
    """An evaluator returning what `measure_config` does, simulating each distinct run once.

    A run's need on a limit is the least value at which that limit never
    binds in it: the busiest topic's sent count for the ring,
    `TrafficResult.batch_need` for batches. A limit that did bind is recorded
    as needing one more than it had, so only an equal value reuses that run.
    Each (scenario, result) in `known` is recorded first, as if this
    evaluator had simulated it, so a configuration it matches is not run again.
    """
    # (replay_capacity, batch_size, ring need, batch need, metrics) per run,
    # keyed by the scenario run with both limits at 1
    runs: dict[BridgeScenario, list[tuple[int, int, int, int, MeasuredMetrics]]] = {}

    def key(bound: BridgeScenario) -> BridgeScenario:
        return replace(bound, endpoint=replace(bound.endpoint, replay_capacity=1, batch_size=1))

    def record(bound: BridgeScenario, result: TrafficResult) -> MeasuredMetrics:
        cap, batch = bound.endpoint.replay_capacity, bound.endpoint.batch_size
        ring_need = cap + 1 if result.replay_evictions else max((r.sent for r in result.topics.values()), default=0)
        metrics = _metrics(result)
        runs.setdefault(key(bound), []).append((cap, batch, ring_need, result.batch_need, metrics))
        return metrics

    def evaluate(config: EndpointConfig, scenario: BridgeScenario) -> MeasuredMetrics:
        bound = replace(scenario, endpoint=config)
        cap, batch = config.replay_capacity, config.batch_size
        for run_cap, run_batch, ring_need, batch_need, metrics in runs.get(key(bound), ()):
            if (cap == run_cap or min(cap, run_cap) >= ring_need) and (
                batch == run_batch or min(batch, run_batch) >= batch_need
            ):
                return metrics
        return record(bound, _simulate(bound))

    for bound, result in known:
        record(bound, result)
    return evaluate


def calibrate_bounds(
    probes: Sequence[EndpointConfig],
    scenario: BridgeScenario,
    evaluator: Evaluator = measure_config,
) -> MetricBounds:
    """Determine normalization bounds from a probe subset of the space.

    Degenerate spreads are widened by a tiny epsilon so bounds stay valid.
    Pass the optimizer the same `reusing_evaluator()` to serve the probes
    again from memory.
    """
    if not probes:
        raise EmptySpace("no probe configurations")
    measured = [evaluator(cfg, scenario) for cfg in probes]
    lats = [m.latency for m in measured]
    losses = [m.loss for m in measured]
    return MetricBounds(
        latency_min=min(lats),
        latency_max=max(max(lats), min(lats) + 1e-9),
        loss_min=min(losses),
        loss_max=max(max(losses), min(losses) + 1e-9),
        compute_max=max(max(m.compute for m in measured), 1e-9),
        bandwidth_max=max(max(m.bandwidth for m in measured), 1e-9),
    )


@dataclass
class OptimizeResult:
    best: EndpointConfig
    cost: float
    clamps: int
    table: list[tuple[EndpointConfig, MeasuredMetrics, tuple[float, float, float, float], float]]


def optimize(
    config_space: Iterable[EndpointConfig],
    scenario: BridgeScenario,
    bounds: MetricBounds,
    weights: MmcfWeights,
    evaluator: Evaluator = measure_config,
) -> OptimizeResult:
    """Minimize the cost function over a finite configuration space, exhaustively.

    Every distinct configuration is evaluated once, in `EndpointConfig` order,
    and tabulated. Cost ties break to the lexicographically smallest
    configuration, the first minimum in that order. `clamps` counts each
    configuration's clamps once.
    """
    space = sorted(set(config_space))
    if not space:
        raise EmptySpace("configuration space is empty")
    counter = ClampCounter()
    table = []
    for cfg in space:
        metrics = evaluator(cfg, scenario)
        normalized = normalize(metrics, bounds, counter)
        table.append((cfg, metrics, normalized, weights.weigh(normalized)))
    best = min(table, key=lambda row: row[3])
    return OptimizeResult(best=best[0], cost=best[3], clamps=counter.clamps, table=table)
