"""Scenario files: schema, loading, and validation with line diagnostics.

A scenario is a UTF-8 YAML document with these sections (only name, seed and
duration are required):

    name: loss_resilience          # report identity
    seed: 42                       # master RNG seed
    duration: 30.0                 # simulated seconds

    network:                       # link impairments, both directions
      latency: 0.1                 # seconds; constant or [[t, value], ...]
      loss: 0.25                   # probability; constant or breakpoints
      bandwidth: 250000            # bytes/second; omit or null = uncapped
      disconnects: [[10.0, 40.0]]  # [start, end) windows

    bridge:                        # endpoint knobs (all optional)
      tick: 0.02                   # scheduler tick, seconds
      batch: 4                     # max frames per link packet
      redundancy: 0                # duplicate copies per frame, 0..3
      replay_capacity: 256         # per-topic replay ring depth
      heartbeat: 0.25              # idle-topic heartbeat period
      replay_attempts: 12          # re-requests before giving up
      drain: 0.0                   # quiet tail after traffic stops

    policy:                        # topic -> tier, first match wins
      default: standard            # a tier: critical, standard or bulk
      rules:
        - {pattern: "/*/pose", tier: critical}

    agents:
      count: 3
      topics:                      # "{i}" expands to the agent index
        - {name: "/robot{i}/pose", kind: pose, rate: 10.0, size: 64}

    sync:                          # twin synchronization run (optional)
      mass: 10.0
      force_script: [[0.0, 2.0, 0.0, 0.0]]   # rows: t, fx, fy, fz
      bound: {lipschitz: 1.2, delta: 0.6, e0: 0.0}
      ... (gains, thresholds, grid; an omitted key takes the default of
      twinsync's PhysicalParams, SyncController or SyncLoopConfig)

    mmcf:                          # configuration optimization (optional)
      weights: [0.4, 0.3, 0.2, 0.1]
      space: {redundancy: [0, 1], batch: [1, 4]}  # an omitted axis takes its bridge: value
      probes: 6

    geo:                           # coordinate conversion inputs (optional)
      reference: [39.25, -76.71, 10.0]       # degrees, degrees, meters
      scale: 1.0
      extent: 500000.0
      waypoints: [[39.2505, -76.7095, 10.0]]

A key that counts (seed, count, size, batch, capacities, attempts, probes,
mmcf axes) takes a whole number: 2.0 reads as 2, 2.5 is an error. A size
takes at most MAX_PAYLOAD, and a replay_capacity at most sys.maxsize. Two
expansions of the topic templates may not name one topic, which is checked at
the agent count of each run and of each sweep step. A key the parser does not
read is an error.
Validation failures raise ScenarioParseError carrying one "path (line N):
message" entry per problem; the line of a key's problem is the key's line.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

import yaml

from .bridge import EndpointConfig, PriorityPolicy
from .engine import BridgeScenario, TopicTraffic
from .envelope import MAX_PAYLOAD, TIER_BY_NAME, TIER_STANDARD
from .geo import GeoPoint
from .mmcf import BridgeConfig, MmcfWeights
from .msgbus import InvalidTopic, MessageKind, validate_topic
from .netsim import NetworkConditions, PiecewiseConstant
from .twinsync import PhysicalParams, SyncBoundModel, SyncController, SyncLoopConfig

KIND_NAMES = {
    "pose": MessageKind.POSE,
    "twist": MessageKind.TWIST,
    "scan2d": MessageKind.SCAN2D,
    "pointcloud": MessageKind.POINTCLOUD,
    "command": MessageKind.COMMAND,
    "blob": MessageKind.BLOB,
}


class ScenarioParseError(ValueError):
    """Scenario file failed to parse or validate; carries all diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


# --- YAML loading with per-path line marks ---------------------------------------


_SCALAR_TAGS = frozenset(f"tag:yaml.org,2002:{name}" for name in ("null", "bool", "int", "float"))
_SCALARS = yaml.constructor.SafeConstructor()


def _convert(node: yaml.Node, marks: dict[str, int], path: str) -> Any:
    marks[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        out = {}
        for key_node, value_node in node.value:
            key = str(key_node.value)
            child = f"{path}.{key}" if path else key
            out[key] = _convert(value_node, marks, child)
            marks[child] = key_node.start_mark.line + 1  # a key's diagnostics point at the key
        return out
    if isinstance(node, yaml.SequenceNode):
        return [_convert(child, marks, f"{path}[{i}]") for i, child in enumerate(node.value)]
    if node.tag not in _SCALAR_TAGS:
        return node.value
    # PyYAML's own constructors read every YAML 1.1 spelling: .inf, .nan, 0x1f, 1_000
    try:
        return _SCALARS.yaml_constructors[node.tag](_SCALARS, node)
    except (ValueError, IndexError, KeyError):
        raise ScenarioParseError(
            [f"{path} (line {marks[path]}): {node.value!r} is not a valid {node.tag.rsplit(':', 1)[-1]}"]
        ) from None


def load_yaml_with_lines(path: str | Path) -> tuple[dict, dict[str, int]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except UnicodeDecodeError as exc:
        raise ScenarioParseError([f"(line 1): not UTF-8 text: {exc.reason}"]) from exc
    except yaml.reader.ReaderError as exc:
        line = text.count("\n", 0, exc.position) + 1
        raise ScenarioParseError([f"(line {line}): {exc.reason}"]) from exc
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else 0
        raise ScenarioParseError([f"(line {line}): {exc.problem}"]) from exc
    if root is None:
        raise ScenarioParseError(["(line 1): scenario file is empty"])
    marks: dict[str, int] = {}
    data = _convert(root, marks, "")
    if not isinstance(data, dict):
        raise ScenarioParseError(["(line 1): scenario root must be a mapping"])
    return data, marks


class _Ctx:
    """Validation context accumulating line-tagged diagnostics."""

    def __init__(self, marks: dict[str, int]):
        self.marks = marks
        self.problems: list[str] = []

    def fail(self, path: str, message: str) -> None:
        line = self.marks.get(path, self.marks.get("", 1))
        self.problems.append(f"{path} (line {line}): {message}")

    def get(self, data: dict, path: str, key: str, types, required=False, default=None):
        full = f"{path}.{key}" if path else key
        if key not in data:
            if required:
                self.fail(path or key, f"missing required key {key!r}")
            return default
        value = data[key]
        if types is not None and not isinstance(value, types):
            names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
            self.fail(full, f"expected {names}, got {type(value).__name__}")
            return default
        return value

    def known(self, data: dict, path: str, keys) -> None:
        """Reports each key of data that is not in keys, so a misspelt key is not silently ignored."""
        for key in data:
            if key not in keys:
                self.fail(f"{path}.{key}" if path else key, f"unknown key; expected one of {sorted(keys)}")

    def number(
        self, data, path, key, required=False, default=None, minimum=None, maximum=None, positive=False,
        integer=False,
    ):
        """data[key] as a finite float (an int if `integer`); default if it is missing or fails a check."""
        if key not in data:
            if required:
                self.fail(path or key, f"missing required key {key!r}")
            return default
        full = f"{path}.{key}" if path else key
        value = _whole(data[key]) if integer else _finite(data[key])
        if value is None:
            self.fail(full, f"expected {'an integer' if integer else 'a finite number'}, got {data[key]!r:.40}")
        elif positive and value <= 0:
            self.fail(full, f"must be positive, got {value}")
        elif minimum is not None and value < minimum:
            self.fail(full, f"must be >= {minimum}, got {value}")
        elif maximum is not None and value > maximum:
            self.fail(full, f"must be <= {maximum}, got {value}")
        else:
            return value
        return default


def _finite(value) -> float | None:
    """value as a finite float, or None when it is not a finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _whole(value) -> int | None:
    """value as an int, or None when it is not a finite number without a fractional part."""
    number = _finite(value)
    return int(number) if number is not None and number.is_integer() else None


def _vector(ctx: _Ctx, raw, path: str, width: int, what: str, minimum=-math.inf) -> tuple[float, ...] | None:
    """raw as a list of `width` finite numbers >= minimum, each as a float; None after a diagnostic."""
    if isinstance(raw, list) and len(raw) == width:
        row = tuple(_finite(x) for x in raw)
        if None not in row and min(row) >= minimum:
            return row
    ctx.fail(path, f"expected {what}")
    return None


def _rows(ctx: _Ctx, raw, path: str, width: int, what: str, minimum=-math.inf) -> list[tuple[float, ...]]:
    """A list of `width`-number rows (null is none); each bad row is reported and skipped."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        ctx.fail(path, f"expected a list of {what} rows")
        return []
    rows = [_vector(ctx, row, f"{path}[{i}]", width, what, minimum) for i, row in enumerate(raw)]
    return [row for row in rows if row is not None]


# --- typed sections ---------------------------------------------------------------


@dataclass(frozen=True)
class SyncSpec:
    """Twin-synchronization section of a scenario, parsed into twinsync's configs.

    loop.duration is not read: a run lasts the scenario's duration.
    """

    params: PhysicalParams
    controller: SyncController
    loop: SyncLoopConfig
    bound: SyncBoundModel | None
    force_script: tuple[tuple[float, float, float, float], ...]
    yaw_script: tuple[tuple[float, float], ...]


# a replay ring is a deque(maxlen=replay_capacity), which takes at most sys.maxsize
_REPLAY_CAPACITY = {"minimum": 1, "maximum": sys.maxsize}
# mmcf.space axes, in BridgeConfig's field order, each with the range of its bridge: key
_MMCF_AXES = {
    "redundancy": {"minimum": 0, "maximum": 3},
    "replay_capacity": _REPLAY_CAPACITY,
    "batch": {"minimum": 1},
}


@dataclass(frozen=True)
class MmcfSpec:
    """mmcf section; `space` holds every axis, an omitted one as the scenario's own value."""

    weights: MmcfWeights
    space: dict[str, tuple]
    probes: int

    def configs(self) -> list[BridgeConfig]:
        axes = (self.space[axis] for axis in _MMCF_AXES)
        return sorted({BridgeConfig(*values) for values in itertools.product(*axes)})

    def probe_configs(self) -> list[BridgeConfig]:
        space = self.configs()
        if len(space) <= self.probes:
            return space
        step = (len(space) - 1) / (self.probes - 1)
        idx = sorted({round(i * step) for i in range(self.probes)})
        return [space[i] for i in idx]


@dataclass(frozen=True)
class GeoSpec:
    reference: GeoPoint
    scale: float = 1.0
    extent: float = 0.0
    waypoints: tuple[GeoPoint, ...] = ()


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario file."""

    name: str
    seed: int
    duration: float
    conditions: NetworkConditions
    policy: PriorityPolicy
    endpoint: EndpointConfig
    drain: float = 0.0
    agent_count: int = 0
    topic_templates: tuple[dict, ...] = ()
    sync: SyncSpec | None = None
    mmcf: MmcfSpec | None = None
    geo: GeoSpec | None = None

    def traffic_for(self, count: int | None = None) -> tuple[TopicTraffic, ...]:
        """Every template expanded for agents 1..count.

        ScenarioParseError if an expansion is not a valid topic or two name one topic.
        """
        count = self.agent_count if count is None else count
        out = []
        named_by: dict[str, tuple[str, int]] = {}  # topic -> (template location, agent)
        for i in range(1, count + 1):
            for tpl in self.topic_templates:
                topic = tpl["name"].replace("{i}", str(i))
                try:
                    validate_topic(topic)
                except InvalidTopic as exc:
                    raise ScenarioParseError([f"{tpl['at']}: agent {i} of {count}: {exc}"]) from None
                at, agent = named_by.setdefault(topic, (tpl["at"], i))
                if (at, agent) != (tpl["at"], i):
                    raise ScenarioParseError(
                        [f"{tpl['at']}: agent {i} of {count} gets {topic!r}, which {at} names for agent {agent}"]
                    )
                out.append(TopicTraffic(topic=topic, kind=tpl["kind"], rate=tpl["rate"], size=tpl["size"]))
        return tuple(out)

    def bridge_scenario(
        self, count: int | None = None, baseline: bool = False, seed: int | None = None
    ) -> BridgeScenario:
        endpoint = self.endpoint
        if baseline:
            endpoint = replace(endpoint, prioritized=False, redundancy=0)
        return BridgeScenario(
            name=self.name,
            seed=self.seed if seed is None else seed,
            duration=self.duration,
            conditions=self.conditions,
            traffic=self.traffic_for(count),
            policy=self.policy,
            endpoint=endpoint,
            drain=self.drain,
        )


# --- section parsers ---------------------------------------------------------------


def _parse_profile(ctx: _Ctx, raw, path: str, lo=None, hi=None) -> PiecewiseConstant:
    if isinstance(raw, list):
        points = _rows(ctx, raw, path, 2, "[time, value]") or [(0.0, 0.0)]
    else:
        value = 0.0 if raw is None else _finite(raw)
        if value is None:
            ctx.fail(path, "expected a number or a list of [time, value] pairs")
            value = 0.0
        points = [(0.0, value)]
    for t, v in points:
        if lo is not None and v < lo or hi is not None and v > hi:
            ctx.fail(path, f"value {v} at t={t} outside [{lo}, {hi}]")
    return PiecewiseConstant(points)


def _parse_network(ctx: _Ctx, data: dict) -> NetworkConditions:
    net = ctx.get(data, "", "network", dict, default={}) or {}
    ctx.known(net, "network", ("latency", "loss", "bandwidth", "disconnects"))
    latency = _parse_profile(ctx, net.get("latency"), "network.latency", lo=0.0)
    loss = _parse_profile(ctx, net.get("loss"), "network.loss", lo=0.0, hi=1.0)
    bandwidth = None
    if net.get("bandwidth") is not None:
        bandwidth = ctx.number(net, "network", "bandwidth", positive=True)
    windows = _rows(ctx, net.get("disconnects"), "network.disconnects", 2, "[start, end)")
    try:
        return NetworkConditions(latency, loss, bandwidth, tuple(windows))
    except ValueError as exc:
        ctx.fail("network", str(exc))
        return NetworkConditions.ideal()


def _parse_tier(ctx: _Ctx, data: dict, path: str, key: str, required=False, default=None) -> int | None:
    name = ctx.get(data, path, key, str, required=required, default=default)
    if name is not None and name not in TIER_BY_NAME:
        ctx.fail(f"{path}.{key}", f"unknown tier {name!r}; expected one of {sorted(TIER_BY_NAME)}")
    return TIER_BY_NAME.get(name)


def _parse_policy(ctx: _Ctx, data: dict) -> PriorityPolicy:
    pol = ctx.get(data, "", "policy", dict, default={}) or {}
    ctx.known(pol, "policy", ("default", "rules"))
    default = _parse_tier(ctx, pol, "policy", "default", default="standard")
    rules = []
    for i, raw in enumerate(ctx.get(pol, "policy", "rules", list, default=[])):
        path = f"policy.rules[{i}]"
        if not isinstance(raw, dict):
            ctx.fail(path, "expected a mapping")
            continue
        ctx.known(raw, path, ("pattern", "tier"))
        pattern = ctx.get(raw, path, "pattern", str, required=True)
        tier = _parse_tier(ctx, raw, path, "tier", required=True)
        if pattern is not None and tier is not None:
            rules.append((pattern, tier))
    return PriorityPolicy(tuple(rules), TIER_STANDARD if default is None else default)


def _parse_bridge(ctx: _Ctx, data: dict) -> tuple[EndpointConfig, float]:
    br = ctx.get(data, "", "bridge", dict, default={}) or {}
    ctx.known(br, "bridge", ("tick", "batch", "redundancy", "replay_capacity", "heartbeat", "replay_attempts", "drain"))
    # each value is checked here at its own key, so EndpointConfig has nothing left to reject
    endpoint = EndpointConfig(
        prioritized=True,
        tick=ctx.number(br, "bridge", "tick", default=0.01, positive=True),
        batch_size=ctx.number(br, "bridge", "batch", default=4, minimum=1, integer=True),
        redundancy=ctx.number(br, "bridge", "redundancy", default=0, minimum=0, maximum=3, integer=True),
        replay_capacity=ctx.number(br, "bridge", "replay_capacity", default=256, integer=True, **_REPLAY_CAPACITY),
        heartbeat_interval=ctx.number(br, "bridge", "heartbeat", default=0.25, positive=True),
        replay_attempts=ctx.number(br, "bridge", "replay_attempts", default=12, minimum=0, integer=True),
    )
    drain = ctx.number(br, "bridge", "drain", default=0.0, minimum=0.0)
    return endpoint, drain


def _parse_agents(ctx: _Ctx, data: dict) -> tuple[int, tuple[dict, ...]]:
    ag = ctx.get(data, "", "agents", dict, default=None)
    if ag is None:
        return 0, ()
    ctx.known(ag, "agents", ("count", "topics"))
    count = ctx.number(ag, "agents", "count", required=True, default=0, minimum=0, integer=True)
    templates = []
    topics = ctx.get(ag, "agents", "topics", list, required=True, default=[]) or []
    for i, raw in enumerate(topics):
        path = f"agents.topics[{i}]"
        if not isinstance(raw, dict):
            ctx.fail(path, "expected a mapping")
            continue
        ctx.known(raw, path, ("name", "kind", "rate", "size"))
        name = ctx.get(raw, path, "name", str, required=True)
        kind_name = ctx.get(raw, path, "kind", str, required=True, default="blob")
        if kind_name not in KIND_NAMES:
            ctx.fail(f"{path}.kind", f"unknown kind {kind_name!r}; expected one of {sorted(KIND_NAMES)}")
            continue
        rate = ctx.number(raw, path, "rate", required=True, positive=True)
        size = ctx.number(raw, path, "size", required=True, minimum=0, maximum=MAX_PAYLOAD, integer=True)
        if name is None or rate is None or size is None:
            continue
        try:
            validate_topic(name.replace("{i}", "1"))
        except InvalidTopic as exc:
            ctx.fail(f"{path}.name", f"template {name!r:.40}: {exc}")
            continue
        templates.append(
            {
                "at": f"{path}.name (line {ctx.marks[f'{path}.name']})",
                "name": name,
                "kind": KIND_NAMES[kind_name],
                "rate": rate,
                "size": size,
            }
        )
    return count, tuple(templates)


# numeric sync keys, each named after the field of PhysicalParams, SyncController or
# SyncLoopConfig that it sets; the first group must be positive, the second >= 0
_SYNC_POSITIVE = ("mass", "eps_pos", "eps_vel", "f_corr_max", "tick", "gain_window")
_SYNC_NON_NEGATIVE = ("friction", "drag", "kp", "kd")
_SYNC_KEYS = _SYNC_POSITIVE + _SYNC_NON_NEGATIVE + (
    "gain_grid", "update_rate", "force_script", "yaw_script", "bound",
)


def _parse_sync(ctx: _Ctx, data: dict) -> SyncSpec | None:
    sy = ctx.get(data, "", "sync", dict, default=None)
    if sy is None:
        return None
    ctx.known(sy, "sync", _SYNC_KEYS)
    numbers = {}
    for key in _SYNC_POSITIVE + _SYNC_NON_NEGATIVE:
        value = ctx.number(sy, "sync", key, minimum=0.0, positive=key in _SYNC_POSITIVE)
        if value is not None:
            numbers[key] = value
    params, controller, loop = (
        {key: value for key, value in numbers.items() if key in {f.name for f in fields(config)}}
        for config in (PhysicalParams, SyncController, SyncLoopConfig)
    )
    controller["gain_grid"] = tuple(_rows(ctx, sy.get("gain_grid"), "sync.gain_grid", 2, "[kp, kd], each >= 0", 0.0))
    update_rate = ctx.number(sy, "sync", "update_rate", positive=True)
    if update_rate is not None:
        loop["update_period"] = 1.0 / update_rate
    force = _rows(ctx, sy.get("force_script"), "sync.force_script", 4, "[t, fx, fy, fz]")
    yaw = _rows(ctx, sy.get("yaw_script"), "sync.yaw_script", 2, "[t, yaw_rate]")
    bound_raw = ctx.get(sy, "sync", "bound", dict) if sy.get("bound") is not None else None
    bound = None
    if bound_raw is not None:
        ctx.known(bound_raw, "sync.bound", ("lipschitz", "delta", "e0"))
        k = ctx.number(bound_raw, "sync.bound", "lipschitz", required=True, positive=True)
        delta = ctx.number(bound_raw, "sync.bound", "delta", required=True, minimum=0.0)
        e0 = ctx.number(bound_raw, "sync.bound", "e0", minimum=0.0)
        if k is not None and delta is not None:
            bound = SyncBoundModel(k, delta) if e0 is None else SyncBoundModel(k, delta, e0)
    # each value is checked here at its own key, so these configs have nothing left to reject
    return SyncSpec(
        params=PhysicalParams(**params),
        controller=SyncController(**controller),
        loop=SyncLoopConfig(**loop),
        bound=bound,
        force_script=tuple(force) or ((0.0, 0.0, 0.0, 0.0),),
        yaw_script=tuple(yaw) or ((0.0, 0.0),),
    )


def _parse_mmcf(ctx: _Ctx, data: dict, endpoint: EndpointConfig) -> MmcfSpec | None:
    mm = ctx.get(data, "", "mmcf", dict, default=None)
    if mm is None:
        return None
    ctx.known(mm, "mmcf", ("weights", "space", "probes"))
    weights = MmcfWeights(0.25, 0.25, 0.25, 0.25)
    weights_raw = ctx.get(mm, "mmcf", "weights", list, required=True, default=[0.25, 0.25, 0.25, 0.25])
    values = _vector(ctx, weights_raw, "mmcf.weights", 4, "4 weights")
    if values is not None:
        try:
            weights = MmcfWeights(*values)
        except ValueError as exc:
            ctx.fail("mmcf.weights", str(exc))
    space_raw = ctx.get(mm, "mmcf", "space", dict, default={}) or {}
    ctx.known(space_raw, "mmcf.space", _MMCF_AXES)
    space: dict[str, tuple] = {
        "redundancy": (endpoint.redundancy,),
        "replay_capacity": (endpoint.replay_capacity,),
        "batch": (endpoint.batch_size,),
    }
    for key, values in space_raw.items():
        if key not in _MMCF_AXES:
            continue
        if not isinstance(values, list) or not values:
            ctx.fail(f"mmcf.space.{key}", "expected a non-empty list of values")
        elif None in [_whole(v) for v in values]:
            ctx.fail(f"mmcf.space.{key}", f"expected a list of integers, got {values!r:.40}")
        else:
            space[key] = tuple(ctx.number({key: v}, "mmcf.space", key, integer=True, **_MMCF_AXES[key]) for v in values)
    probes = ctx.number(mm, "mmcf", "probes", default=6, minimum=2, integer=True)
    return MmcfSpec(weights=weights, space=space, probes=probes)


def _parse_geo(ctx: _Ctx, data: dict) -> GeoSpec | None:
    ge = ctx.get(data, "", "geo", dict, default=None)
    if ge is None:
        return None
    ctx.known(ge, "geo", ("reference", "scale", "extent", "waypoints"))
    ref = GeoPoint(0.0, 0.0, 0.0)
    ref_raw = ctx.get(ge, "geo", "reference", list, required=True, default=[0.0, 0.0, 0.0])
    values = _vector(ctx, ref_raw, "geo.reference", 3, "[lat_deg, lon_deg, alt_m]")
    if values is not None:
        try:
            ref = GeoPoint.from_degrees(*values)
        except ValueError as exc:
            ctx.fail("geo.reference", str(exc))
    waypoints = []
    for row in _rows(ctx, ge.get("waypoints"), "geo.waypoints", 3, "[lat_deg, lon_deg, alt_m]"):
        try:
            waypoints.append(GeoPoint.from_degrees(*row))
        except ValueError as exc:
            ctx.fail("geo.waypoints", f"{list(row)}: {exc}")
    return GeoSpec(
        reference=ref,
        scale=ctx.number(ge, "geo", "scale", default=1.0, positive=True),
        extent=ctx.number(ge, "geo", "extent", default=0.0, minimum=0.0),
        waypoints=tuple(waypoints),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, or raise ScenarioParseError."""
    data, marks = load_yaml_with_lines(path)
    ctx = _Ctx(marks)
    ctx.known(data, "", ("name", "seed", "duration", "network", "bridge", "policy", "agents", "sync", "mmcf", "geo"))

    name = ctx.get(data, "", "name", str, required=True, default="unnamed")
    seed = ctx.number(data, "", "seed", required=True, default=0, minimum=0, integer=True)
    duration = ctx.number(data, "", "duration", required=True, default=1.0, positive=True)

    conditions = _parse_network(ctx, data)
    policy = _parse_policy(ctx, data)
    endpoint, drain = _parse_bridge(ctx, data)
    agent_count, templates = _parse_agents(ctx, data)
    sync = _parse_sync(ctx, data)
    mmcf_spec = _parse_mmcf(ctx, data, endpoint)
    geo_spec = _parse_geo(ctx, data)

    if drain >= duration:
        ctx.fail("bridge.drain", f"drain {drain} must be below duration {duration}")

    if ctx.problems:
        raise ScenarioParseError(ctx.problems)

    return Scenario(
        name=name,
        seed=seed,
        duration=float(duration),
        conditions=conditions,
        policy=policy,
        endpoint=endpoint,
        drain=drain,
        agent_count=agent_count,
        topic_templates=templates,
        sync=sync,
        mmcf=mmcf_spec,
        geo=geo_spec,
    )
