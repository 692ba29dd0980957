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
      batch: 4                     # max frames per link packet
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
      bound: {lipschitz: 1.2, delta: 0.6}
      ... (drag, gains, thresholds, grid; an omitted key takes the default
      of twinsync's PhysicalParams or SyncController)

    mmcf:                          # configuration optimization (optional)
      weights: [0.4, 0.3, 0.2, 0.1]
      space: {redundancy: [0, 1], batch: [1, 4]}  # an omitted axis takes the endpoint's value

A key that counts (seed, count, size, batch, capacities, attempts, mmcf axes)
takes a whole number, an integer kept exact: 2.0 reads as 2, 2.5 is an error.
A size takes at most MAX_PAYLOAD, any other count but the seed at most
sys.maxsize, and sync.drag * twinsync.TICK / sync.mass is below 2. A run, and
each agent count of a sweep, takes at most MAX_STEPS sync ticks, bridge ticks
and publishes each, and lasts a whole number of bridge ticks (with agents) and
of sync ticks (with a sync section). Two expansions of the topic templates may
not name one topic, which is checked at the agent count of each run and sweep step,
and none may start with bridge.CONTROL_PREFIX, which control frames reserve.
A key the parser does not read is an error, and the bridge tick (bridge.TICK),
redundancy (0 outside the MMCF search) and probe count (PROBES) are not keys.
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

from .bridge import TICK as BRIDGE_TICK, EndpointConfig, PriorityPolicy, validate_data_topic
from .engine import BridgeScenario, TopicTraffic
from .envelope import MAX_PAYLOAD, TIER_BY_NAME, TIER_STANDARD
from .mmcf import MmcfWeights
from .msgbus import InvalidTopic, MessageKind, validate_topic
from .netsim import NetworkConditions, PiecewiseConstant, whole_ticks
from .twinsync import TICK, PhysicalParams, SyncBoundModel, SyncController

KIND_NAMES = {kind.name.lower(): kind for kind in MessageKind}


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
    if isinstance(value, int) and not isinstance(value, bool):
        return value  # exact: a float would round it above 2**53
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
    """Twin-synchronization section of a scenario, parsed into twinsync's configs."""

    params: PhysicalParams
    controller: SyncController
    bound: SyncBoundModel | None
    force_script: tuple[tuple[float, float, float, float], ...]
    yaw_script: tuple[tuple[float, float], ...]


# the steps of each kind one run may take, so that every run that loads ends: a run
# of MAX_STEPS sync ticks, bridge ticks or publishes took 2-11 s on a 2-vCPU Xeon
MAX_STEPS = 500_000
# configurations the MMCF search measures first, evenly spread over the space, to calibrate its bounds
PROBES = 6
# a count is at most sys.maxsize, the most items a list holds: a replay ring holds only the frames
# sent, so no ring or batch could reach a larger capacity or limit, and no count promises one
_COUNT = {"minimum": 0, "maximum": sys.maxsize}
_POSITIVE_COUNT = {"minimum": 1, "maximum": sys.maxsize}
# mmcf.space axes, each with the range EndpointConfig takes for its field
_MMCF_AXES = {
    "redundancy": {"minimum": 0, "maximum": 3},
    "replay_capacity": _POSITIVE_COUNT,
    "batch": _POSITIVE_COUNT,
}


@dataclass(frozen=True)
class MmcfSpec:
    """mmcf section; `space` is the scenario's endpoint under each combination of the axes, in search order."""

    weights: MmcfWeights
    space: tuple[EndpointConfig, ...]

    def probe_configs(self) -> list[EndpointConfig]:
        space = self.space  # a space of PROBES or fewer gives every configuration
        step = (len(space) - 1) / (PROBES - 1)
        idx = sorted({round(i * step) for i in range(PROBES)})
        return [space[i] for i in idx]


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

    def traffic_for(self, count: int | None = None) -> tuple[TopicTraffic, ...]:
        """Every template expanded for agents 1..count.

        ScenarioParseError if an expansion is not a valid topic or two name one topic.
        """
        if not self.topic_templates:  # nothing to expand, however many agents
            return ()
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
        return BridgeScenario(
            name=self.name,
            seed=self.seed if seed is None else seed,
            duration=self.duration,
            conditions=self.conditions,
            traffic=self.traffic_for(count),
            policy=self.policy,
            endpoint=replace(self.endpoint, prioritized=not baseline),
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
    ctx.known(br, "bridge", ("batch", "replay_capacity", "heartbeat", "replay_attempts", "drain"))
    # each value is checked here at its own key, so EndpointConfig has nothing left to reject;
    # a key the file leaves out, or sets wrong, takes EndpointConfig's default
    given = {
        "batch_size": ctx.number(br, "bridge", "batch", integer=True, **_POSITIVE_COUNT),
        "replay_capacity": ctx.number(br, "bridge", "replay_capacity", integer=True, **_POSITIVE_COUNT),
        "heartbeat_interval": ctx.number(br, "bridge", "heartbeat", positive=True),
        "replay_attempts": ctx.number(br, "bridge", "replay_attempts", integer=True, **_COUNT),
    }
    endpoint = EndpointConfig(**{key: value for key, value in given.items() if value is not None})
    drain = ctx.number(br, "bridge", "drain", default=0.0, minimum=0.0)
    return endpoint, drain


def _parse_agents(ctx: _Ctx, data: dict) -> tuple[int, tuple[dict, ...]]:
    ag = ctx.get(data, "", "agents", dict, default=None)
    if ag is None:
        return 0, ()
    ctx.known(ag, "agents", ("count", "topics"))
    count = ctx.number(ag, "agents", "count", required=True, default=0, integer=True, **_COUNT)
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
        try:  # "{i}" expands to digits alone, so agent 1 stands for every agent
            validate_data_topic(name.replace("{i}", "1"))
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


# numeric sync keys, each named after the field of PhysicalParams or SyncController
# that it sets; the first group must be positive, the second >= 0
_SYNC_POSITIVE = ("mass", "eps_pos", "eps_vel", "f_corr_max")
_SYNC_NON_NEGATIVE = ("drag", "kp", "kd")
_SYNC_KEYS = _SYNC_POSITIVE + _SYNC_NON_NEGATIVE + ("gain_grid", "force_script", "yaw_script", "bound")


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
    params, controller = (
        {key: value for key, value in numbers.items() if key in {f.name for f in fields(config)}}
        for config in (PhysicalParams, SyncController)
    )
    plant = PhysicalParams(**params)
    ratio = plant.drag * TICK / plant.mass  # each tick scales the velocity by 1 - ratio (see predict_step)
    if ratio >= 2.0 and ("mass" in params or "mass" not in sy):  # a rejected mass is reported alone
        ctx.fail("sync.drag", f"drag * TICK / mass is {ratio} with TICK = {TICK} s; it must be below 2")
    controller["gain_grid"] = tuple(_rows(ctx, sy.get("gain_grid"), "sync.gain_grid", 2, "[kp, kd], each >= 0", 0.0))
    force = _rows(ctx, sy.get("force_script"), "sync.force_script", 4, "[t, fx, fy, fz]")
    yaw = _rows(ctx, sy.get("yaw_script"), "sync.yaw_script", 2, "[t, yaw_rate]")
    bound_raw = ctx.get(sy, "sync", "bound", dict) if sy.get("bound") is not None else None
    bound = None
    if bound_raw is not None:
        ctx.known(bound_raw, "sync.bound", ("lipschitz", "delta"))
        k = ctx.number(bound_raw, "sync.bound", "lipschitz", required=True, positive=True)
        delta = ctx.number(bound_raw, "sync.bound", "delta", required=True, minimum=0.0)
        if k is not None and delta is not None:
            bound = SyncBoundModel(k, delta)  # both sides start from one state, so e0 is 0
    # each value is checked here at its own key, so these configs have nothing left to reject
    return SyncSpec(
        params=plant,
        controller=SyncController(**controller),
        bound=bound,
        force_script=tuple(force) or ((0.0, 0.0, 0.0, 0.0),),
        yaw_script=tuple(yaw) or ((0.0, 0.0),),
    )


def _parse_mmcf(ctx: _Ctx, data: dict, endpoint: EndpointConfig) -> MmcfSpec | None:
    mm = ctx.get(data, "", "mmcf", dict, default=None)
    if mm is None:
        return None
    ctx.known(mm, "mmcf", ("weights", "space"))
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
    axes: dict[str, tuple] = {
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
            # a value refused here reads as the scenario's own, and the parse fails
            limits = dict(default=axes[key][0], integer=True, **_MMCF_AXES[key])
            axes[key] = tuple(ctx.number({key: v}, "mmcf.space", key, **limits) for v in values)
    combos = itertools.product(*axes.values())
    space = {replace(endpoint, redundancy=r, replay_capacity=c, batch_size=b) for r, c, b in combos}
    return MmcfSpec(weights=weights, space=tuple(sorted(space)))


def publish_limit(count: int, templates: tuple[dict, ...], duration: float, drain: float) -> str | None:
    """The problem of count agents publishing past MAX_STEPS messages, or None; each topic publishes at t = 0."""
    publishes = count * sum(max(1.0, tpl["rate"] * (duration - drain)) for tpl in templates)
    if publishes > MAX_STEPS:  # 0 agents times an overflowed sum is NaN, which passes
        return f"{count} agents publish {publishes:.6g} messages; a run takes at most {MAX_STEPS}"
    return None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, or raise ScenarioParseError."""
    data, marks = load_yaml_with_lines(path)
    ctx = _Ctx(marks)
    ctx.known(data, "", ("name", "seed", "duration", "network", "bridge", "policy", "agents", "sync", "mmcf"))

    name = ctx.get(data, "", "name", str, required=True, default="unnamed")
    seed = ctx.number(data, "", "seed", required=True, default=0, minimum=0, integer=True)
    duration = ctx.number(data, "", "duration", required=True, default=1.0, positive=True)

    conditions = _parse_network(ctx, data)
    policy = _parse_policy(ctx, data)
    endpoint, drain = _parse_bridge(ctx, data)
    agent_count, templates = _parse_agents(ctx, data)
    sync = _parse_sync(ctx, data)
    mmcf_spec = _parse_mmcf(ctx, data, endpoint)

    if drain >= duration:
        ctx.fail("bridge.drain", f"drain {drain} must be below duration {duration}")
    # one error, at its key, for the first kind of step past MAX_STEPS, then for a duration between
    # ticks, which a run would refuse (netsim.whole_ticks), then for the publishes
    ticked = [(BRIDGE_TICK, "bridge.TICK")] * bool(templates) + [(TICK, "twinsync.TICK")] * (sync is not None)
    if sync is not None and duration / TICK > MAX_STEPS:
        ctx.fail("duration", f"duration / TICK is {duration / TICK:.6g} sync ticks; a run takes at most {MAX_STEPS}")
    elif duration / BRIDGE_TICK > MAX_STEPS:
        ticks = f"duration / bridge.TICK is {duration / BRIDGE_TICK:.6g} bridge ticks"
        ctx.fail("duration", f"{ticks}; a run takes at most {MAX_STEPS}")
    else:
        try:
            for tick, tick_name in ticked:
                whole_ticks(duration, tick, tick_name)
        except ValueError as exc:
            ctx.fail("duration", str(exc))
        else:
            if problem := publish_limit(agent_count, templates, duration, drain):
                ctx.fail("agents.count", problem)

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
    )
