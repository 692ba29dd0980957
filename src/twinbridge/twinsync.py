"""Physics-aware synchronization of a physical agent onto its virtual twin.

The twin never copies state. Between received updates it dead-reckons with
the last known applied force through the same semi-implicit integrator the
physical side uses; on each received update it measures the synchronization
error at the update's send instant (ring history lookup) and, when the error
exceeds the adaptive thresholds, applies a PD correction force held until
the next update or a short expiry, whichever comes first, so long blackouts
fall back to pure dead reckoning. An analytic error envelope derived from
Lipschitz dynamics runs alongside and the loop flags any sample exceeding it.

A `Vec3` is a 3-tuple of Python floats, written out per component; every norm
is `_norm3`, which fixes the evaluation order. No BLAS kernel fuses or reorders
plain float arithmetic, so a run gives the same bits on any IEEE 754 host.

Units: positions m, velocities m/s, forces N, angles rad, time simulated s.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .netsim import NetLink, PiecewiseConstant, SimClock

GRAVITY = 9.81

Vec3 = tuple[float, float, float]


def vec3(x: float = 0.0, y: float = 0.0, z: float = 0.0) -> Vec3:
    return (float(x), float(y), float(z))


def _norm3(v: Vec3) -> float:
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


class InvalidStep(ValueError):
    """Integration step with a non-positive dt."""


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True)
class TwinState:
    """Position/velocity plus heading of one agent at time t."""

    p: Vec3
    v: Vec3
    heading: float
    t: float

    @staticmethod
    def at_rest() -> "TwinState":
        return TwinState(vec3(), vec3(), 0.0, 0.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Plant parameters for the predictive model.

    friction maps terrain class to a Coulomb coefficient; "default" is the
    fallback. drag is a linear coefficient in N*s/m.
    """

    mass: float = 10.0
    friction: Mapping[str, float] = field(default_factory=lambda: {"default": 0.0})
    drag: float = 0.0

    def __post_init__(self) -> None:
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if any(mu < 0 for mu in self.friction.values()):
            raise ValueError("friction coefficients must be >= 0")

    def mu(self, terrain: str) -> float:
        if terrain in self.friction:
            return self.friction[terrain]
        return self.friction.get("default", 0.0)


def resistive_force(v: Vec3, params: PhysicalParams, terrain: str = "default") -> Vec3:
    """Coulomb + linear drag resistance; exactly zero at zero velocity."""
    speed = _norm3(v)
    if speed == 0.0:
        return vec3()
    c, d = params.mu(terrain) * params.mass * GRAVITY, params.drag
    x, y, z = v
    return (c * (x / speed) + d * x, c * (y / speed) + d * y, c * (z / speed) + d * z)


def predict_step(
    state: TwinState,
    f_phys: Vec3,
    params: PhysicalParams,
    terrain: str = "default",
    dt: float = 0.01,
) -> TwinState:
    """One semi-implicit integrator step of the predictive model.

    a = (f_phys - f_res) / m, v' = v + a*dt, p' = p + v'*dt. The velocity is
    updated first and the new velocity moves the position, which is what
    keeps long dead-reckoning stretches stable.
    """
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    fx, fy, fz = f_phys
    rx, ry, rz = resistive_force(state.v, params, terrain)
    (vx, vy, vz), (px, py, pz), m = state.v, state.p, params.mass
    vx, vy, vz = vx + (fx - rx) / m * dt, vy + (fy - ry) / m * dt, vz + (fz - rz) / m * dt
    return TwinState((px + vx * dt, py + vy * dt, pz + vz * dt), (vx, vy, vz), state.heading, state.t + dt)


def sync_errors(phys: TwinState | StateUpdate, pred: TwinState) -> tuple[Vec3, Vec3, float]:
    """(position error, velocity error, wrapped heading error in (-pi, pi])."""
    return _sub(phys.p, pred.p), _sub(phys.v, pred.v), wrap_angle(phys.heading - pred.heading)


@dataclass(frozen=True)
class SyncController:
    """PD gains, base gate thresholds, and the candidate gain grid.

    t_ref and cap_factor shape the adaptive threshold law; response_mass,
    accuracy_weight and energy_weight parameterize the gain-scheduling cost.
    """

    kp: float = 40.0
    kd: float = 30.0
    eps_pos: float = 0.05
    eps_vel: float = 0.1
    gain_grid: tuple[tuple[float, float], ...] = ()
    t_ref: float = 10.0
    cap_factor: float = 4.0
    response_mass: float = 10.0
    accuracy_weight: float = 0.8
    energy_weight: float = 0.2
    heading_gain: float = 1.0
    f_corr_max: float = math.inf  # actuator saturation for the correction force

    def __post_init__(self) -> None:
        if self.kp < 0 or self.kd < 0 or any(g < 0 for pair in self.gain_grid for g in pair):
            raise ValueError("gains must be >= 0")
        if self.eps_pos <= 0 or self.eps_vel <= 0:
            raise ValueError("thresholds must be positive")


def adaptive_thresholds(
    ctrl: SyncController, loss_rate: float, disconnect_duration: float
) -> tuple[float, float]:
    """Relax gate thresholds with link degradation.

    eps = eps_base * (1 + disconnect/t_ref) * (1 + loss), capped at
    cap_factor times the base. Healthy links give the base thresholds back.
    """
    factor = (1.0 + max(disconnect_duration, 0.0) / ctrl.t_ref) * (1.0 + max(loss_rate, 0.0))
    factor = min(factor, ctrl.cap_factor)
    return ctrl.eps_pos * factor, ctrl.eps_vel * factor


def pd_correct(
    e_pos: Vec3,
    e_vel: Vec3,
    ctrl: SyncController,
    thresholds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Gated PD correction force: Kp*e_pos + Kd*e_vel, or zero.

    The gate opens when either error norm exceeds its threshold (base
    thresholds unless the adaptive pair is supplied).

    Computed on floats, but returned as an ndarray because the benchmark tracer
    counts open gates with `(force != 0.0).any()`; the loop takes it back with
    `.tolist()`. ROADMAP item 2 makes the tracer count on tuples and drops this.
    """
    eps_pos, eps_vel = thresholds if thresholds is not None else (ctrl.eps_pos, ctrl.eps_vel)
    if _norm3(e_pos) <= eps_pos and _norm3(e_vel) <= eps_vel:
        return np.zeros(3)
    kp, kd = ctrl.kp, ctrl.kd
    f = (kp * e_pos[0] + kd * e_vel[0], kp * e_pos[1] + kd * e_vel[1], kp * e_pos[2] + kd * e_vel[2])
    norm = _norm3(f)
    if norm > ctrl.f_corr_max:
        s = ctrl.f_corr_max / norm
        f = (f[0] * s, f[1] * s, f[2] * s)
    return np.array(f)


GainSample = tuple[float, Vec3, Vec3]  # (dt, e_pos, e_vel)


GAIN_ROLLOUT_STEPS = 10


def _gain_candidate_cost(
    kp: float,
    kd: float,
    window: Sequence[GainSample],
    ctrl: SyncController,
    force_scale: float,
) -> float:
    """Simulated window-ahead cost of one gain candidate.

    Each window sample seeds a short rollout of the correction loop as a
    double integrator with delayed feedback: the sample's dt is the staleness
    of the information the correction acts on, so the force at each step is
    computed from the state `lag` steps back. The rollout exposes the
    delay-induced ringing of over-stiff gains that a one-step model misses.
    """
    h = min(dt for dt, _, _ in window)
    g = h / ctrl.response_mass
    acc = 0.0
    energy = 0.0
    for dt, e_pos, e_vel in window:
        lag = max(1, int(round(dt / h)))
        states = [(e_pos, e_vel)] * lag
        e, ev = e_pos, e_vel
        for _ in range(GAIN_ROLLOUT_STEPS):
            (ex, ey, ez), (vx, vy, vz) = states[-lag]
            f = (kp * ex + kd * vx, kp * ey + kd * vy, kp * ez + kd * vz)
            norm = _norm3(f)
            if norm > ctrl.f_corr_max:
                s = ctrl.f_corr_max / norm  # the plant saturates; model it
                f = (f[0] * s, f[1] * s, f[2] * s)
                norm = ctrl.f_corr_max
            ev = (ev[0] - g * f[0], ev[1] - g * f[1], ev[2] - g * f[2])
            e = (e[0] + h * ev[0], e[1] + h * ev[1], e[2] + h * ev[2])
            states.append((e, ev))
            acc += _norm3(e)
            energy += norm
    n = len(window) * GAIN_ROLLOUT_STEPS
    acc_term = (acc / n) / ctrl.eps_pos
    energy_term = (energy / n) / force_scale
    return ctrl.accuracy_weight * acc_term + ctrl.energy_weight * energy_term


def _gain_force_scale(ctrl: SyncController, window: Sequence[GainSample]) -> float:
    """Largest-gain response to the window's own error scale.

    Normalizing by the window keeps the energy term in [0, 1] whatever the
    error magnitude, so accuracy dominates during large transients and the
    energy penalty only differentiates candidates near the thresholds.
    """
    kp_max = max(kp for kp, _ in ctrl.gain_grid)
    kd_max = max(kd for _, kd in ctrl.gain_grid)
    n = len(window)
    pos = vel = 0.0
    for _, e, ev in window:  # a loop, not sum(): Python 3.12's compensated sum() gives other bits
        pos += _norm3(e)
        vel += _norm3(ev)
    scale = kp_max * max(pos / n, ctrl.eps_pos) + kd_max * max(vel / n, ctrl.eps_vel)
    return scale if scale > 0 else 1.0


def schedule_gains(ctrl: SyncController, window: Sequence[GainSample]) -> tuple[float, float]:
    """Pick the grid candidate minimizing the one-step-ahead weighted cost.

    The cost trades predicted residual position error (normalized by the
    base position threshold) against correction energy (normalized by the
    largest grid response to the window's own error scale). Ties break to
    the lowest grid index; an empty window keeps the current gains.
    """
    if not ctrl.gain_grid:
        raise ValueError("gain grid is empty")
    if not window:
        return ctrl.kp, ctrl.kd
    force_scale = _gain_force_scale(ctrl, window)
    best_idx = 0
    best_cost = math.inf
    for idx, (kp, kd) in enumerate(ctrl.gain_grid):
        cost = _gain_candidate_cost(kp, kd, window, ctrl, force_scale)
        if cost < best_cost:
            best_cost = cost
            best_idx = idx
    return ctrl.gain_grid[best_idx]


@dataclass(frozen=True)
class SyncBoundModel:
    """Parameters of the analytic error envelope.

    lipschitz is the constant of the closed-loop dynamics; delta_bound is the
    declared sup of the control-input mismatch; e0 the initial state error.
    """

    lipschitz: float
    delta_bound: float
    e0: float = 0.0

    def __post_init__(self) -> None:
        if self.lipschitz <= 0:
            raise ValueError("lipschitz constant must be positive")
        if self.delta_bound < 0 or self.e0 < 0:
            raise ValueError("delta_bound and e0 must be >= 0")


def gronwall_bound(model: SyncBoundModel, t: float) -> float:
    """Analytic error envelope at time t >= 0.

    Gronwall's inequality under a constant mismatch bound delta:
    e0*exp(K*t) + delta*(exp(K*t) - 1).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    k = model.lipschitz
    return model.e0 * math.exp(k * t) + model.delta_bound * (math.exp(k * t) - 1.0)


# --- state updates on the wire -------------------------------------------------

_UPDATE = struct.Struct("<12dQ")  # t, p3, v3, heading, f3, yaw_rate, seq


@dataclass(frozen=True)
class StateUpdate:
    """Physical-side sample shipped to the twin: state, applied force, yaw rate."""

    t: float
    p: Vec3
    v: Vec3
    heading: float
    force: Vec3
    yaw_rate: float
    seq: int

    def pack(self) -> bytes:
        return _UPDATE.pack(
            self.t, *self.p, *self.v, self.heading, *self.force, self.yaw_rate, self.seq
        )

    @staticmethod
    def unpack(data: bytes) -> "StateUpdate":
        vals = _UPDATE.unpack(data)
        return StateUpdate(
            t=vals[0],
            p=vals[1:4],
            v=vals[4:7],
            heading=vals[7],
            force=vals[8:11],
            yaw_rate=vals[11],
            seq=vals[12],
        )


def _advance(
    body: PhysicalAgent | VirtualTwin, force: Vec3, yaw_rate: float, dt: float, t_end: float | None
) -> TwinState:
    """body's state one interval on, under force and yaw_rate; t_end pins the timestamp
    to the caller's tick grid so script breakpoints stay aligned across agent and twin."""
    new = predict_step(body.state, force, body.params, body.terrain, dt)
    return TwinState(new.p, new.v, wrap_angle(new.heading + yaw_rate * dt), new.t if t_end is None else t_end)


class PhysicalAgent:
    """Ground-truth agent integrating its scripted force and yaw-rate profile."""

    def __init__(
        self,
        params: PhysicalParams,
        force_script: PiecewiseConstant,
        yaw_script: PiecewiseConstant | None = None,
        terrain: str = "default",
    ) -> None:
        self.params = params
        self.force_script = force_script
        self.yaw_script = yaw_script or PiecewiseConstant(0.0)
        self.terrain = terrain
        self.state = TwinState.at_rest()
        self._seq = 0

    def step(self, dt: float, t_end: float | None = None) -> None:
        t = self.state.t
        self.state = _advance(self, self.force_script.value_at(t), self.yaw_script.value_at(t), dt, t_end)

    def sample(self) -> StateUpdate:
        t = self.state.t
        update = StateUpdate(
            t=t,
            p=self.state.p,
            v=self.state.v,
            heading=self.state.heading,
            force=self.force_script.value_at(t),
            yaw_rate=self.yaw_script.value_at(t),
            seq=self._seq,
        )
        self._seq += 1
        return update


# seconds of recorded twin states kept for lookups at an update's send instant
HISTORY_WINDOW = 6.0


class VirtualTwin:
    """Dead-reckoning twin with a bounded state history for staleness lookups."""

    def __init__(
        self,
        params: PhysicalParams,
        terrain: str = "default",
        tick: float = 0.01,
    ) -> None:
        self.params = params
        self.terrain = terrain
        self.state = TwinState.at_rest()
        self.known_force = vec3()
        self.known_yaw_rate = 0.0
        self.correction = vec3()
        self._tick = tick
        self._history: deque[TwinState] = deque(maxlen=max(2, int(HISTORY_WINDOW / tick) + 2))
        self._history.append(self.state)

    def step(self, dt: float, t_end: float | None = None) -> None:
        self.state = _advance(self, _add(self.known_force, self.correction), self.known_yaw_rate, dt, t_end)
        self._history.append(self.state)

    def state_at(self, t: float) -> TwinState:
        """Recorded state nearest to t by tick offset from the newest, clamped to the ends."""
        back = round((self._history[-1].t - t) / self._tick)
        return self._history[-1 - min(max(back, 0), len(self._history) - 1)]

    def nudge_heading(self, delta: float) -> None:
        self.state = replace(self.state, heading=wrap_angle(self.state.heading + delta))
        self._history[-1] = self.state


@dataclass
class SyncReport:
    """Time series and audit counters from one synchronization run."""

    t: list[float] = field(default_factory=list)
    e_pos: list[float] = field(default_factory=list)
    e_rot: list[float] = field(default_factory=list)
    bound: list[float] = field(default_factory=list)
    kp: list[float] = field(default_factory=list)
    kd: list[float] = field(default_factory=list)
    corrected: list[int] = field(default_factory=list)
    eps_pos: list[float] = field(default_factory=list)  # adaptive gate threshold per sample
    bound_violations: int = 0
    max_input_mismatch: float = 0.0
    updates_sent: int = 0
    updates_received: int = 0
    corrections_applied: int = 0

    def integrated_error(self) -> float:
        total = 0.0
        for i in range(1, len(self.t)):
            total += self.e_pos[i] * (self.t[i] - self.t[i - 1])
        return total

    def steady_state_max(self, t_from: float) -> tuple[float, float]:
        """(max |e_pos|, max |e_rot|) over samples with t > t_from."""
        pairs = [(e, r) for t, e, r in zip(self.t, self.e_pos, self.e_rot) if t > t_from]
        if not pairs:
            return 0.0, 0.0
        return max(p[0] for p in pairs), max(abs(p[1]) for p in pairs)

    def rows(self) -> list[tuple]:
        return list(zip(self.t, self.e_pos, self.e_rot, self.bound, self.kp, self.kd, self.corrected))


@dataclass(frozen=True)
class SyncLoopConfig:
    """Timing and scheduling knobs of the synchronization loop."""

    duration: float = 30.0
    tick: float = 0.01
    update_period: float = 0.1
    adaptive_gains: bool = False
    gain_window: float = 2.0


# arrivals within this many seconds feed the loss estimate behind the adaptive thresholds
LOSS_WINDOW = 5.0
# corrections expire this many update periods after the arrival that set
# them; during longer gaps the twin reverts to pure dead reckoning
CORRECTION_HOLD_PERIODS = 2.0
# once the gate opens, corrections continue until the error falls below
# this fraction of the threshold; stops the error riding the gate boundary
GATE_HYSTERESIS = 0.4


def run_sync_loop(
    agent: PhysicalAgent,
    twin: VirtualTwin,
    ctrl: SyncController,
    link: NetLink,
    clock: SimClock,
    config: SyncLoopConfig = SyncLoopConfig(),
    bound_model: SyncBoundModel | None = None,
) -> SyncReport:
    """Drive physical agent and twin over an impaired link; return the report.

    Each tick the agent integrates its script, the twin dead-reckons with its
    last known force plus any held correction, due updates cross the link,
    and arrivals gate PD corrections through the adaptive thresholds. The
    report records the true instantaneous error every tick alongside the
    analytic envelope and flags any sample exceeding it. Gain switches rebind
    a local controller; the caller's ctrl is left as passed.
    """
    report = SyncReport()
    ticks = int(round(config.duration / config.tick))
    updates_per = max(1, int(round(config.update_period / config.tick)))
    arrivals: deque[StateUpdate] = deque()

    # both sides share the mission plan at deployment: the twin starts with
    # the scripted control inputs in effect at t0
    twin.known_force = agent.force_script.value_at(agent.state.t)
    twin.known_yaw_rate = agent.yaw_script.value_at(agent.state.t)

    def on_deliver(payload: bytes, _at: float) -> None:
        arrivals.append(StateUpdate.unpack(payload))

    link.on_deliver = on_deliver

    gain_samples: deque[GainSample] = deque(maxlen=max(1, int(config.gain_window / config.update_period)))
    recent_updates: deque[float] = deque()  # arrival times for loss estimation
    last_arrival = 0.0
    last_reschedule = 0.0
    latest_update_t = -math.inf
    correcting = False

    def record(now: float) -> None:
        e_pos_true = _norm3(_sub(agent.state.p, twin.state.p))
        if not math.isfinite(e_pos_true):
            raise ValueError(f"sync state is not finite at t={now}")
        e_rot_true = wrap_angle(agent.state.heading - twin.state.heading)
        b = gronwall_bound(bound_model, now) if bound_model else math.inf
        if bound_model and e_pos_true > b + 1e-12:
            report.bound_violations += 1
        live_gap = max(0.0, now - last_arrival - config.update_period)
        loss_now = _estimate_loss(recent_updates, now, config.update_period) if now > 0 else 0.0
        report.t.append(now)
        report.e_pos.append(e_pos_true)
        report.e_rot.append(e_rot_true)
        report.bound.append(b if math.isfinite(b) else -1.0)
        report.kp.append(ctrl.kp)
        report.kd.append(ctrl.kd)
        report.corrected.append(1 if any(twin.correction) else 0)
        report.eps_pos.append(adaptive_thresholds(ctrl, loss_now, live_gap)[0])

    correction_expires = -math.inf

    record(0.0)
    for k in range(1, ticks + 1):
        now = k * config.tick
        if now > correction_expires and any(twin.correction):
            twin.correction = vec3()
        agent.step(config.tick, t_end=now)
        twin.step(config.tick, t_end=now)

        if k % updates_per == 0:
            update = agent.sample()
            link.send(update.pack())
            report.updates_sent += 1

        clock.advance(config.tick)
        clock.advance(0.0)  # fire zero-latency deliveries sent this tick

        while arrivals:
            update = arrivals.popleft()
            report.updates_received += 1
            if update.t <= latest_update_t:
                continue
            latest_update_t = update.t
            recent_updates.append(now)
            gap = now - last_arrival if report.updates_received > 1 else 0.0
            last_arrival = now

            e_pos, e_vel, e_rot = sync_errors(update, twin.state_at(update.t))
            # the sample horizon is the staleness of the information the
            # correction will act on; long horizons penalize stiff gains in
            # the rollout evaluation
            staleness = max(config.update_period, now - update.t)
            gain_samples.append((staleness, e_pos, e_vel))

            # escalation: a grossly out-of-band error reschedules immediately
            # so the transient is handled with freshly chosen gains
            if (
                config.adaptive_gains
                and ctrl.gain_grid
                and _norm3(e_pos) > ctrl.cap_factor * ctrl.eps_pos
            ):
                kp, kd = schedule_gains(ctrl, list(gain_samples))
                ctrl = replace(ctrl, kp=kp, kd=kd)
                last_reschedule = now

            loss_rate = _estimate_loss(recent_updates, now, config.update_period)
            disconnect = max(0.0, gap - config.update_period)
            thresholds = adaptive_thresholds(ctrl, loss_rate, disconnect)
            if correcting:
                thresholds = (thresholds[0] * GATE_HYSTERESIS, thresholds[1] * GATE_HYSTERESIS)
            f_corr = tuple(pd_correct(e_pos, e_vel, ctrl, thresholds).tolist())
            correcting = any(f_corr)
            twin.correction = f_corr
            correction_expires = now + CORRECTION_HOLD_PERIODS * config.update_period
            if correcting:
                report.corrections_applied += 1
            twin.nudge_heading(ctrl.heading_gain * e_rot)
            twin.known_force = update.force
            twin.known_yaw_rate = update.yaw_rate

        if config.adaptive_gains and ctrl.gain_grid and now - last_reschedule >= config.gain_window:
            if gain_samples:
                kp, kd = schedule_gains(ctrl, list(gain_samples))
                ctrl = replace(ctrl, kp=kp, kd=kd)
            last_reschedule = now

        if bound_model is not None:
            applied = _add(twin.known_force, twin.correction)
            mismatch = _norm3(_sub(agent.force_script.value_at(now), applied)) / agent.params.mass
            report.max_input_mismatch = max(report.max_input_mismatch, mismatch)

        record(now)

    return report


def _estimate_loss(recent: deque[float], now: float, update_period: float) -> float:
    while recent and recent[0] < now - LOSS_WINDOW:
        recent.popleft()
    expected = LOSS_WINDOW / update_period
    if now < LOSS_WINDOW:
        expected = max(1.0, now / update_period)
    return min(1.0, max(0.0, 1.0 - len(recent) / expected))
