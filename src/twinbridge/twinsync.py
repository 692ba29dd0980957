"""Physics-aware synchronization of a physical agent onto its virtual twin.

The twin never copies state. Agent and twin share one plant (mass and drag) and one
semi-implicit integrator; between received updates the twin dead-reckons with the
last known applied force. On each received update it measures the synchronization
error at the update's send instant (ring history lookup) and, when the error exceeds
the adaptive thresholds, applies a PD correction force held until the next update or
a short expiry, whichever comes first, so long blackouts fall back to pure dead
reckoning. An analytic error envelope derived from Lipschitz dynamics runs alongside
and the loop flags any sample exceeding it; the plant is linear and drag-only
(resistance drag * v), so it is Lipschitz. With a gain grid the gains are
rescheduled every GAIN_WINDOW, but only when the window of gain samples differs from
the one last scheduled: nothing else that changes enters the choice, so a repeat
would pick the same gains.

A `Vec3` is a 3-tuple of Python floats, written out per component; every norm
sums x*x + y*y + z*z in that order, as `_norm3` does. No BLAS kernel fuses or
reorders plain float arithmetic, so a run gives the same bits on any IEEE 754 host.

Units: positions m, velocities m/s, forces N, angles rad, time simulated s.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .netsim import NetLink, PiecewiseConstant, SimClock, whole_ticks

# the loop's one timing: an integrator step every TICK s, a state update every
# UPDATE_TICKS ticks and, with a gain grid, a gain reschedule every GAIN_WINDOW s
TICK = 0.01
UPDATE_TICKS = 10
UPDATE_PERIOD = UPDATE_TICKS * TICK  # 0.1 s, the same float as 0.1
GAIN_WINDOW = 1.0

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


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


class TwinState(NamedTuple):
    """Position/velocity plus heading of one agent at time t, as an immutable tuple."""

    p: Vec3
    v: Vec3
    heading: float
    t: float

    @staticmethod
    def at_rest() -> "TwinState":
        return TwinState(vec3(), vec3(), 0.0, 0.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Plant parameters for the predictive model; drag is a linear coefficient in N*s/m."""

    mass: float = 10.0
    drag: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mass > 0 and self.drag >= 0):  # written so that NaN fails, as below
            raise ValueError("mass must be positive and drag >= 0")


def predict_step(state: TwinState, f_phys: Vec3, params: PhysicalParams) -> TwinState:
    """One semi-implicit integrator step of the predictive model, dt = TICK.

    a = (f_phys - f_res) / m with the linear drag f_res = drag * v, then
    v' = v + a*dt and p' = p + v'*dt. The velocity is updated first and the
    new velocity moves the position, which is what keeps long dead-reckoning
    stretches stable.

    With f_res = drag * v, v' = v * (1 - r) + f_phys * dt / m for r = drag * dt / m.
    Unforced, v decays only while |1 - r| < 1, so r < 2: at r = 2 it flips sign
    undamped, past 2 it grows (Hairer, Lubich and Wanner 2006), and p follows.
    So the parser rejects drag * TICK / mass >= 2.
    """
    dt = TICK
    fx, fy, fz = f_phys
    (vx, vy, vz), (px, py, pz), m, d = state.v, state.p, params.mass, params.drag
    vx, vy, vz = vx + (fx - d * vx) / m * dt, vy + (fy - d * vy) / m * dt, vz + (fz - d * vz) / m * dt
    p = (px + vx * dt, py + vy * dt, pz + vz * dt)
    return tuple.__new__(TwinState, (p, (vx, vy, vz), state.heading, state.t + dt))


def sync_errors(phys: TwinState | StateUpdate, pred: TwinState) -> tuple[Vec3, Vec3, float]:
    """(position error, velocity error, wrapped heading error in (-pi, pi])."""
    return _sub(phys.p, pred.p), _sub(phys.v, pred.v), wrap_angle(phys.heading - pred.heading)


@dataclass(frozen=True)
class SyncController:
    """PD gains, base gate thresholds, and the candidate gain grid.

    A non-empty gain_grid turns gain scheduling on: run_sync_loop then
    switches kp/kd among its candidates. An empty one keeps kp/kd fixed.
    """

    kp: float = 40.0
    kd: float = 30.0
    eps_pos: float = 0.05
    eps_vel: float = 0.1
    gain_grid: tuple[tuple[float, float], ...] = ()
    f_corr_max: float = math.inf  # actuator saturation for the correction force

    def __post_init__(self) -> None:
        if not (self.kp >= 0 and self.kd >= 0 and all(g >= 0 for pair in self.gain_grid for g in pair)):
            raise ValueError("gains must be >= 0")
        if not (self.eps_pos > 0 and self.eps_vel > 0 and self.f_corr_max > 0):
            raise ValueError("thresholds and f_corr_max must be positive")


def adaptive_thresholds(
    ctrl: SyncController, loss_rate: float, disconnect_duration: float
) -> tuple[float, float]:
    """Relax gate thresholds with link degradation.

    eps = eps_base * (1 + disconnect/THRESHOLD_T_REF) * (1 + loss), capped at
    THRESHOLD_CAP times the base. Healthy links give the base thresholds back.
    """
    factor = (1.0 + max(disconnect_duration, 0.0) / THRESHOLD_T_REF) * (1.0 + max(loss_rate, 0.0))
    factor = min(factor, THRESHOLD_CAP)
    return ctrl.eps_pos * factor, ctrl.eps_vel * factor


def pd_correct(
    e_pos: Vec3,
    e_vel: Vec3,
    ctrl: SyncController,
    thresholds: tuple[float, float],
) -> np.ndarray:
    """Gated PD correction force: Kp*e_pos + Kd*e_vel, or zero.

    The gate opens when either error norm exceeds its threshold in
    `thresholds`, the (position, velocity) pair in force.

    Computed on floats, but returned as an ndarray because the benchmark tracer
    counts open gates with `(force != 0.0).any()`; the loop takes it back with
    `.tolist()`. ROADMAP item 2 makes the tracer count on tuples and drops this.
    """
    eps_pos, eps_vel = thresholds
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
    mass: float,
) -> float:
    """Simulated window-ahead cost of one gain candidate.

    Each window sample seeds a short rollout of the correction loop as a
    double integrator with delayed feedback: the sample's dt is the staleness
    of the information the correction acts on, so the force at each step is
    computed from the state `lag` steps back. The rollout exposes the
    delay-induced ringing of over-stiff gains that a one-step model misses.
    mass is the plant mass the correction force accelerates.
    It runs on scalars in _norm3's order; past[i] is the state step i acts on.
    """
    h = min(dt for dt, _, _ in window)
    g = h / mass
    f_max = ctrl.f_corr_max
    sqrt = math.sqrt
    acc = 0.0
    energy = 0.0
    for dt, (ex, ey, ez), (vx, vy, vz) in window:
        lag = max(1, int(round(dt / h)))
        past = [(ex, ey, ez, vx, vy, vz)] * lag if lag > 1 else None
        for i in range(GAIN_ROLLOUT_STEPS):
            if past is None:
                fx, fy, fz = kp * ex + kd * vx, kp * ey + kd * vy, kp * ez + kd * vz
            else:
                sx, sy, sz, svx, svy, svz = past[i]
                fx, fy, fz = kp * sx + kd * svx, kp * sy + kd * svy, kp * sz + kd * svz
            norm = sqrt(fx * fx + fy * fy + fz * fz)
            if norm > f_max:
                s = f_max / norm  # the plant saturates; model it
                fx, fy, fz = fx * s, fy * s, fz * s
                norm = f_max
            vx, vy, vz = vx - g * fx, vy - g * fy, vz - g * fz
            ex, ey, ez = ex + h * vx, ey + h * vy, ez + h * vz
            if past is not None:
                past.append((ex, ey, ez, vx, vy, vz))
            acc += sqrt(ex * ex + ey * ey + ez * ez)
            energy += norm
    n = len(window) * GAIN_ROLLOUT_STEPS
    acc_term = (acc / n) / ctrl.eps_pos
    energy_term = (energy / n) / force_scale
    return ACCURACY_WEIGHT * acc_term + ENERGY_WEIGHT * energy_term


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


def schedule_gains(ctrl: SyncController, window: Sequence[GainSample], mass: float) -> tuple[float, float]:
    """Pick the grid candidate minimizing the window-ahead weighted cost.

    Each candidate is rolled out on a plant of the given mass.
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
        cost = _gain_candidate_cost(kp, kd, window, ctrl, force_scale, mass)
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
        if not self.lipschitz > 0:
            raise ValueError("lipschitz constant must be positive")
        if not (self.delta_bound >= 0 and self.e0 >= 0):
            raise ValueError("delta_bound and e0 must be >= 0")


def gronwall_bound(model: SyncBoundModel, t: float) -> float:
    """Analytic error envelope at time t >= 0.

    Gronwall's inequality under a constant mismatch bound delta:
    e0*exp(K*t) + delta*(exp(K*t) - 1); inf once exp(K*t) overflows a float.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    try:
        growth = math.exp(model.lipschitz * t)
    except OverflowError:  # K*t > 709.78: no error can exceed the envelope
        return math.inf
    return model.e0 * growth + model.delta_bound * (growth - 1.0)


# --- state updates on the wire -------------------------------------------------

# the twin orders updates by t, so they carry no sequence number
_UPDATE = struct.Struct("<12d")  # t, p3, v3, heading, f3, yaw_rate


@dataclass(frozen=True)
class StateUpdate:
    """Physical-side sample shipped to the twin: state, applied force, yaw rate."""

    t: float
    p: Vec3
    v: Vec3
    heading: float
    force: Vec3
    yaw_rate: float

    def pack(self) -> bytes:
        return _UPDATE.pack(self.t, *self.p, *self.v, self.heading, *self.force, self.yaw_rate)

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
        )


# seconds of recorded twin states kept for lookups at an update's send instant
HISTORY_WINDOW = 6.0


class VirtualTwin:
    """The dead-reckoning twin's bounded state history, one state per tick, for staleness lookups."""

    def __init__(self) -> None:
        self._history: deque[TwinState] = deque([TwinState.at_rest()], maxlen=int(HISTORY_WINDOW / TICK) + 2)

    def state_at(self, t: float) -> TwinState:
        """Recorded state nearest to t by tick offset from the newest, clamped to the ends."""
        back = round((self._history[-1].t - t) / TICK)
        return self._history[-1 - min(max(back, 0), len(self._history) - 1)]


def _column(index: int) -> property:
    return property(lambda report: tuple(map(itemgetter(index), report.rows)))


@dataclass
class SyncReport:
    """One sync run: its sync.csv row per tick, t = 0 first, its arrival log and audit counters.

    A row is (t, e_pos, e_rot, bound, kp, kd, corrected), corrected the int 0 or 1 and
    bound -1.0 where the envelope is infinite; t, e_pos and the rest are read-only column
    views. The gate threshold is not recorded: eps_pos derives it from the arrival log.
    """

    rows: list[tuple[float, float, float, float, float, float, int]] = field(default_factory=list)
    arrivals: list[float] = field(default_factory=list)
    ctrl: SyncController = field(default_factory=SyncController)  # the run's base thresholds
    bound_violations: int = 0
    max_input_mismatch: float = 0.0
    updates_sent: int = 0
    updates_received: int = 0
    corrections_applied: int = 0

    t, e_pos, e_rot, bound, kp, kd, corrected = map(_column, range(7))

    @property
    def eps_pos(self) -> list[float]:
        """The position gate threshold at each row's t, from the arrival log as the loop derives it."""
        arrivals, ctrl, out = self.arrivals, self.ctrl, []
        for t, *_ in self.rows:
            seen = bisect_right(arrivals, t)
            gap = t - (arrivals[seen - 1] if seen else 0.0) - UPDATE_PERIOD
            out.append(adaptive_thresholds(ctrl, _estimate_loss(arrivals, t), gap)[0] if t else ctrl.eps_pos)
        return out

    def integrated_error(self) -> float:
        total = 0.0
        for prev, row in zip(self.rows, self.rows[1:]):
            total += row[1] * (row[0] - prev[0])
        return total

    def steady_state_max(self, t_from: float) -> tuple[float, float]:
        """(max |e_pos|, max |e_rot|) over rows with t > t_from."""
        late = [row for row in self.rows if row[0] > t_from]
        return max((row[1] for row in late), default=0.0), max((abs(row[2]) for row in late), default=0.0)


# arrivals within this many seconds feed the loss estimate behind the adaptive thresholds
LOSS_WINDOW = 5.0
# a disconnect this many seconds long doubles the gate thresholds
THRESHOLD_T_REF = 10.0
# the thresholds relax to at most this multiple of the base; a position error
# beyond it reschedules the gains at once
THRESHOLD_CAP = 4.0
# weights of the normalized residual error and of the correction energy in a gain candidate's cost
ACCURACY_WEIGHT = 0.8
ENERGY_WEIGHT = 0.2
# corrections expire this many update periods after the arrival that set
# them; during longer gaps the twin reverts to pure dead reckoning
CORRECTION_HOLD_PERIODS = 2.0
# once the gate opens, corrections continue until the error falls below
# this fraction of the threshold; stops the error riding the gate boundary
GATE_HYSTERESIS = 0.4


class SyncStateError(ValueError):
    """A sync run's state stopped being finite; names the simulated time."""


def run_sync_loop(
    params: PhysicalParams,
    force_script: PiecewiseConstant,
    yaw_script: PiecewiseConstant,
    ctrl: SyncController,
    link: NetLink,
    clock: SimClock,
    duration: float,
    bound_model: SyncBoundModel | None = None,
) -> SyncReport:
    """Drive physical agent and twin, both on the plant params, over an impaired link; return the report.

    Both start at rest at t = 0, and the agent's scripts are read only at their breakpoints.
    Each tick the agent integrates its script, the twin dead-reckons with its
    last known force plus any held correction, due updates cross the link,
    and arrivals gate PD corrections through the adaptive thresholds. The
    report gets one row at t = 0 and one per tick (true error, analytic envelope,
    gains, held correction) and counts the samples exceeding the envelope. It logs
    each accepted arrival's time, and derives the gate threshold from it. A non-empty
    ctrl.gain_grid reschedules the gains every GAIN_WINDOW if the window of
    gain samples differs from the one last scheduled, and at once on a grossly
    out-of-band error, rolling candidates out on the plant's mass. Gain
    switches rebind a local controller; the caller's ctrl is left as passed.
    Raises SyncStateError once the agent or the twin leaves the finite floats, ValueError for a duration between ticks.
    """
    report = SyncReport(ctrl=ctrl)
    twin = VirtualTwin()
    ticks = whole_ticks(duration, TICK, "twinsync.TICK")
    arrivals: deque[StateUpdate] = deque()

    # both sides share the mission plan at deployment: the twin starts with
    # the scripted control inputs in effect at t0
    f_agent = known_force = force_script.value_at(0.0)
    yaw_agent = known_yaw_rate = yaw_script.value_at(0.0)
    f_steps, yaw_steps = (iter(s.breakpoints() + [(math.inf, None)]) for s in (force_script, yaw_script))
    f_next, yaw_next = next(f_steps), next(yaw_steps)
    correction = vec3()  # the twin's PD correction force, zeroed when it expires
    applied = _add(known_force, correction)

    def on_deliver(payload: bytes, _at: float) -> None:
        arrivals.append(StateUpdate.unpack(payload))

    link.on_deliver = on_deliver

    gain_samples: deque[GainSample] = deque(maxlen=int(GAIN_WINDOW / UPDATE_PERIOD))
    last_reschedule = 0.0
    latest_update_t = -math.inf
    correcting = False  # the gate's hysteresis state, kept across expiries
    held = False  # a non-zero correction that has not expired
    correction_expires = -math.inf
    scheduled: list[GainSample] = []  # the window the gains were last scheduled on
    kp, kd, grid = ctrl.kp, ctrl.kd, bool(ctrl.gain_grid)
    a = tw = twin._history[0]
    mass = params.mass
    remember, advance, add_row, arrival_log = twin._history.append, clock.advance, report.rows.append, report.arrivals
    sqrt, isfinite, new_state = math.sqrt, math.isfinite, tuple.__new__

    now = max_mismatch = 0.0
    for k in range(1, ticks + 2):
        # the row of the state at now: t = 0 on the first pass, then the tick just run
        (ax, ay, az), (tx, ty, tz) = a.p, tw.p
        dx, dy, dz = ax - tx, ay - ty, az - tz
        e_pos_true = sqrt(dx * dx + dy * dy + dz * dz)
        if not isfinite(e_pos_true):
            raise SyncStateError(f"sync: the state is not finite at t={now:.2f} s")
        b = gronwall_bound(bound_model, now) if bound_model is not None else math.inf
        if e_pos_true > b + 1e-12:
            report.bound_violations += 1
        add_row((now, e_pos_true, wrap_angle(a.heading - tw.heading), b if isfinite(b) else -1.0, kp, kd, 1 if held else 0))
        if k > ticks:
            break

        now = k * TICK
        if held and now > correction_expires:
            held = False
            correction = vec3()
            applied = _add(known_force, correction)
        # t pins each state to the tick grid so script breakpoints stay
        # aligned across agent and twin
        new = predict_step(a, f_agent, params)
        a = new_state(TwinState, (new.p, new.v, wrap_angle(a.heading + yaw_agent * TICK), now))
        new = predict_step(tw, applied, params)
        tw = new_state(TwinState, (new.p, new.v, wrap_angle(tw.heading + known_yaw_rate * TICK), now))
        remember(tw)
        while now >= f_next[0]:
            f_agent, f_next = f_next[1], next(f_steps)
        while now >= yaw_next[0]:
            yaw_agent, yaw_next = yaw_next[1], next(yaw_steps)

        if k % UPDATE_TICKS == 0:
            link.send(StateUpdate(now, a.p, a.v, a.heading, f_agent, yaw_agent).pack())
            report.updates_sent += 1

        # fires every delivery due by the tick's end, a zero-latency send above included
        advance(TICK)

        while arrivals:
            update = arrivals.popleft()
            report.updates_received += 1
            if update.t <= latest_update_t:
                continue
            latest_update_t = update.t
            gap = now - arrival_log[-1] if arrival_log else 0.0
            arrival_log.append(now)

            e_pos, e_vel, e_rot = sync_errors(update, twin.state_at(update.t))
            # the sample horizon is the staleness of the information the
            # correction will act on; long horizons penalize stiff gains in
            # the rollout evaluation
            staleness = max(UPDATE_PERIOD, now - update.t)
            gain_samples.append((staleness, e_pos, e_vel))

            # escalation: a grossly out-of-band error reschedules immediately
            # so the transient is handled with freshly chosen gains
            if grid and _norm3(e_pos) > THRESHOLD_CAP * ctrl.eps_pos:
                scheduled = list(gain_samples)
                kp, kd = schedule_gains(ctrl, scheduled, mass)
                ctrl = replace(ctrl, kp=kp, kd=kd)
                last_reschedule = now

            loss_rate = _estimate_loss(arrival_log, now)
            disconnect = max(0.0, gap - UPDATE_PERIOD)
            thresholds = adaptive_thresholds(ctrl, loss_rate, disconnect)
            if correcting:
                thresholds = (thresholds[0] * GATE_HYSTERESIS, thresholds[1] * GATE_HYSTERESIS)
            f_corr = tuple(pd_correct(e_pos, e_vel, ctrl, thresholds).tolist())
            held = correcting = any(f_corr)
            correction = f_corr
            correction_expires = now + CORRECTION_HOLD_PERIODS * UPDATE_PERIOD
            if correcting:
                report.corrections_applied += 1
            tw = twin._history[-1] = tw._replace(heading=wrap_angle(tw.heading + e_rot))
            known_force, known_yaw_rate = update.force, update.yaw_rate
            applied = _add(known_force, correction)

        # schedule_gains picks from the window alone (the grid, mass and limits
        # never change), so a window equal to the one last scheduled is skipped
        if grid and now - last_reschedule >= GAIN_WINDOW:
            window = list(gain_samples)
            if window != scheduled:
                kp, kd = schedule_gains(ctrl, window, mass)
                ctrl = replace(ctrl, kp=kp, kd=kd)
                scheduled = window
            last_reschedule = now

        if bound_model is not None:
            dx, dy, dz = f_agent[0] - applied[0], f_agent[1] - applied[1], f_agent[2] - applied[2]
            mismatch = sqrt(dx * dx + dy * dy + dz * dz) / mass
            if mismatch > max_mismatch:
                max_mismatch = mismatch

    report.max_input_mismatch = max_mismatch
    return report


def _estimate_loss(arrivals: list[float], now: float) -> float:
    """Share of the updates due in the LOSS_WINDOW s up to now that did not arrive, from sorted arrival times."""
    arrived = bisect_right(arrivals, now) - bisect_left(arrivals, now - LOSS_WINDOW)
    expected = max(1.0, min(now, LOSS_WINDOW) / UPDATE_PERIOD)
    return min(1.0, max(0.0, 1.0 - arrived / expected))
