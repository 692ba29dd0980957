"""Predictive model, PD gating, gain scheduling, and the error envelope."""

import bisect
import hashlib
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_artifacts import RUNS

from twinbridge import runner, twinsync
from twinbridge.netsim import NetLink, NetworkConditions, PiecewiseConstant, SimClock
from twinbridge.scenario import load_scenario
from twinbridge.twinsync import (
    ACCURACY_WEIGHT,
    ENERGY_WEIGHT,
    GAIN_ROLLOUT_STEPS,
    LOSS_WINDOW,
    GainSample,
    PhysicalParams,
    StateUpdate,
    SyncBoundModel,
    SyncController,
    SyncStateError,
    TICK,
    UPDATE_PERIOD,
    TwinState,
    VirtualTwin,
    _estimate_loss,
    adaptive_thresholds,
    gronwall_bound,
    pd_correct,
    predict_step,
    run_sync_loop,
    schedule_gains,
    sync_errors,
    vec3,
    wrap_angle,
)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def params(mass=10.0, drag=0.0):
    return PhysicalParams(mass=mass, drag=drag)


def allclose(a, b, rtol=1e-5, atol=1e-8):
    """np.allclose's element-wise test, |a - b| <= atol + rtol * |b|, on plain sequences."""
    return len(a) == len(b) and all(abs(x - y) <= atol + rtol * abs(y) for x, y in zip(a, b))


def rate(after, before, dt):
    return [(x - y) / dt for x, y in zip(after, before)]


class TestPredictStep:
    def test_equilibrium_only_time_moves(self):
        state = TwinState.at_rest()
        out = predict_step(state, vec3(), params())
        assert np.array_equal(out.p, state.p)
        assert np.array_equal(out.v, state.v)
        assert out.t == TICK

    def test_direct_substitution(self):
        # net force 10 N on 10 kg: a=1, v'=0.01, p'=0.0001 after dt=TICK=0.01
        state = TwinState.at_rest()
        out = predict_step(state, vec3(10.0), params(mass=10.0))
        assert rate(out.v, state.v, TICK) == pytest.approx([1.0, 0.0, 0.0])
        assert out.v == pytest.approx([0.01, 0.0, 0.0])
        assert out.p == pytest.approx([0.0001, 0.0, 0.0])

    def test_drag_deceleration(self):
        # 3 N*s/m of drag at 1 m/s on 10 kg: a = -0.3
        state = TwinState(vec3(), vec3(1.0), 0.0, 0.0)
        out = predict_step(state, vec3(), params(mass=10.0, drag=3.0))
        assert rate(out.v, state.v, TICK) == pytest.approx([-0.3, 0.0, 0.0])

    def test_drag_is_linear_in_velocity(self):
        # unforced, the velocity change is -drag * v * dt / m per component
        state = TwinState(vec3(), vec3(0.5, -2.0, 0.0), 0.0, 0.0)
        out = predict_step(state, vec3(), params(mass=10.0, drag=1.5))
        assert rate(out.v, state.v, TICK) == pytest.approx([-0.075, 0.3, 0.0])
        assert predict_step(TwinState.at_rest(), vec3(), params(drag=1.5)).v == vec3()

    def test_zero_force_zero_friction_conserves_momentum(self):
        state = TwinState(vec3(), vec3(0.7, -0.2, 0.1), 0.0, 0.0)
        for _ in range(500):
            state = predict_step(state, vec3(), params())
        assert state.v == pytest.approx([0.7, -0.2, 0.1])

    def test_semi_implicit_order(self):
        # position must advance with the *updated* velocity
        state = TwinState.at_rest()
        out = predict_step(state, vec3(100.0), params(mass=1.0))
        assert out.p[0] == pytest.approx(0.01)  # v'=100*0.01=1, p'=0+1*0.01; v*dt first would give 0


class TestSyncErrors:
    def test_identical_states(self):
        s = TwinState(vec3(1, 2, 3), vec3(0.1), 0.5, 0.0)
        e_pos, e_vel, e_rot = sync_errors(s, s)
        assert np.array_equal(e_pos, vec3())
        assert np.array_equal(e_vel, vec3())
        assert e_rot == 0.0

    def test_five_centimeter_context(self):
        phys = TwinState(vec3(1.0), vec3(), 0.0, 0.0)
        pred = TwinState(vec3(0.96), vec3(), 0.0, 0.0)
        e_pos, _, _ = sync_errors(phys, pred)
        assert np.linalg.norm(e_pos) == pytest.approx(0.04)
        assert np.linalg.norm(e_pos) < 0.05

    def test_heading_wrap(self):
        phys = TwinState(vec3(), vec3(), math.radians(350.0) - 2 * math.pi, 0.0)
        pred = TwinState(vec3(), vec3(), math.radians(10.0), 0.0)
        _, _, e_rot = sync_errors(phys, pred)
        assert math.degrees(e_rot) == pytest.approx(-20.0)

    @given(
        px=st.floats(-10, 10), vx=st.floats(-5, 5),
        hp=st.floats(-3.1, 3.1), hq=st.floats(-3.1, 3.1),
    )
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, px, vx, hp, hq):
        a = TwinState(vec3(px), vec3(vx), hp, 0.0)
        b = TwinState(vec3(-px), vec3(2.0), hq, 0.0)
        e1 = sync_errors(a, b)
        e2 = sync_errors(b, a)
        assert allclose(e1[0], [-x for x in e2[0]])
        assert allclose(e1[1], [-x for x in e2[1]])


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi),
         (math.radians(340), math.radians(-20))],
    )
    def test_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected)

    @given(st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_range(self, angle):
        w = wrap_angle(angle)
        assert -math.pi < w <= math.pi


class TestAdaptiveThresholds:
    def test_healthy_link_gives_base(self):
        ctrl = SyncController(eps_pos=0.05, eps_vel=0.1)
        assert adaptive_thresholds(ctrl, 0.0, 0.0) == (0.05, 0.1)

    def test_ten_seconds_disconnect_doubles(self):
        ctrl = SyncController(eps_pos=0.05, eps_vel=0.1)
        eps_pos, eps_vel = adaptive_thresholds(ctrl, 0.0, 10.0)
        assert eps_pos == pytest.approx(0.1)
        assert eps_vel == pytest.approx(0.2)

    def test_cap_at_four_times_base(self):
        ctrl = SyncController(eps_pos=0.05, eps_vel=0.1)
        eps_pos, eps_vel = adaptive_thresholds(ctrl, 0.0, 100.0)
        assert eps_pos == pytest.approx(0.2)
        assert eps_vel == pytest.approx(0.4)

    def test_loss_multiplies(self):
        ctrl = SyncController(eps_pos=0.05, eps_vel=0.1)
        eps_pos, _ = adaptive_thresholds(ctrl, 0.5, 0.0)
        assert eps_pos == pytest.approx(0.075)


class TestPdCorrect:
    def test_direct_substitution(self):
        ctrl = SyncController(kp=2.0, kd=1.0, eps_pos=0.01, eps_vel=0.01)
        f = pd_correct(vec3(0.1), vec3(0.05), ctrl, (ctrl.eps_pos, ctrl.eps_vel))
        assert f == pytest.approx([0.25, 0.0, 0.0])

    def test_gate_closed_below_thresholds(self):
        ctrl = SyncController(kp=2.0, kd=1.0, eps_pos=0.5, eps_vel=0.5)
        assert np.array_equal(pd_correct(vec3(0.1), vec3(0.05), ctrl, (ctrl.eps_pos, ctrl.eps_vel)), vec3())

    def test_zero_gains(self):
        ctrl = SyncController(kp=0.0, kd=0.0, eps_pos=0.01, eps_vel=0.01)
        assert np.array_equal(pd_correct(vec3(1.0), vec3(1.0), ctrl, (ctrl.eps_pos, ctrl.eps_vel)), vec3())

    def test_adaptive_thresholds_override(self):
        ctrl = SyncController(kp=1.0, kd=0.0, eps_pos=0.01, eps_vel=0.01)
        assert np.array_equal(pd_correct(vec3(0.1), vec3(), ctrl, thresholds=(0.5, 0.5)), vec3())

    @given(lam=st.floats(0.1, 10.0), ex=st.floats(-2, 2), vx=st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_linearity_when_gate_open(self, lam, ex, vx):
        assume(abs(ex) > 1e-6)  # gate must be open for both scalings
        ctrl = SyncController(kp=3.0, kd=2.0, eps_pos=1e-9, eps_vel=1e-9)
        thresholds = (ctrl.eps_pos, ctrl.eps_vel)
        f1 = pd_correct(vec3(ex), vec3(vx), ctrl, thresholds)
        f2 = pd_correct(vec3(lam * ex), vec3(lam * vx), ctrl, thresholds)
        assert allclose(f2, [lam * x for x in f1], atol=1e-9)


def oracle_schedule_gains(ctrl: SyncController, window, mass: float) -> tuple[float, float]:
    """Independent reimplementation: exhaustive delayed-feedback rollouts."""
    kp_max = max(kp for kp, _ in ctrl.gain_grid)
    kd_max = max(kd for _, kd in ctrl.gain_grid)
    mean_pos = sum(float(np.linalg.norm(e)) for _, e, _ in window) / len(window)
    mean_vel = sum(float(np.linalg.norm(ev)) for _, _, ev in window) / len(window)
    scale = kp_max * max(mean_pos, ctrl.eps_pos) + kd_max * max(mean_vel, ctrl.eps_vel) or 1.0
    h = min(dt for dt, _, _ in window)
    steps = 10
    costs = []
    for kp, kd in ctrl.gain_grid:
        acc, energy = 0.0, 0.0
        for dt, e_pos, e_vel in window:
            lag = max(1, int(round(dt / h)))
            hist = [(np.array(e_pos), np.array(e_vel))] * lag
            e, ev = np.array(e_pos), np.array(e_vel)
            for _ in range(steps):
                e_old, ev_old = hist[-lag]
                f = kp * e_old + kd * ev_old
                norm = float(np.linalg.norm(f))
                if norm > ctrl.f_corr_max:
                    f = f * (ctrl.f_corr_max / norm)
                    norm = ctrl.f_corr_max
                ev = ev - (h / mass) * f
                e = e + h * ev
                hist.append((e, ev))
                acc += float(np.linalg.norm(e))
                energy += norm
        n = len(window) * steps
        costs.append(
            ACCURACY_WEIGHT * (acc / n) / ctrl.eps_pos
            + ENERGY_WEIGHT * (energy / n) / scale
        )
    best = min(range(len(costs)), key=lambda i: costs[i])
    return ctrl.gain_grid[best]


def tuple_rollout_cost(kp, kd, window, ctrl, force_scale, mass):
    """_gain_candidate_cost as written on 3-tuples, the reference its scalar rollout must match."""
    h = min(dt for dt, _, _ in window)
    g = h / mass
    acc = 0.0
    energy = 0.0
    for dt, e_pos, e_vel in window:
        lag = max(1, int(round(dt / h)))
        states = [(e_pos, e_vel)] * lag
        e, ev = e_pos, e_vel
        for _ in range(GAIN_ROLLOUT_STEPS):
            (ex, ey, ez), (vx, vy, vz) = states[-lag]
            f = (kp * ex + kd * vx, kp * ey + kd * vy, kp * ez + kd * vz)
            norm = math.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2])
            if norm > ctrl.f_corr_max:
                s = ctrl.f_corr_max / norm
                f = (f[0] * s, f[1] * s, f[2] * s)
                norm = ctrl.f_corr_max
            ev = (ev[0] - g * f[0], ev[1] - g * f[1], ev[2] - g * f[2])
            e = (e[0] + h * ev[0], e[1] + h * ev[1], e[2] + h * ev[2])
            states.append((e, ev))
            acc += math.sqrt(e[0] * e[0] + e[1] * e[1] + e[2] * e[2])
            energy += norm
    n = len(window) * GAIN_ROLLOUT_STEPS
    acc_term = (acc / n) / ctrl.eps_pos
    energy_term = (energy / n) / force_scale
    return ACCURACY_WEIGHT * acc_term + ENERGY_WEIGHT * energy_term


# staleness from one update period to ten, so a window's lags run from 1 to 10
GAIN_SAMPLES = st.tuples(
    st.one_of(st.sampled_from([0.1, 0.2, 0.6]), st.floats(0.1, 1.0)),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
LAGGED_WINDOW = [(0.1, (1.0, 0.0, 0.0), (0.0, 0.5, 0.0)), (0.6, (0.5, -0.2, 0.0), (0.1, 0.0, 0.0))]


@given(
    window=st.lists(GAIN_SAMPLES, min_size=1, max_size=10),
    kp=st.floats(0.0, 400.0),
    kd=st.floats(0.0, 100.0),
    f_corr_max=st.one_of(st.just(math.inf), st.floats(0.5, 200.0)),
    mass=st.floats(0.5, 50.0),
    force_scale=st.floats(0.1, 1000.0),
)
@example(window=LAGGED_WINDOW, kp=110.0, kd=40.0, f_corr_max=math.inf, mass=10.0, force_scale=50.0)
@example(window=LAGGED_WINDOW, kp=110.0, kd=40.0, f_corr_max=5.0, mass=10.0, force_scale=50.0)
@settings(max_examples=300, deadline=None)
def test_scalar_rollout_is_the_tuple_rollout_bit_for_bit(window, kp, kd, f_corr_max, mass, force_scale):
    ctrl = SyncController(f_corr_max=f_corr_max)
    got = twinsync._gain_candidate_cost(kp, kd, window, ctrl, force_scale, mass)
    assert got.hex() == tuple_rollout_cost(kp, kd, window, ctrl, force_scale, mass).hex()


class TestScheduleGains:
    def window(self, rng, n=5):
        return [
            (0.1, vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0),
             vec3(rng.uniform(-0.5, 0.5), 0.0, 0.0))
            for _ in range(n)
        ]

    def test_single_candidate(self):
        ctrl = SyncController(gain_grid=((5.0, 1.0),))
        assert schedule_gains(ctrl, self.window(random.Random(1)), 10.0) == (5.0, 1.0)

    def test_dominating_candidate_wins(self):
        # zero velocity errors: (1, 0) beats (400, 0) on both accuracy and energy
        ctrl = SyncController(gain_grid=((400.0, 0.0), (1.0, 0.0)))
        window = [(0.1, vec3(1.0), vec3())]
        assert schedule_gains(ctrl, window, 1.0) == (1.0, 0.0)

    def test_empty_window_keeps_current(self):
        ctrl = SyncController(kp=7.0, kd=3.0, gain_grid=((1.0, 1.0), (2.0, 2.0)))
        assert schedule_gains(ctrl, [], 10.0) == (7.0, 3.0)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        grid = tuple((kp, kd) for kp in (10.0, 40.0, 160.0) for kd in (5.0, 20.0, 80.0))
        for _ in range(25):
            ctrl = SyncController(gain_grid=grid)
            mass = rng.choice([1.0, 10.0])
            window = self.window(rng, n=rng.randint(1, 8))
            assert schedule_gains(ctrl, window, mass) == oracle_schedule_gains(ctrl, window, mass)

    def test_tie_breaks_to_lowest_index(self):
        ctrl = SyncController(gain_grid=((3.0, 1.0), (3.0, 1.0)))
        window = [(0.1, vec3(0.5), vec3(0.1))]
        assert schedule_gains(ctrl, window, 10.0) == ctrl.gain_grid[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            schedule_gains(SyncController(gain_grid=()), [], 10.0)


def quadrature_oracle(k, delta_fn, e0, t, n=200_000):
    """Independent numeric integration of the envelope convolution."""
    total = e0 * math.exp(k * t)
    if t == 0:
        return total
    h = t / n
    acc = 0.0
    for i in range(n):
        tau = (i + 0.5) * h
        acc += k * delta_fn(tau) * math.exp(k * (t - tau))
    return total + acc * h


class TestGronwallBound:
    def test_perfect_sync_stays_zero(self):
        model = SyncBoundModel(lipschitz=1.0, delta_bound=0.0, e0=0.0)
        for t in (0.0, 0.5, 3.0, 10.0):
            assert gronwall_bound(model, t) == 0.0

    def test_t_zero_returns_e0(self):
        model = SyncBoundModel(lipschitz=2.0, delta_bound=0.5, e0=0.125)
        assert gronwall_bound(model, 0.0) == pytest.approx(0.125)

    def test_unit_case_closed_form(self):
        model = SyncBoundModel(lipschitz=1.0, delta_bound=0.01, e0=0.0)
        assert gronwall_bound(model, 1.0) == pytest.approx(0.01718281828459045, rel=1e-12)

    def test_constant_matches_quadrature(self):
        model = SyncBoundModel(lipschitz=0.8, delta_bound=0.3, e0=0.05)
        expected = quadrature_oracle(0.8, lambda _t: 0.3, 0.05, 2.5)
        assert gronwall_bound(model, 2.5) == pytest.approx(expected, rel=1e-4)

    def test_overflowing_growth_is_an_infinite_envelope(self):
        # exp(K*t) overflows a float once K*t > 709.78; no error can exceed the envelope there
        assert gronwall_bound(SyncBoundModel(1.0, 0.5), 710.0) == math.inf

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gronwall_bound(SyncBoundModel(1.0, 0.0), -0.1)

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_time(self, t1, t2):
        model = SyncBoundModel(lipschitz=0.5, delta_bound=0.2, e0=0.01)
        lo, hi = sorted((t1, t2))
        assert gronwall_bound(model, lo) <= gronwall_bound(model, hi) + 1e-12


NAN = math.nan


@pytest.mark.parametrize(
    "config, fields",
    [
        (PhysicalParams, {"mass": NAN}),
        (PhysicalParams, {"drag": NAN}),
        (PhysicalParams, {"drag": -1.0}),
        (SyncController, {"kp": NAN}),
        (SyncController, {"kd": NAN}),
        (SyncController, {"gain_grid": ((NAN, 10.0),)}),
        (SyncController, {"gain_grid": ((12.0, 10.0), (110.0, NAN))}),
        (SyncController, {"eps_pos": NAN}),
        (SyncController, {"eps_vel": NAN}),
        (SyncController, {"f_corr_max": NAN}),
        (SyncController, {"f_corr_max": 0.0}),
        (SyncController, {"f_corr_max": -150.0}),  # would flip the correction's sign
        (SyncBoundModel, {"lipschitz": NAN, "delta_bound": 0.6}),  # every bound NaN: nothing flagged
        (SyncBoundModel, {"lipschitz": 1.2, "delta_bound": NAN}),
        (SyncBoundModel, {"lipschitz": 1.2, "delta_bound": 0.6, "e0": NAN}),
    ],
    ids=lambda v: "-".join(f"{k}={v[k]}" for k in v) if isinstance(v, dict) else v.__name__,
)
def test_a_config_field_out_of_range_or_nan_is_rejected(config, fields):
    with pytest.raises(ValueError):
        config(**fields)


class TestStateUpdateWire:
    def test_roundtrip(self):
        u = StateUpdate(1.5, vec3(1, 2, 3), vec3(0.1, 0.2, 0.3), 0.7, vec3(5, 0, 0), 0.05)
        back = StateUpdate.unpack(u.pack())
        assert back.t == u.t
        assert np.array_equal(back.p, u.p)
        assert np.array_equal(back.force, u.force)
        assert back == u


class TestForceScript:
    def test_piecewise_lookup(self):
        script = PiecewiseConstant([(0.0, vec3(1.0, 0.0, 0.0)), (2.0, vec3(-1.0, 0.5, 0.0))])
        assert script.value_at(1.999) == pytest.approx([1.0, 0.0, 0.0])
        assert script.value_at(2.0) == pytest.approx([-1.0, 0.5, 0.0])

    def test_duplicate_times_last_wins(self):
        script = PiecewiseConstant([(1.0, vec3(9.0, 0.0, 0.0)), (1.0, vec3(3.0, 0.0, 0.0))])
        assert script.value_at(1.5) == pytest.approx([3.0, 0.0, 0.0])


class TestVirtualTwin:
    def test_state_at_is_the_nearest_kept_state(self, monkeypatch):
        twins = []

        class KeptTwin(VirtualTwin):
            def __init__(self):
                super().__init__()
                twins.append(self)

        monkeypatch.setattr(twinsync, "VirtualTwin", KeptTwin)
        clock = SimClock()
        link = NetLink(clock, NetworkConditions.ideal(), seed=1)
        force = PiecewiseConstant([(0.0, vec3(1.0, -0.5))])
        run_sync_loop(params(), force, PiecewiseConstant(0.0), SyncController(), link, clock, 10.0)
        [twin] = twins
        kept = list(twin._history)
        # the history holds the newest HISTORY_WINDOW / TICK + 2 states, one per tick
        assert [round(s.t / TICK) for s in kept] == list(range(399, 1001))
        for s in kept:
            assert twin.state_at(s.t) is s
        assert twin.state_at(0.0) is kept[0]
        assert twin.state_at(-1.0) is kept[0]
        assert twin.state_at(20.0) is kept[-1]
        rng = random.Random(3)
        for _ in range(200):
            t = rng.uniform(3.0, 10.5)
            assert twin.state_at(t) is min(kept, key=lambda s: abs(s.t - t))


def ideal_loop(duration=5.0):
    clock = SimClock()
    link = NetLink(clock, NetworkConditions.ideal(), seed=1)
    p = params(mass=10.0, drag=1.5)
    script = PiecewiseConstant([(0.0, vec3(2.0)), (1.0, vec3(-1.0, 0.5)), (3.0, vec3(0.5))])
    yaw = PiecewiseConstant([(0.0, 0.1), (2.0, -0.05)])
    ctrl = SyncController(kp=40.0, kd=30.0, eps_pos=0.05, eps_vel=0.1)
    return run_sync_loop(p, script, yaw, ctrl, link, clock, duration)


class TestRunSyncLoop:
    def test_perfect_channel_zero_error(self):
        report = ideal_loop()
        assert max(report.e_pos) < 1e-9
        assert max(abs(r) for r in report.e_rot) < 1e-9
        assert report.updates_received == report.updates_sent

    @pytest.mark.parametrize("duration", [0.1, 2.0, 40.0])
    def test_one_update_leaves_every_update_period(self, duration):
        report = ideal_loop(duration=duration)
        assert report.updates_sent == round(duration / UPDATE_PERIOD)
        assert len(report.t) == round(duration / TICK) + 1  # a sample at 0 and one per tick

    @pytest.mark.parametrize("duration", [0.015, 0.004])
    def test_a_duration_between_ticks_is_refused_not_rounded(self, duration):
        # rounded, 0.015 s would simulate to t = 0.02 s, and 0.004 s would run no tick
        with pytest.raises(ValueError, match=r"is not a whole number of twinsync\.TICK \(0\.01 s\)"):
            ideal_loop(duration=duration)

    def test_report_series_aligned(self):
        report = ideal_loop(duration=2.0)
        n = len(report.t)
        assert len(report.e_pos) == n == len(report.e_rot) == len(report.bound)
        assert len(report.kp) == n == len(report.kd) == len(report.corrected)

    def test_gain_switches_leave_the_callers_controller_alone(self):
        clock = SimClock()
        link = NetLink(clock, NetworkConditions.ideal(), seed=1)
        p = params(mass=10.0, drag=1.5)
        force = PiecewiseConstant([(0.0, vec3(2.0))])
        ctrl = SyncController(kp=40.0, kd=30.0, gain_grid=((12.0, 10.0), (110.0, 40.0)))
        report = run_sync_loop(p, force, PiecewiseConstant(0.0), ctrl, link, clock, 3.0)
        assert (ctrl.kp, ctrl.kd) == (40.0, 30.0)
        assert (report.kp[0], report.kd[0]) == (40.0, 30.0)
        assert set(zip(report.kp, report.kd)) - {(40.0, 30.0)}

    def test_a_state_that_goes_non_finite_is_an_error(self):
        clock = SimClock()
        link = NetLink(clock, NetworkConditions.ideal(), seed=1)
        # the force turns between two updates, so the twin, still pushing the old one, falls out of the gate
        force = PiecewiseConstant([(0.0, vec3(2.0)), (0.05, vec3(-100.0))])
        ctrl = SyncController(kp=1e300, kd=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SyncStateError, match=r"t=0\.\d\d s"):
            run_sync_loop(params(mass=10.0), force, PiecewiseConstant(0.0), ctrl, link, clock, 1.0)

    def test_integrated_error_zero_on_perfect_channel(self):
        report = ideal_loop(duration=2.0)
        assert report.integrated_error() < 1e-9


def test_gains_are_rescheduled_only_for_a_new_window(monkeypatch, tmp_path):
    events = []
    schedule_gains, state_at = twinsync.schedule_gains, VirtualTwin.state_at

    def counted_schedule(ctrl, window, mass):
        events.append(("schedule", list(window)))
        return schedule_gains(ctrl, window, mass)

    def counted_state_at(twin, t):  # looked up once per fresh arrival, at its send instant
        events.append(("arrival", t))
        return state_at(twin, t)

    monkeypatch.setattr(twinsync, "schedule_gains", counted_schedule)
    monkeypatch.setattr(VirtualTwin, "state_at", counted_state_at)
    runner.run(SCENARIOS / "sync_disconnect.yaml", out_dir=tmp_path)

    digest = hashlib.sha256((tmp_path / "sync.csv").read_bytes()).hexdigest()
    assert digest == RUNS["sync_disconnect"][1]["sync.csv"]
    # nothing sent in the [10, 40) s blackout arrives: of the 30 periodic reschedules
    # due in it, only the first sees the window the last arrival before it completed
    arrivals = [i for i, (kind, t) in enumerate(events) if kind == "arrival" and t < 40.0]
    first_after = next(i for i, (kind, t) in enumerate(events) if kind == "arrival" and t >= 40.0)
    assert [kind for kind, _ in events[arrivals[-1] + 1:first_after]] == ["schedule"]
    windows = [window for kind, window in events if kind == "schedule"]
    assert len(windows) == 59
    assert all(a != b for a, b in zip(windows, windows[1:]))


def test_each_tick_steps_through_predict_step_and_each_sample_through_gronwall_bound(monkeypatch):
    # bench/tracing.py wraps these module names to count the sync loop's work per layer
    calls = dict.fromkeys(["predict_step", "gronwall_bound"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(twinsync, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(twinsync, name, counted)
    scenario = load_scenario(SCENARIOS / "sync_default.yaml")
    report = runner.run_sync_section(scenario, scenario.seed)
    ticks = round(scenario.duration / TICK)
    assert len(report.t) == ticks + 1
    assert calls == {"predict_step": 2 * ticks, "gronwall_bound": ticks + 1}


# SHA-256 of each run's per-tick gate threshold as little-endian doubles, taken when the
# loop still recorded the threshold every tick; the loop now derives it from the arrival log
EPS_POS_SHA256 = {
    "sync_default": "f83f5d40475461bee2e9d242468f059037ab0e2b9df728979d17d89f8f72fd62",
    "sync_latency200": "86e7747a37e4cd3b95b71eb86d699923eac824b4c71970ec43c13fae21c3fc2a",
    "sync_disconnect": "aa7dec5476c4aee2e4c1c04a10289515dc954fe939b9151da6864100b9002671",
}


@pytest.mark.parametrize("name", sorted(EPS_POS_SHA256))
def test_the_gate_threshold_is_the_one_the_arrival_log_gives_each_tick(name):
    scenario = load_scenario(SCENARIOS / f"{name}.yaml")
    report = runner.run_sync_section(scenario, scenario.seed)
    ctrl, arrivals = scenario.sync.controller, report.arrivals
    assert arrivals == sorted(arrivals) and len(arrivals) <= report.updates_received
    expected = []
    for t in report.t:
        # the arrivals by t, of which those at most LOSS_WINDOW old feed the loss estimate
        seen = bisect.bisect_right(arrivals, t)
        recent = arrivals[bisect.bisect_left(arrivals, t - LOSS_WINDOW) : seen]
        gap = t - (arrivals[seen - 1] if seen else 0.0) - UPDATE_PERIOD
        expected.append(adaptive_thresholds(ctrl, _estimate_loss(recent, t), gap)[0] if t > 0 else ctrl.eps_pos)
    eps_pos = report.eps_pos
    assert eps_pos == expected
    assert hashlib.sha256(struct.pack(f"<{len(eps_pos)}d", *eps_pos)).hexdigest() == EPS_POS_SHA256[name]


def traced_loop(monkeypatch, force, yaw, duration):
    """run_sync_loop over an ideal link; returns the agent's (state, force) per step and its updates."""
    calls, updates = [], []
    step = twinsync.predict_step

    def traced_step(state, f_phys, p):
        calls.append((state, f_phys))
        return step(state, f_phys, p)

    monkeypatch.setattr(twinsync, "predict_step", traced_step)
    clock = SimClock()
    link = NetLink(clock, NetworkConditions.ideal(), seed=1)
    send = link.send
    link.send = lambda payload: updates.append(StateUpdate.unpack(payload)) or send(payload)
    run_sync_loop(params(mass=10.0, drag=1.5), force, yaw, SyncController(), link, clock, duration)
    return calls[::2], updates  # each tick steps the agent, then the twin


# a breakpoint time: anywhere, on the tick grid, negative, past the run, or one of a few shared ones
BREAK_TIMES = st.one_of(
    st.floats(-1.0, 1.5),
    st.integers(-3, 150).map(lambda k: k * TICK),
    st.sampled_from([0.0, 0.05, 0.3, -0.2]),
)


@settings(max_examples=150, deadline=None)
@given(
    force=st.lists(st.tuples(BREAK_TIMES, st.integers(-9, 9).map(float)), min_size=1, max_size=8),
    yaw=st.lists(st.tuples(BREAK_TIMES, st.integers(-9, 9).map(lambda r: r / 10)), min_size=1, max_size=8),
    ticks=st.integers(1, 120),
)
@example(force=[(0.02, 1.0), (0.01, 2.0), (0.01, 3.0), (-0.5, 4.0)], yaw=[(3 * TICK, 0.5)], ticks=10)
def test_each_tick_reads_the_scripts_value_at_its_time(force, yaw, ticks):
    force_script = PiecewiseConstant((t, vec3(x)) for t, x in force)
    yaw_script = PiecewiseConstant(yaw)
    with pytest.MonkeyPatch.context() as monkeypatch:
        steps, updates = traced_loop(monkeypatch, force_script, yaw_script, ticks * TICK)
    assert len(steps) == ticks
    # step k + 1 integrates the force and yaw rate read at tick k
    for k, (state, f_phys) in enumerate(steps):
        assert round(state.t / TICK) == k
        assert f_phys == force_script.value_at(k * TICK)
        if k:
            before = steps[k - 1][0].heading
            assert state.heading == wrap_angle(before + yaw_script.value_at((k - 1) * TICK) * TICK)
    assert [u.t for u in updates] == [k * TICK for k in range(10, ticks + 1, 10)]
    for u in updates:
        assert (u.force, u.yaw_rate) == (force_script.value_at(u.t), yaw_script.value_at(u.t))


def test_the_scripts_are_read_only_at_their_breakpoints(monkeypatch, tmp_path):
    scripts, reads = [], []
    value_at, loop = PiecewiseConstant.value_at, runner.run_sync_loop

    def counted_value_at(profile, t):
        reads.append(profile)
        return value_at(profile, t)

    def loop_keeping_the_scripts(plant, force_script, yaw_script, *args):
        scripts.extend((force_script, yaw_script))
        return loop(plant, force_script, yaw_script, *args)

    monkeypatch.setattr(PiecewiseConstant, "value_at", counted_value_at)
    monkeypatch.setattr(runner, "run_sync_loop", loop_keeping_the_scripts)
    runner.run(SCENARIOS / "sync_disconnect.yaml", out_dir=tmp_path)

    digest = hashlib.sha256((tmp_path / "sync.csv").read_bytes()).hexdigest()
    assert digest == RUNS["sync_disconnect"][1]["sync.csv"]
    breakpoints = sum(len(script.breakpoints()) for script in scripts)
    assert breakpoints == 12
    # the 7 000-tick run once read both scripts every tick: 14 002 reads
    assert sum(any(profile is script for script in scripts) for profile in reads) <= breakpoints + 2
