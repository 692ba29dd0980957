"""Predictive model, PD gating, gain scheduling, and the error envelope."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinbridge.netsim import NetLink, NetworkConditions, PiecewiseConstant, SimClock
from twinbridge.twinsync import (
    GainSample,
    InvalidStep,
    PhysicalAgent,
    PhysicalParams,
    StateUpdate,
    SyncBoundModel,
    SyncController,
    SyncLoopConfig,
    TwinState,
    VirtualTwin,
    adaptive_thresholds,
    gronwall_bound,
    pd_correct,
    predict_step,
    resistive_force,
    run_sync_loop,
    schedule_gains,
    sync_errors,
    vec3,
    wrap_angle,
)


def params(mass=10.0, mu=0.0, drag=0.0):
    return PhysicalParams(mass=mass, friction={"default": mu}, drag=drag)


def allclose(a, b, rtol=1e-5, atol=1e-8):
    """np.allclose's element-wise test, |a - b| <= atol + rtol * |b|, on plain sequences."""
    return len(a) == len(b) and all(abs(x - y) <= atol + rtol * abs(y) for x, y in zip(a, b))


def rate(after, before, dt):
    return [(x - y) / dt for x, y in zip(after, before)]


class TestPredictStep:
    def test_equilibrium_only_time_moves(self):
        state = TwinState.at_rest()
        out = predict_step(state, vec3(), params(), dt=0.1)
        assert np.array_equal(out.p, state.p)
        assert np.array_equal(out.v, state.v)
        assert out.t == pytest.approx(0.1)

    def test_direct_substitution(self):
        # net force 10 N on 10 kg: a=1, v'=0.1, p'=0.01 after dt=0.1
        state = TwinState.at_rest()
        out = predict_step(state, vec3(10.0), params(mass=10.0), dt=0.1)
        assert rate(out.v, state.v, 0.1) == pytest.approx([1.0, 0.0, 0.0])
        assert out.v == pytest.approx([0.1, 0.0, 0.0])
        assert out.p == pytest.approx([0.01, 0.0, 0.0])

    def test_coulomb_friction_deceleration(self):
        state = TwinState(vec3(), vec3(1.0), 0.0, 0.0)
        out = predict_step(state, vec3(), params(mass=10.0, mu=0.3), dt=0.01)
        assert rate(out.v, state.v, 0.01) == pytest.approx([-2.943, 0.0, 0.0])

    def test_friction_zero_at_rest(self):
        assert np.array_equal(resistive_force(vec3(), params(mu=0.9)), vec3())

    def test_invalid_step(self):
        with pytest.raises(InvalidStep):
            predict_step(TwinState.at_rest(), vec3(), params(), dt=0.0)

    def test_zero_force_zero_friction_conserves_momentum(self):
        state = TwinState(vec3(), vec3(0.7, -0.2, 0.1), 0.0, 0.0)
        for _ in range(500):
            state = predict_step(state, vec3(), params(), dt=0.02)
        assert state.v == pytest.approx([0.7, -0.2, 0.1])

    def test_semi_implicit_order(self):
        # position must advance with the *updated* velocity
        state = TwinState.at_rest()
        out = predict_step(state, vec3(10.0), params(mass=1.0), dt=1.0)
        assert out.p[0] == pytest.approx(10.0)  # v'=10, p'=0+10*1


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
        f = pd_correct(vec3(0.1), vec3(0.05), ctrl)
        assert f == pytest.approx([0.25, 0.0, 0.0])

    def test_gate_closed_below_thresholds(self):
        ctrl = SyncController(kp=2.0, kd=1.0, eps_pos=0.5, eps_vel=0.5)
        assert np.array_equal(pd_correct(vec3(0.1), vec3(0.05), ctrl), vec3())

    def test_zero_gains(self):
        ctrl = SyncController(kp=0.0, kd=0.0, eps_pos=0.01, eps_vel=0.01)
        assert np.array_equal(pd_correct(vec3(1.0), vec3(1.0), ctrl), vec3())

    def test_adaptive_thresholds_override(self):
        ctrl = SyncController(kp=1.0, kd=0.0, eps_pos=0.01, eps_vel=0.01)
        assert np.array_equal(pd_correct(vec3(0.1), vec3(), ctrl, thresholds=(0.5, 0.5)), vec3())

    @given(lam=st.floats(0.1, 10.0), ex=st.floats(-2, 2), vx=st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_linearity_when_gate_open(self, lam, ex, vx):
        assume(abs(ex) > 1e-6)  # gate must be open for both scalings
        ctrl = SyncController(kp=3.0, kd=2.0, eps_pos=1e-9, eps_vel=1e-9)
        f1 = pd_correct(vec3(ex), vec3(vx), ctrl)
        f2 = pd_correct(vec3(lam * ex), vec3(lam * vx), ctrl)
        assert allclose(f2, [lam * x for x in f1], atol=1e-9)


def oracle_schedule_gains(ctrl: SyncController, window) -> tuple[float, float]:
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
                ev = ev - (h / ctrl.response_mass) * f
                e = e + h * ev
                hist.append((e, ev))
                acc += float(np.linalg.norm(e))
                energy += norm
        n = len(window) * steps
        costs.append(
            ctrl.accuracy_weight * (acc / n) / ctrl.eps_pos
            + ctrl.energy_weight * (energy / n) / scale
        )
    best = min(range(len(costs)), key=lambda i: costs[i])
    return ctrl.gain_grid[best]


class TestScheduleGains:
    def window(self, rng, n=5):
        return [
            (0.1, vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0),
             vec3(rng.uniform(-0.5, 0.5), 0.0, 0.0))
            for _ in range(n)
        ]

    def test_single_candidate(self):
        ctrl = SyncController(gain_grid=((5.0, 1.0),))
        assert schedule_gains(ctrl, self.window(random.Random(1))) == (5.0, 1.0)

    def test_dominating_candidate_wins(self):
        # zero velocity errors: (1, 0) beats (400, 0) on both accuracy and energy
        ctrl = SyncController(gain_grid=((400.0, 0.0), (1.0, 0.0)), response_mass=1.0)
        window = [(0.1, vec3(1.0), vec3())]
        assert schedule_gains(ctrl, window) == (1.0, 0.0)

    def test_empty_window_keeps_current(self):
        ctrl = SyncController(kp=7.0, kd=3.0, gain_grid=((1.0, 1.0), (2.0, 2.0)))
        assert schedule_gains(ctrl, []) == (7.0, 3.0)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        grid = tuple((kp, kd) for kp in (10.0, 40.0, 160.0) for kd in (5.0, 20.0, 80.0))
        for _ in range(25):
            ctrl = SyncController(gain_grid=grid, response_mass=rng.choice([1.0, 10.0]))
            window = self.window(rng, n=rng.randint(1, 8))
            assert schedule_gains(ctrl, window) == oracle_schedule_gains(ctrl, window)

    def test_tie_breaks_to_lowest_index(self):
        ctrl = SyncController(gain_grid=((3.0, 1.0), (3.0, 1.0)))
        window = [(0.1, vec3(0.5), vec3(0.1))]
        assert schedule_gains(ctrl, window) == ctrl.gain_grid[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            schedule_gains(SyncController(gain_grid=()), [])


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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gronwall_bound(SyncBoundModel(1.0, 0.0), -0.1)

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_time(self, t1, t2):
        model = SyncBoundModel(lipschitz=0.5, delta_bound=0.2, e0=0.01)
        lo, hi = sorted((t1, t2))
        assert gronwall_bound(model, lo) <= gronwall_bound(model, hi) + 1e-12


class TestStateUpdateWire:
    def test_roundtrip(self):
        u = StateUpdate(1.5, vec3(1, 2, 3), vec3(0.1, 0.2, 0.3), 0.7, vec3(5, 0, 0), 0.05, 42)
        back = StateUpdate.unpack(u.pack())
        assert back.t == u.t
        assert np.array_equal(back.p, u.p)
        assert np.array_equal(back.force, u.force)
        assert back.seq == 42


class TestForceScript:
    def test_piecewise_lookup(self):
        script = PiecewiseConstant([(0.0, vec3(1.0, 0.0, 0.0)), (2.0, vec3(-1.0, 0.5, 0.0))])
        assert script.value_at(1.999) == pytest.approx([1.0, 0.0, 0.0])
        assert script.value_at(2.0) == pytest.approx([-1.0, 0.5, 0.0])

    def test_duplicate_times_last_wins(self):
        script = PiecewiseConstant([(1.0, vec3(9.0, 0.0, 0.0)), (1.0, vec3(3.0, 0.0, 0.0))])
        assert script.value_at(1.5) == pytest.approx([3.0, 0.0, 0.0])


class TestVirtualTwin:
    def test_state_at_is_the_nearest_kept_state(self):
        twin = VirtualTwin(params(), tick=0.01)
        twin.known_force = vec3(1.0, -0.5)
        states = [twin.state]
        for k in range(1, 1001):
            twin.step(0.01, t_end=k * 0.01)
            states.append(twin.state)
        kept = states[-602:]  # the history holds HISTORY_WINDOW / tick + 2 states
        for s in kept:
            assert twin.state_at(s.t) is s
        assert twin.state_at(0.0) is kept[0]
        assert twin.state_at(-1.0) is kept[0]
        assert twin.state_at(20.0) is kept[-1]
        rng = random.Random(3)
        for _ in range(200):
            t = rng.uniform(3.0, 10.5)
            assert twin.state_at(t) is min(kept, key=lambda s: abs(s.t - t))


def ideal_loop(duration=5.0, **kwargs):
    clock = SimClock()
    link = NetLink(clock, NetworkConditions.ideal(), seed=1)
    p = params(mass=10.0, drag=1.5)
    script = PiecewiseConstant([(0.0, vec3(2.0)), (1.0, vec3(-1.0, 0.5)), (3.0, vec3(0.5))])
    yaw = PiecewiseConstant([(0.0, 0.1), (2.0, -0.05)])
    agent = PhysicalAgent(p, script, yaw)
    twin = VirtualTwin(p)
    ctrl = SyncController(kp=40.0, kd=30.0, eps_pos=0.05, eps_vel=0.1)
    config = SyncLoopConfig(duration=duration, tick=0.01, update_period=0.1, **kwargs)
    return run_sync_loop(agent, twin, ctrl, link, clock, config)


class TestRunSyncLoop:
    def test_perfect_channel_zero_error(self):
        report = ideal_loop()
        assert max(report.e_pos) < 1e-9
        assert max(abs(r) for r in report.e_rot) < 1e-9
        assert report.updates_received == report.updates_sent

    def test_report_series_aligned(self):
        report = ideal_loop(duration=2.0)
        n = len(report.t)
        assert len(report.e_pos) == n == len(report.e_rot) == len(report.bound)
        assert len(report.kp) == n == len(report.kd) == len(report.corrected)

    def test_gain_switches_leave_the_callers_controller_alone(self):
        clock = SimClock()
        link = NetLink(clock, NetworkConditions.ideal(), seed=1)
        p = params(mass=10.0, drag=1.5)
        agent = PhysicalAgent(p, PiecewiseConstant([(0.0, vec3(2.0))]))
        ctrl = SyncController(kp=40.0, kd=30.0, gain_grid=((12.0, 10.0), (110.0, 40.0)))
        config = SyncLoopConfig(duration=3.0, adaptive_gains=True, gain_window=1.0)
        report = run_sync_loop(agent, VirtualTwin(p), ctrl, link, clock, config)
        assert (ctrl.kp, ctrl.kd) == (40.0, 30.0)
        assert (report.kp[0], report.kd[0]) == (40.0, 30.0)
        assert set(zip(report.kp, report.kd)) - {(40.0, 30.0)}

    def test_a_state_that_goes_non_finite_is_an_error(self):
        clock = SimClock()
        link = NetLink(clock, NetworkConditions.ideal(), seed=1)
        agent = PhysicalAgent(params(mass=10.0), PiecewiseConstant([(0.0, vec3(2.0))]))
        twin = VirtualTwin(params(mass=1.0))
        ctrl = SyncController(kp=1e300, kd=1e300)
        config = SyncLoopConfig(duration=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            run_sync_loop(agent, twin, ctrl, link, clock, config)

    def test_integrated_error_zero_on_perfect_channel(self):
        report = ideal_loop(duration=2.0)
        assert report.integrated_error() < 1e-9
