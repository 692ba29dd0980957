"""Clock, profile, and impaired-link behavior."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinbridge.netsim import (
    NetLink,
    NetworkConditions,
    PiecewiseConstant,
    SimClock,
    link_pair,
    replay_trace,
    whole_ticks,
)


def make_link(clock, latency=0.0, loss=0.0, bandwidth=None, disconnects=(), seed=1):
    cond = NetworkConditions(
        PiecewiseConstant(latency), PiecewiseConstant(loss), bandwidth, tuple(disconnects)
    )
    return NetLink(clock, cond, seed)


class TestPiecewiseConstant:
    def test_constant(self):
        p = PiecewiseConstant(0.25)
        assert p.value_at(0.0) == 0.25
        assert p.value_at(100.0) == 0.25

    def test_steps_are_right_continuous(self):
        p = PiecewiseConstant([(0.0, 1.0), (5.0, 2.0)])
        assert p.value_at(4.999) == 1.0
        assert p.value_at(5.0) == 2.0
        assert p.value_at(9.0) == 2.0

    def test_before_first_breakpoint(self):
        p = PiecewiseConstant([(10.0, 3.0)])
        assert p.value_at(0.0) == 3.0

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.integers(-5, 5).map(float)),
            min_size=1,
            max_size=6,
        )
    )
    def test_of_rows_sharing_a_time_the_last_given_holds(self, rows):
        p = PiecewiseConstant(rows)
        for t in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            earlier = [time for time, _ in rows if time <= t]
            held = max(earlier) if earlier else min(time for time, _ in rows)
            assert p.value_at(t) == [v for time, v in rows if time == held][-1]

    @pytest.mark.parametrize(
        "rows",
        [
            [(0.0, 1.0), (float("nan"), 5.0), (2.0, 3.0)],  # once read 5.0 at t = 0.5
            [(2.0, 3.0), (float("nan"), 5.0), (0.0, 1.0)],  # once read 1.0 at t = 2.5
            [(float("nan"), 5.0)],
        ],
    )
    def test_a_nan_breakpoint_time_is_rejected(self, rows):
        # sorting and bisect need totally ordered times; NaN compares false with all
        with pytest.raises(ValueError, match="NaN"):
            PiecewiseConstant(rows)


class TestSimClock:
    def test_zero_dt_fires_only_now_due(self):
        clock = SimClock()
        fired = []
        clock.schedule(0.0, lambda: fired.append("now"))
        clock.schedule(0.1, lambda: fired.append("later"))
        events = clock.advance(0.0)
        assert fired == ["now"]
        assert events == [0.0]

    def test_no_events(self):
        clock = SimClock()
        assert clock.advance(1.0) == []
        assert clock.now == 1.0

    def test_same_time_fires_in_insertion_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(1.0, lambda: fired.append("b"))
        clock.advance(2.0)
        assert fired == ["a", "b"]

    def test_cannot_schedule_in_past(self):
        clock = SimClock()
        clock.advance(5.0)
        with pytest.raises(ValueError):
            clock.schedule(4.0, lambda: None)

    def test_chained_events_fire_within_one_advance(self):
        clock = SimClock()
        fired = []

        def first():
            fired.append("first")
            clock.schedule(clock.now, lambda: fired.append("chained"))

        clock.schedule(0.5, first)
        clock.advance(1.0)
        assert fired == ["first", "chained"]

    def test_advances_by_a_tick_land_on_the_accumulated_floats(self):
        # the engine's tick instants are these targets, 0.0 + 0.02 + 0.02 + ...
        clock = SimClock()
        expected, t = [], 0.0
        seen = []
        for _ in range(300):
            clock.advance(0.02)
            seen.append(clock.now)
            t += 0.02
            expected.append(t)
        assert seen == expected

    def test_one_advance_across_many_events_fires_each_at_its_own_time(self):
        clock = SimClock()
        seen = []
        for at in (0.75, 0.25, 1.0, 0.5):
            clock.schedule(at, lambda: seen.append(clock.now))
        assert clock.advance(1.1) == [0.25, 0.5, 0.75, 1.0]
        assert seen == [0.25, 0.5, 0.75, 1.0] and clock.now == 1.1

    def test_an_event_at_the_target_fires_and_one_just_after_waits(self):
        clock = SimClock()
        fired = []
        clock.schedule(0.5, lambda: fired.append("at"))
        clock.schedule(0.5000000000000001, lambda: fired.append("after"))
        assert clock.advance(0.5) == [0.5] and fired == ["at"]
        assert clock.advance(0.0) == [] and fired == ["at"]

    def test_an_event_scheduled_now_after_an_advance_fires_in_the_next_one(self):
        # as the engine's last ticks schedule deliveries at the end instant
        clock = SimClock()
        fired = []
        clock.advance(0.5)
        clock.schedule(clock.now, lambda: fired.append(clock.now))
        assert clock.advance(0.0) == [0.5] and fired == [0.5]

    def test_an_event_a_callback_schedules_inside_the_window_fires_in_it(self):
        clock = SimClock()
        fired = []

        def first():
            clock.schedule(clock.now + 0.25, lambda: fired.append(("inside", clock.now)))
            clock.schedule(clock.now + 1.0, lambda: fired.append(("outside", clock.now)))

        clock.schedule(0.25, first)
        assert clock.advance(1.0) == [0.25, 0.5]
        assert fired == [("inside", 0.5)]
        assert clock.advance(1.0) == [1.25]
        assert fired == [("inside", 0.5), ("outside", 1.25)]

    @pytest.mark.parametrize("dt", [-0.02, float("-inf"), float("nan")])
    def test_a_dt_that_is_not_at_least_zero_is_rejected_and_moves_nothing(self, dt):
        clock = SimClock()
        fired = []
        clock.schedule(0.5, lambda: fired.append("due"))
        clock.advance(0.25)
        with pytest.raises(ValueError, match="dt"):
            clock.advance(dt)
        assert clock.now == 0.25 and fired == []
        assert clock.advance(0.25) == [0.5] and fired == ["due"]

    @given(
        plan=st.lists(
            st.tuples(st.integers(0, 40), st.lists(st.integers(0, 10), max_size=3)),
            max_size=30,
        ),
        steps=st.lists(st.integers(0, 12), min_size=1, max_size=12),
    )
    def test_events_fire_once_in_time_then_insertion_order_property(self, plan, steps):
        # quarter-second grid: every sum is exact, so the expected order is plain
        # (time, insertion) order; each event may chain children at or after it
        clock = SimClock()
        order = []  # (at, insertion index) in firing order
        inserted = 0

        def put(at, children):
            nonlocal inserted
            key = (at, inserted)
            inserted += 1

            def fire():
                assert clock.now == at
                order.append(key)
                for gap in children:
                    put(at + gap / 4, [])

            clock.schedule(at, fire)

        for quarter, children in plan:
            put(quarter / 4, children)
        times = []
        for quarters in steps:
            target = clock.now + quarters / 4
            fired = clock.advance(quarters / 4)
            assert all(at <= target for at in fired) and clock.now == target
            times += fired
        assert times == [at for at, _ in order]
        assert order == sorted(order)
        assert len(set(order)) == len(order)
        # all that is due by the last target fired; nothing later did
        assert not [k for k in order if k[0] > clock.now]
        assert len(clock._heap) == inserted - len(order)
        assert all(at > clock.now for at, _, _ in clock._heap)


class TestSend:
    def test_pure_latency(self):
        clock = SimClock()
        link = make_link(clock, latency=0.1)
        out = link.send(b"x" * 1024)
        assert out.deliver_at == pytest.approx(0.1)

    def test_certain_loss(self):
        clock = SimClock()
        link = make_link(clock, loss=1.0)
        for _ in range(20):
            assert link.send(b"payload").dropped

    def test_serialization_delay_is_cumulative(self):
        clock = SimClock()
        link = make_link(clock, bandwidth=10_240.0)
        first = link.send(b"x" * 10_240)
        second = link.send(b"x" * 10_240)
        assert first.deliver_at == pytest.approx(1.0)
        assert second.deliver_at == pytest.approx(2.0)

    def test_disconnect_window_drops(self):
        clock = SimClock()
        link = make_link(clock, disconnects=[(1.0, 2.0)])
        assert not link.send(b"a").dropped
        clock.advance(1.5)
        out = link.send(b"b")
        assert out.dropped
        clock.advance(0.6)  # now 2.1, window closed
        assert not link.send(b"c").dropped

    @pytest.mark.parametrize(
        "kwargs, deliver_at",
        [
            ({"latency": 0.1}, 0.1),  # sent at once
            ({"bandwidth": 1_000.0}, 0.2),  # serialized behind the first send
            ({"loss": 1.0}, None),
        ],
    )
    def test_send_returns_its_trace_entry(self, kwargs, deliver_at):
        clock = SimClock()
        link = make_link(clock, **kwargs)
        link.send(b"x" * 100)
        out = link.send(b"y" * 100)
        assert out.deliver_at == deliver_at
        assert out.dropped == (deliver_at is None)
        assert out is replay_trace(link)[-1]

    def test_delivery_callback_fires_on_clock(self):
        clock = SimClock()
        got = []
        link = make_link(clock, latency=0.25)
        link.on_deliver = lambda payload, at: got.append((payload, at))
        link.send(b"hello")
        clock.advance(0.2)
        assert got == []
        clock.advance(0.1)
        assert got == [(b"hello", 0.25)]


class TestDeterminism:
    def run_once(self, seed=7):
        clock = SimClock()
        link = make_link(clock, latency=0.05, loss=0.3, bandwidth=50_000.0, seed=seed)
        for i in range(200):
            link.send(bytes(i % 97 + 1))
            clock.advance(0.01)
        return replay_trace(link)

    def test_same_seed_identical_traces(self):
        assert self.run_once() == self.run_once()

    def test_different_seed_differs(self):
        assert self.run_once(seed=7) != self.run_once(seed=8)

    def test_trace_length_equals_sends(self):
        trace = self.run_once()
        assert len(trace) == 200

    def test_empty_run_empty_trace(self):
        clock = SimClock()
        link = make_link(clock)
        assert replay_trace(link) == []


def test_loss_rate_converges():
    clock = SimClock()
    link = make_link(clock, loss=0.25, seed=12345)
    n = 20_000
    dropped = sum(1 for _ in range(n) if link.send(b"x").dropped)
    assert abs(dropped / n - 0.25) < 0.02


def test_fifo_no_reordering():
    clock = SimClock()
    delivered = []
    link = make_link(clock, latency=0.05, bandwidth=10_000.0, seed=3)
    link.on_deliver = lambda payload, at: delivered.append(payload)
    for i in range(50):
        link.send(bytes([i]) * 100)
    clock.advance(10.0)
    assert delivered == sorted(delivered, key=lambda p: p[0])


def test_a_latency_drop_lets_a_later_send_overtake():
    # latency is read at send time, so a send after a drop lands first
    clock = SimClock()
    delivered = []
    link = make_link(clock, latency=[(0.0, 0.5), (1.0, 0.0)])
    link.on_deliver = lambda payload, at: delivered.append((payload, at))
    clock.advance(0.99)
    early = link.send(b"early")
    clock.advance(0.01)
    late = link.send(b"late")
    assert early.deliver_at == pytest.approx(1.49)
    assert late.deliver_at == pytest.approx(1.0)
    clock.advance(1.0)
    assert [payload for payload, _ in delivered] == [b"late", b"early"]


def test_link_pair_seeds_differ():
    clock = SimClock()
    cond = NetworkConditions(PiecewiseConstant(0.0), PiecewiseConstant(0.5))
    fwd, rev = link_pair(clock, cond, seed=42)
    fwd_out = [fwd.send(b"x").dropped for _ in range(50)]
    rev_out = [rev.send(b"x").dropped for _ in range(50)]
    assert fwd_out != rev_out


def test_conditions_validation():
    with pytest.raises(ValueError):
        NetworkConditions(PiecewiseConstant(-0.1), PiecewiseConstant(0.0))
    with pytest.raises(ValueError):
        NetworkConditions(PiecewiseConstant(0.0), PiecewiseConstant(1.5))
    with pytest.raises(ValueError):
        NetworkConditions(
            PiecewiseConstant(0.0), PiecewiseConstant(0.0), disconnects=((5.0, 4.0),)
        )
    with pytest.raises(ValueError):
        NetworkConditions(
            PiecewiseConstant(0.0), PiecewiseConstant(0.0), disconnects=((0.0, 5.0), (4.0, 6.0))
        )


@pytest.mark.parametrize("cap", [0.0, -1.0, float("nan"), float("-inf")])
def test_conditions_reject_a_bandwidth_cap_that_is_not_positive(cap):
    with pytest.raises(ValueError, match="bandwidth_cap"):
        NetworkConditions(PiecewiseConstant(0.0), PiecewiseConstant(0.0), bandwidth_cap=cap)


@pytest.mark.parametrize("latency", [-0.1, float("nan"), [(0.0, 0.1), (1.0, float("nan"))]])
def test_conditions_reject_a_latency_that_is_not_at_least_zero(latency):
    with pytest.raises(ValueError, match="latency"):
        NetworkConditions(PiecewiseConstant(latency), PiecewiseConstant(0.0))


@pytest.mark.parametrize("at", [0.5, float("nan"), float("-inf")])
def test_clock_refuses_an_event_that_is_not_at_or_after_now(at):
    # a NaN at the top of the heap would stop every later event from firing
    clock = SimClock()
    clock.advance(1.0)
    with pytest.raises(ValueError, match="cannot schedule"):
        clock.schedule(at, lambda: None)
    fired = []
    clock.schedule(1.2, lambda: fired.append(1.2))
    clock.schedule(1.5, lambda: fired.append(1.5))
    clock.advance(1.0)
    assert fired == [1.2, 1.5]


@pytest.mark.parametrize("duration, tick, ticks", [(0.3, 0.1, 3), (8.0, 0.02, 400), (0.06, 0.02, 3), (0.0, 0.01, 0)])
def test_whole_ticks_counts_a_duration_on_the_tick_grid(duration, tick, ticks):
    # 0.3 / 0.1 is 2.9999999999999996 in floats: on the grid to a relative 1e-9
    assert whole_ticks(duration, tick, "tick") == ticks


@pytest.mark.parametrize("duration, tick", [(0.05, 0.02), (0.01, 0.02), (0.015, 0.01), (0.3 + 1e-6, 0.1)])
def test_whole_ticks_refuses_a_duration_between_ticks(duration, tick):
    with pytest.raises(ValueError, match=rf"duration {duration} is not a whole number of bridge\.TICK"):
        whole_ticks(duration, tick, "bridge.TICK")
