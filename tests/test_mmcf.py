"""Cost-function normalization, weighting, and optimization."""

import itertools
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbridge import mmcf as mmcf_module
from twinbridge.bridge import EndpointConfig
from twinbridge.mmcf import (
    ClampCounter,
    EmptySpace,
    InvalidWeights,
    MeasuredMetrics,
    MetricBounds,
    MmcfWeights,
    calibrate_bounds,
    measure_config,
    normalize,
    optimize,
    reusing_evaluator,
)
from twinbridge.runner import run_mmcf_section
from twinbridge.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BOUNDS = MetricBounds(
    latency_min=0.01, latency_max=0.5,
    loss_min=0.0, loss_max=0.3,
    compute_max=1.0, bandwidth_max=100_000.0,
)


class TestNormalize:
    def test_lower_bound_maps_to_zero(self):
        m = MeasuredMetrics(latency=0.01, loss=0.0, compute=0.0, bandwidth=0.0)
        assert normalize(m, BOUNDS) == (0.0, 0.0, 0.0, 0.0)

    def test_upper_bound_maps_to_one(self):
        m = MeasuredMetrics(latency=0.5, loss=0.3, compute=1.0, bandwidth=100_000.0)
        assert normalize(m, BOUNDS) == (1.0, 1.0, 1.0, 1.0)

    def test_half_compute(self):
        m = MeasuredMetrics(latency=0.01, loss=0.0, compute=0.5, bandwidth=0.0)
        assert normalize(m, BOUNDS)[2] == pytest.approx(0.5)

    def test_out_of_bounds_clamps_and_counts(self):
        counter = ClampCounter()
        m = MeasuredMetrics(latency=2.0, loss=0.9, compute=5.0, bandwidth=1.0)
        values = normalize(m, BOUNDS, counter)
        assert values == (1.0, 1.0, 1.0, pytest.approx(1e-5))
        assert counter.clamps == 3


class TestMmcf:
    def test_equal_metrics_give_the_common_value(self):
        m = MeasuredMetrics(latency=0.255, loss=0.15, compute=0.5, bandwidth=50_000.0)
        weights = MmcfWeights(0.37, 0.23, 0.25, 0.15)
        assert weights.weigh(normalize(m, BOUNDS)) == pytest.approx(0.5)

    def test_degenerate_weight_selects_one_metric(self):
        m = MeasuredMetrics(latency=0.255, loss=0.0, compute=0.0, bandwidth=0.0)
        assert MmcfWeights(1.0, 0.0, 0.0, 0.0).weigh(normalize(m, BOUNDS)) == pytest.approx(0.5)

    def test_hand_arithmetic(self):
        # normalized metrics (0.2, 0.5, 0.1, 0.8) under weights (.4, .3, .2, .1)
        m = MeasuredMetrics(
            latency=0.01 + 0.2 * 0.49,
            loss=0.5 * 0.3,
            compute=0.1,
            bandwidth=80_000.0,
        )
        weights = MmcfWeights(0.4, 0.3, 0.2, 0.1)
        assert weights.weigh(normalize(m, BOUNDS)) == pytest.approx(0.33)

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            MmcfWeights(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(InvalidWeights):
            MmcfWeights(-0.2, 0.6, 0.3, 0.3)

    @given(
        l1=st.floats(0.01, 0.5), l2=st.floats(0.01, 0.5),
        a=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_latency(self, l1, l2, a):
        rest = (1.0 - a) / 3
        weights = MmcfWeights(a, rest, rest, rest)
        lo, hi = sorted((l1, l2))
        m_lo = MeasuredMetrics(latency=lo, loss=0.1, compute=0.2, bandwidth=1000.0)
        m_hi = MeasuredMetrics(latency=hi, loss=0.1, compute=0.2, bandwidth=1000.0)
        assert weights.weigh(normalize(m_lo, BOUNDS)) <= weights.weigh(normalize(m_hi, BOUNDS)) + 1e-12

    def test_linear_in_weights(self):
        m = MeasuredMetrics(latency=0.2, loss=0.1, compute=0.3, bandwidth=20_000.0)
        w1 = MmcfWeights(0.7, 0.1, 0.1, 0.1)
        w2 = MmcfWeights(0.1, 0.3, 0.3, 0.3)
        mid = MmcfWeights(0.4, 0.2, 0.2, 0.2)
        n = normalize(m, BOUNDS)
        assert mid.weigh(n) == pytest.approx(0.5 * w1.weigh(n) + 0.5 * w2.weigh(n))


class TestEndpointConfigAsCandidate:
    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(redundancy=4)
        with pytest.raises(ValueError):
            EndpointConfig(replay_capacity=0)
        with pytest.raises(ValueError):
            EndpointConfig(batch_size=0)

    def test_configs_order_lexicographically_in_field_order(self):
        assert [f.name for f in fields(EndpointConfig)][:3] == ["redundancy", "replay_capacity", "batch_size"]
        a = EndpointConfig(redundancy=0, replay_capacity=512, batch_size=8)
        b = EndpointConfig(redundancy=1, replay_capacity=64, batch_size=8)
        c = EndpointConfig(redundancy=1, replay_capacity=256, batch_size=1)
        d = EndpointConfig(redundancy=1, replay_capacity=256, batch_size=2)
        assert a < b < c < d
        assert sorted([d, c, b, a]) == [a, b, c, d]


def synthetic_space():
    return [
        EndpointConfig(redundancy=r, replay_capacity=c, batch_size=b)
        for r, c, b in itertools.product((0, 1, 2), (64, 256), (1, 2, 4, 8))
    ]


def synthetic_evaluator(cfg: EndpointConfig, scenario) -> MeasuredMetrics:
    # deterministic synthetic landscape with a unique optimum
    latency = 0.05 + 0.02 * cfg.batch_size + 0.01 * cfg.redundancy
    loss = max(0.0, 0.2 - 0.08 * cfg.redundancy) + (0.01 if cfg.replay_capacity < 100 else 0.0)
    compute = 0.1 + 0.05 * cfg.redundancy + 0.2 / cfg.batch_size
    bandwidth = 10_000.0 * (1 + cfg.redundancy)
    return MeasuredMetrics(latency, loss, compute, bandwidth)


class TestOptimize:
    weights = MmcfWeights(0.4, 0.3, 0.2, 0.1)

    def test_single_config(self):
        only = EndpointConfig()
        result = optimize([only], None, BOUNDS, self.weights, evaluator=synthetic_evaluator)
        assert result.best == only

    def test_dominating_config_wins_under_any_weights(self):
        good = EndpointConfig(redundancy=0, batch_size=8)
        bad = EndpointConfig(redundancy=2, batch_size=1)

        def evaluator(cfg, scenario):
            if cfg == good:
                return MeasuredMetrics(0.05, 0.0, 0.1, 1000.0)
            return MeasuredMetrics(0.4, 0.25, 0.9, 90_000.0)

        for weights in (self.weights, MmcfWeights(1, 0, 0, 0), MmcfWeights(0.1, 0.2, 0.3, 0.4)):
            result = optimize([bad, good], None, BOUNDS, weights, evaluator=evaluator)
            assert result.best == good

    def test_matches_brute_force_on_24_config_space(self):
        space = synthetic_space()
        result = optimize(space, None, BOUNDS, self.weights, evaluator=synthetic_evaluator)
        brute = min(
            space,
            key=lambda c: (self.weights.weigh(normalize(synthetic_evaluator(c, None), BOUNDS)), c),
        )
        assert result.best == brute
        assert [row[0] for row in result.table] == sorted(set(space))

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            optimize([], None, BOUNDS, self.weights, evaluator=synthetic_evaluator)

    def test_tie_breaks_lexicographically(self):
        def constant(cfg, scenario):
            return MeasuredMetrics(0.1, 0.1, 0.1, 1000.0)

        space = synthetic_space()
        result = optimize(space, None, BOUNDS, self.weights, evaluator=constant)
        assert result.best == min(space)

    def test_a_space_over_ten_thousand_configs_is_searched_exhaustively(self):
        space = [
            EndpointConfig(redundancy=r, replay_capacity=c, batch_size=b)
            for r in (0, 1, 2, 3)
            for c in range(1, 322)
            for b in (1, 2, 4, 8, 16, 32, 64, 128)
        ]
        assert len(space) == 10_272
        evaluated = []

        def recording(cfg, scenario):
            evaluated.append(cfg)
            return synthetic_evaluator(cfg, scenario)

        result = optimize(space, None, BOUNDS, self.weights, evaluator=recording)
        assert evaluated == sorted(space)
        brute = min(
            space,
            key=lambda c: (self.weights.weigh(normalize(synthetic_evaluator(c, None), BOUNDS)), c),
        )
        assert result.best == brute
        # each config's clamps count once
        expected = ClampCounter()
        for cfg in space:
            normalize(synthetic_evaluator(cfg, None), BOUNDS, expected)
        assert result.clamps == expected.clamps > 0

    def test_the_winners_clamps_count_once(self):
        fast = EndpointConfig(batch_size=1)
        slow = EndpointConfig(batch_size=2)

        def evaluator(cfg, scenario):
            # fast's latency is below latency_min: its one clamp is the only one
            latency = 0.005 if cfg == fast else 0.2
            return MeasuredMetrics(latency, 0.1, 0.5, 50_000.0)

        result = optimize([slow, fast], None, BOUNDS, self.weights, evaluator=evaluator)
        assert result.best == fast
        assert result.clamps == 1


class TestInvariants:
    weights = MmcfWeights(0.4, 0.3, 0.2, 0.1)

    def test_argmin_invariant_under_order_preserving_shift(self):
        space = synthetic_space()
        shift = 0.07

        def shifted(cfg, scenario):
            m = synthetic_evaluator(cfg, scenario)
            return MeasuredMetrics(
                m.latency + shift, m.loss + shift, m.compute + shift, m.bandwidth + shift
            )

        wide = MetricBounds(
            latency_min=BOUNDS.latency_min + shift,
            latency_max=BOUNDS.latency_max + shift,
            loss_min=BOUNDS.loss_min + shift,
            loss_max=BOUNDS.loss_max + shift,
            compute_max=BOUNDS.compute_max,
            bandwidth_max=BOUNDS.bandwidth_max,
        )
        base = optimize(space, None, BOUNDS, self.weights, evaluator=synthetic_evaluator)
        # latency/loss shift widened with the bounds preserves normalized order
        # exactly; compute/bandwidth shifts are relatively tiny here
        moved = optimize(space, None, wide, self.weights, evaluator=shifted)
        assert moved.best.redundancy == base.best.redundancy
        assert moved.best.batch_size == base.best.batch_size

    def test_weight_simplex_preference_is_half_space(self):
        import random as _random

        rng = _random.Random(14)
        m_a = MeasuredMetrics(0.2, 0.05, 0.3, 40_000.0)
        m_b = MeasuredMetrics(0.1, 0.2, 0.5, 20_000.0)
        n_a = normalize(m_a, BOUNDS)
        n_b = normalize(m_b, BOUNDS)
        for _ in range(200):
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            w = MmcfWeights(*(x / total for x in raw))
            vec = (w.alpha, w.beta, w.gamma, w.delta)
            linear = sum(wi * (a - b) for wi, a, b in zip(vec, n_a, n_b))
            prefers_a = w.weigh(normalize(m_a, BOUNDS)) < w.weigh(normalize(m_b, BOUNDS))
            assert prefers_a == (linear < 0)


class TestCalibrateBounds:
    def test_bounds_cover_probes(self):
        space = synthetic_space()
        bounds = calibrate_bounds(space[:6], None, evaluator=synthetic_evaluator)
        for cfg in space[:6]:
            l, p, c, b = normalize(synthetic_evaluator(cfg, None), bounds)
            assert 0.0 <= l <= 1.0 and 0.0 <= p <= 1.0

    def test_degenerate_spread_widened(self):
        def constant(cfg, scenario):
            return MeasuredMetrics(0.1, 0.0, 0.1, 1000.0)

        bounds = calibrate_bounds(synthetic_space()[:3], None, evaluator=constant)
        assert bounds.latency_max > bounds.latency_min
        assert bounds.loss_max > bounds.loss_min

    def test_empty_probes(self):
        with pytest.raises(EmptySpace):
            calibrate_bounds([], None, evaluator=synthetic_evaluator)


@pytest.fixture
def simulations(monkeypatch):
    """The (scenario, result) of each run `mmcf` simulates, in order."""
    run = mmcf_module.run_traffic
    seen = []

    def counted(scenario):
        seen.append((scenario, run(scenario)))
        return seen[-1][1]

    monkeypatch.setattr(mmcf_module, "run_traffic", counted)
    return seen


class TestReusingEvaluator:
    def test_every_config_of_mmcf_default_reads_as_a_fresh_run(self):
        scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
        spec, base = scenario.mmcf, scenario.bridge_scenario()
        space = spec.space
        evaluate = reusing_evaluator()
        assert [evaluate(cfg, base) for cfg in space] == [measure_config(cfg, base) for cfg in space]

        def search(*evaluator):
            bounds = calibrate_bounds(spec.probe_configs(), base, *evaluator)
            return optimize(space, base, bounds, spec.weights, *evaluator)

        fresh, reused = search(), search(reusing_evaluator())
        assert (reused.best, reused.cost, reused.clamps) == (fresh.best, fresh.cost, fresh.clamps)
        assert reused.table == fresh.table

    def test_limits_that_bind_are_simulated_apart(self, simulations):
        base = load_scenario(SCENARIOS / "bridge_loss.yaml").bridge_scenario()
        base = replace(base, duration=6.0, drain=2.0)
        space = [
            replace(base.endpoint, replay_capacity=cap, batch_size=batch)
            for cap, batch in itertools.product((8, 512), (1, 4))
        ]
        evaluate = reusing_evaluator()
        reused = [evaluate(cfg, base) for cfg in space]
        assert len(simulations) == len(space)
        for cfg, (_, result) in zip(space, simulations):
            assert (result.replay_evictions > 0) == (cfg.replay_capacity == 8)
            assert (result.batch_need > cfg.batch_size) == (cfg.batch_size == 1)
        assert reused == [measure_config(cfg, base) for cfg in space]

    def test_the_mmcf_default_search_runs_ten_simulations_for_24_configs(self, simulations):
        scenario = load_scenario(SCENARIOS / "mmcf_default.yaml")
        rows, info = run_mmcf_section(scenario, scenario.seed)
        assert (len(rows), info["mmcf_evaluated_fraction"]) == (24, 1.0)
        assert len(simulations) == 10


def test_the_engine_and_optimizer_import_without_numpy_yaml_or_click():
    # -I -S keeps site-packages off the path, so importing any of them would fail outright
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import twinbridge.engine, twinbridge.mmcf\n"
        "print(sorted({'numpy', 'yaml', 'click'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, src], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
