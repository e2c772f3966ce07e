"""Tests for the ML workload layer: models, quantiser, stragglers,
allreduce models, training loop, and accuracy curves."""

import pytest

from repro.collectives import get_backend
from repro.ml import (
    AccuracyCurve,
    DataParallelTrainer,
    GradientQuantizer,
    MODEL_ZOO,
    SlowWorkerPattern,
    TrainingConfig,
    ring_allreduce_time,
)
from repro.ml.allreduce import SWITCHML_GOODPUT_BPS, TRIOML_GOODPUT_BPS
from repro.ml.stragglers import DELAY_POINTS, SLOWDOWN_MAX, SLOWDOWN_MIN


class TestModels:
    def test_table1_values(self):
        assert MODEL_ZOO["resnet50"].size_mb == 98
        assert MODEL_ZOO["resnet50"].batch_size == 64
        assert MODEL_ZOO["vgg11"].size_mb == 507
        assert MODEL_ZOO["vgg11"].batch_size == 128
        assert MODEL_ZOO["densenet161"].size_mb == 109
        assert MODEL_ZOO["densenet161"].batch_size == 64
        assert all(m.dataset == "ImageNet" for m in MODEL_ZOO.values())

    def test_derived_sizes(self):
        model = MODEL_ZOO["resnet50"]
        assert model.size_bytes == 98 * 1024 * 1024
        assert model.num_gradients == model.size_bytes // 4


class TestQuantizer:
    def test_roundtrip_precision(self):
        quantizer = GradientQuantizer(scale=1e6, num_workers=6)
        gradients = [0.5, -0.25, 1e-4, 0.0, -3e-5]
        restored = quantizer.dequantize(quantizer.quantize(gradients))
        for original, back in zip(gradients, restored):
            assert back == pytest.approx(original, abs=1e-6)

    def test_roundtrip_error_bounded_by_half_tick(self):
        quantizer = GradientQuantizer(scale=1e6, num_workers=6)
        gradients = [(-1) ** i * i * 1e-5 for i in range(100)]
        restored = quantizer.dequantize(quantizer.quantize(gradients))
        assert max(abs(original - back) for original, back
                   in zip(gradients, restored)) <= 0.5 / quantizer.scale

    def test_overflow_safe_clipping(self):
        quantizer = GradientQuantizer(scale=1e6, num_workers=6)
        ticks = quantizer.quantize([1e12, -1e12])
        total = sum(ticks) * 6
        assert abs(ticks[0] * 6) <= 2**31 - 1
        assert ticks[1] == -ticks[0]

    def test_dequantize_mean_uses_contributors(self):
        quantizer = GradientQuantizer(scale=1000, num_workers=4)
        # Aggregated ticks from 3 of 4 workers, each contributing 2.0.
        aggregated = [6000]
        assert quantizer.dequantize_mean(aggregated, 3) == [2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientQuantizer(scale=0)
        with pytest.raises(ValueError):
            GradientQuantizer(num_workers=0)
        with pytest.raises(ValueError):
            GradientQuantizer().dequantize_mean([1], contributors=0)


class TestSlowWorkerPattern:
    def test_p_zero_never_straggles(self):
        pattern = SlowWorkerPattern(0.0, 6, 0.1, seed=1)
        for __ in range(100):
            assert pattern.sample_iteration() == {}

    def test_p_one_straggles_every_point(self):
        pattern = SlowWorkerPattern(1.0, 6, 0.1, seed=1)
        delays = pattern.sample_iteration()
        assert len(pattern.events) == DELAY_POINTS
        assert sum(delays.values()) > 0

    def test_delay_bounds(self):
        typical = 0.2
        pattern = SlowWorkerPattern(1.0, 6, typical, seed=7)
        for __ in range(50):
            pattern.sample_iteration()
        for event in pattern.events:
            assert SLOWDOWN_MIN * typical <= event.duration_s
            assert event.duration_s <= SLOWDOWN_MAX * typical

    def test_deterministic_under_seed(self):
        a = SlowWorkerPattern(0.3, 6, 0.1, seed=42)
        b = SlowWorkerPattern(0.3, 6, 0.1, seed=42)
        for __ in range(20):
            assert a.sample_iteration() == b.sample_iteration()

    def test_empirical_mean_close_to_analytic(self):
        pattern = SlowWorkerPattern(0.16, 6, 0.1, seed=3)
        total = 0.0
        n = 3000
        for __ in range(n):
            total += sum(pattern.sample_iteration().values())
        # Each delay point straggles with probability p for a mean of
        # (SLOWDOWN_MIN + SLOWDOWN_MAX) / 2 typical iterations.
        analytic = (DELAY_POINTS * 0.16 * (SLOWDOWN_MIN + SLOWDOWN_MAX) / 2
                    * 0.1)
        assert analytic == pytest.approx(3 * 0.16 * 1.25 * 0.1)
        assert total / n == pytest.approx(analytic, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowWorkerPattern(-0.1, 6, 0.1)
        with pytest.raises(ValueError):
            SlowWorkerPattern(0.1, 0, 0.1)
        with pytest.raises(ValueError):
            SlowWorkerPattern(0.1, 6, 0)


class TestAllreduceModels:
    def test_ring_formula(self):
        size = 100 * 1024 * 1024
        t = ring_allreduce_time(size, 6, bandwidth_bps=100e9, efficiency=1.0)
        assert t == pytest.approx(2 * (5 / 6) * size * 8 / 100e9)

    def test_ring_single_worker_free(self):
        assert ring_allreduce_time(1000, 1) == 0.0

    def test_in_network_faster_than_switchml(self):
        size = MODEL_ZOO["resnet50"].size_bytes
        assert (get_backend("trioml").allreduce_time_s(size, 6)
                < get_backend("switchml").allreduce_time_s(size, 6))

    def test_ideal_uses_ring(self):
        size = MODEL_ZOO["vgg11"].size_bytes
        ideal = get_backend("ideal").allreduce_time_s(size, 6)
        assert ideal == pytest.approx(ring_allreduce_time(size, 6))

    def test_goodput_ordering(self):
        assert TRIOML_GOODPUT_BPS > SWITCHML_GOODPUT_BPS


class TestTrainer:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(model=MODEL_ZOO["resnet50"], system="magic")

    def test_needs_two_workers(self):
        with pytest.raises(ValueError):
            TrainingConfig(model=MODEL_ZOO["resnet50"], system="ideal",
                           num_workers=1)

    def test_no_stragglers_all_systems_flat(self):
        for system in ("ideal", "switchml", "trioml"):
            config = TrainingConfig(model=MODEL_ZOO["resnet50"],
                                    system=system, straggle_probability=0.0)
            trainer = DataParallelTrainer(config)
            records = trainer.run(10)
            assert all(
                r.duration_s == pytest.approx(config.typical_iteration_s)
                for r in records
            )

    def test_ideal_ignores_straggle_probability(self):
        config = TrainingConfig(model=MODEL_ZOO["resnet50"], system="ideal",
                                straggle_probability=0.9)
        trainer = DataParallelTrainer(config)
        base = config.typical_iteration_s
        assert trainer.average_iteration_s(50) == pytest.approx(base)

    def test_switchml_absorbs_full_delay(self):
        config = TrainingConfig(model=MODEL_ZOO["resnet50"],
                                system="switchml",
                                straggle_probability=1.0, seed=5)
        trainer = DataParallelTrainer(config)
        records = trainer.run(20)
        for record in records:
            expected = (config.model.compute_time_s + record.max_delay_s
                        + config.allreduce_time_s)
            assert record.duration_s == pytest.approx(expected)

    def test_trioml_caps_delay_at_mitigation_bound(self):
        config = TrainingConfig(model=MODEL_ZOO["resnet50"], system="trioml",
                                straggle_probability=1.0, seed=5,
                                timeout_s=0.010)
        trainer = DataParallelTrainer(config)
        records = trainer.run(20)
        bound = trainer.mitigation_bound_s
        for record in records:
            assert record.mitigated
            overhead = record.duration_s - config.typical_iteration_s
            assert overhead <= bound + 1e-12

    def test_trioml_beats_switchml_under_stragglers(self):
        results = {}
        for system in ("switchml", "trioml"):
            config = TrainingConfig(model=MODEL_ZOO["densenet161"],
                                    system=system,
                                    straggle_probability=0.16, seed=11)
            results[system] = DataParallelTrainer(config).average_iteration_s(100)
        assert results["switchml"] / results["trioml"] > 1.3

    def test_speedup_grows_with_probability(self):
        speedups = []
        for p in (0.04, 0.16):
            averages = {}
            for system in ("switchml", "trioml"):
                config = TrainingConfig(model=MODEL_ZOO["resnet50"],
                                        system=system,
                                        straggle_probability=p, seed=2)
                averages[system] = (
                    DataParallelTrainer(config).average_iteration_s(200)
                )
            speedups.append(averages["switchml"] / averages["trioml"])
        assert speedups[1] > speedups[0]

    def test_p0_ordering_matches_fig13(self):
        # Ideal < Trio-ML < SwitchML at p=0 for every model.
        for model in MODEL_ZOO.values():
            times = {
                system: TrainingConfig(model=model, system=system
                                       ).typical_iteration_s
                for system in ("ideal", "trioml", "switchml")
            }
            assert times["ideal"] < times["trioml"] < times["switchml"]


class TestAccuracyCurve:
    def test_monotone_increasing(self):
        curve = AccuracyCurve(MODEL_ZOO["resnet50"])
        values = [curve.accuracy_at(i) for i in range(0, 200_000, 10_000)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_crosses_target_at_calibrated_iterations(self):
        model = MODEL_ZOO["resnet50"]
        curve = AccuracyCurve(model)
        assert curve.accuracy_at(model.target_iterations) == pytest.approx(
            model.target_accuracy
        )
        assert curve.iterations_to(model.target_accuracy) == pytest.approx(
            model.target_iterations
        )

    def test_time_to_accuracy_scales_with_iteration_time(self):
        model = MODEL_ZOO["vgg11"]
        curve = AccuracyCurve(model)
        t1 = curve.time_to_accuracy_s(model.target_accuracy, 0.5)
        t2 = curve.time_to_accuracy_s(model.target_accuracy, 1.0)
        assert t2 == pytest.approx(2 * t1)

    def test_curve_series_ends_at_target(self):
        model = MODEL_ZOO["densenet161"]
        curve = AccuracyCurve(model)
        series = curve.curve(0.25, model.target_accuracy, points=10)
        assert len(series) == 11
        assert series[0][1] == pytest.approx(model.initial_accuracy)
        assert series[-1][1] == pytest.approx(model.target_accuracy)

    def test_out_of_range_rejected(self):
        curve = AccuracyCurve(MODEL_ZOO["resnet50"])
        with pytest.raises(ValueError):
            curve.iterations_to(99.9)  # above max
        with pytest.raises(ValueError):
            curve.accuracy_at(-1)
        with pytest.raises(ValueError):
            curve.time_to_accuracy_s(90.0, 0.0)
