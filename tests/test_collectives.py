"""Tests for the pluggable collective-backend layer.

Covers the registry (lookup, errors, case-insensitivity), the built-in
backends' straggler semantics, the new ``ring-straggler`` extension
backend, the packet-level calibration bridge, the registry-wide harness
sweep — and golden regression tests pinning the Figure 12/13 and
ablation outputs *bit-identical* to their pre-refactor values under the
default seeds (the refactor's acceptance bar).
"""

import pytest

from repro.collectives import (
    CollectiveBackend,
    IdealRingBackend,
    RingStragglerBackend,
    SwitchMLBackend,
    TrioMLBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.collectives import calibrate as cal
from repro.ml import (
    MODEL_ZOO,
    DataParallelTrainer,
    TrainingConfig,
    ring_allreduce_time,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert len(names) >= 4
        for expected in ("ideal", "ring-straggler", "switchml", "trioml"):
            assert expected in names

    def test_lookup_case_insensitive(self):
        assert get_backend("TrioML") is get_backend("trioml")
        assert get_backend("  IDEAL  ").name == "ideal"

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("magic")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_unknown_backend_error_is_value_error(self):
        # Pre-refactor callers caught ValueError from TrainingConfig.
        assert issubclass(UnknownBackendError, ValueError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(TrioMLBackend())

    def test_replace_and_unregister(self):
        original = get_backend("trioml")
        replacement = TrioMLBackend(goodput_bps=30e9)
        try:
            register_backend(replacement, replace=True)
            assert get_backend("trioml") is replacement
        finally:
            register_backend(original, replace=True)
        assert get_backend("trioml") is original

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownBackendError):
            unregister_backend("magic")

    def test_empty_name_rejected(self):
        class Nameless(TrioMLBackend):
            name = "   "

        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(Nameless())

    def test_custom_backend_plugs_into_training(self):
        """The extensibility contract: register -> train, no other code."""

        class FreeLunchBackend(CollectiveBackend):
            name = "free-lunch"
            display_name = "Free lunch"
            injects_stragglers = False

            def allreduce_time_s(self, model_bytes, num_workers):
                return 0.0

            def iteration_duration(self, compute_s, comm_s, delays,
                                   mitigation_bound_s=0.0):
                return compute_s + comm_s, False

        register_backend(FreeLunchBackend())
        try:
            config = TrainingConfig(model=MODEL_ZOO["resnet50"],
                                    system="free-lunch")
            average = DataParallelTrainer(config).average_iteration_s(10)
            assert average == pytest.approx(
                MODEL_ZOO["resnet50"].compute_time_s
            )
        finally:
            unregister_backend("free-lunch")


class TestBackendSemantics:
    MODEL = MODEL_ZOO["resnet50"]

    def test_metadata_complete(self):
        for name in available_backends():
            backend = get_backend(name)
            assert backend.name == name
            assert backend.display_name
            assert backend.description

    def test_ideal_never_injects(self):
        assert get_backend("ideal").injects_stragglers is False
        duration, mitigated = get_backend("ideal").iteration_duration(
            0.1, 0.02, {0: 1.0}, mitigation_bound_s=0.015
        )
        assert duration == pytest.approx(0.12)
        assert not mitigated

    def test_switchml_absorbs_full_delay(self):
        duration, mitigated = get_backend("switchml").iteration_duration(
            0.1, 0.02, {2: 0.5, 4: 0.3}, mitigation_bound_s=0.015
        )
        assert duration == pytest.approx(0.1 + 0.5 + 0.02)
        assert not mitigated

    def test_trioml_caps_delay_at_bound(self):
        duration, mitigated = get_backend("trioml").iteration_duration(
            0.1, 0.02, {2: 0.5}, mitigation_bound_s=0.015
        )
        assert duration == pytest.approx(0.1 + 0.02 + 0.015)
        assert mitigated

    def test_trioml_short_delay_below_bound(self):
        duration, mitigated = get_backend("trioml").iteration_duration(
            0.1, 0.02, {2: 0.004}, mitigation_bound_s=0.015
        )
        assert duration == pytest.approx(0.124)
        assert mitigated

    def test_typical_iteration_is_compute_plus_allreduce(self):
        for name in available_backends():
            backend = get_backend(name)
            assert backend.typical_iteration_s(self.MODEL, 6) == (
                pytest.approx(
                    self.MODEL.compute_time_s
                    + backend.allreduce_time_s(self.MODEL.size_bytes, 6)
                )
            )


class TestRingStragglerBackend:
    MODEL = MODEL_ZOO["resnet50"]

    def test_comm_time_matches_ring(self):
        backend = get_backend("ring-straggler")
        assert backend.allreduce_time_s(self.MODEL.size_bytes, 6) == (
            pytest.approx(ring_allreduce_time(self.MODEL.size_bytes, 6))
        )

    def test_absorbs_full_delay(self):
        duration, mitigated = get_backend(
            "ring-straggler"
        ).iteration_duration(0.1, 0.02, {1: 0.4}, mitigation_bound_s=0.015)
        assert duration == pytest.approx(0.1 + 0.4 + 0.02)
        assert not mitigated

    def test_trainer_run_absorbs_straggles(self):
        config = TrainingConfig(model=self.MODEL, system="ring-straggler",
                                straggle_probability=1.0, seed=5)
        trainer = DataParallelTrainer(config)
        for record in trainer.run(20):
            expected = (config.model.compute_time_s + record.max_delay_s
                        + config.allreduce_time_s)
            assert record.duration_s == pytest.approx(expected)

    def test_sits_between_ideal_and_switchml(self):
        """Same straggler semantics as SwitchML at ring wire cost: the
        new series isolates semantics from communication time."""
        averages = {}
        for system in ("ideal", "ring-straggler", "switchml", "trioml"):
            config = TrainingConfig(model=self.MODEL, system=system,
                                    straggle_probability=0.16, seed=0)
            averages[system] = (
                DataParallelTrainer(config).average_iteration_s(100)
            )
        assert averages["ideal"] < averages["ring-straggler"]
        assert averages["ring-straggler"] < averages["switchml"]
        assert averages["trioml"] < averages["ring-straggler"]


class TestTrainingConfigRegistryIntegration:
    def test_case_insensitive_and_normalised(self):
        config = TrainingConfig(model=MODEL_ZOO["resnet50"],
                                system="TrioML")
        assert config.system == "trioml"
        assert config.backend is get_backend("trioml")

    def test_unknown_system_message_is_dynamic(self):
        with pytest.raises(ValueError) as excinfo:
            TrainingConfig(model=MODEL_ZOO["resnet50"], system="magic")
        assert "ring-straggler" in str(excinfo.value)

    def test_trainer_has_no_throwaway_config(self):
        """The straggle reference comes straight from the ideal backend."""
        config = TrainingConfig(model=MODEL_ZOO["resnet50"],
                                system="switchml", num_workers=8)
        trainer = DataParallelTrainer(config)
        assert trainer._typical_s == pytest.approx(
            get_backend("ideal").typical_iteration_s(config.model, 8)
        )
        assert trainer.backend is get_backend("switchml")


# ---------------------------------------------------------------------------
# Golden regression: outputs bit-identical to the pre-refactor tree
# ---------------------------------------------------------------------------

#: (probability, ideal_ms, trioml_ms, switchml_ms) per model, captured
#: from the pre-refactor if/else trainer at the default seeds.  Compared
#: with ``==`` on purpose: the refactor must be float-for-float exact.
FIG13_GOLDEN = {
    "resnet50": [
        (0.0, 97.22377007407404, 100.2685240888889, 114.88334336000014),
        (0.02, 97.22377007407404, 101.16852408888889, 121.10318109305103),
        (0.04, 97.22377007407404, 102.0685240888889, 128.28898296312778),
        (0.06, 97.22377007407404, 102.36852408888889, 132.23258328911726),
        (0.08, 97.22377007407404, 103.26852408888888, 137.17511789901425),
        (0.1, 97.22377007407404, 104.46852408888891, 147.8007114665772),
        (0.12, 97.22377007407404, 105.36852408888892, 154.59191722309475),
        (0.14, 97.22377007407404, 105.36852408888892, 157.95884052600064),
        (0.16, 97.22377007407404, 106.41852408888887, 165.4357118558622),
    ],
    "vgg11": [
        (0.0, 568.7597084444458, 584.5116501333346, 660.1209702400008),
        (0.02, 568.7597084444458, 585.4116501333343, 696.5070627863659),
        (0.04, 568.7597084444458, 586.3116501333342, 738.5440520272738),
        (0.06, 568.7597084444458, 586.611650133334, 761.6141404420956),
        (0.08, 568.7597084444458, 587.5116501333341, 790.5280011323345),
        (0.1, 568.7597084444458, 588.7116501333338, 852.6877949248586),
        (0.12, 568.7597084444458, 589.6116501333336, 892.4163942490804),
        (0.14, 568.7597084444458, 589.6116501333338, 912.112918202601),
        (0.16, 568.7597084444458, 590.6616501333333, 955.8526657397385),
    ],
    "densenet161": [
        (0.0, 241.93256059259238, 245.3190727111112, 261.57433087999954),
        (0.02, 241.93256059259238, 246.21907271111124, 277.0518346641147),
        (0.04, 241.93256059259238, 247.11907271111127, 294.9330528581238),
        (0.06, 241.93256059259238, 247.41907271111128, 304.7463456783212),
        (0.08, 241.93256059259238, 248.31907271111132, 317.0453961376774),
        (0.1, 241.93256059259238, 249.5190727111113, 343.48622493559503),
        (0.12, 241.93256059259238, 250.41907271111137, 360.38552638146217),
        (0.14, 241.93256059259238, 250.41907271111137, 368.7638105744152),
        (0.16, 241.93256059259238, 251.4690727111114, 387.36932879980964),
    ],
}

#: (trioml_minutes, switchml_minutes, speedup) per model, pre-refactor.
FIG12_GOLDEN = {
    "resnet50": (266.0463102222222, 413.5892796396555, 1.5545762664184073),
    "vgg11": (511.90676344888885, 828.4056436411067, 1.6182744647870209),
    "densenet161": (368.8213066429634, 568.1416822397208, 1.540425327948065),
}

#: Ablation goldens at the --fast sizings (label, value, unit).
ABLATION_RMW_GOLDEN = [
    ("rmw-engine offload", 0.652, "us"),
    ("thread-ownership lock", 18.43199999999997, "us"),
]
ABLATION_TAIL_GOLDEN = [
    ("16-byte tail chunks", 102.12783333333344, "us"),
    ("32-byte tail chunks", 64.92783333333333, "us"),
    ("64-byte tail chunks", 46.30783333333332, "us"),
]


class TestGoldenRegression:
    def test_fig13_bit_identical(self):
        from repro.harness import experiments as exp

        results = exp.fig13_iteration_time()
        assert set(results) == set(FIG13_GOLDEN)
        for key, golden in FIG13_GOLDEN.items():
            got = [
                (row.probability, row.ideal_ms, row.trioml_ms,
                 row.switchml_ms)
                for row in results[key]
            ]
            assert got == golden

    def test_fig12_bit_identical(self):
        from repro.harness import experiments as exp

        results = exp.fig12_time_to_accuracy()
        assert set(results) == set(FIG12_GOLDEN)
        for key, (trioml_min, switchml_min, speedup) in (
                FIG12_GOLDEN.items()):
            result = results[key]
            assert result.trioml_minutes == trioml_min
            assert result.switchml_minutes == switchml_min
            assert result.speedup == speedup

    def test_ablation_rmw_bit_identical(self):
        from repro.harness import experiments as exp

        rows = exp.ablation_rmw_offload(num_threads=16,
                                        updates_per_thread=8)
        assert [(r.label, r.value, r.unit) for r in rows] == (
            ABLATION_RMW_GOLDEN
        )

    def test_ablation_tail_chunk_bit_identical(self):
        from repro.harness import experiments as exp

        rows = exp.ablation_tail_chunk(blocks=8)
        assert [(r.label, r.value, r.unit) for r in rows] == (
            ABLATION_TAIL_GOLDEN
        )


# ---------------------------------------------------------------------------
# Calibration bridge
# ---------------------------------------------------------------------------

#: One packet-level calibration per test session (the runs are
#: deterministic, so sharing is safe and saves ~2 s per test).
@pytest.fixture(scope="module")
def calibrations():
    return cal.calibrate()


class TestCalibrationBridge:
    def test_covers_both_in_network_systems(self, calibrations):
        assert set(calibrations) == {"trioml", "switchml"}

    def test_derived_within_band(self, calibrations):
        """The closing of the loop: the hand constants of
        repro.ml.allreduce must agree with the packet-derived goodputs
        within the declared calibration band."""
        for record in calibrations.values():
            assert record.within_band, (
                f"{record.system}: hand {record.default_goodput_bps / 1e9:.1f}"
                f" Gbps vs derived {record.derived_goodput_bps / 1e9:.1f}"
                f" Gbps (ratio {record.ratio:.2f}x) outside "
                f"[{1 / record.band:.2f}x, {record.band:.2f}x]"
            )

    def test_trioml_is_fabric_limited(self, calibrations):
        record = calibrations["trioml"]
        assert record.derived_goodput_bps == record.wire_goodput_bps
        # Steady-state fabric goodput is a sizable fraction of line rate.
        assert 10e9 < record.wire_goodput_bps < 100e9

    def test_switchml_is_client_limited(self, calibrations):
        record = calibrations["switchml"]
        assert record.derived_goodput_bps < record.wire_goodput_bps

    def test_client_bound_goodput_formula(self):
        # 8192 bits at 80 Gbps wire + 250 ns client overhead.
        derived = cal.client_bound_goodput(80e9, 8192, 250e-9)
        assert derived == pytest.approx(8192 / (8192 / 80e9 + 250e-9))
        # No overhead: wire goodput passes through unchanged.
        assert cal.client_bound_goodput(80e9, 8192, 0.0) == (
            pytest.approx(80e9)
        )

    def test_calibrated_backend_uses_derived_goodput(self, calibrations):
        backend = cal.calibrated_backend("trioml", calibrations)
        assert isinstance(backend, TrioMLBackend)
        assert backend.goodput_bps == (
            calibrations["trioml"].derived_goodput_bps
        )
        model = MODEL_ZOO["resnet50"]
        default_time = get_backend("trioml").allreduce_time_s(
            model.size_bytes, 6
        )
        calibrated_time = backend.allreduce_time_s(model.size_bytes, 6)
        band = calibrations["trioml"].band
        assert default_time / band <= calibrated_time <= (
            default_time * band
        )

    def test_calibrated_backend_unknown_name(self, calibrations):
        with pytest.raises(ValueError, match="no calibrated variant"):
            cal.calibrated_backend("ideal", calibrations)

    def test_render_reports_every_system(self, calibrations):
        rendered = cal.render_calibration(calibrations)
        assert "trioml" in rendered and "switchml" in rendered
        assert "OUT OF BAND" not in rendered

    def test_cli_exits_clean(self, capsys):
        assert cal.main([]) == 0
        out = capsys.readouterr().out
        assert "within the calibration band" in out

    def test_determinism(self, calibrations):
        """The calibration runs are discrete-event simulations: a second
        run derives exactly the same constants."""
        again = cal.calibrate()
        for name, record in calibrations.items():
            assert again[name].derived_goodput_bps == (
                record.derived_goodput_bps
            )


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------


class TestBackendSweepExperiment:
    def test_sweeps_every_registered_backend(self):
        from repro.harness import experiments as exp

        rows = exp.backend_sweep(probabilities=(0.0, 0.16), iterations=20)
        assert [row.probability for row in rows] == [0.0, 0.16]
        for row in rows:
            assert set(row.iteration_ms) == set(available_backends())

    def test_existing_series_match_fig13(self):
        """For the three paper systems the generalised sweep reproduces
        Figure 13's numbers exactly."""
        from repro.harness import experiments as exp

        rows = exp.backend_sweep(model="resnet50")
        for row, golden in zip(rows, FIG13_GOLDEN["resnet50"]):
            probability, ideal_ms, trioml_ms, switchml_ms = golden
            assert row.probability == probability
            assert row.iteration_ms["ideal"] == ideal_ms
            assert row.iteration_ms["trioml"] == trioml_ms
            assert row.iteration_ms["switchml"] == switchml_ms

    def test_parallel_matches_serial(self):
        from repro.harness import experiments as exp

        serial = exp.backend_sweep(probabilities=(0.0, 0.08, 0.16))
        fanned = exp.backend_sweep(probabilities=(0.0, 0.08, 0.16),
                                   parallel=2)
        assert serial == fanned

    def test_render_includes_new_backend(self):
        from repro.harness import experiments as exp
        from repro.harness.figures import SWEEPS

        rows = exp.backend_sweep(probabilities=(0.0,), iterations=5)
        rendered = SWEEPS[exp.backend_sweep].render(rows)
        assert get_backend("ring-straggler").display_name in rendered

    def test_cli_lists_backends_experiment(self, capsys):
        from repro.harness.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends" in out
        assert "calibrate" in out
