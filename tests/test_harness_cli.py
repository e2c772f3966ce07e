"""Tests for the command-line experiment runner and CSV exports."""

import pytest

from repro.harness import experiments as exp
from repro.harness.__main__ import build_registry, main
from repro.harness.figures import SWEEPS


class TestCLI:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig12", "fig16", "ablations", "generations"):
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_selected_experiments(self, capsys):
        assert main(["table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "ResNet50" in out
        assert "[table1 completed" in out

    def test_registry_complete(self):
        registry = build_registry(fast=True)
        assert set(registry) == {
            "table1", "fig12", "fig13", "fig14", "fig15", "fig16",
            "analysis", "ablations", "generations", "loss",
            "backends", "calibrate", "hybrid", "chains", "traffic",
        }

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_output_path_checked_before_running(self, tmp_path, monkeypatch,
                                                capsys, flag):
        def run_nothing(**_kwargs):
            raise AssertionError("ran before checking the output path")

        monkeypatch.setattr(exp, "profile_dataplane_slice", run_nothing)
        path = tmp_path / "missing" / "out.json"
        assert main(["profile", "fig15", "--fast", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {path}")

    def test_fast_fig14_runs(self, capsys):
        assert main(["fig14", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Timeout (ms)" in out


class TestGenerationScaling:
    def test_throughput_improves_across_generations(self):
        rows = exp.generation_scaling(generations=(1, 5), blocks=32)
        assert rows[0].generation == 1 and rows[1].generation == 5
        assert rows[1].throughput_gbps > rows[0].throughput_gbps
        assert rows[1].completion_ms < rows[0].completion_ms

    def test_render(self):
        rows = exp.generation_scaling(generations=(1,), blocks=8)
        rendered = SWEEPS[exp.generation_scaling].render(rows)
        assert "2009" in rendered


class TestCSVExport:
    def test_to_csv_shape(self):
        csv = SWEEPS[exp.fig15_latency_rate].to_csv(
            [exp.Fig15Row(1, 2.0, 3.5), exp.Fig15Row(4, 5.0, 6.25)])
        assert csv == ("grads_per_packet,latency_us,rate_grads_per_us\n"
                       "1,2.0,3.5\n4,5.0,6.25\n")

    def test_fig13_csv(self):
        results = exp.fig13_iteration_time(
            probabilities=(0.0, 0.16), models=["resnet50"]
        )
        csv = SWEEPS[exp.fig13_iteration_time].to_csv(results)
        lines = csv.strip().split("\n")
        assert lines[0] == "model,probability,ideal_ms,trioml_ms,switchml_ms"
        assert len(lines) == 3

    def test_fig15_csv(self):
        rows = exp.fig15_latency_rate(grad_counts=(64,), blocks=5)
        csv = SWEEPS[exp.fig15_latency_rate].to_csv(rows)
        assert csv.startswith("grads_per_packet,latency_us,")
        assert "\n64," in csv

    def test_fig16_csv(self):
        results = exp.fig16_window_sweep(
            windows=(1, 4), grad_counts=(64,),
            blocks_for=lambda w: 8,
        )
        csv = SWEEPS[exp.fig16_window_sweep].to_csv(results)
        lines = csv.strip().split("\n")
        assert len(lines) == 3  # header + 2 windows


class TestLossRecoverySweep:
    def test_sweep_rows_and_render(self):
        rows = exp.loss_recovery_sweep(loss_rates=(0.0, 0.05), blocks=8)
        assert rows[0].loss_rate == 0.0
        assert rows[0].retransmissions == 0
        assert rows[1].frames_lost > 0
        rendered = SWEEPS[exp.loss_recovery_sweep].render(rows)
        assert "Retransmits" in rendered
        assert "5.0%" in rendered

    def test_loss_cli_entry(self, capsys):
        assert main(["loss", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "resiliency" in out
