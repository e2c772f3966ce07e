"""Tests for the experiment harness: drivers produce paper-shaped results."""

import pytest

from repro.harness import (
    build_hierarchical_testbed,
    build_single_pfe_testbed,
    experiments as exp,
)
from repro.harness.figures import SWEEPS
from repro.sim import Environment


class TestTestbeds:
    def test_single_pfe_testbed_shape(self):
        env = Environment()
        testbed = build_single_pfe_testbed(env, num_workers=4)
        assert len(testbed.workers) == 4
        assert testbed.pfe.app is testbed.handle.aggregator

    def test_hierarchical_testbed_matches_fig11b(self):
        env = Environment()
        testbed = build_hierarchical_testbed(env)
        assert len(testbed.workers) == 6
        assert len(testbed.router.pfes) == 6
        assert set(testbed.handle.aggregators) == {"pfe1", "pfe2", "pfe4"}
        top = testbed.handle.runtimes["pfe4"]
        assert top.result_dst_ip.is_multicast and top.top_pfe is None


class TestTable1:
    def test_rows(self):
        rows = exp.table1_models()
        assert {row["model"] for row in rows} == {
            "ResNet50", "VGG11", "DenseNet161"
        }
        rendered = SWEEPS[exp.table1_models].render(rows)
        assert "507 MB" in rendered


class TestFig12:
    def test_speedups_in_paper_band(self):
        results = exp.fig12_time_to_accuracy(models=["resnet50"])
        result = results["resnet50"]
        # Paper: 1.56x; we accept the right regime.
        assert 1.3 <= result.speedup <= 2.1
        assert result.switchml_minutes > result.trioml_minutes
        assert result.trioml_curve[-1][1] == pytest.approx(
            result.target_accuracy
        )
        assert "speedup" in SWEEPS[exp.fig12_time_to_accuracy].render(results)


class TestFig13:
    def test_monotone_switchml_flat_trioml(self):
        rows = exp.fig13_iteration_time(
            probabilities=(0.0, 0.08, 0.16), models=["resnet50"]
        )["resnet50"]
        assert rows[0].speedup < rows[-1].speedup
        # SwitchML rises sharply with p; Trio-ML stays near Ideal.
        assert rows[-1].switchml_ms > 1.4 * rows[0].switchml_ms
        assert rows[-1].trioml_ms < 1.25 * rows[0].trioml_ms
        assert rows[-1].trioml_ms < 1.3 * rows[-1].ideal_ms
        SWEEPS[exp.fig13_iteration_time].render({"resnet50": rows})

    def test_final_speedup_in_paper_band(self):
        rows = exp.fig13_iteration_time(
            probabilities=(0.16,), models=["vgg11"]
        )["vgg11"]
        assert 1.4 <= rows[0].speedup <= 2.1  # paper: 1.8x


class TestFig14:
    def test_mitigation_within_twice_timeout(self):
        rows = exp.fig14_mitigation(timeouts_ms=(5.0, 10.0), blocks=8)
        for row in rows:
            assert row.blocks_mitigated > 0
            assert row.mean_mitigation_ms <= 2 * row.timeout_ms + 0.5
            assert row.max_mitigation_ms <= 2 * row.timeout_ms + 1.0
            assert row.mean_mitigation_ms >= row.timeout_ms * 0.9
        SWEEPS[exp.fig14_mitigation].render(rows)

    def test_mitigation_scales_with_timeout(self):
        rows = exp.fig14_mitigation(timeouts_ms=(2.5, 20.0), blocks=6)
        assert rows[1].mean_mitigation_ms > rows[0].mean_mitigation_ms * 3


class TestFig15:
    def test_latency_grows_rate_plateaus(self):
        rows = exp.fig15_latency_rate(grad_counts=(64, 256, 1024), blocks=20)
        latencies = [row.latency_us for row in rows]
        rates = [row.rate_grads_per_us for row in rows]
        assert latencies == sorted(latencies)
        # Rate grows then saturates: the last step gains little.
        assert rates[1] > rates[0]
        assert rates[2] / rates[1] < 1.15
        SWEEPS[exp.fig15_latency_rate].render(rows)

    def test_sublinear_latency_growth(self):
        rows = exp.fig15_latency_rate(grad_counts=(64, 1024), blocks=20)
        # 16x more gradients costs less than 16x the latency (paper: 6.6x).
        assert rows[1].latency_us / rows[0].latency_us < 16


class TestFig16:
    def test_window_tradeoff(self):
        results = exp.fig16_window_sweep(
            windows=(1, 16, 128), grad_counts=(512,),
            blocks_for=lambda w: max(64, 2 * w),
        )
        rows = results[512]
        latencies = [row.latency_us for row in rows]
        throughputs = [row.throughput_gbps for row in rows]
        assert latencies == sorted(latencies)       # Fig 16a: latency rises
        assert throughputs == sorted(throughputs)   # Fig 16b: tput rises
        SWEEPS[exp.fig16_window_sweep].render(results)


class TestProgramAnalysis:
    def test_matches_section_6_3(self):
        analysis = exp.microcode_program_analysis(grads_per_packet=512,
                                                  blocks=8)
        assert analysis.static_instructions == 60
        assert analysis.loop_instructions_per_gradient == pytest.approx(1.2)
        # Measured includes fixed per-packet overheads; still close to 1.2.
        assert 1.1 <= analysis.measured_instructions_per_gradient <= 1.6
        assert analysis.rmw_engines == 12
        assert analysis.rmw_add_rate_ops_per_s == pytest.approx(6e9)
        SWEEPS[exp.microcode_program_analysis].render(analysis)


class TestAblations:
    def test_rmw_offload_beats_locking(self):
        rows = exp.ablation_rmw_offload(num_threads=16, updates_per_thread=8)
        rmw, lock = rows[0].value, rows[1].value
        assert rmw < lock
        SWEEPS[exp.ablation_rmw_offload].render(rows)

    def test_more_scan_threads_scan_faster(self):
        rows = exp.ablation_scan_threads(thread_counts=(1, 10),
                                         num_records=2000)
        assert rows[1].value < rows[0].value

    def test_tail_chunk_64_is_best(self):
        rows = exp.ablation_tail_chunk(chunk_sizes=(16, 64),
                                       grads_per_packet=512, blocks=8)
        assert rows[1].value < rows[0].value  # bigger chunks, fewer XTXNs

    def test_hierarchy_runs(self):
        rows = exp.ablation_hierarchy(blocks=64, grads_per_packet=128,
                                      window=32)
        assert len(rows) == 4
        assert all(row.value > 0 for row in rows)
