"""Figure 13: training iteration time vs straggling probability.

Paper result: as p grows to 16%, SwitchML's iteration time climbs
steeply (it must wait for the straggler) while Trio-ML stays close to
the no-straggler Ideal; at p = 16% Trio-ML is 1.72x / 1.75x / 1.8x
faster than SwitchML for ResNet50 / DenseNet161 / VGG11.
"""

from repro.harness import experiments as exp

PAPER_SPEEDUPS = {"resnet50": 1.72, "densenet161": 1.75, "vgg11": 1.8}


def test_fig13_iteration_time(record):
    results = record(exp.fig13_iteration_time)
    for key, paper_speedup in PAPER_SPEEDUPS.items():
        rows = results[key]
        assert rows[0].probability == 0.0 and rows[-1].probability == 0.16
        # p=0 ordering: Ideal < Trio-ML < SwitchML.
        assert rows[0].ideal_ms < rows[0].trioml_ms < rows[0].switchml_ms
        # SwitchML degrades roughly linearly in p; Trio-ML stays near Ideal.
        assert rows[-1].switchml_ms > 1.4 * rows[0].switchml_ms
        assert rows[-1].trioml_ms < 1.3 * rows[-1].ideal_ms
        # Ideal is flat (no stragglers ever injected).
        ideal = [row.ideal_ms for row in rows]
        assert max(ideal) - min(ideal) < 1e-6
        # Final speedup in the paper's band.
        assert 0.75 * paper_speedup <= rows[-1].speedup <= 1.25 * paper_speedup
