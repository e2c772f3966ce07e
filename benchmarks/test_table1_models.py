"""Table 1: the DNN models used in the experiments."""

from repro.harness import experiments as exp


def test_table1_models(record):
    rows = record(exp.table1_models)
    assert {row["model"] for row in rows} == {
        "ResNet50", "VGG11", "DenseNet161"
    }
    by_model = {row["model"]: row for row in rows}
    assert by_model["ResNet50"]["size_mb"] == 98
    assert by_model["VGG11"]["size_mb"] == 507
    assert by_model["DenseNet161"]["size_mb"] == 109
