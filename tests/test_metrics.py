import pytest

from lawa.metrics import METRICS_HEADER, MetricsRecord, MetricsWriter, read_metrics

FULL = MetricsRecord(
    epoch=7,
    step=1234,
    lr=1 / 3,
    train_loss=0.123456789123,
    train_acc=0.5,
    val_loss=2.718281828459045e-7,
    val_acc=1.0,
    avg_val_loss=123456.789012345,
    avg_val_acc=0.9876543210987,
    wall_seconds=12.3456789123,
)
NO_AVERAGE = MetricsRecord(
    epoch=0,
    step=4,
    lr=0.1,
    train_loss=0.7,
    train_acc=0.25,
    val_loss=0.69,
    val_acc=0.3,
    avg_val_loss=None,
    avg_val_acc=None,
    wall_seconds=0.01,
)


@pytest.mark.parametrize("rec", [FULL, NO_AVERAGE], ids=["full", "no_average"])
def test_record_round_trips_through_the_csv(tmp_path, rec):
    path = tmp_path / "metrics.csv"
    with MetricsWriter(path) as writer:
        writer.append(rec)
    (row,) = read_metrics(path)
    assert tuple(row) == METRICS_HEADER
    for name in METRICS_HEADER:
        value = getattr(rec, name)
        if value is None:
            assert row[name] is None, name
        elif isinstance(value, int):
            assert type(row[name]) is int and row[name] == value, name
        else:
            assert type(row[name]) is float and row[name] == float(f"{value:.9g}"), name
