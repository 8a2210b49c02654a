import re

import pytest

from lawa.errors import SchemaError
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


@pytest.mark.parametrize(
    "cells, fault",
    [(METRICS_HEADER.index("val_acc") + 1, "fewer"), (len(METRICS_HEADER) + 1, "more")],
    ids=["cut-after-val_acc", "one-cell-too-many"],
)
def test_a_last_row_of_another_length_is_refused_by_line(tmp_path, cells, fault):
    # A killed run can leave its last row cut short.
    path = tmp_path / "metrics.csv"
    with MetricsWriter(path) as writer:
        writer.append(NO_AVERAGE)
        writer.append(FULL)
    header, first, last = path.read_text(encoding="utf-8").splitlines()
    last = ",".join((last.split(",") + ["1"])[:cells])
    path.write_text(f"{header}\n{first}\n{last}\n", encoding="utf-8")
    message = f"{path}: line 3 has {fault} cells than the header"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_metrics(path)
