"""Per-epoch metrics records and their CSV serialization.

The CSV layout is fixed so runs produce byte-stable golden files: the
columns are ``MetricsRecord``'s fields in order, floats are written with
9 significant digits, undefined averaged-model cells stay empty. The
wall_seconds column is the one field that varies between otherwise
identical runs; determinism checks mask it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from typing import IO, get_type_hints

from .checkpoint_io import read_text
from .errors import IoError, ParseError, SchemaError


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    step: int
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    avg_val_loss: float | None
    avg_val_acc: float | None
    wall_seconds: float


METRICS_HEADER = tuple(f.name for f in fields(MetricsRecord))
_INT_COLUMNS = frozenset(
    name for name, hint in get_type_hints(MetricsRecord).items() if hint is int
)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def csv_line(row) -> str:
    """A dataclass row's cells, in field order, as one CSV line."""
    return ",".join(_fmt(getattr(row, f.name)) for f in fields(row))


class MetricsWriter:
    """Appends one CSV line per epoch, flushing so partial runs keep data.
    A failed create, append or close raises :class:`IoError` naming the file."""

    def __init__(self, path):
        self._path = path
        try:
            self._fh: IO[str] = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise self._error(exc) from exc
        try:
            self._line(",".join(METRICS_HEADER))
        except IoError:
            self.close()
            raise

    def append(self, rec: MetricsRecord) -> None:
        self._line(csv_line(rec))

    def _line(self, text: str) -> None:
        try:
            self._fh.write(text + "\n")
            self._fh.flush()
        except OSError as exc:
            raise self._error(exc) from exc

    def _error(self, exc: OSError) -> IoError:
        return IoError(f"cannot write metrics file {self._path}: {exc}")

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError as exc:
            raise self._error(exc) from exc

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_metrics(path) -> list[dict]:
    """Parse a metrics CSV back into dicts; empty cells become None.

    An unreadable file raises :class:`IoError`, a row longer or shorter
    than the header, such as a last row that a killed run cut short,
    :class:`SchemaError`, and a file that is not UTF-8 or a cell that does
    not parse :class:`ParseError`.
    """
    reader = csv.DictReader(io.StringIO(read_text(path, "metrics file"), newline=""))
    if reader.fieldnames is None:
        raise SchemaError(f"{path}: empty metrics file")
    rows = []
    for raw in reader:
        if None in raw:  # DictReader's key for the cells past the header's
            raise SchemaError(f"{path}: line {reader.line_num} has more cells than the header")
        if None in raw.values():  # DictReader's value for the cells a row lacks
            raise SchemaError(f"{path}: line {reader.line_num} has fewer cells than the header")
        row: dict = {}
        for key, text in raw.items():
            if text == "":
                row[key] = None
                continue
            try:
                row[key] = int(text) if key in _INT_COLUMNS else float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: line {reader.line_num}, column {key!r}: cannot parse {text!r}"
                ) from None
        rows.append(row)
    return rows
