"""Epoch-savings comparison between averaged and baseline curves.

For a metrics file, the baseline curve is the raw model's column and the
averaged curve is the matching ``avg_`` column. The saving at epoch ``e``
is how many additional epochs the baseline needs before it first reaches
the averaged model's value at ``e`` (at-or-better, no interpolation;
already reached counts as zero). When the baseline never gets there, the
saving is the remaining horizon. Runs without averaged values fall back
to comparing the baseline against itself, which yields zero savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .checkpoint_io import write_atomically
from .errors import SchemaError
from .metrics import csv_line, read_metrics


@dataclass(frozen=True)
class SavingsRow:
    epoch: int
    avg_value: float
    baseline_value: float
    match_epoch: int | None  # first baseline epoch at-or-better, if any
    savings: int


@dataclass
class RunComparison:
    name: str
    metric: str
    higher_better: bool
    baseline: list[tuple[int, float]] = field(default_factory=list)
    averaged: list[tuple[int, float]] = field(default_factory=list)
    rows: list[SavingsRow] = field(default_factory=list)

    @property
    def max_savings(self) -> int:
        return max((r.savings for r in self.rows), default=0)

    @property
    def max_savings_epoch(self) -> int | None:
        best = None
        for r in self.rows:
            if best is None or r.savings > best.savings:
                best = r
        return best.epoch if best else None

    def epochs_to_target(self, target: float) -> tuple[int | None, int | None]:
        """(baseline epoch, averaged epoch) first reaching the target."""
        base = _first_at_or_better(self.baseline, target, self.higher_better)
        avg = _first_at_or_better(self.averaged, target, self.higher_better)
        return base, avg


def _first_at_or_better(
    series: list[tuple[int, float]], target: float, higher_better: bool
) -> int | None:
    for epoch, value in series:
        if (value >= target) if higher_better else (value <= target):
            return epoch
    return None


def metric_direction(metric: str) -> bool:
    """True when larger values are better (accuracy-style metrics)."""
    return "acc" in metric


def compare_run(path, metric: str, higher_better: bool | None = None) -> RunComparison:
    rows = read_metrics(path)
    if not rows:
        raise SchemaError(f"{path}: metrics file has no rows")
    if metric not in rows[0]:
        raise SchemaError(f"{path}: no metric column {metric!r}")
    if higher_better is None:
        higher_better = metric_direction(metric)

    avg_column = f"avg_{metric}"
    has_avg = avg_column in rows[0] and any(r[avg_column] is not None for r in rows)

    baseline: list[tuple[int, float]] = []
    averaged: list[tuple[int, float]] = []
    for r in rows:
        if r[metric] is None:
            raise SchemaError(f"{path}: empty {metric!r} cell at epoch {r['epoch']}")
        baseline.append((r["epoch"], r[metric]))
        avg_value = r[avg_column] if has_avg else r[metric]
        if avg_value is not None:
            averaged.append((r["epoch"], avg_value))

    last_epoch = baseline[-1][0]
    base_values = dict(baseline)
    comparison = RunComparison(
        name=Path(path).parent.name or str(path),
        metric=metric,
        higher_better=higher_better,
        baseline=baseline,
        averaged=averaged,
    )
    for epoch, avg_value in averaged:
        match = _first_at_or_better(baseline, avg_value, higher_better)
        savings = (match - epoch) if match is not None else (last_epoch - epoch)
        comparison.rows.append(
            SavingsRow(
                epoch=epoch,
                avg_value=avg_value,
                baseline_value=base_values[epoch],
                match_epoch=match,
                savings=max(0, savings),
            )
        )
    return comparison


def compare_runs(
    paths, metric: str, higher_better: bool | None = None
) -> list[RunComparison]:
    return [compare_run(p, metric, higher_better) for p in paths]


def write_comparison_csv(comparisons: list[RunComparison], path) -> None:
    lines = [",".join(("run", *(f.name for f in fields(SavingsRow))))]
    for comp in comparisons:
        lines.extend(f"{comp.name},{csv_line(r)}" for r in comp.rows)
    write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"), "comparison CSV")
