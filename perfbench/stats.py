"""Arithmetic shared by the benchmark: percentiles, spreads, self times, digests.

Nothing here imports numpy or lawa, so the tests for it run anywhere.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from pathlib import Path
from typing import Iterable, Sequence

# Timings are scaled to a host on which the reference block (worker.py)
# takes REF_S seconds: a timing is multiplied by REF_S / the block's median
# time beside it.
REF_S = 0.025

# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Iterable[float]) -> tuple[float, float, int] | None:
    """(percentile, value, n) for the highest candidate percentile that has
    at least ``TAIL_MIN_BEYOND`` samples beyond it, or None when even the
    median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= TAIL_MIN_BEYOND:
            best = (p, nearest_rank(ordered, p), n)
    return best


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as ``statistics.quantiles`` gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def self_times(spans: Sequence[tuple[int, int, int, int]]) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.

    ``spans`` holds (id, parent, start, end) with unique ids and parent -1
    for roots; times are integers, so the self times of a tree add up
    exactly to the root's duration.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def mask_last_column(text: str) -> str:
    """CSV text with the last field of every data row emptied.

    Used for ``metrics.csv`` and ``sweep.csv``, whose last column is
    ``wall_seconds``, the one field that differs between identical runs.
    """
    lines = text.split("\n")
    masked = [lines[0]]
    for line in lines[1:]:
        masked.append(line.rsplit(",", 1)[0] + "," if line else line)
    return "\n".join(masked)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def masked_csv_digest(path: Path) -> str:
    return sha256_bytes(mask_last_column(Path(path).read_text(encoding="utf-8")).encode())


def files_digest(directory: Path, pattern: str) -> str:
    """One digest over every file matching ``pattern``, by name then content."""
    lines = [
        f"{p.name} {file_digest(p)}\n" for p in sorted(Path(directory).glob(pattern))
    ]
    return sha256_bytes("".join(lines).encode())
