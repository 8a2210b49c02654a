"""Shared helpers for the test suite."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
# lawa's seeded streams import it on first use; a traced call must not count that.
import numpy.random  # noqa: F401

from lawa.params import Checkpoint, ParameterSet


def pset(values: dict, dtype=np.float64) -> ParameterSet:
    """ParameterSet from plain lists/arrays."""
    return ParameterSet(
        (name, np.asarray(v, dtype=dtype)) for name, v in values.items()
    )


def scalar_ckpt(value: float, epoch: int, step: int | None = None) -> Checkpoint:
    return Checkpoint(
        params=pset({"w": [value]}), epoch=epoch, step=epoch if step is None else step
    )


def random_pset(rng: np.random.Generator, dtype=np.float64, scale=1.0) -> ParameterSet:
    return ParameterSet(
        {
            "layer0.weight": (scale * rng.normal(size=(3, 4))).astype(dtype),
            "layer0.bias": (scale * rng.normal(size=4)).astype(dtype),
            "layer1.weight": (scale * rng.normal(size=(4, 2))).astype(dtype),
        }
    )


def mixed_pset(rng: np.random.Generator, dtype=np.float64) -> ParameterSet:
    """Entries of every rank the code must handle: 2-d, 0-d, empty and 1-d."""
    return ParameterSet(
        [
            ("w", (3.0 * rng.normal(size=(3, 4))).astype(dtype)),
            ("s", np.asarray(3.0 * rng.normal(), dtype=dtype)),
            ("empty", np.zeros((0, 2), dtype=dtype)),
            ("b", (3.0 * rng.normal(size=5)).astype(dtype)),
        ]
    )


def ckpt_of(params: ParameterSet, epoch: int) -> Checkpoint:
    return Checkpoint(params=params, epoch=epoch, step=epoch)


def max_abs_diff(a: ParameterSet, b: ParameterSet) -> float:
    return max(
        float(np.max(np.abs(arr.astype(np.float64) - b[name].astype(np.float64))))
        if arr.size
        else 0.0
        for name, arr in a.items()
    )


def fsum_mean(psets: list[ParameterSet]) -> ParameterSet:
    """Independent averaging oracle: exact compensated summation per element."""
    import math

    first = psets[0]
    out = {}
    for name, arr in first.items():
        flat = np.empty(arr.size, dtype=np.float64)
        stacks = [p[name].astype(np.float64).ravel() for p in psets]
        for j in range(arr.size):
            flat[j] = math.fsum(s[j] for s in stacks) / len(psets)
        out[name] = flat.reshape(arr.shape).astype(first.dtype)
    return ParameterSet(out)


def masked_files(directory):
    """Every file of a run directory by name; metrics.csv without wall_seconds."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name == "metrics.csv":
            files[path.name] = [
                line.rsplit(",", 1)[0] for line in path.read_text().splitlines()
            ]
        else:
            files[path.name] = path.read_bytes()
    return files


def traced(fn, *args, **kwargs):
    """Call ``fn`` under ``tracemalloc``; returns ``(result, peak, retained)``:
    the most bytes traced at once during the call, and the bytes still
    traced after it, its result included, once garbage is collected.
    Modules that ``fn`` imports on first use count as well."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, peak - before, after - before
