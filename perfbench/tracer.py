"""Spans around the public functions of each lawa module, recorded from outside.

The tracer rebinds functions and methods of the imported lawa modules
(``lawa.engine.forward``, ``lawa.engine.write_checkpoint``, ``Sgd.step``,
``ParameterSet.__init__`` and the rest of ``TARGETS``) to wrappers that
record one span per call: id, parent span, name, start and end in integer
nanoseconds, and one number where the layer has one (bytes, or files
used). A function imported by name into several modules is rebound in
each of them. Spans stay in memory and are written out when the run ends;
``uninstall`` puts every original back, so traced and untraced rounds can
alternate in one process. The program's files are not modified.

``config``, ``rng``, ``errors`` and the helpers not listed in ``TARGETS``
are not wrapped: their time counts as the self time of their callers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from pathlib import Path
from typing import Callable

from stats import self_times


def _file_bytes(position: int) -> Callable:
    """Size of the file named by the ``path`` argument at ``position``."""

    def measure(args, kwargs, result) -> int:
        return os.path.getsize(args[position] if len(args) > position else kwargs["path"])

    return measure


def _set_bytes(args, kwargs, result) -> int:
    pset = args[0]
    return pset.total_size() * pset.dtype.itemsize


def _window(args, kwargs, result) -> int:
    return kwargs["k"] if "k" in kwargs else args[1]


# (module, function or Class.method, span name, value recorded per call).
# Each entry feeds a per-layer metric, except the ``cli.cmd_*`` commands:
# they give each CLI call a span, so that the round's own self time is only
# what no wrapper covers, which check_trace in worker.py bounds.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("lawa.engine", "build_dataset", "data.build_dataset", None),
    ("lawa.engine", "forward", "engine.forward", None),
    ("lawa.engine", "backward", "engine.backward", None),
    ("lawa.engine", "evaluate", "engine.evaluate", None),
    ("lawa.engine", "recompute_bn_stats", "engine.recompute_bn_stats", None),
    ("lawa.engine", "apply_bn_mode", "engine.apply_bn_mode", None),
    ("lawa.engine", "train_run", "engine.train_run", None),
    ("lawa.optim", "Sgd.step", "optim.Sgd.step", None),
    ("lawa.optim", "Adam.step", "optim.Adam.step", None),
    ("lawa.optim", "Lookahead.step", "optim.Lookahead.step", None),
    ("lawa.params", "ParameterSet.__init__", "params.ParameterSet", _set_bytes),
    ("lawa.averaging", "uniform_average", "averaging.uniform_average", None),
    ("lawa.averaging", "average_checkpoint_dir", "averaging.average_checkpoint_dir", _window),
    ("lawa.averaging", "NoAveraging.observe", "averaging.observe", None),
    ("lawa.averaging", "UniformScheme.observe", "averaging.observe", None),
    ("lawa.averaging", "EmaScheme.observe", "averaging.observe", None),
    ("lawa.averaging", "PolyakScheme.observe", "averaging.observe", None),
    ("lawa.checkpoint_io", "write_checkpoint", "checkpoint_io.write", _file_bytes(1)),
    ("lawa.checkpoint_io", "read_checkpoint", "checkpoint_io.read", _file_bytes(0)),
    ("lawa.metrics", "MetricsWriter.append", "metrics.append", None),
    ("lawa.compare", "compare_run", "compare.compare_run", None),
    ("lawa.cli", "cmd_train", "cli.train", None),
    ("lawa.cli", "cmd_sweep", "cli.sweep", None),
    ("lawa.cli", "cmd_average", "cli.average", None),
    ("lawa.cli", "cmd_eval", "cli.eval", None),
    ("lawa.cli", "cmd_compare", "cli.compare", None),
)

ROOT_SPAN = "bench.round"


class Tracer:
    """In-memory span recorder; each span is [id, parent, name, start, end, value]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0, 0, 0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if measure is not None:
                rec[5] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "lawa" or n.startswith("lawa.")]
        for module_name, target, span_name, measure in TARGETS:
            owner = sys.modules[module_name]
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span_name, original, measure))
                continue
            original = getattr(owner, target)
            wrapper = self._wrap(span_name, original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Every recorded span as CSV: id,parent,name,start_ns,end_ns,value."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,value\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")


class Totals:
    """Per span name over one traced round: self and inclusive nanoseconds,
    calls and summed values, plus the facts the ratios need."""

    def __init__(self, spans: list[list]):
        by_id = {rec[0]: rec for rec in spans}
        selfs = self_times([(r[0], r[1], r[3], r[4]) for r in spans])
        self.self_ns: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.value: dict[str, int] = {}
        self.root_ns = 0
        self.optimizer_steps = 0
        self.reads_for_average = 0
        for rec, own in zip(spans, selfs):
            sid, parent, name, start, end, value = rec
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.value[name] = self.value.get(name, 0) + value
            ancestors = []
            while parent in by_id:
                ancestors.append(by_id[parent][2])
                parent = by_id[parent][1]
            if name not in ancestors:
                self.incl_ns[name] = self.incl_ns.get(name, 0) + end - start
            if name == ROOT_SPAN:
                self.root_ns += end - start
            if name.startswith("optim.") and not any(a.startswith("optim.") for a in ancestors):
                self.optimizer_steps += 1
            if name == "checkpoint_io.read" and "averaging.average_checkpoint_dir" in ancestors:
                self.reads_for_average += 1

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def incl_s(self, name: str) -> float:
        return self.incl_ns.get(name, 0) / 1e9

    def unattributed_ratio(self) -> float:
        """Share of the round that no wrapper covers: the root span's own
        self time over its duration."""
        return _ratio(self.self_ns.get(ROOT_SPAN, 0), self.root_ns)

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, ns in self.self_ns.items():
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + ns / 1e9
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, value from one round's Totals and its trajectory ratio)
PER_LAYER: dict[str, tuple[str, Callable[[Totals, float], float]]] = {
    "data.build_dataset.s": ("s", lambda t, u: t.incl_s("data.build_dataset")),
    "engine.forward.self_s": ("s", lambda t, u: t.self_s("engine.forward")),
    "engine.forward.calls": ("count", lambda t, u: t.calls.get("engine.forward", 0)),
    "engine.backward.self_s": ("s", lambda t, u: t.self_s("engine.backward")),
    "engine.backward.calls": ("count", lambda t, u: t.calls.get("engine.backward", 0)),
    "engine.evaluate.self_s": ("s", lambda t, u: t.self_s("engine.evaluate")),
    "engine.evaluate.calls": ("count", lambda t, u: t.calls.get("engine.evaluate", 0)),
    "engine.apply_bn_mode.self_s": ("s", lambda t, u: t.self_s("engine.apply_bn_mode")),
    "engine.recompute_bn_stats.s": ("s", lambda t, u: t.incl_s("engine.recompute_bn_stats")),
    "engine.recompute_bn_stats.calls": (
        "count",
        lambda t, u: t.calls.get("engine.recompute_bn_stats", 0),
    ),
    "engine.train_run.self_s": ("s", lambda t, u: t.self_s("engine.train_run")),
    "optim.Sgd.step.self_s": ("s", lambda t, u: t.self_s("optim.Sgd.step")),
    "optim.Sgd.step.calls": ("count", lambda t, u: t.calls.get("optim.Sgd.step", 0)),
    "optim.Adam.step.self_s": ("s", lambda t, u: t.self_s("optim.Adam.step")),
    "optim.Adam.step.calls": ("count", lambda t, u: t.calls.get("optim.Adam.step", 0)),
    "optim.Lookahead.step.self_s": ("s", lambda t, u: t.self_s("optim.Lookahead.step")),
    "optim.Lookahead.step.calls": (
        "count",
        lambda t, u: t.calls.get("optim.Lookahead.step", 0),
    ),
    "params.ParameterSet.self_s": ("s", lambda t, u: t.self_s("params.ParameterSet")),
    "params.ParameterSet.constructions": (
        "count",
        lambda t, u: t.calls.get("params.ParameterSet", 0),
    ),
    "params.copy_bytes_per_step": (
        "B/step",
        lambda t, u: _ratio(t.value.get("params.ParameterSet", 0), t.optimizer_steps),
    ),
    "averaging.observe.self_s": ("s", lambda t, u: t.self_s("averaging.observe")),
    "averaging.uniform_average.s": ("s", lambda t, u: t.incl_s("averaging.uniform_average")),
    "averaging.average_checkpoint_dir.self_s": (
        "s",
        lambda t, u: t.self_s("averaging.average_checkpoint_dir"),
    ),
    "checkpoint_io.write.s": ("s", lambda t, u: t.incl_s("checkpoint_io.write")),
    "checkpoint_io.write.calls": ("count", lambda t, u: t.calls.get("checkpoint_io.write", 0)),
    "checkpoint_io.write.bytes": ("B", lambda t, u: t.value.get("checkpoint_io.write", 0)),
    "checkpoint_io.read.s": ("s", lambda t, u: t.incl_s("checkpoint_io.read")),
    "checkpoint_io.read.calls": ("count", lambda t, u: t.calls.get("checkpoint_io.read", 0)),
    "checkpoint_io.read.bytes": ("B", lambda t, u: t.value.get("checkpoint_io.read", 0)),
    "checkpoint_io.read.useful_ratio": (
        "ratio",
        lambda t, u: _ratio(
            t.value.get("averaging.average_checkpoint_dir", 0), t.reads_for_average
        ),
    ),
    "metrics.append.s": ("s", lambda t, u: t.incl_s("metrics.append")),
    "compare.compare_run.s": ("s", lambda t, u: t.incl_s("compare.compare_run")),
    "cli.sweep.unique_trajectory_ratio": ("ratio", lambda t, u: u),
    "trace.unattributed_ratio": ("ratio", lambda t, u: t.unattributed_ratio()),
}
