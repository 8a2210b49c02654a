"""The names the benchmark's tracer rebinds must exist in the package.

A traced benchmark round wraps every ``TARGETS`` entry of
``perfbench/tracer.py``; a renamed or removed function would otherwise
surface only in the benchmark's own self-tests. Its span stack is not
thread-safe, so every target must also run on the main thread.
"""

import functools
import importlib
import sys
import threading
from pathlib import Path

from lawa import engine, lanes
from lawa.config import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolves(module_name: str, target: str) -> bool:
    owner = importlib.import_module(module_name)
    *cls_name, attr = target.split(".")
    if cls_name:
        owner = vars(owner).get(cls_name[0])
        # The tracer rebinds the method in the class's own __dict__.
        return owner is not None and attr in vars(owner)
    return hasattr(owner, attr)


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{module_name}.{target}"
        for module_name, target, _, _ in tracer.TARGETS
        if not resolves(module_name, target)
    ]
    assert missing == []


def test_every_traced_target_runs_on_the_main_thread(monkeypatch, tmp_path):
    """The tracer keeps one span stack, which only one thread may touch: no
    traced function may run on the worker that a wide step hands work to."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    # Two CPUs, so that every call large enough to share runs in two lanes.
    monkeypatch.setattr(lanes, "_cpu_count", lambda: 2)
    off_main = []

    def on_main_only(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "lawa" or n.startswith("lawa.")]
    for module_name, target, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, attr, on_main_only(target, cls.__dict__[attr]))
            continue
        original = getattr(owner, target)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, on_main_only(target, original))

    calls = []
    fork_join = lanes.fork_join
    monkeypatch.setattr(lanes, "fork_join", lambda *halves: calls.append(1) or fork_join(*halves))
    cfg = RunConfig(
        n_per_class=100, hidden=(512, 512), use_bn=True, optimizer="lookahead",
        lookahead_inner="adam", lr=0.002, batch_size=64, epochs=2, k=2,
        out=str(tmp_path / "run"),
    )
    engine.train_run(cfg)
    assert calls, "no step used the worker"
    assert off_main == []
