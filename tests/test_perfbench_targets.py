"""The names the benchmark's tracer rebinds must exist in the package.

A traced benchmark round wraps every ``TARGETS`` entry of
``perfbench/tracer.py``; a renamed or removed function would otherwise
surface only in the benchmark's own self-tests.
"""

import importlib
from pathlib import Path

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
