"""README's "Library use" snippet runs as written, given the two names it
leaves to the reader: ``trajectory`` and ``step_of``; the fields README
says a sweep variant may set are the ones whose role allows it; and every
``engine``, ``optim`` and ``averaging`` name README puts in code exists."""

import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

from lawa import uniform_average
from lawa.config import RunConfig
from testutil import pset

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_snippet(epochs: int) -> dict:
    trajectory = [pset({"w": [float(e), 0.5 * e * e], "b": [1.0 - e]}) for e in range(epochs)]
    names = {"trajectory": trajectory, "step_of": lambda epoch: 10 * (epoch + 1)}
    exec(compile(library_use_snippet(), str(README), "exec"), names)
    return names


@pytest.mark.parametrize("epochs", [6, 9])
def test_the_snippet_averages_the_six_latest_checkpoints(epochs):
    names = run_snippet(epochs)
    window = list(names["scheme"].window)
    assert [c.epoch for c in window] == list(range(epochs - 6, epochs))
    assert [c.step for c in window] == [10 * (e + 1) for e in range(epochs - 6, epochs)]
    assert names["averaged"] == uniform_average(window)
    assert names["averaged"]["w"][0] == sum(range(epochs - 6, epochs)) / 6


def test_the_snippet_has_no_average_until_the_window_fills():
    assert run_snippet(5)["averaged"] is None


def test_the_fields_a_variant_may_set_are_those_of_the_averaging_and_output_roles():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"sets only the fields whose role is averaging or output: ([^.]*)\.", text)
    named = re.findall(r"`(\w+)`", sentence.group(1))
    roles = {f.name: f.metadata["role"] for f in fields(RunConfig)}
    assert named == [name for name, role in roles.items() if role in ("averaging", "output")]


def module_names_in_code() -> set[str]:
    """Each ``module.name`` of lawa's engine, optim and averaging modules
    that a code span of README holds, such as ``optim.BLOCK`` or
    ``engine.TrainingBuffers(params, spec, batch_size)``."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    pattern = r"\b((?:engine|optim|averaging)(?:\.\w+)+)"
    return {name for span in spans for name in re.findall(pattern, span)}


def test_every_module_name_readme_gives_resolves():
    named = module_names_in_code()
    assert named, "README's code spans name no engine, optim or averaging name"
    for name in sorted(named):
        module, *path = name.split(".")
        value = importlib.import_module(f"lawa.{module}")
        for part in path:
            assert hasattr(value, part), f"README names {name}, which lawa.{module} lacks"
            value = getattr(value, part)
