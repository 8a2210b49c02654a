"""Damaged checkpoint files: the readers raise FormatError and nothing else."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lawa.checkpoint_io import (  # noqa: E402
    open_checkpoint,
    read_checkpoint,
    read_checkpoint_header,
    write_checkpoint,
)
from lawa.errors import FormatError  # noqa: E402
from lawa.params import Checkpoint  # noqa: E402
from testutil import mixed_pset  # noqa: E402


@pytest.fixture(scope="module")
def written():
    """A checkpoint holding 2-d, 0-d, zero-size and 1-d entries."""
    return Checkpoint(params=mixed_pset(np.random.default_rng(30)), epoch=3, step=17)


@pytest.fixture(scope="module")
def original(tmp_path_factory, written):
    """The bytes of ``written``'s file."""
    path = tmp_path_factory.mktemp("fuzz") / "c.lawa"
    write_checkpoint(written, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.lawa"


@pytest.fixture(scope="module")
def reference(original, target):
    """The :class:`CheckpointFile` that ``target`` opens as while it holds
    the undamaged file."""
    target.write_bytes(original)
    return open_checkpoint(target)


# (offset, bit to flip or bytes to write there); offsets wrap at the file size.
EDITS = st.lists(
    st.tuples(st.integers(0, 2**16), st.integers(0, 7) | st.binary(min_size=1, max_size=8)),
    max_size=3,
)


def _damage(raw: bytes, edits, cut) -> bytes:
    """Apply bit flips and byte overwrites, then truncate to ``cut`` bytes."""
    buf = bytearray(raw)
    n = len(buf)
    for at, edit in edits:
        at %= n
        if isinstance(edit, int):
            buf[at] ^= 1 << edit
        else:
            buf[at : at + len(edit)] = edit[: n - at]
    return bytes(buf[:cut])


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(edits=EDITS, cut=st.none() | st.integers(0, 2**16))
def test_damaged_file_raises_only_format_error(original, target, reference, edits, cut):
    target.write_bytes(_damage(original, edits, cut))
    try:
        header = read_checkpoint_header(target)
    except FormatError:
        header = None
    try:
        # Runs of 3 values, so that most entries take several.
        runs = b"".join(values.tobytes() for _, _, values in reference.runs(np.empty(3)))
    except FormatError:
        runs = None
    try:
        opened = open_checkpoint(target)
    except FormatError:
        opened = None
    try:
        ckpt = read_checkpoint(target)
    except FormatError:
        assert runs is None and opened is None
        return
    assert header == (ckpt.epoch, ckpt.step)
    assert runs in (None, ckpt.params.flat.tobytes())
    entries = tuple((name, arr.shape) for name, arr in ckpt.params.items())
    assert opened is not None and opened.path == target
    got = (opened.epoch, opened.step, opened.dtype, opened.entries, opened.size)
    assert got == (ckpt.epoch, ckpt.step, ckpt.params.dtype, entries, target.stat().st_size)


def test_the_undamaged_file_opens_as_written(reference, written):
    entries = tuple((name, arr.shape) for name, arr in written.params.items())
    assert (reference.epoch, reference.step) == (written.epoch, written.step)
    assert (reference.dtype, reference.entries) == (written.params.dtype, entries)
