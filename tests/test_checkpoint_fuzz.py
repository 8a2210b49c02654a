"""Damaged checkpoint files: the readers raise FormatError and nothing else."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lawa.checkpoint_io import (  # noqa: E402
    read_checkpoint,
    read_checkpoint_header,
    write_checkpoint,
)
from lawa.errors import FormatError  # noqa: E402
from lawa.params import Checkpoint  # noqa: E402
from testutil import mixed_pset  # noqa: E402


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """Bytes of a checkpoint holding 2-d, 0-d, zero-size and 1-d entries."""
    path = tmp_path_factory.mktemp("fuzz") / "c.lawa"
    params = mixed_pset(np.random.default_rng(30))
    write_checkpoint(Checkpoint(params=params, epoch=3, step=17), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.lawa"


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
def test_damaged_file_raises_only_format_error(original, target, edits, cut):
    target.write_bytes(_damage(original, edits, cut))
    try:
        header = read_checkpoint_header(target)
    except FormatError:
        header = None
    try:
        ckpt = read_checkpoint(target)
    except FormatError:
        return
    assert header == (ckpt.epoch, ckpt.step)
