"""Binary checkpoint file format.

Layout (all integers little-endian, no padding, no trailing bytes):

    magic   4 bytes  "LAWA"
    version u32      = 1
    epoch   u64
    step    u64
    count   u32      number of tensors
    per tensor:
        name_len u32
        name     UTF-8 bytes
        dtype    u8   0 = float32, 1 = float64
        rank     u32
        dims     rank x u64
        data     row-major raw element bytes

Reading back a written checkpoint reproduces it bit for bit, including
NaN payloads. Every reader walks the headers with :func:`_walk`, so
malformed input raises the same :class:`FormatError`, carrying the byte
offset of the problem. A :class:`CheckpointFile` refers to a file this
module wrote, to read its values back in runs later; a file that no
longer has the size and headers that were written is rejected.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import FormatError, IoError, ParseError
from .params import Checkpoint, ParameterSet

MAGIC = b"LAWA"
VERSION = 1

_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # indexed by dtype code
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(_DTYPES)}


def write_atomically(path, data: bytes | list, what: str) -> None:
    """Write ``data``, bytes or a list of bytes-like parts written in
    order, to ``path`` through ``<path>.tmp``, a name that does not end in
    ``.lawa``, which then replaces ``path`` in one step, so a failed write
    leaves no partial file behind and any older file intact. I/O failures
    remove the temporary file and raise :class:`IoError` naming ``what``."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


def read_text(path, what: str) -> str:
    """The UTF-8 text of ``path``, newlines untranslated as ``csv`` wants
    them. Raises :class:`IoError` on OS-level failure and
    :class:`ParseError` on bytes that are not UTF-8, each naming ``what``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _preamble(epoch: int, step: int, count: int) -> bytes:
    """The bytes before the first tensor: magic, version, epoch, step and
    tensor count."""
    return MAGIC + struct.pack("<IQQI", VERSION, epoch, step, count)


def _tensor_header(name: str, shape: tuple[int, ...], code: int) -> bytes:
    """The bytes before a tensor's data: its name, dtype code and dims."""
    raw_name = name.encode("utf-8")
    dims = struct.pack(f"<BI{len(shape)}Q", code, len(shape), *shape)
    return struct.pack("<I", len(raw_name)) + raw_name + dims


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize ``ckpt`` to ``path`` with :func:`write_atomically`, each
    tensor's bytes written straight from its array. I/O failures raise
    :class:`IoError`."""
    parts = [_preamble(ckpt.epoch, ckpt.step, len(ckpt.params))]
    for name, arr in ckpt.params.items():
        parts.append(_tensor_header(name, arr.shape, _DTYPE_CODES[arr.dtype]))
        parts.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False))
    write_atomically(path, parts, "checkpoint")


@contextmanager
def _opened(path) -> Iterator[BinaryIO]:
    """``path`` open for reading; any OS-level failure raises :class:`IoError`."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc


def _truncated(n: int, what: str, at: int) -> FormatError:
    return FormatError(f"truncated file: expected {n} bytes for {what}", at)


def _walk(fh: BinaryIO) -> Iterator[tuple]:
    """The one parser of the layout, over ``fh`` open at the file's start.

    The first step checks magic and version and yields ``(epoch, step)``.
    Each later step parses a tensor header, checks that the file holds the
    data before anything is allocated or read, and yields ``(at, name,
    dtype, shape)``: the header's offset, and the data that :func:`_fill`
    reads next; the step ends with ``fh`` past the data. Trailing bytes are
    rejected. Failures raise :class:`FormatError` at their field.
    """
    size, pos = os.fstat(fh.fileno()).st_size, 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        got = fh.read(n) if n <= size - pos else b""
        if len(got) < n:
            raise _truncated(n, what, pos)
        pos += n
        return got

    def number(n: int, what: str) -> int:
        return int.from_bytes(take(n, what), "little")

    magic = take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = number(4, "version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    yield number(8, "epoch"), number(8, "step")

    count = number(4, "tensor count")
    if count == 0:
        raise FormatError("checkpoint holds no tensors", pos - 4)
    seen, dtype = set(), None
    for _ in range(count):
        at = pos
        try:
            name = take(number(4, "name length"), "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8", at + 4) from None
        if not name:
            raise FormatError("empty tensor name", at + 4)
        if name in seen:
            raise FormatError(f"duplicate tensor name {name!r}", at + 4)
        seen.add(name)
        code = number(1, "dtype code")
        if code >= len(_DTYPES):
            raise FormatError(f"unknown dtype code {code}", pos - 1)
        if dtype is not None and _DTYPES[code] != dtype:
            raise FormatError("mixed element types within one checkpoint", pos - 1)
        dtype = _DTYPES[code]
        shape = tuple(number(8, f"dim {i}") for i in range(number(4, "rank")))
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > size - pos:
            raise _truncated(nbytes, f"data of {name!r}", pos)
        try:  # numpy's own shape checks, on a zero-stride view of 8 bytes
            np.ndarray(shape, dtype, bytes(8), strides=(0,) * len(shape))
        except ValueError as exc:
            raise FormatError(f"tensor {name!r} has unsupported shape: {exc}", at) from None
        yield at, name, dtype, shape
        pos += nbytes
        fh.seek(pos)

    if pos != size:
        raise FormatError(f"{size - pos} trailing bytes after last tensor", pos)


def _fill(fh: BinaryIO, out: np.ndarray, what: str) -> None:
    """Read the next ``out.nbytes`` bytes of ``fh``, little-endian values,
    into the contiguous array ``out``; :class:`FormatError` if they end."""
    got = fh.readinto(out)
    if got != out.nbytes:
        raise _truncated(out.nbytes, what, fh.tell() - got)
    if not np.little_endian:
        out.byteswap(inplace=True)


@dataclass(frozen=True)
class CheckpointFile:
    """A checkpoint file as :func:`write_checkpoint` wrote it, held without
    its values: its path, epoch and step, element type, each entry's name
    and shape, and its size in bytes. :meth:`runs` reads the values back.
    Built by :func:`checkpoint_file`."""

    path: Path
    epoch: int
    step: int
    dtype: np.dtype
    entries: tuple[tuple[str, tuple[int, ...]], ...]
    size: int

    def runs(self, buffer: np.ndarray) -> Iterator[tuple[str, int, np.ndarray]]:
        """The file's values in entry order, read in runs of at most
        ``buffer.size`` elements into ``buffer``, an array of this file's
        element type. Each run is yielded as its entry's name, its start in
        the entries' flat order, and a leading view of ``buffer`` that the
        next run overwrites.

        Raises :class:`FormatError`, naming the path, when the file's size,
        its header or a tensor header is not what was written, or when the
        file ends early, and :class:`IoError` on OS-level failure.
        """
        with _opened(self.path) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != self.size:
                raise FormatError(
                    f"checkpoint {self.path} changed since it was written: "
                    f"it holds {size} bytes, not {self.size}",
                    0,
                )
            start = 0
            for name, shape in self._entries_in(fh):
                n = math.prod(shape)
                for lo in range(0, n, buffer.size):
                    run = buffer[: min(buffer.size, n - lo)]
                    _fill(fh, run, f"data of {name!r}")
                    yield name, start + lo, run
                start += n

    def _entries_in(self, fh: BinaryIO) -> Iterator[tuple[str, tuple[int, ...]]]:
        """Each entry's name and shape, as ``fh`` reaches its data; raises
        :class:`FormatError` once the walk parses what was not written."""
        walk = _walk(fh)
        what, at = "header", 0
        try:
            if next(walk) == (self.epoch, self.step):
                for name, shape in self.entries:
                    what = f"header of {name!r}"
                    at, *header = next(walk, (at,))
                    if header != [name, self.dtype, shape]:
                        break
                    yield name, shape
                else:  # the walk ends here unless its tensor count was changed
                    what = "header"
                    next(walk, None)
                    return
        except FormatError as exc:
            at = exc.offset
        raise FormatError(
            f"checkpoint {self.path} is not the file written for epoch "
            f"{self.epoch}, step {self.step}: its {what} differs",
            at,
        )


def checkpoint_file(ckpt: Checkpoint, path) -> CheckpointFile:
    """The :class:`CheckpointFile` for ``path``, a file that
    :func:`write_checkpoint` wrote from ``ckpt``."""
    params = ckpt.params
    code = _DTYPE_CODES[params.dtype]
    entries = tuple((name, arr.shape) for name, arr in params.items())
    size = len(_preamble(ckpt.epoch, ckpt.step, len(entries))) + params.flat.nbytes
    size += sum(len(_tensor_header(name, shape, code)) for name, shape in entries)
    return CheckpointFile(Path(path), ckpt.epoch, ckpt.step, params.dtype, entries, size)


def read_checkpoint_header(path) -> tuple[int, int]:
    """The (epoch, step) recorded in ``path``, reading only the file header.

    Raises :class:`IoError` on OS-level failure and :class:`FormatError`
    (with byte offset) on bad magic, bad version or a truncated header;
    the tensors are not read, so damage there goes unnoticed.
    """
    with _opened(path) as fh:
        return next(_walk(fh))


def read_checkpoint(path) -> Checkpoint:
    """Parse ``path`` back into a :class:`Checkpoint`; each tensor is read
    into its own array, which the set copies.

    Raises :class:`IoError` on OS-level failure and :class:`FormatError`
    (with byte offset) on bad magic, bad version, truncation, invalid
    tensor headers, or trailing bytes.
    """
    with _opened(path) as fh:
        walk = _walk(fh)
        epoch, step = next(walk)
        entries = []
        for _, name, dtype, shape in walk:
            arr = np.empty(shape, dtype)
            _fill(fh, arr, f"data of {name!r}")
            entries.append((name, arr))
    return Checkpoint(params=ParameterSet(entries), epoch=epoch, step=step)
