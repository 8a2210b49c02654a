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
NaN payloads. Malformed input raises :class:`FormatError` carrying the
byte offset of the problem. A :class:`CheckpointFile` refers to a file
this module wrote, to read its values back in runs later; a file that no
longer has the size and headers that were written is rejected.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError, IoError, ParseError
from .params import Checkpoint, ParameterSet

MAGIC = b"LAWA"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


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
    return (
        struct.pack("<I", len(raw_name))
        + raw_name
        + struct.pack(f"<BI{len(shape)}Q", code, len(shape), *shape)
    )


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize ``ckpt`` to ``path`` with :func:`write_atomically`, each
    tensor's bytes written straight from its array. I/O failures raise
    :class:`IoError`."""
    parts = [_preamble(ckpt.epoch, ckpt.step, len(ckpt.params))]
    for name, arr in ckpt.params.items():
        code = _DTYPE_CODES[arr.dtype]
        parts.append(_tensor_header(name, arr.shape, code))
        parts.append(np.asarray(arr, dtype=_CODE_DTYPES[code]))
    write_atomically(path, parts, "checkpoint")


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

        Raises :class:`FormatError` naming the path when the file's size,
        its header or a tensor header is not what was written, or when the
        file ends early, and :class:`IoError` on OS-level failure.
        """
        code = _DTYPE_CODES[self.dtype]
        raw = buffer.view(_CODE_DTYPES[code])
        try:
            with open(self.path, "rb", buffering=0) as fh:
                size = os.fstat(fh.fileno()).st_size
                if size != self.size:
                    raise FormatError(
                        f"checkpoint {self.path} changed since it was written: "
                        f"it holds {size} bytes, not {self.size}",
                        0,
                    )
                self._expect(fh, _preamble(self.epoch, self.step, len(self.entries)), "header")
                start = 0
                for name, shape in self.entries:
                    self._expect(fh, _tensor_header(name, shape, code), f"header of {name!r}")
                    n = math.prod(shape)
                    for lo in range(0, n, raw.size):
                        run = raw[: min(raw.size, n - lo)]
                        self._fill(fh, memoryview(run).cast("B"), name)
                        yield name, start + lo, run
                    start += n
        except OSError as exc:
            raise IoError(f"cannot read checkpoint {self.path}: {exc}") from exc

    def _expect(self, fh, want: bytes, what: str) -> None:
        """Read ``want`` next from ``fh``, or raise :class:`FormatError`."""
        got = fh.read(len(want))
        if got != want:
            raise FormatError(
                f"checkpoint {self.path} is not the file written for epoch "
                f"{self.epoch}, step {self.step}: its {what} differs",
                fh.tell() - len(got),
            )

    def _fill(self, fh, view: memoryview, name: str) -> None:
        """Read ``fh`` into all of ``view``, or raise :class:`FormatError`."""
        got = 0
        while got < len(view):
            n = fh.readinto(view[got:])
            if not n:
                raise FormatError(
                    f"checkpoint {self.path} ends inside the data of {name!r}", fh.tell()
                )
            got += n


def checkpoint_file(ckpt: Checkpoint, path) -> CheckpointFile:
    """The :class:`CheckpointFile` for ``path``, a file that
    :func:`write_checkpoint` wrote from ``ckpt``."""
    params = ckpt.params
    code = _DTYPE_CODES[params.dtype]
    entries = tuple((name, arr.shape) for name, arr in params.items())
    size = len(_preamble(ckpt.epoch, ckpt.step, len(entries))) + params.flat.nbytes
    size += sum(len(_tensor_header(name, shape, code)) for name, shape in entries)
    return CheckpointFile(Path(path), ckpt.epoch, ckpt.step, params.dtype, entries, size)


class _Reader:
    """Cursor over a byte buffer that reports truncation offsets."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"truncated file: expected {n} bytes for {what}", self.pos)
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


# magic, version, epoch and step
_HEADER_SIZE = 4 + 4 + 8 + 8


def _read_bytes(path, size: int = -1) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read(size)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc


def _parse_header(r: _Reader) -> tuple[int, int]:
    """Check magic and version; return (epoch, step)."""
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version_at = r.pos
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", version_at)
    return r.u64("epoch"), r.u64("step")


def read_checkpoint_header(path) -> tuple[int, int]:
    """The (epoch, step) recorded in ``path``, reading only the file header.

    Raises :class:`IoError` on OS-level failure and :class:`FormatError`
    (with byte offset) on bad magic, bad version or a truncated header;
    the tensors are not read, so damage there goes unnoticed.
    """
    return _parse_header(_Reader(_read_bytes(path, _HEADER_SIZE)))


def read_checkpoint(path) -> Checkpoint:
    """Parse ``path`` back into a :class:`Checkpoint`.

    Raises :class:`IoError` on OS-level failure and :class:`FormatError`
    (with byte offset) on bad magic, bad version, truncation, invalid
    tensor headers, or trailing bytes.
    """
    buf = _read_bytes(path)
    r = _Reader(buf)
    epoch, step = _parse_header(r)
    count = r.u32("tensor count")
    if count == 0:
        raise FormatError("checkpoint holds no tensors", r.pos - 4)

    entries: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    first_code = None
    for _ in range(count):
        entry_at = r.pos
        name_len = r.u32("name length")
        name_at = r.pos
        raw_name = r.take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8", name_at) from None
        if not name:
            raise FormatError("empty tensor name", name_at)
        if name in seen:
            raise FormatError(f"duplicate tensor name {name!r}", name_at)
        seen.add(name)
        code_at = r.pos
        code = r.u8("dtype code")
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code}", code_at)
        if first_code is None:
            first_code = code
        elif code != first_code:
            raise FormatError("mixed element types within one checkpoint", code_at)
        rank = r.u32("rank")
        dims = [r.u64(f"dim {i}") for i in range(rank)]
        n_elems = 1
        for d in dims:
            n_elems *= d
        dtype = _CODE_DTYPES[code]
        raw = r.take(n_elems * dtype.itemsize, f"data of {name!r}")
        try:
            arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        except ValueError as exc:  # numpy refuses the rank or the shape
            raise FormatError(
                f"tensor {name!r} has unsupported shape: {exc}", entry_at
            ) from None
        entries.append((name, arr.astype(arr.dtype.newbyteorder("="), copy=False)))

    if r.pos != len(buf):
        raise FormatError(f"{len(buf) - r.pos} trailing bytes after last tensor", r.pos)

    return Checkpoint(params=ParameterSet(entries), epoch=epoch, step=step)
