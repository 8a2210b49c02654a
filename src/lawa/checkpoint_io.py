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
byte offset of the problem.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

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


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize ``ckpt`` to ``path`` with :func:`write_atomically`, each
    tensor's bytes written straight from its array. I/O failures raise
    :class:`IoError`."""
    parts = [
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<QQ", ckpt.epoch, ckpt.step),
        struct.pack("<I", len(ckpt.params)),
    ]
    for name, arr in ckpt.params.items():
        raw_name = name.encode("utf-8")
        code = _DTYPE_CODES[arr.dtype]
        parts.append(struct.pack("<I", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<BI", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(np.asarray(arr, dtype=_CODE_DTYPES[code]))
    write_atomically(path, parts, "checkpoint")


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
