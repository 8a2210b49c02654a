"""Parameter containers and elementwise vector-space operations.

A :class:`ParameterSet` is an ordered, immutable collection of named dense
arrays, all sharing one element type (float32 or float64). It is the unit
that gets trained, averaged, and written to disk. All arithmetic here is
value-semantic: operations return new sets and never modify their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import NonFiniteError, StructureMismatch

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ParameterSet:
    """Ordered mapping of unique names to read-only numpy arrays.

    All entries share one element type; mixed-type sets are rejected at
    construction. The values are copied into one contiguous, read-only
    array, ``flat``, and each entry is a reshaped view of its slice, in
    entry order, so a set can be shared freely once built. The names,
    shapes and slices form the set's layout, one object shared by every
    set that ``with_flat`` or ``over`` derives from it. A set built by
    ``over`` is the one exception to immutability: it reads a buffer that
    its owner keeps writing.
    """

    __slots__ = ("_flat", "_entries", "_layout", "_buffer")

    def __init__(self, entries: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]]):
        items = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
        if not items:
            raise ValueError("a ParameterSet needs at least one entry")
        store: dict[str, np.ndarray] = {}
        dtype = None
        for name, value in items:
            if not isinstance(name, str) or not name:
                raise ValueError(f"entry names must be nonempty strings, got {name!r}")
            if name in store:
                raise ValueError(f"duplicate entry name {name!r}")
            arr = np.asarray(value)
            if arr.dtype not in SUPPORTED_DTYPES:
                raise ValueError(
                    f"entry {name!r}: element type must be float32 or float64, got {arr.dtype}"
                )
            if dtype is None:
                dtype = arr.dtype
            elif arr.dtype != dtype:
                raise ValueError(
                    f"entry {name!r}: mixed element types ({arr.dtype} vs {dtype})"
                )
            store[name] = arr
        layout = []
        start = 0
        for name, arr in store.items():
            layout.append((name, arr.shape, start, start + arr.size))
            start += arr.size
        self._layout = tuple(layout)
        self._bind(np.concatenate([a.ravel() for a in store.values()]))

    def _bind(self, flat: np.ndarray, buffer: np.ndarray | None = None) -> None:
        """Take ``flat`` read-only, viewed as this set's entries; ``buffer``
        is the writeable array ``flat`` views, for a set built by ``over``."""
        flat.flags.writeable = False
        self._flat = flat
        self._entries = self.entry_views(flat)
        self._buffer = buffer

    def entry_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of ``flat`` named and shaped like this set's entries, in
        order; writing a view writes ``flat``."""
        return {name: flat[start:stop].reshape(shape) for name, shape, start, stop in self._layout}

    def with_flat(self, flat: np.ndarray) -> "ParameterSet":
        """Set with these names and shapes over ``flat``, cast to this set's
        element type. The array is taken over and made read-only."""
        flat = np.ascontiguousarray(flat, dtype=self.dtype)
        if flat.shape != self.flat.shape:
            raise StructureMismatch(f"flat buffer shape {flat.shape} != {self.flat.shape}")
        out = object.__new__(ParameterSet)
        out._layout = self._layout
        out._bind(flat)
        return out

    def over(self, buffer: np.ndarray) -> "ParameterSet":
        """Set with these names and shapes that views ``buffer`` without
        taking it over.

        ``buffer`` must be a writeable, contiguous 1-d array of this set's
        element type and size. It stays writeable for its owner, as
        :attr:`buffer`; the set's ``flat`` and entries are read-only views
        that show whatever the owner last wrote. So the set is unchanged
        only while its owner leaves the buffer alone: a loop that rewrites
        the buffer every step builds the set once and hands out copies,
        ``with_flat(p.flat.copy())``, of what it must keep.
        """
        if (
            buffer.dtype != self.dtype
            or buffer.shape != self.flat.shape
            or not buffer.flags.c_contiguous
            or not buffer.flags.writeable
        ):
            raise StructureMismatch(
                f"buffer {buffer.dtype}{buffer.shape} is not a writeable contiguous "
                f"{self.dtype}{self.flat.shape} array"
            )
        out = object.__new__(ParameterSet)
        out._layout = self._layout
        out._bind(buffer[:], buffer)
        return out

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @property
    def buffer(self) -> np.ndarray | None:
        """The owner's writeable array under a set built by ``over``; None
        for a set that holds its own read-only ``flat``."""
        return self._buffer

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._entries.items())

    def total_size(self) -> int:
        return self.flat.size

    def as_dict(self) -> dict[str, np.ndarray]:
        """Writable copies of all entries, preserving order."""
        return {name: arr.copy() for name, arr in self._entries.items()}

    def update_slots(
        self, updates: Mapping[str, np.ndarray]
    ) -> list[tuple[slice, np.ndarray]]:
        """Each entry of ``updates`` as its slice of ``flat`` and its new
        values, raveled and cast to this set's element type, in entry
        order. Raises :class:`StructureMismatch` on an unknown name or a
        shape that differs."""
        unknown = set(updates) - self._entries.keys()
        if unknown:
            raise StructureMismatch(f"unknown entries in update: {sorted(unknown)}")
        slots = []
        for name, shape, start, stop in self._layout:
            if name in updates:
                new = np.asarray(updates[name], dtype=self.dtype)
                if new.shape != shape:
                    raise StructureMismatch(
                        f"entry {name!r}: replacement shape {new.shape} != {shape}"
                    )
                slots.append((slice(start, stop), new.ravel()))
        return slots

    def with_updates(self, updates: Mapping[str, np.ndarray]) -> "ParameterSet":
        """New set with the given entries replaced; shapes/dtype must match."""
        slots = self.update_slots(updates)
        flat = self.flat.copy()
        for block, new in slots:
            flat[block] = new
        return self.with_flat(flat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return (
            self._layout == other._layout
            and self.dtype == other.dtype
            and np.array_equal(self.flat, other.flat, equal_nan=True)
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{a.shape}" for n, a in self._entries.items())
        return f"ParameterSet({self.dtype}, {inner})"


@dataclass(frozen=True)
class Checkpoint:
    """A parameter snapshot tagged with its training position."""

    params: ParameterSet
    epoch: int
    step: int

    def __post_init__(self):
        if self.epoch < 0 or self.step < 0:
            raise ValueError("epoch and step must be nonnegative")


def check_same_structure(a: ParameterSet, b: ParameterSet) -> None:
    """Raise :class:`StructureMismatch` naming the first entry that differs."""
    if a._layout is b._layout:  # one derives from the other: same dtype too
        return
    check_layout(b, a.dtype, [(name, shape) for name, shape, _, _ in a._layout])


def check_layout(
    p: ParameterSet, dtype: np.dtype, shapes: Iterable[tuple[str, tuple[int, ...]]]
) -> None:
    """Raise :class:`StructureMismatch` naming the first difference between
    ``p`` and a set of element type ``dtype`` with the given (name, shape)
    entries; messages give the expected side first."""
    if dtype != p.dtype:
        raise StructureMismatch(f"element types differ: {dtype} vs {p.dtype}")
    want = list(shapes)
    names = p.names
    for i, (name, shape) in enumerate(want[: len(names)]):
        if name != names[i]:
            raise StructureMismatch(f"entry {i}: name {name!r} vs {names[i]!r}")
        if shape != p[name].shape:
            raise StructureMismatch(f"entry {name!r}: shape {shape} vs {p[name].shape}")
    if len(want) != len(names):
        extra = [n for n, _ in want[len(names):]] if len(want) > len(names) else names[len(want):]
        raise StructureMismatch(f"entry counts differ; first unmatched entry {extra[0]!r}")


def check_finite(p: ParameterSet, context: str = "parameter set") -> None:
    """Raise :class:`NonFiniteError` naming the first non-finite entry."""
    if not np.all(np.isfinite(p.flat)):
        name = next(n for n, arr in p.items() if not np.all(np.isfinite(arr)))
        raise NonFiniteError(f"{context}: entry {name!r} contains NaN or Inf")


def add_scaled(dst: ParameterSet, src: ParameterSet, c: float) -> ParameterSet:
    """Elementwise ``dst + c * src`` over structurally identical sets."""
    check_same_structure(dst, src)
    return dst.with_flat(dst.flat + c * src.flat)


def scale(p: ParameterSet, c: float) -> ParameterSet:
    """Every element multiplied by ``c``."""
    return p.with_flat(p.flat * c)


def l2_distance(p: ParameterSet, q: ParameterSet) -> float:
    """Euclidean norm of the concatenated elementwise difference."""
    check_same_structure(p, q)
    diff = p.flat.astype(np.float64) - q.flat.astype(np.float64)
    return math.sqrt(float(np.dot(diff, diff)))
