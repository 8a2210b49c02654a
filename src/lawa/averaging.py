"""Averaging schemes over checkpoint trajectories.

Four schemes are supported:

* ``uniform`` — mean of the k most recently saved checkpoints, recomputed
  at every save once k checkpoints exist. The window is held in a
  fixed-capacity ring; the default window is 6 and a warning is emitted
  for windows above 16, which tend to hurt rather than help. A checkpoint
  observed together with its file, whose parameters take at least
  ``FILE_SLOT_BYTES``, stays in the ring only as a reference to that
  file once it has been averaged; each later average reads it back
  block by block. So a large model's window costs no memory between
  save events, and at a save event only the newest checkpoint, the
  float64 sum and one read block; a small model's window stays in
  memory, where an add costs less than a read.
* ``ema`` — exponential recursion ``avg_0 = c_0`` then
  ``avg_t = alpha * c_t + (1 - alpha) * avg_{t-1}`` (newest checkpoint
  gets weight alpha). The recursion is unbounded; no window applies.
* ``polyak`` — running mean of every checkpoint since the start.
* ``none`` — no averaging; ``observe`` never yields a model.

All accumulation happens in float64 regardless of the checkpoint element
type, with a final cast back, so long windows do not drift. A window's
sum is the same, bit for bit, whether its checkpoints are in memory or in
their files.
"""

from __future__ import annotations

import warnings
from collections import deque
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checkpoint_io import (
    CheckpointFile,
    checkpoint_file,
    read_checkpoint,
    read_checkpoint_header,
)
from .errors import (
    ConfigError,
    ConfigWarning,
    EpochOrderError,
    InsufficientCheckpoints,
    InternalStateError,
    NonFiniteError,
)
from .params import (
    Checkpoint,
    ParameterSet,
    check_finite,
    check_layout,
    check_same_structure,
)

DEFAULT_WINDOW = 6
DEFAULT_EMA_ALPHA = 0.9
WINDOW_WARN_THRESHOLD = 16
# Bytes of a parameter set from which a uniform window, once it has
# averaged a checkpoint that came with its file, keeps only a reference to
# that file and reads the values back at each later average. Below it the
# checkpoint stays in memory: the few kilobytes saved are not worth a read,
# which costs several times the in-memory add (CHANGES.md has the times).
FILE_SLOT_BYTES = 1 << 18
# Elements per read of a checkpoint held as a file reference.
READ_BLOCK = 1 << 15

# A window slot: a checkpoint in memory, or a reference to its file.
Slot = Checkpoint | CheckpointFile


class CheckpointRing:
    """FIFO of the ``capacity`` most recently pushed checkpoints.

    Pushes must come in strictly increasing epoch order; once full, each
    push evicts exactly the oldest slot. A slot holds its checkpoint in
    memory until :meth:`spill_newest` replaces it by its file.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: deque[Slot] = deque(maxlen=capacity)

    def push(self, ckpt: Checkpoint) -> None:
        if self._slots and ckpt.epoch <= self._slots[-1].epoch:
            raise EpochOrderError(
                f"checkpoint epoch {ckpt.epoch} is not greater than "
                f"newest stored epoch {self._slots[-1].epoch}"
            )
        self._slots.append(ckpt)

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Slot]:
        """Oldest first."""
        return iter(self._slots)

    @property
    def newest(self) -> Slot:
        return self._slots[-1]

    def spill_newest(self, ref: CheckpointFile) -> None:
        """Hold the newest checkpoint as ``ref``, a reference to the file
        that holds it, which must stay unchanged while it is in the window."""
        newest = self.newest
        if (ref.epoch, ref.step) != (newest.epoch, newest.step):
            raise InternalStateError(
                f"file {ref.path} holds epoch {ref.epoch}, step {ref.step}, "
                f"not the newest slot's epoch {newest.epoch}, step {newest.step}"
            )
        self._slots[-1] = ref


def _check_fits(slot: Slot, params: ParameterSet) -> None:
    """Raise :class:`StructureMismatch` naming the first entry in which
    ``params`` differ from the slot's checkpoint."""
    if isinstance(slot, CheckpointFile):
        check_layout(params, slot.dtype, slot.entries)
    else:
        check_same_structure(slot.params, params)


def _runs(
    slot: Slot, template: ParameterSet, buffer: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The slot's values, checked to fit ``template`` and to be finite, as
    ``(start, values)`` runs in flat order: a checkpoint in memory is one
    run, a file is read in runs into ``buffer``."""
    _check_fits(slot, template)
    context = f"checkpoint at epoch {slot.epoch}"
    if isinstance(slot, Checkpoint):
        check_finite(slot.params, context)
        yield 0, slot.params.flat
        return
    for name, start, values in slot.runs(buffer):
        if not np.isfinite(values).all():
            raise NonFiniteError(f"{context}: entry {name!r} contains NaN or Inf")
        yield start, values


def uniform_average(ckpts: Sequence[Slot]) -> ParameterSet:
    """Elementwise arithmetic mean of the checkpoints' parameters.

    All checkpoints must match structurally and contain only finite
    values. Accumulates in float64, oldest first, and divides the sum in
    place, then casts back to the input element type. A window slot that
    is a :class:`CheckpointFile` is read back ``READ_BLOCK`` elements at a
    time into one buffer, each run checked and added as it is read, so
    each element gets the same adds in the same order as from memory. At
    least one checkpoint must be in memory: the average takes its layout.
    The result is built by :meth:`ParameterSet.over` on a fresh buffer
    that nothing else holds, so its owner may write it in place.
    """
    if not ckpts:
        raise ConfigError("cannot average an empty checkpoint sequence")
    template = next((c.params for c in ckpts if isinstance(c, Checkpoint)), None)
    if template is None:
        raise InternalStateError("a uniform average needs one checkpoint in memory")
    acc = np.zeros(template.flat.shape, dtype=np.float64)
    files = any(isinstance(c, CheckpointFile) for c in ckpts)
    buffer = np.empty(max(1, min(READ_BLOCK, acc.size)) if files else 0, template.dtype)
    for c in ckpts:
        for start, values in _runs(c, template, buffer):
            run = acc[start : start + values.size]
            run += values
    acc /= len(ckpts)
    return template.over(acc if acc.dtype == template.dtype else acc.astype(template.dtype))


def lawa_step(ring: CheckpointRing, epoch: int, k: int) -> ParameterSet | None:
    """Averaged model at the end of ``epoch``, or None until the ring holds k.

    ``ring`` holds the checkpoint for ``epoch`` as its newest (the average
    includes it); the window may start at any epoch.
    """
    if ring.capacity != k:
        raise InternalStateError(f"ring capacity {ring.capacity} does not match k={k}")
    if ring.newest.epoch != epoch:
        raise InternalStateError(
            f"newest ring epoch {ring.newest.epoch} does not match epoch {epoch}"
        )
    if len(ring) < k:
        return None
    return uniform_average(list(ring))


class AveragingScheme:
    """Base interface: feed checkpoints, get averaged parameters when defined."""

    kind: str

    def observe(self, ckpt: Checkpoint, path=None) -> ParameterSet | None:
        """Absorb one checkpoint; return the scheme's current average, if any.

        ``path``, when given, names a file that :func:`write_checkpoint`
        wrote from ``ckpt``; a scheme may read it back later instead of
        holding ``ckpt``, so it must stay unchanged while the scheme lives.
        """
        raise NotImplementedError


class NoAveraging(AveragingScheme):
    kind = "none"

    def observe(self, ckpt: Checkpoint, path=None) -> None:
        return None


class UniformScheme(AveragingScheme):
    """k-latest uniform averaging driven by a checkpoint ring.

    A checkpoint observed with its file, of at least ``FILE_SLOT_BYTES``,
    stays in the ring as a reference to that file once it has been
    averaged, so the ring holds no parameter set between save events.
    """

    kind = "uniform"

    def __init__(self, k: int = DEFAULT_WINDOW):
        if k < 1:
            raise ConfigError(f"averaging window k must be >= 1, got {k}")
        if k > WINDOW_WARN_THRESHOLD:
            warnings.warn(
                f"averaging window k={k}: k>{WINDOW_WARN_THRESHOLD} tends to "
                "give worse results",
                ConfigWarning,
                stacklevel=2,
            )
        self.k = k
        self.ring = CheckpointRing(k)

    def observe(self, ckpt: Checkpoint, path=None) -> ParameterSet | None:
        # A foreign checkpoint is named by its entry, not by its epoch.
        if len(self.ring):
            _check_fits(self.ring.newest, ckpt.params)
        self.ring.push(ckpt)
        average = lawa_step(self.ring, ckpt.epoch, self.k)
        if path is not None and ckpt.params.flat.nbytes >= FILE_SLOT_BYTES:
            self.ring.spill_newest(checkpoint_file(ckpt, path))
        return average


class _RunningScheme(AveragingScheme):
    """A float64 fold over every checkpoint since the start of the run.

    The first checkpoint starts the state; each later one is folded in by
    the subclass's ``_fold(acc, x)``, with ``count`` already advanced.
    ``_fold`` returns a new array: the state doubles as the read-only
    buffer of the set returned for float64 checkpoints.
    Subclasses bind ``observe`` in their own namespace, so perfbench's
    tracer can rebind it per class.
    """

    def __init__(self):
        self._state: np.ndarray | None = None
        self._template: ParameterSet | None = None
        self.count = 0

    def observe(self, ckpt: Checkpoint, path=None) -> ParameterSet:
        """Advance the fold by one checkpoint and return its value; the
        fold holds its own state, so ``path`` goes unused."""
        check_finite(ckpt.params, f"checkpoint at epoch {ckpt.epoch}")
        if self._state is None:
            self._template = ckpt.params
            self._state = ckpt.params.flat.astype(np.float64)
            self.count = 1
        else:
            check_same_structure(self._template, ckpt.params)
            self.count += 1
            self._state = self._fold(self._state, ckpt.params.flat.astype(np.float64))
        return self._template.with_flat(self._state)


class EmaScheme(_RunningScheme):
    """Exponentially decayed coefficients; newest checkpoint weighs ``alpha``."""

    kind = "ema"

    def __init__(self, alpha: float = DEFAULT_EMA_ALPHA):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"ema alpha must lie in [0, 1], got {alpha}")
        super().__init__()
        self.alpha = alpha

    def _fold(self, acc, x):
        return self.alpha * x + (1.0 - self.alpha) * acc

    observe = update = _RunningScheme.observe


class PolyakScheme(_RunningScheme):
    """Running mean of all checkpoints since the start of the run."""

    kind = "polyak"

    def _fold(self, acc, x):
        return acc + (x - acc) / self.count

    observe = update = _RunningScheme.observe


def make_scheme(
    kind: str,
    k: int = DEFAULT_WINDOW,
    alpha: float = DEFAULT_EMA_ALPHA,
) -> AveragingScheme:
    if kind == "none":
        return NoAveraging()
    if kind == "uniform":
        return UniformScheme(k)
    if kind == "ema":
        return EmaScheme(alpha)
    if kind == "polyak":
        return PolyakScheme()
    raise ConfigError(f"unknown averaging scheme {kind!r}")


def average_checkpoint_dir(
    directory, k: int, scheme: str = "uniform", alpha: float = DEFAULT_EMA_ALPHA
) -> Checkpoint:
    """Offline averaging over the k newest checkpoint files in a directory.

    Files are selected and ordered by the epoch and step recorded in each
    file header, never by filename; only the selected files are read in
    full. Averaged-model outputs (``lawa_*.lawa``) living in the same run
    directory are not candidates. The result is what the in-loop scheme
    (``make_scheme(scheme, k, alpha)``) holds after observing the selected
    files, oldest first; it carries the newest checkpoint's epoch and step.
    """
    if k < 1:
        raise ConfigError(f"averaging window k must be >= 1, got {k}")
    averager = make_scheme(scheme, k, alpha)
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.lawa") if not p.name.startswith("lawa_"))
    if len(paths) < k:
        raise InsufficientCheckpoints(
            f"{directory} holds {len(paths)} checkpoint files, need {k}"
        )
    # Only the headers of the files outside the window are read.
    paths.sort(key=read_checkpoint_header)
    for path in paths[-k:]:
        newest = read_checkpoint(path)
        averaged = averager.observe(newest, path)
        epoch, step = newest.epoch, newest.step
        del newest  # parse the next file with no other one alive
    if averaged is None:
        raise ConfigError(f"scheme {scheme!r} yields no average")
    return Checkpoint(params=averaged, epoch=epoch, step=step)
