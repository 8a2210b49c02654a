"""Averaging schemes over checkpoint trajectories.

Four schemes are supported:

* ``uniform`` — mean of the k most recently saved checkpoints, recomputed
  at every save once k checkpoints exist. The window is held in a
  fixed-capacity ring; the default window is 6 and a warning is emitted
  for windows above 16, which tend to hurt rather than help. A checkpoint
  observed together with its file, whose parameters take at least
  ``FILE_SLOT_BYTES``, stays in the ring only as a reference to that
  file once it has been averaged, so a large model's window costs no
  memory between save events; a small model's window stays in memory,
  where an add costs less than a read.
* ``ema`` — exponential recursion ``avg_0 = c_0`` then
  ``avg_t = alpha * c_t + (1 - alpha) * avg_{t-1}`` (newest checkpoint
  gets weight alpha). The recursion is unbounded; no window applies.
* ``polyak`` — running mean of every checkpoint since the start.
* ``none`` — no averaging; ``observe`` never yields a model.

Every scheme reads a checkpoint, in memory or a reference to its file,
through one reader, :func:`_runs`, and accumulates in float64 whatever
the checkpoint element type, with a final cast back, so long windows do
not drift. Every fold is elementwise, so an average is the same, bit for
bit, from memory or from files. Every average is a fresh set over a
buffer that nothing else holds.
"""

from __future__ import annotations

import warnings
from collections import deque
from operator import iadd
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checkpoint_io import (
    CheckpointFile,
    open_checkpoint,
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
from .params import Checkpoint, ParameterSet, check_finite, check_same_structure

DEFAULT_WINDOW = 6
DEFAULT_EMA_ALPHA = 0.9
WINDOW_WARN_THRESHOLD = 16
# Bytes of a parameter set from which a uniform window, once it has
# averaged a checkpoint that came with its file, keeps only a reference to
# that file and reads the values back at each later average. Below it the
# checkpoint stays in memory: the few kilobytes saved are not worth a read,
# which costs several times the in-memory add (CHANGES.md has the times).
# ``average_checkpoint_dir`` applies it to each window file's size.
FILE_SLOT_BYTES = 1 << 18
# Elements per run of a slot's values, in memory or read from its file.
READ_BLOCK = 1 << 15

# A window slot: a checkpoint in memory, or a reference to its file.
Slot = Checkpoint | CheckpointFile


def _check_follows(epoch: int, newest: int) -> None:
    """Every scheme's rule: each checkpoint's epoch is greater than the last."""
    if epoch <= newest:
        message = f"checkpoint epoch {epoch} is not greater than newest stored epoch {newest}"
        raise EpochOrderError(message)


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

    def push(self, slot: Slot) -> None:
        _check_follows(slot.epoch, self._slots[-1].epoch if self._slots else -1)
        self._slots.append(slot)

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


def _template(slot: Slot) -> ParameterSet:
    """A set with the slot's layout: its own set in memory, or a
    :meth:`ParameterSet.template` of its file's."""
    if isinstance(slot, Checkpoint):
        return slot.params
    return ParameterSet.template(slot.dtype, slot.entries)


def _runs(slot: Slot, template: ParameterSet) -> Iterator[tuple[int, np.ndarray]]:
    """The only reader of a slot's values: ``(start, values)`` runs of at
    most ``READ_BLOCK`` elements in flat order, views of the set in memory
    or read from the file into one buffer that each run overwrites. Raises
    :class:`StructureMismatch`, naming the first entry in which the slot
    differs from ``template``, before it returns; no value that is not
    finite is yielded."""
    check_same_structure(_template(slot), template)
    context = f"checkpoint at epoch {slot.epoch}"
    if isinstance(slot, Checkpoint):
        check_finite(slot.params, context)
        flat = slot.params.flat
        return ((s, flat[s : s + READ_BLOCK]) for s in range(0, flat.size, READ_BLOCK))

    def read(buffer: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        for name, start, values in slot.runs(buffer):
            if not np.isfinite(values).all():
                raise NonFiniteError(f"{context}: entry {name!r} contains NaN or Inf")
            yield start, values

    return read(np.empty(max(1, min(READ_BLOCK, template.flat.size)), slot.dtype))


def _fold(acc: np.ndarray, runs: Iterator[tuple[int, np.ndarray]], rule) -> None:
    """``rule(part, values)`` for each run of ``runs``, with ``part`` the
    run's slice of ``acc``, which the rule updates in place. No run's
    array outlives the call, so the next slot's read buffer is the only one."""
    for start, values in runs:
        rule(acc[start : start + values.size], values)


def uniform_average(ckpts: Sequence[Slot]) -> ParameterSet:
    """Elementwise arithmetic mean of the checkpoints' parameters.

    All checkpoints must match structurally and contain only finite
    values. Accumulates in float64, oldest first, run by run, and divides
    the sum in place, then casts back to the input element type. The
    result takes the layout of the first checkpoint in memory, else of
    the first file, and is built by :meth:`ParameterSet.over` on a fresh
    buffer that nothing else holds, so its owner may write it in place.
    """
    if not ckpts:
        raise ConfigError("cannot average an empty checkpoint sequence")
    template = _template(min(ckpts, key=lambda c: isinstance(c, CheckpointFile)))
    acc = np.zeros(template.flat.shape, dtype=np.float64)
    for c in ckpts:
        _fold(acc, _runs(c, template), iadd)
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

    def observe(self, slot: Slot, path=None) -> ParameterSet | None:
        """Absorb one checkpoint, in memory or in its file; return the
        scheme's current average, if any, as a fresh set over a buffer that
        nothing else holds, the next ``observe`` included.

        ``path``, when given, names a file that :func:`write_checkpoint`
        wrote from the checkpoint in memory; a scheme may read it back
        later instead of holding it, so that file, like a file slot, must
        stay unchanged while the scheme lives.
        """
        raise NotImplementedError


class NoAveraging(AveragingScheme):
    kind = "none"

    def observe(self, slot: Slot, path=None) -> None:
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

    def observe(self, slot: Slot, path=None) -> ParameterSet | None:
        # A foreign checkpoint is named by its entry, not by its epoch.
        if len(self.ring):
            check_same_structure(_template(self.ring.newest), _template(slot))
        self.ring.push(slot)
        average = lawa_step(self.ring, slot.epoch, self.k)
        if path is not None and _template(slot).flat.nbytes >= FILE_SLOT_BYTES:
            self.ring.spill_newest(open_checkpoint(path))
        return average


class _RunningScheme(AveragingScheme):
    """A float64 fold over every checkpoint since the start of the run.

    The first checkpoint starts the state; each later one, checked against
    the first's layout and the last epoch, is folded in run by run by the
    subclass's ``_rule(acc, x)``, with ``count`` already advanced: it
    updates ``acc``, a run of the state, in place with ``x``, the
    checkpoint's values there. No checkpoint is kept; a file that fails
    part way leaves the state part folded. Subclasses bind ``observe`` in
    their own namespace, so perfbench's tracer can rebind it per class.
    """

    def __init__(self):
        self._state: np.ndarray | None = None
        self._template: ParameterSet | None = None  # the layout, without values
        self._epoch = 0  # of the newest checkpoint folded in
        self.count = 0

    def observe(self, slot: Slot, path=None) -> ParameterSet:
        """Advance the fold by one checkpoint and return its value; the
        fold holds its own state, so ``path`` goes unused."""
        template = _template(slot)
        runs = _runs(slot, template if self._template is None else self._template)
        if self._state is None:
            self._state = np.empty(template.flat.size, np.float64)
            shapes = [(name, arr.shape) for name, arr in template.items()]
            self._template = ParameterSet.template(template.dtype, shapes)
        else:
            _check_follows(slot.epoch, self._epoch)
        self.count += 1
        _fold(self._state, runs, np.copyto if self.count == 1 else self._rule)
        self._epoch = slot.epoch
        return template.over(self._state.astype(template.dtype))


class EmaScheme(_RunningScheme):
    """Exponentially decayed coefficients; newest checkpoint weighs ``alpha``."""

    kind = "ema"

    def __init__(self, alpha: float = DEFAULT_EMA_ALPHA):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"ema alpha must lie in [0, 1], got {alpha}")
        super().__init__()
        self.alpha = alpha

    def _rule(self, acc, x):
        acc *= 1.0 - self.alpha  # alpha * x + (1 - alpha) * acc
        acc += np.multiply(x, self.alpha, dtype=np.float64)

    observe = _RunningScheme.observe


class PolyakScheme(_RunningScheme):
    """Running mean of all checkpoints since the start of the run."""

    kind = "polyak"

    def _rule(self, acc, x):
        step = np.subtract(x, acc, dtype=np.float64)  # acc + (x - acc) / count
        step /= self.count
        acc += step

    observe = _RunningScheme.observe


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
    full, each once, as a file slot from ``FILE_SLOT_BYTES`` on.
    Averaged-model outputs (``lawa_*.lawa``) living in the same run
    directory are not candidates. The result is what the in-loop scheme
    (``make_scheme(scheme, k, alpha)``) holds after observing the selected
    files, oldest first; it carries the newest checkpoint's epoch and step.
    A repeated epoch in the window, or an (epoch, step) that the k-th
    newest file shares with the one before it, raises
    :class:`EpochOrderError` naming both files.
    """
    if k < 1:
        raise ConfigError(f"averaging window k must be >= 1, got {k}")
    averager = make_scheme(scheme, k, alpha)
    if isinstance(averager, NoAveraging):
        raise ConfigError(f"scheme {scheme!r} yields no average")
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.lawa") if not p.name.startswith("lawa_"))
    if len(paths) < k:
        raise InsufficientCheckpoints(
            f"{directory} holds {len(paths)} checkpoint files, need {k}"
        )
    # Only the headers of the files outside the window are read.
    headers = {path: read_checkpoint_header(path) for path in paths}
    paths.sort(key=headers.__getitem__)
    if len(paths) > k and headers[paths[-k - 1]] == headers[paths[-k]]:
        epoch, step = headers[paths[-k]]
        raise EpochOrderError(
            f"{paths[-k - 1]} and {paths[-k]} both hold epoch {epoch}, step {step}, "
            f"so the {k} newest checkpoints are ambiguous"
        )
    for previous, path in zip([None, *paths[-k:]], paths[-k:]):
        averaged = None  # the last average goes before the next is made
        try:
            in_file = path.stat().st_size >= FILE_SLOT_BYTES
        except OSError:  # read_checkpoint says why
            in_file = False
        slot = open_checkpoint(path) if in_file else read_checkpoint(path)
        try:
            averaged = averager.observe(slot)
        except EpochOrderError as exc:
            raise EpochOrderError(f"{path} does not follow {previous}: {exc}") from exc
    return Checkpoint(params=averaged, epoch=slot.epoch, step=slot.step)
