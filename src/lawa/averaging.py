"""Averaging schemes over checkpoint trajectories.

Four schemes are supported:

* ``uniform`` — mean of the k most recently saved checkpoints, recomputed
  at every save once k checkpoints exist. The default window is 6 and a
  warning is emitted for windows above 16, which tend to hurt rather than
  help. The window keeps each slot as it was handed in.
* ``ema`` — exponential recursion ``avg_0 = c_0`` then
  ``avg_t = alpha * c_t + (1 - alpha) * avg_{t-1}`` (newest checkpoint
  gets weight alpha). The recursion is unbounded; no window applies.
* ``polyak`` — running mean of every checkpoint since the start.
* ``none`` — no averaging; ``observe`` never yields a model.

Every scheme reads a slot, a checkpoint in memory or a reference to its
file as :func:`window_slot` picks, through one reader, :func:`_runs`,
and accumulates in float64 whatever the checkpoint element type, with a
final cast back, so long windows do not drift. Every fold is
elementwise, so an average is the same, bit for bit, from memory or from
files. Every average is a fresh set over a buffer that nothing else holds.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import replace
from functools import partial
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
    LawaError,
    NonFiniteError,
)
from .params import Checkpoint, ParameterSet, check_finite, check_same_structure

DEFAULT_WINDOW = 6
DEFAULT_EMA_ALPHA = 0.9
WINDOW_WARN_THRESHOLD = 16
# Bytes of a checkpoint file from which its slot is a reference to the
# file, whose values each average reads back, so a large model's window
# holds no parameter set between save events. Below it the checkpoint
# stays in memory: the few kilobytes saved are not worth a read, which
# costs several times the in-memory add (CHANGES.md has the times).
FILE_SLOT_BYTES = 1 << 18
# Elements per run of a slot's values, in memory or read from its file.
READ_BLOCK = 1 << 15

# A window slot: a checkpoint in memory, or a reference to its file.
Slot = Checkpoint | CheckpointFile


def window_slot(path, ckpt: Checkpoint | None = None) -> Slot:
    """The slot of the checkpoint file ``path``: a reference to the file
    from ``FILE_SLOT_BYTES`` of file size on, else a read-only copy of
    ``ckpt``, the checkpoint that was written there, or, without it, the
    file read into memory. Either way the slot is the window's own: the
    caller may go on to change ``ckpt``'s values, as a training loop's
    parameter buffer does."""
    try:
        size = Path(path).stat().st_size
    except OSError:  # read_checkpoint says why
        size = 0
    if size >= FILE_SLOT_BYTES:
        return open_checkpoint(path)
    if ckpt is None:
        return read_checkpoint(path)
    return replace(ckpt, params=ckpt.params.with_flat(ckpt.params.flat.copy()))


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
    result takes the layout of the first checkpoint and is built by
    :meth:`ParameterSet.over` on a fresh buffer that nothing else holds,
    so its owner may write it in place.
    """
    if not ckpts:
        raise ConfigError("cannot average an empty checkpoint sequence")
    template = _template(ckpts[0])
    acc = np.zeros(template.flat.shape, dtype=np.float64)
    for c in ckpts:
        _fold(acc, _runs(c, template), iadd)
    acc /= len(ckpts)
    return template.over(acc if acc.dtype == template.dtype else acc.astype(template.dtype))


class AveragingScheme:
    """Base interface: feed checkpoints, get averaged parameters when defined."""

    kind: str
    _template: ParameterSet | None = None  # the first checkpoint's layout, without values
    _epoch = -1  # of the newest checkpoint taken in
    _stopped: str | None = None  # why no right average can follow, once none can

    def observe(self, slot: Slot) -> ParameterSet | None:
        """Absorb one checkpoint, in memory or in its file; return the
        scheme's current average, if any, as a fresh set over a buffer that
        nothing else holds, the next ``observe`` included. A scheme may keep
        the slot as it was handed in, so a file slot's file must stay
        unchanged while the scheme lives.
        """
        raise NotImplementedError

    def _admit(self, slot: Slot) -> ParameterSet:
        """Every averaging scheme's one rule, checked before it takes a
        checkpoint in: the layout of the first, then an epoch greater than
        the last, so a foreign checkpoint is named by its entry, not by its
        epoch. Returns the layout, which the caller records with the epoch
        once it has taken the checkpoint in. A scheme that has stopped
        raises :class:`InternalStateError` saying why."""
        if self._stopped is not None:
            raise InternalStateError(f"{self._stopped}; this scheme takes no further checkpoints")
        layout = _template(slot)
        template = self._template
        if template is None:
            shapes = [(name, arr.shape) for name, arr in layout.items()]
            template = ParameterSet.template(layout.dtype, shapes)
        check_same_structure(template, layout)
        if slot.epoch <= self._epoch:
            raise EpochOrderError(
                f"checkpoint epoch {slot.epoch} is not greater than "
                f"newest stored epoch {self._epoch}"
            )
        return template


class NoAveraging(AveragingScheme):
    kind = "none"

    def observe(self, slot: Slot) -> None:
        return None


class UniformScheme(AveragingScheme):
    """k-latest uniform averaging over ``window``, the k newest slots as
    they were observed, oldest first.

    ``observe`` is all or nothing: it averages the window it would have
    and takes the slot in only once that succeeds. A checkpoint in memory
    must be finite even before the window fills; a file slot is checked
    when an average first reads it. A slot already in the window that
    fails there can never leave it, so the scheme then stops: every later
    ``observe`` raises :class:`InternalStateError` naming its epoch.
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
        self.window: deque[Slot] = deque(maxlen=k)

    def observe(self, slot: Slot) -> ParameterSet | None:
        layout = self._admit(slot)
        window = [*self.window, slot][-self.k :]
        average = None
        if len(window) == self.k:
            try:
                average = uniform_average(window)
            except LawaError:
                self._stop_at_a_failing_slot(window[:-1], layout)
                raise
        elif isinstance(slot, Checkpoint):
            check_finite(slot.params, f"checkpoint at epoch {slot.epoch}")
        self.window.append(slot)
        self._template, self._epoch = layout, slot.epoch
        return average

    def _stop_at_a_failing_slot(self, held: list[Slot], layout: ParameterSet) -> None:
        """Stop the scheme at the first of ``held``, the slots the window
        keeps, that its reader refuses; only a file never read before can."""
        for slot in held:
            try:
                for _ in _runs(slot, layout):
                    pass
            except LawaError as exc:
                self._stopped = f"the window holds the checkpoint at epoch {slot.epoch}: {exc}"
                return


class _RunningScheme(AveragingScheme):
    """A float64 fold over every checkpoint since the start of the run.

    The first checkpoint starts the state; each later one is folded in run
    by run by the subclass's ``_rule(acc, x)``: it updates ``acc``, a run
    of the state, in place with ``x``, the checkpoint's values there, as
    the ``count + 1``-th checkpoint. No checkpoint is kept. ``count``
    counts whole folds. A file slot that fails once a run of it has been
    folded into a started state leaves that state part folded, so every
    later ``observe`` raises :class:`InternalStateError` naming its epoch;
    any other failure leaves the scheme as it was. Subclasses bind
    ``observe`` in their own namespace, so perfbench's tracer can rebind
    it per class.
    """

    def __init__(self):
        self._state: np.ndarray | None = None
        self.count = 0

    def observe(self, slot: Slot) -> ParameterSet:
        """Advance the fold by one checkpoint and return its value."""
        layout = self._admit(slot)
        runs = _runs(slot, layout)
        if self.count == 0:  # a failed first fold leaves nothing the next one reads
            self._state = np.empty(layout.flat.size, np.float64)
            _fold(self._state, runs, np.copyto)
        else:
            _fold(self._state, runs, partial(self._fold_run, slot.epoch))
            self._stopped = None
        self.count += 1
        self._template, self._epoch = layout, slot.epoch
        return layout.over(self._state.astype(layout.dtype))

    def _fold_run(self, epoch: int, acc: np.ndarray, x: np.ndarray) -> None:
        # Until the whole checkpoint is folded in, the state is part folded.
        self._stopped = f"the fold of the checkpoint at epoch {epoch} failed part way"
        self._rule(acc, x)


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
        step = np.subtract(x, acc, dtype=np.float64)  # acc + (x - acc) / (count + 1)
        step /= self.count + 1
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
    full, each once, as its :func:`window_slot`.
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
        slot = window_slot(path)
        try:
            averaged = averager.observe(slot)
        except EpochOrderError as exc:
            raise EpochOrderError(f"{path} does not follow {previous}: {exc}") from exc
    return Checkpoint(params=averaged, epoch=slot.epoch, step=slot.step)
