"""Averaging schemes over checkpoint trajectories.

Four schemes are supported:

* ``uniform`` — mean of the k most recently saved checkpoints, recomputed
  at every save once k checkpoints exist. The window is held in a
  fixed-capacity ring; the default window is 6 and a warning is emitted
  for windows above 16, which tend to hurt rather than help.
* ``ema`` — exponential recursion ``avg_0 = c_0`` then
  ``avg_t = alpha * c_t + (1 - alpha) * avg_{t-1}`` (newest checkpoint
  gets weight alpha). The recursion is unbounded; no window applies.
* ``polyak`` — running mean of every checkpoint since the start.
* ``none`` — no averaging; ``observe`` never yields a model.

All accumulation happens in float64 regardless of the checkpoint element
type, with a final cast back, so long windows do not drift.
"""

from __future__ import annotations

import warnings
from collections import deque
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checkpoint_io import read_checkpoint, read_checkpoint_header
from .errors import (
    ConfigError,
    ConfigWarning,
    EpochOrderError,
    InsufficientCheckpoints,
    InternalStateError,
)
from .params import Checkpoint, ParameterSet, check_finite, check_same_structure

DEFAULT_WINDOW = 6
DEFAULT_EMA_ALPHA = 0.9
WINDOW_WARN_THRESHOLD = 16


class CheckpointRing:
    """FIFO of the ``capacity`` most recently pushed checkpoints.

    Pushes must come in strictly increasing epoch order; once full, each
    push evicts exactly the oldest slot.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: deque[Checkpoint] = deque(maxlen=capacity)

    def push(self, ckpt: Checkpoint) -> None:
        if self._slots and ckpt.epoch <= self._slots[-1].epoch:
            raise EpochOrderError(
                f"checkpoint epoch {ckpt.epoch} is not greater than "
                f"newest stored epoch {self._slots[-1].epoch}"
            )
        self._slots.append(ckpt)

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Checkpoint]:
        """Oldest first."""
        return iter(self._slots)

    @property
    def newest(self) -> Checkpoint:
        return self._slots[-1]


def uniform_average(ckpts: Sequence[Checkpoint]) -> ParameterSet:
    """Elementwise arithmetic mean of the checkpoints' parameters.

    All checkpoints must match structurally and contain only finite
    values. Accumulates in float64 and divides the sum in place, then
    casts back to the input element type.
    """
    if not ckpts:
        raise ConfigError("cannot average an empty checkpoint sequence")
    first = ckpts[0].params
    acc = np.zeros(first.flat.shape, dtype=np.float64)
    for c in ckpts:
        check_same_structure(first, c.params)
        check_finite(c.params, f"checkpoint at epoch {c.epoch}")
        acc += c.params.flat
    acc /= len(ckpts)
    return first.with_flat(acc)


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

    def observe(self, ckpt: Checkpoint) -> ParameterSet | None:
        """Absorb one checkpoint; return the scheme's current average, if any."""
        raise NotImplementedError


class NoAveraging(AveragingScheme):
    kind = "none"

    def observe(self, ckpt: Checkpoint) -> None:
        return None


class UniformScheme(AveragingScheme):
    """k-latest uniform averaging driven by a checkpoint ring."""

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

    def observe(self, ckpt: Checkpoint) -> ParameterSet | None:
        # A foreign checkpoint is named by its entry, not by its epoch.
        if len(self.ring):
            check_same_structure(self.ring.newest.params, ckpt.params)
        self.ring.push(ckpt)
        return lawa_step(self.ring, ckpt.epoch, self.k)


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

    def observe(self, ckpt: Checkpoint) -> ParameterSet:
        """Advance the fold by one checkpoint and return its value."""
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
        averaged = averager.observe(newest)
    if averaged is None:
        raise ConfigError(f"scheme {scheme!r} yields no average")
    return Checkpoint(params=averaged, epoch=newest.epoch, step=newest.step)
