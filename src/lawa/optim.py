"""Optimizers and learning-rate schedules for the training engine.

SGD uses the heavy-ball convention (v = mu*v + g; theta -= lr*v), Adam is
the bias-corrected variant with its usual constants, and Lookahead wraps
either of them, pulling fast weights back onto the slow weights every
``k`` inner steps. A step runs in blocks of ``BLOCK`` elements of the flat
buffers: each block goes through every per-element operation of the
update rule, in the rule's usual order through ``out=``, and, on a
Lookahead sync step, through the pullback, while it is still in cache.
So the results are bitwise those of the out-of-place expressions over
whole buffers. Optimizer state (SGD velocity, Adam's m and v, Lookahead's
slow weights) is updated in place; a block's update is built in scratch
blocks (one for SGD, two for Adam), then subtracted from the parameters.
Blocks touch disjoint slices, so when the process may run on two CPUs,
a step of ``LANE_BLOCKS`` blocks or more shares them out to two lanes,
one of them on the worker thread of :mod:`lawa.lanes`, each lane taking
the next block not yet taken into its own scratch blocks; the bits are
those of one lane. A step writes the new parameters, and once every
block is done the entries it is given to replace, such as the batch-norm
running statistics of the forward pass, into the buffer of the set it
returns: a fresh one, or the caller's when the caller passes ``out``, a
set built by ``ParameterSet.over``. ``out`` may be the parameters, which
the step then updates in place, but shares no other memory with them,
the gradients or the replacements. Without ``out`` the sets going in and
out are immutable values; with it, the returned set is ``out`` and stays
unchanged only while its caller leaves that buffer alone. A step that
raises leaves the state as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import lanes
from .errors import ConfigError, NonFiniteGradError
from .params import ParameterSet, check_same_structure

DEFAULT_MOMENTUM = 0.9
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_ADAM_EPS = 1e-8
DEFAULT_LOOKAHEAD_ALPHA = 0.8
DEFAULT_LOOKAHEAD_K = 5

# Elements per block of a step. Adam with Lookahead, in place, reads and
# writes seven buffers per block (parameters, gradients, m, v, two scratch
# blocks, slow weights): 1.75 MiB of float64 at this size, within a 2 MiB
# L2 cache, and each of two lanes has its own core's L2. The size was timed
# against 4096 to 65536 elements and whole buffers; CHANGES.md has the times.
BLOCK = 32768

# Lanes a step's blocks are shared out to; each has its own scratch blocks.
LANES = 2
# Blocks from which a step shares them out to two lanes: the fewest at
# which two lanes made the Lookahead(Adam) step of a training loop faster
# than one; CHANGES.md has the times.
LANE_BLOCKS = 5

# Writes the new parameters of one block: (lane, block slice, parameters,
# gradients, output), the last three already cut to the block. The output
# may be the parameters: a rule reads them only in its last operation. It
# writes the block's slice of the state and the lane's scratch, nothing else.
BlockRule = Callable[[int, slice, np.ndarray, np.ndarray, np.ndarray], None]
Replacements = Mapping[str, np.ndarray]


def _check_step(
    params: ParameterSet,
    grads: ParameterSet,
    replace: Replacements | None,
    out: ParameterSet | None,
) -> list[tuple[slice, np.ndarray]]:
    """Check a step's inputs before any state changes; returns the slots
    of ``replace`` in the flat buffer."""
    check_same_structure(params, grads)
    slots = params.update_slots(replace) if replace else []
    if out is not None:
        check_same_structure(params, out)
        if out.buffer is None:
            raise ValueError("out must be a set built by ParameterSet.over")
        if out is not params and np.may_share_memory(out.buffer, params.flat):
            raise ValueError("out shares memory with the parameters but is not them")
        if any(np.may_share_memory(out.buffer, a) for a in (grads.flat, *(v for _, v in slots))):
            raise ValueError("out shares memory with the gradients or a replacement")
    if not np.isfinite(grads.flat).all():
        name = next(n for n, g in grads.items() if not np.all(np.isfinite(g)))
        raise NonFiniteGradError(f"gradient entry {name!r} contains NaN or Inf")
    return slots


def _run_blocks(
    params: ParameterSet,
    grads: ParameterSet,
    slots: list[tuple[slice, np.ndarray]],
    rule: BlockRule,
    out: ParameterSet | None,
) -> ParameterSet:
    """The set ``rule`` writes block by block, with ``slots`` written over
    it: ``out``, or a fresh set when that is None. From ``LANE_BLOCKS``
    blocks on, they are shared out to two lanes by :func:`lanes.share`."""
    theta, g = params.flat, grads.flat
    flat = np.empty_like(theta) if out is None else out.buffer

    def run_block(lane: int, start: int) -> None:
        block = slice(start, start + BLOCK)
        rule(lane, block, theta[block], g[block], flat[block])

    starts = range(0, theta.size, BLOCK)
    if len(starts) >= LANE_BLOCKS:
        lanes.share(starts, run_block)
    else:
        for start in starts:
            run_block(0, start)
    for block, value in slots:
        flat[block] = value
    return params.with_flat(flat) if out is None else out


def _lane_scratch(params: ParameterSet, blocks: int) -> np.ndarray:
    """``blocks`` scratch blocks per lane, zeroed, so a lane that never
    runs leaves its pages untouched. Twin optimizers given the same steps
    hold the same scratch bytes only while no step is shared out: which
    block a lane's scratch last held depends on which lane took it. No
    step reads scratch it has not written."""
    return np.zeros((LANES, blocks, min(BLOCK, params.flat.size)), params.dtype)


class _InnerOptimizer:
    """An update rule that runs alone or inside :class:`Lookahead`.

    Subclasses supply ``_block_rule`` and bind ``step`` in their own
    namespace, so perfbench's tracer can rebind it per class.
    """

    def step(
        self,
        params: ParameterSet,
        grads: ParameterSet,
        lr: float,
        replace: Replacements | None = None,
        *,
        out: ParameterSet | None = None,
    ) -> ParameterSet:
        """The updated parameters, with the entries in ``replace`` set to
        the given values, written into ``out`` when given."""
        slots = _check_step(params, grads, replace, out)
        return _run_blocks(params, grads, slots, self._block_rule(params, lr), out)


class Sgd(_InnerOptimizer):
    """Stochastic gradient descent with heavy-ball momentum."""

    def __init__(self, momentum: float = DEFAULT_MOMENTUM):
        if momentum < 0.0:
            raise ConfigError(f"momentum must be >= 0, got {momentum}")
        self.momentum = momentum
        self.step_count = 0
        self._velocity: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def _block_rule(self, params: ParameterSet, lr: float) -> BlockRule:
        """Count the step; return the rule that makes its blocks."""
        if self._velocity is None:
            self._velocity = np.zeros_like(params.flat)
            self._scratch = _lane_scratch(params, 1)
        self.step_count += 1
        velocity, momentum, scratch = self._velocity, self.momentum, self._scratch

        def rule(lane, block, theta, g, out):
            v, update = velocity[block], scratch[lane, 0, : g.size]
            v *= momentum  # momentum * v + g
            v += g
            np.multiply(v, lr, out=update)
            np.subtract(theta, update, out=out)

        return rule

    step = _InnerOptimizer.step


class Adam(_InnerOptimizer):
    """Adam with bias correction; no weight decay."""

    def __init__(
        self,
        beta1: float = DEFAULT_BETA1,
        beta2: float = DEFAULT_BETA2,
        eps: float = DEFAULT_ADAM_EPS,
    ):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError("adam betas must lie in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def _block_rule(self, params: ParameterSet, lr: float) -> BlockRule:
        """Count the step; return the rule that makes its blocks."""
        if self._m is None:
            self._m = np.zeros_like(params.flat)
            self._v = np.zeros_like(params.flat)
            self._scratch = _lane_scratch(params, 2)
        t = self.step_count + 1
        self.step_count = t
        beta1, beta2, eps = self.beta1, self.beta2, self.eps
        bias1, bias2 = 1.0 - beta1**t, 1.0 - beta2**t
        m_all, v_all, scratch = self._m, self._v, self._scratch

        def rule(lane, block, theta, g, out):
            m, v = m_all[block], v_all[block]
            s, update = scratch[lane, 0, : g.size], scratch[lane, 1, : g.size]
            np.multiply(g, 1.0 - beta1, out=s)  # m = beta1 * m + (1 - beta1) * g
            m *= beta1
            m += s
            np.multiply(g, 1.0 - beta2, out=s)  # v = beta2 * v + (1 - beta2) * g * g
            s *= g
            v *= beta2
            v += s
            np.divide(m, bias1, out=update)  # lr * m_hat / (sqrt(v_hat) + eps)
            update *= lr
            np.divide(v, bias2, out=s)
            np.sqrt(s, out=s)
            s += eps
            update /= s
            np.subtract(theta, update, out=out)

        return rule

    step = _InnerOptimizer.step


class Lookahead:
    """Wrapper keeping slow weights that the fast weights sync back to.

    Every ``k`` inner steps the slow weights move a fraction ``alpha``
    toward the fast weights and the fast weights are reset onto them
    (pullback). Slow weights initialize from the parameters seen at the
    first step call; the values a step is given for replaced entries
    never reach them.
    """

    def __init__(
        self,
        inner: Sgd | Adam,
        alpha: float = DEFAULT_LOOKAHEAD_ALPHA,
        k: int = DEFAULT_LOOKAHEAD_K,
    ):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"lookahead alpha must lie in [0, 1], got {alpha}")
        if k < 1:
            raise ConfigError(f"lookahead k must be >= 1, got {k}")
        self.inner = inner
        self.alpha = alpha
        self.k = k
        self.step_count = 0
        self.inner_counter = 0
        self._slow: np.ndarray | None = None

    def step(
        self,
        params: ParameterSet,
        grads: ParameterSet,
        lr: float,
        replace: Replacements | None = None,
        *,
        out: ParameterSet | None = None,
    ) -> ParameterSet:
        """The inner step's parameters, pulled back on every ``k``-th call,
        with the entries in ``replace`` set to the given values, written
        into ``out`` when given."""
        slots = _check_step(params, grads, replace, out)
        inner_rule = self.inner._block_rule(params, lr)
        if self._slow is None:
            self._slow = params.flat.copy()
        self.inner_counter += 1
        self.step_count += 1
        if self.inner_counter < self.k:
            return _run_blocks(params, grads, slots, inner_rule, out)
        self.inner_counter = 0
        slow_all, alpha = self._slow, self.alpha

        def rule(lane, block, theta, g, out):
            inner_rule(lane, block, theta, g, out)
            slow = slow_all[block]  # slow + alpha * (fast - slow)
            out -= slow
            out *= alpha
            out += slow
            slow[...] = out

        return _run_blocks(params, grads, slots, rule, out)


def make_optimizer(
    kind: str,
    momentum: float = DEFAULT_MOMENTUM,
    beta1: float = DEFAULT_BETA1,
    beta2: float = DEFAULT_BETA2,
    adam_eps: float = DEFAULT_ADAM_EPS,
    lookahead_alpha: float = DEFAULT_LOOKAHEAD_ALPHA,
    lookahead_k: int = DEFAULT_LOOKAHEAD_K,
    lookahead_inner: str = "sgd",
) -> Sgd | Adam | Lookahead:
    if kind == "sgd":
        return Sgd(momentum=momentum)
    if kind == "adam":
        return Adam(beta1=beta1, beta2=beta2, eps=adam_eps)
    if kind == "lookahead":
        if lookahead_inner == "sgd":
            inner: Sgd | Adam = Sgd(momentum=momentum)
        elif lookahead_inner == "adam":
            inner = Adam(beta1=beta1, beta2=beta2, eps=adam_eps)
        else:
            raise ConfigError(f"unknown lookahead inner optimizer {lookahead_inner!r}")
        return Lookahead(inner, alpha=lookahead_alpha, k=lookahead_k)
    raise ConfigError(f"unknown optimizer {kind!r}")


@dataclass(frozen=True)
class ConstantSchedule:
    base: float

    def lr_at(self, t: int) -> float:
        return self.base


@dataclass(frozen=True)
class CosineSchedule:
    """Half-cosine decay from ``base`` at t=0 to 0 at t=total_steps."""

    base: float
    total_steps: int

    def lr_at(self, t: int) -> float:
        t = min(t, self.total_steps)
        return self.base * 0.5 * (1.0 + math.cos(math.pi * t / self.total_steps))


@dataclass(frozen=True)
class PolyWarmupSchedule:
    """Linear warmup to ``peak`` over ``warmup_steps``, then polynomial decay.

    After warmup the rate decays as
    ``end + (peak - end) * (1 - (t - W) / (T - W)) ** power``; beyond
    ``total_steps`` it stays clamped at the final value.
    """

    peak: float
    total_steps: int
    warmup_steps: int
    end: float = 0.0
    power: float = 1.0

    def __post_init__(self):
        if self.warmup_steps > self.total_steps:
            raise ConfigError(
                f"warmup steps {self.warmup_steps} exceed total steps {self.total_steps}"
            )

    def lr_at(self, t: int) -> float:
        t = min(t, self.total_steps)
        if t < self.warmup_steps:
            return self.peak * t / self.warmup_steps
        if self.total_steps == self.warmup_steps:
            return self.peak
        frac = (t - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        return self.end + (self.peak - self.end) * (1.0 - frac) ** self.power


LrSchedule = ConstantSchedule | CosineSchedule | PolyWarmupSchedule


def make_schedule(
    kind: str,
    lr: float,
    total_steps: int,
    warmup_steps: int = 0,
    end_lr: float = 0.0,
    power: float = 1.0,
) -> LrSchedule:
    if lr < 0.0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    if kind == "constant":
        return ConstantSchedule(lr)
    if kind == "cosine":
        if total_steps < 1:
            raise ConfigError("cosine schedule needs total_steps >= 1")
        return CosineSchedule(lr, total_steps)
    if kind == "poly_warmup":
        if total_steps < 1:
            raise ConfigError("poly_warmup schedule needs total_steps >= 1")
        return PolyWarmupSchedule(
            peak=lr,
            total_steps=total_steps,
            warmup_steps=warmup_steps,
            end=end_lr,
            power=power,
        )
    raise ConfigError(f"unknown schedule {kind!r}")
