"""Optimizers and learning-rate schedules for the training engine.

SGD uses the heavy-ball convention (v = mu*v + g; theta -= lr*v), Adam
is the bias-corrected variant with its usual constants, and Lookahead
wraps either, pulling fast weights back onto the slow weights every
``k`` inner steps.

A step runs its optimizer's block rule on each ``BLOCK``-element block
of the flat buffers: every per-element operation of the update, in the
order of the out-of-place expression, and on a Lookahead sync step the
pullback, so the bits are those of whole buffers. Blocks are disjoint,
and :func:`lanes.share` runs them, in two lanes from ``LANE_BLOCKS``
blocks on, with the bits of one lane. An optimizer holds only its state
(SGD velocity, Adam's m and v, Lookahead's slow weights), updated in
place. A block's update is built in the caller's ``scratch`` of
:func:`scratch_size` elements, or a new one, and no step reads scratch
it has not written. The new parameters go into a fresh set, or into
``out``, a set built by ``ParameterSet.over``, which may be the
parameters but shares no other memory with them or the gradients;
``scratch`` shares none with the parameters, the gradients, ``out`` or
the state. Without ``out`` the sets in and out are immutable values.
An optimizer steps sets of its first step's layout and refuses any
other with :class:`StructureMismatch`. A step that raises leaves the
state as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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

# Blocks from which a step shares them out to two lanes: the fewest at
# which two lanes made the Lookahead(Adam) step of a training loop faster
# than one; CHANGES.md has the times.
LANE_BLOCKS = 5

# Writes the new parameters of one block: (lane, block slice, parameters,
# gradients, output), the last three already cut to the block. The output
# may be the parameters: a rule reads them only in its last operation. It
# writes the block's slice of the state and the lane's scratch, nothing else.
BlockRule = Callable[[int, slice, np.ndarray, np.ndarray, np.ndarray], None]


def scratch_size(optimizer: Sgd | Adam | Lookahead, params: ParameterSet) -> int:
    """Elements of the scratch a step of ``optimizer`` on ``params`` takes:
    each of ``lanes.LANES`` lanes gets the optimizer's scratch blocks, each
    ``min(BLOCK, size)`` elements."""
    return lanes.LANES * optimizer._lane_blocks * min(BLOCK, params.flat.size)


def _run_blocks(
    params: ParameterSet, grads: ParameterSet, rule: BlockRule, out: ParameterSet | None
) -> ParameterSet:
    """The set ``rule`` writes block by block: ``out``, or a fresh set when
    that is None. :func:`lanes.share` runs the blocks, in two lanes from
    ``LANE_BLOCKS`` blocks on."""
    theta, g = params.flat, grads.flat
    flat = np.empty_like(theta) if out is None else out.buffer

    def run_block(lane: int, start: int) -> None:
        block = slice(start, start + BLOCK)
        rule(lane, block, theta[block], g[block], flat[block])

    starts = range(0, theta.size, BLOCK)
    lanes.share(starts, run_block, len(starts) >= LANE_BLOCKS)
    return params.with_flat(flat) if out is None else out


class _BlockOptimizer:
    """An optimizer whose ``step`` runs the block rule it makes per step.

    Subclasses supply ``_lane_blocks``, the scratch blocks a lane takes,
    ``_layout``, a template of the first step's set (None before it),
    ``_state()``, the state arrays, and ``_block_rule(params, lr,
    scratch)``, which gets the scratch as ``(LANES, _lane_blocks,
    min(BLOCK, size))``; they bind ``step`` in their own namespace, so
    perfbench's tracer can rebind it per class.
    """

    def step(
        self,
        params: ParameterSet,
        grads: ParameterSet,
        lr: float,
        *,
        out: ParameterSet | None = None,
        scratch: np.ndarray | None = None,
    ) -> ParameterSet:
        """The updated parameters, written into ``out`` when given; the
        block temporaries go into ``scratch`` when given."""
        size = scratch_size(self, params)
        self._check_step(params, grads, out, scratch, size)
        if scratch is None:
            scratch = np.empty(size, params.dtype)
        blocks = scratch.reshape(-1)[:size].reshape(lanes.LANES, self._lane_blocks, -1)
        return _run_blocks(params, grads, self._block_rule(params, lr, blocks), out)

    def _check_step(
        self,
        params: ParameterSet,
        grads: ParameterSet,
        out: ParameterSet | None,
        scratch: np.ndarray | None,
        size: int,
    ) -> None:
        """Check a step's inputs before any state changes; ``size`` is the
        step's :func:`scratch_size`."""
        if self._layout is not None:
            check_same_structure(self._layout, params)
        check_same_structure(params, grads)
        if out is not None:
            check_same_structure(params, out)
            if out.buffer is None:
                raise ValueError("out must be a set built by ParameterSet.over")
            if out is not params and np.may_share_memory(out.buffer, params.flat):
                raise ValueError("out shares memory with the parameters but is not them")
            if np.may_share_memory(out.buffer, grads.flat):
                raise ValueError("out shares memory with the gradients")
        if scratch is not None:
            if scratch.dtype != params.dtype:
                raise ValueError(f"scratch of {scratch.dtype} for parameters of {params.dtype}")
            if scratch.size < size:
                raise ValueError(f"scratch of {scratch.size} elements; a step takes {size}")
            if not scratch.flags.writeable:
                raise ValueError("scratch is read-only")
            held = [("the parameters", params.flat), ("the gradients", grads.flat)]
            if out is not None and out is not params:
                held.append(("out", out.buffer))
            held += [("the optimizer state", a) for a in self._state()]
            for name, arr in held:
                if np.may_share_memory(scratch, arr):
                    raise ValueError(f"scratch shares memory with {name}")
        if not np.isfinite(grads.flat).all():
            name = next(n for n, g in grads.items() if not np.all(np.isfinite(g)))
            raise NonFiniteGradError(f"gradient entry {name!r} contains NaN or Inf")


class Sgd(_BlockOptimizer):
    """Stochastic gradient descent with heavy-ball momentum."""

    _lane_blocks = 1

    def __init__(self, momentum: float = DEFAULT_MOMENTUM):
        if momentum < 0.0:
            raise ConfigError(f"momentum must be >= 0, got {momentum}")
        self.momentum = momentum
        self.step_count = 0
        self._layout: ParameterSet | None = None
        self._velocity: np.ndarray | None = None

    def _state(self) -> list[np.ndarray]:
        return [] if self._velocity is None else [self._velocity]

    def _block_rule(self, params: ParameterSet, lr: float, scratch: np.ndarray) -> BlockRule:
        """Count the step; return the rule that makes its blocks."""
        if self._velocity is None:
            self._layout = params.as_template()
            self._velocity = np.zeros_like(params.flat)
        self.step_count += 1
        velocity, momentum = self._velocity, self.momentum

        def rule(lane, block, theta, g, out):
            v, update = velocity[block], scratch[lane, 0, : g.size]
            v *= momentum  # momentum * v + g
            v += g
            np.multiply(v, lr, out=update)
            np.subtract(theta, update, out=out)

        return rule

    step = _BlockOptimizer.step


class Adam(_BlockOptimizer):
    """Adam with bias correction; no weight decay."""

    _lane_blocks = 2

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
        self._layout: ParameterSet | None = None
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def _state(self) -> list[np.ndarray]:
        return [] if self._m is None else [self._m, self._v]

    def _block_rule(self, params: ParameterSet, lr: float, scratch: np.ndarray) -> BlockRule:
        """Count the step; return the rule that makes its blocks."""
        if self._m is None:
            self._layout = params.as_template()
            self._m = np.zeros_like(params.flat)
            self._v = np.zeros_like(params.flat)
        t = self.step_count + 1
        self.step_count = t
        beta1, beta2, eps = self.beta1, self.beta2, self.eps
        bias1, bias2 = 1.0 - beta1**t, 1.0 - beta2**t
        m_all, v_all = self._m, self._v

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

    step = _BlockOptimizer.step


class Lookahead(_BlockOptimizer):
    """Wrapper keeping slow weights that the fast weights sync back to.

    Its block rule is the inner optimizer's, followed every ``k`` steps by
    the pullback: the slow weights move a fraction ``alpha`` toward the
    fast weights, which are reset onto them. Slow weights initialize from
    the parameters of the first step; the inner ``step`` is never called,
    and the inner optimizer's first layout is this one's.
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

    @property
    def _lane_blocks(self) -> int:
        return self.inner._lane_blocks

    @property
    def _layout(self) -> ParameterSet | None:
        return self.inner._layout

    def _state(self) -> list[np.ndarray]:
        return ([] if self._slow is None else [self._slow]) + self.inner._state()

    def _block_rule(self, params: ParameterSet, lr: float, scratch: np.ndarray) -> BlockRule:
        """Count the step; return the inner rule, followed on every
        ``k``-th step by the pullback."""
        inner_rule = self.inner._block_rule(params, lr, scratch)
        if self._slow is None:
            self._slow = params.flat.copy()
        self.inner_counter += 1
        self.step_count += 1
        if self.inner_counter < self.k:
            return inner_rule
        self.inner_counter = 0
        slow_all, alpha = self._slow, self.alpha

        def rule(lane, block, theta, g, out):
            inner_rule(lane, block, theta, g, out)
            slow = slow_all[block]  # slow + alpha * (fast - slow)
            out -= slow
            out *= alpha
            out += slow
            slow[...] = out

        return rule

    step = _BlockOptimizer.step


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
        if lookahead_inner not in ("sgd", "adam"):
            raise ConfigError(f"unknown lookahead inner optimizer {lookahead_inner!r}")
        inner = make_optimizer(lookahead_inner, momentum, beta1, beta2, adam_eps)
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
