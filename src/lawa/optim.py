"""Optimizers and learning-rate schedules for the training engine.

SGD uses the heavy-ball convention (v = mu*v + g; theta -= lr*v), Adam is
the bias-corrected variant with its usual constants, and Lookahead wraps
either of them, pulling fast weights back onto the slow weights every
``k`` inner steps. Optimizer state (SGD velocity, Adam's m and v) is
updated in place: each step runs the update rule's per-element operations
in their usual order through ``out=``, so the results are bitwise those of
the out-of-place expressions, and allocates only the buffer of the
parameter set it returns. Lookahead builds its pullback in that buffer
and keeps it, read-only, as its slow weights. The parameter sets going in
and out are still immutable values: no step writes memory that a set
shares, and a step that raises leaves the state as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteGradError
from .params import ParameterSet, check_same_structure

DEFAULT_MOMENTUM = 0.9
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_ADAM_EPS = 1e-8
DEFAULT_LOOKAHEAD_ALPHA = 0.8
DEFAULT_LOOKAHEAD_K = 5


def _check_grads(params: ParameterSet, grads: ParameterSet) -> None:
    check_same_structure(params, grads)
    if not np.all(np.isfinite(grads.flat)):
        name = next(n for n, g in grads.items() if not np.all(np.isfinite(g)))
        raise NonFiniteGradError(f"gradient entry {name!r} contains NaN or Inf")


class Sgd:
    """Stochastic gradient descent with heavy-ball momentum."""

    def __init__(self, momentum: float = DEFAULT_MOMENTUM):
        if momentum < 0.0:
            raise ConfigError(f"momentum must be >= 0, got {momentum}")
        self.momentum = momentum
        self.step_count = 0
        self._velocity: np.ndarray | None = None

    def step(self, params: ParameterSet, grads: ParameterSet, lr: float) -> ParameterSet:
        _check_grads(params, grads)
        if self._velocity is None:
            self._velocity = np.zeros_like(params.flat)
        v = self._velocity  # momentum * v + g
        v *= self.momentum
        v += grads.flat
        self.step_count += 1
        out = np.multiply(v, lr)
        return params.with_flat(np.subtract(params.flat, out, out=out))


class Adam:
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

    def step(self, params: ParameterSet, grads: ParameterSet, lr: float) -> ParameterSet:
        _check_grads(params, grads)
        if self._m is None:
            self._m = np.zeros_like(params.flat)
            self._v = np.zeros_like(params.flat)
            self._scratch = np.empty_like(params.flat)
        t = self.step_count + 1
        g, m, v, s = grads.flat, self._m, self._v, self._scratch
        np.multiply(g, 1.0 - self.beta1, out=s)  # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        m += s
        np.multiply(g, 1.0 - self.beta2, out=s)  # v = beta2 * v + (1 - beta2) * g * g
        s *= g
        v *= self.beta2
        v += s
        out = np.divide(m, 1.0 - self.beta1**t)  # lr * m_hat / (sqrt(v_hat) + eps)
        out *= lr
        np.divide(v, 1.0 - self.beta2**t, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        out /= s
        self.step_count = t
        return params.with_flat(np.subtract(params.flat, out, out=out))


class Lookahead:
    """Wrapper keeping slow weights that the fast weights sync back to.

    Every ``k`` inner steps the slow weights move a fraction ``alpha``
    toward the fast weights and the fast weights are reset onto them
    (pullback). Slow weights initialize from the parameters seen at the
    first step call.
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

    def step(self, params: ParameterSet, grads: ParameterSet, lr: float) -> ParameterSet:
        fast = self.inner.step(params, grads, lr)
        if self._slow is None:
            self._slow = params.flat
        self.inner_counter += 1
        self.step_count += 1
        if self.inner_counter == self.k:
            self.inner_counter = 0
            out = np.subtract(fast.flat, self._slow)  # slow + alpha * (fast - slow)
            out *= self.alpha
            out += self._slow
            pulled = fast.with_flat(out)
            self._slow = pulled.flat
            return pulled
        return fast


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
