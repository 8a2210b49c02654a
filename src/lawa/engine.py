"""Deterministic MLP training engine with optional batch normalization.

The model is a plain feed-forward stack: per hidden layer a linear map,
optional batch norm on the pre-activations, then ReLU; a final linear
layer produces logits (classification, softmax cross-entropy) or
predictions (regression, mean squared error).

Parameter naming convention: hidden layer ``i`` owns ``layer{i}.weight``
and ``layer{i}.bias``, plus ``layer{i}.bn_gamma``, ``layer{i}.bn_beta``,
``layer{i}.bn_running_mean`` and ``layer{i}.bn_running_var`` when batch
norm is enabled. Entries whose name ends in ``bn_running_mean`` or
``bn_running_var`` are normalization statistics, not trained weights:
backprop assigns them zero gradients, and each training step writes the
forward pass's running statistics into the loop's parameter buffer right
after the optimizer step, through :func:`set_running_stats`.

Everything is deterministic given the run seed: initialization, epoch
shuffles, and dataset noise each draw from their own keyed stream, so
e.g. changing the averaging scheme never perturbs the trajectory.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import lanes
from .averaging import AveragingScheme, make_scheme, window_slot
from .checkpoint_io import write_atomically, write_checkpoint
from .config import RunConfig, resolved_text
from .data import Dataset, load_csv, make_spirals
from .errors import ConfigError, EmptyDataError, IoError, NonFiniteError, ShapeError
from .metrics import MetricsRecord, MetricsWriter
from .optim import make_optimizer, make_schedule
from .params import Checkpoint, ParameterSet, check_same_structure
from .rng import rng_for

BN_EPS = 1e-5
# Weight of a training batch's statistics in the running batch-norm statistics.
BN_MOMENTUM = 0.1
# Rows per block over which recompute_bn_stats sums a batch-norm layer's product.
ROW_BLOCK = 256
# Rows times weight elements from which a hidden layer's products run in
# two lanes: backward's pair of products, and the forward's and inference
# walk's ``h @ w + b`` as two row halves, when each half holds at least 8
# rows. About the least at which two lanes made the step of a training
# loop faster than one; CHANGES.md has the times. The output layer's
# product, and every sum over rows, stays whole and in order.
LANE_PRODUCT = 1 << 23


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; fully determines the parameter name set."""

    widths: tuple[int, ...]  # input, hidden..., output
    use_bn: tuple[bool, ...]  # one flag per hidden layer
    loss: str = "cross_entropy"  # or "mse"
    init_seed: int = 0
    dtype: str = "f64"

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ConfigError("model needs at least one hidden layer")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"layer widths must be positive, got {self.widths}")
        if len(self.use_bn) != self.n_hidden:
            raise ConfigError(
                f"use_bn has {len(self.use_bn)} flags for {self.n_hidden} hidden layers"
            )
        if self.loss not in ("cross_entropy", "mse"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")

    @property
    def n_hidden(self) -> int:
        return len(self.widths) - 2

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.dtype == "f32" else np.float64)

    @property
    def has_bn(self) -> bool:
        return any(self.use_bn)


def model_spec_for(cfg: RunConfig, dataset: Dataset) -> ModelSpec:
    out_width = dataset.n_classes if dataset.kind == "classification" else 1
    return ModelSpec(
        widths=(dataset.n_features, *cfg.hidden, out_width),
        use_bn=tuple(cfg.use_bn for _ in cfg.hidden),
        loss="cross_entropy" if dataset.kind == "classification" else "mse",
        init_seed=cfg.seed,
        dtype=cfg.dtype,
    )


def is_running_stat(name: str) -> bool:
    return name.endswith("bn_running_mean") or name.endswith("bn_running_var")


def param_shapes(spec: ModelSpec) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each parameter entry's name and shape, in entry order."""
    for i in range(len(spec.widths) - 1):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        yield f"layer{i}.weight", (fan_in, fan_out)
        yield f"layer{i}.bias", (fan_out,)
        if i < spec.n_hidden and spec.use_bn[i]:
            for kind in ("bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var"):
                yield f"layer{i}.{kind}", (fan_out,)


# Initial value of every entry kind but the weights.
_INIT_FILL = {
    "bias": 0.0,
    "bn_gamma": 1.0,
    "bn_beta": 0.0,
    "bn_running_mean": 0.0,
    "bn_running_var": 1.0,
}


def init_params(spec: ModelSpec) -> ParameterSet:
    """Seeded initialization: uniform weights scaled by 1/sqrt(fan_in),
    zero biases, identity batch-norm (gamma 1, beta 0, mean 0, var 1)."""
    dtype = spec.np_dtype
    entries: list[tuple[str, np.ndarray]] = []
    for name, shape in param_shapes(spec):
        layer, kind = name.split(".")
        if kind == "weight":
            rng = rng_for(spec.init_seed, f"init:{layer}")
            bound = 1.0 / np.sqrt(shape[0])
            entries.append((name, rng.uniform(-bound, bound, shape).astype(dtype)))
        else:
            entries.append((name, np.full(shape, _INIT_FILL[kind], dtype=dtype)))
    return ParameterSet(entries)


class InferenceBuffers:
    """Two row buffers that inference passes write their hidden layers into.

    Hidden layer ``i`` of a pass over ``n`` rows is a leading ``n``-row
    view of buffer ``i % 2``, so each layer reads the buffer the layer
    before it wrote. Both buffers grow on demand to the largest request,
    rows times the widest hidden layer, and are reused by later passes;
    they are freed with this object. A training loop holds one for all its
    evaluations, so no pass allocates and faults in fresh layer arrays.
    Nothing a pass returns is a view of these buffers.
    """

    __slots__ = ("_pair",)

    def __init__(self):
        self._pair = (np.empty(0), np.empty(0))

    def hidden_rows(self, spec: ModelSpec, n: int) -> list[np.ndarray]:
        """One ``(n, width)`` view per hidden layer of ``spec``, alternating
        between the two buffers."""
        size = n * max(spec.widths[1:-1])
        if self._pair[0].size < size or self._pair[0].dtype != spec.np_dtype:
            self._pair = (np.empty(size, spec.np_dtype), np.empty(size, spec.np_dtype))
        return [
            self._pair[i % 2][: n * width].reshape(n, width)
            for i, width in enumerate(spec.widths[1:-1])
        ]


def _layer_rows(spec: ModelSpec, n: int) -> list[tuple[np.ndarray, ...]]:
    """Each hidden layer's ``n`` rows for a training pass: its product,
    its batch-norm output (None without batch norm), its ReLU output and
    its ReLU mask."""
    def rows(width: int, dtype: np.dtype = spec.np_dtype) -> np.ndarray:
        return np.empty((n, width), dtype)

    return [
        (rows(w), rows(w) if spec.use_bn[i] else None, rows(w), rows(w, np.dtype(bool)))
        for i, w in enumerate(spec.widths[1:-1])
    ]


class TrainingBuffers:
    """Everything a training step writes, for one model and batch size.

    Built once from the parameters, the model and the batch size, it
    holds the input batch in the model's element type, each hidden
    layer's batch rows, one spare set of rows as wide as the widest
    hidden layer, and one gradient set, built by
    :meth:`ParameterSet.over` and laid out like the parameters. A layer's
    rows are its product (``zhat`` after batch norm), its batch-norm
    output (None without batch norm), its ReLU output and its ReLU mask.
    ``backward`` writes each layer's ``d_h`` into the spare rows: the
    product that makes it may run beside the one that reads the layer's
    ReLU output for the next weight gradient, so it cannot go there. It
    reuses each layer row once the layer's last read of it is done: the
    batch-norm product goes into its ReLU output rows, and ``d_pre`` into
    its pre-activation rows. So a ``backward`` through the buffers that
    its ``forward`` wrote consumes the activations in the cache. Both
    passes raise :class:`ShapeError`, before they write anything, on
    buffers built for another model or batch size.

    Every array it hands out is rewritten by a later step: the
    activations a ``forward`` caches and the gradients ``backward``
    returns. Copy what must outlive the next step. The memory is freed
    with this object and every view of it; ``train_variants`` builds one
    per epoch and drops it after the epoch's last step.
    """

    __slots__ = ("spec", "batch_size", "input", "layers", "spare", "d_h", "grads", "grad_views")

    def __init__(self, params: ParameterSet, spec: ModelSpec, batch_size: int):
        self.spec, self.batch_size = spec, batch_size
        self.input = np.empty((batch_size, spec.widths[0]), spec.np_dtype)
        self.layers = _layer_rows(spec, batch_size)
        self.spare = np.empty(batch_size * max(spec.widths[1:-1]), spec.np_dtype)
        # Hidden layer i's d_h: a leading view of the spare rows.
        self.d_h = [self.spare[: batch_size * w].reshape(batch_size, w) for w in spec.widths[1:-1]]
        self.grads = params.over(np.empty(params.total_size(), params.dtype))
        self.grad_views = params.entry_views(self.grads.buffer)

    def check(self, spec: ModelSpec, n: int) -> None:
        """Raise :class:`ShapeError` unless these buffers serve ``n``-row
        batches of ``spec``."""
        if n != self.batch_size or spec != self.spec:
            raise ShapeError(
                f"a {n}-row batch of {spec.widths} does not fit training buffers "
                f"for {self.batch_size}-row batches of {self.spec.widths}"
            )

    def gather(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``x[rows]`` written into the input batch rows. An ``x`` not in the
        model's element type is gathered, then cast into the rows: ``take``
        with ``out=`` would also read their old values and cast them."""
        if x.dtype != self.input.dtype:
            self.input[...] = x[rows]
            return self.input
        return x.take(rows, axis=0, out=self.input)


def forward(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    training: bool,
    *,
    buffers: InferenceBuffers | TrainingBuffers | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the network; returns (outputs, cache) without touching params.

    In training mode batch norm normalizes with batch statistics and the
    cache carries momentum-updated running statistics under
    ``cache["bn_updates"]``, plus the activations ``backward`` needs; in
    inference mode the stored running statistics are used and no layer's
    activations are kept. Each mode writes its hidden layers into its own
    kind of ``buffers``, :class:`TrainingBuffers` or
    :class:`InferenceBuffers`, or into fresh rows for this batch when
    None (no gradient set: only ``backward`` writes one); of the
    batch-sized arrays only the outputs, and a cast of ``x`` to the
    model's element type, are allocated, and ``x`` is never written. A
    training batch-norm layer computes ``z - mu`` once and reuses its
    rows and those of its squares for ``zhat`` and the layer's output,
    bitwise as ``z.var(axis=0)``, ``(z - mu) * inv`` and ``gamma * zhat +
    beta`` compute them. Inference runs the hidden layers in place,
    bitwise as the out-of-place expression ``gamma * ((h @ w + b - mean)
    * inv) + beta``. A wide hidden layer's ``h @ w + b`` (see
    :func:`_hidden_product`) is two row halves handed to
    :func:`lanes.share`; the batch-norm statistics and the output layer's
    product stay whole, and two lanes give the bits of one.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != spec.widths[0]:
        raise ShapeError(
            f"batch shape {x.shape} does not match input width {spec.widths[0]}"
        )
    kind = TrainingBuffers if training else InferenceBuffers
    if buffers is not None and not isinstance(buffers, kind):
        raise TypeError(f"this forward writes into {kind.__name__}, not {type(buffers).__name__}")
    h = x.astype(spec.np_dtype, copy=False)
    if not training:
        for _, z in _inference_layers(params, spec, h, buffers or InferenceBuffers(), params):
            pass  # each resumption normalizes and rectifies z in place
        outputs = _output_layer(params, spec, z)
        return outputs, {"layers": [], "last_input": None, "outputs": outputs, "bn_updates": {}}
    if buffers is None:
        rows = _layer_rows(spec, len(h))
    else:
        buffers.check(spec, len(h))
        rows = buffers.layers
    layers = []
    bn_updates: dict[str, np.ndarray] = {}
    for i, (z, bn_out, relu, _) in enumerate(rows):
        _hidden_product(h, params[f"layer{i}.weight"], params[f"layer{i}.bias"], z)
        bn_cache = None
        if spec.use_bn[i]:
            gamma = params[f"layer{i}.bn_gamma"]
            beta = params[f"layer{i}.bn_beta"]
            mu = z.mean(axis=0)
            centered = np.subtract(z, mu, out=z)  # becomes zhat
            pre = np.square(centered, out=bn_out)  # then gamma * zhat + beta
            var = pre.mean(axis=0)  # population variance, as z.var(axis=0)
            m = BN_MOMENTUM
            bn_updates[f"layer{i}.bn_running_mean"] = (
                (1.0 - m) * params[f"layer{i}.bn_running_mean"] + m * mu
            ).astype(spec.np_dtype)
            bn_updates[f"layer{i}.bn_running_var"] = (
                (1.0 - m) * params[f"layer{i}.bn_running_var"] + m * var
            ).astype(spec.np_dtype)
            inv = 1.0 / np.sqrt(var + BN_EPS)
            zhat = np.multiply(centered, inv, out=centered)
            np.multiply(gamma, zhat, out=pre)
            pre += beta
            bn_cache = (zhat, inv)
        else:
            pre = z
        layers.append({"input": h, "bn": bn_cache, "pre_relu": pre})
        h = np.maximum(pre, 0.0, out=relu)
    outputs = _output_layer(params, spec, h)
    cache = {"layers": layers, "last_input": h, "outputs": outputs, "bn_updates": bn_updates}
    return outputs, cache


def _output_layer(params: ParameterSet, spec: ModelSpec, h: np.ndarray) -> np.ndarray:
    outputs = h @ params[f"layer{spec.n_hidden}.weight"]
    outputs += params[f"layer{spec.n_hidden}.bias"]
    if not np.isfinite(outputs).all():
        raise NonFiniteError("non-finite activations in forward pass")
    return outputs


def _inference_layers(
    params: ParameterSet, spec: ModelSpec, h: np.ndarray, buffers: InferenceBuffers,
    stats: ParameterSet | dict[str, np.ndarray],
) -> Iterator[tuple[int, np.ndarray]]:
    """The hidden layers of an inference pass, each in its view of ``buffers``.

    Yields ``(i, z)`` once ``z`` holds layer ``i``'s product plus bias.
    When resumed, it normalizes ``z`` in place with the running statistics
    ``stats`` holds for the layer by then, if it has batch norm, as
    ``gamma * ((z - mean) * inv) + beta`` one operation at a time in that
    order, then rectifies it; that ``z`` is the next layer's input, and
    once the walk is exhausted the last ``z`` holds the network's last
    hidden activations. A wide layer (see :func:`_hidden_product`) hands
    its product, and then its normalization and ReLU, to
    :func:`lanes.share` as two row halves; every row's bits are those of
    the whole.
    """
    for i, z in enumerate(buffers.hidden_rows(spec, len(h))):
        half = _hidden_product(h, params[f"layer{i}.weight"], params[f"layer{i}.bias"], z)
        yield i, z
        bn = None
        if spec.use_bn[i]:
            bn = (
                stats[f"layer{i}.bn_running_mean"],
                1.0 / np.sqrt(stats[f"layer{i}.bn_running_var"] + BN_EPS),
                params[f"layer{i}.bn_gamma"],
                params[f"layer{i}.bn_beta"],
            )
        if half:
            lanes.share(((z[:half], bn), (z[half:], bn)), _normalize_rectify, True)
        else:
            _normalize_rectify(0, (z, bn))
        h = z


def _hidden_product(h: np.ndarray, w: np.ndarray, b: np.ndarray, z: np.ndarray) -> int:
    """Write ``h @ w + b`` into ``z``; return the rows of the first of the
    two row halves that went to :func:`lanes.share`, or 0 when it ran whole.

    It runs in halves when the layer is wide (rows times weight elements
    reach ``LANE_PRODUCT``), each half holds at least 8 rows, since BLAS
    gave halves of 2 to 7 rows through a 512-square weight other bits
    than the whole product, and the process has a second CPU.
    """
    rows = len(h)
    half = rows // 2
    if rows * w.size < LANE_PRODUCT or half < 8 or lanes._cpu_count() < 2:
        np.matmul(h, w, out=z)
        z += b
        return 0
    lanes.share(((h[:half], z[:half], w, b), (h[half:], z[half:], w, b)), _affine, True)
    return half


def _affine(lane: int, operands: tuple[np.ndarray, ...]) -> None:
    """Write ``h @ w + b`` into ``z``, for ``operands`` ``(h, z, w, b)``."""
    h, z, w, b = operands
    np.matmul(h, w, out=z)
    z += b


def _normalize_rectify(lane: int, operands: tuple) -> None:
    """For ``operands`` ``(z, bn)``: normalize ``z`` in place as ``gamma *
    ((z - mean) * inv) + beta``, one operation at a time in that order,
    with ``bn`` ``(mean, inv, gamma, beta)`` unless it is None, then
    rectify it."""
    z, bn = operands
    if bn is not None:
        mean, inv, gamma, beta = bn
        z -= mean
        z *= inv
        z *= gamma
        z += beta
    np.maximum(z, 0.0, out=z)


def _loss_pieces(
    outputs: np.ndarray, labels: np.ndarray, spec: ModelSpec
) -> tuple[np.ndarray, ...]:
    """The pieces that the loss under ``spec.loss`` and its gradient are
    built from, once the labels are checked. Softmax cross-entropy rejects labels outside ``[0, n_classes)`` and
    gives ``(y, shifted, probs, row_sums)``: the labels, the outputs less
    each row's max, their unnormalized ``exp`` and its row sums. Squared
    error gives ``(diff,)``.
    """
    n = outputs.shape[0]
    if spec.loss == "cross_entropy":
        y = np.asarray(labels)
        if y.shape != (n,):
            raise ShapeError(f"labels shape {y.shape} does not match batch size {n}")
        if y.min() < 0 or y.max() >= spec.widths[-1]:
            raise ShapeError(f"class labels must lie in [0, {spec.widths[-1]})")
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        return y, shifted, probs, probs.sum(axis=1, keepdims=True)
    targets = np.asarray(labels, dtype=outputs.dtype)
    if targets.ndim == 1:
        targets = targets[:, None]
    if targets.shape != outputs.shape:
        raise ShapeError(
            f"targets shape {targets.shape} does not match outputs {outputs.shape}"
        )
    return (outputs - targets,)


def _row_losses(
    outputs: np.ndarray, labels: np.ndarray, spec: ModelSpec
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Each row's loss under ``spec.loss`` (for squared error, the row's
    mean) and its :func:`_loss_pieces`; callers reduce the rows."""
    pieces = _loss_pieces(outputs, labels, spec)
    if spec.loss == "cross_entropy":
        y, shifted, _, row_sums = pieces
        return np.log(row_sums[:, 0]) - shifted[np.arange(len(y)), y], pieces
    (diff,) = pieces
    return (diff * diff).mean(axis=1), pieces


def _product(lane: int, operands: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write ``a @ b`` into ``out``, for ``operands`` ``(a, b, out)``."""
    np.matmul(operands[0], operands[1], out=operands[2])


def backward(
    params: ParameterSet,
    spec: ModelSpec,
    batch: tuple[np.ndarray, np.ndarray],
    cache: dict,
    *,
    buffers: TrainingBuffers | None = None,
) -> ParameterSet:
    """Exact gradients of the batch-mean loss for every parameter entry.

    Running-statistics entries get zero gradients; they are not trained.
    The loss itself is not computed; :func:`batch_loss` gives it. Each
    gradient is written straight into its slot of the gradient buffer of
    ``buffers`` (a fresh set for this batch when None), laid out like
    ``params``, and the set over that buffer is returned. Each layer's
    ``d_h`` goes into the spare rows of ``buffers``, and its ``d_pre``
    and batch-norm product into its own rows, each after the last read of
    what the row held, so the cache of a ``forward`` through the same
    buffers is consumed; a fresh set leaves ``cache`` as it was. A
    batch-norm layer's input gradient is built in place, one operation at
    a time in the order of the out-of-place expression. Each hidden layer
    hands its weight-gradient product, and past the first layer the
    product that makes ``d_h``, to :func:`lanes.share`, wide when its rows
    times weight elements reach ``LANE_PRODUCT``; two lanes give the bits
    of one.
    """
    _, labels = batch
    outputs = cache["outputs"]
    if buffers is None:
        buffers = TrainingBuffers(params, spec, len(outputs))
    buffers.check(spec, len(outputs))
    check_same_structure(params, buffers.grads)
    pieces = _loss_pieces(outputs, labels, spec)
    if spec.loss == "cross_entropy":
        y, _, probs, row_sums = pieces
        probs /= row_sums
        probs[np.arange(len(y)), y] -= 1.0
        d_out = probs / len(y)
    else:
        (diff,) = pieces
        d_out = 2.0 * diff / diff.size

    grads, rows = buffers.grad_views, buffers.layers
    i_out = spec.n_hidden
    np.matmul(cache["last_input"].T, d_out, out=grads[f"layer{i_out}.weight"])
    d_out.sum(axis=0, out=grads[f"layer{i_out}.bias"])
    # Row reuse: d_h goes into the spare rows, the batch-norm product into
    # the layer's ReLU output rows, which its successor has read by then,
    # and d_pre into its pre-activation rows once the mask is taken.
    d_h = np.matmul(d_out, params[f"layer{i_out}.weight"].T, out=buffers.d_h[i_out - 1])

    for i in range(spec.n_hidden - 1, -1, -1):
        layer = cache["layers"][i]
        z_rows, bn_rows, relu_rows, mask = rows[i]
        d_pre = np.multiply(
            d_h,
            np.greater(layer["pre_relu"], 0.0, out=mask),
            out=z_rows if bn_rows is None else bn_rows,
        )
        if spec.use_bn[i]:
            zhat, inv = layer["bn"]
            product = np.multiply(d_pre, zhat, out=relu_rows)
            product.sum(axis=0, out=grads[f"layer{i}.bn_gamma"])
            d_pre.sum(axis=0, out=grads[f"layer{i}.bn_beta"])
            grads[f"layer{i}.bn_running_mean"].fill(0.0)
            grads[f"layer{i}.bn_running_var"].fill(0.0)
            # d_z = inv * (d_zhat - mean(d_zhat) - zhat * mean(d_zhat * zhat)),
            # one operation at a time in that order, in d_pre's buffer.
            d_zhat = np.multiply(d_pre, params[f"layer{i}.bn_gamma"], out=d_pre)
            mean_d_zhat = d_zhat.mean(axis=0)
            mean_product = np.multiply(d_zhat, zhat, out=product).mean(axis=0)
            d_z = d_zhat
            d_z -= mean_d_zhat
            d_z -= np.multiply(zhat, mean_product, out=product)
            d_z *= inv
        else:
            d_z = d_pre
        weight = params[f"layer{i}.weight"]
        # The weight gradient, then d_h past the first layer. Both read d_z
        # and write apart (d_h into the spare rows), so they may run at once.
        products = [(layer["input"].T, d_z, grads[f"layer{i}.weight"])]
        if i > 0:
            d_h = buffers.d_h[i - 1]
            products.append((d_z, weight.T, d_h))
        lanes.share(products, _product, len(d_z) * weight.size >= LANE_PRODUCT)
        d_z.sum(axis=0, out=grads[f"layer{i}.bias"])
    return buffers.grads


def batch_loss(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    labels: np.ndarray,
    training: bool = True,
) -> float:
    """Loss of one batch as a pure function of the parameters."""
    outputs, _ = forward(params, spec, x, training=training)
    return float(_row_losses(outputs, labels, spec)[0].mean())


def evaluate(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    labels: np.ndarray,
    batch_size: int | None = None,
    *,
    buffers: InferenceBuffers | None = None,
) -> tuple[float, float]:
    """Dataset-mean loss and accuracy in inference mode.

    Accuracy is the argmax-correct fraction with ties resolved toward the
    lowest class index; for regression it is NaN. A class label outside
    ``[0, n_classes)`` raises :class:`ShapeError`. Accuracy does not
    depend on ``batch_size``; the loss sums per-batch float64 partial
    sums, so another ``batch_size`` may change it by rounding only. Each
    batch is one ``forward``: BLAS gives the rows of a narrow output
    layer's product different bits at different row counts, so splitting
    a batch further would change the loss. Only a wide hidden layer runs
    as two row halves, one per lane, which give the bits of the whole;
    the output product and the loss sums stay whole and in order. The
    hidden layers go into ``buffers``; None makes a fresh set for this
    call. A ``batch_size`` below 1 raises :class:`ConfigError`.
    """
    n = len(x)
    if n == 0:
        raise EmptyDataError("cannot evaluate on an empty dataset")
    if batch_size is None:
        batch_size = n
    elif batch_size < 1:
        raise ConfigError(f"evaluation batch_size must be >= 1, got {batch_size}")
    buffers = buffers or InferenceBuffers()
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = x[start : start + batch_size]
        yb = labels[start : start + batch_size]
        outputs, _ = forward(params, spec, xb, training=False, buffers=buffers)
        rows, parts = _row_losses(outputs, yb, spec)
        loss_sum += float(rows.sum(dtype=np.float64))
        if spec.loss == "cross_entropy":
            correct += int((outputs.argmax(axis=1) == parts[0]).sum())
    loss = loss_sum / n
    accuracy = correct / n if spec.loss == "cross_entropy" else float("nan")
    return loss, accuracy


def set_running_stats(params: ParameterSet, updates: Mapping[str, np.ndarray]) -> ParameterSet:
    """``params`` with the named entries set to ``updates``: written into
    the buffer of a set built by :meth:`ParameterSet.over`, which is
    returned, or else into a new set. Pass an ``over`` set only when no one
    else reads its buffer, such as the training loop's parameters or the
    fresh set that every averaging scheme returns. A bad name or shape raises
    :class:`StructureMismatch` before any write."""
    if not updates:
        return params
    if params.buffer is None:
        return params.with_updates(updates)
    for block, value in params.update_slots(updates):
        params.buffer[block] = value
    return params


def recompute_bn_stats(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    *,
    buffers: InferenceBuffers | None = None,
) -> ParameterSet:
    """Replace running statistics with exact full-dataset statistics.

    Layers are processed front to back: each batch-norm layer's mean and
    population variance are accumulated over the whole dataset, stored,
    and then used when producing the activations feeding later layers.
    Non-normalization entries are returned untouched (bitwise).

    Each layer's product goes into the layer's view of ``buffers`` (a
    fresh set when None), as two row halves on two lanes when the layer is
    wide (see :func:`_inference_layers`). A batch-norm layer's float64 sums
    are taken whole, over blocks of ``ROW_BLOCK`` rows of that product, in
    row order; then the view is normalized and rectified in place. Nothing
    after the last batch-norm layer is computed, and the last one is not
    normalized, since no layer reads its output. The statistics are
    written by :func:`set_running_stats`, in place into a set built by
    :meth:`ParameterSet.over`.
    """
    if len(x) == 0:
        raise EmptyDataError("cannot recompute normalization statistics without data")
    if not spec.has_bn:
        return params
    dtype = spec.np_dtype
    h = np.asarray(x).astype(dtype, copy=False)
    n = len(h)
    last_bn = max(i for i, on in enumerate(spec.use_bn) if on)
    updates: dict[str, np.ndarray] = {}
    # Resuming the walk normalizes layer i from ``updates``: store its statistics first.
    for i, z in _inference_layers(params, spec, h, buffers or InferenceBuffers(), updates):
        if not spec.use_bn[i]:
            continue
        width = spec.widths[i + 1]
        total = np.zeros(width, dtype=np.float64)
        total_sq = np.zeros(width, dtype=np.float64)
        for start in range(0, n, ROW_BLOCK):
            block = z[start : start + ROW_BLOCK]
            total += block.sum(axis=0, dtype=np.float64)
            total_sq += (block * block).sum(axis=0, dtype=np.float64)
        mean = total / n
        var = np.maximum(total_sq / n - mean * mean, 0.0)
        updates[f"layer{i}.bn_running_mean"] = mean.astype(dtype)
        updates[f"layer{i}.bn_running_var"] = var.astype(dtype)
        if i == last_bn:
            break
    return set_running_stats(params, updates)


def copy_bn_stats(avg: ParameterSet, source: ParameterSet) -> ParameterSet:
    """``avg`` with the running statistics of ``source``, written by
    :func:`set_running_stats`, in place into a set built by
    :meth:`ParameterSet.over`."""
    return set_running_stats(
        avg, {name: arr for name, arr in source.items() if is_running_stat(name)}
    )


def apply_bn_mode(
    avg: ParameterSet,
    spec: ModelSpec,
    mode: str,
    newest: ParameterSet,
    train_x: np.ndarray | None,
    *,
    buffers: InferenceBuffers | None = None,
) -> ParameterSet:
    """Fix up the averaged model's normalization statistics.

    ``auto`` recomputes when the model has batch norm, through ``buffers``;
    every mode is a no-op on norm-free models.
    """
    if not spec.has_bn or mode == "off":
        return avg
    if mode == "auto" or mode == "recompute":
        return recompute_bn_stats(avg, spec, train_x, buffers=buffers)
    if mode == "copy":
        return copy_bn_stats(avg, newest)
    raise ConfigError(f"unknown bn mode {mode!r}")


def build_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset == "spirals":
        return make_spirals(cfg.seed, cfg.n_per_class, cfg.classes, cfg.noise)
    return load_csv(cfg.csv, cfg.label_column)


def checkpoint_path(out_dir: Path, slot: int) -> Path:
    return out_dir / f"ckpt_e{slot:05d}.lawa"


def averaged_path(out_dir: Path, slot: int) -> Path:
    return out_dir / f"lawa_e{slot:05d}.lawa"


def refuse_used_out_dir(out_dir: Path) -> None:
    """Raise :class:`ConfigError` when ``out_dir`` holds a run's outputs.

    A shorter run written over a longer one would leave the older run's
    later checkpoints behind, where offline averaging would select them.
    """
    used = sorted(
        p.name for p in out_dir.glob("*") if p.suffix == ".lawa" or p.name == "metrics.csv"
    )
    if used:
        raise ConfigError(
            f"output directory {out_dir} already holds {used[0]}; "
            "remove it or choose another output directory"
        )


# The only fields a variant of ``train_variants`` sets; every other field
# is the trajectory's.
AVERAGING_FIELDS = ("scheme", "k", "alpha", "out")


def train_run(cfg: RunConfig, dataset: Dataset | None = None) -> list[MetricsRecord]:
    """Train per the config, saving checkpoints and per-epoch metrics.

    Checkpoints are saved at the end of every epoch, or every
    ``save_every_steps`` optimizer steps when that is set; in the
    step-interval mode each save event takes the place of one epoch slot
    in the averaging window, and the epoch recorded in those checkpoint
    files counts save events. Any non-finite value aborts the run with
    the failing epoch in the error message. An output directory that
    already holds checkpoints or metrics is refused before any write.
    """
    return train_variants(cfg, [{}], dataset)[0]


@dataclass
class _Variant:
    """One variant's config, the trajectory's with its averaging fields
    set, and its averaging state along the trajectory."""

    cfg: RunConfig
    out_dir: Path
    scheme: AveragingScheme
    writer: MetricsWriter | None = None
    average: ParameterSet | None = None  # the newest average, until an epoch end evaluates it
    avg_metrics: tuple[float | None, float | None] = (None, None)  # its val loss and accuracy
    records: list[MetricsRecord] = field(default_factory=list)


def train_variants(
    cfg: RunConfig, variants: Sequence[Mapping[str, object]], dataset: Dataset | None = None
) -> list[list[MetricsRecord]]:
    """Train the trajectory of ``cfg`` once and average it once per
    variant, as ``train_run`` would for each variant's config alone;
    returns each variant's metrics records.

    A variant maps fields of ``AVERAGING_FIELDS`` to typed values, and
    its config is ``dataclasses.replace(cfg, **variant)``; a key outside
    ``AVERAGING_FIELDS`` raises :class:`ConfigError`. Forward, backward,
    the optimizer step and the raw-model evaluations run once; each save
    event writes the checkpoint once, hard-links it into every other
    output directory (writing it again where a link fails) and feeds
    every variant's averaging scheme one slot, the first directory's
    file's :func:`window_slot`: a large model's checkpoint is read back
    from that file at each average. Each directory ends up
    byte-identical to a ``train_run`` of its variant's config, except
    for ``wall_seconds``, which counts from the shared start. A
    non-finite value aborts every variant at the same epoch. Every
    variant's config is validated and every output directory checked
    before any write.

    The loop holds one parameter buffer, which each optimizer step
    updates in place. Each epoch builds a :class:`TrainingBuffers` for the
    activations and gradients of its steps and drops it after its last
    step, before that step's save event and the epoch's evaluations. At
    each save event and each epoch end the parameters are copied once
    into an immutable set, which serves both when they fall on the same
    step; the checkpoint files, the schemes, the evaluations and the
    averages see only these copies. A variant holds at most one average:
    the epoch end that evaluates it keeps only its validation loss and
    accuracy, which an epoch with no save event reports again, and a
    save event drops an average no epoch end evaluated. An empty training
    or validation split raises :class:`EmptyDataError`, and an output
    directory that cannot be created :class:`IoError`, before anything
    is written.
    """
    if not variants:
        raise ConfigError("train_variants needs at least one variant")
    runs = []
    for variant in variants:
        other = sorted(set(variant) - set(AVERAGING_FIELDS))
        if other:
            raise ConfigError(
                f"a variant sets {', '.join(other)}; a variant may set only "
                f"{', '.join(AVERAGING_FIELDS)}"
            )
        c = replace(cfg, **variant)
        c.validate()
        runs.append(_Variant(c, Path(c.out), make_scheme(c.scheme, c.k, c.alpha)))
    if len({v.out_dir for v in runs}) != len(runs):
        raise ConfigError("two variants share one output directory")
    for v in runs:
        refuse_used_out_dir(v.out_dir)
    if dataset is None:
        dataset = build_dataset(cfg)
    spec = model_spec_for(cfg, dataset)
    x_train, y_train = dataset.train()
    x_val, y_val = dataset.val()
    # Cast once, so that no step's gather or evaluation casts a batch.
    x_train, x_val = (x.astype(spec.np_dtype, copy=False) for x in (x_train, x_val))
    n_train = len(x_train)
    for split, rows in (("training", n_train), ("validation", len(x_val))):
        if rows == 0:
            raise EmptyDataError(f"the {split} split of the dataset is empty")
    steps_per_epoch = n_train // cfg.batch_size
    if steps_per_epoch < 1:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training split size {n_train}"
        )
    total_steps = cfg.epochs * steps_per_epoch
    # Without save_every_steps, a save follows each epoch's last step.
    save_every = cfg.save_every_steps or steps_per_epoch

    params = init_params(spec)
    params = params.over(params.flat.copy())  # the loop's one parameter buffer
    optimizer = make_optimizer(
        cfg.optimizer,
        momentum=cfg.momentum,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        adam_eps=cfg.adam_eps,
        lookahead_alpha=cfg.lookahead_alpha,
        lookahead_k=cfg.lookahead_k,
        lookahead_inner=cfg.lookahead_inner,
    )
    schedule = make_schedule(
        cfg.schedule,
        cfg.lr,
        total_steps,
        warmup_steps=cfg.warmup_steps,
        end_lr=cfg.end_lr,
        power=cfg.power,
    )
    for v in runs:
        try:
            v.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create output directory {v.out_dir}: {exc}") from exc
    for v in runs:
        write_atomically(
            v.out_dir / "config.resolved", resolved_text(v.cfg).encode("utf-8"), "config"
        )

    buffers = InferenceBuffers()  # every evaluation of this call shares them
    started = time.perf_counter()
    global_step = 0
    slot = 0

    def train_step(workspace: TrainingBuffers, sel: np.ndarray, lr: float) -> None:
        """One optimizer step on the training rows ``sel``; the views of
        ``workspace`` it takes end with the call."""
        xb, yb = workspace.gather(x_train, sel), y_train[sel]
        _, cache = forward(params, spec, xb, training=True, buffers=workspace)
        grads = backward(params, spec, (xb, yb), cache, buffers=workspace)
        optimizer.step(params, grads, lr, out=params)
        set_running_stats(params, cache["bn_updates"])

    def save_event() -> ParameterSet:
        """Write and average an immutable copy of the params; return it."""
        nonlocal slot
        # Every scheme that has yielded an average yields one at each later
        # save event, so an average no epoch end has read can go first.
        for v in runs:
            v.average = None
        current = params.with_flat(params.flat.copy())
        ckpt = Checkpoint(params=current, epoch=slot, step=global_step)
        # Every directory holds the checkpoint before any scheme can reject it.
        # The file is written once and hard-linked into the other directories;
        # no file is ever rewritten in place, so the links cannot diverge.
        first = checkpoint_path(runs[0].out_dir, slot)
        write_checkpoint(ckpt, first)
        for v in runs[1:]:
            path = checkpoint_path(v.out_dir, slot)
            try:
                os.link(first, path)
            except OSError:
                write_checkpoint(ckpt, path)
        handed = window_slot(first, ckpt)  # the other files are links or copies
        for v in runs:
            averaged = v.scheme.observe(handed)
            if averaged is None:
                continue
            averaged = apply_bn_mode(
                averaged, spec, v.cfg.bn_mode, current, x_train, buffers=buffers
            )
            if v.cfg.save_averaged:
                write_checkpoint(
                    Checkpoint(params=averaged, epoch=slot, step=global_step),
                    averaged_path(v.out_dir, slot),
                )
            v.average = averaged
        slot += 1
        return current

    with ExitStack() as stack:
        for v in runs:
            v.writer = stack.enter_context(MetricsWriter(v.out_dir / "metrics.csv"))
        for epoch in range(cfg.epochs):
            try:
                order = rng_for(cfg.seed, f"shuffle:{epoch}").permutation(n_train)
                workspace = TrainingBuffers(params, spec, cfg.batch_size)
                for b in range(steps_per_epoch):
                    sel = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                    last_lr = schedule.lr_at(global_step)
                    train_step(workspace, sel, last_lr)
                    global_step += 1
                    if b == steps_per_epoch - 1:
                        workspace = None  # not held through the save event and evaluations
                    saved = save_event() if global_step % save_every == 0 else None

                # Unless the epoch's last step saved a copy, make one to evaluate.
                if saved is None:
                    saved = params.with_flat(params.flat.copy())
                train_loss, train_acc = evaluate(saved, spec, x_train, y_train, buffers=buffers)
                val_loss, val_acc = evaluate(saved, spec, x_val, y_val, buffers=buffers)
                saved = None  # a window may keep it; this loop need not
                for v in runs:
                    if v.average is not None:
                        v.avg_metrics = evaluate(v.average, spec, x_val, y_val, buffers=buffers)
                        v.average = None
            except NonFiniteError as exc:
                raise type(exc)(f"run aborted at epoch {epoch}: {exc}") from exc

            for v in runs:
                avg_val_loss, avg_val_acc = v.avg_metrics
                record = MetricsRecord(
                    epoch=epoch,
                    step=global_step,
                    lr=last_lr,
                    train_loss=train_loss,
                    train_acc=train_acc,
                    val_loss=val_loss,
                    val_acc=val_acc,
                    avg_val_loss=avg_val_loss,
                    avg_val_acc=avg_val_acc,
                    wall_seconds=time.perf_counter() - started,
                )
                v.records.append(record)
                v.writer.append(record)
    return [v.records for v in runs]
