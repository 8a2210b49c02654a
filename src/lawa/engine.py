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

import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import lanes
from .averaging import AveragingScheme, make_scheme, window_slot
from .checkpoint_io import write_atomically, write_checkpoint
from .config import RunConfig, resolved_text
from .data import Dataset, load_csv, make_spirals
from .errors import ConfigError, EmptyDataError, IoError, NonFiniteError, ShapeError
from .metrics import MetricsRecord, MetricsWriter
from .optim import Adam, Lookahead, Sgd, make_optimizer, make_schedule, scratch_size
from .params import Checkpoint, ParameterSet, check_same_structure
from .rng import rng_for

BN_EPS = 1e-5
# Weight of a training batch's statistics in the running batch-norm statistics.
BN_MOMENTUM = 0.1
# Rows per block of a wide inference walk, and per partial sum of a
# batch-norm layer's statistics.
ROW_BLOCK = 256
# Rows times weight elements from which a hidden layer's products run in
# two lanes: backward's pair of products, and the training forward's
# ``h @ w + b`` as two row halves, when each half holds at least 8 rows;
# and rows times the widest hidden weight from which an inference walk goes
# in row blocks. About the least at which two lanes made the step of a
# training loop faster than one; CHANGES.md has the times. The output
# layer's product, and every sum over rows, stays whole and in order.
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
    """The scratch arena of inference walks: ``full``, two flat buffers
    for hidden layers held at full height, and ``areas``, two for the row
    blocks of a wide walk's other layers, each taken as
    :func:`_walk_plan` says. A walk grows a buffer that is too small and
    later walks reuse it, so a training loop that holds one set for all
    its evaluations allocates no fresh layer arrays. :meth:`reserve`
    sizes them at once for every walk of a list, as ``train_variants``
    does before a run's first step when a walk of the run goes in row
    blocks, so that no walk grows them after that. A
    :class:`TrainingBuffers` built ``within`` them takes its arrays from
    their room where it fits, since no walk runs during a training step.
    Nothing a walk returns is a view of these buffers.
    """

    __slots__ = ("full", "areas")

    def __init__(self):
        self.full = [np.empty(0), np.empty(0)]
        self.areas = [np.empty(0), np.empty(0)]

    def reserve(self, spec: ModelSpec, walks: Sequence[tuple[int, bool]]) -> None:
        """Grow each buffer once to the most that any of ``walks`` takes of
        it, each walk an ``(n, measures)`` pair: ``n`` rows of ``spec``
        through :func:`recompute_bn_stats` when ``measures``, else through
        an evaluation."""
        sizes = [_walk_plan(spec, n, measures).sizes for n, measures in walks]
        self._take([max(column) for column in zip(*sizes)], spec.np_dtype)

    def _take(self, sizes: Sequence[int], dtype: np.dtype) -> list[np.ndarray | None]:
        """The leading ``sizes`` elements of ``full[0]``, ``full[1]``,
        ``areas[0]`` and ``areas[1]``, or None where the size is 0, each
        replaced first by a new buffer when it is smaller or of another
        element type."""
        buffers = [(self.full, 0), (self.full, 1), (self.areas, 0), (self.areas, 1)]
        taken = []
        for (arrays, k), size in zip(buffers, sizes):
            if size and (arrays[k].size < size or arrays[k].dtype != dtype):
                arrays[k] = np.empty(size, dtype)
            taken.append(arrays[k][:size] if size else None)
        return taken


def _carver(regions: Sequence[np.ndarray]):
    """An ``empty(shape, dtype)`` that takes arrays one after another from
    the room of ``regions``, each a view of the first region with room
    left from a 64-byte step of its start, or else a fresh array."""
    room = [region.view(np.uint8) for region in regions if region.size]

    def empty(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        for k, free in enumerate(room):
            if nbytes <= free.size:
                room[k] = free[-(-nbytes // 64) * 64 :]
                return free[:nbytes].view(dtype).reshape(shape)
        return np.empty(shape, dtype)

    return empty


def _layer_rows(spec: ModelSpec, n: int, empty=np.empty) -> list[tuple[np.ndarray, ...]]:
    """Each hidden layer's ``n`` rows for a training pass, from
    ``empty(shape, dtype)``: its product, its batch-norm output (None
    without batch norm), its ReLU output and its ReLU mask."""
    def rows(width: int, dtype: np.dtype = spec.np_dtype) -> np.ndarray:
        return empty((n, width), dtype)

    return [
        (rows(w), rows(w) if spec.use_bn[i] else None, rows(w), rows(w, np.dtype(bool)))
        for i, w in enumerate(spec.widths[1:-1])
    ]


class TrainingBuffers:
    """Everything a training step writes, for one model and batch size.

    Built once from the parameters, the model and the batch size, it
    holds the input batch in the model's element type, each hidden
    layer's batch rows, one spare set of rows as wide as the widest
    hidden layer, one gradient set, built by :meth:`ParameterSet.over`
    and laid out like the parameters, and, given the ``optimizer``, the
    scratch of its steps (:func:`optim.scratch_size`), else None. Built
    ``within`` an :class:`InferenceBuffers`, each of these arrays that
    fits in the room of the walk buffers is a view of them, in the order
    gradients, scratch, layer rows, spare rows, input; the rest are
    fresh. A layer's rows are its product (``zhat`` after batch norm), its
    batch-norm output (None without batch norm), its ReLU output and its
    ReLU mask.
    ``backward`` writes each layer's ``d_h`` into the spare rows: the
    product that makes it may run beside the one that reads the layer's
    ReLU output for the next weight gradient, so it cannot go there. It
    reuses each layer row once the layer's last read of it is done: the
    batch-norm product goes into its ReLU output rows, and ``d_pre`` into
    its pre-activation rows. So a ``backward`` through the buffers that
    its ``forward`` wrote consumes the activations in the cache. Both
    passes raise :class:`ShapeError`, before they write anything, on
    buffers built for another model or batch size.

    Every array it hands out is rewritten by a later step, and, within
    walk buffers, by any walk between steps: the activations a
    ``forward`` caches, the gradients ``backward`` returns and the
    optimizer's scratch. A step writes each array before it reads it, so
    a walk between steps changes no bit of a run. Copy what must outlive
    the next step or walk. The fresh arrays are freed with this object
    and every view of them; ``train_variants`` builds one per epoch,
    within the run's walk buffers when a walk of the run goes in row
    blocks, and drops it after the epoch's last step.
    """

    __slots__ = (
        "spec", "batch_size", "input", "layers", "spare", "d_h", "grads", "grad_views", "scratch"
    )

    def __init__(
        self,
        params: ParameterSet,
        spec: ModelSpec,
        batch_size: int,
        *,
        within: InferenceBuffers | None = None,
        optimizer: Sgd | Adam | Lookahead | None = None,
    ):
        self.spec, self.batch_size = spec, batch_size
        empty = _carver([] if within is None else [*within.full, *within.areas])
        self.grads = params.over(empty((params.total_size(),), params.dtype))
        self.grad_views = params.entry_views(self.grads.buffer)
        self.scratch = (
            None if optimizer is None else empty((scratch_size(optimizer, params),), params.dtype)
        )
        self.layers = _layer_rows(spec, batch_size, empty)
        self.spare = empty((batch_size * max(spec.widths[1:-1]),), spec.np_dtype)
        # Hidden layer i's d_h: a leading view of the spare rows.
        self.d_h = [self.spare[: batch_size * w].reshape(batch_size, w) for w in spec.widths[1:-1]]
        self.input = empty((batch_size, spec.widths[0]), spec.np_dtype)

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
    * inv) + beta``; a wide walk goes in row blocks that each lane
    carries through every hidden layer, and holds only the last hidden
    layer at full height (see :func:`_inference_walk`). In training, a wide
    hidden layer's ``h @ w + b`` (see :func:`_hidden_product`) is two row
    halves handed to :func:`lanes.share`. The batch-norm statistics and the
    output layer's product stay whole, and the CPU count changes no bit.
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
        last = _inference_walk(params, spec, h, buffers or InferenceBuffers())
        outputs = _output_layer(params, spec, last)
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


def _row_blocks(spec: ModelSpec, n: int) -> list[slice]:
    """The row blocks of an inference walk over ``n`` rows.

    A walk whose rows times widest hidden weight reach ``LANE_PRODUCT``
    goes in blocks of ``ROW_BLOCK`` rows, a last block of fewer than 8 rows
    joining the one before it, since BLAS gave blocks of 2 to 7 rows
    through a 512-square weight other bits than the whole product. A
    narrower walk is one block of every row. The blocks depend on the row
    count and the model alone, never on the CPU count.
    """
    widest = max(a * b for a, b in zip(spec.widths[:-2], spec.widths[1:-1]))
    starts = list(range(0, n, ROW_BLOCK))
    if n * widest < LANE_PRODUCT or len(starts) < 2:
        return [slice(0, n)]
    if n - starts[-1] < 8:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


class _WalkPlan(NamedTuple):
    blocks: list[slice]  # the row blocks
    starts: list[int]  # the first hidden layer of each segment
    ends: list[int]  # the last hidden layer of each segment
    held: list[int]  # the layers a walk in row blocks holds at full height
    area_rows: int  # the rows an area holds: the two largest blocks
    sizes: tuple[int, int, int, int]  # elements taken of full[0], full[1], areas[0], areas[1]


def _walk_plan(spec: ModelSpec, n: int, measures: bool) -> _WalkPlan:
    """The plan of an inference walk over ``n`` rows: a recompute when
    ``measures``, whose segments end at each batch-norm layer, else an
    evaluation, one segment through every hidden layer.

    A walk of one block (:func:`_whole_walk`) takes a full-height layer of
    the widest hidden width from ``areas[0]``, and one from ``full[0]``
    when it reaches a second layer. A walk in row blocks
    (:func:`_blocked_walk`) takes one from ``full[k % 2]`` for the k-th
    layer it holds, and from each of ``areas[0]`` and ``areas[1]`` that a
    segment's other layers take in turn, the two largest blocks' rows of
    the widest width. :meth:`InferenceBuffers.reserve` sizes a run's
    buffers from these plans, so the two cannot drift apart.
    """
    ends = [i for i, on in enumerate(spec.use_bn) if on] if measures else [spec.n_hidden - 1]
    blocks = _row_blocks(spec, n)
    widest = max(spec.widths[1:-1])
    layer = n * widest
    if len(blocks) == 1:
        sizes = (layer if ends[-1] > 0 else 0, 0, layer, 0)
        return _WalkPlan(blocks, [0], ends[-1:], [], n, sizes)
    held = ends[:-1] if measures else ends
    starts = [0, *(end + 1 for end in ends[:-1])]
    in_areas = max(
        sum(i not in held for i in range(start, end + 1)) for start, end in zip(starts, ends)
    )
    area_rows = sum(sorted(b.stop - b.start for b in blocks)[-2:])
    area = area_rows * widest
    sizes = (
        layer * (len(held) > 0), layer * (len(held) > 1), area * (in_areas > 0), area * (in_areas > 1)
    )
    return _WalkPlan(blocks, starts, ends, held, area_rows, sizes)


def _normalization(
    spec: ModelSpec, params: ParameterSet, stats: ParameterSet | dict[str, np.ndarray], i: int
) -> tuple[np.ndarray, ...] | None:
    """``(mean, inv, gamma, beta)`` of hidden layer ``i`` with the running
    statistics ``stats`` holds for it, or None when it has no batch norm."""
    if not spec.use_bn[i]:
        return None
    return (
        stats[f"layer{i}.bn_running_mean"],
        1.0 / np.sqrt(stats[f"layer{i}.bn_running_var"] + BN_EPS),
        params[f"layer{i}.bn_gamma"],
        params[f"layer{i}.bn_beta"],
    )


def _inference_walk(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    buffers: InferenceBuffers,
    measured: dict[str, np.ndarray] | None = None,
) -> np.ndarray | None:
    """The hidden layers of an inference pass over the rows of ``x``.

    With ``measured`` None, each layer is normalized with the running
    statistics of ``params`` and rectified, and the last hidden layer is
    returned at full height, for the output product. Otherwise the walk
    ends at the last batch-norm layer and returns None: it stores in
    ``measured`` each batch-norm layer's mean and population variance over
    every row, and normalizes the layer with them before the next layer
    reads it; the last one is not normalized, since nothing reads it. A
    layer's float64 sums are taken over each ``ROW_BLOCK`` rows and added
    in row order.
    """
    plan = _walk_plan(spec, len(x), measured is not None)
    taken = buffers._take(plan.sizes, spec.np_dtype)
    if len(plan.blocks) == 1:
        return _whole_walk(params, spec, x, taken, plan.ends[-1], measured)
    return _blocked_walk(params, spec, x, taken, plan, measured)


def _whole_walk(
    params: ParameterSet,
    spec: ModelSpec,
    h: np.ndarray,
    taken: list[np.ndarray | None],
    last: int,
    measured: dict[str, np.ndarray] | None,
) -> np.ndarray | None:
    """:func:`_inference_walk` in one block, up to hidden layer ``last``,
    in the buffers ``taken`` as its plan says: layer ``i`` at full height
    in ``areas[0]`` when ``i`` is even and ``full[0]`` when odd, the two
    buffers a wide walk of two hidden layers takes. A measured layer
    squares into the other buffer, or its own rows when it is ``last``.
    """
    n, dtype, stats = len(h), spec.np_dtype, params if measured is None else measured
    pair = (taken[2], taken[0])
    for i in range(last + 1):
        width = spec.widths[i + 1]
        z = pair[i % 2][: n * width].reshape(n, width)
        np.matmul(h, params[f"layer{i}.weight"], out=z)
        z += params[f"layer{i}.bias"]
        if measured is not None and spec.use_bn[i]:
            scratch = None if i == last else pair[(i + 1) % 2]
            sums = np.empty((len(range(0, n, ROW_BLOCK)), 2, width))
            _row_sums(z, 0, sums, scratch)
            _store_statistics(measured, i, sums, n, dtype)
            if i == last:
                return None
        _normalize_rectify(z, _normalization(spec, params, stats, i))
        h = z
    return h


def _blocked_walk(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    taken: list[np.ndarray | None],
    plan: _WalkPlan,
    measured: dict[str, np.ndarray] | None,
) -> np.ndarray | None:
    """:func:`_inference_walk` in the row blocks of ``plan``, in its
    segments of layers, in the buffers ``taken`` as it says.

    :func:`lanes.share` hands out a segment's blocks, and a lane carries
    its block through every layer of the segment while the block is in
    that core's cache. Only a layer that a later step reads whole is held
    at full height, in ``full``, two in turn: the last layer of an
    evaluation, for the output product, or a measured layer before the
    last, whose rows wait for their statistics (the next segment
    normalizes them block by block). A segment's other layers take
    ``areas`` in turn from area 0, lane 0's block at the front and lane
    1's at the back; an area holds the two largest blocks, so two blocks
    never meet. A held measured layer squares into its block's place in
    area 0, which a walk that measures has, as its last segment starts
    there. The lane that carries a block changes no bit.
    """
    n, dtype, widths = len(x), spec.np_dtype, spec.widths[1:-1]
    widest, ends, areas, area_rows = max(widths), plan.ends, taken[2:], plan.area_rows
    full = {i: taken[k % 2][: n * widths[i]].reshape(n, widths[i]) for k, i in enumerate(plan.held)}
    stats = params if measured is None else measured
    h, norm = x, None  # a segment's input, and the normalization it waits for
    for start, end in zip(plan.starts, ends):
        # Every layer of an evaluation is normalized by its block; a
        # measured layer, by the next segment.
        normalized = {
            i: _normalization(spec, params, stats, i)
            for i in range(start, end + 1)
            if measured is None or i < end
        }
        sums = None if measured is None else np.empty((len(range(0, n, ROW_BLOCK)), 2, widths[end]))

        def carry(lane: int, rows: slice) -> None:
            r = rows.stop - rows.start
            at = 0 if lane == 0 else (area_rows - r) * widest
            g = h[rows]
            if norm is not None:
                _normalize_rectify(g, norm)
            for i in range(start, end + 1):
                if i in full:
                    z = full[i][rows]
                else:
                    z = areas[(i - start) % 2][at : at + r * widths[i]].reshape(r, widths[i])
                np.matmul(g, params[f"layer{i}.weight"], out=z)
                z += params[f"layer{i}.bias"]
                if i in normalized:
                    _normalize_rectify(z, normalized[i])
                g = z
            if sums is not None:
                _row_sums(g, rows.start // ROW_BLOCK, sums, areas[0][at:] if end in full else None)

        lanes.share(plan.blocks, carry, True)
        if sums is not None:
            _store_statistics(measured, end, sums, n, dtype)
            if end in full:
                h, norm = full[end], _normalization(spec, params, measured, end)
    return full.get(ends[-1])


def _row_sums(z: np.ndarray, first: int, sums: np.ndarray, scratch: np.ndarray | None) -> None:
    """Write the float64 sum and sum of squares of each ``ROW_BLOCK`` rows
    of ``z`` into ``sums[first]``, ``sums[first + 1]`` and on, the squares
    into the front of the flat ``scratch``, or into ``z`` itself when it
    is None."""
    for c in range(0, len(z), ROW_BLOCK):
        chunk = z[c : c + ROW_BLOCK]
        out = chunk if scratch is None else scratch[: chunk.size].reshape(chunk.shape)
        sums[first + c // ROW_BLOCK, 0] = chunk.sum(axis=0, dtype=np.float64)
        sums[first + c // ROW_BLOCK, 1] = np.multiply(chunk, chunk, out=out).sum(
            axis=0, dtype=np.float64
        )


def _store_statistics(
    measured: dict[str, np.ndarray], i: int, sums: np.ndarray, n: int, dtype: np.dtype
) -> None:
    """Store in ``measured`` hidden layer ``i``'s mean and population
    variance over ``n`` rows, from the per-block ``sums`` added in row
    order."""
    total = np.zeros(sums.shape[2], dtype=np.float64)
    total_sq = np.zeros(sums.shape[2], dtype=np.float64)
    for part, part_sq in sums:
        total += part
        total_sq += part_sq
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    measured[f"layer{i}.bn_running_mean"] = mean.astype(dtype)
    measured[f"layer{i}.bn_running_var"] = var.astype(dtype)


def _hidden_product(h: np.ndarray, w: np.ndarray, b: np.ndarray, z: np.ndarray) -> None:
    """Write ``h @ w + b`` into ``z``, as two row halves handed to
    :func:`lanes.share` when the layer is wide (rows times weight elements
    reach ``LANE_PRODUCT``) and each half holds at least 8 rows, since
    BLAS gave halves of 2 to 7 rows through a 512-square weight other bits
    than the whole product. The split depends on the shapes alone, so the
    CPU count changes no bit.
    """
    rows = len(h)
    half = rows // 2
    if rows * w.size < LANE_PRODUCT or half < 8:
        np.matmul(h, w, out=z)
        z += b
        return
    lanes.share(((h[:half], z[:half], w, b), (h[half:], z[half:], w, b)), _affine, True)


def _affine(lane: int, operands: tuple[np.ndarray, ...]) -> None:
    """Write ``h @ w + b`` into ``z``, for ``operands`` ``(h, z, w, b)``."""
    h, z, w, b = operands
    np.matmul(h, w, out=z)
    z += b


def _normalize_rectify(z: np.ndarray, bn: tuple[np.ndarray, ...] | None) -> None:
    """Normalize ``z`` in place as ``gamma * ((z - mean) * inv) + beta``,
    one operation at a time in that order, with ``bn`` ``(mean, inv,
    gamma, beta)`` unless it is None, then rectify it."""
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
    a batch further would change the loss. Only the hidden layers of a
    wide walk go in row blocks, each carried by one lane, and the CPU
    count changes no bit; the output product and the loss sums stay whole
    and in order. The hidden layers go into ``buffers`` (see
    :class:`InferenceBuffers`); None makes a fresh set for this call. A
    ``batch_size`` below 1 raises :class:`ConfigError`.
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

    The walk goes into ``buffers`` (a fresh set when None), in row blocks
    that each lane carries through the layers when it is wide (see
    :func:`_blocked_walk`). There every batch-norm layer but the last
    waits at full height for its statistics, and the last stays in its
    blocks. A batch-norm layer's float64 sums are taken over each
    ``ROW_BLOCK`` rows of its product and added in row order, so the CPU
    count changes no bit. Nothing after the last batch-norm layer is
    computed, and the last one is not normalized, since no layer reads its
    output. The statistics are written by :func:`set_running_stats`, in
    place into a set built by :meth:`ParameterSet.over`.
    """
    if len(x) == 0:
        raise EmptyDataError("cannot recompute normalization statistics without data")
    if not spec.has_bn:
        return params
    h = np.asarray(x).astype(spec.np_dtype, copy=False)
    updates: dict[str, np.ndarray] = {}
    _inference_walk(params, spec, h, buffers or InferenceBuffers(), updates)
    return set_running_stats(params, updates)


def copy_bn_stats(avg: ParameterSet, source: ParameterSet) -> ParameterSet:
    """``avg`` with the running statistics of ``source``, written by
    :func:`set_running_stats`, in place into a set built by
    :meth:`ParameterSet.over`."""
    return set_running_stats(
        avg, {name: arr for name, arr in source.items() if is_running_stat(name)}
    )


# The bn modes that recompute an average's statistics on the training split.
_RECOMPUTE_MODES = ("auto", "recompute")


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
    if mode in _RECOMPUTE_MODES:
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


# The fields whose role is averaging or output: the only fields a variant
# of ``train_variants`` sets; every other field is the trajectory's.
AVERAGING_FIELDS = tuple(f.name for f in fields(RunConfig) if f.metadata["role"] != "trajectory")


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
    every variant's averaging scheme one slot: the first directory's
    file's :func:`window_slot` when a scheme keeps slots (a large model's
    checkpoint is then read back from that file at each average), else
    the loop's checkpoint itself, which each scheme reads only during its
    ``observe``. Each directory ends up
    byte-identical to a ``train_run`` of its variant's config, except
    for ``wall_seconds``, which counts from the shared start. A
    non-finite value aborts every variant at the same epoch. Every
    variant's config is validated and every output directory checked
    before any write.

    The loop holds one parameter buffer, which each optimizer step
    updates in place, and one :class:`InferenceBuffers` for all its
    walks. When a walk of the run goes in row blocks (a wide model), those
    buffers are the run's one scratch arena: reserved before the first
    step for the largest walk the run will make (the evaluation of either
    split or, where an average is recomputed, the training split's
    recompute), they hold each epoch's :class:`TrainingBuffers`, the
    optimizer's scratch included, fresh only where an array does not fit
    (a wide model's gradients beside a tiny split's walk), so the
    optimizer holds only its state. A walk inside an epoch may overwrite
    the workspace, which each step writes before it reads; nothing that
    leaves the loop lives in the arena. A run whose every walk is one
    block (a small model, such as the 64x64 sweep's) grows its walk
    buffers at its first evaluation and gives each workspace arrays of
    its own: reserving early and sharing raised such a sweep's peak
    resident memory rather than lowering it. Each epoch drops its
    workspace after its last step, before that step's save event and
    the epoch's evaluations. A save event writes its checkpoint files
    straight from the buffer, and the epoch's raw evaluations and the
    ``copy`` fix-up read it in place: each returns before the next step.
    The one copy a save event makes is :func:`window_slot`'s, of a
    checkpoint small enough to stay in memory, and only when a scheme
    keeps slots; a larger one's slot is its file's headers. So no set a
    scheme keeps, and no average, shares memory with the buffer. A
    variant holds at most one average: the epoch end that
    evaluates it keeps only its validation loss and accuracy, which an
    epoch with no save event reports again, and a save event drops an
    average no epoch end evaluated. An empty training or validation split
    raises :class:`EmptyDataError`, and an output directory that cannot
    be created :class:`IoError`, before anything is written.
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

    # Every walk of this call shares these buffers. When a walk goes in row
    # blocks they are the run's one scratch arena, sized for every walk
    # before the first step and holding each epoch's workspace.
    buffers = InferenceBuffers()
    recomputes = spec.has_bn and any(
        v.cfg.scheme != "none" and v.cfg.bn_mode in _RECOMPUTE_MODES for v in runs
    )
    walks = [(n_train, False), (len(x_val), False)] + [(n_train, True)] * recomputes
    arena = buffers if any(len(_row_blocks(spec, n)) > 1 for n, _ in walks) else None
    if arena is not None:
        buffers.reserve(spec, walks)
    keeps_slots = any(v.scheme.keeps_slots for v in runs)
    started = time.perf_counter()
    global_step = 0
    slot = 0

    def train_step(workspace: TrainingBuffers, sel: np.ndarray, lr: float) -> None:
        """One optimizer step on the training rows ``sel``; the views of
        ``workspace`` it takes end with the call."""
        xb, yb = workspace.gather(x_train, sel), y_train[sel]
        _, cache = forward(params, spec, xb, training=True, buffers=workspace)
        grads = backward(params, spec, (xb, yb), cache, buffers=workspace)
        optimizer.step(params, grads, lr, out=params, scratch=workspace.scratch)
        set_running_stats(params, cache["bn_updates"])

    def save_event() -> None:
        """Write the params as the next checkpoint and average it."""
        nonlocal slot
        # Every scheme that has yielded an average yields one at each later
        # save event, so an average no epoch end has read can go first.
        for v in runs:
            v.average = None
        ckpt = Checkpoint(params=params, epoch=slot, step=global_step)
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
        # The other files are links or copies.
        handed = window_slot(first, ckpt) if keeps_slots else ckpt
        for v in runs:
            averaged = v.scheme.observe(handed)
            if averaged is None:
                continue
            averaged = apply_bn_mode(
                averaged, spec, v.cfg.bn_mode, params, x_train, buffers=buffers
            )
            if v.cfg.save_averaged:
                write_checkpoint(
                    Checkpoint(params=averaged, epoch=slot, step=global_step),
                    averaged_path(v.out_dir, slot),
                )
            v.average = averaged
        slot += 1

    with ExitStack() as stack:
        for v in runs:
            v.writer = stack.enter_context(MetricsWriter(v.out_dir / "metrics.csv"))
        for epoch in range(cfg.epochs):
            try:
                order = rng_for(cfg.seed, f"shuffle:{epoch}").permutation(n_train)
                workspace = TrainingBuffers(
                    params, spec, cfg.batch_size, within=arena, optimizer=optimizer
                )
                for b in range(steps_per_epoch):
                    sel = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                    last_lr = schedule.lr_at(global_step)
                    train_step(workspace, sel, last_lr)
                    global_step += 1
                    if b == steps_per_epoch - 1:
                        workspace = None  # not held through the save event and evaluations
                    if global_step % save_every == 0:
                        save_event()
                train_loss, train_acc = evaluate(params, spec, x_train, y_train, buffers=buffers)
                val_loss, val_acc = evaluate(params, spec, x_val, y_val, buffers=buffers)
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
