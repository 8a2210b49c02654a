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
backprop assigns them zero gradients and the training loop refreshes
them from each forward pass.

Everything is deterministic given the run seed: initialization, epoch
shuffles, and dataset noise each draw from their own keyed stream, so
e.g. changing the averaging scheme never perturbs the trajectory.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .averaging import AveragingScheme, make_scheme
from .checkpoint_io import write_checkpoint
from .config import RunConfig, resolved_text
from .data import Dataset, load_csv, make_spirals
from .errors import ConfigError, EmptyDataError, NonFiniteError, ShapeError
from .metrics import MetricsRecord, MetricsWriter
from .optim import make_optimizer, make_schedule
from .params import Checkpoint, ParameterSet
from .rng import rng_for

BN_EPS = 1e-5
_RECOMPUTE_CHUNK = 256


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; fully determines the parameter name set."""

    widths: tuple[int, ...]  # input, hidden..., output
    use_bn: tuple[bool, ...]  # one flag per hidden layer
    loss: str = "cross_entropy"  # or "mse"
    init_seed: int = 0
    dtype: str = "f64"
    bn_momentum: float = 0.1

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


def init_params(spec: ModelSpec) -> ParameterSet:
    """Seeded initialization: uniform weights scaled by 1/sqrt(fan_in),
    zero biases, identity batch-norm (gamma 1, beta 0, mean 0, var 1)."""
    dtype = spec.np_dtype
    entries: list[tuple[str, np.ndarray]] = []
    n_layers = len(spec.widths) - 1
    for i in range(n_layers):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        rng = rng_for(spec.init_seed, f"init:layer{i}")
        bound = 1.0 / np.sqrt(fan_in)
        entries.append(
            (f"layer{i}.weight", rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dtype))
        )
        entries.append((f"layer{i}.bias", np.zeros(fan_out, dtype=dtype)))
        if i < spec.n_hidden and spec.use_bn[i]:
            entries.append((f"layer{i}.bn_gamma", np.ones(fan_out, dtype=dtype)))
            entries.append((f"layer{i}.bn_beta", np.zeros(fan_out, dtype=dtype)))
            entries.append((f"layer{i}.bn_running_mean", np.zeros(fan_out, dtype=dtype)))
            entries.append((f"layer{i}.bn_running_var", np.ones(fan_out, dtype=dtype)))
    return ParameterSet(entries)


def forward(
    params: ParameterSet, spec: ModelSpec, x: np.ndarray, training: bool
) -> tuple[np.ndarray, dict]:
    """Run the network; returns (outputs, cache) without touching params.

    In training mode batch norm normalizes with batch statistics and the
    cache carries momentum-updated running statistics under
    ``cache["bn_updates"]``, plus the activations ``backward`` needs; in
    inference mode the stored running statistics are used and no layer's
    activations are kept.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != spec.widths[0]:
        raise ShapeError(
            f"batch shape {x.shape} does not match input width {spec.widths[0]}"
        )
    h = x.astype(spec.np_dtype, copy=False)
    layers = []
    bn_updates: dict[str, np.ndarray] = {}
    for i in range(spec.n_hidden):
        w = params[f"layer{i}.weight"]
        b = params[f"layer{i}.bias"]
        z = h @ w + b
        bn_cache = None
        if spec.use_bn[i]:
            gamma = params[f"layer{i}.bn_gamma"]
            beta = params[f"layer{i}.bn_beta"]
            if training:
                mu = z.mean(axis=0)
                var = z.var(axis=0)  # population variance
                m = spec.bn_momentum
                bn_updates[f"layer{i}.bn_running_mean"] = (
                    (1.0 - m) * params[f"layer{i}.bn_running_mean"] + m * mu
                ).astype(spec.np_dtype)
                bn_updates[f"layer{i}.bn_running_var"] = (
                    (1.0 - m) * params[f"layer{i}.bn_running_var"] + m * var
                ).astype(spec.np_dtype)
            else:
                mu = params[f"layer{i}.bn_running_mean"]
                var = params[f"layer{i}.bn_running_var"]
            inv = 1.0 / np.sqrt(var + BN_EPS)
            zhat = (z - mu) * inv
            pre = gamma * zhat + beta
            bn_cache = (zhat, inv)
        else:
            pre = z
        a = np.maximum(pre, 0.0)
        if training:
            layers.append({"input": h, "bn": bn_cache, "pre_relu": pre})
        h = a
    w = params[f"layer{spec.n_hidden}.weight"]
    b = params[f"layer{spec.n_hidden}.bias"]
    outputs = h @ w + b
    if not np.all(np.isfinite(outputs)):
        raise NonFiniteError("non-finite activations in forward pass")
    cache = {
        "layers": layers,
        "last_input": h if training else None,
        "outputs": outputs,
        "bn_updates": bn_updates,
    }
    return outputs, cache


def _loss_and_doutputs(
    outputs: np.ndarray, labels: np.ndarray, loss_kind: str, n_classes: int
) -> tuple[float, np.ndarray]:
    n = outputs.shape[0]
    if loss_kind == "cross_entropy":
        y = np.asarray(labels)
        if y.shape != (n,):
            raise ShapeError(f"labels shape {y.shape} does not match batch size {n}")
        if y.min() < 0 or y.max() >= n_classes:
            raise ShapeError(f"class labels must lie in [0, {n_classes})")
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        per_sample = log_z - shifted[np.arange(n), y]
        loss = float(per_sample.mean())
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), y] -= 1.0
        return loss, probs / n
    targets = np.asarray(labels, dtype=outputs.dtype)
    if targets.ndim == 1:
        targets = targets[:, None]
    if targets.shape != outputs.shape:
        raise ShapeError(
            f"targets shape {targets.shape} does not match outputs {outputs.shape}"
        )
    diff = outputs - targets
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def backward(
    params: ParameterSet,
    spec: ModelSpec,
    batch: tuple[np.ndarray, np.ndarray],
    cache: dict,
) -> tuple[float, ParameterSet]:
    """Batch-mean loss and exact gradients for every parameter entry.

    Running-statistics entries get zero gradients; they are not trained.
    """
    _, labels = batch
    outputs = cache["outputs"]
    loss, d_out = _loss_and_doutputs(outputs, labels, spec.loss, spec.widths[-1])

    grads: dict[str, np.ndarray] = {}
    i_out = spec.n_hidden
    grads[f"layer{i_out}.weight"] = cache["last_input"].T @ d_out
    grads[f"layer{i_out}.bias"] = d_out.sum(axis=0)
    d_h = d_out @ params[f"layer{i_out}.weight"].T

    for i in range(spec.n_hidden - 1, -1, -1):
        layer = cache["layers"][i]
        d_pre = d_h * (layer["pre_relu"] > 0.0)
        if spec.use_bn[i]:
            zhat, inv = layer["bn"]
            gamma = params[f"layer{i}.bn_gamma"]
            grads[f"layer{i}.bn_gamma"] = (d_pre * zhat).sum(axis=0)
            grads[f"layer{i}.bn_beta"] = d_pre.sum(axis=0)
            grads[f"layer{i}.bn_running_mean"] = np.zeros_like(gamma)
            grads[f"layer{i}.bn_running_var"] = np.zeros_like(gamma)
            d_zhat = d_pre * gamma
            d_z = inv * (
                d_zhat
                - d_zhat.mean(axis=0)
                - zhat * (d_zhat * zhat).mean(axis=0)
            )
        else:
            d_z = d_pre
        grads[f"layer{i}.weight"] = layer["input"].T @ d_z
        grads[f"layer{i}.bias"] = d_z.sum(axis=0)
        d_h = d_z @ params[f"layer{i}.weight"].T

    ordered = [(name, grads[name].astype(spec.np_dtype, copy=False)) for name in params.names]
    return loss, ParameterSet(ordered)


def batch_loss(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    labels: np.ndarray,
    training: bool = True,
) -> float:
    """Loss of one batch as a pure function of the parameters."""
    outputs, _ = forward(params, spec, x, training=training)
    loss, _ = _loss_and_doutputs(outputs, labels, spec.loss, spec.widths[-1])
    return loss


def evaluate(
    params: ParameterSet,
    spec: ModelSpec,
    x: np.ndarray,
    labels: np.ndarray,
    batch_size: int | None = None,
) -> tuple[float, float]:
    """Dataset-mean loss and accuracy in inference mode.

    Accuracy is the argmax-correct fraction with ties resolved toward the
    lowest class index; for regression it is NaN. The reduction runs in
    fixed index order, so the result is batch-size invariant.
    """
    n = len(x)
    if n == 0:
        raise EmptyDataError("cannot evaluate on an empty dataset")
    if batch_size is None:
        batch_size = n
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = x[start : start + batch_size]
        yb = labels[start : start + batch_size]
        outputs, _ = forward(params, spec, xb, training=False)
        if spec.loss == "cross_entropy":
            y = np.asarray(yb)
            shifted = outputs - outputs.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1))
            per_sample = log_z - shifted[np.arange(len(xb)), y]
            loss_sum += float(per_sample.sum(dtype=np.float64))
            correct += int((outputs.argmax(axis=1) == y).sum())
        else:
            targets = np.asarray(yb, dtype=outputs.dtype)
            if targets.ndim == 1:
                targets = targets[:, None]
            diff = outputs - targets
            loss_sum += float((diff * diff).mean(axis=1).sum(dtype=np.float64))
    loss = loss_sum / n
    accuracy = correct / n if spec.loss == "cross_entropy" else float("nan")
    return loss, accuracy


def recompute_bn_stats(
    params: ParameterSet, spec: ModelSpec, x: np.ndarray
) -> ParameterSet:
    """Replace running statistics with exact full-dataset statistics.

    Layers are processed front to back: each batch-norm layer's mean and
    population variance are accumulated over the whole dataset, stored,
    and then used when producing the activations feeding later layers.
    Non-normalization entries are returned untouched (bitwise).
    """
    if len(x) == 0:
        raise EmptyDataError("cannot recompute normalization statistics without data")
    if not spec.has_bn:
        return params
    x = np.asarray(x).astype(spec.np_dtype, copy=False)
    updates: dict[str, np.ndarray] = {}
    h = x
    for i in range(spec.n_hidden):
        w = params[f"layer{i}.weight"]
        b = params[f"layer{i}.bias"]
        if spec.use_bn[i]:
            width = spec.widths[i + 1]
            total = np.zeros(width, dtype=np.float64)
            total_sq = np.zeros(width, dtype=np.float64)
            count = 0
            for start in range(0, len(h), _RECOMPUTE_CHUNK):
                z = h[start : start + _RECOMPUTE_CHUNK] @ w + b
                total += z.sum(axis=0, dtype=np.float64)
                total_sq += (z * z).sum(axis=0, dtype=np.float64)
                count += len(z)
            mean = total / count
            var = np.maximum(total_sq / count - mean * mean, 0.0)
            updates[f"layer{i}.bn_running_mean"] = mean.astype(spec.np_dtype)
            updates[f"layer{i}.bn_running_var"] = var.astype(spec.np_dtype)
            inv = 1.0 / np.sqrt(var.astype(spec.np_dtype) + BN_EPS)
            zhat = (h @ w + b - mean.astype(spec.np_dtype)) * inv
            pre = params[f"layer{i}.bn_gamma"] * zhat + params[f"layer{i}.bn_beta"]
        else:
            pre = h @ w + b
        h = np.maximum(pre, 0.0)
    return params.with_updates(updates)


def copy_bn_stats(avg: ParameterSet, source: ParameterSet) -> ParameterSet:
    """Overwrite running statistics in ``avg`` with those from ``source``."""
    updates = {
        name: arr for name, arr in source.items() if is_running_stat(name)
    }
    return avg.with_updates(updates) if updates else avg


def apply_bn_mode(
    avg: ParameterSet,
    spec: ModelSpec,
    mode: str,
    newest: ParameterSet,
    train_x: np.ndarray,
) -> ParameterSet:
    """Fix up the averaged model's normalization statistics.

    ``auto`` recomputes when the model has batch norm; every mode is a
    no-op on norm-free models.
    """
    if not spec.has_bn or mode == "off":
        return avg
    if mode == "auto" or mode == "recompute":
        return recompute_bn_stats(avg, spec, train_x)
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


# The fields that may differ between the configs of one shared trajectory:
# they feed the averaging scheme or name the output directory, never the
# weights.
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
    return train_variants([cfg], dataset)[0]


@dataclass
class _Variant:
    """One config's averaging state along the shared trajectory."""

    cfg: RunConfig
    out_dir: Path
    scheme: AveragingScheme
    writer: MetricsWriter | None = None
    average: ParameterSet | None = None
    records: list[MetricsRecord] = field(default_factory=list)


def _check_one_trajectory(cfgs: Sequence[RunConfig]) -> None:
    first = cfgs[0]
    shared = [f.name for f in fields(RunConfig) if f.name not in AVERAGING_FIELDS]
    for cfg in cfgs[1:]:
        differing = [n for n in shared if getattr(cfg, n) != getattr(first, n)]
        if differing:
            raise ConfigError(
                f"configs for {first.out} and {cfg.out} differ in {', '.join(differing)}; "
                f"variants of one trajectory may differ only in {', '.join(AVERAGING_FIELDS)}"
            )
    outs = [Path(cfg.out) for cfg in cfgs]
    if len(set(outs)) != len(outs):
        raise ConfigError("two variants share one output directory")


def train_variants(
    cfgs: Sequence[RunConfig], dataset: Dataset | None = None
) -> list[list[MetricsRecord]]:
    """Train one trajectory and average it once per config, as ``train_run``
    would for each config alone; returns each config's metrics records.

    The configs may differ only in ``AVERAGING_FIELDS``. Forward,
    backward, the optimizer step and the raw-model evaluations run once;
    each save event writes the same checkpoint into every output
    directory and feeds every config's averaging scheme. Each directory
    ends up byte-identical to a ``train_run`` of its config, except for
    ``wall_seconds``, which counts from the shared start. A non-finite
    value aborts every variant at the same epoch. Every config is
    validated and every output directory checked before any write.
    """
    if not cfgs:
        raise ConfigError("train_variants needs at least one config")
    for cfg in cfgs:
        cfg.validate()
    _check_one_trajectory(cfgs)
    for cfg in cfgs:
        refuse_used_out_dir(Path(cfg.out))
    cfg = cfgs[0]
    if dataset is None:
        dataset = build_dataset(cfg)
    spec = model_spec_for(cfg, dataset)
    x_train, y_train = dataset.train()
    x_val, y_val = dataset.val()
    n_train = len(x_train)
    steps_per_epoch = n_train // cfg.batch_size
    if steps_per_epoch < 1:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training split size {n_train}"
        )
    total_steps = cfg.epochs * steps_per_epoch

    params = init_params(spec)
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
    variants = [
        _Variant(c, Path(c.out), make_scheme(c.scheme, c.k, c.alpha)) for c in cfgs
    ]
    for v in variants:
        v.out_dir.mkdir(parents=True, exist_ok=True)
        (v.out_dir / "config.resolved").write_text(resolved_text(v.cfg), encoding="utf-8")

    started = time.perf_counter()
    global_step = 0
    slot = 0

    def save_event(current: ParameterSet) -> None:
        nonlocal slot
        ckpt = Checkpoint(params=current, epoch=slot, step=global_step)
        # Every directory holds the checkpoint before any scheme can reject it.
        for v in variants:
            write_checkpoint(ckpt, checkpoint_path(v.out_dir, slot))
        for v in variants:
            averaged = v.scheme.observe(ckpt)
            if averaged is None:
                continue
            averaged = apply_bn_mode(averaged, spec, v.cfg.bn_mode, current, x_train)
            if v.cfg.save_averaged:
                write_checkpoint(
                    Checkpoint(params=averaged, epoch=slot, step=global_step),
                    averaged_path(v.out_dir, slot),
                )
            v.average = averaged
        slot += 1

    with ExitStack() as stack:
        for v in variants:
            v.writer = stack.enter_context(MetricsWriter(v.out_dir / "metrics.csv"))
        for epoch in range(cfg.epochs):
            try:
                order = rng_for(cfg.seed, f"shuffle:{epoch}").permutation(n_train)
                last_lr = 0.0
                for b in range(steps_per_epoch):
                    sel = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                    xb, yb = x_train[sel], y_train[sel]
                    last_lr = schedule.lr_at(global_step)
                    _, cache = forward(params, spec, xb, training=True)
                    _, grads = backward(params, spec, (xb, yb), cache)
                    params = optimizer.step(params, grads, last_lr)
                    if cache["bn_updates"]:
                        params = params.with_updates(cache["bn_updates"])
                    global_step += 1
                    if cfg.save_every_steps and global_step % cfg.save_every_steps == 0:
                        save_event(params)
                if not cfg.save_every_steps:
                    save_event(params)

                train_loss, train_acc = evaluate(params, spec, x_train, y_train)
                val_loss, val_acc = evaluate(params, spec, x_val, y_val)
                averaged_metrics = [
                    (None, None)
                    if v.average is None
                    else evaluate(v.average, spec, x_val, y_val)
                    for v in variants
                ]
            except NonFiniteError as exc:
                raise type(exc)(f"run aborted at epoch {epoch}: {exc}") from exc

            for v, (avg_val_loss, avg_val_acc) in zip(variants, averaged_metrics):
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
    return [v.records for v in variants]
