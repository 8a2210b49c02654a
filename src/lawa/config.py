"""Run configuration: defaults, validation, and the flat key=value file.

A run is fully determined by its RunConfig (including the seed), and the
``config.resolved`` file a run writes can be fed back through ``--config``
to replay it exactly.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields

from . import averaging, optim
from .errors import ConfigError

DATASETS = ("spirals", "csv")
OPTIMIZERS = ("sgd", "adam", "lookahead")
SCHEDULES = ("constant", "cosine", "poly_warmup")
SCHEMES = ("none", "uniform", "ema", "polyak")
BN_MODES = ("auto", "recompute", "copy", "off")
DTYPES = ("f32", "f64")
LOOKAHEAD_INNERS = ("sgd", "adam")

# Allowed values of the string fields that take one of a fixed set.
CHOICES = {
    "dataset": DATASETS,
    "optimizer": OPTIMIZERS,
    "schedule": SCHEDULES,
    "scheme": SCHEMES,
    "bn_mode": BN_MODES,
    "dtype": DTYPES,
    "lookahead_inner": LOOKAHEAD_INNERS,
}


@dataclass
class RunConfig:
    # dataset
    dataset: str = "spirals"
    n_per_class: int = 1000
    classes: int = 2
    noise: float = 0.2
    csv: str = field(default="", metadata={"help": "CSV path for --dataset csv"})
    label_column: str = "label"
    # model
    hidden: tuple[int, ...] = field(
        default=(64, 64), metadata={"help": "comma list of hidden widths"}
    )
    use_bn: bool = False
    dtype: str = "f64"
    # optimizer
    optimizer: str = "sgd"
    lr: float = 0.1
    momentum: float = optim.DEFAULT_MOMENTUM
    beta1: float = optim.DEFAULT_BETA1
    beta2: float = optim.DEFAULT_BETA2
    adam_eps: float = optim.DEFAULT_ADAM_EPS
    lookahead_alpha: float = optim.DEFAULT_LOOKAHEAD_ALPHA
    lookahead_k: int = optim.DEFAULT_LOOKAHEAD_K
    lookahead_inner: str = "sgd"
    # schedule
    schedule: str = "cosine"
    warmup_steps: int = 0
    end_lr: float = 0.0
    power: float = 1.0
    # run shape
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    # averaging
    scheme: str = "uniform"
    k: int = field(default=averaging.DEFAULT_WINDOW, metadata={"help": "averaging window"})
    alpha: float = field(
        default=averaging.DEFAULT_EMA_ALPHA, metadata={"help": "ema coefficient"}
    )
    # batch-norm statistics handling for the averaged model
    bn_mode: str = "auto"
    # checkpointing
    save_every_steps: int = 0  # 0 = save once per epoch
    save_averaged: bool = False
    # output
    out: str = "run"

    def validate(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.dataset == "csv" and not self.csv:
            raise ConfigError("dataset=csv requires a csv path")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.k < 1:
            raise ConfigError(f"averaging window k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"ema alpha must lie in [0, 1], got {self.alpha}")
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.momentum < 0.0:
            raise ConfigError(f"momentum must be >= 0, got {self.momentum}")
        if self.save_every_steps < 0:
            raise ConfigError("save_every_steps must be >= 0")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.out:
            raise ConfigError("output directory must be set")


# Field name -> type; the one schema the config parser and the CLI flags follow.
FIELD_TYPES = typing.get_type_hints(RunConfig)


def _parse_value(key: str, text: str):
    kind = FIELD_TYPES[key]
    try:
        if key == "hidden":
            return tuple(int(part) for part in str(text).split(","))
        if kind is bool:
            if isinstance(text, bool):
                return text
            lowered = str(text).strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return kind(text)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse config value {key}={text!r}") from None


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build a validated RunConfig from string or typed values."""
    unknown = set(mapping) - FIELD_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        if isinstance(value, str):
            kwargs[key] = _parse_value(key, value)
        elif key == "hidden":
            kwargs[key] = tuple(int(v) for v in value)
        else:
            kwargs[key] = value
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_text(cfg: RunConfig) -> str:
    """Flat key=value dump of every effective parameter, sorted by key."""
    lines = [
        f"{f.name}={_format_value(getattr(cfg, f.name))}"
        for f in sorted(fields(RunConfig), key=lambda f: f.name)
    ]
    return "\n".join(lines) + "\n"


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value file; blank lines and #-comments are skipped."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{line_no}: expected key=value, got {stripped!r}"
                    )
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key in first_line:
                    raise ConfigError(
                        f"{path}: key {key!r} given twice, "
                        f"on lines {first_line[key]} and {line_no}"
                    )
                first_line[key] = line_no
                out[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out
