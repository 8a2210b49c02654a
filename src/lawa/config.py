"""Run configuration: defaults, validation, and the flat key=value file.

A run is fully determined by its RunConfig (including the seed), and the
``config.resolved`` file a run writes can be fed back through ``--config``
to replay it exactly.

A field's facts live in its ``dataclasses.field`` metadata, which
:func:`_field` sets: its ``role`` (``trajectory``, ``averaging`` or
``output``; a sweep variant may set only the last two), its ``choices``,
its inclusive bounds ``low`` and ``high``, and its ``help``. ``validate``
checks each value's declared type, and that a float value is finite,
before it reads them.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, field, fields

from . import averaging, optim
from .errors import ConfigError


def _field(default, *, role="trajectory", choices=None, low=None, high=None, help=None):
    """A RunConfig field with its default and its facts."""
    facts = {"role": role, "choices": choices, "low": low, "high": high, "help": help}
    return field(default=default, metadata=facts)


@dataclass
class RunConfig:
    # dataset
    dataset: str = _field("spirals", choices=("spirals", "csv"))
    n_per_class: int = _field(1000, low=1)
    classes: int = _field(2, low=2)
    noise: float = _field(0.2, low=0)
    csv: str = _field("", help="CSV path for --dataset csv")
    label_column: str = _field("label")
    # model
    hidden: tuple[int, ...] = _field((64, 64), low=1, help="comma list of hidden widths")
    use_bn: bool = _field(False)
    dtype: str = _field("f64", choices=("f32", "f64"))
    # optimizer
    optimizer: str = _field("sgd", choices=("sgd", "adam", "lookahead"))
    lr: float = _field(0.1, low=0)
    momentum: float = _field(optim.DEFAULT_MOMENTUM, low=0)
    beta1: float = _field(optim.DEFAULT_BETA1)
    beta2: float = _field(optim.DEFAULT_BETA2)
    adam_eps: float = _field(optim.DEFAULT_ADAM_EPS, low=0)
    lookahead_alpha: float = _field(optim.DEFAULT_LOOKAHEAD_ALPHA, low=0, high=1)
    lookahead_k: int = _field(optim.DEFAULT_LOOKAHEAD_K, low=1)
    lookahead_inner: str = _field("sgd", choices=("sgd", "adam"))
    # schedule
    schedule: str = _field("cosine", choices=("constant", "cosine", "poly_warmup"))
    warmup_steps: int = _field(0, low=0)
    end_lr: float = _field(0.0, low=0)
    power: float = _field(1.0, low=0)
    # run shape
    epochs: int = _field(50, low=1)
    batch_size: int = _field(64, low=1)
    seed: int = _field(0, low=0)
    # averaging
    scheme: str = _field("uniform", role="averaging", choices=("none", "uniform", "ema", "polyak"))
    k: int = _field(averaging.DEFAULT_WINDOW, role="averaging", low=1, help="averaging window")
    alpha: float = _field(
        averaging.DEFAULT_EMA_ALPHA, role="averaging", low=0, high=1, help="ema coefficient"
    )
    # batch-norm statistics handling for the averaged model
    bn_mode: str = _field("auto", choices=("auto", "recompute", "copy", "off"))
    # checkpointing
    save_every_steps: int = _field(0, low=0)  # 0 = save once per epoch
    save_averaged: bool = _field(False)
    # output
    out: str = _field("run", role="output")

    def validate(self) -> None:
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, kind):
                declared = kind.__name__ if isinstance(kind, type) else str(kind)
                raise ConfigError(f"{name} must be {declared}, got {type(value).__name__} {value!r}")
            if kind is float and not _finite(value):
                big = isinstance(value, numbers.Integral)
                shown = "an int too large for a float" if big else value
                raise ConfigError(f"{name} must be finite, got {shown}")
        for f in fields(self):
            value = getattr(self, f.name)
            choices, low, high = f.metadata["choices"], f.metadata["low"], f.metadata["high"]
            items = value if isinstance(value, tuple) else (value,)  # a bound holds for each width
            if choices is not None and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")
            if low is not None and not all(low <= v for v in items):
                raise ConfigError(f"{f.name} must be >= {low}, got {value}")
            if high is not None and not all(v <= high for v in items):
                raise ConfigError(f"{f.name} must be <= {high}, got {value}")
        if self.dataset == "csv" and not self.csv:
            raise ConfigError("dataset=csv requires a csv path")
        if not self.hidden:
            raise ConfigError("hidden must list at least one width")
        if not self.out:
            raise ConfigError("out must name an output directory")


# Field name -> declared type.
FIELD_TYPES = typing.get_type_hints(RunConfig)
# Field name -> allowed values, for the fields that take one of a fixed set.
CHOICES = {f.name: f.metadata["choices"] for f in fields(RunConfig) if f.metadata["choices"]}


def _has_type(value, kind) -> bool:
    """Whether ``value`` is of the declared type ``kind``: an int passes
    for a float, a bool for neither, and a tuple type is a tuple of ints."""
    if kind is bool or kind is str:
        return isinstance(value, kind)
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, tuple) and all(_has_type(v, int) for v in value)


def _finite(value) -> bool:
    """Whether ``value``, a real number, is finite as a float: an int too
    large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _parse_value(key: str, text: str):
    kind = FIELD_TYPES[key]
    try:
        if kind == tuple[int, ...]:
            return tuple(int(part) for part in text.split(","))
        if kind is bool:
            lowered = text.strip().lower()
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
            value = _parse_value(key, value)
        elif FIELD_TYPES[key] == tuple[int, ...] and isinstance(value, (list, tuple)):
            # An integral element becomes an int; ``validate`` names any other.
            value = tuple(int(v) if _has_type(v, int) else v for v in value)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out
