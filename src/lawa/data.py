"""Synthetic dataset generators and CSV ingestion.

Datasets are immutable once built. Features are standardized to zero
mean and unit variance per dimension, computed over the training split
only, so toy runs stay well conditioned regardless of the raw scale.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint_io import read_text
from .errors import ConfigError, ParseError, SchemaError
from .rng import rng_for

TRAIN_FRACTION = 0.8
SPIRAL_TURNS = 1.5  # full rotations per arm
SPIRAL_SCALE = 2.0  # radius of the outermost spiral point


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus labels and a fixed train/validation split."""

    features: np.ndarray  # (N, D) float64, standardized
    labels: np.ndarray  # (N,) int64 classes or float64 targets
    train_idx: np.ndarray
    val_idx: np.ndarray
    kind: str = "classification"  # or "regression"
    n_classes: int = field(default=0)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def train(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features[self.train_idx], self.labels[self.train_idx]

    def val(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features[self.val_idx], self.labels[self.val_idx]


def _standardize(features: np.ndarray, train_idx: np.ndarray) -> np.ndarray:
    train = features[train_idx]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (features - mean) / std


def make_spirals(
    seed: int, n_per_class: int, classes: int = 2, noise: float = 0.2
) -> Dataset:
    """Interleaved 2-D spiral arms, one per class, with Gaussian jitter.

    Deterministic in the seed; the split is 80/20 stratified by class.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if classes < 2:
        raise ConfigError(f"classes must be >= 2, got {classes}")
    if noise < 0.0:
        raise ConfigError(f"noise must be >= 0, got {noise}")

    rng = rng_for(seed, "data:spirals")
    n_total = n_per_class * classes
    features = np.empty((n_total, 2), dtype=np.float64)
    labels = np.empty(n_total, dtype=np.int64)
    for c in range(classes):
        t = (np.arange(n_per_class, dtype=np.float64) + 1.0) / n_per_class
        angle = 2.0 * np.pi * (SPIRAL_TURNS * t + c / classes)
        radius = SPIRAL_SCALE * t
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        features[rows, 0] = radius * np.cos(angle)
        features[rows, 1] = radius * np.sin(angle)
        labels[rows] = c
    if noise > 0.0:
        features += noise * rng.normal(size=features.shape)

    split_rng = rng_for(seed, "data:split")
    train_parts, val_parts = [], []
    for c in range(classes):
        idx = np.arange(c * n_per_class, (c + 1) * n_per_class)
        perm = split_rng.permutation(idx)
        n_train = round(TRAIN_FRACTION * n_per_class)
        train_parts.append(perm[:n_train])
        val_parts.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))

    return Dataset(
        features=_standardize(features, train_idx),
        labels=labels,
        train_idx=train_idx,
        val_idx=val_idx,
        kind="classification",
        n_classes=classes,
    )


def _hash_split(n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Seedless 80/20 split: order rows by a hash of their index."""
    keys = [
        hashlib.blake2b(f"row:{i}".encode(), digest_size=8).digest()
        for i in range(n_rows)
    ]
    order = sorted(range(n_rows), key=lambda i: (keys[i], i))
    n_train = round(TRAIN_FRACTION * n_rows)
    train_idx = np.sort(np.asarray(order[:n_train], dtype=np.int64))
    val_idx = np.sort(np.asarray(order[n_train:], dtype=np.int64))
    return train_idx, val_idx


def load_csv(path, label_column: str) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    Non-label columns become features in file order. Integer-valued
    labels make a classification problem (classes 0..max), anything else
    is regression. A class label must lie below the number of data rows,
    so that one stray label cannot size the model's output layer. The
    80/20 split hashes row indices, so it is stable across runs without a
    seed. An unreadable file raises :class:`IoError`, and a file that is
    not UTF-8 or a cell that is not a finite number raises
    :class:`ParseError`.
    """
    reader = csv.reader(io.StringIO(read_text(path, "dataset"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected a header row") from None
    if label_column not in header:
        raise SchemaError(f"{path}: no column named {label_column!r}")
    label_pos = header.index(label_column)
    feature_cols = [i for i in range(len(header)) if i != label_pos]

    rows: list[list[float]] = []
    raw_labels: list[float] = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for col in range(len(header)):
            try:
                value = float(row[col])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {row_no}, column {header[col]!r}: "
                    f"{row[col]!r} is not a finite number"
                )
            parsed.append(value)
        rows.append([parsed[i] for i in feature_cols])
        raw_labels.append(parsed[label_pos])

    if not rows:
        raise SchemaError(f"{path}: no data rows")

    features = np.asarray(rows, dtype=np.float64)
    label_arr = np.asarray(raw_labels, dtype=np.float64)
    is_classification = bool(np.all(label_arr == np.floor(label_arr)))
    if is_classification and label_arr.min() < 0:
        raise SchemaError(f"{path}: negative class label {label_arr.min():g}")
    if is_classification and label_arr.max() >= len(rows):
        raise SchemaError(
            f"{path}: class label {label_arr.max():.0f} is not below the "
            f"{len(rows)} data rows"
        )

    labels, kind, n_classes = label_arr, "regression", 0
    if is_classification:
        labels = label_arr.astype(np.int64)
        kind, n_classes = "classification", int(labels.max()) + 1
    train_idx, val_idx = _hash_split(len(rows))
    return Dataset(
        features=_standardize(features, train_idx),
        labels=labels,
        train_idx=train_idx,
        val_idx=val_idx,
        kind=kind,
        n_classes=n_classes,
    )
