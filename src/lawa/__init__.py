"""Checkpoint averaging toolkit.

Trains a small deterministic MLP while maintaining an average of the k
most recent end-of-epoch checkpoints (plus EMA and running-mean
baselines), and ships offline tools to average, evaluate, and compare
saved checkpoints.
"""

from .averaging import (
    EmaScheme,
    PolyakScheme,
    UniformScheme,
    make_scheme,
    uniform_average,
)
from .checkpoint_io import read_checkpoint, write_checkpoint
from .params import Checkpoint, ParameterSet, l2_distance

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "EmaScheme",
    "ParameterSet",
    "PolyakScheme",
    "UniformScheme",
    "__version__",
    "l2_distance",
    "make_scheme",
    "read_checkpoint",
    "uniform_average",
    "write_checkpoint",
]
