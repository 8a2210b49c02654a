"""The workloads: what each round runs and which outputs it checks.

Every round is a closed loop of ``lawa`` CLI calls made in-process through
``lawa.cli.main``, one at a time. Inputs come from the workload seed: round
``i`` trains with seed ``(seed + i) % POOL``. ``golden.json`` holds the
digests of the unmodified program's outputs for every seed in the pool, so
any workload seed can be checked.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stats import file_digest, files_digest, masked_csv_digest, sha256_bytes

POOL = 8
BATCH_SIZE = 64

# The acceptance speedup config: spirals, 1000/class, 64x64, SGD momentum
# 0.9 at lr 0.3, cosine, batch 64, uniform k=6, no batch norm.
SMALL = (
    "--dataset spirals --n-per-class 1000 --hidden 64,64 --no-use-bn "
    "--optimizer sgd --momentum 0.9 --lr 0.3 --schedule cosine "
    f"--batch-size {BATCH_SIZE} --scheme uniform --k 6"
).split()

# 264k parameters with batch norm (bn_mode auto, i.e. recompute) and
# Lookahead around Adam, saving the averaged model at every epoch.
WIDE_BN = (
    "--dataset spirals --n-per-class 1000 --hidden 512,512 --use-bn "
    "--optimizer lookahead --lookahead-inner adam --lr 0.002 --schedule cosine "
    f"--batch-size {BATCH_SIZE} --scheme uniform --k 6 --save-averaged"
).split()
WIDE_EPOCHS = 8
WIDE_EVAL = ["--bn-mode", "recompute", "--train-data", "train"]  # eval args after averaging

SWEEP_EPOCHS = 30
SWEEP_SCHEMES = "uniform,ema,polyak"
SWEEP_K_VALUES = "2,16"
SWEEP_VARIANTS = ("uniform", "ema", "polyak", "uniform_k2", "uniform_k16")  # run dirs sweep writes

WINDOWS = (2, 4, 6)  # k values averaged after each training run


@dataclass
class Op:
    """One CLI call and the digests of the outputs it is responsible for."""

    kind: str  # train, sweep, average, eval or compare
    argv: list[str]
    digests: Callable[[str], dict[str, str]]  # stdout -> {artifact: sha256}


@dataclass
class Round:
    key: str  # input seed; selects the golden digests
    ops: list[Op]
    run_dirs: list[Path]  # trained this round


def _stdout_digest(name: str) -> Callable[[str], dict[str, str]]:
    return lambda out: {name: sha256_bytes(out.encode())}


def _run_digests(run: Path, prefix: str = "") -> dict[str, str]:
    out = {
        f"{prefix}checkpoints": files_digest(run, "ckpt_*.lawa"),
        f"{prefix}metrics_csv": masked_csv_digest(run / "metrics.csv"),
    }
    if any(run.glob("lawa_*.lawa")):
        out[f"{prefix}averaged_checkpoints"] = files_digest(run, "lawa_*.lawa")
    return out


def _after_training(run: Path, work: Path, metrics_csvs: list[str], eval_args: list[str]) -> list[Op]:
    """The offline k ablation on a finished run (average and evaluate with
    each window in ``WINDOWS``), then the epoch-savings comparison."""
    ops = []
    for k in WINDOWS:
        avg = work / f"avg_k{k}.lawa"
        ops.append(
            Op(
                "average",
                ["average", "--dir", str(run), "--k", str(k), "--out", str(avg)],
                lambda out, avg=avg, k=k: {f"averaged_k{k}": file_digest(avg)},
            )
        )
        ops.append(
            Op(
                "eval",
                ["eval", "--ckpt", str(avg), "--config", str(run / "config.resolved"), *eval_args],
                _stdout_digest(f"eval_k{k}"),
            )
        )
    ops.append(Op("compare", ["compare", *metrics_csvs, "--metric", "val_loss"], _stdout_digest("compare")))
    return ops


def wide_round(work: Path, key: int) -> Round:
    """``lawa train`` on WIDE_BN, then the k ablation and ``lawa compare``."""
    run = work / "run"
    shutil.rmtree(run, ignore_errors=True)
    train = Op(
        "train",
        ["train", *WIDE_BN, "--epochs", str(WIDE_EPOCHS), "--seed", str(key), "--out", str(run)],
        lambda out: _run_digests(run),
    )
    return Round(str(key), [train, *_after_training(run, work, [str(run / "metrics.csv")], WIDE_EVAL)], [run])


def sweep_round(work: Path, key: int) -> Round:
    """``lawa sweep`` of SMALL over SWEEP_VARIANTS, then the k ablation on
    the ``uniform`` variant and ``lawa compare`` over all of them."""
    root = work / "sweep"
    shutil.rmtree(root, ignore_errors=True)
    runs = [root / v for v in SWEEP_VARIANTS]

    def digests(out: str) -> dict[str, str]:
        found = {"sweep_csv": masked_csv_digest(root / "sweep.csv")}
        for run in runs:
            found.update(_run_digests(run, prefix=f"{run.name}."))
        return found

    sweep = Op(
        "sweep",
        [
            "sweep", *SMALL, "--epochs", str(SWEEP_EPOCHS), "--seed", str(key),
            "--schemes", SWEEP_SCHEMES, "--k-values", SWEEP_K_VALUES, "--out", str(root),
        ],
        digests,
    )
    metrics_csvs = [str(run / "metrics.csv") for run in runs]
    return Round(str(key), [sweep, *_after_training(runs[0], work, metrics_csvs, [])], runs)


# workload name -> the function that makes its rounds, in the order of BENCHMARK.json
WORKLOADS: dict[str, Callable[[Path, int], Round]] = {
    "train_wide_bn": wide_round,
    "sweep_small": sweep_round,
}

# avg_val_loss a round's (first) run should reach; time_to_target_s is when it does
TARGET_LOSS = {"train_wide_bn": 0.55, "sweep_small": 0.4}

# (layer width, steps) of the reference block that worker.py times between
# rounds: the workload's width, and about 25 ms of work on a 2-core x86_64 VM.
REFERENCE = {"train_wide_bn": (512, 4), "sweep_small": (64, 150)}
