"""Command-line surface: train, average, eval, compare, sweep.

Exit codes: 0 success, 2 usage/config/data problems, 1 numerical
failure inside a run.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .averaging import DEFAULT_EMA_ALPHA, average_checkpoint_dir
from .checkpoint_io import read_checkpoint, write_atomically, write_checkpoint
from .compare import compare_runs, write_comparison_csv
from .config import (
    CHOICES,
    FIELD_TYPES,
    RunConfig,
    config_from_mapping,
    parse_config_file,
)
from .engine import (
    InferenceBuffers,
    apply_bn_mode,
    build_dataset,
    evaluate,
    model_spec_for,
    param_shapes,
    train_run,
    train_variants,
)
from .errors import ConfigError, ConfigWarning, InternalStateError, LawaError, NonFiniteError
from .metrics import METRICS_HEADER, csv_line
from .params import check_layout


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field; defaults are suppressed so a config
    file can supply values and explicit flags override it."""
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        kind = FIELD_TYPES[f.name]
        if kind is bool:
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kwargs = {
                "type": kind if kind in (int, float) else None,
                "choices": CHOICES.get(f.name),
            }
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            default=argparse.SUPPRESS,
            help=f.metadata.get("help"),
            **kwargs,
        )


def _effective_mapping(args: argparse.Namespace) -> dict:
    mapping: dict = {}
    if getattr(args, "config", None):
        mapping.update(parse_config_file(args.config))
    mapping.update((k, v) for k, v in vars(args).items() if k in FIELD_TYPES)
    return mapping


def cmd_train(args: argparse.Namespace) -> int:
    cfg = config_from_mapping(_effective_mapping(args))
    records = train_run(cfg)
    last = records[-1]
    print(
        f"wrote {Path(cfg.out) / 'metrics.csv'} ({len(records)} epochs, "
        f"final val_loss={last.val_loss:.6g})"
    )
    return 0


def cmd_average(args: argparse.Namespace) -> int:
    ckpt = average_checkpoint_dir(args.dir, args.k, args.scheme, args.alpha)
    write_checkpoint(ckpt, args.out)
    print(f"wrote {args.out} (scheme={args.scheme}, k={args.k}, epoch={ckpt.epoch})")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = config_from_mapping(parse_config_file(args.config))
    dataset = build_dataset(cfg)
    spec = model_spec_for(cfg, dataset)
    ckpt = read_checkpoint(args.ckpt)
    check_layout(ckpt.params, spec.np_dtype, param_shapes(spec))

    if args.bn_mode == "recompute" and spec.has_bn and not args.train_data:
        raise ConfigError("--train-data is required with --bn-mode recompute")
    split = {"train": dataset.train, "val": dataset.val}
    stats_x = split[args.train_data]()[0] if args.train_data else None
    buffers = InferenceBuffers()
    params = apply_bn_mode(
        ckpt.params, spec, args.bn_mode, ckpt.params, stats_x, buffers=buffers
    )
    x, y = split[args.split]()
    loss, acc = evaluate(params, spec, x, y, buffers=buffers)
    print(f"loss={loss:.17g} accuracy={acc:.17g}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    higher = None
    if args.higher_better:
        higher = True
    elif args.lower_better:
        higher = False
    comparisons = compare_runs(args.metrics_csvs, args.metric, higher)
    if args.out:
        write_comparison_csv(comparisons, args.out)
    for comp in comparisons:
        at = comp.max_savings_epoch
        print(
            f"run={comp.name} metric={comp.metric} max_savings={comp.max_savings} "
            f"at_epoch={'-' if at is None else at}"
        )
        for target in args.targets:
            base, avg = comp.epochs_to_target(target)
            print(
                f"run={comp.name} target={target:g} "
                f"baseline_epoch={'-' if base is None else base} "
                f"averaged_epoch={'-' if avg is None else avg}"
            )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _effective_mapping(args)
    variants: list[tuple[str, dict]] = []
    for scheme in args.schemes.split(","):
        scheme = scheme.strip()
        if scheme:
            variants.append((scheme, {"scheme": scheme}))
    if args.k_values:
        for text in args.k_values.split(","):
            try:
                k = int(text)
            except ValueError:
                raise ConfigError(
                    f"--k-values must be a comma list of integers, got {text!r}"
                ) from None
            variants.append((f"uniform_k{k}", {"scheme": "uniform", "k": k}))
    if not variants:
        raise ConfigError("sweep needs at least one scheme or k value")
    names = [name for name, _ in variants]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigError(f"duplicate sweep variants: {', '.join(duplicates)}")

    out_root = Path(base.get("out", "sweep"))
    sweep_csv = out_root / "sweep.csv"
    if sweep_csv.exists():
        raise ConfigError(
            f"{sweep_csv} already exists; remove the finished sweep or choose another --out"
        )
    cfg = config_from_mapping({**base, "out": str(out_root)})
    runs = train_variants(
        cfg, [{**overrides, "out": str(out_root / name)} for name, overrides in variants]
    )
    lines = ["variant," + ",".join(METRICS_HEADER)]
    for name, records in zip(names, runs):
        lines.extend(f"{name},{csv_line(r)}" for r in records)
        last = records[-1]
        final_avg = "-" if last.avg_val_loss is None else f"{last.avg_val_loss:.6g}"
        best_avg = min(
            (r.avg_val_loss for r in records if r.avg_val_loss is not None),
            default=None,
        )
        print(
            f"variant={name} final_val_loss={last.val_loss:.6g} "
            f"final_avg_val_loss={final_avg} "
            f"best_avg_val_loss={'-' if best_avg is None else f'{best_avg:.6g}'}"
        )
    write_atomically(sweep_csv, ("\n".join(lines) + "\n").encode("utf-8"), "sweep CSV")
    print(f"wrote {sweep_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lawa",
        description="Checkpoint averaging toolkit: train with k-latest weight "
        "averaging, average checkpoints offline, evaluate, and compare runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training job with in-loop averaging")
    _add_run_options(p)

    p = sub.add_parser("average", help="average checkpoint files offline")
    p.add_argument("--dir", required=True, help="directory holding *.lawa files")
    p.add_argument("--k", type=int, required=True, help="number of newest checkpoints")
    p.add_argument("--scheme", choices=CHOICES["scheme"], default="uniform")
    p.add_argument("--alpha", type=float, default=DEFAULT_EMA_ALPHA)
    p.add_argument("--out", required=True, help="output checkpoint path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True, help="run config (e.g. config.resolved)")
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--bn-mode", choices=("off", "recompute", "copy"), default="off")
    p.add_argument(
        "--train-data",
        choices=("train", "val"),
        default="",
        help="data for --bn-mode recompute: 'train' or 'val' split",
    )

    p = sub.add_parser("compare", help="epoch savings of averaged vs baseline curves")
    p.add_argument("metrics_csvs", nargs="+", help="metrics.csv files")
    p.add_argument("--metric", default="val_loss")
    p.add_argument("--out", default="", help="per-epoch comparison CSV")
    p.add_argument(
        "--targets",
        type=lambda text: [float(v) for v in text.split(",")],
        default=[],
        help="comma list of target metric values",
    )
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--higher-better", action="store_true")
    direction.add_argument("--lower-better", action="store_true")

    p = sub.add_parser("sweep", help="run several schemes/windows on one task")
    _add_run_options(p)
    p.add_argument("--schemes", default="uniform,ema", help="comma list of schemes")
    p.add_argument("--k-values", default="", help="comma list of uniform windows")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs milliseconds."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The command is looked up at call time, so a cmd_* rebound on this
    # module after the parser was built is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    with warnings.catch_warnings():
        show_other = warnings.showwarning

        def show(message, category, filename, lineno, file=None, line=None):
            # A ConfigWarning is about the user's settings, not a source line.
            if issubclass(category, ConfigWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show_other(message, category, filename, lineno, file, line)

        warnings.showwarning = show
        try:
            return command(args)
        except (NonFiniteError, InternalStateError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except LawaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
