"""Runs one workload in one process and prints its raw results as one JSON line.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and a fixed BLAS thread count; it is not meant to be run directly.
``setup_s_raw`` counts from the first line of this file, so it includes
the import of lawa and numpy and the workload's own setup; ``run.py``
scales it to reference seconds.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import REF_S, tail  # noqa: E402
from tracer import PER_LAYER, ROOT_SPAN, Totals, Tracer  # noqa: E402
from workloads import BATCH_SIZE, POOL, REFERENCE, TARGET_LOSS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The host's speed beside a round is the median time of this many
# reference blocks, so that one block slowed by a passing burst of other
# work does not count.
REF_BLOCKS = 4

# A traced round fails its check when the time no wrapper covers (the root
# span's own self time) is more than this share of the round.
UNATTRIBUTED_LIMIT = 0.05



def import_cli():
    """``lawa.cli.main`` from this checkout's ``src``, never from elsewhere."""
    try:
        import lawa.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lawa from {SRC}: {exc}") from None
    if Path(lawa.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: lawa was imported from {lawa.cli.__file__}, not {SRC}")
    return lawa.cli.main


@dataclass
class Outcome:
    seconds: float
    stdout: str
    error: str | None


def run_op(cli_main, op) -> Outcome:
    """Wall time, stdout and error of one in-process CLI call."""
    buf = io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(op.argv)
        if code != 0:
            error = f"{op.kind}: exit code {code}"
    except (Exception, SystemExit):
        error = f"{op.kind}: {traceback.format_exc()}"
    return Outcome(time.perf_counter() - started, buf.getvalue(), error)


def check_round(rnd, outcomes, expected: dict) -> tuple[dict, list[str]]:
    """Digests of every output the round produced and the ops whose outputs
    differ from ``expected``; a complete round must produce exactly the
    expected artifacts."""
    produced: dict[str, str] = {}
    problems = []
    for op, o in zip(rnd.ops, outcomes):
        if o.error:
            continue
        try:
            digests = op.digests(o.stdout)
        except OSError as exc:
            problems.append(f"{op.kind}: output missing: {exc}")
            continue
        produced.update(digests)
        wrong = sorted(name for name, d in digests.items() if expected.get(name) != d)
        if wrong:
            problems.append(f"{op.kind}: output differs from golden digest: {', '.join(wrong)}")
    complete = len(outcomes) == len(rnd.ops) and not any(o.error for o in outcomes)
    missing = sorted(set(expected) - set(produced))
    if complete and missing:
        problems.append(f"outputs missing: {', '.join(missing)}")
    return produced, problems


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def op_seconds(rnd, outcomes) -> dict[str, list[float]]:
    """Wall times of one round's calls, by kind of call."""
    out: dict[str, list[float]] = {"average": [], "eval": [], "train": []}
    for op, o in zip(rnd.ops, outcomes):
        out.setdefault("train" if op.kind == "sweep" else op.kind, []).append(o.seconds)
    return out


def round_facts(name: str, rnd, outcomes, produced: dict) -> dict:
    """Numbers read back from a round's checked outputs: epoch wall times,
    samples trained, time to target, epochs saved, distinct trajectories."""
    facts: dict = {"epoch_s": []}
    for op, o in zip(rnd.ops, outcomes):
        if op.kind == "compare":
            facts["epochs_saved"] = int(re.search(r"max_savings=(\d+)", o.stdout).group(1))
    samples = 0
    for i, run in enumerate(rnd.run_dirs):
        rows = read_rows(run / "metrics.csv")
        walls = [float(r["wall_seconds"]) for r in rows]
        facts["epoch_s"].extend(b - a for a, b in zip([0.0, *walls], walls))
        samples += int(rows[-1]["step"]) * BATCH_SIZE
        if i == 0:
            reached = [
                float(r["wall_seconds"])
                for r in rows
                if r["avg_val_loss"] and float(r["avg_val_loss"]) <= TARGET_LOSS[name]
            ]
            facts["time_to_target_s"] = reached[0] if reached else None
    facts["train_samples_per_s"] = samples / op_seconds(rnd, outcomes)["train"][0]
    trajectories = [d for name, d in produced.items() if name.split(".")[-1] == "checkpoints"]
    facts["unique_trajectory_ratio"] = len(set(trajectories)) / len(rnd.run_dirs)
    return facts


def _median(values):
    return statistics.median(values) if values else None


def reference_block(width: int, steps: int) -> float:
    """Seconds taken by a fixed numpy MLP training loop that no change to
    lawa can alter: ``steps`` plain SGD steps of a 2-width-width-2 ReLU net
    with softmax on one batch. Timed between rounds to follow the host's
    speed, at the workload's layer width so that it slows as the workload
    does."""
    import numpy as np

    started = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 2 * BATCH_SIZE).reshape(BATCH_SIZE, 2)
    y = (x[:, 0] > x[:, 1]).astype(np.int64)
    rows = np.arange(BATCH_SIZE)
    params = [np.full((2, width), 0.1), np.zeros(width), np.full((width, width), 0.01), np.zeros(width)]
    params += [np.full((width, 2), 0.01), np.zeros(2)]
    w1, b1, w2, b2, w3, b3 = params
    for _ in range(steps):
        h1 = np.maximum(x @ w1 + b1, 0.0)
        h2 = np.maximum(h1 @ w2 + b2, 0.0)
        z = h2 @ w3 + b3
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        g3 = p / BATCH_SIZE
        g2 = (g3 @ w3.T) * (h2 > 0)
        g1 = (g2 @ w2.T) * (h1 > 0)
        for param, grad in zip(params, (x.T @ g1, g1.sum(0), h1.T @ g2, g2.sum(0), h2.T @ g3, g3.sum(0))):
            param -= 0.1 * grad
    return time.perf_counter() - started


def summarize(name: str, rounds: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced complete ones of the timed
    rounds, and printed-only extras from those whose outputs matched the
    golden digests."""
    timed = [r for r in rounds if not r["traced"] and r["complete"]]
    metrics = {
        "run_s": (REF_S * statistics.median(r["wall_s"] / r["ref_s"] for r in timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    done = [r for r in timed if "facts" in r]
    extras: dict = {
        "rounds": len(timed),
        "rounds_checked_ok": len(done),
        "run_s_raw": statistics.median(r["wall_s"] for r in timed),
    }
    average_s = [v for r in timed for v in r["op_s"]["average"]]
    extras["average_ms_p50"] = 1e3 * statistics.median(average_s)
    extras["eval_ms_p50"] = 1e3 * statistics.median(v for r in timed for v in r["op_s"]["eval"])
    epoch_s = [v for r in done for v in r["facts"]["epoch_s"]]
    average_tail = tail(1e3 * s for s in average_s)
    if average_tail:
        extras["average_ms_tail"] = {"percentile": average_tail[0], "value": average_tail[1], "n": average_tail[2]}
    if epoch_s:
        extras["epoch_ms_p50"] = 1e3 * statistics.median(epoch_s)
        epoch_tail = tail(1e3 * s for s in epoch_s)
        if epoch_tail:
            extras["epoch_ms_tail"] = {"percentile": epoch_tail[0], "value": epoch_tail[1], "n": epoch_tail[2]}
        extras["train_samples_per_s"] = _median([r["facts"]["train_samples_per_s"] for r in done])
        reached = [r["facts"]["time_to_target_s"] for r in done if r["facts"]["time_to_target_s"] is not None]
        extras["time_to_target_s"] = {
            "target_avg_val_loss": TARGET_LOSS[name],
            "value": _median(reached),
            "reached": f"{len(reached)}/{len(done)}",
        }
        extras["epochs_saved"] = _median([r["facts"]["epochs_saved"] for r in done])
    return metrics, extras


def trace_metrics(rounds: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced rounds), plus the traced round
    time and every module's self time, whose sum it equals."""
    traced = [r for r in rounds if r["traced"] and r["complete"]]
    plain = [r["wall_s"] / r["ref_s"] for r in rounds if not r["traced"] and r["complete"]]
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), unit)
        for name, (unit, _) in PER_LAYER.items()
    }
    traced_wall = statistics.median(r["wall_s"] / r["ref_s"] for r in traced)
    metrics["trace.overhead_ratio"] = (traced_wall / statistics.median(plain) - 1.0, "ratio")
    modules = sorted({m for r in traced for m in r["module_self_s"]})
    extras = {
        "traced_run_s": statistics.median(r["traced_run_s"] for r in traced),
        "module_self_s": {m: statistics.median(r["module_self_s"].get(m, 0.0) for r in traced) for m in modules},
    }
    return metrics, extras


def measure(name: str, work: Path, seed: int, seconds: float, trace: bool, golden: dict, cli_main) -> dict:
    """Repeat rounds until ``seconds`` have passed, timing the reference
    blocks before the first round and after each one. The first round warms
    up and is checked but not timed. In trace mode traced and untraced
    rounds alternate, and at least one of each is timed."""
    tracer = Tracer() if trace else None
    rounds: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0

    def reference() -> float:
        return statistics.median(reference_block(*REFERENCE[name]) for _ in range(REF_BLOCKS))

    reference()  # warm-up: the first calls start BLAS and fault pages in
    ref_before = reference()
    started = time.perf_counter()
    index = 0
    while index < (3 if trace else 2) or time.perf_counter() - started < seconds:
        traced = trace and index % 2 == 1
        rnd = WORKLOADS[name](work, (seed + index) % POOL)
        if traced:
            tracer.install()
            first = len(tracer.spans)
            root = tracer.open(ROOT_SPAN)
        round_started = time.perf_counter()
        outcomes = []
        for op in rnd.ops:
            outcomes.append(run_op(cli_main, op))
            if outcomes[-1].error:
                break
        wall_s = time.perf_counter() - round_started
        if traced:
            tracer.close(root)
            tracer.uninstall()
        ref_after = reference()

        produced, round_problems = check_round(rnd, outcomes, golden.get(rnd.key, {}))
        errors = [o.error for o in outcomes if o.error]
        complete = len(outcomes) == len(rnd.ops) and not errors
        record = {
            "traced": traced,
            "complete": complete,
            "wall_s": wall_s,
            "ref_s": (ref_before + ref_after) / 2,
        }
        ref_before = ref_after
        if complete:
            record["op_s"] = op_seconds(rnd, outcomes)
        if complete and not round_problems:
            record["facts"] = round_facts(name, rnd, outcomes, produced)
        if traced and complete:
            totals = Totals(tracer.spans[first:])
            round_problems += check_trace(totals, wall_s)
            ratio = record.get("facts", {}).get("unique_trajectory_ratio", 0.0)
            record["layers"] = {layer: fn(totals, ratio) for layer, (_, fn) in PER_LAYER.items()}
            record["module_self_s"] = totals.module_self_s()
            record["traced_run_s"] = totals.root_ns / 1e9
        attempted += len(rnd.ops)
        failed += len(rnd.ops) - len(outcomes) + len(errors) + len(round_problems)
        problems.extend(f"round {index} (input seed {rnd.key}): {p}" for p in errors + round_problems)
        rounds.append(record)
        index += 1

    result = {
        "ref_s": statistics.median(r["ref_s"] for r in rounds),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems[:20],
        "rounds": [{k: v for k, v in r.items() if k != "facts"} for r in rounds],
    }
    timed = rounds[1:]
    if not any(r["complete"] and not r["traced"] for r in timed) or (
        trace and not any(r["complete"] and r["traced"] for r in timed)
    ):
        result["metrics"] = None
        return result
    metrics, extras = summarize(name, timed)
    extras["unique_trajectory_ratio"] = _median(
        [r["facts"]["unique_trajectory_ratio"] for r in rounds if "unique_trajectory_ratio" in r.get("facts", {})]
    )
    result["extras"] = extras
    if trace:
        result["metrics"], trace_extras = trace_metrics(timed)
        extras.update(trace_extras)
        result["spans"] = tracer
    else:
        result["metrics"] = metrics
    return result


def check_trace(totals: Totals, wall_s: float) -> list[str]:
    """Problems with one traced round: the root span must last as long as
    the round timed outside the tracer, and the time no wrapper covers must
    stay under ``UNATTRIBUTED_LIMIT`` of it."""
    problems = []
    root_s = totals.root_ns / 1e9
    if abs(root_s - wall_s) > 0.01 * wall_s + 1e-3:
        problems.append(f"root span lasts {root_s:.4f} s but the round took {wall_s:.4f} s")
    share = totals.unattributed_ratio()
    if share > UNATTRIBUTED_LIMIT:
        problems.append(f"{share:.1%} of the round is outside every traced layer (limit {UNATTRIBUTED_LIMIT:.0%})")
    return problems


def record(name: str, work: Path, key: int, cli_main) -> dict:
    """Digests of one round on input seed ``key``."""
    rnd = WORKLOADS[name](work, key)
    outcomes = [run_op(cli_main, op) for op in rnd.ops]
    for o in outcomes:
        if o.error:
            raise SystemExit(f"perfbench: cannot record {name} seed {key}: {o.error}")
    return check_round(rnd, outcomes, {})[0]


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path, help="working directory for the run's files")
    parser.add_argument("--spans", type=Path, help="where to write the traced spans")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true", help="print the golden digests of input seed --seed")
    args = parser.parse_args(argv)
    cli_main = import_cli()
    args.work.mkdir(parents=True, exist_ok=True)
    if args.record:
        print(json.dumps(record(args.workload, args.work, args.seed, cli_main)))
        return 0
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s_raw": setup_s}))
        return 0
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[args.workload]
    result = measure(args.workload, args.work, args.seed, args.seconds, bool(args.trace), golden, cli_main)
    tracer = result.pop("spans", None)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    result["setup_s_raw"] = setup_s
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
