"""lawa benchmark: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
README.md in this directory). Every workload runs in a child process with a
fixed BLAS thread count. Set-up is timed in the measuring worker and in
``SETUP_TRIALS`` fresh workers before and after it, and reported as their
median. Timings are in reference seconds: scaled by the reference block
that the measuring worker times between rounds. A full record of each run,
with the environment and, for traced runs, every span, goes to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_TRIALS = 8  # before the measuring worker, and as many after it
BLAS_THREADS = 1  # no greater than nproc on any machine; one thread also keeps runs steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and parse the JSON on its last line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=max(timeout, 1.0),
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_trials(common: list[str], work: Path, started: float) -> list[float]:
    """Raw set-up seconds of SETUP_TRIALS fresh workers that only set up."""
    samples = []
    for trial in range(SETUP_TRIALS):
        trial_args = [*common, "--work", str(work / f"setup{trial}"), "--setup-only"]
        samples.append(run_worker(trial_args, DEADLINE_S - (time.monotonic() - started))["setup_s_raw"])
        shutil.rmtree(work / f"setup{trial}", ignore_errors=True)
    return samples


def source_identity() -> dict[str, str]:
    """Git commit when the checkout is a repository, and always a digest of
    the program's sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, result: dict, setup_samples: list[float]) -> dict:
    """Print every metric by name with its unit; return the result's JSON line."""
    env = result["env"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        setup_s = REF_S * statistics.median(setup_samples) / result["ref_s"]
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for name, m in metrics.items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    print(f"# setup_s_raw = {statistics.median(setup_samples):.6g}")
    print(f"# ref_s = {result['ref_s']:.6g} (reference block, median over the run)")
    for name, value in result.get("extras", {}).items():
        print(f"# {name} = {json.dumps(value)}")
    print(f"# error_rate = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']} ops)")
    for problem in result["problems"]:
        print(f"# problem: {problem.splitlines()[-1]}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lawa" / "__init__.py").is_file():
        print(f"perfbench: no lawa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_samples = setup_trials(common, work, started)
        main_args = [*common, "--trace", str(args.trace)]
        main_args += ["--work", str(work / "run"), "--spans", str(OUT_DIR / f"{tag}-spans.csv")]
        result = run_worker(main_args, DEADLINE_S - (time.monotonic() - started))
        setup_samples += setup_trials(common, work, started)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["metrics"] is None:
        for problem in result["problems"]:
            print(f"perfbench: {problem}", file=sys.stderr)
        print("perfbench: no round completed, nothing to report", file=sys.stderr)
        return 1
    setup_samples.append(result["setup_s_raw"])
    result["env"].update(source_identity())
    line = report(args, result, setup_samples)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "setup_samples_s": setup_samples, **result, **line}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
