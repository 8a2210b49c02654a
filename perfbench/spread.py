"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py                      # every workload once, seed 0
    python3 perfbench/spread.py --runs 10 --save a.json
    python3 perfbench/spread.py --runs 10 --against a.json

For each workload and end-to-end metric it prints the median and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to the bound in BENCHMARK.json.
``--against`` compares the medians with those of an earlier ``--save`` and
flags any that got worse by more than the bound. Runs are sequential,
with ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT
from stats import quartile_spread


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=200, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    for line in lines[:-1]:
        if not line.startswith("#"):
            print(f"  {line}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--save", type=Path, help="write every value here")
    parser.add_argument("--against", type=Path, help="earlier --save to compare medians with")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher_better = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    earlier = json.loads(args.against.read_text()) if args.against else {}

    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values[workload] = {}
        for seed in range(args.runs):
            print(f"{workload} seed {seed}", flush=True)
            line = run_once(workload, seed, bench["run_seconds"])
            if not line["correct"] or line["failed"]:
                print(f"  NOT CORRECT: {line['failed']}/{line['attempted']} ops failed")
                ok = False
            for name, m in line["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
        if args.runs < 2:
            continue
        print(f"{workload}: metric median q1 q3 spread bound")
        for name, vals in values[workload].items():
            q1, med, q3, spread = quartile_spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
                if name == "setup_s":
                    verdict = "(spread not gated)"
                elif spread > bound:
                    ok = False
                before = earlier.get(workload, {}).get(name)
                if before:
                    after, before = statistics.median(vals), statistics.median(before)
                    worse = (before / after if name in higher_better else after / before) - 1.0
                    verdict += f"; vs earlier median {worse:+.3f}"
                    if worse > bound:
                        verdict += " WORSE THAN BOUND"
                        ok = False
            print(f"  {name} {med:.6g} {q1:.6g} {q3:.6g} {spread:.4f} {bound} {verdict}")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
