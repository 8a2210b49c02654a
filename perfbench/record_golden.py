"""Record golden.json: digests of every output of one round per pool seed.

    python3 perfbench/record_golden.py

Run this only on a program whose outputs are known to be right, and only
when the benchmark's inputs change: the timed runs count every output that
differs from these digests as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK_DIR, run_worker
from workloads import POOL, WORKLOADS


def main() -> int:
    golden = {}
    for name in WORKLOADS:
        golden[name] = {}
        for key in range(POOL):
            work = WORK_DIR / f"record-{name}-{key}"
            args = ["--workload", name, "--seed", str(key), "--seconds", "0", "--work", str(work), "--record"]
            try:
                golden[name][str(key)] = run_worker(args, 900)
            finally:
                shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {name}: {len(golden[name])} seeds", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
