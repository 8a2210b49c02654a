"""Tests for the benchmark's own arithmetic and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stats import mask_last_column, quartile_spread, self_times, sha256_bytes, tail  # noqa: E402
from tracer import PER_LAYER, ROOT_SPAN, Totals, Tracer  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, (50.0, 10)),
        (39, (50.0, 20)),
        (40, (75.0, 30)),
        (100, (90.0, 90)),
        (999, (95.0, 950)),  # p99 would leave 9 beyond
        (1000, (99.0, 990)),
        (1200, (99.0, 1188)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))  # order must not matter
    got = tail(values)
    assert got == (None if expected is None else (*expected, n))


def test_quartile_spread_matches_statistics_quantiles():
    q1, med, q3, spread = quartile_spread([9, 1, 8, 2, 7, 3, 6, 4, 5])
    assert (q1, med, q3) == (2.5, 5.0, 7.5)
    assert spread == 1.0


def test_self_time_subtracts_nested_children():
    spans = [
        (0, -1, 0, 1000),  # round
        (1, 0, 0, 100),  # evaluate
        (2, 1, 10, 40),  # forward inside evaluate
        (3, 1, 50, 80),  # forward inside evaluate
        (4, 0, 200, 300),  # Lookahead.step
        (5, 4, 205, 290),  # Adam.step inside Lookahead.step
        (6, 5, 210, 230),  # ParameterSet inside Adam.step
    ]
    assert self_times(spans) == [800, 40, 30, 30, 15, 65, 20]
    assert sum(self_times(spans)) == 1000


def test_self_time_counts_overlapping_children_once():
    spans = [(10, -1, 0, 100), (11, 10, 50, 90), (12, 10, 20, 60), (13, 10, 95, 120)]
    assert self_times(spans)[0] == 100 - 70 - 5


def _rec(sid, parent, name, start, end, value=0):
    return [sid, parent, name, start, end, value]


def test_totals_self_inclusive_and_ratios():
    spans = [
        _rec(0, -1, ROOT_SPAN, 0, 1000),
        _rec(1, 0, "optim.Lookahead.step", 0, 100),
        _rec(2, 1, "optim.Adam.step", 10, 90),
        _rec(3, 2, "params.ParameterSet", 20, 30, 800),
        _rec(4, 1, "params.ParameterSet", 90, 95, 800),
        _rec(5, 0, "averaging.average_checkpoint_dir", 100, 400, 6),
        *[_rec(6 + i, 5, "checkpoint_io.read", 100 + 20 * i, 110 + 20 * i, 64) for i in range(12)],
        _rec(18, 0, "checkpoint_io.read", 500, 510, 64),  # eval's read: not an averaging read
    ]
    t = Totals(spans)
    assert sum(t.self_ns.values()) == t.root_ns == 1000
    assert t.self_ns["optim.Lookahead.step"] == 100 - 80 - 5
    assert t.self_ns["optim.Adam.step"] == 80 - 10
    assert t.optimizer_steps == 1  # Adam inside Lookahead is the same step
    assert t.incl_ns["checkpoint_io.read"] == 13 * 10
    assert t.self_ns["averaging.average_checkpoint_dir"] == 300 - 12 * 10
    layers = {name: fn(t, 0.2) for name, (_, fn) in PER_LAYER.items()}
    assert layers["checkpoint_io.read.useful_ratio"] == 0.5
    assert layers["params.copy_bytes_per_step"] == 1600
    assert layers["optim.Lookahead.step.calls"] == 1
    assert layers["cli.sweep.unique_trajectory_ratio"] == 0.2


def test_masking_ignores_only_wall_seconds():
    header = "epoch,step,lr,train_loss,train_acc,val_loss,val_acc,avg_val_loss,avg_val_acc,wall_seconds"
    a = f"{header}\n0,25,0.3,0.5,0.8,0.6,0.7,,,0.0153\n1,50,0.29,0.4,0.85,0.5,0.75,0.55,0.7,0.0301\n"
    b = a.replace("0.0153", "0.0199").replace("0.0301", "0.0412")
    c = a.replace("0.55", "0.56")
    assert mask_last_column(a).splitlines()[0] == header
    assert mask_last_column(a).splitlines()[1] == "0,25,0.3,0.5,0.8,0.6,0.7,,,"
    assert sha256_bytes(mask_last_column(a).encode()) == sha256_bytes(mask_last_column(b).encode())
    assert mask_last_column(a) != mask_last_column(c)


def test_tracer_rebinds_every_reference_and_restores():
    import numpy as np

    import lawa.cli
    import lawa.engine
    from lawa.engine import ModelSpec, evaluate, forward, init_params

    spec = ModelSpec(widths=(2, 4, 2), use_bn=(False,))
    params = init_params(spec)
    x = np.zeros((3, 2))
    y = np.zeros(3, dtype=np.int64)
    tracer = Tracer()
    tracer.install()
    try:
        assert lawa.cli.evaluate is lawa.engine.evaluate is not evaluate
        root = tracer.open(ROOT_SPAN)
        lawa.cli.evaluate(params, spec, x, y, batch_size=2)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert lawa.engine.forward is forward and lawa.cli.evaluate is evaluate
    names = [rec[2] for rec in tracer.spans]
    assert names == [ROOT_SPAN, "engine.evaluate", "engine.forward", "engine.forward"]
    assert [rec[1] for rec in tracer.spans] == [-1, 0, 1, 1]
    t = Totals(tracer.spans)
    assert sum(t.self_ns.values()) == t.root_ns


def test_benchmark_json_names_what_the_code_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == [*PER_LAYER, "trace.overhead_ratio"]
    assert [m["unit"] for m in bench["per_layer"][:-1]] == [u for u, _ in PER_LAYER.values()]
    import worker

    done = {
        "traced": False,
        "complete": True,
        "wall_s": 1.0,
        "ref_s": 0.1,
        "op_s": {"average": [0.1], "eval": [0.2], "train": []},
    }
    metrics, _ = worker.summarize("sweep_small", [done])
    reported = {"setup_s": "s", **{name: unit for name, (_, unit) in metrics.items()}}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == reported


def test_golden_digests_cover_every_pool_seed():
    golden = json.loads((HERE / "golden.json").read_text())
    assert set(golden) == set(WORKLOADS)
    for digests in golden.values():
        assert set(digests) == {str(k) for k in range(POOL)}


def test_run_s_is_scaled_by_the_reference_block_beside_each_round():
    import worker

    def timed(wall_s, ref_s):
        return {"traced": False, "complete": True, "wall_s": wall_s, "ref_s": ref_s,
                "op_s": {"average": [0.1], "eval": [0.2], "train": []}}

    # the host slows by half in the second and third rounds: the scaled time stays put
    rounds = [timed(2.0, 0.1), timed(3.0, 0.15), timed(3.0, 0.15)]
    metrics, extras = worker.summarize("sweep_small", rounds)
    assert metrics["run_s"][0] == pytest.approx(2.0 * worker.REF_S / 0.1)
    assert extras["run_s_raw"] == 3.0


def test_trace_check_fails_on_uncovered_time_and_clock_mismatch():
    import worker

    covered = [_rec(0, -1, ROOT_SPAN, 0, 10**9), _rec(1, 0, "cli.train", 1000, 10**9 - 1000)]
    assert worker.check_trace(Totals(covered), 1.0) == []
    assert len(worker.check_trace(Totals(covered), 1.5)) == 1  # root span disagrees with the round's time
    uncovered = [_rec(0, -1, ROOT_SPAN, 0, 10**9), _rec(1, 0, "cli.train", 0, 9 * 10**8)]
    assert Totals(uncovered).unattributed_ratio() == pytest.approx(0.1)
    problems = worker.check_trace(Totals(uncovered), 1.0)
    assert len(problems) == 1 and "outside every traced layer" in problems[0]
