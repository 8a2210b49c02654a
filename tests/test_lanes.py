"""Two lanes against one: the second CPU changes no bit of a training
step or an inference walk, leaves no write behind an error, survives a
fork and starts no thread a step does not need.

The tests of training steps set the CPU count the lanes see, so each
path runs on any host: 1 forces one lane, and 2 gives two lanes to every
call large enough to share.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from lawa import cli, engine, lanes, optim
from lawa.config import RunConfig
from lawa.engine import (
    LANE_PRODUCT,
    InferenceBuffers,
    ModelSpec,
    TrainingBuffers,
    backward,
    evaluate,
    forward,
    init_params,
    recompute_bn_stats,
    set_running_stats,
)
from lawa.optim import BLOCK, LANE_BLOCKS, Lookahead, make_optimizer
from lawa.params import ParameterSet
from testutil import masked_files

KINDS = [("sgd", "sgd"), ("adam", "adam"), ("lookahead", "sgd"), ("lookahead", "adam")]
DTYPES = [np.float32, np.float64]
STEPS = 4  # with lookahead_k=2, two of them pull back


class Boom(Exception):
    pass


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the lanes see."""

    def set_cpus(n):
        monkeypatch.setattr(lanes, "_cpu_count", lambda: n)

    return set_cpus


@pytest.fixture
def no_worker(monkeypatch):
    """Start each test without a worker, so a thread it starts is a new one."""
    monkeypatch.setattr(lanes, "_pool", None)


@pytest.fixture
def submits(monkeypatch):
    """A list that gets one entry for each lane handed to the worker."""
    calls = []
    real = lanes._worker

    class Counting:
        def submit(self, fn, *args):
            calls.append(1)
            return real().submit(fn, *args)

    monkeypatch.setattr(lanes, "_worker", Counting)
    return calls


class LateWorker:
    """A worker that never begins what it is handed."""

    def submit(self, fn, *args):
        return Future()


def split_pset(rng, dtype, size):
    """``size`` elements: a 3-element entry standing in for batch-norm
    statistics between two 1-d entries, so a written slot falls inside a
    block."""
    head = size // 2 - 1
    return ParameterSet(
        [
            ("w", (3.0 * rng.normal(size=head)).astype(dtype)),
            ("stat", rng.normal(size=3).astype(dtype)),
            ("v", (3.0 * rng.normal(size=size - head - 3)).astype(dtype)),
        ]
    )


def state_bytes(opt):
    """Every counter and state array of an optimizer, Lookahead's inner one
    included; the scratch blocks hold nothing between steps, and which
    block a lane's scratch last held depends on which lane took it."""
    state = {}
    for name, value in vars(opt).items():
        if name == "_scratch":
            continue
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.tobytes())
        elif name == "inner":
            value = state_bytes(value)
        state[name] = value
    return state


def trajectory(kind, inner, dtype, size, mode):
    """The parameters and the optimizer after ``STEPS`` steps, with
    ``out`` None (``fresh``) or the parameters (``in_place``), or with
    ``out`` the parameters and, after each step, new statistics written
    into them by ``set_running_stats`` (``write``), as the training loop
    does."""
    rng = np.random.default_rng(size)
    start = split_pset(rng, dtype, size)
    opt = make_optimizer(kind, lookahead_inner=inner, lookahead_k=2)
    p = start if mode == "fresh" else start.over(start.flat.copy())
    for t in range(STEPS):
        g = split_pset(rng, dtype, size)
        p = opt.step(p, g, 0.01 * (t + 1), out=None if mode == "fresh" else p)
        if mode == "write":
            set_running_stats(p, {"stat": rng.normal(size=3).astype(dtype)})
    return p, opt


class TestOptimizerLanes:
    # Every step of two blocks or more is shared out here, so that the
    # two-lane path also meets steps shorter than LANE_BLOCKS.
    @pytest.mark.parametrize("mode", ["fresh", "in_place", "write"])
    @pytest.mark.parametrize(
        "size",
        [BLOCK, BLOCK + 5, 2 * BLOCK, 2 * BLOCK + 5, 9 * BLOCK],
        ids=["1-block", "1-block+rest", "2-blocks", "2-blocks+rest", "9-blocks"],
    )
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_two_lanes_are_bitwise_one(self, cpus, monkeypatch, kind, inner, dtype, size, mode):
        monkeypatch.setattr(optim, "LANE_BLOCKS", 2)
        cpus(2)
        got, got_opt = trajectory(kind, inner, dtype, size, mode)
        cpus(1)
        want, want_opt = trajectory(kind, inner, dtype, size, mode)
        assert got.names == want.names
        assert got.flat.tobytes() == want.flat.tobytes()
        assert state_bytes(got_opt) == state_bytes(want_opt)

    def test_a_step_of_lane_blocks_or_more_uses_the_worker(self, cpus, submits):
        cpus(2)
        short = (LANE_BLOCKS - 1) * BLOCK
        for size, uses in ((BLOCK, 0), (short, 0), (short + 1, 1), (9 * BLOCK, 1)):
            submits.clear()
            trajectory("adam", "adam", np.float64, size, "in_place")
            assert len(submits) == STEPS * uses, size


def wide_model(width, use_bn, dtype, depth=3):
    return ModelSpec(
        widths=(2, *[width] * depth, 2), use_bn=(use_bn,) * depth, init_seed=5, dtype=dtype
    )


def forward_through(spec, batch=64, seed=6):
    """A training forward through one fresh workspace; returns the
    parameters, the batch, the forward's outputs and cache, and the
    workspace."""
    params = init_params(spec)
    rng = np.random.default_rng(seed)
    # Cast first, as the training loop does: a gather that casts reads the
    # uninitialized input rows too, and a signalling NaN there would warn.
    x = rng.normal(size=(batch, spec.widths[0])).astype(spec.np_dtype)
    y = rng.integers(0, 2, size=batch)
    buffers = TrainingBuffers(params, spec, batch)
    xb = buffers.gather(x, np.arange(batch))
    outputs, cache = forward(params, spec, xb, training=True, buffers=buffers)
    return params, (xb, y), outputs, cache, buffers


def backward_through(spec, batch=64, seed=6):
    """A forward and backward through one fresh workspace; returns it."""
    params, batch, _, cache, buffers = forward_through(spec, batch, seed)
    backward(params, spec, batch, cache, buffers=buffers)
    return buffers


def workspace_bytes(buffers):
    rows = [arr.tobytes() for layer in buffers.layers for arr in layer if arr is not None]
    return [buffers.input.tobytes(), buffers.grads.flat.tobytes(), buffers.spare.tobytes(), *rows]


class TestBackwardLanes:
    # Square layers whose 64-row products fall on either side of LANE_PRODUCT.
    SMALL, LARGE = 256, 384

    def test_the_widths_straddle_the_constant(self):
        assert 64 * self.SMALL**2 < LANE_PRODUCT <= 64 * self.LARGE**2

    @pytest.mark.parametrize("width", [SMALL, LARGE])
    @pytest.mark.parametrize("use_bn", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_two_lanes_are_bitwise_one(self, cpus, submits, dtype, use_bn, width):
        spec = wide_model(width, use_bn, dtype)
        cpus(2)
        params, batch, _, cache, buffers = forward_through(spec)
        submits.clear()  # count backward's submits alone
        backward(params, spec, batch, cache, buffers=buffers)
        got = workspace_bytes(buffers)
        # Layers 2 and 1 have a successor gradient to pass on; layer 0 does not.
        assert len(submits) == (spec.n_hidden - 1 if width == self.LARGE else 0)
        cpus(1)
        submits.clear()
        want = workspace_bytes(backward_through(spec))
        assert submits == []
        assert got == want


def forward_bytes(outputs, cache, buffers):
    """What a training forward wrote: its outputs, its running statistics
    and each layer's product, batch-norm output and ReLU output."""
    rows = [
        arr.tobytes() for z, bn, relu, _ in buffers.layers for arr in (z, bn, relu) if arr is not None
    ]
    stats = [(name, arr.tobytes()) for name, arr in sorted(cache["bn_updates"].items())]
    return outputs.tobytes(), stats, rows


def moved_params(spec, seed=9):
    """Initial parameters with every bias and batch-norm entry moved off its
    initial fill, so that each normalization step changes bits."""
    rng = np.random.default_rng(seed)

    def moved(name, arr):
        if name.endswith("weight"):
            return arr
        return np.abs(arr + 0.5 * rng.normal(size=arr.shape)).astype(arr.dtype)

    return ParameterSet((name, moved(name, arr)) for name, arr in init_params(spec).items())


def inference_data(spec, rows, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, spec.widths[0])), rng.integers(0, 2, size=rows)


def evaluate_bytes(params, spec, x, y):
    """The loss and accuracy of ``evaluate`` and the hidden rows it left."""
    buffers = InferenceBuffers()
    loss, accuracy = evaluate(params, spec, x, y, buffers=buffers)
    rows = [z.tobytes() for z in buffers.hidden_rows(spec, len(x))]
    return np.float64(loss).tobytes(), np.float64(accuracy).tobytes(), rows


class TestRowHalves:
    """A wide hidden layer's ``h @ w + b`` goes to two lanes as two row
    halves, in the training forward and in every inference walk; the walk
    normalizes and rectifies by the same halves."""

    @pytest.mark.parametrize("rows", [64, 400, 1600])
    @pytest.mark.parametrize("fan_in", [2, 512])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_row_halves_of_a_product_are_the_whole_on_this_blas(self, dtype, fan_in, rows):
        """The benchmark's hidden products: a BLAS that fails this would
        change the digests of two-lane runs."""
        rng = np.random.default_rng(rows + fan_in)
        a = rng.normal(size=(rows, fan_in)).astype(dtype)
        w = rng.uniform(-1.0, 1.0, size=(fan_in, 512)).astype(dtype)
        whole, halves = np.empty((rows, 512), dtype), np.empty((rows, 512), dtype)
        np.matmul(a, w, out=whole)
        half = rows // 2
        np.matmul(a[:half], w, out=halves[:half])
        np.matmul(a[half:], w, out=halves[half:])
        assert halves.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("use_bn", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_a_training_forward(self, cpus, submits, dtype, use_bn):
        spec = wide_model(TestBackwardLanes.LARGE, use_bn, dtype)
        cpus(2)
        got = forward_bytes(*forward_through(spec)[2:])
        # Layers 1 and 2; layer 0's 2-row weight is narrow.
        assert len(submits) == 2
        cpus(1)
        submits.clear()
        want = forward_bytes(*forward_through(spec)[2:])
        assert submits == []
        assert got == want

    @pytest.mark.parametrize("use_bn", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_evaluate(self, cpus, submits, dtype, use_bn):
        spec = wide_model(TestBackwardLanes.LARGE, use_bn, dtype)
        params = moved_params(spec)
        x, y = inference_data(spec, 400)
        cpus(2)
        got = evaluate_bytes(params, spec, x, y)
        # The product, then the normalization and ReLU, of layers 1 and 2.
        assert len(submits) == 4
        cpus(1)
        submits.clear()
        want = evaluate_bytes(params, spec, x, y)
        assert submits == []
        assert got == want

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_recompute_bn_stats(self, cpus, submits, dtype):
        spec = wide_model(TestBackwardLanes.LARGE, True, dtype)
        params = moved_params(spec)
        x, _ = inference_data(spec, 400)
        cpus(2)
        got = recompute_bn_stats(params, spec, x).flat.tobytes()
        # Layer 1's product and normalization, then layer 2's product: the
        # last batch-norm layer is not normalized.
        assert len(submits) == 3
        cpus(1)
        submits.clear()
        want = recompute_bn_stats(params, spec, x).flat.tobytes()
        assert submits == []
        assert got == want

    @pytest.mark.parametrize("rows,shared", [(4, False), (15, False), (16, True)])
    def test_halves_of_fewer_than_8_rows_stay_whole(self, cpus, submits, rows, shared):
        """Every batch here is wide by ``LANE_PRODUCT`` through the
        2048-wide layer; only one whose halves hold 8 rows is split."""
        spec = ModelSpec(widths=(2, 2048, 2048, 2), use_bn=(True, True), init_seed=5, dtype="f32")
        assert rows * 2048 * 2048 >= LANE_PRODUCT
        x, y = inference_data(spec, rows)
        params = init_params(spec)

        def run():
            trained = forward_bytes(*forward_through(spec, rows)[2:])
            return trained, evaluate_bytes(params, spec, x, y)

        cpus(2)
        got = run()
        # The training forward's product of layer 1; evaluate's product,
        # then normalization and ReLU, of layer 1.
        assert len(submits) == (3 if shared else 0)
        cpus(1)
        submits.clear()
        assert run() == got
        assert submits == []

    @pytest.mark.parametrize("use_bn", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_a_whole_train_writes_the_files_of_one_lane(
        self, cpus, submits, tmp_path, dtype, use_bn
    ):
        """Every checkpoint, averaged checkpoint and metrics row (without
        ``wall_seconds``) of a 2-384-384-2 ``lawa train``."""
        args = [
            "train", "--dataset", "spirals", "--n-per-class", "100", "--hidden", "384,384",
            "--use-bn" if use_bn else "--no-use-bn", "--optimizer", "adam", "--lr", "0.002",
            "--batch-size", "64", "--epochs", "3", "--scheme", "uniform", "--k", "2",
            "--save-averaged", "--dtype", dtype,
        ]
        cpus(2)
        assert cli.main([*args, "--out", str(tmp_path / "two")]) == 0
        assert submits
        cpus(1)
        submits.clear()
        assert cli.main([*args, "--out", str(tmp_path / "one")]) == 0
        assert submits == []
        # config.resolved names the output directory.
        got, want = masked_files(tmp_path / "two"), masked_files(tmp_path / "one")
        del got["config.resolved"], want["config.resolved"]
        assert {name[:5] for name in want} == {"ckpt_", "lawa_", "metri"}
        assert got == want


class TestNothingOutlivesTheCall:
    def test_a_dropped_workspace_is_freed(self, cpus):
        """The lanes a step handed out hold views of its workspace; none
        may be kept once the step has returned and the worker is idle (a
        cancelled lane stays queued until the worker drops it)."""
        cpus(2)
        spec = wide_model(512, False, "f64", depth=2)
        params = init_params(spec)
        params = params.over(params.flat.copy())
        buffers = backward_through(spec)
        make_optimizer("adam").step(params, buffers.grads, 0.01, out=params)
        lanes._worker().submit(lambda: None).result()
        rows = [arr for layer in buffers.layers for arr in layer if arr is not None]
        arrays = [weakref.ref(a) for a in (buffers.grads.buffer, buffers.spare, *rows)]
        del buffers, rows
        gc.collect()
        assert [ref() for ref in arrays] == [None] * len(arrays)

    def test_a_dropped_inference_buffer_is_freed(self, cpus, submits):
        """The halves a two-lane ``evaluate`` handed out are views of its
        buffers; the worker keeps none of them once the call has returned."""
        cpus(2)
        spec = wide_model(512, True, "f64", depth=2)
        x, y = inference_data(spec, 64)
        buffers = InferenceBuffers()
        evaluate(init_params(spec), spec, x, y, buffers=buffers)
        assert submits
        lanes._worker().submit(lambda: None).result()
        arrays = [weakref.ref(z.base) for z in buffers.hidden_rows(spec, len(x))]
        del buffers
        gc.collect()
        assert [ref() for ref in arrays] == [None] * len(arrays)


def wide_step_sets(size=9 * BLOCK, seed=8):
    rng = np.random.default_rng(seed)
    params = split_pset(rng, np.float64, size)
    return params.over(params.flat.copy()), split_pset(rng, np.float64, size)


class TestShare:
    def test_each_item_is_taken_once(self, cpus):
        cpus(2)
        taken = []
        work = lambda lane, item: taken.append((lane, item)) or time.sleep(1e-4)  # noqa: E731
        lanes.share(range(200), work, True)
        assert sorted(item for _, item in taken) == list(range(200))
        assert {lane for lane, _ in taken} <= {0, 1}

    def test_the_caller_takes_what_a_late_worker_has_not_reached(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setattr(lanes, "_worker", LateWorker)
        taken = []
        lanes.share(range(5), lambda lane, item: taken.append((lane, item)), True)
        assert taken == [(0, item) for item in range(5)]

    @pytest.mark.parametrize("bad_lane", [0, 1])
    def test_a_lane_that_raises_leaves_the_rest_to_the_other(self, cpus, bad_lane):
        cpus(2)
        taken = []
        other_began, failed = threading.Event(), threading.Event()

        def work(lane, item):
            if lane == bad_lane:
                assert other_began.wait(timeout=30)
                failed.set()
                raise Boom(lane)
            other_began.set()
            assert failed.wait(timeout=30)
            taken.append(item)

        with pytest.raises(Boom):
            lanes.share(range(20), work, True)
        assert len(taken) == 19

    def test_callers_on_many_threads_each_get_every_item_once(self, cpus):
        """More callers than CPUs share one worker, with the interpreter
        switching threads as often as it can."""
        cpus(2)
        results, errors = {}, []

        def caller(k):
            try:
                for call in range(20):
                    taken = []
                    lanes.share(range(50), lambda lane, item: taken.append(item), True)
                    results[k, call] = sorted(taken)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 80
        assert all(taken == list(range(50)) for taken in results.values())

    def test_one_cpu_takes_every_item_in_order_on_this_thread(self, cpus, no_worker):
        cpus(1)
        taken = []
        lanes.share(range(5), lambda lane, item: taken.append((lane, item)), True)
        assert taken == [(0, item) for item in range(5)]
        assert lanes._pool is None

    def test_narrow_work_takes_every_item_in_order_without_counting_cpus(
        self, monkeypatch, no_worker
    ):
        def uncounted():
            raise AssertionError("narrow work counted the CPUs")

        monkeypatch.setattr(lanes, "_cpu_count", uncounted)
        taken = []
        lanes.share(range(5), lambda lane, item: taken.append((lane, item)), False)
        assert taken == [(0, item) for item in range(5)]
        assert lanes._pool is None


class TestTheWorkerLane:
    def test_the_call_returns_once_both_lanes_are_done(self, cpus):
        cpus(2)
        done, began = [], threading.Event()

        def work(lane, item):
            if lane == 1:
                began.set()
                time.sleep(0.02)
            else:
                assert began.wait(timeout=30)  # so that the worker takes an item
            done.append(lane)

        lanes.share(range(2), work, True)
        assert sorted(done) == [0, 1]

    def test_when_both_lanes_raise_the_callers_error_wins(self, cpus):
        cpus(2)
        began = threading.Event()

        def work(lane, item):
            if lane == 1:
                began.set()
                raise Boom("worker")
            assert began.wait(timeout=30)
            raise Boom("here")

        with pytest.raises(Boom, match="here"):
            lanes.share(range(2), work, True)
        taken = []
        lanes.share(range(2), lambda lane, item: taken.append(item), True)
        assert sorted(taken) == [0, 1]  # the worker still serves

    def test_a_lane_the_worker_has_not_begun_is_dropped_when_the_caller_raises(self, cpus):
        cpus(2)
        release = threading.Event()
        blocker = lanes._worker().submit(release.wait, 30)  # keeps the worker busy
        taken = []

        def work(lane, item):
            taken.append((lane, item))
            if lane == 0:
                raise Boom

        try:
            with pytest.raises(Boom):
                lanes.share(range(3), work, True)
        finally:
            release.set()
            blocker.result()
        lanes._worker().submit(lambda: None).result()  # the worker has passed it by
        assert taken == [(0, 0)]

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
    def test_an_interrupted_wait_still_waits_for_the_worker(self, cpus):
        """A signal handler's exception during the wait comes out only once
        the worker's lane has returned."""
        cpus(2)
        done, began = [], threading.Event()

        def work(lane, item):
            if lane == 1:
                began.set()
                time.sleep(0.3)
                done.append("worker")
            elif began.wait(30):
                signal.setitimer(signal.ITIMER_REAL, 0.05)

        def interrupt(signum, frame):
            raise Boom("interrupted")

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with pytest.raises(Boom, match="interrupted"):
                lanes.share(range(2), work, True)
            assert done == ["worker"]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_a_nested_call_from_the_worker_runs_on_the_worker(self, cpus):
        cpus(2)
        started = threading.Event()
        inner = []

        def note(lane, item):
            inner.append((lane, threading.current_thread()))

        def outer(lane, item):
            if lane == 1:
                started.set()
                lanes.share(range(2), note, True)
            else:
                assert started.wait(30)

        lanes.share(range(2), outer, True)
        assert [lane for lane, _ in inner] == [0, 0]
        assert inner[0][1] is inner[1][1] is not threading.main_thread()


def inject(opt, bad_lane, log):
    """Make the optimizer's block rule raise on the first block that
    ``bad_lane`` takes, once the other lane has begun a block, and log each
    block the other lane finishes; that lane runs its blocks only after the
    bad lane has raised."""
    inner = opt.inner if isinstance(opt, Lookahead) else opt
    make_rule = inner._block_rule
    other_began, failed = threading.Event(), threading.Event()

    def block_rule(params, lr):
        rule = make_rule(params, lr)

        def failing(lane, block, theta, g, out):
            if lane == bad_lane:
                assert other_began.wait(timeout=30)
                failed.set()
                raise Boom(f"lane {lane}")
            other_began.set()
            assert failed.wait(timeout=30)
            time.sleep(0.002)
            rule(lane, block, theta, g, out)
            log.append(block.start)

        return failing

    inner._block_rule = block_rule


def optimizer_arrays(opt):
    inner = opt.inner if isinstance(opt, Lookahead) else opt
    arrays = [v for v in vars(inner).values() if isinstance(v, np.ndarray)]
    return arrays + [v for v in vars(opt).values() if isinstance(v, np.ndarray)]


class TestErrorsLeaveNoStrayWrites:
    @pytest.mark.parametrize("bad_lane", [0, 1])
    def test_an_optimizer_lane_that_raises(self, cpus, bad_lane):
        cpus(2)
        params, grads = wide_step_sets()
        opt = make_optimizer("lookahead", lookahead_inner="adam", lookahead_k=1)
        log = []
        inject(opt, bad_lane, log)
        with pytest.raises(Boom, match=f"lane {bad_lane}"):
            opt.step(params, grads, 0.01, out=params)
        # The other lane ran every block but the one that raised, before the
        # error came out.
        assert len(log) == 8 and set(log) < set(range(0, 9 * BLOCK, BLOCK))
        arrays = [params.flat, grads.flat, *optimizer_arrays(opt)]
        before = [a.tobytes() for a in arrays]
        time.sleep(0.05)
        assert [a.tobytes() for a in arrays] == before

        # The next step gives the one-lane bits.
        got, got_opt = trajectory("lookahead", "adam", np.float64, 9 * BLOCK, "in_place")
        cpus(1)
        want, want_opt = trajectory("lookahead", "adam", np.float64, 9 * BLOCK, "in_place")
        assert got.flat.tobytes() == want.flat.tobytes()
        assert state_bytes(got_opt) == state_bytes(want_opt)

    @pytest.mark.parametrize("bad_lane", [0, 1])
    def test_a_backward_lane_that_raises(self, cpus, monkeypatch, bad_lane):
        spec = wide_model(TestBackwardLanes.LARGE, True, "f64", depth=2)
        cpus(1)
        want = backward_through(spec)
        cpus(2)
        real = engine._product
        other_began, finished = threading.Event(), []

        def product(lane, operands):
            if lane == bad_lane:
                assert other_began.wait(timeout=30)  # the other lane is under way
                raise Boom(f"lane {lane}")
            other_began.set()
            time.sleep(0.02)
            real(lane, operands)
            finished.append(operands[2])

        monkeypatch.setattr(engine, "_product", product)
        params, batch, _, cache, buffers = forward_through(spec)
        with pytest.raises(Boom, match=f"lane {bad_lane}"):
            backward(params, spec, batch, cache, buffers=buffers)
        # The other lane finished the product it took before the error came
        # out: the weight gradient, or d_h in the spare rows.
        (out,) = finished
        if np.shares_memory(out, buffers.spare):
            got, expected = buffers.spare, want.spare
        else:
            got, expected = buffers.grad_views["layer1.weight"], want.grad_views["layer1.weight"]
        assert got.tobytes() == expected.tobytes()
        before = workspace_bytes(buffers)
        time.sleep(0.05)
        assert workspace_bytes(buffers) == before

        monkeypatch.setattr(engine, "_product", real)
        assert workspace_bytes(backward_through(spec)) == workspace_bytes(want)


def _wide_step_in_child():
    params, grads = wide_step_sets()
    make_optimizer("adam").step(params, grads, 0.01, out=params)
    assert lanes._pool[0] == os.getpid()


class TestForkSafety:
    def test_a_forked_child_starts_its_own_worker(self, cpus):
        cpus(2)
        params, grads = wide_step_sets()
        make_optimizer("adam").step(params, grads, 0.01, out=params)
        assert lanes._pool is not None and lanes._pool[0] == os.getpid()
        child = multiprocessing.get_context("fork").Process(target=_wide_step_in_child)
        child.start()
        child.join(timeout=60)
        if child.exitcode is None:
            child.kill()
            child.join()
            pytest.fail("the forked child hung on the parent's worker")
        assert child.exitcode == 0


class TestLazyStart:
    def test_a_small_run_starts_no_thread(self, cpus, no_worker, tmp_path):
        cpus(2)
        threads = threading.active_count()
        # The shape of the sweep_small benchmark: 64x64, SGD, batch 64, no batch norm.
        cfg = RunConfig(
            n_per_class=200, hidden=(64, 64), use_bn=False, batch_size=64, epochs=2,
            optimizer="sgd", momentum=0.9, lr=0.3, k=2, out=str(tmp_path / "run"),
        )
        engine.train_run(cfg)
        assert threading.active_count() == threads
        assert lanes._pool is None

    def test_one_cpu_in_the_affinity_set_starts_no_thread(self, cpus, monkeypatch, no_worker):
        spec = wide_model(512, True, "f64", depth=2)
        params, grads = wide_step_sets()

        def step():
            opt = make_optimizer("lookahead", lookahead_inner="adam", lookahead_k=1)
            out = params.over(params.flat.copy())
            return opt.step(out, grads, 0.01, out=out).flat.tobytes()

        monkeypatch.setattr(lanes.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        threads = threading.active_count()
        one = (step(), workspace_bytes(backward_through(spec)))
        assert threading.active_count() == threads
        assert lanes._pool is None
        cpus(2)
        two = (step(), workspace_bytes(backward_through(spec)))
        assert lanes._pool is not None
        assert one == two

    def test_importing_lawa_starts_no_thread_and_imports_no_queue(self):
        code = (
            "import sys, threading, lawa.cli, lawa.engine, lawa.optim, lawa.lanes\n"
            "assert 'concurrent.futures' not in sys.modules and 'queue' not in sys.modules\n"
            "assert threading.active_count() == 1\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
