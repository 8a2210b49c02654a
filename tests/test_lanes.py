"""Two lanes against one: the second CPU changes no bit of a training
step, leaves no write behind an error, survives a fork and starts no
thread a step does not need.

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

import numpy as np
import pytest

from lawa import engine, lanes, optim
from lawa.config import RunConfig
from lawa.engine import LANE_PRODUCT, ModelSpec, TrainingBuffers, backward, forward, init_params
from lawa.optim import BLOCK, LANE_BLOCKS, Lookahead, make_optimizer
from lawa.params import ParameterSet

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


def split_pset(rng, dtype, size):
    """``size`` elements: a 3-element entry standing in for batch-norm
    statistics between two 1-d entries, so a replaced slot falls inside a
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
    ``out`` None (``fresh``), the parameters (``in_place``) or the
    parameters and a replaced entry (``replace``)."""
    rng = np.random.default_rng(size)
    start = split_pset(rng, dtype, size)
    opt = make_optimizer(kind, lookahead_inner=inner, lookahead_k=2)
    p = start if mode == "fresh" else start.over(start.flat.copy())
    for t in range(STEPS):
        g = split_pset(rng, dtype, size)
        replace = {"stat": rng.normal(size=3).astype(dtype)} if mode == "replace" else None
        p = opt.step(p, g, 0.01 * (t + 1), replace, out=None if mode == "fresh" else p)
    return p, opt


class TestOptimizerLanes:
    # Every step of two blocks or more is shared out here, so that the
    # two-lane path also meets steps shorter than LANE_BLOCKS.
    @pytest.mark.parametrize("mode", ["fresh", "in_place", "replace"])
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

    def test_a_step_of_lane_blocks_or_more_uses_the_worker(self, cpus, monkeypatch):
        cpus(2)
        calls = []
        real = lanes.fork_join
        monkeypatch.setattr(lanes, "fork_join", lambda *halves: calls.append(1) or real(*halves))
        short = (LANE_BLOCKS - 1) * BLOCK
        for size, uses in ((BLOCK, 0), (short, 0), (short + 1, 1), (9 * BLOCK, 1)):
            calls.clear()
            trajectory("adam", "adam", np.float64, size, "in_place")
            assert len(calls) == STEPS * uses, size


def wide_model(width, use_bn, dtype, depth=3):
    return ModelSpec(
        widths=(2, *[width] * depth, 2), use_bn=(use_bn,) * depth, init_seed=5, dtype=dtype
    )


def backward_through(spec, batch=64, seed=6):
    """A forward and backward through one fresh workspace; returns it."""
    params = init_params(spec)
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(batch, 2)), rng.integers(0, 2, size=batch)
    buffers = TrainingBuffers(params, spec, batch)
    xb = buffers.gather(x, np.arange(batch))
    _, cache = forward(params, spec, xb, training=True, buffers=buffers)
    backward(params, spec, (xb, y), cache, buffers=buffers)
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
    def test_two_lanes_are_bitwise_one(self, cpus, monkeypatch, dtype, use_bn, width):
        spec = wide_model(width, use_bn, dtype)
        calls = []
        real = lanes.fork_join
        monkeypatch.setattr(lanes, "fork_join", lambda *halves: calls.append(1) or real(*halves))
        cpus(2)
        got = workspace_bytes(backward_through(spec))
        # Layers 2 and 1 have a successor gradient to pass on; layer 0 does not.
        assert len(calls) == (spec.n_hidden - 1 if width == self.LARGE else 0)
        cpus(1)
        calls.clear()
        want = workspace_bytes(backward_through(spec))
        assert calls == []
        assert got == want


class TestNothingOutlivesTheCall:
    def test_a_dropped_workspace_is_freed(self, cpus):
        """The halves a step handed out hold views of its workspace; none
        may be kept once the step has returned and the worker is idle (a
        half the caller ran itself stays queued until the worker drops it)."""
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


def wide_step_sets(size=9 * BLOCK, seed=8):
    rng = np.random.default_rng(seed)
    params = split_pset(rng, np.float64, size)
    return params.over(params.flat.copy()), split_pset(rng, np.float64, size)


class TestShare:
    def test_each_item_is_taken_once(self, cpus):
        cpus(2)
        taken = []
        work = lambda lane, item: taken.append((lane, item)) or time.sleep(1e-4)  # noqa: E731
        lanes.share(range(200), work)
        assert sorted(item for _, item in taken) == list(range(200))
        assert {lane for lane, _ in taken} <= {0, 1}

    def test_the_caller_takes_what_a_late_worker_has_not_reached(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setattr(lanes, "fork_join", lambda on_worker, here: (here(), on_worker()))
        taken = []
        lanes.share(range(5), lambda lane, item: taken.append((lane, item)))
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
            lanes.share(range(20), work)
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
                    lanes.share(range(50), lambda lane, item: taken.append(item))
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
        lanes.share(range(5), lambda lane, item: taken.append((lane, item)))
        assert taken == [(0, item) for item in range(5)]
        assert lanes._pool is None


class TestForkJoin:
    def test_runs_both_halves_and_returns_once_both_are_done(self):
        done = []
        lanes.fork_join(lambda: time.sleep(0.02) or done.append("worker"), lambda: done.append("here"))
        assert sorted(done) == ["here", "worker"]

    @pytest.mark.parametrize("failing", ["worker", "here"])
    def test_an_error_is_raised_after_the_other_half_is_done(self, failing):
        done, began = [], threading.Event()

        def half(name):
            def run():
                if name == "worker":
                    began.set()
                if name == failing:
                    assert began.wait(timeout=30)  # the worker's half is under way
                    raise Boom(name)
                time.sleep(0.02)
                done.append(name)

            return run

        with pytest.raises(Boom, match=failing):
            lanes.fork_join(half("worker"), half("here"))
        assert done == [{"worker": "here", "here": "worker"}[failing]]

    def test_when_both_halves_raise_the_callers_error_wins(self):
        def raise_(name):
            raise Boom(name)

        with pytest.raises(Boom, match="here"):
            lanes.fork_join(lambda: raise_("worker"), lambda: raise_("here"))
        lanes.fork_join(lambda: None, lambda: None)  # the worker still serves

    def test_a_half_the_worker_has_not_begun_runs_on_the_caller(self):
        release = threading.Event()
        blocker = lanes._worker().submit(release.wait, 30)  # keeps the worker busy
        try:
            threads = []
            lanes.fork_join(
                lambda: threads.append(threading.current_thread()),
                lambda: threads.append(threading.current_thread()),
            )
            assert threads == [threading.main_thread()] * 2
        finally:
            release.set()
            blocker.result()

    def test_a_half_the_worker_has_not_begun_is_dropped_when_the_caller_raises(self):
        release = threading.Event()
        blocker = lanes._worker().submit(release.wait, 30)
        ran = []

        def here():
            raise Boom

        try:
            with pytest.raises(Boom):
                lanes.fork_join(lambda: ran.append(1), here)
        finally:
            release.set()
            blocker.result()
        lanes._worker().submit(lambda: None).result()  # the worker has passed it by
        assert ran == []

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
    def test_an_interrupted_wait_still_waits_for_the_worker(self):
        """A signal handler's exception during the wait comes out only once
        the worker's half has returned."""
        done, began = [], threading.Event()

        def on_worker():
            began.set()
            time.sleep(0.3)
            done.append("worker")

        def interrupt(signum, frame):
            raise Boom("interrupted")

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with pytest.raises(Boom, match="interrupted"):
                lanes.fork_join(
                    on_worker,
                    lambda: began.wait(30) and signal.setitimer(signal.ITIMER_REAL, 0.05),
                )
            assert done == ["worker"]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_a_nested_call_runs_its_halves_in_the_calling_thread(self):
        started = threading.Event()
        threads = []

        def note():
            threads.append(threading.current_thread())

        def outer():
            started.set()
            lanes.fork_join(note, note)

        lanes.fork_join(outer, lambda: started.wait(30))
        assert len(threads) == 2 and threads[0] is threads[1]
        assert threads[0] is not threading.main_thread()


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

    @pytest.mark.parametrize("failing", ["here", "worker"])
    def test_a_backward_half_that_raises(self, cpus, monkeypatch, failing):
        spec = wide_model(TestBackwardLanes.LARGE, True, "f64", depth=2)
        cpus(1)
        want = backward_through(spec)
        cpus(2)
        real = lanes.fork_join
        began = threading.Event()

        def slow(fn):
            return lambda: began.set() or time.sleep(0.02) or fn()

        def boom():
            assert began.wait(timeout=30)  # the other half is under way
            raise Boom(failing)

        def fork_join(on_worker, here):
            if failing == "here":
                real(slow(on_worker), boom)
            else:
                real(boom, slow(here))

        monkeypatch.setattr(lanes, "fork_join", fork_join)
        params = init_params(spec)
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(64, 2)), rng.integers(0, 2, size=64)
        buffers = TrainingBuffers(params, spec, 64)
        xb = buffers.gather(x, np.arange(64))
        _, cache = forward(params, spec, xb, training=True, buffers=buffers)
        with pytest.raises(Boom, match=failing):
            backward(params, spec, (xb, y), cache, buffers=buffers)
        # The lane that did not raise took both products and finished them
        # before the error came out.
        for got, expected in (
            (buffers.grad_views["layer1.weight"], want.grad_views["layer1.weight"]),
            (buffers.spare, want.spare),
        ):
            assert got.tobytes() == expected.tobytes()
        before = workspace_bytes(buffers)
        time.sleep(0.05)
        assert workspace_bytes(buffers) == before

        monkeypatch.setattr(lanes, "fork_join", real)
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
