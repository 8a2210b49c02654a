import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from lawa import lanes
from lawa.averaging import UniformScheme
from lawa.engine import set_running_stats
from lawa.errors import ConfigError, NonFiniteGradError, StructureMismatch
from lawa.optim import (
    BLOCK,
    LANE_BLOCKS,
    Adam,
    ConstantSchedule,
    CosineSchedule,
    Lookahead,
    PolyWarmupSchedule,
    Sgd,
    make_optimizer,
    make_schedule,
    scratch_size,
)
from lawa.params import Checkpoint, ParameterSet
from testutil import mixed_pset, pset


def _scalar(value):
    return pset({"w": [value]})


class TestSgd:
    def test_plain_sgd_step(self):
        opt = Sgd(momentum=0.0)
        out = opt.step(_scalar(1.0), _scalar(2.0), lr=0.1)
        assert out["w"][0] == pytest.approx(0.8, abs=1e-15)

    def test_two_momentum_steps_by_hand(self):
        opt = Sgd(momentum=0.9)
        p = _scalar(0.0)
        p = opt.step(p, _scalar(1.0), lr=0.1)
        assert p["w"][0] == pytest.approx(-0.1, abs=1e-15)  # v=1
        p = opt.step(p, _scalar(1.0), lr=0.1)
        assert p["w"][0] == pytest.approx(-0.29, abs=1e-15)  # v=1.9
        assert opt.step_count == 2

    def test_zero_lr_still_updates_velocity(self):
        opt = Sgd(momentum=0.5)
        p = opt.step(_scalar(3.0), _scalar(2.0), lr=0.0)
        assert p["w"][0] == 3.0
        p = opt.step(p, _scalar(0.0), lr=1.0)
        # velocity carried 2.0 from the first step, decayed to 1.0
        assert p["w"][0] == pytest.approx(2.0, abs=1e-15)

    def test_non_finite_grad_names_entry(self):
        opt = Sgd()
        with pytest.raises(NonFiniteGradError, match="'w'"):
            opt.step(_scalar(1.0), _scalar(float("nan")), lr=0.1)

    def test_non_finite_grad_names_first_bad_entry(self):
        params = pset({"a": [1.0], "b": [1.0], "c": [1.0]})
        grads = pset({"a": [0.5], "b": [float("inf")], "c": [float("nan")]})
        with pytest.raises(NonFiniteGradError, match="'b'"):
            Sgd().step(params, grads, lr=0.1)

    def test_negative_momentum_rejected(self):
        with pytest.raises(ConfigError):
            Sgd(momentum=-0.1)

    def test_determinism(self):
        grads = pset({"w": [0.3, -0.7, 1.1]})
        params = pset({"w": [1.0, 2.0, 3.0]})
        runs = []
        for _ in range(2):
            opt = Sgd(momentum=0.9)
            p = params
            for _ in range(5):
                p = opt.step(p, grads, lr=0.05)
            runs.append(p)
        assert runs[0]["w"].tobytes() == runs[1]["w"].tobytes()


class TestAdam:
    def test_first_step_magnitude(self):
        opt = Adam()
        out = opt.step(_scalar(0.0), _scalar(1.0), lr=0.001)
        expected = -0.001 * 1.0 / (1.0 + 1e-8)  # bias correction cancels at t=1
        assert out["w"][0] == pytest.approx(expected, abs=1e-18)
        assert out["w"][0] == pytest.approx(-0.000999999, abs=1e-9)

    def test_zero_grad_leaves_params_unchanged(self):
        opt = Adam()
        p = pset({"w": [1.0, -2.0]})
        out = opt.step(p, pset({"w": [0.0, 0.0]}), lr=0.001)
        assert out == p

    def test_two_steps_match_scalar_reference(self):
        # independent scalar implementation of the same update rule
        beta1, beta2, eps, lr, g = 0.9, 0.999, 1e-8, 0.01, 0.5
        theta, m, v = 2.0, 0.0, 0.0
        for t in (1, 2):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

        opt = Adam()
        p = _scalar(2.0)
        for _ in range(2):
            p = opt.step(p, _scalar(g), lr=lr)
        assert p["w"][0] == pytest.approx(theta, abs=1e-12)

    def test_invalid_betas(self):
        with pytest.raises(ConfigError):
            Adam(beta1=1.0)


class TestLookahead:
    def test_alpha_one_matches_inner_trajectory(self):
        # quadratic f(theta) = ||theta||^2 / 2, gradient = theta
        inner_only = Sgd(momentum=0.9)
        wrapped = Lookahead(Sgd(momentum=0.9), alpha=1.0, k=5)
        p_inner = pset({"w": [1.0, -0.5, 2.0]})
        p_wrapped = pset({"w": [1.0, -0.5, 2.0]})
        for _ in range(100):
            p_inner = inner_only.step(p_inner, p_inner, lr=0.05)
            p_wrapped = wrapped.step(p_wrapped, p_wrapped, lr=0.05)
            assert np.max(np.abs(p_inner["w"] - p_wrapped["w"])) <= 1e-10

    def test_alpha_zero_snaps_back_to_start(self):
        start = pset({"w": [1.0, 2.0]})
        opt = Lookahead(Sgd(momentum=0.0), alpha=0.0, k=3)
        p = start
        for i in range(3):
            p = opt.step(p, pset({"w": [1.0, 1.0]}), lr=0.1)
        assert p == start
        assert opt.inner_counter == 0

    def test_scalar_run_matches_hand_simulation(self):
        # k=5, alpha=0.8, inner plain SGD lr=0.1 on f(t)=t^2/2 from t=1
        k, alpha, lr = 5, 0.8, 0.1
        theta, phi = 1.0, 1.0
        trace = {}
        for step in range(1, 11):
            theta = theta - lr * theta
            if step % k == 0:
                phi = phi + alpha * (theta - phi)
                theta = phi
            trace[step] = theta

        opt = Lookahead(Sgd(momentum=0.0), alpha=alpha, k=k)
        p = _scalar(1.0)
        for step in range(1, 11):
            p = opt.step(p, p, lr=lr)
            if step in (5, 10):
                assert p["w"][0] == pytest.approx(trace[step], abs=1e-12)

    def test_counter_cycles_below_k(self):
        opt = Lookahead(Sgd(momentum=0.0), alpha=0.5, k=3)
        p = _scalar(1.0)
        seen = []
        for _ in range(7):
            p = opt.step(p, _scalar(0.1), lr=0.1)
            seen.append(opt.inner_counter)
        assert seen == [1, 2, 0, 1, 2, 0, 1]
        assert opt.step_count == 7

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigError):
            Lookahead(Sgd(), alpha=1.2)
        with pytest.raises(ConfigError):
            Lookahead(Sgd(), k=0)


def reference_trajectory(kind, inner, start, grads, lrs, hp):
    """Each step's parameters from per-entry loops of the update rules:
    heavy-ball SGD, bias-corrected Adam, and the Lookahead pullback every
    ``hp["k"]`` steps."""
    theta = dict(start.items())
    first = {name: np.zeros_like(a) for name, a in theta.items()}  # velocity or m
    second = {name: np.zeros_like(a) for name, a in theta.items()}  # Adam's v
    slow = {name: a.copy() for name, a in theta.items()}
    out = []
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        bc1 = 1.0 - hp["beta1"] ** t
        bc2 = 1.0 - hp["beta2"] ** t
        for name in theta:
            if inner == "sgd":
                v = hp["momentum"] * first[name] + g[name]
                first[name] = v
                theta[name] = theta[name] - lr * v
            else:
                m = hp["beta1"] * first[name] + (1.0 - hp["beta1"]) * g[name]
                v = hp["beta2"] * second[name] + (1.0 - hp["beta2"]) * g[name] * g[name]
                first[name], second[name] = m, v
                m_hat = m / bc1
                v_hat = v / bc2
                theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + hp["eps"])
        if kind == "lookahead" and t % hp["k"] == 0:
            for name in theta:
                phi = slow[name] + hp["alpha"] * (theta[name] - slow[name])
                slow[name] = phi
                theta[name] = phi
        out.append(dict(theta))
    return out


class TestBitwiseReference:
    """Every optimizer against per-entry loops of its update rule, bit for
    bit, on sets holding a 0-d and an empty entry."""

    HP = dict(momentum=0.7, beta1=0.85, beta2=0.99, eps=1e-7, alpha=0.6, k=3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "kind,inner",
        [("sgd", "sgd"), ("adam", "adam"), ("lookahead", "sgd"), ("lookahead", "adam")],
    )
    def test_matches_per_entry_loops(self, kind, inner, dtype):
        hp = self.HP
        rng = np.random.default_rng(41)
        start = mixed_pset(rng, dtype)
        grads = [mixed_pset(rng, dtype) for _ in range(8)]
        lrs = [0.05 * (1.0 + 0.1 * i) for i in range(8)]
        opt = make_optimizer(
            kind,
            momentum=hp["momentum"],
            beta1=hp["beta1"],
            beta2=hp["beta2"],
            adam_eps=hp["eps"],
            lookahead_alpha=hp["alpha"],
            lookahead_k=hp["k"],
            lookahead_inner=inner,
        )
        want = reference_trajectory(kind, inner, start, grads, lrs, hp)
        p = start
        for g, lr, expected in zip(grads, lrs, want):
            p = opt.step(p, g, lr)
            assert p.dtype == dtype
            for name, arr in p.items():
                assert arr.shape == expected[name].shape
                assert np.array_equal(arr, expected[name]), name


KINDS = [("sgd", "sgd"), ("adam", "adam"), ("lookahead", "sgd"), ("lookahead", "adam")]


def sized_pset(rng, dtype, size):
    """A set of ``size`` elements: a 2-d entry, then a 1-d one holding the
    rest, so entry and block boundaries fall at different places."""
    rows = size // 3 // 7
    entries = [("w", (3.0 * rng.normal(size=(rows, 7))).astype(dtype))] if rows else []
    entries.append(("b", (3.0 * rng.normal(size=size - 7 * rows)).astype(dtype)))
    return ParameterSet(entries)


class TestBlockBoundaries:
    """Every optimizer against the per-entry loops, bit for bit, on flat
    buffers of one element, around one block and over several blocks."""

    HP = TestBitwiseReference.HP

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_matches_per_entry_loops(self, kind, inner, dtype, size):
        hp = self.HP
        rng = np.random.default_rng(size)
        start = sized_pset(rng, dtype, size)
        grads = [sized_pset(rng, dtype, size) for _ in range(7)]
        lrs = [0.05 * (1.0 + 0.1 * i) for i in range(7)]
        opt = make_optimizer(
            kind,
            momentum=hp["momentum"],
            beta1=hp["beta1"],
            beta2=hp["beta2"],
            adam_eps=hp["eps"],
            lookahead_alpha=hp["alpha"],
            lookahead_k=hp["k"],
            lookahead_inner=inner,
        )
        want = reference_trajectory(kind, inner, start, grads, lrs, hp)
        p = start
        for g, lr, expected in zip(grads, lrs, want):
            p = opt.step(p, g, lr)
            assert p.dtype == dtype and p.total_size() == size
            for name, arr in p.items():
                assert np.array_equal(arr, expected[name]), name


def state_of(opt):
    """Every attribute of ``opt`` and of its inner optimizer, arrays as bytes."""
    state = {}
    for name, value in vars(opt).items():
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.tobytes())
        elif isinstance(value, (Sgd, Adam)):
            value = state_of(value)
        state[name] = value
    return state


class TestInPlaceStateKeepsValueSemantics:
    """State is updated in place; the sets going in and out must not be."""

    def trajectory(self, kind, inner, dtype, n):
        rng = np.random.default_rng(43)
        opt = make_optimizer(kind, lookahead_k=3, lookahead_inner=inner)
        return opt, mixed_pset(rng, dtype), [mixed_pset(rng, dtype) for _ in range(n)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_sets_seen_earlier_stay_byte_unchanged(self, kind, inner, dtype):
        opt, p, grads = self.trajectory(kind, inner, dtype, 12)
        scheme = UniformScheme(k=12)
        start = p
        p = opt.step(p, grads[0], 0.05)
        first = Checkpoint(params=p, epoch=0, step=1)
        scheme.observe(first)
        held = [(s, s.flat.tobytes()) for s in (start, grads[0], p)]
        for t, g in enumerate(grads[1:11], start=1):
            p = opt.step(p, g, 0.05)
            scheme.observe(Checkpoint(params=p, epoch=t, step=t + 1))
        assert scheme.window[0] is first
        for s, before in held:
            assert s.flat.tobytes() == before

    @pytest.mark.parametrize("bad_at", [0, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_a_non_finite_gradient_leaves_the_state_untouched(self, kind, inner, dtype, bad_at):
        opt, p, grads = self.trajectory(kind, inner, dtype, bad_at + 1)
        twin = make_optimizer(kind, lookahead_k=3, lookahead_inner=inner)
        for g in grads[:bad_at]:
            p_twin = twin.step(p, g, 0.05)
            p = opt.step(p, g, 0.05)
            assert p == p_twin
        before = state_of(opt)
        flat = grads[bad_at].flat.copy()
        flat[3] = np.nan
        with pytest.raises(NonFiniteGradError):
            opt.step(p, grads[bad_at].with_flat(flat), 0.05)
        assert state_of(opt) == before
        assert opt.step_count == twin.step_count == bad_at
        got = opt.step(p, grads[bad_at], 0.05)
        want = twin.step(p, grads[bad_at], 0.05)
        assert got.flat.tobytes() == want.flat.tobytes()
        assert state_of(opt) == state_of(twin)


class TestStepThenWrite:
    """A step followed by ``set_running_stats``, as the training loop runs
    them, equals the step followed by ``with_updates``, whether the step
    writes a fresh set or the parameters in place; the slow weights never
    hold the written values."""

    @pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in_place"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_equals_step_then_with_updates(self, kind, inner, dtype, in_place):
        rng = np.random.default_rng(47)
        opt = make_optimizer(kind, lookahead_k=3, lookahead_inner=inner)
        twin = make_optimizer(kind, lookahead_k=3, lookahead_inner=inner)
        p = p_twin = mixed_pset(rng, dtype)
        if in_place:
            p = p.over(p.flat.copy())
        for t in range(7):  # Lookahead syncs after steps 3 and 6
            g = mixed_pset(rng, dtype)
            updates = {
                "s": rng.normal(),
                "empty": np.zeros((0, 2)),
                "b": rng.normal(size=5).astype(dtype),
            }
            stepped = opt.step(p, g, 0.05, out=p if in_place else None)
            written = set_running_stats(stepped, updates)
            assert (written is p) == in_place
            p = written
            p_twin = twin.step(p_twin, g, 0.05).with_updates(updates)
            assert p.flat.tobytes() == p_twin.flat.tobytes(), t
            assert not p.flat.flags.writeable
            assert state_of(opt) == state_of(twin), t

    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_a_bad_entry_leaves_the_buffer_and_the_state_untouched(self, kind, inner):
        rng = np.random.default_rng(53)
        opt = make_optimizer(kind, lookahead_k=3, lookahead_inner=inner)
        start = mixed_pset(rng, np.float64)
        p = start.over(start.flat.copy())
        opt.step(p, mixed_pset(rng, np.float64), 0.05, out=p)
        before, state = p.flat.tobytes(), state_of(opt)
        for bad in ({"nope": [1.0]}, {"b": np.zeros(4)}, {"s": 7.0, "b": np.zeros(4)}):
            with pytest.raises(StructureMismatch):
                set_running_stats(p, bad)
            assert p.flat.tobytes() == before
            assert state_of(opt) == state


# NaN bit patterns of each type: quiet, signalling and negative quiet.
NAN_BITS = {
    np.float32: np.array([0x7FC00000, 0x7F800001, 0xFFC00000], np.uint32),
    np.float64: np.array([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000], np.uint64),
}


def nan_scratch(size, dtype):
    """``size`` elements of ``dtype`` holding the NaN bit patterns in turn."""
    out = np.resize(NAN_BITS[dtype], size).view(dtype)
    assert np.isnan(out).all()
    return out


def scratch_trajectory(kind, inner, dtype, size, scratch):
    """Parameters and optimizer after ``4`` in-place steps on ``size``
    elements (Lookahead pulls back after steps 2 and 4), each step given
    ``scratch()`` as its scratch."""
    rng = np.random.default_rng(size)
    start = sized_pset(rng, dtype, size)
    p = start.over(start.flat.copy())
    opt = make_optimizer(kind, lookahead_inner=inner, lookahead_k=2)
    for t in range(4):
        g = sized_pset(rng, dtype, size)
        assert opt.step(p, g, 0.01 * (t + 1), out=p, scratch=scratch()) is p
    return p, opt


class TestTheCallersScratch:
    """A step writes its block temporaries into the caller's scratch, whose
    old bytes change no bit, and refuses a scratch it cannot use before
    any state changes."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "size", [BLOCK + 5, LANE_BLOCKS * BLOCK + 5], ids=["2-blocks", "lane-blocks+1"]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_nan_scratch_gives_the_bits_of_a_new_scratch(
        self, monkeypatch, kind, inner, dtype, size, cpus
    ):
        monkeypatch.setattr(lanes, "_cpu_count", lambda: cpus)
        need = scratch_size(make_optimizer(kind, lookahead_inner=inner), sized_pset(
            np.random.default_rng(0), dtype, size
        ))
        assert need == 2 * (2 if "adam" in (kind, inner) else 1) * BLOCK
        given = []

        def filled():
            given.append(nan_scratch(need + 3, dtype))  # three elements past the end
            return given[-1]

        got, got_opt = scratch_trajectory(kind, inner, dtype, size, filled)
        want, want_opt = scratch_trajectory(kind, inner, dtype, size, lambda: None)
        assert got.flat.tobytes() == want.flat.tobytes()
        assert state_of(got_opt) == state_of(want_opt)
        for scratch in given:  # the step wrote its leading elements only
            assert scratch[need:].tobytes() == nan_scratch(need + 3, dtype)[need:].tobytes()
            assert not np.isnan(scratch[:need]).all()

    @pytest.mark.parametrize(
        "refusal",
        [
            "small", "dtype", "read-only", "the parameters", "the gradients", "out",
            "the optimizer state",
        ],
    )
    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_a_refused_scratch_changes_nothing(self, kind, inner, refusal):
        rng = np.random.default_rng(59)
        size = 3 * BLOCK + 5
        start = sized_pset(rng, np.float64, size)
        opt = make_optimizer(kind, lookahead_inner=inner, lookahead_k=2)
        twin = make_optimizer(kind, lookahead_inner=inner, lookahead_k=2)
        need = scratch_size(opt, start)
        # The parameters, the gradients and the output lie in one array, each
        # with a scratch's room behind it.
        room = np.empty(3 * (size + need))
        p, grads, out = (start.over(room[k * (size + need) :][:size]) for k in range(3))
        p.buffer[...] = start.flat
        g = sized_pset(rng, np.float64, size)
        grads.buffer[...] = g.flat
        for o in (opt, twin):
            o.step(start, g, 0.01)
        assert len(opt._state()) == {"sgd": 1, "adam": 2}[inner] + (kind == "lookahead")
        refused = {
            "small": [np.empty(need - 1)],
            "dtype": [np.empty(need, np.float32)],
            "read-only": [np.broadcast_to(np.empty(need), (need,))],  # a read-only view
            "the parameters": [room[size - 1 : size - 1 + need]],
            "the gradients": [room[size + need + 1 : size + need + 1 + need]],
            "out": [room[2 * (size + need) - need + 2 : 2 * (size + need) + 2]],
            # A writeable view of one element of each state array, as long as a scratch.
            "the optimizer state": [as_strided(a[-1:], (need,), (0,)) for a in opt._state()],
        }[refusal]
        message = {
            "small": f"scratch of {need - 1} elements; a step takes {need}",
            "dtype": "scratch of float32 for parameters of float64",
            "read-only": "scratch is read-only",
        }.get(refusal, f"scratch shares memory with {refusal}")
        before = state_of(opt), room.tobytes()
        for scratch in refused:
            with pytest.raises(ValueError, match=message):
                opt.step(p, grads, 0.02, out=out, scratch=scratch)
            assert (state_of(opt), room.tobytes()) == before
        assert state_of(opt) == state_of(twin)
        got = opt.step(p, grads, 0.02, out=out)
        assert got.flat.tobytes() == twin.step(p, grads, 0.02).flat.tobytes()
        assert state_of(opt) == state_of(twin)


class TestOneLayout:
    """An optimizer steps sets of its first step's layout; a step on any
    other raises :class:`StructureMismatch` before any state changes."""

    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_a_set_of_another_size_is_refused(self, kind, inner):
        rng = np.random.default_rng(61)
        opt = make_optimizer(kind, lookahead_inner=inner, lookahead_k=3)
        opt.step(sized_pset(rng, np.float64, 40000), sized_pset(rng, np.float64, 40000), 0.01)
        before = state_of(opt)
        other = sized_pset(rng, np.float64, 70000)
        with pytest.raises(StructureMismatch):
            opt.step(other, sized_pset(rng, np.float64, 70000), 0.01)
        assert state_of(opt) == before
        assert opt.step_count == 1

    @pytest.mark.parametrize("kind,inner", KINDS)
    def test_a_set_of_other_names_or_type_is_refused(self, kind, inner):
        opt = make_optimizer(kind, lookahead_inner=inner, lookahead_k=3)
        opt.step(pset({"w": [1.0, 2.0]}), pset({"w": [0.5, 0.5]}), 0.1)
        before = state_of(opt)
        for values, dtype in (({"a": [1.0], "b": [2.0]}, np.float64), ({"w": [1.0, 2.0]}, np.float32)):
            with pytest.raises(StructureMismatch):
                opt.step(pset(values, dtype), pset(values, dtype), 0.1)
            assert state_of(opt) == before

    def test_lookahead_steps_the_layout_its_inner_optimizer_began_with(self):
        inner = Adam()
        inner.step(pset({"w": [1.0, 2.0]}), pset({"w": [0.5, 0.5]}), 0.1)
        opt = Lookahead(inner, k=2)
        with pytest.raises(StructureMismatch):
            opt.step(pset({"v": [1.0, 2.0]}), pset({"v": [0.5, 0.5]}), 0.1)
        assert opt.step_count == inner.step_count - 1 == 0
        assert opt.step(pset({"w": [1.0, 2.0]}), pset({"w": [0.5, 0.5]}), 0.1)["w"].shape == (2,)


class TestDescentSanity:
    def test_sgd_norm_strictly_decreases_on_quadratic(self):
        opt = Sgd(momentum=0.0)
        p = pset({"w": [1.0, -2.0, 0.5]})
        prev = float(np.linalg.norm(p["w"]))
        for _ in range(50):
            p = opt.step(p, p, lr=0.1)
            now = float(np.linalg.norm(p["w"]))
            assert now < prev
            prev = now

    def test_adam_norm_decreases_on_quadratic_after_first_step(self):
        opt = Adam()
        p = pset({"w": [1.0, -2.0, 0.5]})
        p = opt.step(p, p, lr=0.01)
        prev = float(np.linalg.norm(p["w"]))
        for _ in range(50):
            p = opt.step(p, p, lr=0.01)
            now = float(np.linalg.norm(p["w"]))
            assert now < prev
            prev = now


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_optimizer("sgd"), Sgd)
        assert isinstance(make_optimizer("adam"), Adam)
        look = make_optimizer("lookahead", lookahead_inner="adam")
        assert isinstance(look, Lookahead) and isinstance(look.inner, Adam)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_optimizer("lbfgs")

    def test_lookahead_inner_gets_the_inner_settings(self):
        look = make_optimizer(
            "lookahead", momentum=0.7, beta1=0.8, beta2=0.95, adam_eps=1e-6, lookahead_inner="adam"
        )
        assert (look.inner.beta1, look.inner.beta2, look.inner.eps) == (0.8, 0.95, 1e-6)
        look = make_optimizer("lookahead", momentum=0.7, lookahead_inner="sgd")
        assert look.inner.momentum == 0.7

    @pytest.mark.parametrize("inner", ["lookahead", "lbfgs"])
    def test_unknown_lookahead_inner(self, inner):
        with pytest.raises(ConfigError, match=f"unknown lookahead inner optimizer '{inner}'"):
            make_optimizer("lookahead", lookahead_inner=inner)


class TestSchedules:
    def test_constant(self):
        sched = ConstantSchedule(0.25)
        assert sched.lr_at(0) == 0.25
        assert sched.lr_at(10_000) == 0.25

    def test_cosine_endpoints_and_midpoint(self):
        sched = CosineSchedule(base=0.4, total_steps=100)
        assert sched.lr_at(0) == pytest.approx(0.4)
        assert sched.lr_at(100) == pytest.approx(0.0, abs=1e-17)
        assert sched.lr_at(50) == pytest.approx(0.2, abs=1e-15)

    def test_cosine_clamps_past_total(self):
        sched = CosineSchedule(base=0.4, total_steps=100)
        assert sched.lr_at(250) == sched.lr_at(100)

    def test_cosine_monotone_decreasing(self):
        sched = CosineSchedule(base=1.0, total_steps=64)
        values = [sched.lr_at(t) for t in range(65)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_poly_warmup_ramp_and_linear_decay(self):
        sched = PolyWarmupSchedule(peak=0.5, total_steps=100, warmup_steps=20)
        assert sched.lr_at(0) == 0.0
        assert sched.lr_at(10) == pytest.approx(0.25)
        assert sched.lr_at(20) == pytest.approx(0.5)
        assert sched.lr_at(60) == pytest.approx(0.25)  # midpoint of decay
        assert sched.lr_at(100) == pytest.approx(0.0, abs=1e-17)

    def test_poly_warmup_continuous_at_warmup_boundary(self):
        sched = PolyWarmupSchedule(peak=0.3, total_steps=1000, warmup_steps=100)
        left = sched.lr_at(99)
        at = sched.lr_at(100)
        assert at == pytest.approx(0.3)
        assert abs(at - left) <= 0.3 / 100 + 1e-15

    def test_poly_warmup_end_rate_and_power(self):
        sched = PolyWarmupSchedule(
            peak=1.0, total_steps=110, warmup_steps=10, end=0.1, power=2.0
        )
        assert sched.lr_at(60) == pytest.approx(0.1 + 0.9 * 0.25)
        assert sched.lr_at(110) == pytest.approx(0.1)
        assert sched.lr_at(500) == pytest.approx(0.1)

    def test_warmup_longer_than_total_rejected(self):
        with pytest.raises(ConfigError):
            PolyWarmupSchedule(peak=1.0, total_steps=10, warmup_steps=11)

    def test_factory(self):
        assert isinstance(make_schedule("constant", 0.1, 10), ConstantSchedule)
        assert isinstance(make_schedule("cosine", 0.1, 10), CosineSchedule)
        assert isinstance(
            make_schedule("poly_warmup", 0.1, 10, warmup_steps=2), PolyWarmupSchedule
        )
        with pytest.raises(ConfigError):
            make_schedule("step", 0.1, 10)
        with pytest.raises(ConfigError):
            make_schedule("cosine", -0.1, 10)
