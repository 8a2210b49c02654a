import gc
import weakref

import numpy as np
import pytest

from lawa import averaging
from lawa.averaging import (
    EmaScheme,
    NoAveraging,
    PolyakScheme,
    UniformScheme,
    average_checkpoint_dir,
    make_scheme,
    uniform_average,
)
from lawa.checkpoint_io import CheckpointFile, open_checkpoint, read_checkpoint, write_checkpoint
from lawa.errors import (
    ConfigError,
    ConfigWarning,
    EpochOrderError,
    InsufficientCheckpoints,
    FormatError,
    InternalStateError,
    NonFiniteError,
    StructureMismatch,
)
from lawa.params import Checkpoint
from testutil import (
    ckpt_of,
    fsum_mean,
    max_abs_diff,
    mixed_pset,
    pset,
    random_pset,
    scalar_ckpt,
)


class TestWindow:
    def test_fifo_eviction(self):
        scheme = UniformScheme(2)
        for e in range(3):
            scheme.observe(scalar_ckpt(float(e), e))
        assert [c.epoch for c in scheme.window] == [1, 2]

    def test_partial_fill(self):
        scheme = UniformScheme(3)
        scheme.observe(scalar_ckpt(0.0, 0))
        assert len(scheme.window) == 1
        assert scheme.window[-1].epoch == 0

    def test_repeated_epoch_rejected(self):
        scheme = UniformScheme(3)
        scheme.observe(scalar_ckpt(1.0, 1))
        with pytest.raises(EpochOrderError):
            scheme.observe(scalar_ckpt(2.0, 1))
        assert [c.epoch for c in scheme.window] == [1]

    def test_decreasing_epoch_rejected(self):
        scheme = UniformScheme(3)
        scheme.observe(scalar_ckpt(1.0, 5))
        with pytest.raises(EpochOrderError):
            scheme.observe(scalar_ckpt(2.0, 4))
        assert [c.epoch for c in scheme.window] == [5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            UniformScheme(0)


class TestUniformAverage:
    def test_arithmetic_mean(self):
        out = uniform_average(
            [ckpt_of(pset({"a": [1, 3]}), 0), ckpt_of(pset({"a": [3, 5]}), 1)]
        )
        np.testing.assert_array_equal(out["a"], [2.0, 4.0])

    @pytest.mark.parametrize("k", [1, 2, 6, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_copies_idempotent(self, k, dtype):
        p = random_pset(np.random.default_rng(7), dtype=dtype)
        out = uniform_average([ckpt_of(p, e) for e in range(k)])
        assert max_abs_diff(out, p) <= 1e-12

    def test_matches_independent_summation_oracle(self):
        rng = np.random.default_rng(8)
        ckpts = [ckpt_of(random_pset(rng), e) for e in range(6)]
        out = uniform_average(ckpts)
        oracle = fsum_mean([c.params for c in ckpts])
        for name, arr in out.items():
            np.testing.assert_allclose(arr, oracle[name], rtol=1e-12, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            ckpts = [ckpt_of(random_pset(rng), e) for e in range(n)]
            base = uniform_average(ckpts)
            perm = [ckpts[i] for i in rng.permutation(n)]
            assert max_abs_diff(base, uniform_average(perm)) <= 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(10)
        ckpts = [ckpt_of(random_pset(rng), e) for e in range(5)]
        c = 3.7
        scaled = [
            ckpt_of(
                pset({n: c * a for n, a in ck.params.items()}), ck.epoch
            )
            for ck in ckpts
        ]
        left = uniform_average(scaled)
        right = uniform_average(ckpts)
        for name, arr in left.items():
            np.testing.assert_allclose(arr, c * right[name], rtol=1e-12)

    def test_convexity_bound(self):
        rng = np.random.default_rng(11)
        ckpts = [ckpt_of(random_pset(rng), e) for e in range(7)]
        out = uniform_average(ckpts)
        for name, arr in out.items():
            stack = np.stack([c.params[name] for c in ckpts])
            assert np.all(arr >= stack.min(axis=0) - 1e-12)
            assert np.all(arr <= stack.max(axis=0) + 1e-12)

    def test_structural_mismatch(self):
        with pytest.raises(StructureMismatch):
            uniform_average(
                [ckpt_of(pset({"a": [1.0]}), 0), ckpt_of(pset({"b": [1.0]}), 1)]
            )

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            uniform_average(
                [ckpt_of(pset({"a": [1.0]}), 0), ckpt_of(pset({"a": [np.inf]}), 1)]
            )

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigError):
            uniform_average([])

    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_per_entry_reference(self, n, dtype):
        # float64 sums in checkpoint order, then / n and the cast back
        rng = np.random.default_rng(12)
        ckpts = [ckpt_of(mixed_pset(rng, dtype), e) for e in range(n)]
        out = uniform_average(ckpts)
        for name, arr in out.items():
            acc = np.zeros(arr.shape, dtype=np.float64)
            for c in ckpts:
                acc += c.params[name]
            want = (acc / n).astype(dtype)
            assert arr.dtype == dtype and arr.shape == want.shape
            assert np.array_equal(arr, want), name


class TestUniformScheme:
    def test_gate_before_k_checkpoints(self):
        scheme = UniformScheme(6)
        for e in range(5):
            assert scheme.observe(scalar_ckpt(float(e), e)) is None

    def test_k1_returns_latest_exactly(self):
        scheme = UniformScheme(1)
        p = random_pset(np.random.default_rng(12))
        out = scheme.observe(ckpt_of(p, 0))
        assert out == p

    def test_k3_scalar_trajectory(self):
        scheme = UniformScheme(3)
        result = None
        for e in range(5):
            result = scheme.observe(scalar_ckpt(float(e), e))
        assert result is not None
        assert result["w"][0] == pytest.approx(3.0, abs=1e-15)

    def test_window_may_start_at_any_epoch(self):
        scheme = UniformScheme(3)
        outs = [scheme.observe(scalar_ckpt(float(e), e)) for e in range(5, 9)]
        assert outs[0] is None and outs[1] is None
        assert outs[2]["w"][0] == 6.0 and outs[3]["w"][0] == 7.0

    def test_window_equals_naive_mean_over_window(self):
        rng = np.random.default_rng(13)
        k = 4
        scheme = UniformScheme(k)
        history = []
        for e in range(9):
            ck = ckpt_of(random_pset(rng), e)
            history.append(ck)
            out = scheme.observe(ck)
            assert list(scheme.window) == history[-k:]
            if e + 1 < k:
                assert out is None
            else:
                oracle = fsum_mean([c.params for c in history[-k:]])
                assert max_abs_diff(out, oracle) <= 1e-12


class TestEma:
    def test_hand_recursion_step(self):
        ema = EmaScheme(alpha=0.9)
        ema.observe(scalar_ckpt(0.0, 0))
        out = ema.observe(scalar_ckpt(10.0, 1))
        assert out["w"][0] == pytest.approx(9.0, abs=1e-15)

    def test_first_call_returns_first_checkpoint(self):
        ema = EmaScheme(alpha=0.3)
        p = random_pset(np.random.default_rng(14))
        out = ema.observe(ckpt_of(p, 0))
        assert out == p

    def test_alpha_one_tracks_latest(self):
        ema = EmaScheme(alpha=1.0)
        rng = np.random.default_rng(15)
        for e in range(5):
            p = random_pset(rng)
            out = ema.observe(ckpt_of(p, e))
        assert out == p

    def test_alpha_zero_freezes_first(self):
        ema = EmaScheme(alpha=0.0)
        rng = np.random.default_rng(16)
        first = random_pset(rng)
        out = ema.observe(ckpt_of(first, 0))
        for e in range(1, 5):
            out = ema.observe(ckpt_of(random_pset(rng), e))
        assert out == first

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            EmaScheme(alpha=1.5)
        with pytest.raises(ConfigError):
            EmaScheme(alpha=-0.1)

    def test_ten_step_scalar_matches_hand_evaluation(self):
        alpha = 0.9
        values = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, 6.0, -3.0, 5.0]
        ema = EmaScheme(alpha=alpha)
        expected = values[0]
        out = ema.observe(scalar_ckpt(values[0], 0))
        assert out["w"][0] == expected
        for e, v in enumerate(values[1:], start=1):
            expected = alpha * v + (1.0 - alpha) * expected
            out = ema.observe(scalar_ckpt(v, e))
            assert out["w"][0] == pytest.approx(expected, abs=1e-12)


class TestPolyak:
    def test_first_push_returns_checkpoint(self):
        poly = PolyakScheme()
        p = random_pset(np.random.default_rng(17))
        assert poly.observe(ckpt_of(p, 0)) == p
        assert poly.count == 1

    def test_two_scalars(self):
        poly = PolyakScheme()
        poly.observe(scalar_ckpt(1.0, 0))
        out = poly.observe(scalar_ckpt(3.0, 1))
        assert out["w"][0] == 2.0

    def test_matches_naive_full_mean(self):
        rng = np.random.default_rng(18)
        poly = PolyakScheme()
        history = []
        for e in range(10):
            p = random_pset(rng)
            history.append(p)
            out = poly.observe(ckpt_of(p, e))
        oracle = fsum_mean(history)
        for name, arr in out.items():
            np.testing.assert_allclose(arr, oracle[name], rtol=1e-12, atol=0)

    def test_equals_uniform_over_all_epochs(self):
        rng = np.random.default_rng(19)
        poly = PolyakScheme()
        ckpts = []
        for e in range(8):
            ck = ckpt_of(random_pset(rng), e)
            ckpts.append(ck)
            out = poly.observe(ck)
        uniform = uniform_average(ckpts)
        for name, arr in out.items():
            np.testing.assert_allclose(arr, uniform[name], rtol=1e-10)


def reference_fold(history, step):
    """Per-element float64 recursion with a cast back to the input dtype.

    ``step(acc, x, t)`` advances one element by the t-th checkpoint (t >= 2);
    the first checkpoint starts the state. Plain Python floats are IEEE
    doubles, so this matches a vectorized fold only if it applies the same
    operations in the same order.
    """
    first = history[0]
    out = {}
    for name, arr in first.items():
        values = []
        for j in range(arr.size):
            acc = float(arr.ravel()[j])
            for t, p in enumerate(history[1:], start=2):
                acc = step(acc, float(p[name].ravel()[j]), t)
            values.append(acc)
        out[name] = np.array(values, dtype=np.float64).reshape(arr.shape).astype(arr.dtype)
    return out


def as_slot(source, tmp_path, params, epoch):
    """``params`` at ``epoch`` in memory, or written and opened as a file slot."""
    ckpt = ckpt_of(params, epoch)
    if source == "memory":
        return ckpt
    write_checkpoint(ckpt, tmp_path / f"c{epoch}.lawa")
    return open_checkpoint(tmp_path / f"c{epoch}.lawa")


SOURCES = pytest.mark.parametrize("source", ["memory", "file"])


class TestRunningFoldBitwise:
    """Every scheme against its recursion or sum over whole arrays, bit for
    bit, from memory and from files, read in runs of 5 values so that runs
    split entries: a reordered or merged fold changes the last bits of
    every averaged checkpoint."""

    @pytest.fixture(autouse=True)
    def short_runs(self, monkeypatch):
        monkeypatch.setattr(averaging, "READ_BLOCK", 5)

    @SOURCES
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.9, 0.37])
    def test_ema(self, tmp_path, source, dtype, alpha):
        rng = np.random.default_rng(31)
        ema = EmaScheme(alpha=alpha)
        history = []
        for e in range(9):
            history.append(random_pset(rng, dtype=dtype, scale=3.0))
            out = ema.observe(as_slot(source, tmp_path, history[-1], e))
            want = reference_fold(history, lambda acc, x, t: alpha * x + (1.0 - alpha) * acc)
            for name, arr in out.items():
                assert arr.dtype == dtype
                assert arr.tobytes() == want[name].tobytes()
        assert ema.count == 9

    @SOURCES
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_polyak(self, tmp_path, source, dtype):
        rng = np.random.default_rng(32)
        poly = PolyakScheme()
        history = []
        for e in range(9):
            history.append(random_pset(rng, dtype=dtype, scale=3.0))
            out = poly.observe(as_slot(source, tmp_path, history[-1], e))
            want = reference_fold(history, lambda acc, x, t: acc + (x - acc) / t)
            for name, arr in out.items():
                assert arr.dtype == dtype
                assert arr.tobytes() == want[name].tobytes()
        assert poly.count == 9

    @SOURCES
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform(self, tmp_path, source, dtype):
        def mean(sets):
            total = np.zeros(sets[0].flat.size)
            for p in sets:
                total += p.flat.astype(np.float64)
            return (total / len(sets)).astype(dtype).tobytes()

        rng = np.random.default_rng(34)
        scheme = UniformScheme(4)
        history, slots = [], []
        for e in range(9):
            history.append(random_pset(rng, dtype=dtype, scale=3.0))
            slots.append(as_slot(source, tmp_path, history[-1], e))
            out = scheme.observe(slots[-1])
            assert out is None if e < 3 else out.flat.tobytes() == mean(history[-4:])
        assert uniform_average(slots).flat.tobytes() == mean(history)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["ema", "polyak"])
    def test_the_first_checkpoint_is_not_kept(self, kind, dtype):
        rng = np.random.default_rng(33)
        scheme = make_scheme(kind)
        first = ckpt_of(random_pset(rng, dtype=dtype), 0)
        values = weakref.ref(first.params.flat)
        scheme.observe(first)
        del first
        for e in range(1, 4):
            out = scheme.observe(ckpt_of(random_pset(rng, dtype=dtype), e))
        gc.collect()
        assert values() is None
        assert out.dtype == dtype and scheme.count == 4


class TestRunningFoldOrder:
    """Every averaging scheme admits a checkpoint by one rule: the first
    checkpoint's layout, then an epoch after the last."""

    @pytest.mark.parametrize("repeat", [2, 1], ids=["repeated", "decreasing"])
    @pytest.mark.parametrize("kind", ["ema", "polyak", "uniform"])
    def test_an_epoch_that_does_not_increase_is_rejected(self, kind, repeat):
        scheme, twin = make_scheme(kind, k=2), make_scheme(kind, k=2)
        for e in range(3):
            scheme.observe(scalar_ckpt(float(e), e))
            twin.observe(scalar_ckpt(float(e), e))
        message = f"epoch {repeat} is not greater than newest stored epoch 2"
        with pytest.raises(EpochOrderError, match=message):
            scheme.observe(scalar_ckpt(7.0, repeat))
        # The rejected checkpoint left the scheme as it was.
        if kind == "uniform":
            assert [c.epoch for c in scheme.window] == [1, 2]
        else:
            assert scheme.count == 3
        assert scheme.observe(scalar_ckpt(3.0, 3)) == twin.observe(scalar_ckpt(3.0, 3))

    @pytest.mark.parametrize("kind", ["ema", "polyak"])
    def test_a_file_that_fails_part_way_stops_the_fold(self, tmp_path, monkeypatch, kind):
        monkeypatch.setattr(averaging, "READ_BLOCK", 2)
        scheme, twin = make_scheme(kind), make_scheme(kind)
        first = ckpt_of(pset({"a": [1.0], "b": [1.0]}), 0)
        scheme.observe(first)
        twin.observe(first)
        # Entry 'a' is folded in before entry 'b' is found not finite.
        bad = ckpt_of(pset({"a": [5.0], "b": [np.nan]}), 1)
        write_checkpoint(bad, tmp_path / "c.lawa")
        with pytest.raises(NonFiniteError, match="entry 'b'"):
            scheme.observe(open_checkpoint(tmp_path / "c.lawa"))
        assert scheme.count == 1
        # Folding on would mix the failed file's 'a' into every later average.
        following = ckpt_of(pset({"a": [3.0], "b": [3.0]}), 1)
        for _ in range(2):
            with pytest.raises(InternalStateError, match="epoch 1 failed part way"):
                scheme.observe(following)
        assert scheme.count == 1
        assert twin.observe(following)["a"][0] == pytest.approx({"ema": 2.8, "polyak": 2.0}[kind])

    @pytest.mark.parametrize("kind", ["ema", "polyak"])
    @pytest.mark.parametrize("observed", [0, 1], ids=["first", "later"])
    def test_a_file_refused_before_its_fold_changes_the_state_is_left_out(
        self, tmp_path, monkeypatch, kind, observed
    ):
        monkeypatch.setattr(averaging, "READ_BLOCK", 2)
        scheme, twin = make_scheme(kind), make_scheme(kind)
        for e in range(observed):
            scheme.observe(ckpt_of(pset({"a": [1.0], "b": [1.0]}), e))
            twin.observe(ckpt_of(pset({"a": [1.0], "b": [1.0]}), e))
        # A first checkpoint starts the state whatever it holds; a later one
        # changes it from its first run on, so here entry 'a' must fail.
        bad = {"a": [5.0], "b": [np.nan]} if observed == 0 else {"a": [np.nan], "b": [5.0]}
        write_checkpoint(ckpt_of(pset(bad), observed), tmp_path / "c.lawa")
        with pytest.raises(NonFiniteError):
            scheme.observe(open_checkpoint(tmp_path / "c.lawa"))
        assert scheme.count == observed
        following = ckpt_of(pset({"a": [3.0], "b": [3.0]}), observed)
        assert scheme.observe(following) == twin.observe(following)

    @pytest.mark.parametrize("kind", ["ema", "polyak", "uniform"])
    def test_a_refused_first_checkpoint_fixes_no_layout(self, kind):
        scheme = make_scheme(kind)
        with pytest.raises(NonFiniteError):
            scheme.observe(ckpt_of(pset({"other": [np.nan]}), 0))
        scheme.observe(scalar_ckpt(1.0, 0))  # neither its layout nor its epoch was kept

    @pytest.mark.parametrize("kind", ["ema", "polyak", "uniform"])
    def test_a_foreign_structure_is_named_before_the_epoch(self, kind):
        scheme = make_scheme(kind)
        scheme.observe(scalar_ckpt(1.0, 1))
        # The layout the scheme holds is the expected side, named first.
        with pytest.raises(StructureMismatch, match="entry 0: name 'w' vs 'other'"):
            scheme.observe(ckpt_of(pset({"other": [1.0]}), 1))


class TestUniformIsAllOrNothing:
    """A checkpoint that ``UniformScheme.observe`` refuses leaves the
    window as it was."""

    def test_a_refused_checkpoint_leaves_a_full_window(self):
        scheme = make_scheme("uniform", k=2)
        scheme.observe(scalar_ckpt(1.0, 0))
        with pytest.raises(NonFiniteError, match="epoch 1: entry 'w'"):
            scheme.observe(scalar_ckpt(np.nan, 1))
        assert [c.epoch for c in scheme.window] == [0]
        assert scheme.observe(scalar_ckpt(2.0, 2))["w"][0] == 1.5

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_checkpoint_in_memory_is_refused_before_the_window_fills(self, value):
        scheme = make_scheme("uniform", k=3)
        scheme.observe(scalar_ckpt(1.0, 0))
        with pytest.raises(NonFiniteError, match="epoch 1: entry 'w'"):
            scheme.observe(scalar_ckpt(value, 1))
        assert len(scheme.window) == 1

    def test_a_file_slot_is_checked_when_an_average_first_reads_it(self, tmp_path):
        scheme = make_scheme("uniform", k=2)
        write_checkpoint(scalar_ckpt(np.nan, 0), tmp_path / "c.lawa")
        bad = open_checkpoint(tmp_path / "c.lawa")
        assert scheme.observe(bad) is None
        with pytest.raises(NonFiniteError, match="epoch 0: entry 'w'"):
            scheme.observe(scalar_ckpt(2.0, 1))
        assert list(scheme.window) == [bad]
        # The bad slot can never leave the window, so the scheme has stopped.
        for epoch in (1, 2):
            with pytest.raises(InternalStateError, match="holds the checkpoint at epoch 0"):
                scheme.observe(scalar_ckpt(2.0, epoch))
        assert list(scheme.window) == [bad]

    def test_a_failing_newest_file_slot_leaves_the_scheme_running(self, tmp_path):
        scheme = make_scheme("uniform", k=2)
        write_checkpoint(scalar_ckpt(1.0, 0), tmp_path / "a.lawa")
        write_checkpoint(scalar_ckpt(np.nan, 1), tmp_path / "b.lawa")
        assert scheme.observe(open_checkpoint(tmp_path / "a.lawa")) is None
        with pytest.raises(NonFiniteError, match="epoch 1: entry 'w'"):
            scheme.observe(open_checkpoint(tmp_path / "b.lawa"))
        assert scheme.observe(scalar_ckpt(2.0, 1))["w"][0] == 1.5


class TestSchemeFactory:
    def test_kinds(self):
        assert isinstance(make_scheme("none"), NoAveraging)
        assert isinstance(make_scheme("uniform", k=3), UniformScheme)
        assert isinstance(make_scheme("ema", alpha=0.5), EmaScheme)
        assert isinstance(make_scheme("polyak"), PolyakScheme)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_scheme("median")

    def test_uniform_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("uniform", k=0)

    def test_large_window_warns_but_works(self):
        with pytest.warns(ConfigWarning, match="k>16"):
            scheme = make_scheme("uniform", k=20)
        assert scheme.k == 20

    def test_none_never_averages(self):
        scheme = make_scheme("none")
        for e in range(4):
            assert scheme.observe(scalar_ckpt(float(e), e)) is None

    def test_uniform_observe_gates_then_averages(self):
        scheme = make_scheme("uniform", k=3)
        outs = [scheme.observe(scalar_ckpt(float(e), e)) for e in range(5)]
        assert outs[0] is None and outs[1] is None
        assert outs[2]["w"][0] == pytest.approx(1.0)
        assert outs[4]["w"][0] == pytest.approx(3.0)


class TestOfflineAveraging:
    def _write_trajectory(self, directory, epochs, seed=20):
        rng = np.random.default_rng(seed)
        ckpts = []
        for e in epochs:
            ck = Checkpoint(params=random_pset(rng), epoch=e, step=10 * e)
            ckpts.append(ck)
            # intentionally misleading filenames: selection must use headers
            write_checkpoint(ck, directory / f"any_{seed}_{99 - e:03d}.lawa")
        return ckpts

    def test_selects_k_newest_by_header_epoch(self, tmp_path):
        ckpts = self._write_trajectory(tmp_path, range(10))
        out = average_checkpoint_dir(tmp_path, k=6, scheme="uniform")
        oracle = fsum_mean([c.params for c in ckpts[4:]])
        assert out.epoch == 9 and out.step == 90
        assert max_abs_diff(out.params, oracle) <= 1e-12

    def test_k1_is_identical_to_newest(self, tmp_path):
        ckpts = self._write_trajectory(tmp_path, range(4))
        out = average_checkpoint_dir(tmp_path, k=1)
        assert out.params == ckpts[-1].params
        assert out.epoch == 3

    def test_ema_over_window(self, tmp_path):
        ckpts = self._write_trajectory(tmp_path, range(5))
        out = average_checkpoint_dir(tmp_path, k=3, scheme="ema", alpha=0.5)
        expected = ckpts[2].params.as_dict()
        for ck in ckpts[3:]:
            expected = {
                n: 0.5 * ck.params[n] + 0.5 * v for n, v in expected.items()
            }
        for name, arr in out.params.items():
            np.testing.assert_allclose(arr, expected[name], rtol=1e-12)

    def test_insufficient_checkpoints(self, tmp_path):
        self._write_trajectory(tmp_path, range(3))
        with pytest.raises(InsufficientCheckpoints):
            average_checkpoint_dir(tmp_path, k=6)

    def test_mismatched_structures_fail_with_entry_name(self, tmp_path):
        self._write_trajectory(tmp_path, range(2))
        write_checkpoint(
            Checkpoint(params=pset({"other": [1.0]}), epoch=2, step=20),
            tmp_path / "odd.lawa",
        )
        with pytest.raises(StructureMismatch):
            average_checkpoint_dir(tmp_path, k=3)

    def test_averaged_outputs_are_not_candidates(self, tmp_path):
        ckpts = self._write_trajectory(tmp_path, range(4))
        write_checkpoint(
            Checkpoint(params=pset({"other": [1.0]}), epoch=50, step=500),
            tmp_path / "lawa_e00050.lawa",
        )
        out = average_checkpoint_dir(tmp_path, k=2)
        oracle = fsum_mean([c.params for c in ckpts[-2:]])
        assert max_abs_diff(out.params, oracle) <= 1e-12

    def test_unknown_scheme(self, tmp_path):
        self._write_trajectory(tmp_path, range(3))
        with pytest.raises(ConfigError):
            average_checkpoint_dir(tmp_path, k=2, scheme="median")

    def test_none_yields_no_average(self, tmp_path):
        self._write_trajectory(tmp_path, range(3))
        with pytest.raises(ConfigError, match="no average"):
            average_checkpoint_dir(tmp_path, k=2, scheme="none")

    def test_none_says_so_before_it_reads_or_counts_a_file(self, tmp_path, monkeypatch):
        self._write_trajectory(tmp_path, range(3))

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(averaging, "read_checkpoint", unread)
        monkeypatch.setattr(averaging, "read_checkpoint_header", unread)
        monkeypatch.setattr(averaging, "open_checkpoint", unread)
        for k in (2, 5):  # k=5 asks for more files than there are
            with pytest.raises(ConfigError, match="no average"):
                average_checkpoint_dir(tmp_path, k=k, scheme="none")

    def test_k_zero_is_refused_before_any_file_is_read(self, tmp_path, monkeypatch):
        self._write_trajectory(tmp_path, range(3))

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(averaging, "read_checkpoint", unread)
        monkeypatch.setattr(averaging, "read_checkpoint_header", unread)
        monkeypatch.setattr(averaging, "open_checkpoint", unread)
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            average_checkpoint_dir(tmp_path, 0, scheme="ema")

    def test_polyak_is_the_in_loop_fold_over_the_window(self, tmp_path):
        ckpts = self._write_trajectory(tmp_path, range(10))
        out = average_checkpoint_dir(tmp_path, k=4, scheme="polyak")
        polyak = PolyakScheme()
        for c in ckpts[-4:]:
            expected = polyak.observe(c)
        assert out.params.flat.tobytes() == expected.flat.tobytes()
        assert (out.epoch, out.step) == (9, 90)

    def test_foreign_file_at_a_repeated_epoch_is_named_by_entry(self, tmp_path):
        self._write_trajectory(tmp_path, range(3))
        write_checkpoint(
            Checkpoint(params=pset({"other": [1.0]}), epoch=2, step=20),
            tmp_path / "odd.lawa",
        )
        with pytest.raises(StructureMismatch, match="other"):
            average_checkpoint_dir(tmp_path, k=3)

    @pytest.mark.parametrize("scheme", ["uniform", "ema"])
    def test_result_is_bitwise_the_average_of_the_window(self, tmp_path, scheme):
        ckpts = self._write_trajectory(tmp_path, range(10))
        out = average_checkpoint_dir(tmp_path, k=4, scheme=scheme, alpha=0.3)
        if scheme == "uniform":
            expected = uniform_average(ckpts[-4:])
        else:
            ema = EmaScheme(0.3)
            for c in ckpts[-4:]:
                expected = ema.observe(c)
        assert out.params == expected
        assert out.params.flat.tobytes() == expected.flat.tobytes()
        assert (out.epoch, out.step) == (9, 90)

    @pytest.mark.parametrize("side", ["parsed", "file"])
    @pytest.mark.parametrize("scheme", ["uniform", "ema", "polyak"])
    def test_reads_each_window_file_in_full_once(self, tmp_path, monkeypatch, scheme, side):
        self._write_trajectory(tmp_path, range(10))
        size = next(tmp_path.iterdir()).stat().st_size
        # Every file has this size: a file slot from FILE_SLOT_BYTES on.
        monkeypatch.setattr(averaging, "FILE_SLOT_BYTES", size + (side == "parsed"))
        read = []

        def parsed(path):
            read.append(("parsed", path))
            return read_checkpoint(path)

        def streamed(ref, buffer):
            read.append(("file", ref.path))
            return runs(ref, buffer)

        runs = CheckpointFile.runs
        monkeypatch.setattr(averaging, "read_checkpoint", parsed)
        monkeypatch.setattr(CheckpointFile, "runs", streamed)
        out = average_checkpoint_dir(tmp_path, k=3, scheme=scheme)
        assert [how for how, _ in read] == [side] * 3
        assert sorted(read_checkpoint(path).epoch for _, path in read) == [7, 8, 9]
        assert out.epoch == 9

    def test_equal_epochs_are_ordered_by_step(self, tmp_path):
        rng = np.random.default_rng(21)
        early = Checkpoint(params=random_pset(rng), epoch=4, step=40)
        late = Checkpoint(params=random_pset(rng), epoch=4, step=41)
        write_checkpoint(late, tmp_path / "a.lawa")
        write_checkpoint(early, tmp_path / "b.lawa")
        out = average_checkpoint_dir(tmp_path, k=1)
        assert out.params == late.params and out.step == 41

    def test_damaged_data_outside_the_window_is_not_read(self, tmp_path):
        ckpts = self._write_trajectory(tmp_path, range(5))
        oldest = tmp_path / "any_20_099.lawa"  # epoch 0
        oldest.write_bytes(oldest.read_bytes()[:-8])
        out = average_checkpoint_dir(tmp_path, k=3)
        assert out.params == uniform_average(ckpts[-3:])
        with pytest.raises(FormatError, match="truncated"):
            average_checkpoint_dir(tmp_path, k=5)

    def test_bad_header_outside_the_window_still_fails(self, tmp_path):
        self._write_trajectory(tmp_path, range(5))
        oldest = tmp_path / "any_20_099.lawa"  # epoch 0
        oldest.write_bytes(b"XAWA" + oldest.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            average_checkpoint_dir(tmp_path, k=2)
