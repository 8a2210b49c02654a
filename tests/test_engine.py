import math
import os
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lawa import averaging, engine, lanes, optim
from lawa.checkpoint_io import read_checkpoint
from lawa.config import RunConfig, resolved_text
from lawa.data import make_spirals
from lawa.engine import (
    AVERAGING_FIELDS,
    BN_EPS,
    BN_MOMENTUM,
    InferenceBuffers,
    ModelSpec,
    TrainingBuffers,
    backward,
    batch_loss,
    build_dataset,
    apply_bn_mode,
    copy_bn_stats,
    evaluate,
    forward,
    init_params,
    is_running_stat,
    param_shapes,
    recompute_bn_stats,
    set_running_stats,
    train_run,
    train_variants,
)
from lawa.checkpoint_io import read_checkpoint_header
from lawa.metrics import csv_line
from lawa.errors import (
    ConfigError,
    EmptyDataError,
    IoError,
    NonFiniteError,
    ShapeError,
    StructureMismatch,
)
from lawa.optim import Adam, Lookahead, Sgd, make_optimizer
from lawa.params import Checkpoint, ParameterSet
from testutil import PeakSpans, masked_files, traced


def small_spec(use_bn=False, loss="cross_entropy", seed=0, widths=(2, 5, 3)):
    return ModelSpec(
        widths=widths,
        use_bn=tuple(use_bn for _ in widths[1:-1]),
        loss=loss,
        init_seed=seed,
    )


def random_batch(rng, spec, n=8):
    x = rng.normal(size=(n, spec.widths[0]))
    if spec.loss == "cross_entropy":
        y = rng.integers(0, spec.widths[-1], size=n)
    else:
        y = rng.normal(size=(n, spec.widths[-1]))
    return x, y


def fd_gradients(params, spec, x, y, h=1e-5):
    """Central finite differences of the training-mode batch loss."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = g.reshape(-1)
        base = arr.reshape(-1)
        for j in range(arr.size):
            for sign in (+1.0, -1.0):
                bumped = base.copy()
                bumped[j] += sign * h
                p2 = params.with_updates({name: bumped.reshape(arr.shape)})
                loss = batch_loss(p2, spec, x, y, training=True)
                flat[j] += sign * loss / (2.0 * h)
        grads[name] = g
    return grads


def assert_grads_match(params, spec, x, y, rtol=1e-4):
    _, cache = forward(params, spec, x, training=True)
    analytic = backward(params, spec, (x, y), cache)
    numeric = fd_gradients(params, spec, x, y)
    for name, num in numeric.items():
        ana = analytic[name]
        # floor the denominator: a bias feeding straight into batch norm
        # has an exactly-zero gradient, leaving only FD rounding noise
        denom = max(float(np.linalg.norm(num)), 1e-5)
        rel = float(np.linalg.norm(ana - num)) / denom
        assert rel < rtol, f"{name}: relative gradient error {rel:.2e}"


class TestInit:
    def test_deterministic_bitwise(self):
        spec = small_spec(seed=11)
        a, b = init_params(spec), init_params(spec)
        for name, arr in a.items():
            assert arr.tobytes() == b[name].tobytes()

    def test_parameter_count_2_3_2(self):
        spec = ModelSpec(widths=(2, 3, 2), use_bn=(False,), init_seed=0)
        assert init_params(spec).total_size() == 17

    def test_bn_entries_initialized(self):
        spec = small_spec(use_bn=True)
        params = init_params(spec)
        np.testing.assert_array_equal(params["layer0.bn_running_var"], 1.0)
        np.testing.assert_array_equal(params["layer0.bn_running_mean"], 0.0)
        np.testing.assert_array_equal(params["layer0.bn_gamma"], 1.0)

    def test_biases_zero_and_weights_bounded(self):
        spec = small_spec()
        params = init_params(spec)
        np.testing.assert_array_equal(params["layer0.bias"], 0.0)
        bound = 1.0 / math.sqrt(2)
        assert np.all(np.abs(params["layer0.weight"]) <= bound)

    def test_running_stat_name_convention(self):
        assert is_running_stat("layer0.bn_running_mean")
        assert is_running_stat("layer2.bn_running_var")
        assert not is_running_stat("layer0.bn_gamma")
        assert not is_running_stat("layer0.weight")

    @pytest.mark.parametrize("use_bn", [(True,), (False, True), (True, False, True)])
    def test_param_shapes_are_the_initial_entries(self, use_bn):
        spec = ModelSpec(widths=(3, *range(5, 5 + len(use_bn)), 2), use_bn=use_bn)
        params = init_params(spec)
        assert list(param_shapes(spec)) == [(n, a.shape) for n, a in params.items()]


class TestForwardBackward:
    def test_zero_weight_network_gives_log2_loss(self):
        spec = ModelSpec(widths=(2, 5, 2), use_bn=(False,), init_seed=0)
        params = init_params(spec)
        zeroed = params.with_updates(
            {name: np.zeros_like(arr) for name, arr in params.items()}
        )
        x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [-2.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        loss = batch_loss(zeroed, spec, x, y, training=True)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_shape_error_on_bad_input_width(self):
        spec = small_spec()
        with pytest.raises(ShapeError):
            forward(init_params(spec), spec, np.zeros((4, 3)), training=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_activations_raise(self):
        spec = small_spec()
        params = init_params(spec)
        huge = params.with_updates(
            {"layer0.weight": np.full_like(params["layer0.weight"], 1e308)}
        )
        with pytest.raises(NonFiniteError):
            forward(huge, spec, np.full((2, 2), 1e308), training=True)

    def test_gradients_match_finite_differences_no_bn(self):
        rng = np.random.default_rng(21)
        spec = small_spec(widths=(3, 6, 4, 2), seed=3)
        params = init_params(spec)
        x, y = random_batch(rng, spec)
        assert_grads_match(params, spec, x, y)

    def test_gradients_match_finite_differences_with_bn(self):
        rng = np.random.default_rng(22)
        spec = small_spec(use_bn=True, widths=(3, 6, 2), seed=4)
        params = init_params(spec)
        x, y = random_batch(rng, spec)
        assert_grads_match(params, spec, x, y)

    def test_gradients_match_finite_differences_mse(self):
        rng = np.random.default_rng(23)
        spec = small_spec(loss="mse", widths=(2, 4, 1), seed=5)
        params = init_params(spec)
        x, y = random_batch(rng, spec)
        assert_grads_match(params, spec, x, y)

    def test_duplicated_batch_leaves_loss_and_grads_unchanged(self):
        rng = np.random.default_rng(24)
        spec = small_spec(use_bn=True, widths=(2, 5, 3), seed=6)
        params = init_params(spec)
        x, y = random_batch(rng, spec, n=6)
        _, cache = forward(params, spec, x, training=True)
        loss1 = batch_loss(params, spec, x, y)
        grads1 = backward(params, spec, (x, y), cache)
        x2, y2 = np.concatenate([x, x]), np.concatenate([y, y])
        _, cache2 = forward(params, spec, x2, training=True)
        loss2 = batch_loss(params, spec, x2, y2)
        grads2 = backward(params, spec, (x2, y2), cache2)
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        for name, g in grads1.items():
            np.testing.assert_allclose(grads2[name], g, rtol=1e-10, atol=1e-14)

    def test_running_stats_get_zero_gradients(self):
        rng = np.random.default_rng(25)
        spec = small_spec(use_bn=True, widths=(2, 4, 2), seed=7)
        params = init_params(spec)
        x, y = random_batch(rng, spec)
        _, cache = forward(params, spec, x, training=True)
        grads = backward(params, spec, (x, y), cache)
        assert not grads["layer0.bn_running_mean"].any()
        assert not grads["layer0.bn_running_var"].any()

    def test_training_forward_updates_running_stats_via_momentum(self):
        rng = np.random.default_rng(26)
        spec = small_spec(use_bn=True, widths=(2, 4, 2), seed=8)
        params = init_params(spec)
        x, _ = random_batch(rng, spec, n=16)
        _, cache = forward(params, spec, x, training=True)
        z = x @ params["layer0.weight"] + params["layer0.bias"]
        expected_mean = 0.9 * 0.0 + 0.1 * z.mean(axis=0)
        np.testing.assert_allclose(
            cache["bn_updates"]["layer0.bn_running_mean"], expected_mean, rtol=1e-12
        )


class TestRecomputeBnStats:
    def test_single_batch_equals_batch_statistics(self):
        rng = np.random.default_rng(27)
        spec = small_spec(use_bn=True, widths=(2, 5, 2), seed=9)
        params = init_params(spec)
        x = rng.normal(size=(32, 2))
        out = recompute_bn_stats(params, spec, x)
        z = x @ params["layer0.weight"] + params["layer0.bias"]
        np.testing.assert_allclose(
            out["layer0.bn_running_mean"], z.mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            out["layer0.bn_running_var"], z.var(axis=0), rtol=1e-12
        )

    def test_duplication_invariance(self):
        rng = np.random.default_rng(28)
        spec = small_spec(use_bn=True, widths=(3, 4, 2), seed=10)
        params = init_params(spec)
        x = rng.normal(size=(300, 3))
        once = recompute_bn_stats(params, spec, x)
        twice = recompute_bn_stats(params, spec, np.concatenate([x, x]))
        for name in ("layer0.bn_running_mean", "layer0.bn_running_var"):
            np.testing.assert_allclose(twice[name], once[name], rtol=1e-12)

    def test_two_pass_oracle_on_first_layer(self):
        rng = np.random.default_rng(29)
        spec = small_spec(use_bn=True, widths=(4, 8, 3), seed=11)
        params = init_params(spec)
        x = rng.normal(size=(512, 4))
        out = recompute_bn_stats(params, spec, x)
        # independent two-pass mean/variance on first-layer pre-activations
        z = x @ params["layer0.weight"] + params["layer0.bias"]
        mean = z.sum(axis=0) / len(z)
        var = ((z - mean) ** 2).sum(axis=0) / len(z)
        np.testing.assert_allclose(out["layer0.bn_running_mean"], mean, rtol=1e-6)
        np.testing.assert_allclose(out["layer0.bn_running_var"], var, rtol=1e-6)

    def test_later_layers_use_fresh_earlier_statistics(self):
        rng = np.random.default_rng(30)
        spec = ModelSpec(widths=(2, 4, 4, 2), use_bn=(True, True), init_seed=12)
        params = init_params(spec)
        x = rng.normal(size=(64, 2))
        out = recompute_bn_stats(params, spec, x)
        # second layer's oracle: feed activations normalized by layer0's new stats
        z0 = x @ params["layer0.weight"] + params["layer0.bias"]
        inv0 = 1.0 / np.sqrt(out["layer0.bn_running_var"] + BN_EPS)
        h0 = np.maximum(
            params["layer0.bn_gamma"] * (z0 - out["layer0.bn_running_mean"]) * inv0
            + params["layer0.bn_beta"],
            0.0,
        )
        z1 = h0 @ params["layer1.weight"] + params["layer1.bias"]
        np.testing.assert_allclose(
            out["layer1.bn_running_mean"], z1.mean(axis=0), rtol=1e-10
        )

    def test_non_bn_entries_bitwise_unchanged(self):
        rng = np.random.default_rng(31)
        spec = small_spec(use_bn=True, widths=(2, 4, 2), seed=13)
        params = init_params(spec)
        out = recompute_bn_stats(params, spec, rng.normal(size=(20, 2)))
        for name, arr in params.items():
            if not is_running_stat(name):
                assert out[name].tobytes() == arr.tobytes()

    def test_no_bn_model_is_identity(self):
        spec = small_spec(use_bn=False)
        params = init_params(spec)
        assert recompute_bn_stats(params, spec, np.zeros((4, 2))) is params

    def test_empty_dataset_rejected(self):
        spec = small_spec(use_bn=True)
        with pytest.raises(EmptyDataError):
            recompute_bn_stats(init_params(spec), spec, np.zeros((0, 2)))

    def test_train_inference_consistency_on_single_batch(self):
        rng = np.random.default_rng(32)
        spec = small_spec(use_bn=True, widths=(3, 6, 2), seed=14)
        params = init_params(spec)
        x = rng.normal(size=(40, 3))
        refreshed = recompute_bn_stats(params, spec, x)
        train_out, _ = forward(refreshed, spec, x, training=True)
        infer_out, _ = forward(refreshed, spec, x, training=False)
        np.testing.assert_allclose(infer_out, train_out, atol=1e-8)

    def test_copy_bn_stats(self):
        spec = small_spec(use_bn=True, widths=(2, 4, 2), seed=15)
        a = init_params(spec)
        b = a.with_updates(
            {
                "layer0.bn_running_mean": np.full(4, 2.5),
                "layer0.bn_running_var": np.full(4, 0.25),
            }
        )
        out = copy_bn_stats(a, b)
        np.testing.assert_array_equal(out["layer0.bn_running_mean"], 2.5)
        assert out["layer0.weight"].tobytes() == a["layer0.weight"].tobytes()


class TestEvaluate:
    def test_zero_weight_accuracy_is_class0_frequency(self):
        spec = ModelSpec(widths=(2, 3, 2), use_bn=(False,), init_seed=0)
        params = init_params(spec)
        zeroed = params.with_updates(
            {name: np.zeros_like(arr) for name, arr in params.items()}
        )
        x = np.random.default_rng(33).normal(size=(10, 2))
        y = np.array([0, 0, 0, 1, 1, 1, 1, 0, 1, 1])
        loss, acc = evaluate(zeroed, spec, x, y)
        assert acc == pytest.approx(0.4)  # ties resolve to class 0
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_batch_size_invariant(self):
        rng = np.random.default_rng(34)
        spec = small_spec(widths=(2, 8, 3), seed=16)
        params = init_params(spec)
        x = rng.normal(size=(100, 2))
        y = rng.integers(0, 3, size=100)
        full = evaluate(params, spec, x, y)
        chunked = evaluate(params, spec, x, y, batch_size=32)
        assert chunked[0] == pytest.approx(full[0], abs=1e-10)
        assert chunked[1] == full[1]

    def test_memorized_set_reaches_perfect_accuracy(self):
        from lawa.optim import Adam

        ds = make_spirals(seed=6, n_per_class=20, noise=0.0)
        spec = ModelSpec(widths=(2, 32, 32, 2), use_bn=(False, False), init_seed=6)
        params = init_params(spec)
        opt = Adam()
        x, y = ds.train()
        for _ in range(400):
            _, cache = forward(params, spec, x, training=True)
            grads = backward(params, spec, (x, y), cache)
            params = opt.step(params, grads, 0.01)
        _, acc = evaluate(params, spec, x, y)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        spec = small_spec()
        with pytest.raises(EmptyDataError):
            evaluate(init_params(spec), spec, np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, batch_size):
        spec = small_spec()
        x, y = np.zeros((4, 2)), np.zeros(4, int)
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(init_params(spec), spec, x, y, batch_size=batch_size)

    @pytest.mark.parametrize("labels", [[0, 1, 2, -1, -3], [0, 1, 2, 3, 0]])
    def test_out_of_range_class_labels_rejected(self, labels):
        spec = small_spec(widths=(2, 5, 3))
        x = np.random.default_rng(36).normal(size=(5, 2))
        with pytest.raises(ShapeError, match=r"\[0, 3\)"):
            evaluate(init_params(spec), spec, x, np.array(labels))

    def test_regression_accuracy_is_nan(self):
        spec = small_spec(loss="mse", widths=(2, 3, 1))
        params = init_params(spec)
        loss, acc = evaluate(params, spec, np.zeros((4, 2)), np.zeros(4))
        assert math.isnan(acc)
        assert loss >= 0.0


class TestInferenceForward:
    @pytest.mark.parametrize("use_bn", [False, True])
    def test_keeps_no_activations_for_backward(self, use_bn):
        rng = np.random.default_rng(31)
        spec = small_spec(use_bn=use_bn, widths=(2, 5, 4, 3))
        x, _ = random_batch(rng, spec)
        outputs, cache = forward(init_params(spec), spec, x, training=False)
        assert cache["layers"] == []
        assert cache["last_input"] is None
        assert cache["outputs"] is outputs


def two_pass_recompute(params, spec, x):
    """``recompute_bn_stats`` as it was before the one-product version:
    statistics from the products of 256-row blocks, a last block of fewer
    than 8 rows joining the one before it, summed 256 rows at a time;
    activations from a second, whole product; and every hidden layer
    computed."""
    x = np.asarray(x).astype(spec.np_dtype, copy=False)
    updates = {}
    h = x
    starts = list(range(0, len(x), 256))
    if len(starts) > 1 and len(x) - starts[-1] < 8:
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [len(x)]))
    for i in range(spec.n_hidden):
        w = params[f"layer{i}.weight"]
        b = params[f"layer{i}.bias"]
        if spec.use_bn[i]:
            width = spec.widths[i + 1]
            total = np.zeros(width, dtype=np.float64)
            total_sq = np.zeros(width, dtype=np.float64)
            count = 0
            for start, stop in blocks:
                block = h[start:stop] @ w + b
                for chunk in range(0, len(block), 256):
                    z = block[chunk : chunk + 256]
                    total += z.sum(axis=0, dtype=np.float64)
                    total_sq += (z * z).sum(axis=0, dtype=np.float64)
                    count += len(z)
            mean = total / count
            var = np.maximum(total_sq / count - mean * mean, 0.0)
            updates[f"layer{i}.bn_running_mean"] = mean.astype(spec.np_dtype)
            updates[f"layer{i}.bn_running_var"] = var.astype(spec.np_dtype)
            inv = 1.0 / np.sqrt(var.astype(spec.np_dtype) + BN_EPS)
            zhat = (h @ w + b - mean.astype(spec.np_dtype)) * inv
            pre = params[f"layer{i}.bn_gamma"] * zhat + params[f"layer{i}.bn_beta"]
        else:
            pre = h @ w + b
        h = np.maximum(pre, 0.0)
    return params.with_updates(updates)


def out_of_place_evaluate(params, spec, x, labels):
    """One inference forward over the whole batch, each step a fresh
    array, then the cross-entropy reduction of ``evaluate``."""
    h = x.astype(spec.np_dtype, copy=False)
    for i in range(spec.n_hidden):
        z = h @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
        if spec.use_bn[i]:
            inv = 1.0 / np.sqrt(params[f"layer{i}.bn_running_var"] + BN_EPS)
            zhat = (z - params[f"layer{i}.bn_running_mean"]) * inv
            z = params[f"layer{i}.bn_gamma"] * zhat + params[f"layer{i}.bn_beta"]
        h = np.maximum(z, 0.0)
    outputs = h @ params[f"layer{spec.n_hidden}.weight"] + params[f"layer{spec.n_hidden}.bias"]
    shifted = outputs - outputs.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    per_sample = log_z - shifted[np.arange(len(x)), labels]
    loss = float(per_sample.sum(dtype=np.float64)) / len(x)
    return loss, int((outputs.argmax(axis=1) == labels).sum()) / len(x)


def perturbed_bn_params(spec, seed):
    """Initial parameters with gamma and beta moved off 1 and 0, so that a
    reordered normalization cannot hide behind an identity."""
    rng = np.random.default_rng(seed)
    params = init_params(spec)
    return params.with_updates(
        {
            name: (arr + 0.3 * rng.normal(size=arr.shape)).astype(arr.dtype)
            for name, arr in params.items()
            if name.endswith(("bn_gamma", "bn_beta"))
        }
    )


class TestBnFixUpOfAnAverage:
    """Recompute and copy write a fresh uniform average in place and leave
    every other set, such as a running fold's state, as it was."""

    SPEC = ModelSpec(widths=(2, 16, 12, 2), use_bn=(True, True), init_seed=5)

    def trajectory(self, dtype, n=4):
        """Checkpoints whose running statistics differ from each other too,
        so that a copy of the newest ones changes an average."""
        spec = replace(self.SPEC, dtype=dtype)
        rng = np.random.default_rng(19)
        ckpts = []
        for e in range(n):
            params = perturbed_bn_params(spec, seed=20 + e)
            stats = {
                name: (arr + rng.uniform(0.1, 0.5, size=arr.shape)).astype(arr.dtype)
                for name, arr in params.items()
                if is_running_stat(name)
            }
            ckpts.append(Checkpoint(params.with_updates(stats), e, e))
        return spec, ckpts

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("mode", ["auto", "copy"])
    def test_a_uniform_average_is_fixed_up_in_place_with_the_same_bits(self, mode, dtype):
        spec, ckpts = self.trajectory(dtype)
        newest = ckpts[-1].params
        x = np.random.default_rng(21).normal(size=(300, 2))
        average = averaging.uniform_average(ckpts)
        want = apply_bn_mode(average.with_flat(average.flat.copy()), spec, mode, newest, x)
        buffer = average.buffer
        fixed = apply_bn_mode(average, spec, mode, newest, x)
        assert fixed is average and fixed.buffer is buffer
        assert fixed.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("kind", ["ema", "polyak"])
    @pytest.mark.parametrize("mode", ["auto", "copy"])
    def test_a_running_fold_state_is_unchanged(self, mode, kind, dtype):
        spec, ckpts = self.trajectory(dtype)
        x = np.random.default_rng(22).normal(size=(300, 2))
        scheme = averaging.make_scheme(kind, alpha=0.6)
        for ckpt in ckpts:
            average = scheme.observe(ckpt)
        state = scheme._state.tobytes()
        want = apply_bn_mode(average.with_flat(average.flat.copy()), spec, mode, ckpts[-1].params, x)
        fixed = apply_bn_mode(average, spec, mode, ckpts[-1].params, x)
        # The average is fresh, so the fix-up writes it in place; the fold's
        # state is another buffer.
        assert fixed is average and fixed.flat.tobytes() == want.flat.tobytes()
        assert scheme._state.tobytes() == state
        assert fixed.flat.tobytes() != scheme._state.astype(fixed.dtype).tobytes()


GUARD_SHAPES = [
    pytest.param(dtype, hidden, use_bn, n, id=f"{dtype}-{hidden}-{''.join('TF'[not f] for f in use_bn)}-{n}")
    for dtype in ("f32", "f64")
    for hidden in (512, 64)
    for use_bn in ((True, True), (True, False), (False, True))
    for n in (1, 255, 263, 264, 1600, 1601)
]


class TestInferencePathIsBitwiseTheOutOfPlacePath:
    @pytest.mark.parametrize("dtype,hidden,use_bn,n", GUARD_SHAPES)
    def test_recompute_bn_stats(self, dtype, hidden, use_bn, n):
        spec = ModelSpec(widths=(2, hidden, hidden, 2), use_bn=use_bn, init_seed=5, dtype=dtype)
        params = perturbed_bn_params(spec, seed=n)
        x = np.random.default_rng(n).normal(size=(n, 2))
        got = recompute_bn_stats(params, spec, x)
        want = two_pass_recompute(params, spec, x)
        for name in params.names:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("dtype,hidden,use_bn,n", GUARD_SHAPES)
    def test_evaluate(self, dtype, hidden, use_bn, n):
        spec = ModelSpec(widths=(2, hidden, hidden, 2), use_bn=use_bn, init_seed=6, dtype=dtype)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        params = two_pass_recompute(perturbed_bn_params(spec, seed=n), spec, x)
        assert evaluate(params, spec, x, y) == out_of_place_evaluate(params, spec, x, y)

    # 519 rows end in a block of 263 rows, whose last 7 rows OpenBLAS gives
    # other bits through a 512x256 weight as a product of their own.
    @pytest.mark.parametrize("n", [519, 1024, 1600])
    @pytest.mark.parametrize(
        "hidden,use_bn",
        [
            # Two or three layers wait in turn for their statistics.
            ((512, 512, 512), (True, True, True)),
            ((512, 512, 512, 512), (True, True, True, True)),
            # Layers of other widths than their inputs.
            ((384, 512, 256, 512), (True, True, True, True)),
            # A segment of two layers, the first with no batch norm.
            ((512, 512, 512, 512), (True, True, False, True)),
        ],
        ids=["3x512", "4x512", "mixed", "two-layer-segment"],
    )
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_recompute_bn_stats_of_a_deep_model(self, dtype, hidden, use_bn, n):
        spec = ModelSpec(widths=(2, *hidden, 2), use_bn=use_bn, init_seed=5, dtype=dtype)
        assert len(engine._row_blocks(spec, n)) > 1
        params = perturbed_bn_params(spec, seed=n)
        x = np.random.default_rng(n).normal(size=(n, 2))
        got = recompute_bn_stats(params, spec, x, buffers=InferenceBuffers())
        want = two_pass_recompute(params, spec, x)
        for name in params.names:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("use_bn", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_one_wide_hidden_layer_in_row_blocks(self, dtype, use_bn):
        """An evaluation in row blocks whose one hidden layer is held at
        full height, so its plan gives the areas no room."""
        spec = ModelSpec(widths=(2, 4096, 2), use_bn=(use_bn,), init_seed=8, dtype=dtype)
        n = 1024
        assert len(engine._row_blocks(spec, n)) > 1
        assert engine._walk_plan(spec, n, False).sizes[2:] == (0, 0)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        params = perturbed_bn_params(spec, seed=n)
        buffers = InferenceBuffers()
        if use_bn:
            got = recompute_bn_stats(params, spec, x, buffers=buffers)
            want = two_pass_recompute(params, spec, x)
            for name in params.names:
                assert np.array_equal(got[name], want[name]), name
            params = want
        got = evaluate(params, spec, x, y, buffers=buffers)
        assert got == out_of_place_evaluate(params, spec, x, y)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("use_bn", [False, True])
    def test_forward_leaves_its_input_unmodified(self, dtype, use_bn):
        spec = small_spec(use_bn=use_bn, widths=(2, 6, 6, 3))
        spec = replace(spec, dtype=dtype)
        x = np.random.default_rng(35).normal(size=(40, 2)).astype(spec.np_dtype)
        before = x.copy()
        forward(perturbed_bn_params(spec, seed=35), spec, x, training=False)
        assert np.array_equal(x, before)


class TestInferenceBuffers:
    SPEC = ModelSpec(widths=(2, 64, 48, 2), use_bn=(True, True), init_seed=7)

    def data(self, n):
        rng = np.random.default_rng(n)
        return rng.normal(size=(n, 2)), rng.integers(0, 2, size=n)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("sizes", [(1600, 400, 255), (255, 400, 1600)])
    def test_shared_buffers_give_the_fresh_buffer_results(self, dtype, sizes):
        spec = replace(self.SPEC, dtype=dtype)
        params = perturbed_bn_params(spec, seed=8)
        buffers = InferenceBuffers()
        for n in sizes:
            x, y = self.data(n)
            shared = recompute_bn_stats(params, spec, x, buffers=buffers)
            assert shared == recompute_bn_stats(params, spec, x)
            got = evaluate(shared, spec, x, y, buffers=buffers)
            assert got == evaluate(shared, spec, x, y)
            assert evaluate(shared, spec, x, y, batch_size=100, buffers=buffers) == evaluate(
                shared, spec, x, y, batch_size=100
            )

    def test_one_object_serves_both_dtypes(self):
        buffers = InferenceBuffers()
        x, y = self.data(400)
        for dtype in ("f64", "f32", "f64"):
            spec = replace(self.SPEC, dtype=dtype)
            params = recompute_bn_stats(perturbed_bn_params(spec, seed=10), spec, x)
            assert evaluate(params, spec, x, y, buffers=buffers) == evaluate(params, spec, x, y)

    def test_nothing_returned_shares_memory_with_the_buffers(self):
        spec = self.SPEC
        params = perturbed_bn_params(spec, seed=9)
        x, _ = self.data(1600)
        buffers = InferenceBuffers()
        returned = [
            recompute_bn_stats(params, spec, x, buffers=buffers).flat,
            apply_bn_mode(params, spec, "recompute", params, x, buffers=buffers).flat,
            forward(params, spec, x, training=False, buffers=buffers)[0],
            forward(params, spec, x[:400], training=False, buffers=buffers)[0],
        ]
        held = [a for a in (*buffers.full, *buffers.areas) if a.size]
        assert held
        for k, a in enumerate(held):
            assert not any(np.shares_memory(a, b) for b in held[k + 1 :])
        for arr in returned:
            for a in held:
                assert not np.shares_memory(arr, a)

    @pytest.mark.parametrize(
        "extra",
        [
            {},
            dict(use_bn=True, optimizer="lookahead", lookahead_inner="adam", lr=0.01),
        ],
        ids=["sgd", "bn-lookahead-adam"],
    )
    def test_train_run_releases_its_buffers(self, tmp_path, extra):
        # 1600 training rows at width 64: the pair of buffers holds 1.6 MB,
        # and the training rows of a 400-row batch 1.2 MB with batch norm.
        cfg = tiny_cfg(
            tmp_path, n_per_class=1000, hidden=(64,), epochs=1, batch_size=400, **extra
        )
        records, _, retained = traced(train_run, cfg)
        assert len(records) == 1
        assert retained < 256 * 1024


def per_entry_backward(params, spec, labels, cache):
    """``backward`` as it was before gradients were built in one flat
    buffer: cross-entropy with ``exp(shifted)`` taken twice, a per-entry
    dict, the input gradient of layer 0, ``astype(copy=False)`` and then
    ``ParameterSet(...)``."""
    outputs = cache["outputs"]
    n = outputs.shape[0]
    shifted = outputs - outputs.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    per_sample = log_z - shifted[np.arange(n), labels]
    loss = float(per_sample.mean())
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), labels] -= 1.0
    d_out = probs / n

    grads = {}
    i_out = spec.n_hidden
    grads[f"layer{i_out}.weight"] = cache["last_input"].T @ d_out
    grads[f"layer{i_out}.bias"] = d_out.sum(axis=0)
    d_h = d_out @ params[f"layer{i_out}.weight"].T
    for i in range(spec.n_hidden - 1, -1, -1):
        layer = cache["layers"][i]
        d_pre = d_h * (layer["pre_relu"] > 0.0)
        if spec.use_bn[i]:
            zhat, inv = layer["bn"]
            gamma = params[f"layer{i}.bn_gamma"]
            grads[f"layer{i}.bn_gamma"] = (d_pre * zhat).sum(axis=0)
            grads[f"layer{i}.bn_beta"] = d_pre.sum(axis=0)
            grads[f"layer{i}.bn_running_mean"] = np.zeros_like(gamma)
            grads[f"layer{i}.bn_running_var"] = np.zeros_like(gamma)
            d_zhat = d_pre * gamma
            d_z = inv * (
                d_zhat - d_zhat.mean(axis=0) - zhat * (d_zhat * zhat).mean(axis=0)
            )
        else:
            d_z = d_pre
        grads[f"layer{i}.weight"] = layer["input"].T @ d_z
        grads[f"layer{i}.bias"] = d_z.sum(axis=0)
        d_h = d_z @ params[f"layer{i}.weight"].T
    ordered = [(name, grads[name].astype(spec.np_dtype, copy=False)) for name in params.names]
    return loss, ParameterSet(ordered)


class TestBackwardIsBitwiseThePerEntryPath:
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("hidden", [64, 512])
    @pytest.mark.parametrize("use_bn", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gradients(self, dtype, use_bn, hidden, batch):
        spec = ModelSpec(
            widths=(2, hidden, hidden, 2), use_bn=(use_bn, use_bn), init_seed=11, dtype=dtype
        )
        params = perturbed_bn_params(spec, seed=batch)
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 2))
        y = rng.integers(0, 2, size=batch)
        _, cache = forward(params, spec, x, training=True)
        got = backward(params, spec, (x, y), cache)
        want_loss, want = per_entry_backward(params, spec, y, cache)
        assert batch_loss(params, spec, x, y, training=True) == want_loss
        assert got.names == want.names and got.dtype == want.dtype == spec.np_dtype
        for name in want.names:
            assert np.array_equal(got[name], want[name]), name


def out_of_place_training_forward(params, spec, x):
    """Training-mode ``forward`` as out-of-place expressions: each batch-norm
    layer takes ``z.var`` and ``(z - mu) * inv`` apart."""
    h = x.astype(spec.np_dtype, copy=False)
    layers, bn_updates = [], {}
    for i in range(spec.n_hidden):
        z = h @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
        bn = None
        pre = z
        if spec.use_bn[i]:
            mu, var = z.mean(axis=0), z.var(axis=0)
            m = BN_MOMENTUM
            for stat, value in (("mean", mu), ("var", var)):
                name = f"layer{i}.bn_running_{stat}"
                bn_updates[name] = ((1.0 - m) * params[name] + m * value).astype(spec.np_dtype)
            inv = 1.0 / np.sqrt(var + BN_EPS)
            zhat = (z - mu) * inv
            pre = params[f"layer{i}.bn_gamma"] * zhat + params[f"layer{i}.bn_beta"]
            bn = (zhat, inv)
        layers.append({"input": h, "bn": bn, "pre_relu": pre})
        h = np.maximum(pre, 0.0)
    outputs = h @ params[f"layer{spec.n_hidden}.weight"] + params[f"layer{spec.n_hidden}.bias"]
    return {"layers": layers, "last_input": h, "outputs": outputs, "bn_updates": bn_updates}


class TestTrainingBatchNormIsBitwiseTheOutOfPlacePath:
    @pytest.mark.parametrize("batch,width", [(1, 7), (5, 64), (64, 512), (33, 100)])
    @pytest.mark.parametrize("use_bn", [(True, True), (True, False)])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_forward_cache_and_gradients(self, dtype, use_bn, batch, width):
        spec = ModelSpec(widths=(3, width, width, 4), use_bn=use_bn, init_seed=5, dtype=dtype)
        params = perturbed_bn_params(spec, seed=width)
        params = params.with_updates(
            {n: np.abs(a) + 0.5 for n, a in params.items() if n.endswith("bn_running_var")}
        )
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 3))
        y = rng.integers(0, 4, size=batch)
        _, cache = forward(params, spec, x, training=True)
        want = out_of_place_training_forward(params, spec, x)
        for got_layer, want_layer in zip(cache["layers"], want["layers"], strict=True):
            assert np.array_equal(got_layer["input"], want_layer["input"])
            assert np.array_equal(got_layer["pre_relu"], want_layer["pre_relu"])
            if want_layer["bn"] is None:
                assert got_layer["bn"] is None
                continue
            for got_arr, want_arr in zip(got_layer["bn"], want_layer["bn"], strict=True):
                assert got_arr.dtype == want_arr.dtype == spec.np_dtype
                assert np.array_equal(got_arr, want_arr)
        for key in ("last_input", "outputs"):
            assert np.array_equal(cache[key], want[key]), key
        assert cache["bn_updates"].keys() == want["bn_updates"].keys()
        for name, value in want["bn_updates"].items():
            assert np.array_equal(cache["bn_updates"][name], value), name
        grads = backward(params, spec, (x, y), cache)
        want_loss, want_grads = per_entry_backward(params, spec, y, want)
        assert batch_loss(params, spec, x, y, training=True) == want_loss
        for name in want_grads.names:
            assert np.array_equal(grads[name], want_grads[name]), name


class TestSquaredErrorIsBitwiseTheWholeBatchMean:
    """A width-1 squared-error loss reduced per row first, as ``evaluate``,
    ``backward`` and ``batch_loss`` share it, gives the bits of the mean
    over the whole ``diff * diff`` array."""

    @pytest.mark.parametrize("n", [1, 7, 64, 333, 1600, 4097])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_evaluate_and_backward(self, dtype, n):
        spec = ModelSpec(widths=(2, 16, 1), use_bn=(False,), loss="mse", init_seed=12, dtype=dtype)
        params = init_params(spec)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        targets = rng.normal(size=n)
        column = targets.astype(spec.np_dtype)[:, None]

        outputs, _ = forward(params, spec, x, training=False)
        diff = outputs - column
        loss, _ = evaluate(params, spec, x, targets)
        assert loss == float((diff * diff).mean(axis=1).sum(dtype=np.float64)) / n

        _, cache = forward(params, spec, x, training=True)
        diff = cache["outputs"] - column
        d_out = 2 * diff / diff.size
        d_z = (d_out @ params["layer1.weight"].T) * (cache["layers"][0]["pre_relu"] > 0.0)
        want = {
            "layer0.weight": cache["layers"][0]["input"].T @ d_z,
            "layer0.bias": d_z.sum(axis=0),
            "layer1.weight": cache["last_input"].T @ d_out,
            "layer1.bias": d_out.sum(axis=0),
        }
        grads = backward(params, spec, (x, targets), cache)
        assert batch_loss(params, spec, x, targets, training=True) == float(np.mean(diff * diff))
        assert list(want) == list(grads.names)
        for name, value in want.items():
            assert np.array_equal(grads[name], value), name


def tiny_cfg(tmp_path, **overrides) -> RunConfig:
    base = dict(
        dataset="spirals",
        n_per_class=40,
        classes=2,
        noise=0.15,
        hidden=(8,),
        epochs=6,
        batch_size=16,
        lr=0.1,
        seed=3,
        scheme="uniform",
        k=3,
        out=str(tmp_path / "run"),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestTrainRun:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_each_step_writes_the_forward_pass_running_statistics(self, tmp_path, dtype):
        cfg = tiny_cfg(
            tmp_path, hidden=(8, 6), use_bn=True, dtype=dtype, epochs=2, scheme="none",
            optimizer="lookahead", lookahead_inner="adam", lookahead_k=3, lr=0.01,
        )
        train_run(cfg)
        dataset = build_dataset(cfg)
        spec = engine.model_spec_for(cfg, dataset)
        x, y = dataset.train()
        steps = len(x) // cfg.batch_size
        opt = make_optimizer("lookahead", lookahead_inner="adam", lookahead_k=3)
        schedule = optim.make_schedule(cfg.schedule, cfg.lr, cfg.epochs * steps)
        params, t = init_params(spec), 0
        for epoch in range(cfg.epochs):
            order = engine.rng_for(cfg.seed, f"shuffle:{epoch}").permutation(len(x))
            for b in range(steps):
                sel = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                _, cache = forward(params, spec, x[sel], training=True)
                grads = backward(params, spec, (x[sel], y[sel]), cache)
                params = opt.step(params, grads, schedule.lr_at(t)).with_updates(cache["bn_updates"])
                t += 1
            saved = read_checkpoint(engine.checkpoint_path(Path(cfg.out), epoch)).params
            assert saved.flat.tobytes() == params.flat.tobytes(), epoch

    def test_a_model_of_one_wide_hidden_layer_evaluates_in_row_blocks(self, tmp_path):
        """Each epoch end evaluates the training split of a one-hidden-layer
        model in row blocks, as an out-of-place pass over its checkpoint."""
        cfg = tiny_cfg(tmp_path, n_per_class=640, hidden=(4096,), epochs=2, batch_size=64)
        records = train_run(cfg)
        dataset = build_dataset(cfg)
        spec = engine.model_spec_for(cfg, dataset)
        x, y = dataset.train()
        assert len(engine._row_blocks(spec, len(x))) > 1
        for epoch, record in enumerate(records):
            saved = read_checkpoint(engine.checkpoint_path(Path(cfg.out), epoch)).params
            want = out_of_place_evaluate(saved, spec, x, y)
            assert (record.train_loss, record.train_acc) == want, epoch

    def test_an_f32_step_reads_no_old_input_rows(self, tmp_path, monkeypatch):
        """Input batch rows that start as a signalling NaN change no bit of
        an f32 run and raise no cast warning: a step writes them without
        reading them."""
        build = TrainingBuffers.__init__

        def poisoned(self, *args, **kwargs):
            build(self, *args, **kwargs)
            self.input.view(np.uint32)[...] = 0x7FA00000

        runs = {}
        for name in ("clean", "poisoned"):
            if name == "poisoned":
                monkeypatch.setattr(TrainingBuffers, "__init__", poisoned)
            cfg = tiny_cfg(tmp_path / name, dtype="f32", epochs=2)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                train_run(cfg)
            files = sorted(Path(cfg.out).glob("*.lawa"))
            runs[name] = {p.name: p.read_bytes() for p in files}
        assert len(runs["clean"]) == 2 and runs["poisoned"] == runs["clean"]

    def test_scheme_none_leaves_avg_columns_empty(self, tmp_path):
        cfg = tiny_cfg(tmp_path, scheme="none")
        records = train_run(cfg)
        assert len(records) == cfg.epochs
        assert all(r.avg_val_loss is None and r.avg_val_acc is None for r in records)

    def test_k1_average_equals_raw_model(self, tmp_path):
        cfg = tiny_cfg(tmp_path, scheme="uniform", k=1)
        records = train_run(cfg)
        for r in records:
            assert r.avg_val_loss == pytest.approx(r.val_loss, abs=1e-10)
            assert r.avg_val_acc == pytest.approx(r.val_acc, abs=1e-10)

    def test_hook_timing_no_average_before_k_minus_1(self, tmp_path):
        cfg = tiny_cfg(tmp_path, scheme="uniform", k=4, epochs=7)
        records = train_run(cfg)
        for r in records:
            if r.epoch < cfg.k - 1:
                assert r.avg_val_loss is None
            else:
                assert r.avg_val_loss is not None

    def test_repeated_runs_are_byte_identical_modulo_wall(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path, out=str(tmp_path / "a"))
        cfg_b = tiny_cfg(tmp_path, out=str(tmp_path / "b"))
        train_run(cfg_a)
        train_run(cfg_b)

        def strip_wall(path):
            lines = path.read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_wall(tmp_path / "a" / "metrics.csv") == strip_wall(
            tmp_path / "b" / "metrics.csv"
        )
        for f in sorted((tmp_path / "a").glob("*.lawa")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_checkpoint_files_match_epochs(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=5)
        train_run(cfg)
        out = tmp_path / "run"
        names = sorted(p.name for p in out.glob("ckpt_*.lawa"))
        assert names == [f"ckpt_e{e:05d}.lawa" for e in range(5)]
        ck = read_checkpoint(out / "ckpt_e00003.lawa")
        assert ck.epoch == 3
        assert ck.step == 4 * (32 // 16) * 2  # 64 train samples, batch 16 -> 4 steps

    def test_save_averaged_writes_post_gate_files(self, tmp_path):
        cfg = tiny_cfg(tmp_path, k=3, epochs=5, save_averaged=True)
        train_run(cfg)
        names = sorted(p.name for p in (tmp_path / "run").glob("lawa_*.lawa"))
        assert names == [f"lawa_e{e:05d}.lawa" for e in range(2, 5)]

    def test_step_interval_saving_creates_slot_checkpoints(self, tmp_path):
        # 64 train samples / batch 16 = 4 steps per epoch; save every 2 steps
        cfg = tiny_cfg(tmp_path, epochs=3, save_every_steps=2, k=3)
        records = train_run(cfg)
        out = tmp_path / "run"
        slots = sorted(p.name for p in out.glob("ckpt_*.lawa"))
        assert slots == [f"ckpt_e{s:05d}.lawa" for s in range(6)]
        saved = read_checkpoint(out / "ckpt_e00004.lawa")
        assert saved.step == 10  # fifth save event, every 2 steps
        # k=3 slots fill mid-epoch-1: averaged metrics exist from epoch 1 on
        assert records[0].avg_val_loss is None
        assert records[1].avg_val_loss is not None

    def test_save_every_steps_per_epoch_equals_epoch_mode(self, tmp_path):
        # 64 train samples / batch 16 = 4 steps per epoch
        common = dict(use_bn=True, epochs=4, save_averaged=True)
        train_run(tiny_cfg(tmp_path, out=str(tmp_path / "epochs"), **common))
        train_run(
            tiny_cfg(tmp_path, out=str(tmp_path / "steps"), save_every_steps=4, **common)
        )

        def strip_wall(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert strip_wall(tmp_path / "epochs" / "metrics.csv") == strip_wall(
            tmp_path / "steps" / "metrics.csv"
        )
        names = sorted(p.name for p in (tmp_path / "epochs").glob("*.lawa"))
        assert names == sorted(p.name for p in (tmp_path / "steps").glob("*.lawa"))
        assert len(names) == 4 + 2  # every epoch's checkpoint, averages from k=3 on
        for name in names:
            assert (tmp_path / "epochs" / name).read_bytes() == (
                tmp_path / "steps" / name
            ).read_bytes(), name

    def test_batch_size_larger_than_split_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path, batch_size=512)
        with pytest.raises(ConfigError):
            train_run(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_epoch(self, tmp_path):
        cfg = tiny_cfg(tmp_path, lr=1e120, schedule="constant")
        with pytest.raises(NonFiniteError, match="epoch 0"):
            train_run(cfg)
        # partial outputs are retained
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_polyak_and_ema_average_from_first_epoch(self, tmp_path):
        for scheme in ("polyak", "ema"):
            cfg = tiny_cfg(tmp_path, scheme=scheme, out=str(tmp_path / scheme))
            records = train_run(cfg)
            assert all(r.avg_val_loss is not None for r in records)

    def test_bn_run_with_recompute_mode(self, tmp_path):
        cfg = tiny_cfg(tmp_path, use_bn=True, bn_mode="recompute", epochs=4)
        records = train_run(cfg)
        assert records[-1].avg_val_loss is not None

    def test_bn_copy_mode_matches_newest_checkpoint_stats(self, tmp_path):
        cfg = tiny_cfg(
            tmp_path, use_bn=True, bn_mode="copy", epochs=4, k=2, save_averaged=True
        )
        train_run(cfg)
        out = tmp_path / "run"
        newest = read_checkpoint(out / "ckpt_e00003.lawa").params
        averaged = read_checkpoint(out / "lawa_e00003.lawa").params
        for name in newest.names:
            if is_running_stat(name):
                np.testing.assert_array_equal(averaged[name], newest[name])

    def test_failed_config_replace_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / "config.resolved").write_text("old\n", encoding="utf-8")

        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(engine.os, "replace", failing)
        with pytest.raises(IoError, match="disk full"):
            train_run(tiny_cfg(tmp_path))
        assert (out / "config.resolved").read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in out.iterdir()] == ["config.resolved"]

    def test_config_is_written_whole_and_no_temp_is_left(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=1)
        train_run(cfg)
        out = tmp_path / "run"
        assert (out / "config.resolved").read_text(encoding="utf-8") == resolved_text(cfg)
        assert not list(out.glob("*.tmp"))

    def test_bn_statistics_are_set_by_the_step_not_by_a_set_copy(self, tmp_path, monkeypatch):
        calls = []
        with_updates = ParameterSet.with_updates

        def counted(self, updates):
            calls.append(sorted(updates))
            return with_updates(self, updates)

        monkeypatch.setattr(ParameterSet, "with_updates", counted)
        cfg = tiny_cfg(
            tmp_path, use_bn=True, hidden=(8, 6), optimizer="lookahead",
            lookahead_inner="adam", lr=0.01, save_averaged=True,
        )
        train_run(cfg)
        saves = len(list((tmp_path / "run").glob("ckpt_*.lawa")))
        assert saves == cfg.epochs
        assert len(calls) <= saves

    def test_build_dataset_dispatch(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("x,y,label\n" + "\n".join(f"{i},{i},{i%2}" for i in range(20)))
        cfg = tiny_cfg(tmp_path, dataset="csv", csv=str(csv_path))
        ds = build_dataset(cfg)
        assert ds.kind == "classification" and ds.n_features == 2


class TestTrainVariants:
    def test_records_equal_separate_train_runs_except_wall(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        variants = [
            dict(scheme="uniform", k=2, out=str(tmp_path / "v" / "u2")),
            dict(scheme="ema", alpha=0.5, out=str(tmp_path / "v" / "ema")),
            dict(scheme="none", out=str(tmp_path / "v" / "none")),
        ]
        shared = train_variants(cfg, variants)
        for variant, records in zip(variants, shared):
            name = Path(variant["out"]).name
            alone = train_run(replace(cfg, **{**variant, "out": str(tmp_path / "alone" / name)}))
            assert [replace(r, wall_seconds=0.0) for r in records] == [
                replace(r, wall_seconds=0.0) for r in alone
            ]

    def test_a_variant_that_sets_lr_is_refused_naming_it_before_any_write(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        variants = [dict(out=str(tmp_path / "a")), dict(lr=0.05, out=str(tmp_path / "b"))]
        with pytest.raises(ConfigError, match=r"sets lr; a variant may set only scheme, k, alpha, out"):
            train_variants(cfg, variants)
        assert not (tmp_path / "a").exists()
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("name, value", [("bn_mode", "copy"), ("save_averaged", True)])
    def test_a_variant_that_sets_bn_mode_or_save_averaged_is_refused_before_any_write(
        self, tmp_path, name, value
    ):
        """They shape no weights, but their role is the trajectory's."""
        variants = [dict(out=str(tmp_path / "a")), {name: value, "out": str(tmp_path / "b")}]
        with pytest.raises(ConfigError, match=rf"^a variant sets {name}; a variant may set only "):
            train_variants(tiny_cfg(tmp_path, epochs=1), variants)
        assert list(tmp_path.iterdir()) == []

    def test_a_variant_may_set_each_averaging_and_output_field(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=1)
        variants = [
            dict(scheme="ema"), dict(k=2), dict(alpha=0.5), dict(scheme="polyak", k=1, alpha=0.0)
        ]
        variants = [{**v, "out": str(tmp_path / f"v{i}")} for i, v in enumerate(variants)]
        assert {name for v in variants for name in v} == set(AVERAGING_FIELDS)
        assert len(train_variants(cfg, variants)) == len(variants)
        for v in variants:
            assert (Path(v["out"]) / "metrics.csv").exists()

    def test_shared_output_directory_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="output directory"):
            train_variants(tiny_cfg(tmp_path), [dict(scheme="uniform"), dict(scheme="ema")])
        assert not (tmp_path / "run").exists()

    def test_every_variant_is_validated(self, tmp_path):
        variants = [dict(out=str(tmp_path / "a")), dict(k=0, out=str(tmp_path / "b"))]
        with pytest.raises(ConfigError, match="k must be >= 1"):
            train_variants(tiny_cfg(tmp_path), variants)
        assert not (tmp_path / "a").exists()

    def test_a_variant_value_of_the_wrong_type_is_refused_naming_it_before_any_write(
        self, tmp_path
    ):
        variants = [dict(out=str(tmp_path / "a")), dict(k="3", out=str(tmp_path / "b"))]
        with pytest.raises(ConfigError, match=r"^k must be int, got str '3'$"):
            train_variants(tiny_cfg(tmp_path), variants)
        assert not (tmp_path / "a").exists()
        assert not (tmp_path / "b").exists()

    def test_no_variants_is_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            train_variants(tiny_cfg(tmp_path), [])

    def sweep_pair(self, tmp_path):
        return tiny_cfg(tmp_path), [
            dict(scheme="uniform", out=str(tmp_path / "u")),
            dict(scheme="ema", out=str(tmp_path / "e")),
        ]

    def test_variant_checkpoints_are_one_file_hard_linked(self, tmp_path):
        train_variants(*self.sweep_pair(tmp_path))
        names = sorted(p.name for p in (tmp_path / "u").glob("ckpt_*.lawa"))
        assert len(names) == 6
        for name in names:
            a, b = tmp_path / "u" / name, tmp_path / "e" / name
            assert os.stat(a).st_ino == os.stat(b).st_ino
            assert a.read_bytes() == b.read_bytes()

    def test_a_failed_link_falls_back_to_writing_the_same_bytes(self, tmp_path, monkeypatch):
        train_variants(*self.sweep_pair(tmp_path / "linked"))

        def refuse(src, dst, *args, **kwargs):
            raise OSError("links not supported")

        monkeypatch.setattr(engine.os, "link", refuse)
        train_variants(*self.sweep_pair(tmp_path / "copied"))
        for name in sorted(p.name for p in (tmp_path / "linked" / "u").glob("ckpt_*.lawa")):
            a, b = tmp_path / "copied" / "u" / name, tmp_path / "copied" / "e" / name
            assert os.stat(a).st_ino != os.stat(b).st_ino
            assert b.read_bytes() == a.read_bytes() == (tmp_path / "linked" / "e" / name).read_bytes()


def optimizer_state(opt):
    """Every counter and state array of an optimizer, Lookahead's inner
    one included."""
    state = {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in vars(opt).items()
        if name != "inner"
    }
    if isinstance(opt, Lookahead):
        state["inner"] = optimizer_state(opt.inner)
    return state


def assert_states_equal(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, dict):
            assert_states_equal(got[name], value)
        elif isinstance(value, np.ndarray):
            assert np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


OPTIMIZERS = {
    "sgd": dict(kind="sgd"),
    "adam": dict(kind="adam"),
    "lookahead-sgd": dict(kind="lookahead", lookahead_inner="sgd", lookahead_k=2),
    "lookahead-adam": dict(kind="lookahead", lookahead_inner="adam", lookahead_k=2),
}


def workspace_arrays(buffers):
    """Every array a ``TrainingBuffers`` holds."""
    rows = [arr for layer in buffers.layers for arr in layer if arr is not None]
    scratch = [] if buffers.scratch is None else [buffers.scratch]
    return [buffers.input, buffers.grads.buffer, *scratch, buffers.spare, *rows]


class TestTrainingBuffersAreBitwiseTheFreshPath:
    """Steps through one ``TrainingBuffers`` that update one parameter
    buffer in place give, bit for bit, what fresh arrays give."""

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("use_bn", [(True, True), (True, False), (False, False)])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_consecutive_steps(self, dtype, use_bn, optimizer):
        spec = ModelSpec(widths=(3, 24, 16, 4), use_bn=use_bn, init_seed=13, dtype=dtype)
        fresh = perturbed_bn_params(spec, seed=13)
        shared = fresh.over(fresh.flat.copy())
        fresh_opt = make_optimizer(**OPTIMIZERS[optimizer])
        shared_opt = make_optimizer(**OPTIMIZERS[optimizer])
        n = 37
        buffers = TrainingBuffers(shared, spec, n)
        rng = np.random.default_rng(14)
        data = rng.normal(size=(100, 3))
        for step in range(5):
            sel = rng.permutation(100)[:n]
            y = rng.integers(0, 4, size=n)
            xb = buffers.gather(data, sel)
            assert xb is buffers.input
            assert np.array_equal(xb, data[sel].astype(spec.np_dtype))

            want_out, want_cache = forward(fresh, spec, data[sel], training=True)
            got_out, got_cache = forward(shared, spec, xb, training=True, buffers=buffers)
            assert np.array_equal(got_out, want_out)
            for got_layer, want_layer in zip(got_cache["layers"], want_cache["layers"], strict=True):
                assert np.array_equal(got_layer["input"], want_layer["input"])
                assert np.array_equal(got_layer["pre_relu"], want_layer["pre_relu"])
                for got_arr, want_arr in zip(got_layer["bn"] or (), want_layer["bn"] or (), strict=True):
                    assert np.array_equal(got_arr, want_arr)
            assert got_cache["bn_updates"].keys() == want_cache["bn_updates"].keys()
            for name, value in want_cache["bn_updates"].items():
                assert np.array_equal(got_cache["bn_updates"][name], value), name

            want_grads = backward(fresh, spec, (data[sel], y), want_cache)
            got_grads = backward(shared, spec, (xb, y), got_cache, buffers=buffers)
            assert got_grads is buffers.grads
            assert got_grads.names == want_grads.names
            for name in want_grads.names:
                assert np.array_equal(got_grads[name], want_grads[name]), name

            lr = 0.05 * (step + 1)
            fresh = fresh_opt.step(fresh, want_grads, lr).with_updates(want_cache["bn_updates"])
            assert shared_opt.step(shared, got_grads, lr, out=shared) is shared
            assert set_running_stats(shared, got_cache["bn_updates"]) is shared
            assert shared.dtype == fresh.dtype == spec.np_dtype
            assert np.array_equal(shared.flat, fresh.flat)
            assert_states_equal(optimizer_state(shared_opt), optimizer_state(fresh_opt))
        assert fresh_opt.step_count == 5

    def test_a_mismatched_batch_is_refused_before_any_write(self):
        spec = ModelSpec(widths=(3, 8, 2), use_bn=(True,), init_seed=1)
        params = init_params(spec)
        buffers = TrainingBuffers(params, spec, 4)
        x, y = np.ones((5, 3)), np.zeros(5, int)
        _, cache = forward(params, spec, x, training=True)
        before = [arr.tobytes() for arr in workspace_arrays(buffers)]
        with pytest.raises(ShapeError, match="5-row batch"):
            forward(params, spec, x, training=True, buffers=buffers)
        with pytest.raises(ShapeError, match="5-row batch"):
            backward(params, spec, (x, y), cache, buffers=buffers)
        other = ModelSpec(widths=(3, 8, 2), use_bn=(False,), init_seed=1)
        with pytest.raises(ShapeError, match="4-row batch"):
            forward(init_params(other), other, x[:4], training=True, buffers=buffers)
        assert [arr.tobytes() for arr in workspace_arrays(buffers)] == before

    def test_the_layout_is_checked_on_every_use(self):
        spec = ModelSpec(widths=(3, 8, 2), use_bn=(False,), init_seed=1)
        small = init_params(spec)
        other = init_params(ModelSpec(widths=(3, 9, 2), use_bn=(False,), init_seed=1))
        buffers = TrainingBuffers(small, spec, 4)
        x, y = np.ones((4, 3)), np.zeros(4, int)
        _, cache = forward(small, spec, x, training=True, buffers=buffers)
        with pytest.raises(StructureMismatch):
            backward(other, spec, (x, y), cache, buffers=buffers)
        with pytest.raises(StructureMismatch):
            Sgd().step(small, small, 0.1, out=other.over(other.flat.copy()))

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_out_may_be_the_parameters(self, optimizer):
        spec = ModelSpec(widths=(3, 8, 2), use_bn=(False,), init_seed=1)
        params = init_params(spec)
        grads = params.with_flat(np.linspace(-1.0, 1.0, params.total_size()))
        fresh_opt = make_optimizer(**OPTIMIZERS[optimizer])
        shared_opt = make_optimizer(**OPTIMIZERS[optimizer])
        shared = params.over(params.flat.copy())
        for _ in range(3):
            params = fresh_opt.step(params, grads, 0.1)
            assert shared_opt.step(shared, grads, 0.1, out=shared) is shared
            assert np.array_equal(shared.flat, params.flat)

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_out_must_be_a_set_over_a_buffer_it_shares_with_nothing_else(self, optimizer):
        spec = ModelSpec(widths=(3, 8, 2), use_bn=(False,), init_seed=1)
        params = init_params(spec)
        size = params.total_size()
        grads = params.over(np.ones(size))
        wide = np.zeros(size + 1)
        wide[:size] = params.flat
        shared, shifted = params.over(wide[:size]), params.over(wide[1:])
        opt = make_optimizer(**OPTIMIZERS[optimizer])
        with pytest.raises(ValueError, match="ParameterSet.over"):
            opt.step(shared, grads, 0.1, out=params)
        with pytest.raises(ValueError, match="shares memory"):
            opt.step(shared, grads, 0.1, out=shifted)  # overlaps all but one element
        with pytest.raises(ValueError, match="shares memory"):
            opt.step(shared, grads, 0.1, out=grads)
        with pytest.raises(ValueError, match="shares memory"):
            opt.step(shared, shared, 0.1, out=shared)
        assert opt.step_count == 0
        assert np.array_equal(shared.flat, params.flat)

    def test_a_batch_of_another_element_type_is_cast_without_reading_the_rows(self):
        spec = ModelSpec(widths=(2, 8, 2), use_bn=(False,), dtype="f32")
        buffers = TrainingBuffers(init_params(spec), spec, 4)
        # A float32 signaling NaN: casting it, as reading the rows would,
        # raises under the error filter on RuntimeWarning.
        buffers.input.view(np.uint32)[...] = 0x7FA00000
        x = np.random.default_rng(3).normal(size=(10, 2))
        rows = np.array([7, 2, 9, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xb = buffers.gather(x, rows)
        assert xb is buffers.input
        assert xb.tobytes() == x[rows].astype(np.float32).tobytes()

    def test_training_and_inference_refuse_each_others_buffers(self):
        spec = ModelSpec(widths=(3, 8, 2), use_bn=(False,), init_seed=1)
        params, x = init_params(spec), np.ones((4, 3))
        with pytest.raises(TypeError, match="TrainingBuffers"):
            forward(params, spec, x, training=True, buffers=InferenceBuffers())
        with pytest.raises(TypeError, match="InferenceBuffers"):
            forward(params, spec, x, training=False, buffers=TrainingBuffers(params, spec, 4))


class TestTrainVariantsHandsOutCopies:
    """The loop's parameters live in one buffer that every step updates.
    Every set a scheme keeps, and every average the fix-up writes, is a
    copy that shares no memory with that buffer or a live workspace; a
    checkpoint write or a raw evaluation, which returns before the next
    step, may read the loop's parameters in place. Each epoch's workspace
    is gone before the epoch's last save event."""

    def watch(self, monkeypatch):
        """Record the loop's workspaces (weakly, so that they die when the
        loop drops them) and the parameters each was built for, and every
        set the loop hands out: checkpoints written and observed, and
        evaluated parameters. Each hand-out records whether it keeps the
        rule: a kept set, or any set but the loop's parameters, is a
        read-only copy sharing no memory with the parameter buffer or a
        workspace alive at that moment (only an average a scheme returned
        may keep a writeable buffer: the fresh one that the batch-norm
        fix-up writes in place); a call that reads the loop's parameters
        in place sees their values at the call, whatever it keeps."""
        seen = {"workspaces": [], "handed_out": [], "written": [], "averages": [], "kept": []}

        class Recorded(TrainingBuffers):
            __slots__ = ("__weakref__",)

            def __init__(self, params, spec, batch_size, **kwargs):
                super().__init__(params, spec, batch_size, **kwargs)
                seen["workspaces"].append((weakref.ref(self), params))

        def hand_out(pset, kept):
            """Whether ``pset`` is the loop's parameters, after recording
            whether it may leave the loop; returns the live workspaces too."""
            live = [ref() for ref, _ in seen["workspaces"] if ref() is not None]
            loop = seen["workspaces"][0][1]
            arrays = [loop.buffer, *(arr for workspace in live for arr in workspace_arrays(workspace))]
            copy = (
                (pset.buffer is None or any(pset.buffer is a for a in seen["averages"]))
                and not pset.flat.flags.writeable
                and not any(np.shares_memory(pset.flat, arr) for arr in arrays)
            )
            seen["handed_out"].append(copy or (pset is loop and not kept))
            return pset is loop, len(live)

        monkeypatch.setattr(engine, "TrainingBuffers", Recorded)
        write = engine.write_checkpoint

        def recorded_write(ckpt, path):
            in_place, live = hand_out(ckpt.params, kept=Path(path).name.startswith("lawa_"))
            at_write = ckpt.params.flat.copy()
            seen["written"].append((Path(path), at_write, live))
            write(ckpt, path)
            if in_place:  # the file holds the values the call was handed
                seen["handed_out"].append(read_checkpoint(path).params == ckpt.params.with_flat(at_write))

        monkeypatch.setattr(engine, "write_checkpoint", recorded_write)
        evaluate_ = engine.evaluate

        def recorded_evaluate(params, *args, **kwargs):
            in_place, live = hand_out(params, kept=False)
            assert live == 0  # evaluations run at epoch ends only
            got = evaluate_(params, *args, **kwargs)
            if in_place:
                copy = params.with_flat(params.flat.copy())
                seen["handed_out"].append(np.array_equal(got, evaluate_(copy, *args, **kwargs), equal_nan=True))
            return got

        monkeypatch.setattr(engine, "evaluate", recorded_evaluate)
        make_scheme = engine.make_scheme

        def recorded_scheme(*args):
            scheme = make_scheme(*args)
            observe = scheme.observe

            def recorded_observe(slot):
                hand_out(slot.params, kept=scheme.keeps_slots)
                seen["kept"].append((scheme, slot, slot.params.flat.copy()))
                average = observe(slot)
                if average is not None and average.buffer is not None:
                    seen["averages"].append(average.buffer)
                return average

            scheme.observe = recorded_observe
            return scheme

        monkeypatch.setattr(engine, "make_scheme", recorded_scheme)
        return seen

    @pytest.mark.parametrize(
        "extra",
        [
            dict(scheme="uniform", k=2, save_averaged=True),
            dict(
                scheme="ema", use_bn=True, hidden=(8, 6), optimizer="lookahead",
                lookahead_inner="adam", lr=0.01, save_every_steps=3, save_averaged=True,
            ),
            dict(scheme="uniform", k=2, use_bn=True, bn_mode="copy", save_averaged=True),
        ],
        ids=["uniform", "bn-ema-steps", "bn-copy"],
    )
    def test_every_set_that_leaves_the_loop_is_a_read_only_copy_or_read_in_place(
        self, tmp_path, monkeypatch, extra
    ):
        seen = self.watch(monkeypatch)
        train_variants(
            tiny_cfg(tmp_path, **extra),
            [dict(out=str(tmp_path / "a")), dict(scheme="polyak", out=str(tmp_path / "b"))],
        )
        # One workspace per epoch; checkpoints, averages (each evaluated on
        # val) and raw evaluations.
        assert len(seen["workspaces"]) == 6
        assert len(seen["handed_out"]) > 3 * 6
        assert all(seen["handed_out"])
        # Both schemes are handed one slot per save event: a copy when the
        # uniform window keeps it, else the loop's parameters in place.
        slots = [slot for _, slot, _ in seen["kept"]]
        assert len({id(slot) for slot in slots}) == len(slots) // 2
        loop = seen["workspaces"][0][1]
        assert all((slot.params is loop) == (extra["scheme"] == "ema") for slot in slots)

    @pytest.mark.parametrize("save_every_steps", [0, 3])
    def test_no_workspace_is_alive_at_an_epoch_end(
        self, tmp_path, monkeypatch, save_every_steps
    ):
        seen = self.watch(monkeypatch)
        train_run(tiny_cfg(tmp_path, use_bn=True, save_every_steps=save_every_steps))
        steps_per_epoch = 64 // 16
        saves = [
            (read_checkpoint_header(path)[1], live)
            for path, _, live in seen["written"]
            if path.name.startswith("ckpt_")
        ]
        assert len(saves) == (8 if save_every_steps else 6)
        for step, live in saves:
            # A save at an epoch's last step comes after its workspace is
            # dropped; one inside an epoch sees that epoch's workspace.
            assert live == (0 if step % steps_per_epoch == 0 else 1), step
        assert all(ref() is None for ref, _ in seen["workspaces"])

    def test_the_loop_holds_one_parameter_buffer(self, tmp_path, monkeypatch):
        seen = self.watch(monkeypatch)
        built = []
        over = ParameterSet.over

        def counted(self, buffer):
            built.append(buffer)
            return over(self, buffer)

        monkeypatch.setattr(ParameterSet, "over", counted)
        cfg = tiny_cfg(
            tmp_path, use_bn=True, optimizer="lookahead", lookahead_inner="adam", lr=0.01
        )
        train_run(cfg)
        params = seen["workspaces"][0][1]
        assert all(p is params for _, p in seen["workspaces"])
        # The parameters, then each epoch's gradients and each uniform
        # average's fresh buffer: no other buffer backs a set.
        averages = cfg.epochs - cfg.k + 1
        assert len(built) == 1 + cfg.epochs + averages
        assert cfg.epochs == len(seen["workspaces"])
        assert len(seen["averages"]) == averages
        assert built[0] is params.buffer
        assert all(b is not params.buffer and b.shape == params.flat.shape for b in built[1:])

    def test_a_checkpoint_is_unchanged_by_later_steps(self, tmp_path, monkeypatch):
        seen = self.watch(monkeypatch)
        train_run(tiny_cfg(tmp_path, save_every_steps=3))
        assert len(seen["written"]) == 8
        for path, at_write, _ in seen["written"]:
            assert np.array_equal(read_checkpoint(path).params.flat, at_write)
        assert not np.array_equal(seen["written"][0][1], seen["written"][-1][1])

    @pytest.mark.parametrize("scheme", ["uniform", "ema"])
    def test_a_later_step_changes_no_memory_slot_a_window_holds(
        self, tmp_path, monkeypatch, scheme
    ):
        seen = self.watch(monkeypatch)
        # Saves every 3 of 4 steps per epoch, so most are followed by steps.
        cfg = tiny_cfg(tmp_path, scheme=scheme, k=3, save_every_steps=3)
        train_run(cfg)
        assert len(seen["kept"]) == 8
        loop = seen["workspaces"][0][1]
        for _, slot, at_observe in seen["kept"]:
            assert isinstance(slot, Checkpoint)
            if scheme == "ema":  # it keeps no slot, so it reads the loop's parameters in place
                assert slot.params is loop
            else:
                assert np.array_equal(slot.params.flat, at_observe)
        if scheme == "uniform":  # its window holds the k newest slots, unchanged above
            window = list(seen["kept"][0][0].window)
            assert [id(s) for s in window] == [id(slot) for _, slot, _ in seen["kept"][-cfg.k :]]

    @pytest.mark.parametrize("scheme", ["none", "uniform"])
    @pytest.mark.parametrize("save_every_steps", [0, 3])
    def test_params_are_copied_per_save_event_not_per_step_or_epoch(
        self, tmp_path, monkeypatch, save_every_steps, scheme
    ):
        calls = []
        with_flat = ParameterSet.with_flat

        def counted(self, flat):
            calls.append(flat.size)
            return with_flat(self, flat)

        monkeypatch.setattr(ParameterSet, "with_flat", counted)
        # 64 training rows in batches of 16: 4 steps per epoch, 24 in all;
        # every 3 steps makes 8 save events, 2 of them at an epoch end.
        cfg = tiny_cfg(tmp_path, scheme=scheme, save_every_steps=save_every_steps)
        train_run(cfg)
        saves = len(list((tmp_path / "run").glob("ckpt_*.lawa")))
        assert saves == (8 if save_every_steps else cfg.epochs)
        # One copy per save event, the uniform window's slot, none when no
        # scheme keeps a slot, and none per epoch end.
        assert len(calls) == (saves if scheme == "uniform" else 0)


class TestPeakMemory:
    """What a training run holds at its peak, traced by ``tracemalloc``."""

    def test_a_fresh_training_forward_allocates_no_gradients(self):
        spec = ModelSpec(widths=(2, 512, 512, 2), use_bn=(True, True), init_seed=4)
        params = init_params(spec)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(8, 2)), rng.integers(0, 2, size=8)
        want = batch_loss(params, spec, x, y)
        loss, peak, _ = traced(batch_loss, params, spec, x, y)
        assert loss == want
        # The 8-row layer rows take 0.2 MB; a gradient set would add 2.1 MB.
        assert params.total_size() * 8 > 2_000_000
        assert peak < 512 * 1024

    @pytest.mark.parametrize("walk", ["evaluate", "recompute_bn_stats"])
    @pytest.mark.parametrize(
        "widths,layers,blocks",
        [
            # Wide: the last layer, or the first waiting for its statistics,
            # and each lane's block of the other.
            ((2, 512, 512, 2), {"evaluate": 1, "recompute_bn_stats": 1}, 2),
            # Wide and deeper: two block areas in an evaluation, two layers
            # waiting in turn for their statistics in a recompute.
            ((2, 512, 512, 512, 2), {"evaluate": 1, "recompute_bn_stats": 2}, {"evaluate": 4, "recompute_bn_stats": 2}),
            # One block: every layer at full height, two in turn.
            ((2, 64, 64, 64, 2), {"evaluate": 2, "recompute_bn_stats": 2}, 0),
        ],
    )
    def test_a_walk_holds_its_full_height_layers_and_a_block_per_lane(
        self, monkeypatch, walk, widths, layers, blocks
    ):
        monkeypatch.setattr(lanes, "_cpu_count", lambda: 2)
        lanes.share(range(2), lambda lane, item: None, True)  # the worker, made untraced
        depth = len(widths) - 2
        spec = ModelSpec(widths=widths, use_bn=(True,) * depth, init_seed=4)
        params = perturbed_bn_params(spec, seed=4)
        params = params.over(params.flat.copy())  # so the recompute writes in place
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(1600, 2)), rng.integers(0, 2, size=1600)
        if walk == "evaluate":
            _, peak, _ = traced(evaluate, params, spec, x, y)
        else:
            _, peak, _ = traced(recompute_bn_stats, params, spec, x)
        if isinstance(blocks, dict):
            blocks = blocks[walk]
        # The slack holds the sums, the outputs and numpy's 64 KB buffer for
        # each broadcast operation under way in a lane.
        layer, block = 1600 * widths[1] * 8, engine.ROW_BLOCK * widths[1] * 8
        assert peak < layers[walk] * layer + blocks * block + 512 * 1024, peak

    def test_a_run_holds_its_window_and_one_average(self, tmp_path):
        k = 3
        cfg = tiny_cfg(
            tmp_path, n_per_class=200, hidden=(256, 256), use_bn=True, epochs=k + 2,
            momentum=0.9, k=k,
        )
        dataset = build_dataset(cfg)
        spec = engine.model_spec_for(cfg, dataset)
        size = init_params(spec).total_size()
        one_set = 8 * size
        optimizer_state = one_set  # SGD momentum: the velocity
        # The widest walk: every training row through two 256-wide layers,
        # one held at full height and one in row blocks, or a walk of one
        # block, two in turn.
        inference_pair = 2 * 8 * len(dataset.train()[0]) * 256
        # The set is above FILE_SLOT_BYTES, so the window's older
        # checkpoints are read back from their files at each save event. At
        # the peak, in the batch-norm fix-up, the run holds the loop's
        # parameter buffer, the save event's new copy, one average, which
        # the fix-up writes in place, and the fix-up's row block. The bound
        # still allows the k + 1 checkpoints of a window held in memory.
        assert one_set >= averaging.FILE_SLOT_BYTES
        bound = (1 + (k + 1) + 1) * one_set + optimizer_state + inference_pair + 512 * 1024
        records, peak, _ = traced(train_run, cfg, dataset)
        assert records[-1].avg_val_loss is not None
        assert peak < bound, (peak, bound)

    def test_a_save_event_of_file_slots_holds_the_trainer_one_average_and_the_walk(
        self, tmp_path, monkeypatch
    ):
        """From a save event's checkpoint write to the epoch end's first
        evaluation, a run whose checkpoints are file slots holds at most
        the trainer's state (the parameter buffer and the optimizer's
        arrays), one average, the walk's buffers and a read block: the
        checkpoint is written and evaluated from the loop's buffer, and
        its slot is only its file's headers."""
        k = 3
        cfg = tiny_cfg(
            tmp_path, hidden=(512, 512), use_bn=True, optimizer="lookahead",
            lookahead_inner="adam", lr=0.002, k=k, epochs=k + 2, save_averaged=True,
        )
        spans, optimizers = PeakSpans(), []
        write, evaluate_, make_optimizer_ = (
            engine.write_checkpoint, engine.evaluate, engine.make_optimizer
        )

        def opening(ckpt, path):
            if Path(path).name.startswith("ckpt_"):
                spans.open()
            return write(ckpt, path)

        def closing(*args, **kwargs):
            spans.close()
            return evaluate_(*args, **kwargs)

        def recorded(*args, **kwargs):
            optimizers.append(make_optimizer_(*args, **kwargs))
            return optimizers[-1]

        monkeypatch.setattr(engine, "write_checkpoint", opening)
        monkeypatch.setattr(engine, "evaluate", closing)
        monkeypatch.setattr(engine, "make_optimizer", recorded)
        dataset = build_dataset(cfg)
        records, _, _ = traced(train_run, cfg, dataset)
        assert records[-1].avg_val_loss is not None
        (lookahead,) = optimizers
        state = sum(
            a.nbytes for o in (lookahead, lookahead.inner) for a in vars(o).values()
            if isinstance(a, np.ndarray)
        )
        one_set = 8 * init_params(engine.model_spec_for(cfg, dataset)).total_size()
        assert one_set >= averaging.FILE_SLOT_BYTES
        assert state == 3 * one_set  # the slow weights, m and v: no scratch
        # Every walk of this run is one block: two layers of every training row.
        walk = 2 * 8 * len(dataset.train()[0]) * 512
        # The slack holds the data, the schemes, the records and the file
        # headers; together with the read block it is less than one set, so
        # no copy of the checkpoint fits.
        slack = 8 * averaging.READ_BLOCK + 768 * 1024
        assert slack < one_set
        budget = one_set + 3 * one_set + one_set + walk + slack
        assert len(spans.peaks) == cfg.epochs
        for epoch, peak in enumerate(spans.peaks):
            assert peak <= budget, (epoch, peak, budget)


    def test_the_steps_hold_the_trainer_and_the_walk_and_no_workspace_beside_them(
        self, tmp_path, monkeypatch
    ):
        """Over each epoch's steps, from the build of its workspace to its
        save event, a run whose walk buffers have room for the workspace
        holds at most the trainer's state (the parameter buffer and the
        optimizer's state arrays), the walk buffers and slack: the
        workspace, the optimizer's scratch included, is views of the walk
        buffers, sized before the first step."""
        cfg = tiny_cfg(
            tmp_path, n_per_class=500, hidden=(512, 512), use_bn=True, optimizer="lookahead",
            lookahead_inner="adam", lr=0.002, batch_size=64, k=2, epochs=3,
        )
        spans, optimizers = PeakSpans(), []
        write, make_optimizer_ = engine.write_checkpoint, engine.make_optimizer

        class Opening(TrainingBuffers):
            def __init__(self, *args, **kwargs):
                spans.open()
                super().__init__(*args, **kwargs)

        def closing(ckpt, path):
            if Path(path).name.startswith("ckpt_"):
                spans.close()
            return write(ckpt, path)

        def recorded(*args, **kwargs):
            optimizers.append(make_optimizer_(*args, **kwargs))
            return optimizers[-1]

        monkeypatch.setattr(engine, "TrainingBuffers", Opening)
        monkeypatch.setattr(engine, "write_checkpoint", closing)
        monkeypatch.setattr(engine, "make_optimizer", recorded)
        dataset = build_dataset(cfg)
        records, _, _ = traced(train_run, cfg, dataset)
        assert records[-1].avg_val_loss is not None
        (lookahead,) = optimizers
        state = sum(
            a.nbytes for o in (lookahead, lookahead.inner) for a in vars(o).values()
            if isinstance(a, np.ndarray)
        )
        spec = engine.model_spec_for(cfg, dataset)
        params = init_params(spec)
        one_set = 8 * params.total_size()
        assert state == 3 * one_set  # the slow weights, m and v: no scratch
        n_train = len(dataset.train()[0])
        assert len(engine._row_blocks(spec, n_train)) > 1
        # The widest walks, the training split's evaluation and recompute:
        # one layer at full height and an area of two blocks.
        walk = 8 * (n_train + 2 * engine.ROW_BLOCK) * 512
        held = TrainingBuffers(params, spec, 64, optimizer=lookahead)
        workspace = sum(a.nbytes for a in workspace_arrays(held))
        assert walk > workspace
        # The slack holds the data, the epoch's order, a step's batch-sized
        # arrays and the optimizer's finiteness check of the gradients; it
        # is less than the scratch, so neither the workspace nor its
        # scratch fits beside the walk.
        slack = 768 * 1024
        assert slack < held.scratch.nbytes < workspace
        budget = one_set + 3 * one_set + walk + slack
        assert len(spans.peaks) == cfg.epochs
        for epoch, peak in enumerate(spans.peaks):
            assert peak <= budget, (epoch, peak, budget)


def in_walk_buffers(workspace, buffers):
    """Whether each of a workspace's arrays is a view of the walk buffers."""
    walk = [*buffers.full, *buffers.areas]
    return [any(np.shares_memory(arr, a) for a in walk) for arr in workspace_arrays(workspace)]


class TestTheWorkspaceLivesInTheWalkBuffers:
    """Each epoch's workspace takes its arrays from the room of the run's
    walk buffers, where they fit, and a walk between two steps changes no
    byte of a run."""

    SPEC = ModelSpec(widths=(3, 24, 16, 4), use_bn=(True, True), init_seed=13)

    @pytest.mark.parametrize("room", [0, 500, 10**5], ids=["none", "some", "all"])
    def test_each_array_is_a_view_of_the_walk_buffers_where_it_fits(self, room):
        spec = self.SPEC
        params = init_params(spec)
        within = InferenceBuffers()
        within._take((room, 0, room // 2, 0), np.dtype(np.float64))
        adam = make_optimizer("adam")
        workspace = TrainingBuffers(params, spec, 37, within=within, optimizer=adam)
        held = workspace_arrays(workspace)
        assert held[2] is workspace.scratch
        assert workspace.scratch.shape == (optim.scratch_size(adam, params),)
        for k, arr in enumerate(held):
            assert not any(np.shares_memory(arr, other) for other in held[k + 1 :])
        inside = in_walk_buffers(workspace, within)
        if room == 0:
            assert not any(inside)
        elif room == 500:  # the gradients and the scratch fit in neither buffer, the masks in one
            assert 8 * room < held[1].nbytes < held[2].nbytes
            assert not inside[1] and not inside[2] and any(inside)
        else:
            assert sum(arr.nbytes for arr in held) < 8 * room
            assert all(inside)

    def test_a_run_whose_walks_are_one_block_keeps_each_workspace_apart(
        self, tmp_path, monkeypatch
    ):
        """A small model's walk buffers grow at its first evaluation, and
        each epoch's workspace has arrays of its own."""
        seen = []

        class Recorded(TrainingBuffers):
            def __init__(self, params, spec, batch_size, *, within, optimizer):
                super().__init__(params, spec, batch_size, within=within, optimizer=optimizer)
                seen.append(within)

        monkeypatch.setattr(engine, "TrainingBuffers", Recorded)
        train_run(tiny_cfg(tmp_path, epochs=2, use_bn=True))
        assert seen == [None, None]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_a_walk_between_two_steps_changes_no_byte(self, tmp_path, monkeypatch, dtype):
        """Saves every 5 of 12 steps per epoch, so the recompute walk of
        most save events runs between two steps of one epoch in the
        buffers that hold the epoch's workspace. The files are those of a
        run whose workspaces have arrays of their own, as every run had
        before the walk buffers held them."""
        cfg = tiny_cfg(
            tmp_path, n_per_class=500, hidden=(512, 512), use_bn=True, optimizer="lookahead",
            lookahead_inner="adam", lr=0.002, batch_size=64, k=2, epochs=2,
            save_every_steps=5, save_averaged=True, dtype=dtype,
        )
        within_walk = []

        class Recorded(TrainingBuffers):
            def __init__(self, params, spec, batch_size, *, within, optimizer):
                super().__init__(params, spec, batch_size, within=within, optimizer=optimizer)
                within_walk.append(in_walk_buffers(self, within))

        class Apart(TrainingBuffers):
            def __init__(self, params, spec, batch_size, *, within, optimizer):
                super().__init__(params, spec, batch_size, optimizer=optimizer)

        files = {}
        for name, kind in (("walk", Recorded), ("apart", Apart)):
            monkeypatch.setattr(engine, "TrainingBuffers", kind)
            train_run(replace(cfg, out=str(tmp_path / name)))
            files[name] = masked_files(tmp_path / name)
            del files[name]["config.resolved"]  # it names the directory
        assert within_walk and all(all(inside) for inside in within_walk)
        assert len([n for n in files["walk"] if n.startswith("lawa_")]) == 3
        assert files["walk"] == files["apart"]


class TestEachAverageIsEvaluatedOnce:
    @pytest.mark.parametrize("save_every_steps", [0, 6])
    def test_an_epoch_without_a_save_reuses_the_stored_metrics(
        self, tmp_path, monkeypatch, save_every_steps
    ):
        # 4 steps per epoch; every 6 steps, saves fall at steps 6, 12, 18 and
        # 24, so epochs 1 and 3 end without one.
        evaluated = []
        evaluate_ = engine.evaluate

        def recorded_evaluate(params, *args, **kwargs):
            evaluated.append(params)
            return evaluate_(params, *args, **kwargs)

        monkeypatch.setattr(engine, "evaluate", recorded_evaluate)
        extra = dict(use_bn=True, save_every_steps=save_every_steps, save_averaged=True)
        trajectory = tiny_cfg(tmp_path, **extra)
        variants = [
            dict(out=str(tmp_path / "uniform"), k=2),
            dict(out=str(tmp_path / "ema"), scheme="ema"),
        ]
        runs = train_variants(trajectory, variants)
        for variant, records in zip(variants, runs):
            cfg = replace(trajectory, **variant)
            averages = sorted(Path(cfg.out).glob("lawa_*.lawa"))
            assert len(averages) == (4 if save_every_steps else 6) - (cfg.scheme == "uniform")
            written = [read_checkpoint(path) for path in averages]
            # Each average is evaluated once, and its metrics stand until the
            # next epoch end after a newer one.
            calls = [p for p in evaluated if any(p == c.params for c in written)]
            assert len(calls) == len(written)
            # Every row reports the newest average saved by its epoch's end,
            # as evaluating that average again would.
            dataset = build_dataset(cfg)
            spec = engine.model_spec_for(cfg, dataset)
            want = []
            for record in records:
                newest = [c for c in written if c.step <= record.step]
                loss, acc = evaluate_(newest[-1].params, spec, *dataset.val()) if newest else (None, None)
                want.append(csv_line(replace(record, avg_val_loss=loss, avg_val_acc=acc)))
            lines = (Path(cfg.out) / "metrics.csv").read_text().splitlines()[1:]
            assert [line.rsplit(",", 1)[0] for line in lines] == [
                line.rsplit(",", 1)[0] for line in want
            ]


class TestDivergenceThroughTheBuffers:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("save_every_steps", [0, 1])
    def test_aborts_naming_the_epoch_and_leaves_readable_checkpoints(
        self, tmp_path, save_every_steps
    ):
        cfg = tiny_cfg(
            tmp_path, lr=1e120, schedule="constant", save_every_steps=save_every_steps
        )
        with pytest.raises(NonFiniteError, match=r"run aborted at epoch \d"):
            train_run(cfg)
        out = tmp_path / "run"
        written = sorted(out.glob("ckpt_*.lawa"))
        if save_every_steps:
            assert written  # the first steps are finite and saved before the abort
        for path in written:
            epoch, step = read_checkpoint_header(path)
            assert epoch == int(path.stem[len("ckpt_e"):]) and step >= 1
            assert read_checkpoint(path).epoch == epoch
        assert not list(out.glob("*.tmp"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["none", "uniform"])
    @pytest.mark.parametrize("hidden", [(8,), (256, 256)], ids=["memory", "files"])
    def test_a_non_finite_checkpoint_at_an_epoch_end_leaves_the_files_before_it(
        self, tmp_path, monkeypatch, scheme, hidden
    ):
        """The step that ends epoch 2 leaves an infinite parameter: its
        checkpoint is written, then the average that reads it (uniform) or
        the raw evaluation (none) aborts the run. The run directory then
        holds the config, every checkpoint up to that save event, the
        averages before it and the metrics rows of epochs 0 and 1."""
        make_optimizer_ = engine.make_optimizer
        steps = []

        class Poisoning:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):  # what the loop reads of it besides step
                return getattr(self.inner, name)

            def step(self, params, grads, lr, *, out=None, scratch=None):
                got = self.inner.step(params, grads, lr, out=out, scratch=scratch)
                steps.append(None)
                if len(steps) == 3 * 4:  # 4 steps per epoch
                    got.buffer[0] = np.inf
                return got

        monkeypatch.setattr(
            engine, "make_optimizer", lambda *a, **kw: Poisoning(make_optimizer_(*a, **kw))
        )
        cfg = tiny_cfg(tmp_path, scheme=scheme, k=2, hidden=hidden, save_averaged=True)
        with pytest.raises(NonFiniteError, match="run aborted at epoch 2"):
            train_run(cfg)
        out = tmp_path / "run"
        averaged = ["lawa_e00001.lawa"] if scheme == "uniform" else []
        assert sorted(p.name for p in out.iterdir()) == [
            "ckpt_e00000.lawa", "ckpt_e00001.lawa", "ckpt_e00002.lawa", "config.resolved",
            *averaged, "metrics.csv",
        ]
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2
        assert np.isinf(read_checkpoint(out / "ckpt_e00002.lawa").params.flat[0])
