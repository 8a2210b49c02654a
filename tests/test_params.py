import os
import struct

import numpy as np
import pytest

from lawa.checkpoint_io import read_checkpoint, read_checkpoint_header, write_checkpoint
from lawa.errors import FormatError, IoError, NonFiniteError, StructureMismatch
from lawa.params import (
    Checkpoint,
    ParameterSet,
    add_scaled,
    check_finite,
    check_layout,
    l2_distance,
    scale,
)
from testutil import mixed_pset, pset, random_pset, traced


class TestConstruction:
    def test_rejects_mixed_dtypes(self):
        with pytest.raises(ValueError, match="mixed"):
            ParameterSet(
                {"a": np.zeros(2, np.float32), "b": np.zeros(2, np.float64)}
            )

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            ParameterSet({"a": np.zeros(2, np.int64)})

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ParameterSet({"": np.zeros(2)})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParameterSet([("a", np.zeros(2)), ("a", np.ones(2))])

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            ParameterSet({})

    def test_entries_are_read_only(self):
        p = pset({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            p["a"][0] = 5.0

    def test_order_is_preserved(self):
        p = ParameterSet([("b", np.zeros(1)), ("a", np.ones(1))])
        assert p.names == ("b", "a")

    def test_checkpoint_rejects_negative_position(self):
        with pytest.raises(ValueError):
            Checkpoint(params=pset({"a": [1.0]}), epoch=-1, step=0)


class TestFlatBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_entries_are_read_only_views_of_flat_in_order(self, dtype):
        p = mixed_pset(np.random.default_rng(20), dtype)
        assert p.flat.dtype == dtype and p.flat.ndim == 1
        assert p.flat.flags.c_contiguous and not p.flat.flags.writeable
        assert p.total_size() == p.flat.size == 12 + 1 + 0 + 5
        start = 0
        for _, arr in p.items():
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr.ravel(), p.flat[start : start + arr.size])
            if arr.size:
                assert np.shares_memory(arr, p.flat[start : start + arr.size])
            start += arr.size
        assert start == p.flat.size
        assert p["s"].shape == () and p["empty"].shape == (0, 2)

    def test_flat_is_read_only(self):
        p = pset({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            p.flat[0] = 5.0
        with pytest.raises(AttributeError):
            p.flat = np.zeros(2)

    def test_mutating_an_input_leaves_the_set_unchanged(self):
        a = np.array([1.0, 2.0])
        b = np.array(3.0)
        p = ParameterSet({"a": a, "b": b})
        a[0] = 9.0
        b[...] = 9.0
        np.testing.assert_array_equal(p.flat, [1.0, 2.0, 3.0])

    def test_with_flat_keeps_names_and_shapes(self):
        p = mixed_pset(np.random.default_rng(21))
        q = p.with_flat(np.arange(p.flat.size, dtype=np.float64))
        assert q.names == p.names
        assert [a.shape for _, a in q.items()] == [a.shape for _, a in p.items()]
        np.testing.assert_array_equal(q["b"], np.arange(13, 18))

    def test_with_flat_takes_the_array_read_only(self):
        p = pset({"a": [1.0, 2.0]})
        new = np.array([3.0, 4.0])
        q = p.with_flat(new)
        assert not new.flags.writeable
        with pytest.raises(ValueError):
            new[0] = 0.0
        np.testing.assert_array_equal(q["a"], [3.0, 4.0])

    def test_with_flat_casts_to_the_set_dtype(self):
        p = pset({"a": [1.0, 2.0]}, dtype=np.float32)
        q = p.with_flat(np.array([0.1, 0.2]))
        assert q.dtype == np.float32
        np.testing.assert_array_equal(q["a"], np.array([0.1, 0.2]).astype(np.float32))

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_with_flat_rejects_wrong_length(self, length):
        p = pset({"a": [1.0, 2.0]})
        with pytest.raises(StructureMismatch):
            p.with_flat(np.zeros(length))

    def test_over_views_a_buffer_its_owner_keeps_writing(self):
        p = mixed_pset(np.random.default_rng(23))
        buffer = np.zeros(p.flat.size)
        q = p.over(buffer)
        assert q.buffer is buffer and p.buffer is None
        assert q.names == p.names and buffer.flags.writeable
        assert not q.flat.flags.writeable and not q["w"].flags.writeable
        buffer[:] = np.arange(buffer.size)
        np.testing.assert_array_equal(q["b"], np.arange(13, 18))
        copy = q.with_flat(q.flat.copy())
        buffer[:] = -1.0
        assert copy.buffer is None and copy["b"][0] == 13.0

    @pytest.mark.parametrize(
        "buffer",
        [np.zeros(17), np.zeros(18, np.float32), np.zeros(36)[::2], np.zeros((2, 9))],
        ids=["short", "f32", "strided", "2-d"],
    )
    def test_over_rejects_a_buffer_of_another_layout(self, buffer):
        with pytest.raises(StructureMismatch, match="buffer"):
            mixed_pset(np.random.default_rng(24)).over(buffer)

    def test_over_rejects_a_read_only_buffer(self):
        p = mixed_pset(np.random.default_rng(25))
        with pytest.raises(StructureMismatch, match="writeable"):
            p.over(p.flat)

    def test_with_updates_replaces_only_named_entries(self):
        p = mixed_pset(np.random.default_rng(22))
        q = p.with_updates({"s": np.array(7.0), "b": np.ones(5)})
        assert q["s"] == 7.0
        np.testing.assert_array_equal(q["b"], np.ones(5))
        np.testing.assert_array_equal(q["w"], p["w"])
        assert not q.flat.flags.writeable
        assert not np.shares_memory(q.flat, p.flat)

    def test_with_updates_rejects_unknown_name(self):
        with pytest.raises(StructureMismatch, match="unknown"):
            pset({"a": [1.0]}).with_updates({"z": np.zeros(1)})

    def test_with_updates_rejects_wrong_shape(self):
        with pytest.raises(StructureMismatch, match="'a'"):
            pset({"a": [1.0, 2.0]}).with_updates({"a": np.zeros(3)})

    def test_check_layout_against_a_strict_prefix_names_the_first_extra_entry(self):
        p = pset({"a": [1.0], "b": [2.0]})
        with pytest.raises(StructureMismatch, match="entry counts differ; first unmatched entry 'b'"):
            check_layout(p, p.dtype, [("a", (1,))])


class TestArithmetic:
    def test_add_scaled_elementwise(self):
        out = add_scaled(pset({"a": [1, 2]}), pset({"a": [3, 4]}), 1.0)
        np.testing.assert_array_equal(out["a"], [4.0, 6.0])

    def test_add_scaled_self_cancellation(self):
        p = random_pset(np.random.default_rng(0))
        out = add_scaled(p, p, -1.0)
        for _, arr in out.items():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_add_scaled_name_mismatch(self):
        with pytest.raises(StructureMismatch, match="'a'"):
            add_scaled(pset({"a": [1.0]}), pset({"b": [1.0]}), 1.0)

    def test_add_scaled_shape_mismatch_names_entry(self):
        with pytest.raises(StructureMismatch, match="'a'"):
            add_scaled(pset({"a": [1.0]}), pset({"a": [1.0, 2.0]}), 1.0)

    def test_add_scaled_leaves_inputs_unmodified(self):
        p, q = pset({"a": [1.0]}), pset({"a": [2.0]})
        add_scaled(p, q, 3.0)
        assert p["a"][0] == 1.0 and q["a"][0] == 2.0

    def test_scale(self):
        out = scale(pset({"a": [2, 4]}), 0.5)
        np.testing.assert_array_equal(out["a"], [1.0, 2.0])

    def test_scale_identity_and_zero(self):
        p = random_pset(np.random.default_rng(1))
        assert scale(p, 1.0) == p
        zero = scale(p, 0.0)
        assert all(not arr.any() for _, arr in zero.items())

    def test_vector_space_distributivity(self):
        # small-integer values make both routes exact in float64
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = pset({"a": rng.integers(-8, 8, size=(2, 3)).astype(np.float64)})
            q = pset({"a": rng.integers(-8, 8, size=(2, 3)).astype(np.float64)})
            c = float(rng.integers(-4, 5))
            left = scale(add_scaled(p, q, 1.0), c)
            right = add_scaled(scale(p, c), scale(q, c), 1.0)
            np.testing.assert_array_equal(left["a"], right["a"])


class TestL2Distance:
    def test_zero_on_self(self):
        p = random_pset(np.random.default_rng(3))
        assert l2_distance(p, p) == 0.0

    def test_three_four_five(self):
        assert l2_distance(pset({"a": [0, 0]}), pset({"a": [3, 4]})) == 5.0

    def test_single_coordinate_perturbation(self):
        # integer base values and eps=0.25 keep the difference exact
        rng = np.random.default_rng(4)
        base = rng.integers(-5, 6, size=7).astype(np.float64)
        shifted = base.copy()
        shifted[3] += 0.25
        assert l2_distance(pset({"a": base}), pset({"a": shifted})) == 0.25

    def test_structure_mismatch(self):
        with pytest.raises(StructureMismatch):
            l2_distance(pset({"a": [1.0]}), pset({"b": [1.0]}))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_pset(rng) for _ in range(3))
            dab, dbc, dac = l2_distance(a, b), l2_distance(b, c), l2_distance(a, c)
            assert dab >= 0.0
            assert dab == l2_distance(b, a)
            assert dac <= (dab + dbc) * (1.0 + 1e-9)
        assert l2_distance(a, a) == 0.0


class TestCheckFinite:
    def test_accepts_finite(self):
        check_finite(pset({"a": [1.0, -2.0]}))

    def test_rejects_nan_naming_entry(self):
        with pytest.raises(NonFiniteError, match="'bad'"):
            check_finite(pset({"ok": [1.0], "bad": [np.nan]}))

    def test_names_the_first_bad_entry(self):
        p = pset({"ok": [1.0], "first": [np.inf], "second": [np.nan]})
        with pytest.raises(NonFiniteError, match="'first'"):
            check_finite(p)


class TestCheckpointFile:
    def test_roundtrip_f32_two_entries(self, tmp_path):
        p = ParameterSet(
            {
                "w": np.array([[1.5, -2.25], [0.0, 3.0]], np.float32),
                "b": np.array([0.125, 7.0], np.float32),
            }
        )
        ckpt = Checkpoint(params=p, epoch=3, step=42)
        path = tmp_path / "c.lawa"
        write_checkpoint(ckpt, path)
        back = read_checkpoint(path)
        assert back.epoch == 3 and back.step == 42
        assert back.params.dtype == np.float32
        assert back.params == p

    def test_roundtrip_f64_with_empty_tensor(self, tmp_path):
        p = ParameterSet({"w": np.array([1.0, 2.0]), "empty": np.zeros((0,))})
        path = tmp_path / "c.lawa"
        write_checkpoint(Checkpoint(params=p, epoch=0, step=0), path)
        back = read_checkpoint(path)
        assert back.params == p
        assert back.params["empty"].shape == (0,)

    def test_roundtrip_preserves_nan_bits(self, tmp_path):
        arr = np.array([np.nan, np.inf, -0.0, 1.0], np.float64)
        path = tmp_path / "c.lawa"
        write_checkpoint(
            Checkpoint(params=ParameterSet({"a": arr}), epoch=0, step=0), path
        )
        back = read_checkpoint(path).params["a"]
        assert arr.tobytes() == back.tobytes()

    def test_roundtrip_is_bytewise_stable(self, tmp_path):
        p = random_pset(np.random.default_rng(6), dtype=np.float32)
        a, b = tmp_path / "a.lawa", tmp_path / "b.lawa"
        ckpt = Checkpoint(params=p, epoch=9, step=100)
        write_checkpoint(ckpt, a)
        write_checkpoint(read_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "c.lawa"
        write_checkpoint(
            Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0), path
        )
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"XAWA"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_checkpoint(path)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "c.lawa"
        write_checkpoint(
            Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0), path
        )
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_checkpoint(path)
        assert err.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "c.lawa"
        write_checkpoint(
            Checkpoint(params=pset({"a": [1.0, 2.0]}), epoch=0, step=0), path
        )
        full = path.read_bytes()
        path.write_bytes(full[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.lawa"
        write_checkpoint(
            Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0), path
        )
        full = path.read_bytes()
        path.write_bytes(full + b"\x00")
        with pytest.raises(FormatError, match="trailing") as err:
            read_checkpoint(path)
        assert err.value.offset == len(full)

    def test_zero_tensors_rejected(self, tmp_path):
        path = tmp_path / "c.lawa"
        write_checkpoint(
            Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0), path
        )
        path.write_bytes(path.read_bytes()[:24] + bytes(4))  # a tensor count of 0
        with pytest.raises(FormatError, match="holds no tensors") as err:
            read_checkpoint(path)
        assert err.value.offset == 24

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_checkpoint(tmp_path / "nope.lawa")

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            write_checkpoint(
                Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0),
                tmp_path / "no" / "such" / "dir" / "c.lawa",
            )

    @pytest.mark.parametrize(
        "dims",
        [[1] * 65, [0, 2**62]],
        ids=["rank_above_64", "dims_too_big"],
    )
    def test_shape_numpy_refuses_is_format_error(self, tmp_path, dims):
        # One f64 tensor "a" holding a single element's bytes (none if empty).
        data = b"" if 0 in dims else bytes(8)
        tensor = struct.pack("<I", 1) + b"a" + struct.pack("<BI", 1, len(dims))
        tensor += struct.pack(f"<{len(dims)}Q", *dims) + data
        path = tmp_path / "c.lawa"
        path.write_bytes(b"LAWA" + struct.pack("<IQQI", 1, 0, 0, 1) + tensor)
        with pytest.raises(FormatError, match="shape") as err:
            read_checkpoint(path)
        assert err.value.offset == 28  # the tensor header, after the 28-byte file header

    def test_read_holds_at_most_two_sets(self, tmp_path):
        rng = np.random.default_rng(8)
        p = ParameterSet({"w": rng.normal(size=(256, 256)), "s": np.float64(2.0), "b": np.ones(256)})
        path = tmp_path / "c.lawa"
        write_checkpoint(Checkpoint(params=p, epoch=1, step=2), path)
        assert path.stat().st_size >= 1 << 19
        back, peak, _ = traced(read_checkpoint, path)
        # Each tensor is read into its own array, and the set copies them.
        assert peak < 2.2 * p.flat.nbytes, peak / p.flat.nbytes
        assert back.params == p

    def test_a_tensor_the_file_cannot_hold_is_not_allocated(self, tmp_path):
        # One f64 tensor of 2**40 elements, in a 100-byte file.
        tensor = struct.pack("<I", 1) + b"a" + struct.pack("<BIQ", 1, 1, 2**40)
        head = b"LAWA" + struct.pack("<IQQI", 1, 0, 0, 1) + tensor
        path = tmp_path / "c.lawa"
        path.write_bytes(head + bytes(100 - len(head)))

        def read():
            with pytest.raises(FormatError, match="truncated") as err:
                read_checkpoint(path)
            return err.value

        err, peak, _ = traced(read)
        assert err.offset == len(head)
        assert peak < 1 << 20, peak

    def test_write_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "c.lawa"
        write_checkpoint(Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0), path)
        write_checkpoint(Checkpoint(params=pset({"a": [2.0]}), epoch=1, step=1), path)
        assert read_checkpoint(path).epoch == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.lawa"]

    def test_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "c.lawa"
        write_checkpoint(Checkpoint(params=pset({"a": [1.0]}), epoch=0, step=0), path)
        before = path.read_bytes()

        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(IoError, match="disk full"):
            write_checkpoint(Checkpoint(params=pset({"a": [2.0]}), epoch=1, step=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.lawa"]


class TestCheckpointHeader:
    def _write(self, path, epoch=7, step=123):
        write_checkpoint(
            Checkpoint(params=pset({"a": [1.0, 2.0]}), epoch=epoch, step=step), path
        )
        return path.read_bytes()

    def test_returns_epoch_and_step(self, tmp_path):
        path = tmp_path / "c.lawa"
        self._write(path, epoch=7, step=123)
        assert read_checkpoint_header(path) == (7, 123)

    def test_damaged_tensor_data_is_not_read(self, tmp_path):
        path = tmp_path / "c.lawa"
        full = self._write(path)
        path.write_bytes(full[:-4])
        assert read_checkpoint_header(path) == (7, 123)
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "c.lawa"
        full = self._write(path)
        path.write_bytes(b"XAWA" + full[4:])
        with pytest.raises(FormatError, match="magic") as err:
            read_checkpoint_header(path)
        assert err.value.offset == 0

    def test_bad_version_offset_four(self, tmp_path):
        path = tmp_path / "c.lawa"
        full = bytearray(self._write(path))
        full[4] = 99
        path.write_bytes(bytes(full))
        with pytest.raises(FormatError, match="version") as err:
            read_checkpoint_header(path)
        assert err.value.offset == 4

    @pytest.mark.parametrize("size, offset", [(0, 0), (3, 0), (6, 4), (12, 8), (23, 16)])
    def test_truncated_header_reports_offset(self, tmp_path, size, offset):
        path = tmp_path / "c.lawa"
        full = self._write(path)
        path.write_bytes(full[:size])
        with pytest.raises(FormatError, match="truncated") as err:
            read_checkpoint_header(path)
        assert err.value.offset == offset

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_checkpoint_header(tmp_path / "nope.lawa")
