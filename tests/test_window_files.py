"""A uniform window that holds its older checkpoints as references to their
files gives, bit for bit, what a window held in memory gives, holds no more
than one of them at a time, and rejects a file that changed under it."""

import os
import shutil

import numpy as np
import pytest

from lawa import averaging, engine
from lawa.averaging import FILE_SLOT_BYTES, UniformScheme, uniform_average, window_slot
from lawa.checkpoint_io import (
    CheckpointFile,
    open_checkpoint,
    read_checkpoint,
    read_checkpoint_header,
    write_checkpoint,
)
from lawa.cli import main
from lawa.config import RunConfig
from lawa.engine import ModelSpec, build_dataset, init_params, model_spec_for, train_run
from lawa.errors import (
    FormatError,
    IoError,
    NonFiniteError,
    StructureMismatch,
)
from lawa.params import Checkpoint, ParameterSet
from testutil import masked_files, mixed_pset, pset, random_pset, traced

TINY = [
    "--dataset", "spirals", "--n-per-class", "40", "--noise", "0.15",
    "--hidden", "8", "--epochs", "6", "--batch-size", "16", "--lr", "0.1",
    "--momentum", "0.9", "--schedule", "cosine", "--seed", "1", "--k", "3",
]

# FILE_SLOT_BYTES for a window held in memory, and for one held in files.
MODES = {"memory": 1 << 62, "files": 0}


def cli_ok(args):
    assert main(args) == 0


def spied_spills(monkeypatch):
    """Record each file reference that averaging opens."""
    spills = []

    def recorded(path):
        spills.append(path)
        return open_checkpoint(path)

    monkeypatch.setattr(averaging, "open_checkpoint", recorded)
    return spills


def in_both_modes(tmp_path, monkeypatch, run):
    """Call ``run()`` in a fresh working directory once per window mode;
    returns each mode's directory and how many slots it held in files."""
    spills = spied_spills(monkeypatch)
    out = {}
    for mode, limit in MODES.items():
        monkeypatch.setattr(averaging, "FILE_SLOT_BYTES", limit)
        work = tmp_path / mode
        work.mkdir()
        # Relative output paths, so config.resolved names the same `out`.
        monkeypatch.chdir(work)
        before = len(spills)
        run()
        out[mode] = (work, len(spills) - before)
    assert out["memory"][1] == 0 and out["files"][1] > 0
    return out["memory"][0], out["files"][0]


class TestRunsAreBitwiseTheInMemoryWindow:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("use_bn", ["--use-bn", "--no-use-bn"])
    @pytest.mark.parametrize("save_every_steps", ["0", "3"])  # 4 steps per epoch
    def test_train(self, tmp_path, monkeypatch, dtype, use_bn, save_every_steps):
        args = [
            "train", *TINY, "--dtype", dtype, use_bn, "--save-every-steps", save_every_steps,
            "--save-averaged", "--out", "run",
        ]
        memory, files = in_both_modes(tmp_path, monkeypatch, lambda: cli_ok(args))
        got = masked_files(files / "run")
        assert got == masked_files(memory / "run")
        assert sum(name.startswith("lawa_") for name in got) >= 4

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("links", ["linked", "copied"])
    def test_sweep(self, tmp_path, monkeypatch, links, dtype):
        if links == "copied":
            def no_link(src, dst):
                raise OSError("links refused")

            monkeypatch.setattr(os, "link", no_link)
        args = [
            "sweep", *TINY, "--dtype", dtype, "--use-bn", "--save-averaged",
            "--schemes", "uniform,ema,polyak",
            "--k-values", "2,3", "--out", "sweep",
        ]
        memory, files = in_both_modes(tmp_path, monkeypatch, lambda: cli_ok(args))
        variants = sorted(p.name for p in (files / "sweep").iterdir() if p.is_dir())
        assert variants == ["ema", "polyak", "uniform", "uniform_k2", "uniform_k3"]
        for name in variants:
            assert masked_files(files / "sweep" / name) == masked_files(memory / "sweep" / name)
        links_made = (files / "sweep" / "uniform_k2" / "ckpt_e00003.lawa").stat().st_nlink
        assert links_made == (1 if links == "copied" else 5)

    @pytest.mark.parametrize("scheme", ["uniform", "ema", "polyak"])
    def test_lawa_average(self, tmp_path, monkeypatch, scheme):
        run = tmp_path / "run"
        assert main(["train", *TINY, "--use-bn", "--out", str(run)]) == 0
        spills = spied_spills(monkeypatch)
        written, opened = {}, {}
        for mode, limit in MODES.items():
            monkeypatch.setattr(averaging, "FILE_SLOT_BYTES", limit)
            out = tmp_path / f"{mode}.lawa"
            args = ["average", "--dir", str(run), "--k", "4", "--scheme", scheme, "--out", str(out)]
            assert main(args) == 0
            written[mode] = out.read_bytes()
            opened[mode], spills[:] = list(spills), []
        assert written["files"] == written["memory"]
        # Every scheme takes each window file as a file slot from the size on.
        newest = sorted(run.glob("ckpt_*.lawa"))[-4:]
        assert opened == {"memory": [], "files": newest}


class TestTheSizeRule:
    """A slot is held in its file from FILE_SLOT_BYTES of file size on."""

    @pytest.mark.parametrize("below", [1, 0], ids=["below", "at"])
    def test_each_side_of_the_constant(self, tmp_path, below):
        rng = np.random.default_rng(40)
        # The fewest f64 elements whose file reaches the limit, less `below`.
        probe = tmp_path / "probe.lawa"
        write_checkpoint(Checkpoint(pset({"w": [0.0]}), 0, 0), probe)
        overhead = probe.stat().st_size - 8
        elements = -(-(FILE_SLOT_BYTES - overhead) // 8) - below
        scheme = UniformScheme(k=3)
        ckpts = []
        for e in range(4):
            ckpts.append(Checkpoint(pset({"w": rng.normal(size=elements)}), e, 10 * e))
            path = tmp_path / f"c{e}.lawa"
            write_checkpoint(ckpts[-1], path)
            assert (path.stat().st_size >= FILE_SLOT_BYTES) == (not below)
            slot = window_slot(path, ckpts[-1])
            if below:  # a read-only copy, which the window owns
                assert slot == ckpts[-1] and not slot.params.flat.flags.writeable
                assert not np.shares_memory(slot.params.flat, ckpts[-1].params.flat)
            else:
                assert slot == open_checkpoint(path)
            assert window_slot(path) == (read_checkpoint(path) if below else slot)
            average = scheme.observe(slot)
        assert all(isinstance(s, CheckpointFile) != below for s in scheme.window)
        want = uniform_average(ckpts[1:])
        assert average.flat.tobytes() == want.flat.tobytes()

    def test_the_benchmark_models_fall_on_either_side(self):
        def set_bytes(hidden, use_bn):
            spec = ModelSpec(widths=(2, *hidden, 2), use_bn=(use_bn,) * len(hidden))
            return init_params(spec).flat.nbytes

        assert set_bytes((64, 64), False) < FILE_SLOT_BYTES <= set_bytes((512, 512), True)

    def test_a_window_keeps_the_slots_it_is_handed(self):
        scheme = UniformScheme(k=2)
        for e in range(3):
            scheme.observe(Checkpoint(pset({"w": np.ones(FILE_SLOT_BYTES)}), e, e))
        assert all(isinstance(s, Checkpoint) for s in scheme.window)

    @pytest.mark.parametrize("hidden", ["8", "256,256"], ids=["memory", "files"])
    def test_the_window_is_rebuilt_from_the_file_list(self, tmp_path, monkeypatch, hidden):
        schemes = []
        make_scheme = engine.make_scheme

        def recorded(*args):
            schemes.append(make_scheme(*args))
            return schemes[-1]

        monkeypatch.setattr(engine, "make_scheme", recorded)
        run = tmp_path / "run"
        assert main(["train", *TINY, "--use-bn", "--hidden", hidden, "--out", str(run)]) == 0
        (trained,) = schemes
        paths = sorted(run.glob("ckpt_*.lawa"), key=read_checkpoint_header)
        in_files = hidden != "8"
        assert (paths[-1].stat().st_size >= FILE_SLOT_BYTES) == in_files
        rebuilt = UniformScheme(trained.k)
        for path in paths[-trained.k :]:
            rebuilt.observe(window_slot(path))
        assert all(isinstance(s, CheckpointFile) == in_files for s in trained.window)
        assert list(rebuilt.window) == list(trained.window)
        newest = read_checkpoint(paths[-1])
        following = Checkpoint(newest.params, newest.epoch + 1, newest.step + 1)
        want = trained.observe(following)
        assert rebuilt.observe(following).flat.tobytes() == want.flat.tobytes()


def written(tmp_path, params, epoch, name=None):
    """``params`` at ``epoch`` written to a file, and its reference."""
    ckpt = Checkpoint(params, epoch, 7 * epoch)
    path = tmp_path / (name or f"c{epoch}.lawa")
    write_checkpoint(ckpt, path)
    return ckpt, open_checkpoint(path)


class TestCheckpointFile:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("run", [1, 3, 7, 1 << 15])
    def test_runs_read_back_every_value(self, tmp_path, dtype, run):
        params = mixed_pset(np.random.default_rng(41), dtype)
        _, ref = written(tmp_path, params, 2)
        assert ref.size == ref.path.stat().st_size
        got = np.full(params.flat.size, np.nan, dtype)
        names = []
        for name, start, values in ref.runs(np.empty(run, dtype)):
            assert values.size <= run
            got[start : start + values.size] = values
            names.append(name)
        assert got.tobytes() == params.flat.tobytes()
        assert sorted(set(names)) == sorted(n for n, a in params.items() if a.size)

    def test_a_truncated_file_is_named(self, tmp_path):
        _, ref = written(tmp_path, random_pset(np.random.default_rng(42)), 1)
        ref.path.write_bytes(ref.path.read_bytes()[:-8])
        with pytest.raises(FormatError, match=f"{ref.path}.*changed since it was written"):
            list(ref.runs(np.empty(4)))

    def test_a_file_of_another_epoch_is_named(self, tmp_path):
        rng = np.random.default_rng(43)
        _, ref = written(tmp_path, random_pset(rng), 1)
        written(tmp_path, random_pset(rng), 2, name=ref.path.name)
        with pytest.raises(FormatError, match=f"{ref.path}.*epoch 1, step 7: its header"):
            list(ref.runs(np.empty(4)))

    def test_a_renamed_entry_is_named(self, tmp_path):
        rng = np.random.default_rng(44)
        _, ref = written(tmp_path, pset({"a": [1.0, 2.0], "b": [3.0]}), 1)
        written(tmp_path, pset({"a": [1.0, 2.0], "c": [3.0]}), 1, name=ref.path.name)
        with pytest.raises(FormatError, match="header of 'b' differs"):
            list(ref.runs(np.empty(4)))

    def test_a_reshaped_entry_is_named(self, tmp_path):
        _, ref = written(tmp_path, pset({"a": np.zeros((2, 3)), "b": [3.0]}), 1)
        written(tmp_path, pset({"a": np.zeros((3, 2)), "b": [3.0]}), 1, name=ref.path.name)
        with pytest.raises(FormatError, match="header of 'a' differs"):
            list(ref.runs(np.empty(4)))

    def test_a_missing_file_is_an_io_error(self, tmp_path):
        _, ref = written(tmp_path, random_pset(np.random.default_rng(45)), 1)
        ref.path.unlink()
        with pytest.raises(IoError, match=str(ref.path)):
            list(ref.runs(np.empty(4)))


class TestUniformAverageOverFiles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_mix_of_slots_is_bitwise_the_in_memory_average(self, tmp_path, monkeypatch, dtype):
        monkeypatch.setattr(averaging, "READ_BLOCK", 5)
        rng = np.random.default_rng(46)
        pairs = [written(tmp_path, mixed_pset(rng, dtype), e) for e in range(5)]
        want = uniform_average([ckpt for ckpt, _ in pairs])
        for mask in (0b00001, 0b10110, 0b01111, 0b11110):
            slots = [ref if mask >> i & 1 else ckpt for i, (ckpt, ref) in enumerate(pairs)]
            got = uniform_average(slots)
            assert got.dtype == dtype
            assert got.flat.tobytes() == want.flat.tobytes(), bin(mask)

    def test_a_non_finite_file_value_is_named_by_epoch_and_entry(self, tmp_path):
        rng = np.random.default_rng(47)
        bad = mixed_pset(rng).as_dict()
        bad["b"][3] = np.nan
        _, ref = written(tmp_path, ParameterSet(bad), 1)
        newest, _ = written(tmp_path, mixed_pset(rng), 2)
        with pytest.raises(NonFiniteError, match="checkpoint at epoch 1: entry 'b'"):
            uniform_average([ref, newest])

    def test_a_file_of_another_structure_is_named_by_entry(self, tmp_path):
        _, ref = written(tmp_path, pset({"a": [1.0], "other": [2.0]}), 1)
        newest, _ = written(tmp_path, pset({"a": [1.0], "b": [2.0]}), 2)
        with pytest.raises(StructureMismatch, match="other"):
            uniform_average([ref, newest])
        scheme = UniformScheme(k=2)
        scheme.observe(ref)
        assert isinstance(scheme.window[-1], CheckpointFile)
        with pytest.raises(StructureMismatch, match="other"):
            scheme.observe(newest)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_window_of_files_alone_takes_the_layout_of_the_first(self, tmp_path, dtype):
        rng = np.random.default_rng(48)
        pairs = [written(tmp_path, mixed_pset(rng, dtype), e) for e in range(3)]
        want = uniform_average([ckpt for ckpt, _ in pairs])
        got = uniform_average([ref for _, ref in pairs])
        assert got == want and got.buffer is not None
        assert got.flat.tobytes() == want.flat.tobytes()


def wide_cfg(tmp_path, name, **overrides) -> RunConfig:
    """A 2-256-256-2 batch-norm model, above FILE_SLOT_BYTES: 10 steps an epoch."""
    base = dict(
        dataset="spirals", n_per_class=100, classes=2, hidden=(256, 256), use_bn=True,
        batch_size=16, lr=0.05, momentum=0.9, seed=5, out=str(tmp_path / name),
    )
    return RunConfig(**{**base, **overrides})


class TestWindowMemory:
    def test_a_wider_window_holds_no_more_sets(self, tmp_path):
        peaks = {}
        for k in (2, 8):
            cfg = wide_cfg(tmp_path, f"k{k}", k=k, epochs=9, save_averaged=True)
            dataset = build_dataset(cfg)
            one_set = init_params(model_spec_for(cfg, dataset)).flat.nbytes
            assert one_set >= FILE_SLOT_BYTES
            records, peaks[k], _ = traced(train_run, cfg, dataset)
            assert records[-1].avg_val_loss is not None
        # A window held in memory would add six sets.
        assert peaks[8] - peaks[2] < one_set, (peaks, one_set)

    def test_lawa_average_of_16_holds_a_few_sets(self, tmp_path):
        run = tmp_path / "run"
        cfg = wide_cfg(tmp_path, "run", epochs=2, save_every_steps=1, k=2)
        train_run(cfg)
        one_set = init_params(model_spec_for(cfg, build_dataset(cfg))).flat.nbytes
        assert len(list(run.glob("ckpt_*.lawa"))) == 20
        args = ["average", "--dir", str(run), "--k", "16", "--out", str(tmp_path / "avg.lawa")]
        code, peak, _ = traced(main, args)
        assert code == 0
        # Each window file is a file slot: the average holds the float64 sum
        # (the average itself) and one read buffer. A window in memory would
        # hold 16 sets.
        assert peak < 2 * one_set, (peak, one_set)
        want = uniform_average([read_checkpoint(p) for p in sorted(run.glob("ckpt_*"))[-16:]])
        assert read_checkpoint(tmp_path / "avg.lawa").params.flat.tobytes() == want.flat.tobytes()

    def test_a_running_fold_of_16_holds_its_state_and_the_average(self, tmp_path):
        run = tmp_path / "run"
        cfg = wide_cfg(tmp_path, "run", epochs=2, save_every_steps=1, k=2)
        train_run(cfg)
        one_set = init_params(model_spec_for(cfg, build_dataset(cfg))).flat.nbytes
        window = [read_checkpoint(p) for p in sorted(run.glob("ckpt_*"))[-16:]]
        # A fold holds its state, one read buffer and one float64 run, and
        # then the state and the average it hands out.
        for scheme in ("polyak", "ema"):
            out = tmp_path / f"{scheme}.lawa"
            args = ["average", "--dir", str(run), "--k", "16", "--scheme", scheme, "--out", str(out)]
            code, peak, _ = traced(main, args)
            assert code == 0
            assert peak < 3 * one_set, (scheme, peak, one_set)
            folding = averaging.make_scheme(scheme)
            for ckpt in window:
                want = folding.observe(ckpt)
            assert read_checkpoint(out).params.flat.tobytes() == want.flat.tobytes()


class TestAWindowFileThatChanges:
    """A window file changed between save events stops the run with
    :class:`FormatError` naming the file; the CLI exits 2."""

    @pytest.mark.parametrize("fault", ["truncate", "replace"])
    def test_run_stops_naming_the_file(self, tmp_path, monkeypatch, capsys, fault):
        monkeypatch.setattr(averaging, "FILE_SLOT_BYTES", 0)
        run = tmp_path / "run"
        victim = run / "ckpt_e00001.lawa"
        write = engine.write_checkpoint

        def tampering(ckpt, path):
            if ckpt.epoch == 3 and path.name.startswith("ckpt_"):
                if fault == "truncate":
                    victim.write_bytes(victim.read_bytes()[:-1])
                else:
                    shutil.copyfile(run / "ckpt_e00000.lawa", victim)
            return write(ckpt, path)

        monkeypatch.setattr(engine, "write_checkpoint", tampering)
        assert main(["train", *TINY, "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {victim} " in err
        expected = "changed since it was written" if fault == "truncate" else "its header differs"
        assert expected in err
        assert not (run / "ckpt_e00004.lawa").exists()
