import argparse
import errno
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lawa
from lawa import averaging, checkpoint_io, cli, compare, engine, metrics, optim
from lawa.averaging import DEFAULT_EMA_ALPHA
from lawa.checkpoint_io import read_checkpoint
from lawa.cli import _effective_mapping, build_parser, main
from lawa.compare import compare_run
from lawa.config import CHOICES, SCHEMES, RunConfig, config_from_mapping, resolved_text
from lawa.errors import ConfigError, SchemaError
from lawa.metrics import read_metrics
from testutil import masked_files, max_abs_diff


def run_cli(args):
    """In-process invocation; returns the exit code."""
    return main(args)


def run_cli_subprocess(args, cwd):
    """Run ``python -m lawa.cli`` in a child process.

    The child imports ``lawa`` from the same directory as this process did,
    so a relative or missing PYTHONPATH cannot leave it without the package
    (or running an installed copy instead of the code under test).
    """
    env = os.environ.copy()
    src = str(Path(lawa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lawa.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


TINY = [
    "--dataset", "spirals", "--n-per-class", "40", "--noise", "0.15",
    "--hidden", "8", "--epochs", "6", "--batch-size", "16", "--lr", "0.1",
    "--momentum", "0.9", "--schedule", "cosine", "--seed", "1",
]


def train_tiny(out, extra=()):
    code = run_cli(["train", *TINY, *extra, "--out", str(out)])
    assert code == 0
    return out


def parse_eval_line(printed):
    line = next(l for l in printed.splitlines() if l.startswith("loss="))
    loss = float(line.split("loss=")[1].split()[0])
    acc = float(line.split("accuracy=")[1].split()[0])
    return loss, acc


class TestTrain:
    def test_row_count_equals_epochs(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run", ["--scheme", "uniform", "--k", "3"])
        rows = read_metrics(out / "metrics.csv")
        assert len(rows) == 6
        assert "6 epochs" in capsys.readouterr().out

    def test_metrics_header_is_exact(self, tmp_path):
        out = train_tiny(tmp_path / "run")
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == (
            "epoch,step,lr,train_loss,train_acc,val_loss,val_acc,"
            "avg_val_loss,avg_val_acc,wall_seconds"
        )

    def test_k_zero_exits_2(self, tmp_path):
        code = run_cli(
            ["train", *TINY, "--scheme", "uniform", "--k", "0", "--out", str(tmp_path / "r")]
        )
        assert code == 2

    def test_k_over_16_warns_on_stderr_and_proceeds(self, tmp_path):
        result = run_cli_subprocess(
            [
                "train", *TINY, "--epochs", "2", "--scheme", "uniform",
                "--k", "20", "--out", str(tmp_path / "r"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0
        assert "k>16" in result.stderr
        assert (tmp_path / "r" / "metrics.csv").exists()

    def test_config_warning_is_one_line_without_a_source_path(self, tmp_path):
        result = run_cli_subprocess(
            [
                "train", *TINY, "--epochs", "2", "--scheme", "uniform",
                "--k", "20", "--out", str(tmp_path / "r"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0
        assert result.stderr.splitlines() == [
            "warning: averaging window k=20: k>16 tends to give worse results"
        ]
        assert "averaging.py" not in result.stderr

    def test_divergent_run_exits_1(self, tmp_path):
        result = run_cli_subprocess(
            [
                "train", *TINY, "--lr", "1e120", "--schedule", "constant",
                "--out", str(tmp_path / "r"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "run aborted at epoch 0" in result.stderr
        assert "non-finite" in result.stderr

    def test_huge_class_label_exits_2_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("x,label\n1,0\n2,1\n3,1000000000\n", encoding="utf-8")
        out = tmp_path / "r"
        code = run_cli(
            ["train", "--dataset", "csv", "--csv", str(data), "--label-column", "label",
             "--batch-size", "1", "--out", str(out)]
        )
        assert code == 2
        assert "class label 1000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_config_resolved_replay_is_byte_identical(self, tmp_path):
        out1 = train_tiny(tmp_path / "one", ["--scheme", "uniform", "--k", "3"])
        code = run_cli(
            ["train", "--config", str(out1 / "config.resolved"), "--out", str(tmp_path / "two")]
        )
        assert code == 0

        def body(path):  # strip the wall_seconds field, which is timing noise
            return [
                line.rsplit(",", 1)[0] for line in path.read_text().splitlines()
            ]

        assert body(out1 / "metrics.csv") == body(tmp_path / "two" / "metrics.csv")
        for f in sorted(out1.glob("*.lawa")):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_explicit_flags_override_config_file(self, tmp_path):
        out1 = train_tiny(tmp_path / "one")
        code = run_cli(
            [
                "train", "--config", str(out1 / "config.resolved"),
                "--epochs", "2", "--out", str(tmp_path / "two"),
            ]
        )
        assert code == 0
        assert len(read_metrics(tmp_path / "two" / "metrics.csv")) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs=2\nbogus=1\n")
        assert run_cli(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2

    def test_duplicate_config_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        bad = tmp_path / "dup.cfg"
        bad.write_text("epochs=2\n# comment\nseed=1\nepochs=3\n")
        assert run_cli(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "'epochs'" in err and "lines 1 and 4" in err
        assert not (tmp_path / "r").exists()

    def test_used_out_dir_exits_2_and_leaves_it_unchanged(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run", ["--epochs", "4"])
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code = run_cli(["train", *TINY, "--epochs", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(out) in err and "ckpt_e00000.lawa" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_dir_with_only_other_files_is_used(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        train_tiny(out, ["--epochs", "2"])
        assert (out / "notes.txt").read_text() == "kept"
        assert len(read_metrics(out / "metrics.csv")) == 2


class TestAverage:
    def test_selection_rule_and_oracle(self, tmp_path):
        out = train_tiny(tmp_path / "run")
        # naive mean oracle over the 3 newest of the run's checkpoints
        ckpts = [read_checkpoint(out / f"ckpt_e{e:05d}.lawa") for e in range(3, 6)]
        acc = {
            name: sum(c.params[name].astype(np.float64) for c in ckpts) / 3.0
            for name in ckpts[0].params.names
        }
        code = run_cli(
            ["average", "--dir", str(out), "--k", "3", "--out", str(tmp_path / "avg.lawa")]
        )
        assert code == 0
        averaged = read_checkpoint(tmp_path / "avg.lawa")
        assert averaged.epoch == 5
        for name, arr in averaged.params.items():
            np.testing.assert_allclose(arr, acc[name], rtol=1e-12)

    def test_k1_copies_newest(self, tmp_path):
        out = train_tiny(tmp_path / "run")
        code = run_cli(
            ["average", "--dir", str(out), "--k", "1", "--out", str(tmp_path / "avg.lawa")]
        )
        assert code == 0
        newest = read_checkpoint(out / "ckpt_e00005.lawa")
        averaged = read_checkpoint(tmp_path / "avg.lawa")
        assert averaged.params == newest.params
        assert averaged.epoch == newest.epoch

    def unread(self, monkeypatch):
        def refuse(path):
            raise AssertionError(f"{path} was read in full")

        monkeypatch.setattr(averaging, "read_checkpoint", refuse)

    def test_k1_refuses_an_average_that_ties_the_newest(self, tmp_path, monkeypatch, capsys):
        out = train_tiny(tmp_path / "run")
        assert run_cli(["average", "--dir", str(out), "--k", "3", "--out", str(out / "zz_avg.lawa")]) == 0
        self.unread(monkeypatch)
        code = run_cli(["average", "--dir", str(out), "--k", "1", "--out", str(tmp_path / "k1.lawa")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ckpt_e00005.lawa" in err and "zz_avg.lawa" in err and "ambiguous" in err
        assert not (tmp_path / "k1.lawa").exists()

    def test_a_tie_on_the_window_boundary_is_refused(self, tmp_path, monkeypatch, capsys):
        out = train_tiny(tmp_path / "run")
        (out / "ckpt_e00004b.lawa").write_bytes((out / "ckpt_e00004.lawa").read_bytes())
        self.unread(monkeypatch)
        code = run_cli(["average", "--dir", str(out), "--k", "2", "--out", str(tmp_path / "a.lawa")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ckpt_e00004.lawa" in err and "ckpt_e00004b.lawa" in err and "ambiguous" in err

    def test_insufficient_checkpoints_exits_2(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run")
        code = run_cli(
            ["average", "--dir", str(out), "--k", "99", "--out", str(tmp_path / "a.lawa")]
        )
        assert code == 2

    def test_mixed_structures_exit_2_naming_entry(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run")
        train_tiny(tmp_path / "other", ["--hidden", "4"])
        (tmp_path / "other" / "ckpt_e00005.lawa").rename(out / "zz_alien.lawa")
        code = run_cli(
            ["average", "--dir", str(out), "--k", "7", "--out", str(tmp_path / "a.lawa")]
        )
        assert code == 2
        assert "layer0" in capsys.readouterr().err

    # (scheme, training flags, offline window): the offline result over the
    # run's newest files equals the in-loop average saved at the last save.
    @pytest.mark.parametrize(
        "scheme, extra, k",
        [
            ("ema", ["--alpha", "0.7"], 6),
            ("polyak", [], 6),
            ("uniform", ["--k", "3"], 3),
            ("ema", ["--alpha", "0.7", "--save-every-steps", "3"], 8),
            ("uniform", ["--k", "4", "--save-every-steps", "3"], 4),
        ],
    )
    def test_offline_equals_the_in_loop_average(self, tmp_path, scheme, extra, k):
        out = train_tiny(
            tmp_path / "run", ["--scheme", scheme, "--save-averaged", *extra]
        )
        alpha = extra[extra.index("--alpha") + 1] if "--alpha" in extra else "0.9"
        avg = tmp_path / "avg.lawa"
        code = run_cli(
            ["average", "--dir", str(out), "--k", str(k), "--scheme", scheme,
             "--alpha", alpha, "--out", str(avg)]
        )
        assert code == 0
        in_loop = sorted(out.glob("lawa_*.lawa"))[-1]
        assert len(list(out.glob("ckpt_*.lawa"))) >= k
        assert avg.read_bytes() == in_loop.read_bytes()

    def test_scheme_none_exits_2(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run")
        code = run_cli(
            ["average", "--dir", str(out), "--k", "2", "--scheme", "none",
             "--out", str(tmp_path / "a.lawa")]
        )
        assert code == 2
        assert "no average" in capsys.readouterr().err
        assert not (tmp_path / "a.lawa").exists()

    def test_scheme_choices_are_the_config_schemes(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        scheme = next(
            a for a in sub.choices["average"]._actions if "--scheme" in a.option_strings
        )
        assert tuple(scheme.choices) == SCHEMES

    @pytest.mark.parametrize("scheme", ["uniform", "ema", "polyak"])
    def test_average_written_into_the_run_dir_is_refused_later(self, tmp_path, capsys, scheme):
        out = train_tiny(tmp_path / "run")
        inside = out / "averaged.lawa"
        assert run_cli(["average", "--dir", str(out), "--k", "6", "--out", str(inside)]) == 0
        code = run_cli(
            ["average", "--dir", str(out), "--k", "6", "--scheme", scheme,
             "--out", str(tmp_path / "again.lawa")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint epoch 5 is not greater than newest stored epoch 5" in err
        assert "ckpt_e00005.lawa" in err and "averaged.lawa" in err
        assert not (tmp_path / "again.lawa").exists()


class TestEval:
    def test_matches_metrics_csv_at_epoch(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run", ["--scheme", "uniform", "--k", "3"])
        rows = read_metrics(out / "metrics.csv")
        code = run_cli(
            [
                "eval", "--ckpt", str(out / "ckpt_e00004.lawa"),
                "--config", str(out / "config.resolved"),
            ]
        )
        assert code == 0
        loss, acc = parse_eval_line(capsys.readouterr().out)
        row = rows[4]
        assert float(f"{loss:.9g}") == pytest.approx(row["val_loss"], abs=1e-10)
        assert float(f"{acc:.9g}") == pytest.approx(row["val_acc"], abs=1e-10)

    def test_train_split_matches_metrics(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run")
        rows = read_metrics(out / "metrics.csv")
        run_cli(
            [
                "eval", "--ckpt", str(out / "ckpt_e00002.lawa"),
                "--config", str(out / "config.resolved"), "--split", "train",
            ]
        )
        loss, _ = parse_eval_line(capsys.readouterr().out)
        assert float(f"{loss:.9g}") == pytest.approx(rows[2]["train_loss"], abs=1e-10)

    def test_bn_free_model_same_result_for_all_modes(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run")
        capsys.readouterr()
        outputs = []
        for mode, extra in (
            ("off", []),
            ("recompute", ["--train-data", "train"]),
            ("copy", []),
        ):
            code = run_cli(
                [
                    "eval", "--ckpt", str(out / "ckpt_e00005.lawa"),
                    "--config", str(out / "config.resolved"),
                    "--bn-mode", mode, *extra,
                ]
            )
            assert code == 0
            outputs.append(parse_eval_line(capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_recompute_without_train_data_exits_2(self, tmp_path):
        out = train_tiny(tmp_path / "run", ["--use-bn"])
        code = run_cli(
            [
                "eval", "--ckpt", str(out / "ckpt_e00005.lawa"),
                "--config", str(out / "config.resolved"), "--bn-mode", "recompute",
            ]
        )
        assert code == 2

    def test_spec_mismatch_exits_2(self, tmp_path):
        out = train_tiny(tmp_path / "run")
        other = train_tiny(tmp_path / "other", ["--hidden", "4"])
        code = run_cli(
            [
                "eval", "--ckpt", str(other / "ckpt_e00005.lawa"),
                "--config", str(out / "config.resolved"),
            ]
        )
        assert code == 2

    def test_structure_check_draws_no_weights(self, tmp_path, monkeypatch, capsys):
        out = train_tiny(tmp_path / "run", ["--use-bn"])
        other = train_tiny(tmp_path / "other", ["--hidden", "4"])
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("eval drew initial weights")

        monkeypatch.setattr(engine, "init_params", refuse)
        monkeypatch.setattr(engine, "rng_for", refuse)
        config = ["--config", str(out / "config.resolved"), "--bn-mode", "off"]
        assert run_cli(["eval", "--ckpt", str(out / "ckpt_e00005.lawa"), *config]) == 0
        assert run_cli(["eval", "--ckpt", str(other / "ckpt_e00005.lawa"), *config]) == 2
        assert "'layer0.weight': shape (2, 8) vs (2, 4)" in capsys.readouterr().err

    def test_bn_copy_prints_what_off_prints(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run", ["--use-bn"])
        capsys.readouterr()
        printed = []
        for mode in ("off", "copy"):
            code = run_cli(
                [
                    "eval", "--ckpt", str(out / "ckpt_e00005.lawa"),
                    "--config", str(out / "config.resolved"), "--bn-mode", mode,
                ]
            )
            assert code == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_a_checkpoint_of_another_element_type_exits_2(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run", ["--dtype", "f32"])
        config = tmp_path / "f64.cfg"
        resolved = (out / "config.resolved").read_text(encoding="utf-8")
        config.write_text(resolved.replace("dtype=f32", "dtype=f64"), encoding="utf-8")
        code = run_cli(["eval", "--ckpt", str(out / "ckpt_e00005.lawa"), "--config", str(config)])
        assert code == 2
        assert "element types differ: float64 vs float32" in capsys.readouterr().err

    def test_unknown_train_data_exits_2(self, tmp_path):
        out = train_tiny(tmp_path / "run", ["--use-bn"])
        with pytest.raises(SystemExit) as err:
            run_cli(
                [
                    "eval", "--ckpt", str(out / "ckpt_e00005.lawa"),
                    "--config", str(out / "config.resolved"), "--train-data", "bogus",
                ]
            )
        assert err.value.code == 2


def write_metrics_csv(path, rows):
    header = (
        "epoch,step,lr,train_loss,train_acc,val_loss,val_acc,"
        "avg_val_loss,avg_val_acc,wall_seconds"
    )
    lines = [header]
    for epoch, (val, avg) in enumerate(rows):
        avg_text = "" if avg is None else f"{avg}"
        lines.append(f"{epoch},{epoch},0.1,0,0,{val},0,{avg_text},,0")
    path.write_text("\n".join(lines) + "\n")


class TestCompare:
    @pytest.mark.parametrize(
        "flag,higher",
        [("--higher-better", True), ("--lower-better", False), (None, None)],
    )
    def test_the_direction_flag_reaches_compare_run(self, tmp_path, monkeypatch, flag, higher):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [(1.0, 0.5), (0.5, 0.4)])
        seen, real = [], compare.compare_run

        def spy(path, metric, higher_better=None):
            seen.append(higher_better)
            return real(path, metric, higher_better)

        monkeypatch.setattr(compare, "compare_run", spy)
        assert run_cli(["compare", str(path), *([flag] if flag else [])]) == 0
        assert seen == [higher]

    def test_run_against_itself_has_zero_savings(self, tmp_path):
        path = tmp_path / "metrics.csv"
        # no averaged column values -> baseline compared against itself
        write_metrics_csv(path, [(3.0, None), (1.0, None), (2.0, None), (0.5, None)])
        comp = compare_run(path, "val_loss")
        assert [r.savings for r in comp.rows] == [0, 0, 0, 0]

    def test_dominating_average_gets_remaining_horizon(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(
            path, [(1.0, 0.1), (0.9, 0.09), (0.8, 0.08), (0.7, 0.07)]
        )
        comp = compare_run(path, "val_loss")
        assert [r.savings for r in comp.rows] == [3, 2, 1, 0]

    def test_constructed_fixture_reports_expected_saving(self, tmp_path):
        path = tmp_path / "metrics.csv"
        # averaged loss at epoch 10 equals baseline loss at epoch 25
        rows = []
        for epoch in range(30):
            val = 3.0 - 0.1 * epoch  # 3.0 .. 0.1, hits 0.5 at epoch 25
            avg = 0.5 if epoch == 10 else (3.0 - 0.1 * epoch + 0.001)
            rows.append((round(val, 6), round(avg, 6)))
        write_metrics_csv(path, rows)
        comp = compare_run(path, "val_loss")
        by_epoch = {r.epoch: r for r in comp.rows}
        assert by_epoch[10].match_epoch == 25
        assert by_epoch[10].savings == 15

    def test_accuracy_metric_uses_higher_is_better(self, tmp_path):
        path = tmp_path / "metrics.csv"
        header = (
            "epoch,step,lr,train_loss,train_acc,val_loss,val_acc,"
            "avg_val_loss,avg_val_acc,wall_seconds"
        )
        lines = [header]
        accs = [(0.5, 0.7), (0.6, 0.8), (0.7, 0.9), (0.8, 0.95)]
        for epoch, (acc, avg) in enumerate(accs):
            lines.append(f"{epoch},{epoch},0.1,0,0,0,{acc},,{avg},0")
        path.write_text("\n".join(lines) + "\n")
        comp = compare_run(path, "val_acc")
        assert comp.higher_better
        assert comp.rows[0].match_epoch == 2  # baseline first reaches 0.7 at epoch 2
        assert comp.rows[0].savings == 2

    def test_missing_metric_column_exits_2(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [(1.0, None)])
        assert run_cli(["compare", str(path), "--metric", "nope"]) == 2
        with pytest.raises(SchemaError):
            compare_run(path, "nope")

    def test_cli_writes_comparison_csv_and_summary(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [(1.0, 0.5), (0.6, 0.4), (0.5, 0.3)])
        out_csv = tmp_path / "cmp.csv"
        code = run_cli(
            ["compare", str(path), str(path), "--out", str(out_csv), "--targets", "0.45"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "max_savings=2" in printed
        assert "target=0.45" in printed
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "run,epoch,avg_value,baseline_value,match_epoch,savings"
        assert len(lines) == 1 + 2 * 3

    def test_comparison_csv_bytes(self, tmp_path):
        path = tmp_path / "run" / "metrics.csv"
        path.parent.mkdir()
        write_metrics_csv(path, [(1.0, 0.5), (0.6, 0.4), (0.5, 0.3)])
        out_csv = tmp_path / "cmp.csv"
        assert run_cli(["compare", str(path), "--out", str(out_csv)]) == 0
        assert out_csv.read_bytes() == (
            b"run,epoch,avg_value,baseline_value,match_epoch,savings\n"
            b"run,0,0.5,1,2,2\n"
            b"run,1,0.4,0.6,,1\n"
            b"run,2,0.3,0.5,,0\n"
        )

    def test_failed_comparison_replace_keeps_the_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "run" / "metrics.csv"
        path.parent.mkdir()
        write_metrics_csv(path, [(1.0, 0.5), (0.6, 0.4)])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "cmp.csv").write_text("old\n", encoding="utf-8")

        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_io.os, "replace", failing)
        assert run_cli(["compare", str(path), "--out", str(out_dir / "cmp.csv")]) == 2
        assert (out_dir / "cmp.csv").read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in out_dir.iterdir()] == ["cmp.csv"]

    def test_offline_online_agreement(self, tmp_path):
        out = train_tiny(
            tmp_path / "run", ["--scheme", "uniform", "--k", "3", "--save-averaged"]
        )
        code = run_cli(
            ["average", "--dir", str(out), "--k", "3", "--out", str(tmp_path / "off.lawa")]
        )
        assert code == 0
        online = read_checkpoint(out / "lawa_e00005.lawa").params
        offline = read_checkpoint(tmp_path / "off.lawa").params
        assert max_abs_diff(online, offline) <= 1e-12


class TestSweep:
    def test_runs_both_schemes_and_emits_combined_csv(self, tmp_path):
        root = tmp_path / "sweep"
        code = run_cli(
            [
                "sweep", *TINY, "--epochs", "4", "--k", "2",
                "--schemes", "uniform,ema", "--out", str(root),
            ]
        )
        assert code == 0
        text = (root / "sweep.csv").read_text().splitlines()
        assert text[0].startswith("variant,epoch,")
        variants = {line.split(",")[0] for line in text[1:]}
        assert variants == {"uniform", "ema"}
        assert (root / "uniform" / "metrics.csv").exists()
        assert (root / "ema" / "metrics.csv").exists()

    def test_k_values_sweep(self, tmp_path):
        root = tmp_path / "sweep"
        code = run_cli(
            [
                "sweep", *TINY, "--epochs", "4", "--schemes", "",
                "--k-values", "1,2", "--out", str(root),
            ]
        )
        assert code == 0
        variants = {
            line.split(",")[0]
            for line in (root / "sweep.csv").read_text().splitlines()[1:]
        }
        assert variants == {"uniform_k1", "uniform_k2"}

    def test_non_integer_k_value_exits_2_naming_it(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        code = run_cli(
            ["sweep", *TINY, "--schemes", "", "--k-values", "2,x", "--out", str(root)]
        )
        assert code == 2
        assert "'x'" in capsys.readouterr().err
        assert not root.exists()

    def test_invalid_variant_stops_before_any_training(self, tmp_path):
        root = tmp_path / "sweep"
        code = run_cli(
            [
                "sweep", *TINY, "--schemes", "uniform,ema", "--k-values", "0",
                "--out", str(root),
            ]
        )
        assert code == 2
        assert not root.exists()

    def test_finished_sweep_root_exits_2_without_training(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        argv = ["sweep", *TINY, "--epochs", "2", "--schemes", "uniform,ema", "--out", str(root)]
        assert run_cli(argv) == 0
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "variant=" not in captured.out
        assert str(root / "sweep.csv") in captured.err
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before

    def test_a_finished_root_is_refused_whatever_the_new_variants(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        argv = ["sweep", *TINY, "--epochs", "2", "--out", str(root)]
        assert run_cli([*argv, "--schemes", "ema"]) == 0
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli([*argv, "--schemes", "polyak"]) == 2
        assert str(root / "sweep.csv") in capsys.readouterr().err
        assert not (root / "polyak").exists()
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before

    def test_a_root_holding_other_files_is_accepted(self, tmp_path):
        root = tmp_path / "sweep"
        root.mkdir()
        (root / "notes.txt").write_text("kept")
        argv = ["sweep", *TINY, "--epochs", "2", "--schemes", "ema", "--out", str(root)]
        assert run_cli(argv) == 0
        assert (root / "notes.txt").read_text() == "kept"
        assert (root / "sweep.csv").exists()

    def test_used_later_variant_dir_stops_before_the_first_trains(self, tmp_path):
        root = tmp_path / "sweep"
        (root / "ema").mkdir(parents=True)
        (root / "ema" / "metrics.csv").write_text("old")
        code = run_cli(
            ["sweep", *TINY, "--epochs", "2", "--schemes", "uniform,ema", "--out", str(root)]
        )
        assert code == 2
        assert not (root / "uniform").exists()
        assert (root / "ema" / "metrics.csv").read_text() == "old"

    def test_duplicate_variant_exits_2(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        code = run_cli(
            ["sweep", *TINY, "--schemes", "uniform,uniform", "--out", str(root)]
        )
        assert code == 2
        assert "duplicate sweep variants: uniform" in capsys.readouterr().err
        assert not root.exists()


# The variant directories of `--schemes uniform,ema,polyak --k-values 2,3`
# and the `lawa train` flags of each.
SWEEP_VARIANTS = {
    "uniform": ["--scheme", "uniform"],
    "ema": ["--scheme", "ema"],
    "polyak": ["--scheme", "polyak"],
    "uniform_k2": ["--scheme", "uniform", "--k", "2"],
    "uniform_k3": ["--scheme", "uniform", "--k", "3"],
}


class TestSharedTrajectory:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--use-bn", "--save-averaged", "--optimizer", "lookahead"],
            ["--save-every-steps", "3"],
            ["--dtype", "f32", "--use-bn", "--save-averaged", "--save-every-steps", "3"],
        ],
        ids=["bn_lookahead_save_averaged", "save_every_steps", "f32_bn_save_averaged_steps"],
    )
    def test_each_variant_equals_a_separate_train(self, tmp_path, monkeypatch, extra):
        base = [*TINY, "--k", "4", "--alpha", "0.7", *extra]
        swept, trained = tmp_path / "swept", tmp_path / "trained"
        swept.mkdir()
        trained.mkdir()
        # Relative output paths, so config.resolved names the same `out`.
        monkeypatch.chdir(swept)
        code = run_cli(
            [
                "sweep", *base, "--schemes", "uniform,ema,polyak", "--k-values", "2,3",
                "--out", "sweep",
            ]
        )
        assert code == 0
        monkeypatch.chdir(trained)
        for name, flags in SWEEP_VARIANTS.items():
            assert run_cli(["train", *base, *flags, "--out", f"sweep/{name}"]) == 0

        assert sorted(p.name for p in (swept / "sweep").iterdir()) == sorted(
            [*SWEEP_VARIANTS, "sweep.csv"]
        )
        for name in SWEEP_VARIANTS:
            got = masked_files(swept / "sweep" / name)
            assert got == masked_files(trained / "sweep" / name), name
            assert any(n.startswith("ckpt_") for n in got)
            if "--save-averaged" in extra:
                assert any(n.startswith("lawa_") for n in got)

    def test_backward_runs_once_per_step_for_all_variants(self, tmp_path, monkeypatch):
        calls = []
        original = engine.backward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "backward", counting)
        code = run_cli(
            [
                "sweep", *TINY, "--schemes", "uniform,ema,polyak", "--k-values", "2",
                "--out", str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        # 6 epochs; 64 of the 80 samples train, in batches of 16: 4 steps each
        assert len(calls) == 6 * 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_sweep_exits_1_and_stops_every_variant(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        code = run_cli(
            [
                "sweep", *TINY, "--lr", "1e120", "--schedule", "constant",
                "--schemes", "uniform,ema", "--out", str(root),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "run aborted at epoch 0" in err
        assert "non-finite" in err
        for name in ("uniform", "ema"):
            assert read_metrics(root / name / "metrics.csv") == []
        assert not (root / "sweep.csv").exists()


def run_flags(parser_name):
    """Primary option string of every RunConfig flag of a subcommand."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0] for a in sub.choices[parser_name]._actions}
    return flags - {"-h", "--config", "--schemes", "--k-values"}


# A value other than the default for every RunConfig field.
NON_DEFAULT = dict(
    dataset="csv", n_per_class=50, classes=3, noise=0.1, csv="data.csv",
    label_column="y", hidden=(5, 3), use_bn=True, dtype="f32",
    optimizer="lookahead", lr=0.05, momentum=0.5, beta1=0.8, beta2=0.99,
    adam_eps=1e-7, lookahead_alpha=0.6, lookahead_k=3, lookahead_inner="adam",
    schedule="poly_warmup", warmup_steps=10, end_lr=0.001, power=2.0,
    epochs=7, batch_size=32, seed=3, scheme="ema", k=4, alpha=0.75,
    bn_mode="copy", save_every_steps=5, save_averaged=True, out="elsewhere",
)


class TestSchema:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_one_flag_per_config_field(self, command):
        want = {"--" + f.name.replace("_", "-") for f in fields(RunConfig)}
        assert run_flags(command) == want

    def test_flags_resolved_and_config_round_trip(self, tmp_path):
        default = RunConfig()
        assert set(NON_DEFAULT) == {f.name for f in fields(RunConfig)}
        for name, value in NON_DEFAULT.items():
            assert value != getattr(default, name), name
        want = RunConfig(**NON_DEFAULT)

        argv = ["train"]
        for name, value in NON_DEFAULT.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(value, bool):
                argv.append(flag)
            elif isinstance(value, tuple):
                argv += [flag, ",".join(str(v) for v in value)]
            else:
                argv += [flag, str(value)]
        parser = build_parser()
        from_flags = config_from_mapping(_effective_mapping(parser.parse_args(argv)))
        assert from_flags == want

        resolved = tmp_path / "config.resolved"
        resolved.write_text(resolved_text(from_flags), encoding="utf-8")
        args = parser.parse_args(["train", "--config", str(resolved)])
        assert config_from_mapping(_effective_mapping(args)) == want

    def test_run_config_defaults_are_the_module_constants(self):
        cfg = RunConfig()
        assert cfg.k == averaging.DEFAULT_WINDOW
        assert cfg.alpha == averaging.DEFAULT_EMA_ALPHA
        assert cfg.momentum == optim.DEFAULT_MOMENTUM
        assert cfg.beta1 == optim.DEFAULT_BETA1
        assert cfg.beta2 == optim.DEFAULT_BETA2
        assert cfg.adam_eps == optim.DEFAULT_ADAM_EPS
        assert cfg.lookahead_alpha == optim.DEFAULT_LOOKAHEAD_ALPHA
        assert cfg.lookahead_k == optim.DEFAULT_LOOKAHEAD_K

    # One bad value per rule of RunConfig.validate, as a config file gives it.
    @pytest.mark.parametrize(
        "field, value",
        [
            *((name, "bogus") for name in CHOICES),
            ("csv", ""),  # with dataset=csv
            ("hidden", "8,0"),
            ("epochs", "0"),
            ("batch_size", "0"),
            ("k", "0"),
            ("alpha", "1.5"),
            ("lr", "-0.1"),
            ("momentum", "-0.5"),
            ("save_every_steps", "-1"),
            ("warmup_steps", "-1"),
            ("seed", "-1"),
            ("out", ""),
        ],
    )
    def test_each_rule_names_its_field(self, field, value):
        mapping = {field: value, **({"dataset": "csv"} if field == "csv" else {})}
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            config_from_mapping(mapping)

    def test_average_alpha_default_is_the_ema_default(self):
        args = build_parser().parse_args(
            ["average", "--dir", "d", "--k", "2", "--out", "o"]
        )
        assert args.alpha == DEFAULT_EMA_ALPHA


class TestBadInputFiles:
    """A dataset, config or metrics file that cannot be used, or an output
    directory that cannot be created, exits 2, names the file on stderr,
    and leaves nothing behind."""

    def check_exit_2(self, capsys, args, named):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err

    @pytest.mark.parametrize(
        "name,content",
        [
            ("nope.csv", None),
            ("latin1.csv", b"x,y,label\n1,2,0\n\xe9,3,1\n"),
            ("nan.csv", b"x,y,label\n1,2,0\nnan,3,1\n"),
            ("inf.csv", b"x,y,label\n1,2,0\n1,inf,1\n"),
        ],
        ids=["missing", "latin1", "nan", "inf"],
    )
    def test_bad_dataset_file_writes_nothing(self, tmp_path, capsys, name, content):
        data = tmp_path / name
        if content is not None:
            data.write_bytes(content)
        out = tmp_path / "run"
        args = ["train", "--dataset", "csv", "--csv", str(data), "--label-column", "label",
                "--epochs", "1", "--batch-size", "1", "--out", str(out)]
        self.check_exit_2(capsys, args, name)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_non_utf8_config_file(self, tmp_path, capsys, command):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seed=1\nhidden=\xff\n")
        args = [command, "--config", str(config)]
        if command == "eval":
            args += ["--ckpt", str(tmp_path / "x.lawa")]
        else:
            args += ["--out", str(tmp_path / "run")]
        self.check_exit_2(capsys, args, "bad.cfg")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("below", ["", "x"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_out_at_or_under_a_regular_file(self, tmp_path, capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        out = taken / below if below else taken
        self.check_exit_2(capsys, [command, *TINY, "--epochs", "1", "--out", str(out)], str(out))
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("dataset", ["spirals", "csv"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_empty_validation_split(self, tmp_path, capsys, command, dataset):
        # Two rows per class, or two rows in all, leave 80/20 nothing to validate on.
        if dataset == "csv":
            data = tmp_path / "two.csv"
            data.write_text("x,label\n1,0\n2,1\n", encoding="utf-8")
            source = ["--dataset", "csv", "--csv", str(data), "--label-column", "label"]
        else:
            source = ["--dataset", "spirals", "--n-per-class", "2"]
        out = tmp_path / "run"
        args = [command, *source, "--batch-size", "1", "--epochs", "1", "--out", str(out)]
        self.check_exit_2(capsys, args, "validation split")
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            None,
            b"epoch,val_loss\n0,1.0\n1,abc\n",
            b"epoch,val_loss\n0.5,1.0\n",
            b"step,val_loss\n0,1.0\n1,0.5\n",
            b"epoch,val_loss\n0,1.0\n,0.5\n",
            b"epoch,val_loss\n0,1.0,7\n",
            b"epoch,val_loss\n0,1.0\n1,\xff\n",
        ],
        ids=["missing", "bad-float", "bad-int", "no-epoch", "empty-epoch", "long-row", "latin1"],
    )
    def test_bad_metrics_file_in_compare(self, tmp_path, capsys, content):
        path = tmp_path / "metrics.csv"
        if content is not None:
            path.write_bytes(content)
        self.check_exit_2(capsys, ["compare", str(path)], str(path))

    @pytest.mark.parametrize(
        "name,content,args,message",
        [
            ("m.csv", b"", ["compare", "m.csv"], "m.csv: empty metrics file"),
            ("m.csv", b"epoch,val_loss\n", ["compare", "m.csv"], "m.csv: metrics file has no rows"),
            ("m.csv", b"epoch,val_loss,val_acc\n0,1.0,0.5\n1,0.9\n", ["compare", "m.csv"],
             "m.csv: line 3 has fewer cells than the header"),
            ("c.cfg", b"seed=1\nepochs\n", ["train", "--config", "c.cfg"], "c.cfg:2: expected key=value"),
            ("c.cfg", b"use_bn=maybe\n", ["train", "--config", "c.cfg"], "use_bn='maybe'"),
            (None, None, ["sweep", "--schemes", ","], "at least one scheme or k value"),
        ],
        ids=["empty-metrics", "header-only-metrics", "short-row-metrics", "config-line-without-=",
             "bad-bool", "no-variants"],
    )
    def test_refusal_names_the_fault(self, tmp_path, monkeypatch, capsys, name, content, args, message):
        monkeypatch.chdir(tmp_path)
        if name is not None:
            (tmp_path / name).write_bytes(content)
        if args[0] != "compare":
            args = [*args, "--out", "run"]
        self.check_exit_2(capsys, args, message)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rows", [None, 1], ids=["create", "second-append"])
    def test_a_failed_metrics_write_exits_2(self, tmp_path, monkeypatch, capsys, rows):
        """The disk fills when metrics.csv is created, or at its second row."""
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FillsUp:
            def __init__(self, fh):
                self.fh, self.lines = fh, 0

            def write(self, text):
                if self.lines > rows:  # the header, then `rows` rows
                    raise full
                self.lines += 1
                return self.fh.write(text)

            def flush(self):
                self.fh.flush()

            def close(self):
                self.fh.close()

        def filling_open(path, *args, **kwargs):
            if rows is None:
                raise full
            return FillsUp(open(path, *args, **kwargs))

        monkeypatch.setattr(metrics, "open", filling_open, raising=False)
        out = tmp_path / "run"
        path = out / "metrics.csv"
        self.check_exit_2(capsys, ["train", *TINY, "--out", str(out)], f"cannot write metrics file {path}")
        if rows is not None:
            assert len(path.read_text().splitlines()) == 1 + rows


class TestUsage:
    def test_each_call_runs_the_command_bound_at_call_time(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_train", lambda args: 11)
        assert main(["train"]) == 11
        monkeypatch.setattr(cli, "cmd_train", lambda args: 12)
        assert main(["train"]) == 12

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--bogus"])
        assert err.value.code == 2
