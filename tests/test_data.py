import numpy as np
import pytest

from lawa.data import load_csv, make_spirals
from lawa.errors import ConfigError, IoError, ParseError, SchemaError
from lawa.rng import rng_for


class TestRngStreams:
    def test_deterministic(self):
        a = rng_for(7, "x").normal(size=5)
        b = rng_for(7, "x").normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_purpose_tags_are_independent(self):
        a = rng_for(7, "x").normal(size=5)
        b = rng_for(7, "y").normal(size=5)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = rng_for(7, "x").normal(size=5)
        b = rng_for(8, "x").normal(size=5)
        assert not np.array_equal(a, b)


class TestSpirals:
    def test_bitwise_reproducible(self):
        a = make_spirals(seed=3, n_per_class=100)
        b = make_spirals(seed=3, n_per_class=100)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.train_idx.tobytes() == b.train_idx.tobytes()

    def test_noise_free_arms_are_disjoint(self):
        ds = make_spirals(seed=0, n_per_class=200, classes=2, noise=0.0)
        pts0 = {tuple(p) for p in ds.features[ds.labels == 0]}
        pts1 = {tuple(p) for p in ds.features[ds.labels == 1]}
        assert not pts0 & pts1

    def test_split_sizes(self):
        ds = make_spirals(seed=1, n_per_class=1000, classes=2)
        assert len(ds.features) == 2000
        assert len(ds.train_idx) == 1600
        assert len(ds.val_idx) == 400

    def test_split_disjoint_and_exhaustive(self):
        ds = make_spirals(seed=2, n_per_class=50, classes=3)
        merged = np.sort(np.concatenate([ds.train_idx, ds.val_idx]))
        np.testing.assert_array_equal(merged, np.arange(150))

    def test_stratified_within_one_sample(self):
        ds = make_spirals(seed=4, n_per_class=57, classes=3)
        for c in range(3):
            n_train_c = int((ds.labels[ds.train_idx] == c).sum())
            assert abs(n_train_c - 0.8 * 57) <= 1.0

    def test_standardized_over_train_split(self):
        ds = make_spirals(seed=5, n_per_class=400, noise=0.3)
        train = ds.features[ds.train_idx]
        np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            make_spirals(seed=0, n_per_class=0)
        with pytest.raises(ConfigError):
            make_spirals(seed=0, n_per_class=10, classes=1)
        with pytest.raises(ConfigError):
            make_spirals(seed=0, n_per_class=10, noise=-1.0)


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_integer_labels_make_classification(self, tmp_path):
        path = self._write(tmp_path, "x,y,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path, "label")
        assert ds.kind == "classification"
        assert ds.n_classes == 2
        assert ds.features.shape == (3, 2)

    def test_fractional_labels_make_regression(self, tmp_path):
        path = self._write(tmp_path, "x,target\n1,0.5\n2,1.5\n3,2.25\n")
        ds = load_csv(path, "target")
        assert ds.kind == "regression"

    def test_label_column_order_independent(self, tmp_path):
        path = self._write(tmp_path, "label,x,y\n0,1,2\n1,3,4\n")
        ds = load_csv(path, "label")
        # features keep file order minus the label column
        assert ds.features.shape == (2, 2)

    def test_missing_label_column(self, tmp_path):
        path = self._write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(SchemaError, match="'label'"):
            load_csv(path, "label")

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = self._write(tmp_path, "x,label\n1,0\nfoo,1\n")
        with pytest.raises(ParseError, match=r"row 3.*'x'"):
            load_csv(path, "label")

    def test_hundred_rows_split_80_20_deterministically(self, tmp_path):
        lines = ["x,label"] + [f"{i},{i % 2}" for i in range(100)]
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        first = load_csv(path, "label")
        second = load_csv(path, "label")
        assert len(first.train_idx) == 80
        assert len(first.val_idx) == 20
        np.testing.assert_array_equal(first.train_idx, second.train_idx)

    def test_negative_class_label_rejected(self, tmp_path):
        path = self._write(tmp_path, "x,label\n1,-1\n2,0\n")
        with pytest.raises(SchemaError, match="negative"):
            load_csv(path, "label")

    def test_class_label_not_below_the_row_count_rejected(self, tmp_path):
        # It would size a hidden-width x 1e9 output layer.
        path = self._write(tmp_path, "x,label\n1,0\n2,1\n3,1000000000\n")
        with pytest.raises(SchemaError, match=r"data\.csv.*label 1000000000.*3 data rows"):
            load_csv(path, "label")

    def test_largest_class_label_just_below_the_row_count_loads(self, tmp_path):
        path = self._write(tmp_path, "x,label\n1,0\n2,2\n3,1\n")
        assert load_csv(path, "label").n_classes == 3

    def test_ragged_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "x,y,label\n1,2,0\n1,2\n")
        with pytest.raises(SchemaError, match="row 3"):
            load_csv(path, "label")

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(SchemaError):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        path = self._write(tmp_path, f"x,label\n1,0\n{cell},1\n")
        with pytest.raises(ParseError, match=r"row 3.*'x'.*finite"):
            load_csv(path, "label")

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(IoError, match="nope.csv"):
            load_csv(tmp_path / "nope.csv", "label")

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x,label\n1,0\n\xff,1\n")
        with pytest.raises(ParseError, match="data.csv.*UTF-8"):
            load_csv(path, "label")
