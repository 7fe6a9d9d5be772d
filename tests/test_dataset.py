import re

import numpy as np
import pytest

from mlme.dataset import (
    Dataset,
    Standardizer,
    as_weight_array,
    holdout_split,
    load_arff,
    load_csv,
    read_features,
    split_folds,
)
from mlme.errors import (
    ArgumentError,
    DataParseError,
    LabelError,
    SchemaError,
    UnsupportedAttributeError,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_shapes_and_bias(self, tmp_path):
        path = write(tmp_path, "d.csv", "1.0,2.0,0,1\n3.0,4.0,1,1\n5.0,6.0,0,0\n")
        data = load_csv(path, d=2)
        assert (data.n, data.m, data.d) == (3, 2, 2)
        assert data.features.shape == (3, 3)
        assert np.all(data.features[:, 0] == 1.0)
        assert data.features[1, 1] == 3.0

    def test_comment_lines_skipped(self, tmp_path):
        path = write(tmp_path, "d.csv", "# header\n1.0,0,1\n")
        data = load_csv(path, d=2)
        assert (data.n, data.m, data.d) == (1, 1, 2)

    def test_parse_error_names_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "1.5,abc,0,1\n")
        with pytest.raises(DataParseError, match="row 1"):
            load_csv(path, d=2)

    def test_inconsistent_columns_schema_error(self, tmp_path):
        path = write(tmp_path, "d.csv", "1.0,2.0,0,1\n1.0,0,1\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_csv(path, d=2)

    def test_bad_label_value(self, tmp_path):
        path = write(tmp_path, "d.csv", "1.0,2.0,0,2\n")
        with pytest.raises(LabelError, match="row 1"):
            load_csv(path, d=2)

    @pytest.mark.parametrize("d", [0, 2.5, True, None])
    def test_rejects_non_integral_label_count(self, tmp_path, d):
        path = write(tmp_path, "d.csv", "1.0,2.0,0,1\n")
        with pytest.raises(ArgumentError, match="label count d must be an integer"):
            load_csv(path, d)

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 5)) * np.pi
        Y = rng.integers(0, 2, size=(20, 3))
        data = Dataset.from_raw(X, Y)
        path = tmp_path / "rt.csv"
        data.save_csv(path)
        back = load_csv(path, d=3)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)


ARFF = """\
@relation toy
@attribute f1 numeric
@attribute L1 {0,1}
@attribute f2 real
@attribute L2 {0,1}
@data
0.5,1,2.5,0
1.5,0,3.5,1
"""


class TestLoadArff:
    def test_labels_by_name_any_position(self, tmp_path):
        path = write(tmp_path, "t.arff", ARFF)
        data = load_arff(path, ["L1", "L2"])
        assert (data.n, data.m, data.d) == (2, 2, 2)
        assert np.array_equal(data.labels, [[1, 0], [0, 1]])
        assert data.features[0, 1] == 0.5 and data.features[0, 2] == 2.5

    def test_unknown_label_name(self, tmp_path):
        path = write(tmp_path, "t.arff", ARFF)
        with pytest.raises(SchemaError, match="LX"):
            load_arff(path, ["LX"])

    def test_non_binary_nominal_rejected(self, tmp_path):
        text = ARFF.replace("@attribute f1 numeric",
                            "@attribute f1 {a,b,c}")
        path = write(tmp_path, "t.arff", text)
        with pytest.raises(UnsupportedAttributeError):
            load_arff(path, ["L1", "L2"])

    def test_numeric_label_accepts_01_only(self, tmp_path):
        text = ARFF.replace("@attribute L1 {0,1}", "@attribute L1 numeric")
        path = write(tmp_path, "t.arff", text)
        data = load_arff(path, ["L1", "L2"])
        assert np.array_equal(data.labels[:, 0], [1, 0])
        bad = text.replace("0.5,1,", "0.5,3,")
        path2 = write(tmp_path, "bad.arff", bad)
        with pytest.raises(LabelError):
            load_arff(path2, ["L1", "L2"])

    def test_repeated_label_name(self, tmp_path):
        path = write(tmp_path, "t.arff", ARFF)
        with pytest.raises(SchemaError, match="repeated label attribute.*L1"):
            load_arff(path, ["L1", "L2", "L1"])

    def test_repeated_attribute_name(self, tmp_path):
        text = ARFF.replace("@attribute L2 {0,1}", "@attribute L1 {0,1}")
        path = write(tmp_path, "t.arff", text)
        with pytest.raises(SchemaError, match="repeated attribute name.*L1"):
            load_arff(path, ["L1"])

    def test_empty_label_names_rejected_before_reading(self, tmp_path):
        with pytest.raises(ArgumentError, match="at least one label"):
            load_arff(tmp_path / "missing.arff", [])

    def test_sparse_rows_unsupported(self, tmp_path):
        path = write(tmp_path, "t.arff", ARFF + "{0 1.5, 1 1}\n")
        with pytest.raises(UnsupportedAttributeError, match="sparse"):
            load_arff(path, ["L1", "L2"])
        csv = write(tmp_path, "d.csv", "1.0,0,1\n{0 1.5,1 0,2 1}\n")
        with pytest.raises(DataParseError, match="row 2"):
            load_csv(csv, d=2)


class TestReadFeatures:
    """The one predict-time reader: label cells dropped, the bias prepended."""

    WANT = np.array([[1.0, 0.5, 2.5], [1.0, 1.5, 3.5]])

    @pytest.mark.parametrize("text", [
        "0.5,2.5,1,0\n1.5,3.5,0,1\n",      # features and labels
        "0.5,2.5\n1.5,3.5\n",              # features only
        "# m=2 d=2\n0.5,2.5,?,?\n1.5,3.5,?,?\n",
    ])
    def test_csv_label_cells_dropped_unparsed(self, tmp_path, text):
        X = read_features(write(tmp_path, "d.csv", text), 2, 2)
        np.testing.assert_array_equal(X, self.WANT)

    @pytest.mark.parametrize("unknown", [False, True])
    def test_arff_label_columns_dropped_unparsed(self, tmp_path, unknown):
        text = ARFF.replace("0.5,1,2.5,0", "0.5,?,2.5,?") if unknown else ARFF
        X = read_features(write(tmp_path, "t.arff", text), 2, 2, ["L1", "L2"])
        np.testing.assert_array_equal(X, self.WANT)

    def test_empty_label_names_rejected_before_reading(self, tmp_path):
        with pytest.raises(ArgumentError, match="at least one label"):
            read_features(tmp_path / "missing.arff", 2, 2, [])


def toy_dataset(n, m=2, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_raw(rng.normal(size=(n, m)),
                            rng.integers(0, 2, size=(n, d)))


class TestSplitFolds:
    def test_exact_division(self):
        folds = split_folds(toy_dataset(10), 10, seed=1)
        assert all(test.n == 1 for _, test in folds)

    def test_remainder_rule(self):
        folds = split_folds(toy_dataset(11), 10, seed=1)
        sizes = sorted(test.n for _, test in folds)
        assert sizes == [1] * 9 + [2]

    def test_deterministic(self):
        data = toy_dataset(23)
        a = split_folds(data, 4, seed=7)
        b = split_folds(data, 4, seed=7)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(te1.features, te2.features)
            assert np.array_equal(tr1.features, tr2.features)

    def test_partition_property(self):
        data = toy_dataset(29, m=3, d=2)
        folds = split_folds(data, 5, seed=3)
        seen = []
        for _, test in folds:
            seen.extend(test.features[:, 1].tolist())
        assert sorted(seen) == sorted(data.features[:, 1].tolist())
        # disjointness: sizes add up and no value appears twice
        assert len(seen) == data.n

    def test_k_larger_than_n(self):
        with pytest.raises(ArgumentError):
            split_folds(toy_dataset(3), 4, seed=0)

    @pytest.mark.parametrize("k, seed, name", [
        (2.5, 0, "fold count k"), (True, 0, "fold count k"),
        (np.float64(2), 0, "fold count k"), (1, 0, "fold count k"),
        (2, -1, "seed"), (2, 1.5, "seed"), (2, True, "seed")])
    def test_rejects_non_integral_count_or_seed(self, k, seed, name):
        with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
            split_folds(toy_dataset(10), k, seed)

    def test_accepts_numpy_integers(self):
        folds = split_folds(toy_dataset(10), np.int64(2), np.int32(3))
        assert len(folds) == 2


class TestHoldoutSplit:
    def test_ratio_arithmetic(self):
        data = toy_dataset(100)
        (tr, _), (ho, _) = holdout_split(data, np.ones(100), 0.25, seed=0)
        assert (tr.n, ho.n) == (75, 25)

    def test_clamp_small_n(self):
        data = toy_dataset(2)
        (tr, _), (ho, _) = holdout_split(data, np.ones(2), 0.25, seed=0)
        assert (tr.n, ho.n) == (1, 1)

    def test_weights_partitioned(self):
        data = toy_dataset(10)
        w = np.arange(10, dtype=float)
        (tr, wtr), (ho, who) = holdout_split(data, w, 0.3, seed=5)
        assert len(wtr) == tr.n and len(who) == ho.n
        assert sorted(np.concatenate([wtr, who]).tolist()) == w.tolist()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ArgumentError, match="seed must be an integer"):
            holdout_split(toy_dataset(10), np.ones(10), 0.25, seed)

    def test_uniform_weights_stay_uniform(self):
        data = toy_dataset(12)
        (_, wtr), (_, who) = holdout_split(data, np.full(12, 1 / 12), 0.25, seed=2)
        assert np.all(wtr == wtr[0]) and np.all(who == who[0])


class TestAsWeightArray:
    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ArgumentError):
            as_weight_array(np.array([1.0, bad]), 2)


class TestDatasetValidation:
    def test_rejects_missing_bias(self):
        with pytest.raises(ArgumentError):
            Dataset(np.array([[2.0, 1.0]]), np.array([[1]]))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(LabelError):
            Dataset(np.array([[1.0, 1.0]]), np.array([[2]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ArgumentError):
            Dataset(np.array([[1.0, np.inf]]), np.array([[1]]))

    def test_immutable(self):
        data = toy_dataset(3)
        with pytest.raises(ValueError):
            data.features[0, 0] = 5.0


class TestStandardizer:
    def test_zero_mean_unit_std_on_train(self):
        data = toy_dataset(50, m=4)
        s = Standardizer.fit(data)
        out = s.transform(data)
        np.testing.assert_allclose(out.features[:, 1:].mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(out.features[:, 1:].std(axis=0), 1, atol=1e-12)
        assert np.all(out.features[:, 0] == 1.0)

    def test_constant_column_untouched(self):
        X = np.ones((5, 2))
        X[:, 1] = 7.0
        data = Dataset.from_raw(X, np.zeros((5, 1), dtype=int))
        out = Standardizer.fit(data).transform(data)
        assert np.all(np.isfinite(out.features))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5), ()])
    def test_transform_features_needs_a_matrix(self, shape):
        # one feature row is a 1-D (m+1) vector; the scaler takes (N, m+1)
        scaler = Standardizer.fit(toy_dataset(10, m=4))
        with pytest.raises(ArgumentError, match=f"got shape {re.escape(str(shape))}"):
            scaler.transform_features(np.ones(shape))
