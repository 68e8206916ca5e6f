"""Dataset generators, CSV ingestion, metadata, and preprocessing."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fairpca import (
    DataError,
    DimensionError,
    GroupedDataset,
    dataset_csv_text,
    describe,
    gen_synthetic_blocks,
    evaluate,
    gen_synthetic_gaussian,
    load_csv_grouped,
    preprocess,
    random_stiefel,
)


class TestGenerators:
    def test_gaussian_shape_and_determinism(self):
        data = gen_synthetic_gaussian(7, 5, seed=3)
        assert data.X.shape == (7, 5)
        assert data.group_sizes == (1,) * 5
        assert data.num_groups == data.num_samples == 5
        again = gen_synthetic_gaussian(7, 5, seed=3)
        np.testing.assert_array_equal(data.X, again.X)
        other = gen_synthetic_gaussian(7, 5, seed=4)
        assert not np.array_equal(data.X, other.X)
        assert "gaussian" in data.name

    def test_gaussian_rejects_bad_dims(self):
        with pytest.raises(DimensionError):
            gen_synthetic_gaussian(0, 5, seed=0)
        with pytest.raises(DimensionError):
            gen_synthetic_gaussian(5, 0, seed=0)

    def test_blocks_shape_and_determinism(self):
        data = gen_synthetic_blocks(5, (10, 20, 30), seed=1)
        assert data.X.shape == (5, 60)
        assert data.group_sizes == (10, 20, 30)
        np.testing.assert_array_equal(
            data.X, gen_synthetic_blocks(5, (10, 20, 30), seed=1).X)

    def test_blocks_group_variances_are_order_one(self):
        # covariance scaling keeps f_i near s_i^2 * r regardless of group size
        data = gen_synthetic_blocks(6, (50, 500), seed=2, scales=(1.0, 1.0))
        U = random_stiefel(6, 2, seed=0)
        f = evaluate(data, U).values
        assert np.all(f > 0.05)
        assert np.all(f < 5.0)

    def test_blocks_zero_scale_silences_a_group(self):
        data = gen_synthetic_blocks(4, (5, 5), seed=3, scales=(1.0, 0.0))
        U = random_stiefel(4, 2, seed=1)
        f = evaluate(data, U).values
        assert f[1] == 0.0
        assert f[0] > 0.0

    def test_blocks_rejects_bad_arguments(self):
        with pytest.raises(DimensionError):
            gen_synthetic_blocks(4, (), seed=0)
        with pytest.raises(DimensionError):
            gen_synthetic_blocks(4, (5, 0), seed=0)
        with pytest.raises(DimensionError):
            gen_synthetic_blocks(4, (5, 5), seed=0, scales=(1.0,))


class TestCsvRoundtrip:
    def test_groups_keep_first_appearance_order(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "f0,f1,group\n"
            "1,2,a\n"
            "3,4,a\n"
            "5,6,b\n"
            "7,8,b\n"
            "9,10,b\n"
            "11,12,c\n")
        data = load_csv_grouped(path)
        assert data.group_sizes == (2, 3, 1)
        assert data.labels == ("a", "b", "c")
        np.testing.assert_array_equal(data.X[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(data.X[:, 5], [11.0, 12.0])
        assert data.name == "mixed"

    def test_interleaved_groups_are_made_contiguous(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text(
            "x,group\n"
            "1,a\n"
            "2,b\n"
            "3,a\n")
        data = load_csv_grouped(path)
        assert data.group_sizes == (2, 1)
        np.testing.assert_array_equal(data.X, [[1.0, 3.0, 2.0]])

    def test_save_load_is_exact(self, tmp_path):
        original = gen_synthetic_blocks(4, (3, 5), seed=7)
        path = tmp_path / "blocks.csv"
        path.write_text(dataset_csv_text(original))
        loaded = load_csv_grouped(path)
        np.testing.assert_array_equal(loaded.X, original.X)
        assert loaded.group_sizes == original.group_sizes

    def test_unlabelled_groups_are_written_as_group_numbers(self):
        data = GroupedDataset(np.eye(2), (1, 1))
        assert dataset_csv_text(data).splitlines()[1:] == ["1.0,0.0,g0", "0.0,1.0,g1"]

    def test_rendering_is_byte_deterministic(self, tmp_path):
        data = gen_synthetic_gaussian(3, 4, seed=9)
        text = dataset_csv_text(data)
        assert text == dataset_csv_text(data)
        path = tmp_path / "once.csv"
        path.write_text(text)
        reloaded = load_csv_grouped(path)
        assert dataset_csv_text(reloaded) == text

    def test_custom_group_column(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("v,sex\n1.5,f\n2.5,m\n")
        data = load_csv_grouped(path, group_column="sex")
        assert data.labels == ("f", "m")

    def test_missing_group_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="group"):
            load_csv_grouped(path)

    @pytest.mark.parametrize("header, name", [("a,a,group", "a"), ("a,group,group", "group")])
    def test_repeated_column_names(self, tmp_path, header, name):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n1,2,g0\n3,4,g1\n")
        with pytest.raises(DataError, match=rf"repeats column name\(s\) \['{name}'\]$"):
            load_csv_grouped(path)

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group\na\n")
        with pytest.raises(DataError, match="feature"):
            load_csv_grouped(path)

    def test_bad_rows_are_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,group\n1,a\noops,a\n3,b\nnan,b\n")
        with pytest.raises(DataError, match="rows 2, 4"):
            load_csv_grouped(path)

    def test_rows_longer_than_the_header_are_reported(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("a,b,group\n1,2,g0\n1,2,g0,5\n3,4,g1\n5,6,g1,,\n")
        with pytest.raises(DataError, match=r"extra values in rows 2, 4$"):
            load_csv_grouped(path)

    @pytest.mark.parametrize("text, rows", [
        # blank lines are skipped and not counted
        ("x,group\n\n1,a\n\noops,a\n\n\n3,b\nnan,b\n\n", "2, 4"),
        ("a,b,group\n1,2,g0\n1,g0\n3,4,g1\n,g1\n", "2, 4"),
        ("x,group\n1,a\ninf,a\n-inf,b\n2,b\n1e999,b\n", "2, 3, 5"),
        # non-numeric and non-finite rows in one sorted list
        ("x,y,group\n1,2,a\n1e999,1,a\nfoo,1,b\n3,nan,b\n,1,a\n2,2,a,3\n4,-inf,c\n",
         "2, 3, 4, 5, 6, 7"),
        ("x,group\n" + "oops,a\n" * 12 + "1,a\n", "1, 2, 3, 4, 5, 6, 7, 8, 9, 10 (+2 more)"),
    ], ids=["blank_lines", "short_rows", "infinite", "mixed", "more_than_ten"])
    def test_bad_rows_are_reported_in_file_order(self, tmp_path, text, rows):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        message = f"{path}: non-numeric, missing or extra values in rows {rows}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv_grouped(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x,group\n\n1,a\n\n\n2,b\n\n")
        data = load_csv_grouped(path)
        assert data.labels == ("a", "b")
        np.testing.assert_array_equal(data.X, [[1.0, 2.0]])

    def test_quoted_group_label_with_a_comma(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('x,group\n1,"a,b"\n2,c\n3,"a,b"\n')
        data = load_csv_grouped(path)
        assert data.labels == ("a,b", "c")
        assert data.group_sizes == (2, 1)
        np.testing.assert_array_equal(data.X, [[1.0, 3.0, 2.0]])

    def test_bytes_that_are_not_text(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"x,group\n1,a\n\xff\xfe,b\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: cannot decode as text: "):
            load_csv_grouped(path)

    # Random labels with commas, quotes and spaces, and values at the edges
    # of the double range, survive dataset_csv_text and load_csv_grouped bit
    # for bit.
    @settings(max_examples=100)
    @given(data=st.data(), d=st.integers(1, 5),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
           labels=st.lists(st.text(alphabet='ab ,"', max_size=4), min_size=6, max_size=6,
                           unique=True))
    def test_render_load_round_trip_is_exact(self, tmp_path_factory, data, d, sizes, labels):
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                             1e300, -1e300, 1.7976931348623157e308]),
            st.floats(allow_nan=False, allow_infinity=False))
        X = np.array(data.draw(st.lists(value, min_size=d * sum(sizes),
                                        max_size=d * sum(sizes)))).reshape(d, sum(sizes))
        original = GroupedDataset(X, tuple(sizes), labels=labels[:len(sizes)])
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        path.write_text(dataset_csv_text(original))
        loaded = load_csv_grouped(path)
        assert loaded.X.tobytes() == original.X.tobytes()
        assert loaded.group_sizes == original.group_sizes
        assert loaded.labels == original.labels

    def test_empty_variants(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            load_csv_grouped(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,group\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv_grouped(header_only)


class TestMeta:
    def test_describe_matches_dataset(self):
        data = gen_synthetic_blocks(4, (3, 2), seed=0)
        meta = describe(data, generator="blocks", seed=0, normalized=True)
        assert meta == {
            "name": data.name, "d": 4, "num_samples": 5, "num_groups": 2,
            "group_sizes": [3, 2], "generator": "blocks", "seed": 0, "source": None,
            "normalized": True, "centered": False, "standardized": False,
            "min_norm_threshold": 0.0,
        }
        assert json.loads(json.dumps(meta)) == meta
        with pytest.raises(TypeError, match="standardize"):
            describe(data, standardize=True)


class TestPreprocess:
    def test_normalize_gives_unit_norms(self):
        data = gen_synthetic_blocks(5, (4, 4), seed=1)
        out = preprocess(data, normalize=True)
        np.testing.assert_allclose(out.sample_norms(), 1.0, atol=1e-12)

    def test_center_gives_zero_entry_means(self):
        data = gen_synthetic_blocks(5, (4, 4), seed=2)
        out = preprocess(data, center=True)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-12)

    def test_standardize_features(self):
        data = gen_synthetic_blocks(4, (20,), seed=3)
        out = preprocess(data, standardize_features=True)
        np.testing.assert_allclose(out.X.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.X.std(axis=1), 1.0, atol=1e-12)

    def test_norm_threshold_drops_samples(self):
        X = np.array([[1.0, 1e-9, 2.0], [0.0, 0.0, 1.0]])
        data = GroupedDataset(X=X, group_sizes=(2, 1))
        out = preprocess(data, min_norm_threshold=1e-6)
        assert out.group_sizes == (1, 1)
        np.testing.assert_array_equal(out.X, [[1.0, 2.0], [0.0, 1.0]])

    def test_emptied_group_is_removed_with_warning(self):
        X = np.array([[1.0, 1e-9, 1e-9], [0.5, 0.0, 0.0]])
        data = GroupedDataset(X=X, group_sizes=(1, 2), labels=("keep", "tiny"))
        with pytest.warns(UserWarning, match="tiny"):
            out = preprocess(data, min_norm_threshold=1e-6)
        assert out.group_sizes == (1,)
        assert out.labels == ("keep",)

    def test_dropping_everything_is_an_error(self):
        data = GroupedDataset(X=np.full((2, 3), 1e-12), group_sizes=(3,))
        with pytest.raises(DataError):
            preprocess(data, min_norm_threshold=1.0)

    @pytest.mark.parametrize("threshold", [np.nan, -1e-6])
    def test_bad_norm_threshold_is_rejected(self, threshold):
        data = gen_synthetic_blocks(3, (4,), seed=0)
        with pytest.raises(ValueError, match="min_norm_threshold must be non-negative") as exc:
            preprocess(data, min_norm_threshold=threshold)
        # a bad argument, not a data error
        assert not isinstance(exc.value, DataError)

    def test_rerunning_is_identity(self):
        data = gen_synthetic_blocks(5, (6, 6), seed=4)
        once = preprocess(data, normalize=True, center=True,
                          min_norm_threshold=1e-8)
        twice = preprocess(once, normalize=True, center=True,
                           min_norm_threshold=1e-8)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-14)
        assert twice.group_sizes == once.group_sizes

    # The masked selection must give the per-group loop's X bit for bit, with
    # the transforms on: they round by X's memory order, which shows from
    # 8 features or 8 samples up.
    @settings(max_examples=200)
    @given(d=st.integers(1, 12), sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
           seed=st.integers(0, 2**31 - 1), flags=st.tuples(st.booleans(), st.booleans(),
                                                           st.booleans()))
    @example(d=10, sizes=[1] * 12, seed=0, flags=(True, True, True))
    @example(d=10, sizes=[4] * 3, seed=0, flags=(True, True, True))
    def test_matches_per_group_loop(self, d, sizes, seed, flags):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, sum(sizes)))
        X[:, rng.random(sum(sizes)) < 0.4] *= 1e-9
        labels = tuple(f"g{i}" for i in range(len(sizes)))
        expected = oracles.preprocess_by_loops(X, sizes, labels, 1e-6, *flags)
        data = GroupedDataset(X, tuple(sizes))
        kwargs = dict(min_norm_threshold=1e-6, standardize_features=flags[0],
                      center=flags[1], normalize=flags[2])
        if expected is None:
            with pytest.raises(DataError, match="dropped every sample"):
                preprocess(data, **kwargs)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = preprocess(data, **kwargs)
        expected_X, expected_sizes, expected_labels, emptied = expected
        assert out.X.tobytes() == np.ascontiguousarray(expected_X).tobytes()
        assert (out.group_sizes, out.labels) == (expected_sizes, expected_labels)
        assert [str(w.message) for w in caught] == (
            [f"groups emptied by the norm threshold and removed: {emptied}"] if emptied else [])

    def test_objective_scale_survives_normalization(self):
        data = gen_synthetic_gaussian(6, 8, seed=5)
        out = preprocess(data, normalize=True)
        U = random_stiefel(6, 2, seed=0)
        assert evaluate(out, U).values.min() <= 1.0 + 1e-12
