"""Dataset generators, CSV ingestion, metadata, and preprocessing."""

import contextlib
import csv
import json
import os
import re
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import fairpca.data as data_module
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
from fairpca.data import _load_rows_csv


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


def _csv_loop_spy():
    """Patches data._load_rows_csv with a mock that wraps it, so the mock's
    call_count says how many times the csv loop ran."""
    return mock.patch.object(data_module, "_load_rows_csv", wraps=_load_rows_csv)


def _outcome(path):
    """What load_csv_grouped makes of path: the dataset's bytes, shape,
    sizes, labels and name, or the DataError message."""
    try:
        data = load_csv_grouped(path)
    except DataError as exc:
        return ("error", str(exc))
    return ("data", data.X.tobytes(), data.X.shape, data.X.flags.c_contiguous,
            data.group_sizes, data.labels, data.name)


def _load_both_ways(path):
    """(outcome with the numpy pass, outcome of the csv loop alone, how many
    times the csv loop ran in the first)."""
    with _csv_loop_spy() as spy:
        fast = _outcome(path)
    with mock.patch.object(data_module, "_load_rows_numpy", lambda *args: None):
        slow = _outcome(path)
    return fast, slow, spy.call_count


def _load_through_a_pipe(path, text):
    """(the dataset load_csv_grouped reads from a named pipe at path fed
    text, how many times the csv loop ran)."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    with _csv_loop_spy() as spy:
        data = load_csv_grouped(path)
    writer.join()
    return data, spy.call_count


# Feature values both readers take: round-trip reprs, integers, long digit
# strings, subnormals, underflow, padding and quotes.
_CLEAN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["0." + "123456789" * 5, "9" * 40 + "e-340", "4.9e-324", "2.5e-320",
                     "1e-400", " 1.5 ", "\t2\t", '"3"', " 6"]),
)
# Also values that are not finite, that float reads and numpy does not, that
# numpy reads and float does not, and junk.
_VALUES = st.one_of(_CLEAN_VALUES, st.sampled_from([
    "nan", "inf", "-Infinity", "1e999", "-1e999", "1_0", "0x1p3", "١", "\x1c4", "5\x1f",
    "", "1e", "--1", "oops"]))
_LABELS = st.sampled_from(["a", "b", "a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", " a", "", "7"])
# One field past the csv module's default field size limit, 131 072.
_LONG = "L" * 140_000


def _quoted(label):
    return '"' + label.replace('"', '""') + '"'


class TestCsvNumpyPass:
    """load_csv_grouped parses the data rows with numpy's reader and runs its
    csv loop only where that pass is skipped or gives up; both must give the
    same dataset, bit for bit, or the same DataError message."""

    @settings(max_examples=300)
    @given(data=st.data(), width=st.integers(2, 4),
           line_break=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_numpy_pass_matches_the_csv_loop(self, tmp_path_factory, data, width, line_break):
        group_at = data.draw(st.integers(0, width - 1), label="group_at")
        header = [f"f{j}" for j in range(width)]
        header[group_at] = "group"
        lines = [",".join(header)]
        # half the files hold only blank lines and rows both readers take
        clean = data.draw(st.booleans(), label="clean")
        kinds = ["row"] * 6 + ["blank"] + ([] if clean else ["short", "long", "space"])
        values = _CLEAN_VALUES if clean else _VALUES
        for _ in range(data.draw(st.integers(0, 8), label="rows")):
            kind = data.draw(st.sampled_from(kinds))
            if kind == "blank":
                lines.append("")
            elif kind == "space":
                lines.append(" " * data.draw(st.integers(1, 3)))
            else:
                size = width + {"row": 0, "short": -1, "long": 1}[kind]
                fields = [data.draw(values) for _ in range(size)]
                if group_at < size:
                    label = data.draw(_LABELS)
                    fields[group_at] = _quoted(label) if (
                        set(label) & set(',"\r\n') or data.draw(st.booleans())) else label
                lines.append(",".join(fields))
        text = line_break.join(lines) + data.draw(st.sampled_from([line_break, ""]))
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode())
        fast, slow, loop_runs = _load_both_ways(path)
        assert fast == slow
        assert loop_runs <= 1
        event("csv loop ran" if loop_runs else "numpy pass read the file")
        if fast[0] == "error":
            event("error reported from the " + ("csv loop" if loop_runs else "numpy table"))

    @pytest.mark.parametrize("text", [
        'a,group,b\r\n1,"x,y",2\r\n\r\n3,"say ""hi""",4\r\n5,"x,y",6\r\n',
        "group,a\r7,1.5\r8,2.5\r7,4.9e-324\r",
        'x,group\n1,"two\nlines"\n2,b\n',
        "x,group\n" + "\n".join(f"{v!r},g{i % 3}" for i, v in enumerate([0.1, -2e-308, 1e300])),
        f"{_LONG},group\n1,a\n",
    ], ids=["crlf_quoted", "cr_group_first", "quoted_newline", "interleaved", "long_header"])
    def test_numpy_pass_reads_clean_files(self, tmp_path, text):
        path = tmp_path / "clean.csv"
        path.write_bytes(text.encode())
        fast, slow, loop_runs = _load_both_ways(path)
        assert fast == slow
        assert fast[0] == "data"
        assert loop_runs == 0

    @pytest.mark.parametrize("raw", [
        b"x,y,group\n1,2,a\n3,a\n",           # short row
        b"x,y,group\n1,2,a\n3,4,a,5\n",       # long row
        b"x,group\n1,a,2\n3,b,4\n",           # every row long
        # not text, past the block the header is decoded from
        b"x,group\n" + b"1,a\n" * 4096 + b"\xff\xfe,b\n",
        b"x,group\n1_0,a\n2,b\n",             # float reads 1_0, numpy does not
        "x,group\n١,a\n2,b\n".encode(),  # non-ASCII digits
        b"x,group\n\x1c1,a\n",                # numpy strips U+001C, float does not
        f"x,group\n1,{_LONG}\noops,b\n".encode(),  # a long field read by the csv loop
    ], ids=["short", "long", "all_long", "decode", "underscore", "arabic_indic",
            "separator", "long_label_then_bad_row"])
    def test_numpy_pass_gives_up_where_it_must(self, tmp_path, raw):
        path = tmp_path / "fallback.csv"
        path.write_bytes(raw)
        fast, slow, loop_runs = _load_both_ways(path)
        assert fast == slow
        assert loop_runs == 1

    @pytest.mark.parametrize("text, rows", [
        ("x,group\n1,a\nnan,b\n", "2"),
        ("x,y,group\n1,inf,a\n2,3,b\n-inf,4,a\n", "1, 3"),
        ("group,x\na,1e999\n\nb,1\n", "1"),
    ], ids=["nan", "inf", "overflow"])
    def test_numpy_pass_reports_non_finite_values(self, tmp_path, text, rows):
        # the file is read once: the report comes from numpy's table
        path = tmp_path / "non_finite.csv"
        path.write_text(text)
        fast, slow, loop_runs = _load_both_ways(path)
        assert fast == slow == (
            "error", f"{path}: non-numeric, missing or extra values in rows {rows}")
        assert loop_runs == 0

    def test_underscore_values_load_through_the_csv_loop(self, tmp_path):
        path = tmp_path / "underscore.csv"
        path.write_text("x,group\n1_0,a\n٢,b\n")
        data = load_csv_grouped(path)
        np.testing.assert_array_equal(data.X, [[10.0, 2.0]])

    @pytest.mark.parametrize("line_break", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_multi_line_header_takes_the_numpy_pass(self, tmp_path, line_break):
        path = tmp_path / "header.csv"
        path.write_bytes(line_break.join(['"x', 'y",group', "1,a", "2,b", ""]).encode())
        fast, slow, loop_runs = _load_both_ways(path)
        assert fast == slow
        assert fast[0] == "data"
        assert loop_runs == 0

    @pytest.mark.parametrize("text", ["x,group\n", "x,group", "x,group\n\n\r\n"])
    def test_header_only_file_raises_without_a_warning(self, tmp_path, text):
        # the suite turns warnings into errors, so numpy's warning on input
        # without rows would fail this test
        path = tmp_path / "header_only.csv"
        path.write_bytes(text.encode())
        fast, slow, loop_runs = _load_both_ways(path)
        assert fast == slow == ("error", f"{path}: no data rows")
        assert loop_runs == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_unseekable_input_goes_through_the_csv_loop(self, tmp_path):
        data, loop_runs = _load_through_a_pipe(tmp_path / "pipe.csv", "x,group\n1,a\n2,b\n")
        np.testing.assert_array_equal(data.X, [[1.0, 2.0]])
        assert loop_runs == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_field_past_the_default_csv_limit_through_a_pipe(self, tmp_path):
        data, loop_runs = _load_through_a_pipe(tmp_path / "pipe.csv", f"x,group\n1,{_LONG}\n")
        assert data.labels == (_LONG,)
        np.testing.assert_array_equal(data.X, [[1.0]])
        assert loop_runs == 1

    @pytest.mark.parametrize("text", ["x,group\n1,a\n", "x,group\noops,a\n", "x,y\n1,2\n", ""],
                             ids=["loads", "bad_row", "no_group_column", "empty"])
    def test_field_size_limit_is_restored(self, tmp_path, text):
        path = tmp_path / "limit.csv"
        path.write_text(text)
        before = csv.field_size_limit(12_345)
        try:
            with contextlib.suppress(DataError):
                load_csv_grouped(path)
            assert csv.field_size_limit() == 12_345
        finally:
            csv.field_size_limit(before)


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
