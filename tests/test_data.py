import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imda import data
from imda.data import DomainSpec, MultiSourceDataset, ShiftSpec


def two_class_spec(size=500, offset=0.0, std=0.5):
    means = np.array([[1.0 + offset, 0.0], [-1.0 + offset, 0.0]])
    return DomainSpec(means=means, stds=np.full((2, 2), std),
                      prior=np.array([0.5, 0.5]), size=size)


class TestGeneration:
    def test_byte_identical_across_runs(self):
        a = data.sample_domain(two_class_spec(), seed=7, tag=0)
        b = data.sample_domain(two_class_spec(), seed=7, tag=0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_tags_differ(self):
        a = data.sample_domain(two_class_spec(), seed=7, tag=0)
        b = data.sample_domain(two_class_spec(), seed=7, tag=1)
        assert not np.array_equal(a[0], b[0])

    def test_class_means_concentrate(self):
        spec = two_class_spec(size=4000, std=0.5)
        x, y = data.sample_domain(spec, seed=0, tag=0)
        for cls in (0, 1):
            emp = x[y == cls].mean(axis=0)
            n = (y == cls).sum()
            assert np.all(np.abs(emp - spec.means[cls]) < 3.0 * 0.5 / np.sqrt(n))

    def test_identically_specified_domains_have_close_means(self):
        ds = data.gen_gaussian_sources([two_class_spec(2000), two_class_spec(2000)],
                                       two_class_spec(2000), seed=3)
        (x1, y1), (x2, y2) = ds.sources
        for cls in (0, 1):
            gap = np.abs(x1[y1 == cls].mean(0) - x2[y2 == cls].mean(0))
            assert np.all(gap < 3.0 / np.sqrt(min((y1 == cls).sum(), (y2 == cls).sum())))

    def test_degenerate_prior_gives_single_class(self):
        spec = DomainSpec(means=np.array([[0.0], [5.0]]), stds=np.ones((2, 1)),
                          prior=np.array([1.0, 0.0]), size=100)
        _, y = data.sample_domain(spec, seed=1, tag=0)
        assert np.all(y == 0)

    def test_zero_size_labeled_target_allowed(self):
        target = DomainSpec(means=np.array([[0.0], [1.0]]), stds=np.ones((2, 1)),
                            prior=np.array([0.5, 0.5]), size=0)
        ds = data.gen_gaussian_sources(
            [DomainSpec(means=np.array([[0.0], [1.0]]), stds=np.ones((2, 1)),
                        prior=np.array([0.5, 0.5]), size=50)],
            target, unlabeled_size=30, seed=0)
        assert ds.target[0].shape[0] == 0
        assert ds.target_unlabeled.shape[0] == 30

    def test_invalid_prior_rejected(self):
        with pytest.raises(data.DataError):
            DomainSpec(means=np.zeros((2, 1)), stds=np.ones((2, 1)),
                       prior=np.array([0.6, 0.6]), size=10)

    def test_nan_prior_rejected(self):
        with pytest.raises(data.DataError, match="not a distribution"):
            DomainSpec(means=np.zeros((2, 1)), stds=np.ones((2, 1)),
                       prior=np.array([np.nan, 1.0]), size=10)

    @pytest.mark.parametrize("size", [float("nan"), 2.5, -1])
    def test_size_that_is_not_a_count_rejected(self, size):
        with pytest.raises(data.DataError, match="size must be an integer >= 0"):
            DomainSpec(means=np.zeros((2, 1)), stds=np.ones((2, 1)),
                       prior=np.array([0.5, 0.5]), size=size)


class TestTargetShift:
    def _dataset(self, seed=0):
        return data.gen_gaussian_sources([two_class_spec(400), two_class_spec(400)],
                                         two_class_spec(300), seed=seed)

    def test_zero_rate_is_identity_up_to_order(self):
        ds = self._dataset()
        shifted = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=0.0))
        for (x0, y0), (x1, y1) in zip(ds.sources, shifted.sources):
            order0 = np.lexsort(x0.T)
            order1 = np.lexsort(x1.T)
            assert np.array_equal(x0[order0], x1[order1])
            assert np.array_equal(y0[order0], y1[order1])

    def test_half_rate_keeps_exact_count(self):
        ds = self._dataset()
        count = int((ds.sources[0][1] == 1).sum())
        shifted = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=0.5))
        kept = int((shifted.sources[0][1] == 1).sum())
        assert kept == int(np.ceil(0.5 * count))

    def test_other_classes_untouched(self):
        ds = self._dataset()
        shifted = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=0.7))
        for (x0, y0), (x1, y1) in zip(ds.sources, shifted.sources):
            a = np.sort(x0[y0 == 0], axis=0)
            b = np.sort(x1[y1 == 0], axis=0)
            assert np.array_equal(a, b)

    def test_post_shift_priors_match_renormalization(self):
        ds = self._dataset()
        d = 0.6
        shifted = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=d))
        for (x0, y0), (x1, y1) in zip(ds.sources, shifted.sources):
            n0 = (y0 == 0).sum()
            n1 = int(np.ceil((1 - d) * (y0 == 1).sum()))
            want = n0 / (n0 + n1)
            got = (y1 == 0).mean()
            assert abs(got - want) < 1e-12

    def test_sources_shift_leaves_target_untouched(self):
        ds = self._dataset()
        shifted = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=0.5))
        assert np.array_equal(shifted.target[0], ds.target[0])
        assert np.array_equal(shifted.target_unlabeled, ds.target_unlabeled)

    def test_deterministic_given_seed(self):
        ds = self._dataset()
        s1 = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=0.5, seed=9))
        s2 = data.apply_target_shift(ds, ShiftSpec(drop_classes=(1,), drop_rate=0.5, seed=9))
        assert np.array_equal(s1.sources[0][0], s2.sources[0][0])

    def test_full_drop_rejected(self):
        with pytest.raises(data.DataError):
            ShiftSpec(drop_classes=(1,), drop_rate=1.0)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 3))
        y = rng.integers(0, 4, 7)
        path = tmp_path / "d.csv"
        data.write_csv(path, x, y)
        x2, y2 = data.load_csv(path)
        assert np.array_equal(x, x2) and np.array_equal(y, y2)

    def test_empty_body_gives_empty_set(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("label,f0,f1\n")
        x, y = data.load_csv(path)
        assert x.shape == (0, 2) and y.shape == (0,)

    def test_hand_written_two_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("label,f0,f1\n1,0.25,-3.5\n0,1.0,2.0\n")
        x, y = data.load_csv(path)
        assert np.array_equal(y, [1, 0])
        assert np.array_equal(x, [[0.25, -3.5], [1.0, 2.0]])

    def test_width_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(data.CsvFormatError) as info:
            data.load_csv(path)
        assert info.value.line_no == 3

    def test_non_integer_label_reports_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("label,f0\nx,1.0\n")
        with pytest.raises(data.CsvFormatError) as info:
            data.load_csv(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("label", [str(2 ** 63), str(-2 ** 63 - 1), "9" * 30])
    def test_a_label_past_the_64_bit_integers_reports_line(self, tmp_path, label):
        """Not an OverflowError from the label array."""
        path = tmp_path / "l.csv"
        path.write_text(f"label,f0\n0,1.0\n{label},1.0\n")
        with pytest.raises(data.CsvFormatError, match=re.escape(
                f"l.csv: line 3: label '{label}' is outside the 64-bit integers")):
            data.load_csv(path)

    @pytest.mark.parametrize("label", ["1_0", "\u0663", "\uff11"])
    def test_a_label_spelled_beyond_ascii_digits_reports_line(self, tmp_path, label):
        """int() alone would read these as 10, 3 and 1."""
        path = tmp_path / "l.csv"
        path.write_text(f"label,f0\n0,1.0\n{label},1.0\n", encoding="utf-8")
        with pytest.raises(data.CsvFormatError, match=re.escape(
                f"l.csv: line 3: non-integer label '{label}'")):
            data.load_csv(path)

    def test_the_64_bit_extremes_are_labels(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text(f"label,f0\n{2 ** 63 - 1},1.0\n{-2 ** 63},1.0\n")
        assert data.load_csv(path)[1].tolist() == [2 ** 63 - 1, -2 ** 63]

    # float() alone would read the last three as 15.0, 3.0 and 20.0
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "wide", "",
                                      "1_5", "\u0663", "\uff12\uff10"])
    def test_a_feature_that_is_not_a_finite_number_names_its_cell(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,{cell}\n", encoding="utf-8")
        with pytest.raises(data.CsvFormatError, match=re.escape(
                f"f.csv: line 3: f1 '{cell}' is not a finite number")):
            data.load_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n")
        with pytest.raises(data.CsvFormatError):
            data.load_csv(path)


# a cell write_table writes and read_table reads back: a finite float as
# its repr, an int, None as '', or text that may hold commas, quotes and
# line breaks
CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(),
                  st.none(), st.text(st.sampled_from(',"\r\n')
                                     | st.characters(blacklist_categories=("Cs",))))


def spelled(cell):
    if cell is None:
        return ""
    return repr(cell) if isinstance(cell, float) else str(cell)


class TestReadTable:
    @settings(max_examples=100)
    @given(st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width))))
    def test_reads_back_what_write_table_writes(self, tmp_path_factory, rows):
        width = len(rows[0]) if rows else 1
        header = [f"c{i}" for i in range(width)]
        path = tmp_path_factory.mktemp("table") / "t.csv"
        data.write_table(path, header, rows)
        got_header, got = data.read_table(path, ("c0",))
        assert got_header == header
        # a row of one empty cell is written as "" and read back, not skipped
        assert [row for _, row in got] == [[spelled(c) for c in row] for row in rows]

    def test_blank_rows_are_skipped_and_lines_counted(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("a,b\n\n1,2\n\n3,4\n")
        header, rows = data.read_table(path)
        assert header == ["a", "b"] and rows == [(3, ["1", "2"]), (5, ["3", "4"])]

    def test_header_must_start_with_the_leading_cells(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(" measure , label ,f0\n")
        assert data.read_table(path, ("measure", "label"))[0] == ["measure", "label", "f0"]
        with pytest.raises(data.CsvFormatError, match="line 1: header must start with label"):
            data.read_table(path, ("label",))

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(data.CsvFormatError, match="line 1: missing header row"):
            data.read_table(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "u.csv"
        # the bad byte lies past the first chunks a text file decodes
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n")
        with pytest.raises(data.CsvFormatError) as info:
            data.read_table(path)
        assert info.value.line_no == 5002 and "UTF-8" in str(info.value)


class TestFiniteFloats:
    @settings(max_examples=300)
    @given(st.text(st.sampled_from("0123456789+-.eE infINFa\t"), max_size=8))
    def test_an_ascii_cell_without_underscores_reads_as_float_reads_it(self, text):
        """number_text leaves every ASCII spelling without '_' to float()."""
        try:
            want = float(text)
        except ValueError:
            want = math.nan
        if math.isfinite(want):
            assert data.finite_floats("t.csv", 2, ["c"], [text]) == [want]
        else:
            with pytest.raises(data.CsvFormatError, match="is not a finite number"):
                data.finite_floats("t.csv", 2, ["c"], [text])

    @settings(max_examples=100)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_reads_each_finite_float_back_bit_for_bit(self, values):
        """The floats of the cells write_table writes (their repr)."""
        columns = [f"c{i}" for i in range(len(values))]
        got = data.finite_floats("t.csv", 2, columns, [repr(v) for v in values])
        assert [v.hex() for v in got] == [v.hex() for v in values]

    def test_names_the_first_cell_that_is_not_a_finite_number(self):
        with pytest.raises(data.CsvFormatError) as info:
            data.finite_floats("t.csv", 7, ["a", "b", "c"], ["1.0", " nan", "x"])
        assert str(info.value) == "t.csv: line 7: b ' nan' is not a finite number"
        assert info.value.path == "t.csv" and info.value.line_no == 7


class TestBatchStream:
    def test_full_batch_is_a_permutation(self):
        x = np.arange(12, dtype=float).reshape(12, 1)
        y = np.arange(12)
        (bx, by), = data.epoch_batches(x, y, 12, seed=0)
        assert sorted(bx.ravel()) == list(range(12))
        assert np.array_equal(bx.ravel().astype(int), by)

    def test_same_seed_same_sequences(self):
        x = np.arange(20, dtype=float).reshape(20, 1)
        a = data.epoch_batches(x, None, 6, seed=5, epoch=2)
        b = data.epoch_batches(x, None, 6, seed=5, epoch=2)
        for (ax, _), (bx, _) in zip(a, b):
            assert np.array_equal(ax, bx)

    def test_epoch_union_is_the_multiset(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((23, 2))
        batches = data.epoch_batches(x, None, 5, seed=3, epoch=4)
        assert len(batches) == 5  # 4 full + 1 short, short batch kept
        stacked = np.concatenate([b[0] for b in batches])
        assert np.array_equal(np.sort(stacked, axis=0), np.sort(x, axis=0))

    def test_oversized_batch_warns_and_clamps(self):
        x = np.zeros((4, 1))
        with pytest.warns(UserWarning):
            batches = data.epoch_batches(x, None, 9, seed=0)
        assert len(batches) == 1 and batches[0][0].shape[0] == 4

    def test_stream_reshuzzles_across_epochs(self):
        x = np.arange(30, dtype=float).reshape(30, 1)
        stream = data.batch_stream(x, None, 30, seed=2)
        first = next(stream)[0]
        second = next(stream)[0]
        assert not np.array_equal(first, second)
        assert np.array_equal(np.sort(first, 0), np.sort(second, 0))

    def test_order_is_independent_of_consumption(self):
        # pure function of (seed, epoch): a second stream gives the same order
        x = np.arange(10, dtype=float).reshape(10, 1)
        s1 = data.batch_stream(x, None, 3, seed=9)
        consumed = [next(s1)[0] for _ in range(7)]
        s2 = data.batch_stream(x, None, 3, seed=9)
        again = [next(s2)[0] for _ in range(7)]
        for a, b in zip(consumed, again):
            assert np.array_equal(a, b)


class TestDefaultBenchmark:
    def test_shapes_and_shift(self):
        train, test = data.default_benchmark(drop_rate=0.5, seed=0)
        assert len(train.sources) == 2
        assert train.target[0].shape[0] == 0  # unlabeled regime by default
        assert train.target_unlabeled.shape[0] == 2000
        for _, y in train.sources:
            counts = np.bincount(y, minlength=2)
            assert counts[1] < counts[0]  # class 1 dropped
        # test target is untouched and labeled
        assert test.target[0].shape[0] == 2000

    def test_labeled_variant(self):
        train, _ = data.default_benchmark(drop_rate=0.2, seed=1, labeled_target_size=200)
        assert train.target[0].shape[0] == 200

    def test_reproducible(self):
        a, _ = data.default_benchmark(seed=4)
        b, _ = data.default_benchmark(seed=4)
        assert np.array_equal(a.sources[0][0], b.sources[0][0])
        assert np.array_equal(a.target_unlabeled, b.target_unlabeled)

    def test_rotation_moves_source_means(self):
        train, _ = data.default_benchmark(drop_rate=0.0, seed=2)
        x1, y1 = train.sources[0]
        x2, y2 = train.sources[1]
        m1 = x1[y1 == 0].mean(axis=0)
        m2 = x2[y2 == 0].mean(axis=0)
        assert np.linalg.norm(m1 - m2) > 0.5

    def test_dataset_invariants(self):
        with pytest.raises(data.DataError):
            MultiSourceDataset(sources=[(np.zeros((0, 2)), np.zeros(0, dtype=int))],
                               target=(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                               target_unlabeled=np.zeros((0, 2)), n_classes=2, dim=2)
