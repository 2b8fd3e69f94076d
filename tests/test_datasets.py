"""Loading, standardization, and split arithmetic.

Expected values worth freezing: population std of [1, 2, 3] is sqrt(2/3),
and a 506-row split is 152 test / 5 initial / 349 pool.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import (
    Dataset,
    DatasetManifest,
    load_dataset,
    load_manifest,
    make_split,
    round_half_up,
    standardize,
)
from alregress.datasets import DEGENERATE_STD

from conftest import REPO_ROOT

SQRT_2_3 = 0.816496580927726  # population std of [1, 2, 3]


class TestRounding:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (2.51, 3), (0.0, 0), (3.0, 3)],
    )
    def test_half_up(self, x, expected):
        assert round_half_up(x) == expected


class TestManifest:
    def _write(self, tmp_path, payload):
        p = tmp_path / "sets.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        return p

    def test_round_trip_and_relative_paths(self, tmp_path):
        p = self._write(
            tmp_path,
            {
                "toy": {
                    "path": "toy.csv",
                    "delimiter": ",",
                    "target_column": -1,
                    "expected_rows": 3,
                    "expected_cols": 2,
                }
            },
        )
        m = load_manifest(p)["toy"]
        assert m.name == "toy"
        assert m.path == str(tmp_path / "toy.csv")
        assert m.expected_cols == 2

    def test_rejects_unknown_fields(self, tmp_path):
        p = self._write(tmp_path, {"toy": {"path": "x", "sep": ","}})
        with pytest.raises(ValueError, match="unknown fields"):
            load_manifest(p)

    def test_rejects_missing_path(self, tmp_path):
        p = self._write(tmp_path, {"toy": {"delimiter": ","}})
        with pytest.raises(ValueError, match="path"):
            load_manifest(p)

    def test_rejects_non_object(self, tmp_path):
        p = self._write(tmp_path, ["not", "an", "object"])
        with pytest.raises(ValueError, match="object"):
            load_manifest(p)

    def test_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_manifest(p)

    # Each of these once loaded a 3x3 file wrongly or failed without naming
    # the entry: a bool or a float target took column 1, "no" read as true
    # and ate a data row, "3" rows never equalled 3, and a numeric path
    # raised a bare TypeError. np.loadtxt takes one delimiter character.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("target_column", True),
            ("target_column", 1.7),
            ("skip_header", "no"),
            ("expected_rows", "3"),
            ("path", 5),
            ("delimiter", "::"),
        ],
    )
    def test_rejects_mistyped_field(self, tmp_path, field, value):
        (tmp_path / "toy.csv").write_text("1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        entry = {"path": "toy.csv", field: value}
        p = self._write(tmp_path, {"toy": entry})
        with pytest.raises(ValueError, match=f"dataset 'toy': {field} must be"):
            load_manifest(p)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ValueError, match="'t': expected_cols must be"):
            DatasetManifest(name="t", path="x.csv", expected_cols=0)
        with pytest.raises(ValueError, match="'t': delimiter must be"):
            DatasetManifest(name="t", path="x.csv", delimiter="")

    def test_shipped_manifest_builds(self):
        path = REPO_ROOT / "manifests" / "uci.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        manifests = load_manifest(path)
        assert list(manifests) == list(raw) and len(raw) == 6
        for name, entry in raw.items():
            want = dict(entry, path=str(path.parent / entry["path"]))
            assert {f: getattr(manifests[name], f) for f in want} == want, name


class TestLoading:
    def _data_file(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_comma_file_last_column_target(self, tmp_path):
        p = self._data_file(tmp_path, "1,2,10\n3,4,20\n")
        ds = load_dataset(DatasetManifest(name="t", path=str(p)))
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.targets, [10, 20])

    def test_whitespace_delimiter_handles_runs(self, tmp_path):
        p = self._data_file(tmp_path, "  1   2  10\n3\t4\t20\n")
        ds = load_dataset(DatasetManifest(name="t", path=str(p), delimiter=" "))
        assert ds.n == 2 and ds.dim == 2

    def test_header_and_named_target(self, tmp_path):
        p = self._data_file(tmp_path, 'a,b,"y"\n1,2,10\n3,4,20\n')
        ds = load_dataset(
            DatasetManifest(
                name="t", path=str(p), skip_header=True, target_column="y"
            )
        )
        np.testing.assert_array_equal(ds.targets, [10, 20])

    def test_target_by_positive_index(self, tmp_path):
        p = self._data_file(tmp_path, "10,1,2\n20,3,4\n")
        ds = load_dataset(DatasetManifest(name="t", path=str(p), target_column=0))
        np.testing.assert_array_equal(ds.targets, [10, 20])
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])

    def test_blank_lines_skipped(self, tmp_path):
        p = self._data_file(tmp_path, "1,2,10\n\n\n3,4,20\n\n")
        assert load_dataset(DatasetManifest(name="t", path=str(p))).n == 2

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = self._data_file(tmp_path, "1,2,10\n3,oops,20\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(DatasetManifest(name="t", path=str(p)))

    def test_ragged_row_names_line(self, tmp_path):
        p = self._data_file(tmp_path, "1,2,10\n3,20\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(DatasetManifest(name="t", path=str(p)))

    def test_extra_cell_then_missing_cell_names_the_first(self, tmp_path):
        # line 3 has one cell too many, line 5 one too few: together they
        # hold rows x width cells, so only a per-line count catches line 3
        p = self._data_file(tmp_path, "1,2,10\n3,4,20\n5,6,7,30\n8,9,40\n1,50\n")
        with pytest.raises(ValueError) as err:
            load_dataset(DatasetManifest(name="t", path=str(p)))
        assert str(err.value) == "dataset 't': line 3 has 4 columns, expected 3"
        assert err.value.__suppress_context__  # no parse error chained on

    def test_error_messages_name_the_first_bad_line(self, tmp_path):
        p = self._data_file(tmp_path, 'h,y\n\n1,10\n2, "x" \n3\n', name="e.csv")
        manifest = DatasetManifest(name="t", path=str(p), skip_header=True)
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"dataset 't': non-numeric cell 'x' at line 4 of {p}"
        assert err.value.__suppress_context__
        p.write_text("1,10\n\n2,20\n3\n4,x\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_dataset(DatasetManifest(name="t", path=str(p)))
        assert str(err.value) == "dataset 't': line 4 has 1 columns, expected 2"
        assert err.value.__suppress_context__
        # a ragged line with a non-numeric cell is named for the cell, and
        # so is a bad first data line
        for text, bad, line in [("1,10\n2,x,3\n", "x", 2), ("a,1\n2,3\n", "a", 1)]:
            p.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError) as err:
                load_dataset(DatasetManifest(name="t", path=str(p)))
            want = f"dataset 't': non-numeric cell {bad!r} at line {line} of {p}"
            assert str(err.value) == want

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        p = self._data_file(tmp_path, "a,b,y\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(DatasetManifest(name="t", path=str(p), skip_header=True))

    def test_cells_parse_as_python_floats(self, tmp_path):
        # one float() per cell, whatever the spelling: the bits of a
        # list-of-lists parse
        rng = np.random.default_rng(3)
        lines = []
        for row in rng.normal(scale=1e3, size=(40, 4)).tolist():
            spelled = [repr(row[0]), f"{row[1]:.3e}", f'"{row[2]!r}" ', f"{row[3]:.17g}"]
            lines.append(",".join(spelled))
        p = self._data_file(tmp_path, "\n".join(lines) + "\n")
        ds = load_dataset(DatasetManifest(name="t", path=str(p)))
        want = np.asarray(
            [[float(c.strip().strip('"')) for c in line.split(",")] for line in lines]
        )
        assert ds.features.tobytes() == np.ascontiguousarray(want[:, :3]).tobytes()
        assert ds.targets.tobytes() == np.ascontiguousarray(want[:, 3]).tobytes()

    def test_expected_shape_mismatches(self, tmp_path):
        p = self._data_file(tmp_path, "1,2,10\n3,4,20\n")
        with pytest.raises(ValueError, match="expected 5 rows"):
            load_dataset(DatasetManifest(name="t", path=str(p), expected_rows=5))
        with pytest.raises(ValueError, match="feature columns"):
            load_dataset(DatasetManifest(name="t", path=str(p), expected_cols=7))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(DatasetManifest(name="t", path=str(tmp_path / "no.csv")))

    def test_named_target_requires_header(self, tmp_path):
        p = self._data_file(tmp_path, "1,2,10\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(DatasetManifest(name="t", path=str(p), target_column="y"))


# A cell as a file may spell it: repr, short and long exponent forms,
# integers, a leading sign.
_CELLS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(-1e300, 1e300).map(lambda x: f"{x:.3e}"),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.17g}"),
    st.integers(-(10**6), 10**6).map(str),
    st.integers(0, 999).map(lambda i: f"+{i}.5"),
)


@st.composite
def table_files(draw):
    """(text, delimiter, skip_header, width) of a well-formed table: blank
    lines anywhere, LF or CRLF ends, runs of spaces and tabs where the
    delimiter is whitespace, spaces around delimited cells, quoted cells
    ("1.5", and "1.5" then spaces), an optional header."""
    width = draw(st.integers(1, 6))
    row = st.lists(_CELLS, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    skip_header = draw(st.booleans())
    if skip_header:
        rows.insert(0, [f'"c{i}"' if i % 2 else f"c{i}" for i in range(width)])
    pad = st.sampled_from(["", " ", "  "])

    def spelled(cell):
        # a quote opens a field only as its first character
        if cell.startswith('"') or not draw(st.booleans()):
            return draw(pad) + cell + draw(pad)
        return f'"{cell}"' + draw(pad)

    lines = []
    for cells in rows:
        if delimiter.strip():
            line = delimiter.join(spelled(c) for c in cells)
        else:
            gaps = st.sampled_from([" ", "\t", "  ", " \t "])
            line = draw(pad) + "".join(spelled(c) + draw(gaps) for c in cells).rstrip()
        lines.extend([""] * draw(st.integers(0, 2)))  # blank lines before
        lines.append(line)
    if not delimiter.strip() and draw(st.booleans()):
        lines.append(" \t ")  # a whitespace-only line
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + newline * draw(st.integers(0, 2))
    return text, delimiter, skip_header, width


def float_reference(text, delimiter, skip_header):
    """The table as a list of lists, every cell one float() of its text
    without surrounding spaces and quotes; the header line dropped."""
    lines = [line for line in text.splitlines() if line.strip()]
    split = str.split if delimiter.strip() == "" else lambda s: s.split(delimiter)
    return [
        [float(cell.strip().strip('"')) for cell in split(line)]
        for line in lines[int(skip_header) :]
    ]


class TestReader:
    """np.loadtxt, the one reader, against float() and the lines it refuses."""

    @given(table=table_files())
    @settings(max_examples=200, deadline=None)
    def test_equals_float_reference(self, tmp_path_factory, table):
        text, delimiter, skip_header, width = table
        path = tmp_path_factory.mktemp("load") / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        # by header name when there is one: "c1", "c3" and "c5" are quoted
        target = f"c{width - 1}" if skip_header else -1
        manifest = DatasetManifest(
            name="t",
            path=str(path),
            delimiter=delimiter,
            skip_header=skip_header,
            target_column=target,
        )
        if width == 1:  # the target is the only column
            with pytest.raises(ValueError, match="one feature"):
                load_dataset(manifest)
            return
        ds = load_dataset(manifest)
        want = np.asarray(float_reference(text, delimiter, skip_header))
        assert ds.features.shape == (want.shape[0], width - 1)
        assert ds.features.tobytes() == np.ascontiguousarray(want[:, :-1]).tobytes()
        assert ds.targets.tobytes() == np.ascontiguousarray(want[:, -1]).tobytes()

    def test_dropped_spellings_name_their_line(self, tmp_path):
        # float() reads each of these, loadtxt does not: a digit separator,
        # a space before an opening quote, and a whitespace-only line in a
        # delimited file, which is one empty cell
        path = tmp_path / "r.txt"
        for line, shown in [("1_0,2", "1_0"), (' "1.5",2', ' "1.5"'), (" ", "")]:
            path.write_text(f"1,2\n{line}\n3,4\n", encoding="utf-8")
            with pytest.raises(ValueError) as err:
                load_dataset(DatasetManifest(name="t", path=str(path)))
            want = f"dataset 't': non-numeric cell {shown!r} at line 2 of {path}"
            assert str(err.value) == want
            assert err.value.__suppress_context__


class TestDatasetValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(
                features=np.array([[1.0], [np.nan]]),
                targets=np.array([1.0, 2.0]),
                name="bad",
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.ones((3, 2)), targets=np.ones(2), name="bad"
            )


class TestStandardizer:
    def test_frozen_population_std(self):
        Z = standardize(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(
            Z[:, 0], [-1 / SQRT_2_3, 0.0, 1 / SQRT_2_3], rtol=0, atol=1e-15
        )

    def test_output_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Z = standardize(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_passes_through_centered(self):
        X = np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
        Z = standardize(X)
        np.testing.assert_array_equal(Z[:, 0], 0.0)  # divided by 1, not ~0

    @pytest.mark.parametrize(
        "X", [np.ones(3), np.ones((2, 2, 2)), np.ones((0, 3)), np.ones((3, 0))]
    )
    def test_rejects_non_2d_and_empty(self, X):
        with pytest.raises(ValueError):
            standardize(X)

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_recovers_input(self, rows):
        X = np.array(rows)
        stds = X.std(axis=0)
        stds = np.where(stds < DEGENERATE_STD, 1.0, stds)
        back = standardize(X) * stds + X.mean(axis=0)
        np.testing.assert_allclose(back, X, atol=1e-6, rtol=1e-9)


class TestSplit:
    def test_housing_sized_split(self):
        s = make_split(506, seed=0)
        assert len(s.test) == 152  # round_half_up(151.8)
        assert len(s.initial_labeled) == 5  # round_half_up(5.06)
        assert len(s.unlabeled_pool) == 349

    def test_tiny_n_gets_one_initial_label(self):
        s = make_split(40, seed=1)
        assert len(s.test) == 12
        assert len(s.initial_labeled) == 1  # max(1, round_half_up(0.4))

    def test_partition_properties(self):
        for n, seed in [(50, 0), (308, 3), (1030, 9)]:
            s = make_split(n, seed)
            merged = np.concatenate([s.test, s.initial_labeled, s.unlabeled_pool])
            assert sorted(merged.tolist()) == list(range(n))
            for arr in (s.test, s.initial_labeled, s.unlabeled_pool):
                assert np.all(np.diff(arr) > 0)  # sorted, duplicate-free

    def test_same_seed_same_split(self):
        a, b = make_split(100, 7), make_split(100, 7)
        np.testing.assert_array_equal(a.test, b.test)
        np.testing.assert_array_equal(a.unlabeled_pool, b.unlabeled_pool)

    def test_different_seed_different_split(self):
        a, b = make_split(100, 7), make_split(100, 8)
        assert not np.array_equal(a.test, b.test)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_split(3, 0)
