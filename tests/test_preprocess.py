import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distinguish import DataMatrix, load_csv, pca, save_csv, standardize


def former_load_csv(path, has_header=False):
    """load_csv as it parsed every file: one pass over the records, each
    cell through float() and np.isfinite, stopping at the first bad row or
    cell."""
    rows, names = [], None
    with open(path, newline="") as fh:
        width = None
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue
            if has_header and names is None and not rows:
                names = tuple(s.strip() for s in rec)
                width = len(names)
                continue
            if width is None:
                width = len(rec)
            if len(rec) != width:
                raise ValueError(f"ragged row {lineno}: expected {width} "
                                 f"fields, got {len(rec)}")
            vals = []
            for colno, cell in enumerate(rec, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(f"non-numeric cell at row {lineno}, "
                                     f"column {colno}: {cell!r}") from None
                if not np.isfinite(v):
                    raise ValueError(f"non-finite cell at row {lineno}, "
                                     f"column {colno}: {cell!r}")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise ValueError("no data rows in file")
    return DataMatrix(np.asarray(rows, dtype=float), names)


# cells that float() reads, and cells it reads to a non-finite value or
# refuses: whitespace, underscores, hex, nan, inf, overflow, words, blanks
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1", " 2.5 ", "\t-3e-2", "1_000", "1__0", "_1", "0x10",
                     "1e-400", "+.5", "5.", "nan", "NaN", " -inf",
                     "Infinity", "1e400", "-1e400", "", " ", "abc", "1,5",
                     "1e", "--1"]))
LINES = st.one_of(
    st.lists(CELLS, min_size=1, max_size=4),
    st.sampled_from([[], [""], ["   "]]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(LINES, max_size=8), st.booleans(), st.integers(1, 3))
# a non-finite cell before a ragged row (at width 3 the first row is kept
# at two fields), a non-finite cell before a non-numeric one, and finite
# values whose sum overflows, which load
@example(lines=[["nan", "1"], ["2"]], header=False, width=3)
@example(lines=[["1", "2"], ["1e400", "abc"]], header=False, width=2)
@example(lines=[["1e308", "1e308"], ["-1.7e308", "-1e308"]], header=True,
         width=2)
def test_load_csv_equals_the_cell_by_cell_parse(tmp_path_factory, lines,
                                                header, width):
    # every line of cells is padded or cut to width, except at width 3 the
    # first, so that some files are ragged
    rows = [cells if not cells or i == 0 and width == 3
            else (cells * width)[:width] for i, cells in enumerate(lines)]
    path = tmp_path_factory.getbasetemp() / "cell_by_cell.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    try:
        expect = former_load_csv(path, header)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_csv(path, header)
        assert str(got.value) == str(exc)
        return
    X = load_csv(path, header)
    assert X.feature_names == expect.feature_names
    assert X.values.dtype == expect.values.dtype
    assert X.values.shape == expect.values.shape
    assert X.values.tobytes() == expect.values.tobytes()


@pytest.fixture
def csv_path(tmp_path):
    def write(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestLoadCsv:
    def test_plain_numeric(self, csv_path):
        X = load_csv(csv_path("1,2\n3,4\n"))
        assert X.n == 2 and X.p == 2
        assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_row(self, csv_path):
        X = load_csv(csv_path("a,b\n1,2\n"), has_header=True)
        assert X.feature_names == ("a", "b")
        assert X.n == 1

    def test_blank_lines_skipped(self, csv_path):
        X = load_csv(csv_path("1,2\n\n3,4\n\n"))
        assert X.n == 2

    def test_ragged_row_rejected(self, csv_path):
        with pytest.raises(ValueError, match="ragged"):
            load_csv(csv_path("1,2\n3\n"))

    def test_non_numeric_cell_located(self, csv_path):
        with pytest.raises(ValueError, match="row 2.*column 2"):
            load_csv(csv_path("1,2\n3,x\n"))

    def test_non_finite_rejected(self, csv_path):
        with pytest.raises(ValueError):
            load_csv(csv_path("1,2\n3,nan\n"))

    def test_empty_file_rejected(self, csv_path):
        with pytest.raises(ValueError):
            load_csv(csv_path(""))

    def test_quoted_fields(self, csv_path):
        X = load_csv(csv_path('"name","x"\n"1.5","2.5"\n'), has_header=True)
        assert X.values[0, 0] == 1.5

    def test_bad_cell_in_a_pipe_is_named(self, fifo):
        with pytest.raises(ValueError, match="row 2, column 2: 'x'"):
            load_csv(fifo(b"1,2\n3,x\n"))

    def test_field_over_the_csv_limit_is_named(self, csv_path):
        # the csv module refuses a field over 131,072 characters
        with pytest.raises(ValueError, match="^unreadable row 2: field "
                                             "larger than field limit"):
            load_csv(csv_path("1\n" + "7" * 200_000 + "\n2\n"))

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_endings_load_the_same_bits(self, tmp_path, end):
        X = np.random.default_rng(4).normal(size=(30, 3))
        text = "a,b,c\n\n" + "".join(",".join(map(repr, row)) + "\n"
                                     for row in X.tolist())
        (tmp_path / "lf.csv").write_bytes(text.encode())
        (tmp_path / "other.csv").write_bytes(text.replace("\n", end).encode())
        want = load_csv(tmp_path / "lf.csv", has_header=True)
        got = load_csv(tmp_path / "other.csv", has_header=True)
        assert got.feature_names == want.feature_names == ("a", "b", "c")
        assert got.values.tobytes() == want.values.tobytes() == X.tobytes()

    def test_large_file_keeps_no_object_per_cell(self, tmp_path):
        # 100,000 cells: as Python floats they alone take 3.2 MB, 32 B each;
        # as one flat array of doubles 0.8 MB
        X = np.random.default_rng(0).normal(size=(20_000, 5))
        path = tmp_path / "large.csv"
        save_csv(path, X)
        tracemalloc.start()
        try:
            back = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == X.tobytes()
        assert peak < 2 * 2**20

    def test_pipe_is_read_as_it_arrives(self, fifo):
        # the same 20,000 x 5 file, 1.9 MB, through a named pipe, written as
        # bytes encoded beforehand, so that the writer allocates nothing
        # traced; an in-memory copy of the text (a StringIO) takes 7.5 MiB
        X = np.random.default_rng(0).normal(size=(20_000, 5))
        path = fifo("".join(",".join(map(repr, row)) + "\n"
                            for row in X.tolist()).encode())
        tracemalloc.start()
        try:
            back = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == X.tobytes()
        assert peak < 2 * 2**20


def test_save_load_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3)) * np.pi
    path = str(tmp_path / "round.csv")
    save_csv(path, X, ["u", "v", "w"])
    back = load_csv(path, has_header=True)
    assert np.array_equal(back.values, X)
    assert back.feature_names == ("u", "v", "w")


class TestStandardize:
    def test_center_and_scale(self):
        rng = np.random.default_rng(1)
        X = rng.normal(3.0, 2.5, size=(40, 2))
        Z = standardize(X)
        assert np.allclose(Z.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.values.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_center_only(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        Z = standardize(X, scale=False)
        assert np.allclose(Z.values.mean(axis=0), 0.0)
        assert not np.allclose(Z.values.std(axis=0, ddof=1), 1.0)

    def test_constant_column_rejected(self):
        X = np.array([[1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match="constant column"):
            standardize(X)

    def test_names_carried(self):
        X = DataMatrix(np.array([[1.0], [2.0]]), feature_names=("len",))
        assert standardize(X).feature_names == ("len",)


class TestPca:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(60, 2))
        # embed a dominant direction in 3-D
        A = np.array([[3.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        return Z @ A.T + np.array([1.0, -2.0, 0.5])

    def test_shapes_and_ordering(self, data):
        r = pca(data, 2)
        assert r.scores.values.shape == (60, 2)
        assert r.loadings.shape == (3, 2)
        assert r.stdev_per_component[0] >= r.stdev_per_component[1]
        assert np.all(np.diff(r.stdev_per_component) <= 1e-12)

    def test_scores_are_projected_centered_data(self, data):
        r = pca(data, 2)
        C = data - data.mean(axis=0)
        assert np.allclose(r.scores.values, C @ r.loadings, atol=1e-10)

    def test_sign_convention(self, data):
        r = pca(data, 2)
        for j in range(2):
            col = r.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_stdev_matches_score_sd(self, data):
        r = pca(data, 2)
        sd = r.scores.values.std(axis=0, ddof=1)
        assert np.allclose(sd, r.stdev_per_component[:2], atol=1e-10)

    def test_q_bounds(self, data):
        with pytest.raises(ValueError):
            pca(data, 0)
        with pytest.raises(ValueError):
            pca(data, 4)

    def test_orthonormal_loadings(self, data):
        r = pca(data, 2)
        assert np.allclose(r.loadings.T @ r.loadings, np.eye(2), atol=1e-10)
