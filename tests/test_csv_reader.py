"""The tour CSV reader, which reads a block of text at a time and parses
each block's rows in one float() pass, against the row-by-row reader of
the whole text (brute_force_read_drive_log_csv): every input gives the
same DriveLog bit for bit, or the same SchemaError message, row and
column, wherever the block seams fall and whatever the row and line
bounds, and the same again through a pipe, which can be read only once.
Also: what is refused past those bounds, and a dense tour's peak memory,
which follows its parsed columns, not its text."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laneweave
from laneweave import pipeline
from laneweave.cli import EXIT_SCHEMA, main
from laneweave.pipeline import read_drive_log_csv
from laneweave.errors import SchemaError

from _oracles import brute_force_read_drive_log_csv, rows_have_width

HEADER = "t,dist_left,dist_right,v_lon"
LANE_HEADER = HEADER + ",lane_id"
LOG_COLUMNS = ("t", "dist_left", "dist_right", "v_lon", "lane_id")


def outcome(reader, path):
    """The log's column bytes and tour id, or the error's message, row and
    column, so that two readers can be compared with ==."""
    try:
        log = reader(path)
    except SchemaError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("log", log.tour_id, *(getattr(log, name).tobytes() for name in LOG_COLUMNS))


def assert_matches_oracle(path):
    expected = outcome(brute_force_read_drive_log_csv, path)
    assert outcome(read_drive_log_csv, path) == expected
    return expected


def write(tmp_path, text, name="tour.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def tour_rows(n, lane=True):
    """n clean rows, t = 0.2 * i, an empty lane_id every seventh row."""
    rows = []
    for i in range(n):
        row = f"{0.2 * i!r},1.8,{1.7 + i % 3 * 0.05!r},{80.0 + i % 11!r}"
        if lane:
            row += "," + ("" if i % 7 == 3 else "2.0")
        rows.append(row)
    return rows


class TestMatchesOracle:
    @pytest.mark.parametrize(
        "text",
        [
            # blank and whitespace-only lines are skipped but counted
            HEADER + "\n\n0.0,1.8,1.8,80\n   \n\t\n0.2,1.8,1.8,80\n",
            HEADER + "\n\n \n0.0,1.8,1.8,80\n0.0,1.8,1.8,80\n",
            # empty and whitespace-only lane_id are unknown
            LANE_HEADER + "\n0.0,1.8,1.8,80,\n0.2,1.8,1.8,80,  \n0.4,1.8,1.8,80,\t3\n",
            # any other empty or whitespace-only cell is an error
            LANE_HEADER + "\n0.0,1.8, ,80,2\n",
            HEADER + "\n0.0,1.8,1.8,\n",
            # float() syntax: underscores, padding, non-finite values
            LANE_HEADER + "\n1_0,1_8.5, 1.8 ,8e1,nan\n11,nan,inf,-inf,-nan\n",
            HEADER + "\n0.0,1.8,1.8,80\n1e400,1.8,1.8,80\n",
            HEADER + "\n-nan,1.8,1.8,80\n",
            HEADER + "\n0.0,1.8,1.8,0x10\n",
            # line endings
            HEADER + "\r\n0.0,1.8,1.8,80\r\n0.2,1.8,1.8,80\r\n",
            LANE_HEADER + "\n0.0,1.8,1.8,80,2\n0.2,1.8,1.8,80,",
            HEADER + "\n0.0,1.8,1.8,80\n0.2,1.8,1.8,80",
            # header only
            HEADER + "\n",
            LANE_HEADER,
            "",
            " t , dist_left,dist_right , v_lon\n0.0,1.8,1.8,80\n",
            "t,dist_left,dist_right,v_lon,lane,extra\n0.0,1.8,1.8,80,1,1\n",
            # errors in one row: field count before cells before t checks
            HEADER + "\n0.0,1.8,1.8,80\n0.0,abc,1.8,80\n",
            HEADER + "\nnan,abc,1.8\n",
            HEADER + "\n0.4,1.8,1.8,80\n0.2,abc,1.8,80\n",
            HEADER + "\n0.4,1.8,1.8,80\n0.2,1.8,1.8,80\n0.6,abc,1.8,80\n",
            # timestamps past MAX_MAGNITUDE, whose steps or span would
            # overflow; 1e150 itself is within it
            HEADER + "\n-1e308,1.8,1.8,80\n1e308,1.8,1.8,80\n",
            HEADER + "\n0.0,1.8,1.8,80\n1.7e308,1.8,1.8,80\n",
            HEADER + "\n1e150,1.8,1.8,80\n2e150,1.8,1.8,80\n",
        ],
    )
    def test_explicit_cases(self, tmp_path, text):
        assert_matches_oracle(write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        assert_matches_oracle(tmp_path / "absent.csv")

    @pytest.mark.parametrize("lane", [False, True])
    def test_compensating_short_and_long_rows(self, tmp_path, lane):
        # read as one run of cells, row 3's extra cell fills the gap in
        # row 2 and the shifted timestamps 0, 1, 3, 4 still increase
        tail = ",2" if lane else ""
        rows = ["0.0,1.8,1.8,80" + tail, "1.0,1.8,1.8" + tail, "2.0,3.0,1.8,1.8,80" + tail]
        rows.append("4.0,1.8,1.8,80" + tail)
        path = write(tmp_path, "\n".join([LANE_HEADER if lane else HEADER, *rows]) + "\n")
        width = 5 if lane else 4
        assert assert_matches_oracle(path) == (
            "error",
            f"{path}: row 2 has {width - 1} fields, expected {width}",
            2,
            None,
        )

    def test_short_row_before_a_long_one_is_named(self, tmp_path):
        # five cells each in total, so only a check of every row sees it
        path = write(tmp_path, "\n".join([LANE_HEADER, "0.0,1.8,1.8,80", "0.2,1.8,1.8,80,2,2"]) + "\n")
        code, stderr = run_cli(["calibrate", "--input", str(path), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_SCHEMA and stderr == f"error: {path}: row 1 has 4 fields, expected 5\n"

    def test_a_malformed_tour_through_a_pipe_names_its_row(self, tmp_path, pipe_holding):
        with pipe_holding(f"{HEADER}\n0.0,1.8,1.8,80\n0.2,1.8,1.8\n".encode()) as piped:
            code, stderr = run_cli(["calibrate", "--input", piped, "--out", str(tmp_path / "m.json")])
        assert code == EXIT_SCHEMA and stderr == f"error: {piped}: row 2 has 3 fields, expected 4\n"

    def test_a_block_that_fails_with_no_failing_row_is_a_program_fault(self, tmp_path):
        with pytest.raises(AssertionError, match="rows 8-9 fail a block check but no row check"):
            pipeline._raise_first_error(tmp_path / "tour.csv", tuple(LANE_HEADER.split(",")), tour_rows(2), 7, -1.0)

    def test_empty_timestamp_after_a_row_start(self, tmp_path):
        # the second row's first cell is read as "\n", which float() refuses
        path = write(tmp_path, "\n".join([LANE_HEADER, "0.0,1.8,1.8,80,2", ",1.8,1.8,80,2"]) + "\n")
        assert assert_matches_oracle(path)[1:4] == (f"{path}: row 2, column 't': cannot parse ''", 2, "t")

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize(
        "defect", [None, "cell", "short", "long", "repeat_t", "nan_t", "blank_lane", "blank"]
    )
    def test_defect_in_last_chunk(self, tmp_path, n, defect):
        rows = tour_rows(n)
        last = rows[-1].split(",")
        if defect == "cell":
            last[2] = "1.8x"
        elif defect == "short":
            last.pop()
        elif defect == "long":
            last.append("1")
        elif defect == "repeat_t":
            last[0] = rows[-2].split(",")[0]
        elif defect == "nan_t":
            last[0] = "nan"
        elif defect == "blank_lane":
            last[4] = " "
        rows[-1] = ",".join(last)
        if defect == "blank":
            rows.insert(n - 1, "  ")
        expected = assert_matches_oracle(write(tmp_path, "\n".join([LANE_HEADER, *rows]) + "\n"))
        if defect in (None, "blank_lane", "blank"):
            assert expected[0] == "log"
        else:
            assert expected[0] == "error" and expected[2] == n

    def test_columns_are_contiguous(self, tmp_path):
        log = read_drive_log_csv(write(tmp_path, "\n".join([LANE_HEADER, *tour_rows(1500)])))
        assert all(getattr(log, name).flags.c_contiguous for name in LOG_COLUMNS)
        assert len(log) == 1500 and np.isnan(log.lane_id[3]) and log.lane_id[4] == 2.0


class TestBounds:
    """Rows past MAX_TOUR_ROWS (blank lines count) and lines longer than
    MAX_LINE_CHARS are refused as soon as they are read, naming the row,
    as is a byte that is not UTF-8 wherever it lies."""

    def test_row_bound(self, tmp_path):
        rows = tour_rows(4)
        rows.insert(2, " ")
        within = write(tmp_path, "\n".join([LANE_HEADER, *rows[:4]]), "within.csv")
        past = write(tmp_path, "\n".join([LANE_HEADER, *rows]), "past.csv")
        with mock.patch.object(pipeline, "MAX_TOUR_ROWS", 4):
            assert assert_matches_oracle(within)[0] == "log"
            assert assert_matches_oracle(past) == (
                "error",
                f"{past}: row 5 is past the 4 rows a tour may hold",
                5,
                None,
            )
            code, stderr = run_cli(["calibrate", "--input", str(past), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_SCHEMA and stderr == f"error: {past}: row 5 is past the 4 rows a tour may hold\n"

    def test_an_earlier_error_comes_first(self, tmp_path):
        rows = tour_rows(6)
        rows[1] = rows[1].replace("1.8", "1.8x")
        path = write(tmp_path, "\n".join([LANE_HEADER, *rows]))
        with mock.patch.object(pipeline, "MAX_TOUR_ROWS", 4), mock.patch.object(pipeline, "CSV_BLOCK_CHARS", 64):
            assert assert_matches_oracle(path)[1:3] == (f"{path}: row 2, column 'dist_left': cannot parse '1.8x'", 2)
        rows = tour_rows(6)
        rows[2] = rows[1]
        rows[4] += " " * pipeline.MAX_LINE_CHARS
        path = write(tmp_path, "\n".join([LANE_HEADER, *rows]))
        assert assert_matches_oracle(path)[1:3] == (f"{path}: row 3: timestamps must be strictly increasing", 3)

    @pytest.mark.parametrize("block_chars", [7, 1 << 16])
    def test_a_bound_comes_before_an_error_in_its_row(self, tmp_path, block_chars):
        rows = tour_rows(3)
        rows[2] += ",1"
        path = write(tmp_path, "\n".join([LANE_HEADER, *rows]))
        with mock.patch.object(pipeline, "CSV_BLOCK_CHARS", block_chars):
            with mock.patch.object(pipeline, "MAX_TOUR_ROWS", 2):
                assert assert_matches_oracle(path)[1:3] == (f"{path}: row 3 is past the 2 rows a tour may hold", 3)
            rows[2] += " " * pipeline.MAX_LINE_CHARS
            path = write(tmp_path, "\n".join([LANE_HEADER, *rows]))
            assert assert_matches_oracle(path)[1:3] == (
                f"{path}: row 3 is longer than {pipeline.MAX_LINE_CHARS} characters",
                3,
            )

    @pytest.mark.parametrize("block_chars", [7, 1 << 16])
    def test_line_bound(self, tmp_path, block_chars):
        rows = tour_rows(3)
        # float() strips the padding, so the longest line allowed parses
        rows[1] = rows[1].replace(",", " " * (pipeline.MAX_LINE_CHARS - len(rows[1])) + ",", 1)
        within = write(tmp_path, "\n".join([LANE_HEADER, *rows]), "within.csv")
        rows[2] = rows[2].replace(",", " " * (pipeline.MAX_LINE_CHARS + 1 - len(rows[2])) + ",", 1)
        past = write(tmp_path, "\n".join([LANE_HEADER, *rows]), "past.csv")
        header = write(tmp_path, LANE_HEADER + " " * pipeline.MAX_LINE_CHARS + "\n" + rows[0], "header.csv")
        with mock.patch.object(pipeline, "CSV_BLOCK_CHARS", block_chars):
            assert assert_matches_oracle(within)[0] == "log"
            assert assert_matches_oracle(past)[1:3] == (
                f"{past}: row 3 is longer than {pipeline.MAX_LINE_CHARS} characters",
                3,
            )
            assert assert_matches_oracle(header)[1:3] == (
                f"{header}: header is longer than {pipeline.MAX_LINE_CHARS} characters",
                0,
            )

    def test_an_error_before_a_byte_not_utf8_comes_first(self, tmp_path):
        # the byte is decoded only when its block is read, after the
        # error in the first block has been raised
        rows = tour_rows(5000)
        rows[1] = rows[1].replace("1.8", "1.8x")
        text = "\n".join([LANE_HEADER, *rows]) + "\n"
        assert len(text) > 2 * pipeline.CSV_BLOCK_CHARS
        path = tmp_path / "tour.csv"
        path.write_bytes(text.encode() + b"\xff,1.8,1.8,80,2\n")
        with pytest.raises(SchemaError) as raised:
            read_drive_log_csv(path)
        assert str(raised.value) == f"{path}: row 2, column 'dist_left': cannot parse '1.8x'"

    def test_byte_not_utf8_after_the_first_block(self, tmp_path):
        text = "\n".join([LANE_HEADER, *tour_rows(5000)]) + "\n"
        assert len(text) > 2 * pipeline.CSV_BLOCK_CHARS
        path = tmp_path / "tour.csv"
        path.write_bytes(text.encode() + b"\xff,1.8,1.8,80,2\n")
        with pytest.raises(SchemaError, match=f"^cannot read input file {path}: 'utf-8' codec can't decode byte 0xff"):
            read_drive_log_csv(path)
        code, stderr = run_cli(["calibrate", "--input", str(path), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_SCHEMA and stderr.startswith(f"error: cannot read input file {path}: ")


def run_cli(argv):
    """(exit code, stderr) of one in-process command-line run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# 200 000 rows over 1 s: about 12 MB of text, 8 MB of parsed columns
DENSE_ROWS = 200_000
# the most calibrate on that tour may add to a fresh interpreter that
# imported the command line: 37 MB when the reader held the whole text,
# 18.6 MB with full-length copies in DriveLog's check and resample, now 12.8
DENSE_PEAK_MB = 16
_PEAK_KIB = "import resource; {code}; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_dense_tour_peak_memory_follows_its_columns(tmp_path):
    path = tmp_path / "dense.csv"
    with open(path, "w") as file:
        file.write(LANE_HEADER + "\n")
        file.writelines(
            f"{k * 5e-6!r},{1.5 + k % 997 / 7919!r},{1.9 - k % 991 / 7907!r},{80.0 + k % 13 * 0.25!r},2.0\n"
            for k in range(DENSE_ROWS)
        )
    src = str(Path(laneweave.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def peak_kib(code):
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_KIB.format(code=code)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return out.stdout.split()

    (baseline,) = peak_kib("import laneweave.cli")
    code, peak = peak_kib(
        "from laneweave.cli import main; "
        f"print(main(['calibrate', '--input', {str(path)!r}, '--out', {str(tmp_path / 'm.json')!r}]))"
    )
    # too few samples for the spectral fit: exit 4
    assert code == "4"
    assert (int(peak) - int(baseline)) / 1024 <= DENSE_PEAK_MB


NUMBERS = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
ODD_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "\t", "nan", "-nan", "inf", "-inf", "1_0", "1__0", "abc", "1e400", "0x1"]
    ),
    st.text(alphabet=" \t0123456789.-+eE_naif\xa0\u3000", max_size=6),
)
# every line end str.splitlines() knows; universal-newline reading turns
# "\r" and "\r\n" into "\n" first
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def csv_texts(draw):
    """Mostly well-formed tours with a few defects: odd cells, wrong field
    counts, blank lines, timestamps that stall or go back, and any line
    end, both between rows and inside one."""
    lane = draw(st.booleans())
    width = 5 if lane else 4
    lines = [LANE_HEADER if lane else HEADER]
    if draw(st.integers(0, 19)) == 0:
        lines[0] = draw(st.sampled_from(["t,dist_left,v_lon", LANE_HEADER + ",x", " " + HEADER]))
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 24))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
            continue
        t += draw(st.sampled_from([0.2] * 12 + [0.05, 0.0, -0.1]))
        cells = [repr(t)] + [draw(NUMBERS) for _ in range(width - 1)]
        if kind == 1:
            cells[draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
        elif kind == 2:
            cells = cells[: draw(st.integers(1, width - 1))]
        elif kind == 3:
            cells += [draw(NUMBERS) for _ in range(draw(st.integers(1, 2)))]
        elif kind == 4 and lane:
            cells[4] = draw(st.sampled_from(["", " ", "\t"]))
        line = ",".join(cells)
        if kind == 5:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(st.sampled_from(LINE_ENDS)) + line[cut:]
        lines.append(line)
    ends = [draw(st.sampled_from(["\n"] * 5 + LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


BLOCK_CHARS = st.one_of(st.integers(1, 40), st.just(pipeline.CSV_BLOCK_CHARS))


def assert_matches_oracle_with(path, **constants):
    """assert_matches_oracle with pipeline's constants patched."""
    with contextlib.ExitStack() as patches:
        for name, value in constants.items():
            patches.enter_context(mock.patch.object(pipeline, name, value))
        assert_matches_oracle(path)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), block_chars=BLOCK_CHARS)
def test_any_csv_matches_oracle(tmp_path_factory, text, block_chars):
    path = write(tmp_path_factory.mktemp("csv"), text)
    # small blocks put their seams inside these short files
    assert_matches_oracle_with(path, CSV_BLOCK_CHARS=block_chars)


def outcome_without_path(path):
    """outcome(read_drive_log_csv, path) less what the path sets: its
    place in the message and the tour id, its stem."""
    result = outcome(read_drive_log_csv, path)
    if result[0] == "error":
        return ("error", result[1].replace(str(path), "<path>"), *result[2:])
    return ("log", *result[2:])


@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), block_chars=BLOCK_CHARS)
def test_any_csv_reads_the_same_through_a_pipe(tmp_path_factory, pipe_holding, text, block_chars):
    # a pipe can be read only once, so every error must come from that read
    path = write(tmp_path_factory.mktemp("csv"), text)
    with mock.patch.object(pipeline, "CSV_BLOCK_CHARS", block_chars), pipe_holding(text.encode()) as piped:
        assert outcome_without_path(piped) == outcome_without_path(path)


@settings(max_examples=150, deadline=None)
@given(
    text=csv_texts(),
    block_chars=BLOCK_CHARS,
    max_rows=st.integers(0, 14),
    max_line=st.one_of(st.just(pipeline.MAX_LINE_CHARS), st.integers(0, 100)),
)
def test_any_csv_past_small_bounds_matches_oracle(tmp_path_factory, text, block_chars, max_rows, max_line):
    path = write(tmp_path_factory.mktemp("csv"), text)
    # small bounds put rows and lines of these short files past them
    assert_matches_oracle_with(
        path, CSV_BLOCK_CHARS=block_chars, MAX_TOUR_ROWS=max_rows, MAX_LINE_CHARS=max_line
    )



@settings(max_examples=200, deadline=None)
@given(lane=st.booleans(), data=st.data(), block_chars=BLOCK_CHARS)
def test_rows_are_aligned_exactly_when_each_has_its_width(tmp_path_factory, lane, data, block_chars):
    # rows of width - 1 commas, some moved from one row to another (so
    # that the total stays) and maybe one row of 0 to 2 * width; every cell
    # a number above the last, so that cells shifted into the wrong column
    # would still parse as a log and only the alignment check refuses them
    width = 5 if lane else 4
    commas = [width - 1] * data.draw(st.integers(1, 8))
    rows = st.integers(0, len(commas) - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        give, take = data.draw(rows), data.draw(rows)
        moved = data.draw(st.integers(0, min(commas[give], 2 * width - commas[take])))
        commas[give] -= moved
        commas[take] += moved
    if data.draw(st.booleans()):
        commas[data.draw(rows)] = data.draw(st.integers(0, 2 * width))
    cells = iter(range(sum(commas) + len(commas)))
    rows = [",".join(str(next(cells)) for _ in range(k + 1)) for k in commas]
    path = write(tmp_path_factory.mktemp("csv"), "\n".join([LANE_HEADER if lane else HEADER, *rows]) + "\n")
    with mock.patch.object(pipeline, "CSV_BLOCK_CHARS", block_chars):
        assert (assert_matches_oracle(path)[0] == "log") == rows_have_width(rows, width)
