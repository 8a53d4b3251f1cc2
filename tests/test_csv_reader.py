"""The chunked tour CSV reader against the row-by-row reader it replaced
(brute_force_read_drive_log_csv): every input gives the same DriveLog bit
for bit, or the same SchemaError message, row and column."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laneweave import pipeline
from laneweave.pipeline import read_drive_log_csv
from laneweave.errors import SchemaError

from _oracles import brute_force_read_drive_log_csv

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


NUMBERS = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
ODD_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "\t", "nan", "-nan", "inf", "-inf", "1_0", "1__0", "abc", "1e400", "0x1"]
    ),
    st.text(alphabet=" \t0123456789.-+eE_naif\xa0\u3000", max_size=6),
)


@st.composite
def csv_texts(draw):
    """Mostly well-formed tours with a few defects: odd cells, wrong field
    counts, blank lines, timestamps that stall or go back, any line ending."""
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
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), chunk_rows=st.integers(1, 5))
def test_any_csv_matches_oracle(tmp_path_factory, text, chunk_rows):
    path = write(tmp_path_factory.mktemp("csv"), text)
    # small chunks put chunk seams inside these short files
    with mock.patch.object(pipeline, "CSV_CHUNK_ROWS", chunk_rows):
        assert_matches_oracle(path)
