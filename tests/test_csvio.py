"""The CSV module's two readings and its writer.

``read_csv`` parses with numpy's C reader and reads the file again row by
row with ``csv.reader`` only where that fails; valid files that are laid
out unusually must come out of both bit for bit.  ``write_csv`` joins
texts itself and must give the bytes ``csv.writer`` gives.
"""

import csv

import numpy as np
import pytest

from balimpute import csvio
from balimpute.population import population_from_csv
from balimpute.sampling import SampleData, sample_from_csv, sample_to_csv


def sample_text(tmp_path):
    """A 6-unit sample file as ``sample_to_csv`` writes it (CRLF ends)."""
    rng = np.random.default_rng(5)
    pi = rng.uniform(0.01, 0.05, 6)
    sample = SampleData(indices=np.array([3, 8, 11, 40, 41, 97]), pi=pi,
                        respond=np.array([True, False, True, True, False, True]))
    z1 = rng.gamma(2.0, 5.0, 6)
    path = tmp_path / "base.csv"
    sample_to_csv(path, sample, z1 + rng.normal(0.0, 1.0, 6), z1, z1 * 1.5)
    return path.read_bytes().decode()


def lf(text):
    return text.replace("\r\n", "\n")


def blank_lines(text):
    lines = text.split("\r\n")
    return "\r\n".join(lines[:2] + ["", ""] + lines[2:4] + [""] + lines[4:]) + "\r\n"


def quoted(text):
    lines = text.split("\r\n")
    fields = lines[1].split(",")
    fields[2] = f'"{fields[2]}"'  # z1
    fields[1] = f'" {fields[1]} "'  # y, with spaces
    lines[1] = ",".join(fields)
    return "\r\n".join(lines)


def reordered(text, extra):
    """Columns in reverse order, plus a column ``w`` no reader asks for."""
    rows = [line.split(",") for line in lf(text).splitlines()]
    return "".join(",".join(row[::-1] + [value]) + "\n"
                   for row, value in zip(rows, ["w"] + extra * len(rows)))


def header_only(text):
    return text.split("\r\n")[0] + "\r\n\r\n"


def extreme_values(text):
    """z1 = 1e-300 and 5e-324, y = -0.0 and the largest float, pi = 1e-300
    with d = 1e300, an r written 01, no line end at the end."""
    lines = lf(text).splitlines()
    for i, (y, z1) in enumerate((("-0.0", "1e-300"), ("1.7976931348623157e308", "5e-324")), 1):
        fields = lines[i].split(",")
        fields[1], fields[2] = y, z1
        lines[i] = ",".join(fields)
    fields = lines[3].split(",")
    fields[4], fields[5], fields[6] = "1e-300", "1e+300", "01"
    lines[3] = ",".join(fields)
    return "\n".join(lines)


# each case: the file's text from the base file's, and whether numpy's reader takes it
@pytest.mark.parametrize("edit, fast", [
    (lambda t: t, True),
    (lf, True),
    (blank_lines, True),
    (quoted, True),
    (lambda t: reordered(t, ["0.5"]), True),
    (lambda t: reordered(t, ['"a,b"']), False),
    (header_only, True),
    (extreme_values, True),
], ids=["crlf", "lf", "blank_lines", "quoted_numbers", "reordered_extra_column",
        "text_column", "header_only", "extreme_values"])
def test_fast_reader_matches_row_reader(tmp_path, monkeypatch, edit, fast):
    path = tmp_path / "s.csv"
    path.write_bytes(edit(sample_text(tmp_path)).encode())
    loaded = []
    by_loadtxt = csvio._columns_by_loadtxt

    def spy(*args):
        loaded.append(by_loadtxt(*args))
        return loaded[-1]

    monkeypatch.setattr(csvio, "_columns_by_loadtxt", spy)
    got = sample_from_csv(path)
    assert (loaded[0] is not None) == fast
    monkeypatch.setattr(csvio, "_columns_by_loadtxt", lambda *args: None)
    want = sample_from_csv(path)
    for name in ("indices", "pi", "d", "respond"):
        a, b = getattr(got[0], name), getattr(want[0], name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[0].size == (0 if edit is header_only else 6)


def test_fast_reader_matches_row_reader_on_population(tmp_path, monkeypatch):
    path = tmp_path / "pop.csv"
    path.write_text("v,z1,id,y,missing\n1.5,2,1,-0.0,0\n\n3e-300,4e-300,2,1e308,1\n")
    got = population_from_csv(path)
    monkeypatch.setattr(csvio, "_columns_by_loadtxt", lambda *args: None)
    want = population_from_csv(path)
    for name in ("y", "z1", "v"):
        a, b = getattr(got[0], name), getattr(want[0], name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


WRITER_COLUMNS = [
    np.array([0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf, 1e16,
              123456789.125]),
    np.arange(-3, 7, dtype=np.int64) * 10**15,
    np.array([True, False] * 5),
    ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", "", None, 1.5, np.float64(2.5), 7],
    range(10, 20),
    np.array([0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf, 1e16,
              123456789.125]),  # equal to the first: formatted once
    np.array(["x"] * 9 + ["y,z"]),
]


@pytest.mark.parametrize("chunk_rows", [3, csvio.CHUNK_ROWS], ids=["small_chunks", "one_chunk"])
def test_writer_matches_csv_writer(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    header = ["f", "i", "b", "mixed", "range", "f_again", 'text "col"']
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    csvio.write_csv(got, header, WRITER_COLUMNS)
    with open(want, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                          for c in WRITER_COLUMNS)))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("column", [["", "a", ""], []])
def test_writer_matches_csv_writer_on_one_column(tmp_path, column):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    csvio.write_csv(got, ["only"], [column])
    with open(want, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["only"])
        w.writerows([value] for value in column)
    assert got.read_bytes() == want.read_bytes()
