"""The one CSV dialect of every file the package reads or writes.

``write_csv`` writes population, sample and imputed files and the
simulation tables: a header row naming the columns, then one row per
record, in csv's default dialect (commas, quotes only where a field needs
them, CRLF line ends).  A number is written as ``str`` of a Python int or
float, for a float its shortest repr that reads back to the same bits.
The rows are written in chunks of CHUNK_ROWS: where every column is a
numeric array, each column is turned into text once and the rows are
joined; a chunk with any other column goes through ``csv.writer``.

``read_csv`` reads population and sample files.  It takes the columns it
is asked for by name, each named once by the header, in any order and
among others, skips blank lines, and converts each column to an array.
A row whose field count differs from the header's, a field its column
cannot convert, or a row a check rejects is a ``ValueError`` that names
the line and the column.  The fields are parsed by numpy's C reader
(``np.loadtxt``); a file it cannot parse, or that a check rejects, is read
again row by row with ``csv.reader``, and that reading raises the error
or, for a valid file numpy does not take, returns the columns.
"""

import csv
import itertools
from typing import NamedTuple

import numpy as np

# rows write_csv turns into text and writes at a time
CHUNK_ROWS = 1 << 12


class Converter(NamedTuple):
    """How read_csv converts a column: ``parse`` turns one field's text into
    a value and the column becomes an array of ``dtype``.  A ``c_dtype``
    names the dtype numpy's C parser reads the fields as, which then casts
    to ``dtype``; without one, numpy calls ``parse`` on each field."""

    parse: object
    dtype: type
    c_dtype: type | None = None


INT = Converter(int, np.int64, np.int64)
FLOAT = Converter(float, np.float64, np.float64)
FLAG = Converter(lambda text: bool(int(text)), np.bool_, np.int64)


def finite_positive(column):
    """The check that ``column`` is finite and > 0."""
    return (column, lambda c: (c[column] > 0) & (c[column] < np.inf),
            "must be finite and > 0, got {}")


def _row_error(what, line, column, message):
    return ValueError(f"bad {what} row at line {line}, column {column}: {message}")


def _first_failure(columns, checks):
    """(column, row index, message) of the first row the first failing
    check rejects, or None."""
    for column, ok, message in checks:
        bad = np.flatnonzero(~ok(columns))
        if bad.size:
            return column, bad[0], message
    return None


def read_csv(path, what, converters, checks=()) -> dict:
    """The columns of ``converters`` read from the CSV file at ``path``.

    ``converters`` maps a column name to its ``Converter``; a converter of
    None requires the column without reading it.  Each check ``(column,
    ok, message)`` then rejects the first row where ``ok(columns)`` is
    False, ``{}`` in ``message`` standing for its value in ``column``.
    ``what`` names the file's kind in errors.  A file with only a header
    reads as empty columns.
    """
    columns = _columns_by_loadtxt(path, converters)
    if columns is None or _first_failure(columns, checks):
        columns, lines = _columns_by_row(path, what, converters)
        failure = _first_failure(columns, checks)
        if failure:
            column, i, message = failure
            raise _row_error(what, lines[i], column, message.format(columns[column][i]))
    return columns


def _columns_by_loadtxt(path, converters):
    """The columns parsed by numpy's C reader, or None where it fails: a
    bad header or row, a field a column cannot convert, or a column not
    wanted that is not a number."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None or any(header.count(name) != 1 for name in converters):
                return None
            wanted = {header.index(name): c for name, c in converters.items() if c is not None}
            for line in fh:  # loadtxt warns on a file with no data
                if line.strip("\r\n"):
                    break
            else:
                return {header[i]: np.empty(0, c.dtype) for i, c in wanted.items()}
            c_dtypes = [np.float64] * len(header)
            for i, c in wanted.items():
                c_dtypes[i] = c.c_dtype or c.dtype
            table = np.loadtxt(itertools.chain((line,), fh),
                               dtype=[(f"f{i}", t) for i, t in enumerate(c_dtypes)],
                               delimiter=",", comments=None, quotechar='"', ndmin=1,
                               converters={i: c.parse for i, c in wanted.items()
                                           if c.c_dtype is None})
        except (ValueError, OverflowError, csv.Error):
            return None
    return {header[i]: table[f"f{i}"].astype(c.dtype) for i, c in wanted.items()}


def _columns_by_row(path, what, converters):
    """(the columns, the line of each row) read with ``csv.reader``; raises
    the ValueError of the first bad header, row or field."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or any(header.count(name) != 1 for name in converters):
            raise ValueError(f"{what} CSV needs columns {tuple(converters)}, each once")
        width = len(header)
        rows, lines = [], []
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                if len(row) < width:
                    raise _row_error(what, reader.line_num, header[len(row)],
                                     "the row ends before it")
                raise _row_error(what, reader.line_num, width + 1,
                                 f"the row has {len(row)} fields, the header {width}")
            rows.append(row)
            lines.append(reader.line_num)
    fields = list(zip(*rows)) if rows else [()] * width
    columns = {}
    for name, converter in converters.items():
        if converter is None:
            continue
        parse, dtype = converter.parse, converter.dtype
        texts = fields[header.index(name)]
        try:
            columns[name] = np.fromiter(map(parse, texts), dtype, len(texts))
        except (ValueError, OverflowError):
            for text, line in zip(texts, lines):  # name the row at fault
                try:
                    np.fromiter((parse(text),), dtype, 1)
                except (ValueError, OverflowError) as exc:
                    raise _row_error(what, line, name, exc) from exc
            raise
    return columns, lines


def _fields(columns) -> tuple:
    """(each column's fields, whether every column is a numeric array).  A
    numeric array's fields are text: Python ints', floats' or bools' str,
    which never needs quotes, and an array equal byte for byte to an
    earlier one, as v often is to z1, shares its text.  Any other column's
    fields are its values, for csv to write."""
    fields, numeric, all_numeric = [], {}, True
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
            key = (column.dtype.str, column.tobytes())
            if key not in numeric:
                numeric[key] = list(map(str, column.tolist()))
            fields.append(numeric[key])
        else:
            fields.append(column.tolist() if isinstance(column, np.ndarray) else column)
            all_numeric = False
    return fields, all_numeric


def write_csv(path, header, columns) -> None:
    """Write ``columns``, one sequence per name of ``header``, to ``path``;
    numpy arrays go through ``tolist()``, so as Python ints and floats."""
    columns = list(columns)
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n_rows, CHUNK_ROWS):
            fields, all_numeric = _fields(c[start:start + CHUNK_ROWS] for c in columns)
            if all_numeric:
                fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
            else:
                writer.writerows(zip(*fields))
