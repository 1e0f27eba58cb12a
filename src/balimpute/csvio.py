"""The one CSV dialect of every file the package reads or writes.

``write_csv`` writes population, sample and imputed files and the
simulation tables: a header row naming the columns, then one row per
record, in csv's default dialect (commas, quotes only where a field needs
them, CRLF line ends).  A number is written as ``str`` of a Python int or
float, for a float its shortest repr that reads back to the same bits.

``read_csv`` reads population and sample files.  It takes the columns it
is asked for by name, each named once by the header, in any order and
among others, skips blank lines, and converts each column to an array.
A row whose field count differs from the header's, a field its column
cannot convert, or a row a check rejects is a ``ValueError`` that names
the line and the column.
"""

import csv

import numpy as np

# read_csv's converters: how to parse one field, and the column's dtype
INT = (int, np.int64)
FLOAT = (float, np.float64)
FLAG = (lambda text: bool(int(text)), np.bool_)


def finite_positive(column):
    """The check that ``column`` is finite and > 0."""
    return (column, lambda c: (c[column] > 0) & (c[column] < np.inf),
            "must be finite and > 0, got {}")


def _row_error(what, line, column, message):
    return ValueError(f"bad {what} row at line {line}, column {column}: {message}")


def read_csv(path, what, converters, checks=()) -> dict:
    """The columns of ``converters`` read from the CSV file at ``path``.

    ``converters`` maps a column name to ``(parse, dtype)``: ``parse``
    turns one field's text into a value, and the column becomes an array
    of ``dtype``; a converter of None requires the column without reading
    it.  Each check ``(column, ok, message)`` then rejects the first row
    where ``ok(columns)`` is False, ``{}`` in ``message`` standing for its
    value in ``column``.  ``what`` names the file's kind in errors.  A file
    with only a header reads as empty columns.
    """
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
        parse, dtype = converter
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
    for column, ok, message in checks:
        bad = np.flatnonzero(~ok(columns))
        if bad.size:
            i = bad[0]
            raise _row_error(what, lines[i], column, message.format(columns[column][i]))
    return columns


def write_csv(path, header, columns) -> None:
    """Write ``columns``, one sequence per name of ``header``, to ``path``;
    numpy arrays go through ``tolist()``, so as Python ints and floats."""
    values = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*values))
