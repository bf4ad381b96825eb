"""Tab-separated tables: the one text format of every input and output.

Manifests, score files, opinion files, EER tables, reports and grids follow
one rule. Blank lines and lines starting with ``#`` are skipped anywhere.
The header is the first line that is neither and lists the expected columns
exactly; every later such line is a row with one cell per column. Lines end
at ``\\n``, ``\\r\\n`` or ``\\r``, and a leading UTF-8 byte-order mark, as
some editors write one, is not part of the first line. Errors raise
:class:`ManifestParseError` naming the file and the physical 1-based line.
"""

from __future__ import annotations

import re
import uuid
from contextlib import contextmanager
from pathlib import Path

from .errors import ManifestParseError


@contextmanager
def replacing(path):
    """Yield a temporary path beside ``path``, renamed over it on success.

    A reader sees the old file or the whole new one, and a failure in the
    ``with`` body leaves ``path`` untouched and no temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def read_table(path, columns, parse) -> list:
    """``parse(*cells)`` of every row; its ``ValueError`` cites the row's line."""
    columns = list(columns)
    header_line = None
    rows = []
    text = Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape")
    bad = re.search("[\udc80-\udcff]", text)  # where a byte did not decode
    if bad:
        raise ManifestParseError(
            text.count("\n", 0, bad.start()) + 1,
            f"byte {ord(bad.group()) - 0xdc00:#04x} is not UTF-8", path)
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if header_line is None:
            if cells != columns:
                raise ManifestParseError(
                    number, f"expected header {columns}, got {cells}", path)
            header_line = number
        elif len(cells) != len(columns):
            raise ManifestParseError(
                number, f"expected {len(columns)} columns, got {len(cells)}",
                path)
        else:
            try:
                rows.append(parse(*cells))
            except ValueError as exc:
                raise ManifestParseError(number, str(exc), path) from None
    if header_line is None:
        raise ManifestParseError(1, f"no header line {columns}", path)
    return rows


def write_table(path, columns, rows, comments=()) -> None:
    """Write ``# comment`` lines, the ``columns`` header, then ``rows``.

    Cells are written with ``str``, so floats come out as shortest
    round-trip decimals. Raises ``ValueError``, before writing anything, on
    whatever :func:`read_table` would not read back as written: a line break
    in a comment or cell, a tab in a cell, a row of the wrong width, a row
    whose first cell starts with ``#``, or a blank row.
    """
    lines = []
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"{path}: comment {comment!r} holds a line break")
        lines.append(f"# {comment}")
    for cells in (columns, *rows):
        line = "\t".join(str(c) for c in cells)
        if (len(line.split("\t")) != len(columns) or "\n" in line
                or "\r" in line or line.startswith("#") or not line.strip()):
            raise ValueError(
                f"{path}: row {list(cells)!r} would not read back as written")
        lines.append(line)
    with replacing(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
