"""JSON documents written as ``json.dumps(doc, indent=2) + "\\n"`` writes
them, byte for byte, with their long lists of records written fast.

``indent`` makes ``json`` use its pure-Python encoder, which builds one
small string per token and joins them all.  For a report of thousands of
windows that costs several times the text in memory.  A document given to
``write_json`` may hold ``Records`` in place of such a list.  Each record
shape's text is then taken once from ``json.dumps(shape, indent=2)`` as a
``%`` template, the rows' numbers are encoded by the C encoder in one call,
and the rows are written in blocks of about ``trace.CHUNK_ROWS`` leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TextIO

import numpy as np

from . import trace

# stands for one scalar leaf in a record shape; json writes it as below, so
# no key or string of a shape may hold this character
LEAF = "\x00"
_LEAF_TEXT = json.dumps(LEAF)


@dataclass(frozen=True, eq=False)
class Records:
    """A JSON array of records held as columns, each record of one of a few
    shapes.

    A shape is a JSON value whose scalar leaves are ``LEAF``; its other
    values are the same in every record of that shape.  ``columns[k]`` holds
    shape k's leaves, in the order json writes them, as one array or list
    per leaf with an item for every record; a record takes its leaves from
    its own shape's columns only.  ``kinds`` gives each record's shape
    index, or is None when every record has the first shape, whose columns
    then give the record count.  Items are ints, floats, bools or None only.
    """

    shapes: Sequence[Any]
    columns: Sequence[Sequence[Sequence]]
    kinds: Sequence[int] | None = None

    def write(self, f: TextIO, indent: int) -> None:
        """Write the array as json's ``indent=2`` encoder would, where its
        opening bracket follows a line indented by ``indent`` spaces."""
        count = len(self.columns[0][0] if self.kinds is None else self.kinds)
        if not count:
            f.write("[]")
            return
        pad = " " * (indent + 2)
        templates = [
            pad
            + json.dumps(shape, indent=2)
            .replace("%", "%%")
            .replace("\n", "\n" + pad)
            .replace(_LEAF_TEXT, "%s")
            for shape in self.shapes
        ]
        widths = np.array([len(columns) for columns in self.columns], dtype=np.intp)
        # blocks of as many records as hold trace.CHUNK_ROWS leaves of the
        # widest shape, and at least one
        step = max(1, trace.CHUNK_ROWS // max(1, widths.max()))
        separator = "[\n"
        for start in range(0, count, step):
            stop = min(start + step, count)
            kind = np.zeros(stop - start) if self.kinds is None else self.kinds[start:stop]
            kind = np.asarray(kind, dtype=np.intp)
            # each record's first leaf, then each column's items put in place
            first = np.cumsum(widths[kind]) - widths[kind]
            leaves = np.empty(first[-1] + widths[kind[-1]], dtype=object)
            for k, columns in enumerate(self.columns):
                rows = np.flatnonzero(kind == k)
                for i, column in enumerate(columns):
                    leaves[first[rows] + i] = np.asarray(column[start:stop], dtype=object)[rows]
            # numbers, bools and None hold no comma, so the C encoder's
            # compact text of the leaves splits into one text per leaf
            text = json.dumps(leaves.tolist(), separators=(",", ":"))[1:-1]
            template = ",\n".join(map(templates.__getitem__, kind.tolist()))
            f.write(separator)
            f.write(template % tuple(text.split(",") if text else ()))
            separator = ",\n"
        f.write("\n" + " " * indent + "]")


def write_json(doc, f: TextIO) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` to f, each Records in
    doc written as the JSON array of its records."""
    held: list[Records] = []

    def hold(value):
        if not isinstance(value, Records):
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        held.append(value)
        return None

    line = ""  # the text written since the last newline
    # iterencode runs json's pure-Python generator, which yields the text of
    # the value default() returned as the very next chunk after the call:
    # that chunk is where the Records go
    for chunk in json.JSONEncoder(indent=2, default=hold).iterencode(doc):
        if held:
            held.pop().write(f, len(line) - len(line.lstrip(" ")))
            continue
        f.write(chunk)
        _, newline, tail = chunk.rpartition("\n")
        line = tail if newline else line + chunk
    f.write("\n")


def save_json(doc, path: str | Path) -> None:
    """Write the document to the file at path, as write_json does."""
    with Path(path).open("w", newline="\n") as f:
        write_json(doc, f)
