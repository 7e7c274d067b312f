"""JSON documents written as ``json.dumps(doc, indent=2) + "\\n"`` writes
them, byte for byte, with their long lists of records written fast.

``indent`` makes ``json`` use its pure-Python encoder, which builds one
small string per token and joins them all.  For a report of thousands of
windows that costs several times the text in memory.  A document given to
``write_json`` may hold ``Records`` in place of such a list.  Each record
shape's text is then taken once from ``json.dumps(shape, indent=2)`` as a
``%`` template.  The records are written in blocks of about
``trace.CHUNK_ROWS`` leaves: in each block, every leaf column of a shape is
encoded by the C encoder in one call over that shape's records, and each
record is its shape's template filled by one ``%``.
"""

from __future__ import annotations

import itertools
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
        opening bracket follows a line indented by ``indent`` spaces.  Each
        block encodes a shape's columns over that shape's records only, and
        fills each record's template with one ``%``."""
        kinds = np.zeros(len(self.columns[0][0])) if self.kinds is None else self.kinds
        kinds = np.asarray(kinds, dtype=np.intp)
        if not len(kinds):
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
        # blocks of as many records as hold trace.CHUNK_ROWS leaves of the
        # widest shape, and at least one
        step = max(1, trace.CHUNK_ROWS // max(1, *map(len, self.columns)))
        for start in range(0, len(kinds), step):
            kind = kinds[start : start + step]
            leaves = []  # per shape, its records' leaf texts, one tuple a record
            for k, columns in enumerate(self.columns):
                rows = np.flatnonzero(kind == k)
                # numbers, bools and None hold no comma, so the C encoder's
                # compact text of a column splits into one text per item
                picked = (np.asarray(column[start : start + step], dtype=object)[rows].tolist() for column in columns)
                texts = [json.dumps(items, separators=(",", ":"))[1:-1].split(",") for items in picked]
                leaves.append(zip(*texts) if texts else itertools.repeat(()))
            f.write(",\n" if start else "[\n")
            f.write(",\n".join(templates[k] % next(leaves[k]) for k in kind.tolist()))
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
