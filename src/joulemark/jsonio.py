"""JSON documents written as ``json.dumps(doc, indent=2) + "\\n"`` writes
them, byte for byte, with their long lists of records written fast.

``indent`` makes ``json`` use its pure-Python encoder, which builds one
small string per token and joins them all.  For a report of thousands of
windows that costs several times the text in memory.  A document given to
``write_json`` may hold ``Records`` in place of such a list: a few record
templates, each a record with a column in place of every leaf that varies.
Each template's text is taken once from ``json.dumps(..., indent=2)``, with
``%s`` in place of each column.  The records are written in blocks of about
``trace.CHUNK_ROWS`` leaves: in each block, every column of a template is
encoded by the C encoder in one call over that template's records, and each
record is its template's text filled by one ``%``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TextIO

import numpy as np

from . import trace

# stands for a column in a template's text; json writes it as below, so no
# key or string of a template may hold this character
_LEAF = "\x00"
_LEAF_TEXT = json.dumps(_LEAF)


@dataclass(frozen=True, eq=False)
class Records:
    """A JSON array of records held as columns, each record built from one
    of a few templates.

    A template is a record's JSON value with an array in place of each leaf
    that varies: the leaf's column, holding an item for every record of the
    array.  Its other values are the same in every record of that template,
    and a record takes its leaves from its own template's columns only.
    ``kinds`` gives each record's template index, or is None when every
    record has the first template, whose first column then gives the record
    count.  Column items are ints, floats, bools or None only.
    """

    templates: Sequence[Any]
    kinds: Sequence[int] | None = None

    def write(self, f: TextIO, indent: int) -> None:
        """Write the array as json's ``indent=2`` encoder would, where its
        opening bracket follows a line indented by ``indent`` spaces.  Each
        block encodes a template's columns over that template's records
        only, and fills each record's text with one ``%``."""
        pad = " " * (indent + 2)
        columns: list[list[np.ndarray]] = [[] for _ in self.templates]
        # json calls default at each array of a template, in the order it
        # writes the leaves: the arrays are the columns, in that order
        formats = [
            pad
            + json.dumps(template, indent=2, default=lambda column, own=own: own.append(column) or _LEAF)
            .replace("%", "%%")
            .replace("\n", "\n" + pad)
            .replace(_LEAF_TEXT, "%s")
            for template, own in zip(self.templates, columns)
        ]
        kinds = np.zeros(len(columns[0][0])) if self.kinds is None else self.kinds
        kinds = np.asarray(kinds, dtype=np.intp)
        if not len(kinds):
            f.write("[]")
            return
        # blocks of as many records as hold trace.CHUNK_ROWS leaves of the
        # widest template, and at least one
        step = max(1, trace.CHUNK_ROWS // max(1, *map(len, columns)))
        for start in range(0, len(kinds), step):
            kind = kinds[start : start + step]
            leaves = []  # per template, its records' leaf texts, one tuple a record
            for k, own in enumerate(columns):
                rows = np.flatnonzero(kind == k)
                # numbers, bools and None hold no comma, so the C encoder's
                # compact text of a column splits into one text per item
                picked = (column[start : start + step][rows].tolist() for column in own)
                texts = [json.dumps(items, separators=(",", ":"))[1:-1].split(",") for items in picked]
                leaves.append(zip(*texts) if texts else itertools.repeat(()))
            f.write(",\n" if start else "[\n")
            f.write(",\n".join(formats[k] % next(leaves[k]) for k in kind.tolist()))
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
