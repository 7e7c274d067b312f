"""JSON documents written as ``json.dumps(doc, indent=2) + "\\n"`` writes
them, byte for byte, with their long lists of records written fast.

``indent`` makes ``json`` use its pure-Python encoder, which builds one
small string per token and joins them all.  For a report of thousands of
windows that costs several times the text in memory.  A document given to
``write_json`` may hold ``Records`` in place of such a list: a few record
templates, each a record with a column in place of every leaf that varies.
Each template's text is taken once from ``json.dumps(..., indent=2)`` and
split at its columns into constant pieces.  The records are written in
blocks of about ``trace.CHUNK_ROWS`` leaves, one line of text a record, in
the row layout of every table the package writes (:mod:`textrows`): a
block's records are text rows, each its template's pieces side by side with
the texts of its leaves and its ``,\\n`` or final ``\\n``, every column of a
template laid out over that template's records at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TextIO

import numpy as np

from . import textrows, trace

# stands for a column in a template's text; json writes it as below, so no
# key or string of a template may hold this character
_LEAF = "\x00"
_LEAF_TEXT = json.dumps(_LEAF)

_BOOLS = textrows.text_rows(["false", "true"])
# what ends each record but the last, and the last
_ENDS = textrows.text_rows([",\n", "\n"])


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

    A record is written as one row of text: its template's constant pieces
    with the text of each of its leaves between them, and ``,\\n`` after
    every record but the last.
    """

    templates: Sequence[Any]
    kinds: Sequence[int] | None = None

    def write(self, f: TextIO, indent: int) -> None:
        """Write the array as json's ``indent=2`` encoder would, where its
        opening bracket follows a line indented by ``indent`` spaces.  Each
        block lays out a template's columns over that template's records
        only, and places their rows at those records' rows of the block."""
        pad = " " * (indent + 2)
        columns: list[list[np.ndarray]] = [[] for _ in self.templates]
        # json calls default at each array of a template, in the order it
        # writes the leaves: the arrays are the columns, in that order
        pieces = [
            (pad + json.dumps(template, indent=2, default=lambda column, own=own: own.append(column) or _LEAF))
            .replace("\n", "\n" + pad)
            .encode()
            .split(_LEAF_TEXT.encode())
            for template, own in zip(self.templates, columns)
        ]
        kinds = np.zeros(len(columns[0][0])) if self.kinds is None else self.kinds
        kinds = np.asarray(kinds, dtype=np.intp)
        if not len(kinds):
            f.write("[]")
            return
        f.write("[\n")
        # blocks of as many records as hold trace.CHUNK_ROWS leaves of the
        # widest template, and at least one
        step = max(1, trace.CHUNK_ROWS // max(1, *map(len, columns)))
        for start in range(0, len(kinds), step):
            kind = kinds[start : start + step]
            groups = []
            for k, (texts, own) in enumerate(zip(pieces, columns)):
                rows = np.flatnonzero(kind == k)
                if len(rows):
                    leaves = [_leaf_rows(column[start : start + step][rows]) for column in own]
                    parts = [part for pair in zip(texts, leaves) for part in pair]
                    ends = _ENDS[(start + rows == len(kinds) - 1).astype(np.intp)]
                    groups.append((rows, [*parts, texts[-1], ends]))
            textrows.write_rows(f, len(kind), groups)
        f.write(" " * indent + "]")


def _leaf_rows(items: np.ndarray) -> np.ndarray:
    """json's text of each item of a column, as an (n, w) uint8 matrix of
    text rows, 0 in the slots a text leaves out: bools, integers that int64
    holds and finite floats laid out as whole columns, any other item
    encoded by ``json.dumps`` on its own, which spells NaN and infinity as
    json does."""
    kind = items.dtype.kind
    if kind == "b":
        return _BOOLS[items.astype(np.intp)]
    if kind in "iu" and np.can_cast(items.dtype, np.int64):
        return textrows.int_rows(items)
    if kind == "f" and np.can_cast(items.dtype, np.float64) and np.isfinite(items).all():
        return textrows.value_rows(items)
    return textrows.text_rows([json.dumps(item) for item in items.tolist()])


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
