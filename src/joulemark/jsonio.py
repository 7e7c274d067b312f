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
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Sequence, TextIO

from . import trace

# stands for one scalar leaf in a record shape; json writes it as below, so
# no key or string of a shape may hold this character
LEAF = "\x00"
_LEAF_TEXT = json.dumps(LEAF)


@dataclass(frozen=True, eq=False)
class Records:
    """A JSON array of ``count`` records, each of one of a few shapes.

    A shape is a JSON value whose scalar leaves are ``LEAF``; its other
    values are the same in every record of that shape.  ``block(start,
    stop)`` gives the records ``start`` to ``stop`` as ``(kinds, leaves)``:
    the index into ``shapes`` of each record (or None when every record has
    the first shape) and all their leaves, record after record, each in the
    order json writes it.  Leaves are ints, floats, bools or None only.
    """

    shapes: Sequence[Any]
    count: int
    block: Callable[[int, int], tuple[Sequence[int] | None, list]]

    def _blocks(self):
        """(shape index of each record, leaves) per block of records, each
        block as many records as hold ``trace.CHUNK_ROWS`` leaves of the
        largest shape, and at least one."""
        widest = max(json.dumps(shape).count(_LEAF_TEXT) for shape in self.shapes)
        step = max(1, trace.CHUNK_ROWS // max(1, widest))
        for start in range(0, self.count, step):
            stop = min(start + step, self.count)
            kinds, leaves = self.block(start, stop)
            yield repeat(0, stop - start) if kinds is None else kinds, leaves

    def tolist(self) -> list:
        """The records as lists and dicts."""
        records = []
        for kinds, leaves in self._blocks():
            leaves = iter(leaves)
            records += [_fill(self.shapes[kind], leaves) for kind in kinds]
        return records

    def write(self, f: TextIO, indent: int) -> None:
        """Write the array as json's ``indent=2`` encoder would, where its
        opening bracket follows a line indented by ``indent`` spaces."""
        if not self.count:
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
        separator = "[\n"
        for kinds, leaves in self._blocks():
            # numbers, bools and None hold no comma, so the C encoder's
            # compact text of the leaves splits into one text per leaf
            text = json.dumps(leaves, separators=(",", ":"))[1:-1]
            template = ",\n".join(map(templates.__getitem__, kinds))
            f.write(separator)
            f.write(template % tuple(text.split(",") if text else ()))
            separator = ",\n"
        f.write("\n" + " " * indent + "]")


def _fill(shape, leaves):
    """A copy of the shape with its leaves taken from the iterator."""
    if isinstance(shape, dict):
        return {key: _fill(value, leaves) for key, value in shape.items()}
    if isinstance(shape, list):
        return [_fill(value, leaves) for value in shape]
    return next(leaves) if shape == LEAF else shape


def plain(doc):
    """The document with each Records replaced by its list of records."""
    if isinstance(doc, Records):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: plain(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [plain(value) for value in doc]
    return doc


def write_json(doc, f: TextIO) -> None:
    """Write ``json.dumps(plain(doc), indent=2) + "\\n"`` to f."""
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
