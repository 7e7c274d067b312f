"""Shrink the block size of every blocked loop in the package, so that small
test traces span many blocks."""

from contextlib import contextmanager
from unittest import mock

import joulemark.trace as trace_module


@contextmanager
def chunk_rows(n: int):
    """Make the readers, writers, simulator and segmenter work in blocks of
    n rows: each of them reads trace.CHUNK_ROWS at call time."""
    with mock.patch.object(trace_module, "CHUNK_ROWS", n):
        yield
