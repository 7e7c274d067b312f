"""Shrink the block size both trace readers parse in, so that small test
traces span many blocks."""

from contextlib import contextmanager
from unittest import mock

import joulemark.trace as trace_module
from joulemark import acquisition


@contextmanager
def chunk_rows(n: int):
    """Make read_trace_csv and stream sources parse in blocks of n lines."""
    with mock.patch.object(trace_module, "CHUNK_ROWS", n), mock.patch.object(
        acquisition, "CHUNK_ROWS", n
    ):
        yield
