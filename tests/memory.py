"""Allocation readings for the memory tests, by tracemalloc."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager


@contextmanager
def traced():
    """Trace allocations inside the block; yields ``usage()``.

    ``usage()`` returns ``(kept, peak)``: the bytes allocated inside the block
    and still held, and the high-water mark so far, both above the memory
    traced when the block began.  Blocks allocated before it are not traced,
    so freeing them lowers neither reading.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield lambda: tuple(m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
