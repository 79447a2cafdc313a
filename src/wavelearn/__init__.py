"""Learnable wavelet filter-bank network for raw-waveform classification.

Importing it sets glibc's malloc policy process-wide: blocks under 32 MiB come
from the heap, not mmap, and at most 64 MiB of freed heap top stays mapped, so
a nogru training clip takes 1 minor page fault, not 1,112.  Not glibc: no-op.
"""

import ctypes
import sys

__version__ = "0.1.0"

_libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_libc, "mallopt"):  # set both: setting one freezes the other's dynamic value
    _libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
