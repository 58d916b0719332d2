"""Single-step latent adversarial training, baselines, and linearity metrics."""

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEEP_BYTES = 256 << 20


def _keep_freed_heap(libc=None):
    """Keep freed blocks under 256 MB in glibc's heap, for reuse.

    The conv sweeps free temporaries of up to 58 MB on every call; at the
    default thresholds glibc unmaps each one and the next call faults its
    pages in again. Both thresholds are set or neither: any `mallopt` call
    turns off the dynamic threshold, and either one alone faults more than
    the default. GLIBC_TUNABLES or MALLOC_* in the environment wins, and a
    libc without `mallopt` (macOS, musl) is left alone. `libc` defaults to
    the process's own C library.
    """
    if any(k == "GLIBC_TUNABLES" or k.startswith("MALLOC_") for k in os.environ):
        return
    try:
        mallopt = (libc if libc is not None else ctypes.CDLL(None)).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES)


_keep_freed_heap()

from . import attacks, autodiff, config, data, metrics, models, training  # noqa: E402

__all__ = ["attacks", "autodiff", "config", "data", "metrics", "models", "training"]
__version__ = "0.1.0"
