"""The package's thread count, read from the CHANNELFLOW_THREADS variable.

This module imports no numpy, so the package can read the count before
numpy loads its BLAS (see the package ``__init__``).
"""

from __future__ import annotations

import os

from .errors import ConfigError


def fft_workers() -> int:
    """The package's thread count: the CHANNELFLOW_THREADS env var, 1 when unset.

    ``numpy.fft`` runs each transform on one thread, so the count sizes the
    BLAS and OpenMP pools, which run the z pass of every transform (the
    package ``__init__`` seeds them from it).  Any value that is not a
    whole number >= 1 raises ConfigError naming it.
    """
    raw = os.environ.get("CHANNELFLOW_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"CHANNELFLOW_THREADS must be a whole number >= 1, got {raw!r}")
    return workers
