"""Worker-pool sizing for the Monte Carlo harness."""

import os

DEFAULT_WORKERS_ENV = "BALIMPUTE_WORKERS"


def default_workers() -> int:
    """Worker-pool size: ``BALIMPUTE_WORKERS`` if set, else 1."""
    raw = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    n = int(raw)
    if n < 1:
        raise ValueError(f"{DEFAULT_WORKERS_ENV} must be >= 1, got {n}")
    return n
