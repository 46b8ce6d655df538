"""Runtime description of the batch evaluation backend.

Every query kind has one evaluation path: vectorized NumPy passes (snap
bounds to keys, locate the segment or cell, Horner, certificate).  Benchmark
artifacts embed :func:`runtime_info` so recorded numbers carry the backend
and library version that produced them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["runtime_info"]


def runtime_info() -> dict:
    """Describe the evaluation backend for benchmark artifacts."""
    return {"backend": "numpy", "numpy_version": np.__version__}
