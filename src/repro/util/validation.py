"""Argument-validation helpers with uniform error messages."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "PY_SCAN_MAX",
    "same_multiset",
    "same_value_set",
    "check_permutation",
    "check_layout",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_square_matrix",
    "check_symmetric_matrix",
]


#: Length up to which a pure-Python scan or sort beats numpy's fixed
#: per-call costs.  The mapping layer switches to numpy above it: for pool
#: scans, tie-break draws and the multiset check below.
PY_SCAN_MAX = 48


def same_multiset(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff 1-D arrays ``a`` and ``b`` hold the same values, counted.

    Sorted Python lists up to :data:`PY_SCAN_MAX` entries (the ~8-core
    maps of intra-node mapping), one ``np.sort`` per side above it.
    """
    if a.size <= PY_SCAN_MAX:
        return sorted(a.tolist()) == sorted(b.tolist())
    return bool(np.array_equal(np.sort(a), np.sort(b)))


def same_value_set(a: np.ndarray, b: np.ndarray) -> bool:
    """:func:`same_multiset`, and no value twice (the same size gate)."""
    if a.size <= PY_SCAN_MAX:
        values = sorted(a.tolist())
        return values == sorted(b.tolist()) and len(set(values)) == a.size
    values = np.sort(a)
    return bool(np.array_equal(values, np.sort(b)) and np.all(values[1:] != values[:-1]))


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and > 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and >= 0."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")


def check_in_range(name: str, value: int, lo: int, hi: int) -> None:
    """Raise :class:`ValueError` unless lo <= value < hi."""
    if not (lo <= value < hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {value}")


def check_square_matrix(name: str, matrix) -> np.ndarray:
    """Raise :class:`ValueError` unless ``matrix`` is 2-D and square.

    Returns the input as an array so callers can validate and convert in
    one step (mirrors :func:`check_permutation`).
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_symmetric_matrix(name: str, matrix, atol: float = 1e-6) -> np.ndarray:
    """Raise :class:`ValueError` unless ``matrix`` is square and symmetric.

    Physical distance matrices are symmetric by construction (a route and
    its reverse cross the same channels); asymmetry means a corrupted or
    mis-assembled matrix, which the mapping heuristics would silently
    mis-optimise.
    """
    arr = check_square_matrix(name, matrix)
    if arr.size:
        delta = np.abs(arr - arr.T)
        if float(delta.max()) > atol:
            i, j = np.unravel_index(int(np.argmax(delta)), arr.shape)
            raise ValueError(
                f"{name} is not symmetric: [{i},{j}]={arr[i, j]:g} vs "
                f"[{j},{i}]={arr[j, i]:g}"
            )
    return arr


def check_layout(layout) -> np.ndarray:
    """Return a layout of core ids as a 1-D int64 array, or raise :class:`ValueError`.

    ``layout`` must be non-empty, 1-D and of an integer dtype.  Floats and
    bools are refused rather than cast: ``np.asarray(..., dtype=np.int64)``
    would truncate ``1.5`` to core 1 and read ``True`` as core 1.
    """
    arr = np.asarray(layout)
    if arr.ndim != 1:
        raise ValueError(f"layout must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty layout")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"layout must hold integer core ids, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_permutation(perm: Sequence[int], n: int, name: str = "mapping") -> np.ndarray:
    """Validate that ``perm`` is a permutation of 0..n-1; return it as an array.

    Every mapping produced by a heuristic must be a bijection between ranks
    and cores; a silent repeat or hole would corrupt collective results, so
    this check runs on every mapper output.
    """
    arr = np.asarray(perm, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    seen = np.zeros(n, dtype=bool)
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= n:
        raise ValueError(f"{name} has entries outside [0, {n})")
    seen[arr] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"{name} is not a permutation of 0..{n - 1} (e.g. {missing} missing)")
    return arr
