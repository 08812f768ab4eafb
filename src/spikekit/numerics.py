"""Dense-array substrate used by the rest of the engine.

All real-valued quantities (potentials, weighted inputs, weights, cache
gains, gradients) are float64 numpy arrays. Binary spikes are not: they are
``uint8`` in datasets and ``bool`` on the tape, and :func:`matmul` casts
such an operand to a float64 copy for BLAS. The functions here are thin
contract-enforcing wrappers: shapes are checked up front and mismatches
raise :class:`DimensionError` naming both shapes, and a histogram of an
empty array raises :class:`EmptyInputError`.

Given identical inputs the results are deterministic across runs; nothing
here depends on global state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EmptyInputError, NumericError

DTYPE = np.float64


def as_dense(values) -> np.ndarray:
    """Coerce ``values`` to a float64 C-order array."""
    # asarray keeps scalars 0-d; ascontiguousarray would pad them to (1,).
    return np.asarray(values, dtype=DTYPE, order="C")


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    # Integer and boolean arrays are finite by construction.
    if a.dtype.kind not in "biu" and not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains non-finite values")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product of a (m, k) and (k, n) array.

    Summation order is fixed by the backing BLAS kernel, so repeated calls
    on identical inputs produce bit-identical results. Operands keep their
    memory order: np.matmul hands a transposed view such as ``w.T`` to BLAS
    as a transpose flag instead of copying it. A binary (``uint8`` or
    ``bool``) operand is cast to a float64 copy that lives for this call.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    # The result is allocated before the float64 copies, so freeing a copy
    # returns memory above the result rather than leaving a hole below it;
    # with such holes a chunked evaluate grows the heap past glibc's trim
    # threshold and page-faults it back in on every chunk.
    out = np.empty((a.shape[0], b.shape[1]), dtype=DTYPE)
    return np.matmul(a.astype(DTYPE, copy=False), b.astype(DTYPE, copy=False), out=out)


def _check_nonempty(a: np.ndarray, op: str) -> None:
    if a.size == 0:
        raise EmptyInputError(f"{op} on an empty array")


def histogram(a, edges) -> np.ndarray:
    """Counts of ``a`` in the bins given by explicit increasing ``edges``.

    Bins are half-open except the last, which also includes its right edge;
    values outside the edge range are not counted.
    """
    a = as_dense(a)
    _check_nonempty(a, "histogram")
    edges = as_dense(edges)
    if edges.ndim != 1 or edges.size < 2:
        raise DimensionError(f"histogram needs a 1-D array of >=2 edges, got shape {edges.shape}")
    if np.any(np.diff(edges) <= 0):
        raise DimensionError("histogram edges must be strictly increasing")
    counts, _ = np.histogram(a, bins=edges)
    return counts
