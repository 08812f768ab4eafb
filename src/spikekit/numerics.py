"""Dense-array substrate used by the rest of the engine.

All real-valued quantities (potentials, weighted inputs, weights, cache
gains, gradients) live in 64-bit C-contiguous numpy arrays. The functions
here are thin contract-enforcing wrappers: shapes are checked up front and
mismatches raise :class:`DimensionError` naming both shapes, reductions on
empty arrays raise :class:`EmptyInputError`, and broadcasting is restricted
to scalar-vs-array and same-shape so every call site stays auditable.

Given identical inputs the results are deterministic across runs; nothing
here depends on global state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EmptyInputError, NumericError

DTYPE = np.float64


def as_dense(values, shape=None) -> np.ndarray:
    """Coerce ``values`` to a float64 C-order array, optionally reshaped."""
    # asarray keeps scalars 0-d; ascontiguousarray would pad them to (1,).
    a = np.asarray(values, dtype=DTYPE, order="C")
    if shape is not None:
        if a.size != int(np.prod(shape)):
            raise DimensionError(f"cannot view {a.size} values as shape {tuple(shape)}")
        a = a.reshape(shape)
    return a


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains non-finite values")
    return a


def _check_elementwise(a: np.ndarray, b: np.ndarray, op: str) -> None:
    # Only scalar-vs-array and same-shape combinations are supported.
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def matmul(a, b) -> np.ndarray:
    """Matrix product of a (m, k) and (k, n) array.

    Summation order is fixed by the backing BLAS kernel, so repeated calls
    on identical inputs produce bit-identical results. Operands keep their
    memory order: np.matmul hands a transposed view such as ``w.T`` to BLAS
    as a transpose flag instead of copying it.
    """
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    return np.matmul(a, b)


def add(a, b) -> np.ndarray:
    a, b = as_dense(a), as_dense(b)
    _check_elementwise(a, b, "add")
    return a + b


def sub(a, b) -> np.ndarray:
    a, b = as_dense(a), as_dense(b)
    _check_elementwise(a, b, "sub")
    return a - b


def mul(a, b) -> np.ndarray:
    a, b = as_dense(a), as_dense(b)
    _check_elementwise(a, b, "mul")
    return a * b


def scale(a, factor: float) -> np.ndarray:
    return as_dense(a) * DTYPE(factor)


def heaviside_ge(u, threshold) -> np.ndarray:
    """1.0 where ``u >= threshold``, else 0.0 (exact values, at-threshold fires)."""
    u = as_dense(u)
    t = as_dense(threshold)
    _check_elementwise(u, t, "heaviside_ge")
    return (u >= t).astype(DTYPE)


def _check_nonempty(a: np.ndarray, op: str) -> None:
    if a.size == 0:
        raise EmptyInputError(f"{op} on an empty array")


def reduce_sum(a, axis=None) -> np.ndarray:
    a = as_dense(a)
    _check_nonempty(a, "sum")
    return np.sum(a, axis=axis)


def reduce_mean(a, axis=None) -> np.ndarray:
    a = as_dense(a)
    _check_nonempty(a, "mean")
    return np.mean(a, axis=axis)


def argmax(a, axis=None):
    """Index of the largest value; ties break toward the lowest index."""
    a = as_dense(a)
    _check_nonempty(a, "argmax")
    return np.argmax(a, axis=axis)


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
