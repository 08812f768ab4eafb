"""Dense-array substrate used by the rest of the engine.

Real-valued state (potentials, weights, cache gains, gradients) is float64.
Hard-mode GEMMs are not: they read and write :data:`HARD_DTYPE` (float32),
so a hard-mode weighted input is float32 too. Binary spikes are ``uint8`` in
datasets, ``bool`` in a GEMM operand and one bit each on a tape
(:func:`pack_rows`), and :func:`matmul` casts such an operand to its GEMM's
dtype for BLAS; :func:`binary_uint8` is the one check that an array is 0/1.
The functions here are thin contract-enforcing wrappers: shapes are checked
up front and mismatches raise :class:`DimensionError` naming both shapes,
and a histogram of an empty array raises :class:`EmptyInputError`.

Given identical inputs the results are deterministic across runs; nothing
here depends on global state.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, EmptyInputError, NumericError

DTYPE = np.float64

# Rows per block of the engine's one block grid (:func:`blocks`), counted
# back from the end of the window: the training forward's GEMMs and window
# scans, and the backward, work one block of ceil(GEMM_ROWS / batch) steps
# at a time, so their scratch memory scales with this, not with timesteps x
# batch. A GEMM's last bits can depend on its block. On OpenBLAS 0.3.31,
# with ``w.T`` on the right, the SkylakeX kernel (AVX-512 CPUs) kept a row's
# bits in cuts of 1024 rows, but cuts of 128 to 512 rows changed products of
# N <= 4 columns; the Haswell and Zen SGEMMs give a row bits that depend on
# its place in a 768-row block, so there a cut changes float32 products of
# K >= 16 and N >= 9.
GEMM_ROWS = 1024

# The dtype of every hard-mode GEMM's operands and product, so also of a hard
# tape's weighted input ``x``. Spikes are exact in float32, and a float32 GEMM
# runs about twice as fast as a float64 one and halves the tape's ``x``. Its
# rounding (about K * 6e-8 relative) moved no per-seed outcome of the Poisson
# toy beyond the spread over seeds (tools/precision_sweep.py). Potentials,
# dL/du, gradient accumulators, Adam's state and the weights themselves stay
# float64 (mixed precision: Micikevicius et al., ICLR 2018). Smoothed mode,
# which gradcheck checks at about 1e-8, is float64 throughout. Set to
# ``np.float64``, every GEMM and tape is float64, as the exact tests pin it.
HARD_DTYPE = np.float32


def as_dense(values) -> np.ndarray:
    """Coerce ``values`` to a float64 C-order array."""
    # asarray keeps scalars 0-d; ascontiguousarray would pad them to (1,).
    return np.asarray(values, dtype=DTYPE, order="C")


def binary_uint8(data: np.ndarray) -> np.ndarray:
    """``data`` as ``uint8``, after checking on its own dtype that it holds only 0 and 1.

    Checking before the cast keeps an integer such as 256 from wrapping to
    a valid 0; integer input costs a reduction or two, not a full-size
    boolean temporary. Any other entry raises :class:`DataError`.
    """
    kind = data.dtype.kind
    if kind == "f":
        binary = np.all((data == 0.0) | (data == 1.0))
    elif kind in "iu":
        binary = data.max(initial=0) <= 1 and (kind == "u" or data.min(initial=0) >= 0)
    else:
        binary = kind == "b"
    if not binary:
        raise DataError(f"spike tensor entries must be exactly 0 or 1 (got {data.dtype} data)")
    return data.astype(np.uint8, copy=False)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """``np.packbits(bits, axis=-1)``: a 0/1 array's rows (``bool`` or ``uint8``,
    of any memory order) at one bit per entry.

    Packing along an axis costs numpy one call per row, so the rows are
    packed as one flat run, each zero-padded to whole bytes first when its
    width is not a multiple of 8; the bytes are the same. A view that is not
    C-ordered, such as a transposed batch, is copied once on the way.
    """
    width = bits.shape[-1]
    row_bytes = -(-width // 8)
    if width % 8:
        padded = np.zeros((*bits.shape[:-1], 8 * row_bytes), dtype=bool)
        padded[..., :width] = bits
        bits = padded
    return np.packbits(bits.reshape(-1)).reshape(*bits.shape[:-1], row_bytes)


def unpack_rows(packed: np.ndarray, width: int) -> np.ndarray:
    """The ``bool`` rows, ``width`` entries each, of a :func:`pack_rows` array.

    One flat unpack; where ``width`` is not a multiple of 8 the result is a
    view that skips each row's padding bits.
    """
    bits = np.unpackbits(packed.reshape(-1)).view(np.bool_)
    return bits.reshape(*packed.shape[:-1], 8 * packed.shape[-1])[..., :width]


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    # Integer and boolean arrays are finite by construction.
    if a.dtype.kind not in "biu" and not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains non-finite values")
    return a


def require_hard_range(w: np.ndarray, what: str) -> np.ndarray:
    """``w``, checked to fit a hard-mode GEMM: no row's sum of magnitudes past
    :data:`HARD_DTYPE`'s range, less room for the GEMM's rounding.

    A drive over 0/1 spikes is at most its weight row's sum of magnitudes,
    grown by the rounding of the K casts and K additions of a K-input GEMM by
    at most a factor ``1 + (K + 1) * eps``. So weights that pass cannot
    overflow a hard-mode GEMM over spikes, and no entry is past the range
    that the cast would make infinite. A row that fails raises
    :class:`NumericError` naming ``what``, such as ``layer0.w``. A NaN passes:
    finiteness is checked where the drive forms.
    """
    with np.errstate(over="ignore"):  # a sum past float64's range is inf, and fails
        peak = np.abs(w).sum(axis=-1).max(initial=0.0)
    info = np.finfo(HARD_DTYPE)
    if peak > info.max / (1 + (w.shape[-1] + 1) * info.eps):
        raise NumericError(f"{what} has a row of weights whose magnitudes sum to {peak:g}, "
                           f"past the {np.dtype(HARD_DTYPE).name} range of hard-mode GEMMs")
    return w


def matmul(a, b) -> np.ndarray:
    """Matrix product of a (m, k) and (k, n) array.

    Summation order is fixed by the backing BLAS kernel, so repeated calls
    on identical inputs produce bit-identical results. Operands keep their
    memory order: np.matmul hands a transposed view such as ``w.T`` to BLAS
    as a transpose flag instead of copying it.

    The GEMM runs in :data:`HARD_DTYPE` when either operand has that dtype
    and in float64 otherwise; the other operand is cast to that dtype, and so is the
    product. A caller that wants bounded scratch passes one block of rows
    (see :func:`blocks`).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    dtype = HARD_DTYPE if HARD_DTYPE in (a.dtype, b.dtype) else DTYPE
    # The result is allocated before the casts, so freeing a cast returns
    # memory above the result rather than leaving a hole below it; with such
    # holes a chunked evaluate grows the heap past glibc's trim threshold and
    # page-faults it back in on every chunk.
    out = np.empty((a.shape[0], b.shape[1]), dtype=dtype)
    return np.matmul(a.astype(dtype, copy=False), b.astype(dtype, copy=False), out=out)


def blocks(timesteps: int, rows_per_step: int) -> list[slice]:
    """The engine's block grid: slices of ``ceil(GEMM_ROWS / rows_per_step)``
    steps that tile ``[0, timesteps)``, in time order.

    Blocks are counted back from the end of the window, so only the first
    may be short. The backward walks them in reverse, from the end.
    """
    steps = -(-GEMM_ROWS // max(rows_per_step, 1))
    return [slice(max(stop - steps, 0), stop) for stop in range(timesteps, 0, -steps)][::-1]


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
