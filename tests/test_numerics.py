import numpy as np
import numpy.testing as npt
import pytest

from spikekit import numerics
from spikekit.errors import DimensionError, EmptyInputError, NumericError


class TestAsDense:
    def test_scalar_stays_zero_d(self):
        a = numerics.as_dense(3.0)
        assert a.shape == ()
        assert a.dtype == np.float64

    def test_contiguous_output(self):
        strided = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
        assert numerics.as_dense(strided).flags["C_CONTIGUOUS"]


class TestBlocks:
    """The grid's tiling at every pass is checked in tests/test_bptt.py::TestBlockGrid."""

    def test_edge_shapes(self):
        # Past GEMM_ROWS rows a step, a block is one step; an empty window has
        # no blocks, and an empty batch is read as one row a step.
        assert numerics.blocks(3, numerics.GEMM_ROWS + 1) == [slice(0, 1), slice(1, 2),
                                                              slice(2, 3)]
        assert numerics.blocks(0, 4) == []
        assert numerics.blocks(2, 0) == numerics.blocks(2, 1) == [slice(0, 2)]


class TestMatmul:
    def test_against_einsum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            npt.assert_allclose(numerics.matmul(a, b), np.einsum("ik,kj->ij", a, b),
                                rtol=1e-13, atol=1e-13)

    def test_repeat_is_bit_identical(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(17, 31))
        b = rng.normal(size=(31, 13))
        first = numerics.matmul(a, b)
        for _ in range(5):
            assert numerics.matmul(a, b).tobytes() == first.tobytes()

    def test_binary_operands_match_their_float64_copies(self):
        # uint8 and bool spikes, also as a transposed view, give the float64 product's bytes.
        rng = np.random.default_rng(5)
        spikes = rng.random((40, 23)) < 0.3
        w = rng.normal(size=(7, 23))
        want = np.matmul(spikes.astype(np.float64), w.T)
        for a in (spikes, spikes.astype(np.uint8)):
            got = numerics.matmul(a, w.T)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        g = rng.normal(size=(40, 5))
        assert (numerics.matmul(g.T, spikes).tobytes()
                == np.matmul(g.T, spikes.astype(np.float64)).tobytes())

    @pytest.mark.parametrize("rows, inner, cols", [(4480, 24, 10), (2048, 64, 10),
                                                   (4480, 128, 4), (2240, 40, 24)])
    def test_tall_binary_operand_matches_the_single_gemm(self, rows, inner, cols):
        # matmul never cuts its rows: a caller that wants blocks passes one
        # (numerics.blocks). So a tall binary operand, beside a transposed or a
        # C-ordered right operand, gives the single float64 GEMM's bytes.
        assert rows >= 2 * numerics.GEMM_ROWS
        rng = np.random.default_rng(rows + inner + cols)
        spikes = rng.random((rows, inner)) < 0.3
        w = rng.normal(size=(cols, inner))
        for b in (w.T, np.ascontiguousarray(w.T)):
            want = np.matmul(spikes.astype(np.float64), b)
            assert numerics.matmul(spikes, b).tobytes() == want.tobytes()

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            numerics.matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            numerics.matmul(np.zeros(3), np.zeros((3, 2)))

    def test_gemm_dtype_is_hard_dtype_when_an_operand_has_it(self):
        spikes, w = np.ones((3, 4), dtype=np.uint8), np.ones((4, 2))
        assert numerics.matmul(spikes, w.astype(np.float32)).dtype == np.float32
        assert numerics.matmul(spikes, w).dtype == np.float64

    def test_float64_gemms_widen_a_float32_operand(self, float64_gemms):
        out = numerics.matmul(np.ones((3, 4), dtype=np.uint8), np.ones((4, 2), dtype=np.float32))
        assert out.dtype == np.float64


class TestHistogram:
    def test_counts_match_manual_binning(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=500)
        edges = np.linspace(-4.0, 4.0, 17)
        counts = numerics.histogram(values, edges)
        manual = np.zeros(16)
        for v in values:
            for i in range(16):
                last = i == 15
                if edges[i] <= v < edges[i + 1] or (last and v == edges[16]):
                    manual[i] += 1
        npt.assert_array_equal(counts, manual)

    def test_covering_edges_conserve_total(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=333)
        edges = np.linspace(values.min(), values.max(), 9)
        assert numerics.histogram(values, edges).sum() == values.size

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            numerics.histogram(np.zeros((0,)), np.array([0.0, 1.0]))

    def test_edges_must_increase(self):
        with pytest.raises(DimensionError):
            numerics.histogram(np.zeros(3), np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 10, 16, 17])
@pytest.mark.parametrize("rows", [(3, 5), (0, 4), (6,)])
def test_pack_rows_packs_each_row_as_packbits_does(rows, width):
    # Packed as one flat run, each row still gets bytes of its own, with
    # its padding bits 0, and unpacking gives back the rows alone.
    bits = np.random.default_rng(width).random((*rows, width)) < 0.5
    packed = numerics.pack_rows(bits)
    assert packed.dtype == np.uint8
    assert packed.tobytes() == np.packbits(bits, axis=-1).tobytes()
    assert packed.shape == (*rows, -(-width // 8))
    unpacked = numerics.unpack_rows(packed, width)
    assert unpacked.dtype == np.bool_ and unpacked.shape == bits.shape
    assert unpacked.tobytes() == bits.tobytes()


def test_require_finite():
    numerics.require_finite(np.array([1.0, -2.0]))
    with pytest.raises(NumericError, match="potential"):
        numerics.require_finite(np.array([1.0, np.nan]), "potential")
    with pytest.raises(NumericError):
        numerics.require_finite(np.array([np.inf]))
    numerics.require_finite(np.array([0, 1], dtype=np.uint8))  # integers are finite


class TestRequireHardRange:
    MAX = float(np.finfo(np.float32).max)

    def test_refuses_a_row_whose_float32_gemm_overflows_by_rounding(self):
        # The float64 sum is inside float32's range, but the cast rounds the
        # first weight up to the max and the second to 2**103, and their
        # float32 sum, a tie, rounds to infinity.
        w = np.array([[self.MAX - 2.0**103 + 2.0**75, 2.0**103 - 2.0**78]])
        assert np.sum(w) <= self.MAX
        with np.errstate(over="ignore"):
            assert np.isinf(numerics.matmul(np.ones((1, 2), dtype=np.uint8), w.T.astype(np.float32)))
        with pytest.raises(NumericError, match="layer0.w has a row of weights"):
            numerics.require_hard_range(w, "layer0.w")

    def test_passes_a_row_inside_the_rounding_margin(self):
        k = 64
        w = np.full((3, k), self.MAX / k * (1 - (k + 2) * np.finfo(np.float32).eps))
        assert numerics.require_hard_range(w, "w") is w
        assert np.all(np.isfinite(numerics.matmul(np.ones((5, k), dtype=np.uint8),
                                                  w.T.astype(np.float32))))

    def test_float64_gemms_keep_float64_range(self, float64_gemms):
        numerics.require_hard_range(np.array([[1e39, 1e300]]), "w")
