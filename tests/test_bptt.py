import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikekit import bptt, numerics
from spikekit.bptt import BpttTape, backward, forward_record, gradcheck
from spikekit.errors import DataError, DimensionError, NumericError, StateError
from spikekit.network import init_network, readout_and_loss, softmax
from spikekit.neurons import MODEL_TABLE, MODELS, NeuronState, scan, step, surrogate_window

from aia_update_forms import aia_update_from_drive, aia_update_gated_sum
from gradcheck_full_rerun import full_rerun_errors


def _binary_inputs(rng, batch, width, timesteps, p=0.5):
    return (rng.random((batch, width, timesteps)) < p).astype(np.float64)


def _membrane(tape, n):
    """What layer ``n``'s tape holds of its potential: the unpacked window, or float64 ``u``."""
    held = tape.held_membrane[n]
    return numerics.unpack_rows(held, tape.x[n].shape[-1]) if held.dtype == np.uint8 else held


class TestForwardRecord:
    def test_readout_is_time_mean_of_output_spikes(self):
        rng = np.random.default_rng(0)
        net = init_network([5, 4, 3], model="lif", timesteps=6, seed=1)
        tape, readout = forward_record(net, _binary_inputs(rng, 3, 5, 6))
        manual = sum(tape.o[-1]) / 6.0
        npt.assert_array_equal(readout, manual)
        assert readout.shape == (3, 3)

    def test_records_every_layer_and_timestep(self):
        rng = np.random.default_rng(1)
        net = init_network([4, 6, 2], model="lif", timesteps=5, seed=2)
        inputs = _binary_inputs(rng, 2, 4, 5)
        # Hard-mode spikes are bool and its drive is its GEMMs' float32;
        # smoothed-mode spikes are probabilities, and smoothed mode is float64.
        assert numerics.HARD_DTYPE == np.float32
        for smoothed, drive, spikes in ((False, np.float32, np.bool_),
                                        (True, np.float64, np.float64)):
            tape, _ = forward_record(net, inputs, smoothed=smoothed)
            assert len(tape.x) == 2
            for n, width in enumerate([6, 2]):
                for series, dtype in ((tape.x[n], drive), (tape.u[n], np.float64),
                                      (tape.o[n], spikes)):
                    assert isinstance(series, np.ndarray)
                    assert series.shape == (5, 2, width)
                    assert series.dtype == dtype
                    assert len(series) == 5
                    assert all(entry.shape == (2, width) for entry in series)
                if not smoothed:  # one bit per spike, a row padded to whole bytes
                    assert tape.held_o[n].dtype == np.uint8
                    assert tape.held_o[n].shape == (5, 2, -(-width // 8))

    def test_uint8_batch_matches_float64_batch(self):
        # A uint8 dataset gives a uint8 time-major batch. It, and the same
        # spikes as bool, int64 or float64, feed bit-identical forwards in both
        # modes: every tape holds the batch as bits, time-major.
        rng = np.random.default_rng(11)
        data = (rng.random((9, 5, 6)) < 0.5).astype(np.uint8)
        index = [4, 0, 7]
        batch = bptt.time_major_batch(data, index)
        assert batch.dtype == np.uint8
        assert batch.transpose(2, 0, 1).flags.c_contiguous
        npt.assert_array_equal(batch, data[index])
        net = init_network([5, 4, 3], model="plif", timesteps=6, seed=12)
        upstream = rng.standard_normal((3, 3))
        for smoothed in (False, True):
            tape8, readout8 = forward_record(net, batch, smoothed=smoothed)
            assert tape8.inputs.dtype == np.uint8 and tape8.inputs.shape == (6, 3, 1)
            npt.assert_array_equal(numerics.unpack_rows(tape8.inputs, 5),
                                   batch.transpose(2, 0, 1))
            g8 = backward(tape8, upstream, net)
            for dtype in (np.bool_, np.int64, np.float64):
                tape, readout = forward_record(net, data[index].astype(dtype), smoothed=smoothed)
                assert readout.tobytes() == readout8.tobytes()
                for a, b in zip([tape.inputs, *tape.x, *tape.held_membrane, *tape.held_o],
                                [tape8.inputs, *tape8.x, *tape8.held_membrane, *tape8.held_o],
                                strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                for (_, a), (_, b) in zip(backward(tape, upstream, net).items(), g8.items(),
                                          strict=True):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("value, dtype", [(2, np.int64), (-1, np.int64), (0.5, np.float64)])
    @pytest.mark.parametrize("smoothed", [False, True])
    def test_non_binary_batch_refused(self, value, dtype, smoothed):
        # Inputs are spikes: an entry other than 0 or 1 is refused by the check
        # a Dataset makes, and a NaN still fails as non-finite.
        rng = np.random.default_rng(13)
        data = (rng.random((3, 5, 6)) < 0.5).astype(dtype)
        data[1, 2, 3] = value
        labels = rng.integers(0, 3, size=3)
        net = init_network([5, 4, 3], model="aia", timesteps=6, seed=14)
        with pytest.raises(DataError, match="exactly 0 or 1"):
            forward_record(net, data, smoothed=smoothed)
        with pytest.raises(DataError, match="exactly 0 or 1"):
            gradcheck(net, data, labels)
        data = data.astype(np.float64)
        data[1, 2, 3] = np.nan
        with pytest.raises(NumericError, match="inputs contains non-finite"):
            forward_record(net, data, smoothed=smoothed)
        with pytest.raises(NumericError, match="inputs contains non-finite"):
            gradcheck(net, data, labels)

    @pytest.mark.usefixtures("float64_gemms")
    def test_tape_rows_are_the_per_step_recurrence(self):
        # x[t] is the drive of step t and u follows u[t] = leak u[t-1] (1 - o[t-1]) + x[t].
        rng = np.random.default_rng(7)
        net = init_network([5, 4, 3], model="lif", timesteps=6, seed=8)
        inputs = _binary_inputs(rng, 3, 5, 6)
        tape, _ = forward_record(net, inputs)
        leak = net.layers[0].neuron.leak
        for t in range(6):
            npt.assert_allclose(tape.x[0][t], inputs[:, :, t] @ net.layers[0].w.T,
                                rtol=1e-14, atol=1e-15)
            npt.assert_allclose(tape.x[1][t], tape.o[0][t] @ net.layers[1].w.T,
                                rtol=1e-14, atol=1e-15)
            carried = 0.0 if t == 0 else leak * tape.u[0][t - 1] * (1.0 - tape.o[0][t - 1])
            npt.assert_array_equal(tape.u[0][t], carried + tape.x[0][t])

    def test_spikes_binary_in_hard_mode(self):
        rng = np.random.default_rng(2)
        net = init_network([8, 7, 3], model="lif", timesteps=4, seed=3)
        tape, _ = forward_record(net, _binary_inputs(rng, 6, 8, 4))
        for layer_o in tape.o:
            for o in layer_o:
                assert np.all((o == 0.0) | (o == 1.0))

    def test_input_shape_validation(self):
        net = init_network([4, 3], model="lif", timesteps=2, seed=0)
        with pytest.raises(DimensionError):
            forward_record(net, np.zeros((2, 5, 2)))
        with pytest.raises(DimensionError):
            forward_record(net, np.zeros((2, 4, 3)))
        with pytest.raises(DimensionError):
            forward_record(net, np.zeros((4, 2)))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        net = init_network([6, 5, 2], model="cached-aia", timesteps=3, seed=4)
        inputs = _binary_inputs(rng, 4, 6, 3)
        _, r1 = forward_record(net, inputs)
        _, r2 = forward_record(net, inputs)
        assert r1.tobytes() == r2.tobytes()


def _net_off_init(model, rng, seed, widths=(5, 6, 3), timesteps=7):
    """A net whose ``beta`` and ``plif_raw`` have moved from their initial values."""
    net = init_network(list(widths), model=model, timesteps=timesteps, seed=seed, v_th=0.5)
    for layer in net.layers:
        if layer.beta is not None:
            layer.beta[:] = rng.uniform(0.5, 1.5, size=layer.beta.shape)
        if layer.plif_raw is not None:
            layer.plif_raw[...] = 0.4
    return net


class TestTapeLayout:
    @pytest.mark.parametrize("model", MODELS)
    def test_held_bytes_per_neuron_step(self, model):
        # Per step and sample, a hard layer of N neurons holds float32 x (4 N
        # bytes), its spikes packed to ceil(N / 8) bytes and, unless the
        # backward reads u itself, u's surrogate window packed as much again,
        # else float64 u (8 N); smoothed mode holds three float64s.
        rng = np.random.default_rng(50)
        widths = (5, 6, 3, 9, 8, 1)
        net = _net_off_init(model, rng, seed=51, widths=widths)
        inputs = _binary_inputs(rng, 4, 5, 7)
        for smoothed in (False, True):
            tape, _ = forward_record(net, inputs, smoothed=smoothed)
            assert (tape.neurons is None) == smoothed
            for n, width in enumerate(widths[1:]):
                bits = -(-width // 8)
                per_row = (24 * width if smoothed
                           else 4 * width + bits + (8 * width if model == "plif" else bits))
                held = sum(series[n].nbytes for series in (tape.x, tape.held_membrane, tape.held_o))
                assert held == per_row * 7 * 4

    @pytest.mark.parametrize("model", MODELS)
    def test_potentials_are_the_scanned_ones(self, model):
        # Batch 3 over 700 steps spans three scan blocks of ceil(GEMM_ROWS / 3)
        # steps, the first one short; the tape must still be the chained steps.
        batch, timesteps = 3, 700
        assert len(numerics.blocks(timesteps, batch)) >= 3
        rng = np.random.default_rng(52)
        net = _net_off_init(model, rng, seed=53, timesteps=timesteps)
        tape, _ = forward_record(net, _binary_inputs(rng, batch, 5, timesteps))
        chained = []
        for n, layer in enumerate(net.layers):
            state = NeuronState.zeros((batch, layer.out_width))
            us, os = [], []
            for t in range(timesteps):
                state = step(state, tape.x[n][t], layer.params(), layer.beta)
                us.append(state.u)
                os.append(state.o)
            chained.append((layer.params(), np.stack(us), np.stack(os)))
        # A parameter update after the forward does not change what the tape reads.
        for layer in net.layers:
            if layer.beta is not None:
                layer.beta *= 2.0
            if layer.plif_raw is not None:
                layer.plif_raw[...] = -1.0
        assert len(tape.u) == len(chained) == 2
        for series in (tape.o, tape.u):  # iterating reads each layer as indexing does
            assert [a.tobytes() for a in series] == [series[0].tobytes(), series[-1].tobytes()]
        for n, (p, u, o) in enumerate(chained):
            assert tape.u[n].dtype == np.float64
            assert tape.u[n].tobytes() == u.tobytes()
            assert tape.o[n].tobytes() == o.tobytes()
            window = np.abs(u - p.v_th) <= p.surrogate_width / 2.0
            assert np.any(window) and not np.all(window)
            if model == "plif":
                assert tape.u[n] is tape.held_membrane[n]
            else:
                assert _membrane(tape, n).dtype == np.bool_
                assert _membrane(tape, n).tobytes() == window.tobytes()

    def test_float32_drive_shrinks_a_wide_tape(self, monkeypatch):
        # At a wide shape, float32 GEMMs keep 4 bytes of x per neuron-step
        # instead of 8, beside two bits of packed spikes and window. What the
        # tape keeps alive after the forward is its held arrays and no dense
        # copy: within 64 KB of their bytes. The forward's traced peak falls
        # by the 4 bytes of x saved, less the float32 copy of one layer's
        # weights that its GEMM reads.
        rng = np.random.default_rng(56)
        widths, batch, timesteps = (100, 256, 256, 10), 32, 100
        net = init_network(list(widths), model="lif", timesteps=timesteps, seed=57, v_th=0.5)
        data = (rng.random((batch, widths[0], timesteps)) < 0.2).astype(np.uint8)
        inputs = bptt.time_major_batch(data, range(batch))
        peak, held = {}, {}
        for dtype in (np.float64, np.float32):
            monkeypatch.setattr(numerics, "HARD_DTYPE", dtype)
            tracemalloc.start()
            try:
                tape, _ = forward_record(net, inputs)
                retained, peak[dtype] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            held[dtype] = sum(a.nbytes for series in (tape.x, tape.held_membrane, tape.held_o)
                              for a in series)
            assert held[dtype] <= retained < held[dtype] + 64 * 1024
            assert 0.0 < np.mean(tape.o[-1]) < 1.0
            del tape
        cells = timesteps * batch * sum(widths[1:])
        bits = 2 * timesteps * batch * sum(-(-width // 8) for width in widths[1:])
        assert held[np.float64] == 8 * cells + bits and held[np.float32] == 4 * cells + bits
        weights = max(layer.w.size for layer in net.layers) * 4
        assert peak[np.float64] - peak[np.float32] >= 4 * cells - weights

    @pytest.mark.parametrize("model", MODELS)
    def test_packed_rows_read_as_the_scanned_ones(self, model):
        # Widths of 1 and 7 to 10 neurons put a packed row at and around a
        # byte's edge, and batch 48 over 50 steps spans three scan blocks of
        # 6, 22 and 22 steps. Readers see the scan's spikes and surrogate
        # window byte for byte, and no padding bit is set.
        widths, batch, timesteps = (6, 9, 1, 7, 8, 10), 48, 50
        assert len(numerics.blocks(timesteps, batch)) >= 3
        rng = np.random.default_rng(65)
        net = _net_off_init(model, rng, seed=66, widths=widths, timesteps=timesteps)
        tape, _ = forward_record(net, _binary_inputs(rng, batch, widths[0], timesteps))
        for n, layer in enumerate(net.layers):
            p = layer.params()
            u, o = scan(tape.x[n], p, layer.beta)
            window = surrogate_window(u, p)
            assert 0.0 < np.mean(o) < 1.0 and 0.0 < np.mean(window) < 1.0
            held = u if MODEL_TABLE[p.model].trained_leak else window
            for got, want in ((tape.o[n], o), (_membrane(tape, n), held), (tape.u[n], u)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for bits in (tape.held_o[n], tape.held_membrane[n]):
                if bits.dtype == np.uint8:
                    assert not np.any(np.unpackbits(bits, axis=-1)[..., layer.out_width:])

    def test_window_gives_the_surrogate_derivative_bitwise(self):
        rng = np.random.default_rng(54)
        net = _net_off_init("lif", rng, seed=55)
        tape, _ = forward_record(net, _binary_inputs(rng, 4, 5, 7))
        p = net.layers[0].params()
        do = rng.standard_normal((7, 4, 6))
        carry = rng.standard_normal((4, 6))
        from_window = bptt._block_du(do, _membrane(tape, 0), tape.o[0], p, False, carry)
        from_u = bptt._block_du(do, tape.u[0], tape.o[0], p, False, carry)
        assert np.any(from_window != 0.0)
        assert from_window.tobytes() == from_u.tobytes()


def _reference_tape(net, inputs, smoothed):
    """The tape from one float64 ``np.matmul`` per layer and a whole-window scan;
    ``inputs`` is a ``uint8`` spike batch, held as bits."""
    batch, width, timesteps = inputs.shape
    tape = BpttTape(inputs=np.packbits(inputs.transpose(2, 0, 1), axis=-1), x=[],
                    held_membrane=[], held_o=[], readout=None, smoothed=smoothed)
    pre = inputs.transpose(2, 0, 1).reshape(-1, width).astype(np.float64)
    for layer in net.layers:
        x = np.matmul(pre, layer.w.T).reshape(timesteps, batch, layer.out_width)
        p = layer.params()
        u, o = scan(x, p, layer.beta, smoothed=smoothed)
        holds_u = smoothed or MODEL_TABLE[p.model].trained_leak
        tape.x.append(x)
        tape.held_membrane.append(u if holds_u else np.packbits(surrogate_window(u, p), axis=-1))
        tape.held_o.append(o if smoothed else np.packbits(o, axis=-1))
        pre = o.reshape(-1, layer.out_width).astype(np.float64)
    tape.readout = np.sum(o, axis=0) / float(timesteps)
    return tape


class TestBlockedForward:
    """Past GEMM_ROWS rows the forward runs its GEMMs and scans on the block grid."""

    WIDTHS, BATCH, TIMESTEPS = (40, 24, 4), 32, 140

    def _case(self, model, seed):
        grid = numerics.blocks(self.TIMESTEPS, self.BATCH)
        assert len(grid) >= 3 and grid[0].stop < grid[1].stop - grid[1].start  # a short first block
        rng = np.random.default_rng(seed)
        net = _net_off_init(model, rng, seed=seed, widths=self.WIDTHS, timesteps=self.TIMESTEPS)
        data = (rng.random((self.BATCH, self.WIDTHS[0], self.TIMESTEPS)) < 0.3).astype(np.uint8)
        return net, data, rng.integers(0, self.WIDTHS[-1], size=self.BATCH)

    @pytest.mark.usefixtures("float64_gemms")
    @pytest.mark.parametrize("smoothed", [False, True])
    @pytest.mark.parametrize("model", MODELS)
    def test_bit_equal_to_single_gemm_reference(self, model, smoothed):
        net, data, labels = self._case(model, seed=60)
        inputs = bptt.time_major_batch(data, range(self.BATCH))
        tape, readout = forward_record(net, inputs, smoothed=smoothed)
        ref = _reference_tape(net, inputs, smoothed)
        assert tape.inputs.dtype == ref.inputs.dtype == np.uint8
        assert tape.inputs.tobytes() == ref.inputs.tobytes()
        for n in range(len(net.layers)):
            assert 0.0 < np.mean(ref.o[n]) < 1.0
            for got, want in ((tape.x[n], ref.x[n]), (_membrane(tape, n), _membrane(ref, n)),
                              (tape.o[n], ref.o[n]), (tape.held_membrane[n], ref.held_membrane[n]),
                              (tape.held_o[n], ref.held_o[n])):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert readout.tobytes() == ref.readout.tobytes()
        _, upstream, _ = readout_and_loss(readout, labels)
        got = backward(tape, upstream, net)
        want = backward(ref, upstream, net)
        for (name, a), (_, b) in zip(got.items(), want.items(), strict=True):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("model", MODELS)
    def test_float32_drive_is_within_rounding_of_the_exact_product(self, model):
        # Float32 GEMMs cut into GEMM_ROWS pieces keep the single GEMM's bits
        # on OpenBLAS's SkylakeX kernel but not on its Haswell and Zen ones
        # (see numerics.GEMM_ROWS), so what holds on every kernel is checked:
        # each layer's float32 drive is within float32 rounding of the exact
        # product of the spikes the tape holds below it, fan-in K times eps
        # relative to the sum of the terms' sizes (each weight rounded once,
        # K terms summed), and the rest of the tape is the scan of that drive.
        net, data, _ = self._case(model, seed=60)
        inputs = bptt.time_major_batch(data, range(self.BATCH))
        tape, readout = forward_record(net, inputs)
        eps = float(np.finfo(np.float32).eps)
        pre = inputs.transpose(2, 0, 1).reshape(-1, self.WIDTHS[0]).astype(np.float64)
        for n, layer in enumerate(net.layers):
            assert tape.x[n].dtype == np.float32
            x = tape.x[n].reshape(-1, layer.out_width)
            error = np.abs(x - pre @ layer.w.T)
            assert np.all(error <= layer.in_width * eps * (pre @ np.abs(layer.w).T))
            p = layer.params()
            membrane, o = scan(tape.x[n], p, layer.beta,
                               keep="u" if MODEL_TABLE[p.model].trained_leak else "window")
            assert 0.0 < np.mean(o) < 1.0
            assert membrane.tobytes() == tape.held_membrane[n].tobytes()
            assert o.tobytes() == tape.o[n].tobytes()
            pre = o.reshape(-1, layer.out_width).astype(np.float64)
        assert readout.tobytes() == (np.sum(tape.o[-1], axis=0) / self.TIMESTEPS).tobytes()

    @pytest.mark.parametrize("model", MODELS)
    def test_hard_forward_scratch_is_bounded_by_gemm_rows(self, model):
        # Beyond what it keeps, the forward may hold one cast block of fewer
        # than 2 * GEMM_ROWS rows or one scan block of the potential, not a
        # float64 copy of the whole (T * B, width) operand.
        net, data, _ = self._case(model, seed=61)
        tracemalloc.start()
        try:
            tape, _ = forward_record(net, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for series in (tape.x, tape.held_membrane, tape.held_o)
                   for a in series)
        block = 2 * numerics.GEMM_ROWS * max(self.WIDTHS) * 8
        assert peak < held + data.nbytes + block


class TestBlockedBackward:
    """The backward walks time in blocks of ceil(GEMM_ROWS / batch) steps."""

    WIDTHS, BATCH, TIMESTEPS = (32, 64, 64, 64, 4), 64, 48

    @pytest.mark.parametrize("model", MODELS)
    def test_scratch_is_one_layers_block(self, model):
        # Three blocks of 16 steps, R = 1024 rows, four layers. At its widest
        # layer (W = 64) a block needs 20 bytes per row and neuron: the float32
        # dL/do from above and the float64 dL/du and through-time factor made
        # from it (what the site factor, plif's leak gradient, the casts and
        # the GEMMs add later is at most that). Beyond it the backward holds
        # its float64 d_w, the float32 weights of the spatial GEMMs and one
        # float64 dL/du row per layer carried to the next block, plus one
        # temporary row. The bound
        # allows one more float64 block; keeping each upper layer's whole
        # dL/du block alive (a view as the carry) holds three more.
        rng = np.random.default_rng(62)
        net = init_network(list(self.WIDTHS), model=model, timesteps=self.TIMESTEPS, seed=63,
                           v_th=0.5)
        data = (rng.random((self.BATCH, self.WIDTHS[0], self.TIMESTEPS)) < 0.3).astype(np.uint8)
        tape, readout = forward_record(net, bptt.time_major_batch(data, range(self.BATCH)))
        assert all(0.0 < np.mean(o) < 1.0 for o in tape.o)
        _, upstream, _ = readout_and_loss(readout, rng.integers(0, self.WIDTHS[-1], self.BATCH))
        tracemalloc.start()
        try:
            backward(tape, upstream, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid, widest = numerics.blocks(self.TIMESTEPS, self.BATCH), max(self.WIDTHS)
        rows = (grid[-1].stop - grid[-1].start) * self.BATCH
        assert len(grid) >= 3 and self.TIMESTEPS * self.BATCH >= 3 * rows
        d_w = sum(layer.w.nbytes for layer in net.layers)
        weights = sum(layer.w.size * 4 for layer in net.layers[1:])
        carried = (len(net.layers) + 1) * self.BATCH * widest * 8
        bound = (20 + 8) * rows * widest + d_w + weights + carried
        assert peak < bound, f"peak {peak} B, bound {bound} B"

    def test_plif_unpacks_no_window_and_each_block_of_spikes_once(self, monkeypatch):
        # A hard plif tape holds u, and its leak gradient's gate 1 - o is
        # u < v_th, so its backward unpacks only spikes: each block's spikes
        # below each layer, and the top layer's. A lif backward unpacks those
        # and each layer's window per block besides.
        rng = np.random.default_rng(64)
        data = (rng.random((self.BATCH, self.WIDTHS[0], self.TIMESTEPS)) < 0.3).astype(np.uint8)
        calls = {}
        real = numerics.unpack_rows

        def counting(packed, width):
            calls[model] += 1
            return real(packed, width)

        for model in ("lif", "plif"):
            net = init_network(list(self.WIDTHS), model=model, timesteps=self.TIMESTEPS, seed=63,
                               v_th=0.5)
            tape, readout = forward_record(net, bptt.time_major_batch(data, range(self.BATCH)))
            _, upstream, _ = readout_and_loss(readout, rng.integers(0, self.WIDTHS[-1],
                                                                    self.BATCH))
            calls[model] = 0
            monkeypatch.setattr(numerics, "unpack_rows", counting)
            backward(tape, upstream, net)
            monkeypatch.setattr(numerics, "unpack_rows", real)
        blocks, layers = len(numerics.blocks(self.TIMESTEPS, self.BATCH)), len(self.WIDTHS) - 1
        assert calls["plif"] == blocks * (layers + 1)
        assert calls["plif"] <= calls["lif"] - blocks * layers


class TestBlockGrid:
    """One grid, numerics.blocks, cuts the forward's GEMMs and window scans and the backward."""

    WIDTHS = (6, 5, 3)

    @staticmethod
    def _windows(batch):
        """Windows of 1, 2 and 3 blocks, each with and without a short first block."""
        last = numerics.blocks(10**6, batch)[-1]
        size = last.stop - last.start
        return [n * size - short for n in (1, 2, 3) for short in (0, size // 2)]

    @pytest.mark.parametrize("batch", [1, 3, 32, 48, 128])
    def test_blocks_tile_the_window_and_cut_every_pass(self, batch, monkeypatch):
        rows, packed = [], []
        real_matmul, real_pack = numerics.matmul, numerics.pack_rows

        def matmul(a, b):
            rows.append((a.shape, b.shape))
            return real_matmul(a, b)

        def pack_rows(bits):
            packed.append(len(bits))
            return real_pack(bits)

        monkeypatch.setattr(numerics, "matmul", matmul)
        monkeypatch.setattr(numerics, "pack_rows", pack_rows)
        rng = np.random.default_rng(batch)
        for timesteps in self._windows(batch):
            grid = numerics.blocks(timesteps, batch)
            steps = [s.stop - s.start for s in grid]
            size = steps[-1]
            # The blocks tile [0, T) in order, each full one the fewest steps of
            # at least GEMM_ROWS rows, and only the first may be short.
            assert [t for s in grid for t in range(s.start, s.stop)] == list(range(timesteps))
            assert (size - 1) * batch < numerics.GEMM_ROWS <= size * batch or size == timesteps
            assert all(n == size for n in steps[1:]) and 0 < steps[0] <= size
            assert len(grid) == -(-timesteps // size)

            net = init_network(list(self.WIDTHS), model="lif", timesteps=timesteps, seed=batch,
                               v_th=0.5)
            rows.clear(), packed.clear()
            inputs = _binary_inputs(rng, batch, self.WIDTHS[0], timesteps, p=0.3)
            tape, readout = forward_record(net, inputs.astype(np.uint8))
            forward, scans = rows[:], packed[:]
            rows.clear()
            backward(tape, np.ones_like(readout), net)
            layers = range(len(net.layers))
            # Each forward GEMM is one block of the spikes below, layer by layer;
            # each window scan packs one block at a time, between the packing
            # of the inputs and of the layer's spikes.
            assert forward == [((n * batch, layer.in_width), (layer.in_width, layer.out_width))
                               for layer in net.layers for n in steps]
            assert scans == [timesteps] + (steps + [timesteps]) * len(net.layers)
            # The backward walks the same blocks from the end: per block and
            # layer from the top, the weight-gradient GEMM over the block's
            # spikes below, then (above layer 0) the gradient sent down.
            want = []
            for n in reversed(steps):
                for k in reversed(layers):
                    layer = net.layers[k]
                    want.append(((layer.out_width, n * batch), (n * batch, layer.in_width)))
                    if k:
                        want.append(((n * batch, layer.out_width),
                                     (layer.out_width, layer.in_width)))
            assert rows == want
            assert max(max(a[0], a[1]) for a, _ in forward + rows) <= (
                numerics.GEMM_ROWS + batch - 1)


class TestForwardChecks:
    """Hard and smoothed forwards run one scan per layer with the same input checks."""

    @pytest.mark.parametrize("model", MODELS)
    def test_hard_forward_checks_finiteness_once_per_layer(self, model, monkeypatch):
        checked = []
        real = numerics.require_finite

        def counting(a, what="array"):
            checked.append(what)
            return real(a, what)

        monkeypatch.setattr(numerics, "require_finite", counting)
        net = init_network([5, 4, 3], model=model, timesteps=4, seed=4)
        forward_record(net, _binary_inputs(np.random.default_rng(5), 2, 5, 4))
        assert checked == ["inputs"] + ["weighted input"] * len(net.layers)

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_forward_rejects_a_non_finite_weight(self, smoothed):
        net = init_network([5, 4, 3], model="lif", timesteps=4, seed=6)
        net.layers[0].w[1, 2] = np.nan
        with pytest.raises(NumericError):
            forward_record(net, np.ones((2, 5, 4)), smoothed=smoothed)

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_forward_rejects_a_wrong_length_beta(self, smoothed):
        net = init_network([5, 4, 3], model="cached-aia", timesteps=4, seed=7)
        net.layers[0].beta = np.ones(5)
        inputs = _binary_inputs(np.random.default_rng(8), 2, 5, 4)
        with pytest.raises(DimensionError, match="beta shape"):
            forward_record(net, inputs, smoothed=smoothed)


class TestForwardEquivalences:
    """The association models ride on the same dynamics as the leaky baseline."""

    def test_aia_matches_lif_bitwise(self):
        rng = np.random.default_rng(4)
        lif = init_network([7, 6, 3], model="lif", timesteps=5, seed=9)
        aia = init_network([7, 6, 3], model="aia", timesteps=5, seed=9)
        inputs = _binary_inputs(rng, 5, 7, 5)
        _, r_lif = forward_record(lif, inputs)
        _, r_aia = forward_record(aia, inputs)
        assert r_lif.tobytes() == r_aia.tobytes()

    def test_unit_beta_cached_matches_lif_bitwise(self):
        rng = np.random.default_rng(5)
        lif = init_network([7, 6, 3], model="lif", timesteps=5, seed=10)
        cached = init_network([7, 6, 3], model="cached-aia", timesteps=5, seed=10)
        inputs = _binary_inputs(rng, 5, 7, 5)
        _, r_lif = forward_record(lif, inputs)
        _, r_cached = forward_record(cached, inputs)
        assert r_lif.tobytes() == r_cached.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(widths=st.lists(st.integers(1, 12), min_size=2, max_size=4),
           batch=st.integers(1, 8), timesteps=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 4.0))
    def test_association_forwards_are_lif_for_random_nets(self, widths, batch, timesteps,
                                                          seed, scale):
        # aia, and cached-aia at unit beta, change only the weight update.
        rng = np.random.default_rng(seed)
        nets = [init_network(widths, model=m, timesteps=timesteps, seed=0)
                for m in ("lif", "aia", "cached-aia")]
        for n in range(len(widths) - 1):
            w = rng.normal(0.0, scale, size=nets[0].layers[n].w.shape)
            for net in nets:
                net.layers[n].w[...] = w
        inputs = _binary_inputs(rng, batch, widths[0], timesteps, p=rng.uniform(0.1, 0.9))
        (lif_tape, lif_readout), *others = [forward_record(net, inputs) for net in nets]
        for tape, readout in others:
            assert readout.tobytes() == lif_readout.tobytes()
            for series in ("x", "held_membrane", "u", "o"):
                for got, want in zip(getattr(tape, series), getattr(lif_tape, series),
                                     strict=True):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_if_matches_lif_with_unit_leak_bitwise(self):
        rng = np.random.default_rng(6)
        ifnet = init_network([7, 6, 3], model="if", timesteps=5, seed=11)
        lif1 = init_network([7, 6, 3], model="lif", timesteps=5, seed=11, leak=1.0)
        inputs = _binary_inputs(rng, 5, 7, 5)
        _, r_if = forward_record(ifnet, inputs)
        _, r_lif = forward_record(lif1, inputs)
        assert r_if.tobytes() == r_lif.tobytes()


def _single_step_pieces(net, inputs, labels):
    """Hand-computed backward quantities for a 1-layer, T=1 network."""
    w = net.layers[0].w
    o_pre = inputs[:, :, 0]
    x = o_pre @ w.T
    u = x.copy()
    o = (u >= 1.0).astype(np.float64)
    probs = softmax(o)
    upstream = probs.copy()
    upstream[np.arange(len(labels)), labels] -= 1.0
    upstream /= len(labels)
    spike_deriv = (np.abs(u - 1.0) <= 0.5).astype(np.float64)
    dv = upstream * spike_deriv  # do = upstream / T with T = 1
    return o_pre, x, dv


@pytest.mark.usefixtures("float64_gemms")
class TestHardBackwardClosedForms:
    """One layer, one timestep: the chain collapses to a hand-checkable product."""

    def setup_method(self):
        self.rng = np.random.default_rng(33)

    def _net_and_data(self, model):
        net = init_network([4, 3], model=model, timesteps=1, seed=7)
        inputs = _binary_inputs(self.rng, 5, 4, 1)
        labels = self.rng.integers(0, 3, size=5)
        return net, inputs, labels

    def test_lif_weight_gradient(self):
        net, inputs, labels = self._net_and_data("lif")
        tape, _ = forward_record(net, inputs)
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)
        o_pre, _, dv = _single_step_pieces(net, inputs, labels)
        npt.assert_allclose(grads.d_w[0], dv.T @ o_pre, rtol=1e-13, atol=1e-16)

    def test_aia_weight_gradient_carries_drive_factor(self):
        net, inputs, labels = self._net_and_data("aia")
        tape, _ = forward_record(net, inputs)
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)
        o_pre, x, dv = _single_step_pieces(net, inputs, labels)
        npt.assert_allclose(grads.d_w[0], (dv * x).T @ o_pre, rtol=1e-13, atol=1e-16)

    def test_cached_weight_and_gain_gradients(self):
        net, inputs, labels = self._net_and_data("cached-aia")
        beta = self.rng.uniform(0.5, 1.5, size=3)
        net.layers[0].beta[:] = beta
        tape, _ = forward_record(net, inputs)
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)

        w = net.layers[0].w
        o_pre = inputs[:, :, 0]
        x = o_pre @ w.T
        u = beta * x
        o = (u >= 1.0).astype(np.float64)
        probs = softmax(o)
        upstream_ref = probs.copy()
        upstream_ref[np.arange(5), labels] -= 1.0
        upstream_ref /= 5
        dv = upstream_ref * (np.abs(u - 1.0) <= 0.5).astype(np.float64)
        npt.assert_allclose(grads.d_w[0], (dv * beta).T @ o_pre, rtol=1e-13, atol=1e-16)
        npt.assert_allclose(grads.d_beta[0], (dv * x).sum(axis=0), rtol=1e-13, atol=1e-16)

    def test_two_timestep_temporal_path(self):
        """T = 2 adds the leak-through-membrane term to the first step."""
        net = init_network([4, 3], model="lif", timesteps=2, seed=8)
        inputs = _binary_inputs(self.rng, 4, 4, 2)
        labels = self.rng.integers(0, 3, size=4)
        tape, _ = forward_record(net, inputs)
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)

        leak = 0.5
        sd = [(np.abs(u - 1.0) <= 0.5).astype(float) for u in tape.u[0]]
        dv2 = (upstream / 2.0) * sd[1]
        dv1 = (upstream / 2.0) * sd[0] + dv2 * leak * (1.0 - tape.o[0][0])
        expect = dv1.T @ inputs[:, :, 0] + dv2.T @ inputs[:, :, 1]
        npt.assert_allclose(grads.d_w[0], expect, rtol=1e-13, atol=1e-16)


class TestAssociationUpdateForms:
    def test_two_formulations_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            out_n = int(rng.integers(1, 7))
            in_n = int(rng.integers(1, 9))
            w = rng.normal(size=(out_n, in_n))
            o_pre = (rng.random(in_n) < 0.5).astype(np.float64)
            dldu = rng.normal(size=out_n)
            a = aia_update_from_drive(w, o_pre, dldu)
            b = aia_update_gated_sum(w, o_pre, dldu)
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
            assert np.max(np.abs(a - b) / scale) <= 1e-12

    def test_silent_presynapse_contributes_nothing(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 6))
        o_pre = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        dldu = rng.normal(size=4)
        update = aia_update_from_drive(w, o_pre, dldu)
        npt.assert_array_equal(update[:, o_pre == 0.0], 0.0)

    @pytest.mark.usefixtures("float64_gemms")
    def test_engine_matches_drive_form_per_sample(self):
        # For one layer and one timestep the engine's association update is
        # exactly the closed drive form evaluated with dL/du at the spike site.
        rng = np.random.default_rng(14)
        net = init_network([6, 4], model="aia", timesteps=1, seed=15)
        inputs = _binary_inputs(rng, 1, 6, 1)
        labels = np.array([2])
        tape, _ = forward_record(net, inputs)
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)

        sd = (np.abs(tape.u[0][0][0] - 1.0) <= 0.5).astype(float)
        dldu = upstream[0] * sd
        expect = aia_update_from_drive(net.layers[0].w, inputs[0, :, 0], dldu)
        npt.assert_allclose(grads.d_w[0], expect, rtol=1e-13, atol=1e-16)


class TestSilentSynapses:
    """A presynaptic neuron that never fires leaves its column untouched."""

    @pytest.mark.parametrize("model", ["lif", "aia", "cached-aia"])
    def test_zero_gradient_column_into_first_layer(self, model):
        rng = np.random.default_rng(20)
        net = init_network([9, 7, 4], model=model, timesteps=5, seed=21)
        if model == "cached-aia":
            for layer in net.layers:
                layer.beta[:] = rng.uniform(0.5, 1.5, size=layer.beta.shape)
        inputs = _binary_inputs(rng, 6, 9, 5)
        silent = 3
        inputs[:, silent, :] = 0.0
        labels = rng.integers(0, 4, size=6)
        tape, _ = forward_record(net, inputs)
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)
        column = grads.d_w[0][:, silent]
        assert np.all(column == 0.0)
        assert np.any(grads.d_w[0] != 0.0)

    def test_silent_hidden_neuron_zeroes_next_layer_column(self):
        rng = np.random.default_rng(22)
        net = init_network([8, 6, 3], model="lif", timesteps=4, seed=23)
        # Large negative input weights keep hidden neuron 2 below threshold.
        net.layers[0].w[2, :] = -5.0
        inputs = _binary_inputs(rng, 5, 8, 4)
        labels = rng.integers(0, 3, size=5)
        tape, _ = forward_record(net, inputs)
        assert all(np.all(o[:, 2] == 0.0) for o in tape.o[0])
        _, upstream, _ = readout_and_loss(tape.readout, labels)
        grads = backward(tape, upstream, net)
        assert np.all(grads.d_w[1][:, 2] == 0.0)


class TestGradcheck:
    def test_all_models_pass_on_small_nets(self):
        rng = np.random.default_rng(30)
        inputs = _binary_inputs(rng, 2, 4, 3)
        labels = rng.integers(0, 3, size=2)
        for model in ("lif", "if", "plif", "aia", "cached-aia"):
            net = init_network([4, 5, 3], model=model, timesteps=3, seed=31)
            report = gradcheck(net, inputs, labels)
            assert report.passed, f"{model}: {report.render()}"

    @pytest.mark.parametrize("model", MODELS)
    def test_suffix_reruns_give_the_full_rerun_errors(self, model, monkeypatch):
        # A layer-n entry reruns only layers n and above: 3 layers, so layer
        # 1's entries run a middle suffix. A weight entry's two signs share
        # one forward; batch 1, T = 1 and a one-layer net (layer 0 is the
        # output layer) are the reshape edges of its two-sign arrays. The
        # errors must not move at all.
        calls = {"forward_record": 0, "scan": 0}

        def counting(name):
            original = getattr(bptt, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bptt, name, counting(name))
        for sizes, batch, timesteps in (([4, 5, 4, 3], 2, 3), ([4, 5, 4, 3], 1, 3),
                                        ([4, 5, 4, 3], 2, 1), ([4, 3], 2, 3)):
            rng = np.random.default_rng(36)
            net = init_network(sizes, model=model, timesteps=timesteps, seed=37)
            inputs = _binary_inputs(rng, batch, 4, timesteps)
            labels = rng.integers(0, 3, size=batch)
            want = full_rerun_errors(net, inputs, labels)
            calls.update(forward_record=0, scan=0)  # the oracle's own scans are not counted
            report = gradcheck(net, inputs, labels)
            assert {e.name: e.max_rel_err for e in report.entries} == want, (sizes, batch)

            # forward_record runs once, for the analytic pass. Each weight
            # entry: one scan per layer from its own up. Each beta or plif_raw
            # entry: one pass of those layers per sign.
            n_layers = len(net.layers)
            weights, others = [], []
            for name, param in net.parameter_items():
                (weights if name.endswith(".w") else others).append(
                    (int(name[len("layer")]), param.size))
            assert calls["forward_record"] == 1
            assert calls["scan"] == n_layers + sum(
                (n_layers - n) * size for n, size in weights) + sum(
                2 * (n_layers - n) * size for n, size in others)

    @pytest.mark.parametrize("model", ["lif", "cached-aia"])
    def test_reruns_unpack_the_input_bits_once(self, model, monkeypatch):
        # 20 inputs are 3 bytes a row and every layer above 1 byte, so a call
        # on 3-byte rows unpacks input bits. The analytic forward and backward
        # unpack them as they always do; the reruns of every layer-0 entry, a
        # weight's 100 or a beta's 5, share one more unpack.
        unpacked = []
        original = numerics.unpack_rows

        def counting(packed, width):
            unpacked.append(packed.shape[-1] == 3)
            return original(packed, width)

        monkeypatch.setattr(numerics, "unpack_rows", counting)
        rng = np.random.default_rng(38)
        net = init_network([20, 5, 3], model=model, timesteps=3, seed=39)
        inputs = _binary_inputs(rng, 2, 20, 3)
        labels = rng.integers(0, 3, size=2)
        tape, readout = forward_record(net, inputs, smoothed=True)
        backward(tape, readout_and_loss(readout, labels)[1], net)
        analytic = sum(unpacked)
        unpacked.clear()
        assert gradcheck(net, inputs, labels).passed
        assert analytic > 0 and sum(unpacked) == analytic + 1

    def test_report_names_every_parameter(self):
        rng = np.random.default_rng(32)
        net = init_network([4, 5, 3], model="cached-aia", timesteps=2, seed=33)
        report = gradcheck(net, (rng.random((2, 4, 2)) < 0.5).astype(float),
                           rng.integers(0, 3, size=2))
        names = [e.name for e in report.entries]
        assert names == ["layer0.w", "layer0.beta", "layer1.w", "layer1.beta"]
        assert "layer0.w" in report.render()

    def test_detects_a_corrupted_backward(self, monkeypatch):
        rng = np.random.default_rng(34)
        net = init_network([4, 4, 3], model="lif", timesteps=2, seed=35)
        true_backward = bptt.backward

        def skewed(tape, upstream, net):
            grads = true_backward(tape, upstream, net)
            for dw in grads.d_w:
                dw *= 1.01
            return grads

        monkeypatch.setattr(bptt, "backward", skewed)
        report = gradcheck(net, (rng.random((2, 4, 2)) < 0.5).astype(float),
                           rng.integers(0, 3, size=2))
        assert not report.passed
        assert max(e.max_rel_err for e in report.entries) > 1e-3


class TestBackwardValidation:
    def _tape_and_upstream(self, model="lif"):
        rng = np.random.default_rng(40)
        net = init_network([4, 3], model=model, timesteps=2, seed=41)
        tape, _ = forward_record(net, _binary_inputs(rng, 2, 4, 2))
        return net, tape

    def test_upstream_shape_checked(self):
        net, tape = self._tape_and_upstream()
        with pytest.raises(DimensionError):
            backward(tape, np.zeros((2, 4)), net)

    def test_tape_network_mismatch(self):
        net, tape = self._tape_and_upstream()
        other = init_network([4, 5, 3], model="lif", timesteps=2, seed=42)
        with pytest.raises(StateError):
            backward(tape, np.zeros((2, 3)), other)
        for name in ("x", "held_membrane", "held_o"):  # one series a layer short
            net, tape = self._tape_and_upstream()
            getattr(tape, name).pop()
            with pytest.raises(StateError, match=r"network has 1"):
                backward(tape, np.zeros((2, 3)), net)

    def test_wrong_width_tape_entry_rejected(self):
        # Layer 0 has 3 neurons, so its bits take one byte per row; two bytes,
        # or the unpacked width, is the wrong shape.
        for name, wrong in (("held_membrane", np.zeros((2, 2, 2), dtype=np.uint8)),
                            ("held_o", np.zeros((2, 2, 3), dtype=np.uint8)),
                            ("x", np.zeros((2, 2, 4), dtype=numerics.HARD_DTYPE))):
            net, tape = self._tape_and_upstream()
            getattr(tape, name)[0] = wrong
            with pytest.raises(StateError, match=rf"tape {name}\[0\] has shape"):
                backward(tape, np.zeros((2, 3)), net)

    def test_potential_where_a_window_belongs_rejected(self):
        # A lif layer holds its window as packed bits: neither its float64
        # potential nor the unpacked bool mask will do.
        for dense in (lambda tape: tape.u[0], lambda tape: _membrane(tape, 0)):
            net, tape = self._tape_and_upstream()
            tape.held_membrane[0] = dense(tape)
            with pytest.raises(StateError, match=r"held_membrane\[0\] must be a uint8 array"):
                backward(tape, np.zeros((2, 3)), net)
        net, tape = self._tape_and_upstream()
        tape.held_o[0] = tape.o[0]  # spikes unpacked to one byte each
        with pytest.raises(StateError, match=r"held_o\[0\] must be a uint8 array"):
            backward(tape, np.zeros((2, 3)), net)

    def test_malformed_inputs_rejected(self):
        # Every tape, hard or smoothed, holds its 4 inputs as one byte of bits
        # per row, float64 0/1 inputs too; no float array will do, whatever
        # its shape.
        rng = np.random.default_rng(40)
        net = init_network([4, 3], model="lif", timesteps=2, seed=41)
        inputs = _binary_inputs(rng, 2, 4, 2)
        for smoothed in (False, True):
            tape, _ = forward_record(net, inputs, smoothed=smoothed)
            held = tape.inputs
            assert held.dtype == np.uint8 and held.shape == (2, 2, 1)
            dense = numerics.unpack_rows(held, 4)
            wrongs = [(dense.astype(np.uint8), r"tape inputs has shape \(2, 2, 4\)"),
                      (held[..., :0], r"tape inputs has shape \(2, 2, 0\)"),
                      (held[0], r"tape inputs has shape \(2, 1\)"),
                      (list(held), r"tape inputs must be a uint8")]
            for dtype in (np.float16, np.float32, np.float64):
                wrongs += [(dense.astype(dtype), r"tape inputs must be a uint8"),
                           (held.astype(dtype), r"tape inputs must be a uint8")]
            for wrong, message in wrongs:
                tape.inputs = wrong
                with pytest.raises(StateError, match=message):
                    backward(tape, np.zeros((2, 3)), net)

    def test_weights_checked_by_the_forward_alone(self, monkeypatch):
        # backward casts the weights that the forward which recorded its tape
        # checked, without checking their range again.
        checked = []

        def counting(w, what):
            checked.append(what)
            return real(w, what)

        real = numerics.require_hard_range
        monkeypatch.setattr(numerics, "require_hard_range", counting)
        rng = np.random.default_rng(45)
        for model in MODELS:
            net = init_network([4, 5, 3], model=model, timesteps=3, seed=46)
            tape, readout = forward_record(net, _binary_inputs(rng, 2, 4, 3))
            assert checked == ["layer0.w", "layer1.w"]
            backward(tape, np.ones(readout.shape), net)
            assert checked == ["layer0.w", "layer1.w"]
            checked.clear()

    def test_per_timestep_list_tape_rejected(self):
        net, tape = self._tape_and_upstream()
        tape.held_o[0] = list(tape.held_o[0])
        with pytest.raises(StateError, match=r"held_o\[0\]"):
            backward(tape, np.zeros((2, 3)), net)

    def test_smoothed_tape_gets_the_smoothed_gradient(self):
        # backward differentiates the forward that recorded the tape: on a
        # smoothed tape it matches central differences of the smoothed loss,
        # within gradcheck's default tolerance and relative-error rule.
        rng = np.random.default_rng(43)
        net = init_network([4, 5, 3], model="aia", timesteps=3, seed=44)
        inputs, labels = _binary_inputs(rng, 2, 4, 3), rng.integers(0, 3, size=2)

        def loss() -> float:
            return readout_and_loss(forward_record(net, inputs, smoothed=True)[1], labels)[0]

        tape, readout = forward_record(net, inputs, smoothed=True)
        grads = dict(backward(tape, readout_and_loss(readout, labels)[1], net).items())
        for name, param in net.parameter_items():
            numeric = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                saved = param[idx]
                param[idx] = saved + 1e-4
                plus = loss()
                param[idx] = saved - 1e-4
                numeric[idx] = (plus - loss()) / 2e-4
                param[idx] = saved
            assert np.any(numeric != 0.0), name
            denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(numeric)), 1e-6)
            assert np.max(np.abs(grads[name] - numeric) / denom) <= 1e-3, name

    def test_gradient_items_follow_parameter_order(self):
        rng = np.random.default_rng(45)
        net = init_network([4, 4, 2], model="plif", timesteps=2, seed=46)
        tape, _ = forward_record(net, _binary_inputs(rng, 2, 4, 2))
        grads = backward(tape, np.zeros((2, 2)), net)
        assert [name for name, _ in grads.items()] == [name for name, _ in net.parameter_items()]
