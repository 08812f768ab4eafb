import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikekit import numerics
from spikekit.errors import ConfigError, DataError, DimensionError
from spikekit.network import (
    Layer,
    Network,
    init_network,
    load_checkpoint,
    merge_beta,
    readout_and_loss,
    save_checkpoint,
    softmax,
)
from spikekit.neurons import MODELS, NeuronParams, scan
from spikekit.bptt import forward_record


class TestInit:
    def test_scaled_normal_statistics(self):
        net = init_network([128, 64, 10], model="lif", timesteps=4, seed=0)
        for layer in net.layers:
            fan_in = layer.in_width
            target = math.sqrt(2.0 / fan_in)
            assert abs(layer.w.std() - target) < 0.15 * target
            assert abs(layer.w.mean()) < 0.1 * target

    def test_deterministic_per_seed(self):
        a = init_network([16, 8, 4], model="lif", timesteps=3, seed=5)
        b = init_network([16, 8, 4], model="lif", timesteps=3, seed=5)
        c = init_network([16, 8, 4], model="lif", timesteps=3, seed=6)
        for la, lb in zip(a.layers, b.layers):
            assert la.w.tobytes() == lb.w.tobytes()
        assert a.layers[0].w.tobytes() != c.layers[0].w.tobytes()

    def test_model_extras(self):
        cached = init_network([6, 4, 2], model="cached-aia", timesteps=2, seed=1)
        assert all(np.all(l.beta == 1.0) for l in cached.layers)
        plif = init_network([6, 4, 2], model="plif", timesteps=2, seed=1)
        assert all(l.plif_raw.shape == () and l.plif_raw == 0.0 for l in plif.layers)
        lif = init_network([6, 4, 2], model="lif", timesteps=2, seed=1)
        assert all(l.beta is None and l.plif_raw is None for l in lif.layers)

    def test_if_layers_get_unit_leak(self):
        net = init_network([6, 4], model="if", timesteps=2, seed=1)
        assert net.layers[0].neuron.leak == 1.0
        assert net.layers[0].params().effective_leak() == 1.0

    def test_bad_widths(self):
        with pytest.raises(ConfigError):
            init_network([6], model="lif", timesteps=2, seed=1)
        with pytest.raises(ConfigError):
            init_network([6, 0, 2], model="lif", timesteps=2, seed=1)
        with pytest.raises(ConfigError):
            init_network([6, 4], model="tanh", timesteps=2, seed=1)
        with pytest.raises(ConfigError, match="unknown neuron model"):
            init_network([6, 4, 2], model=["lif", "cached-aia"], timesteps=2, seed=1)


class TestNetworkAssembly:
    def _layer(self, out_n, in_n):
        return Layer(w=np.zeros((out_n, in_n)), neuron=NeuronParams())

    def test_width_chain_enforced(self):
        with pytest.raises(DimensionError, match="layer 1 expects input width 5, previous "
                                                 "width is 3"):
            Network(timesteps=2, layers=[self._layer(3, 4), self._layer(2, 5)])

    def test_widths_come_from_the_layers(self):
        net = Network(timesteps=2, layers=[self._layer(3, 4), self._layer(2, 3)])
        assert (net.input_width, net.class_count) == (4, 2)
        with pytest.raises(AttributeError):
            net.class_count = 3

    def test_needs_layers_and_timesteps(self):
        with pytest.raises(ConfigError):
            Network(timesteps=2, layers=[])
        with pytest.raises(ConfigError):
            Network(timesteps=0, layers=[self._layer(2, 4)])

    def test_copy_is_deep_for_parameters(self):
        net = init_network([5, 4, 2], model="cached-aia", timesteps=2, seed=0)
        dup = net.copy()
        dup.layers[0].w[0, 0] += 1.0
        dup.layers[0].beta[0] += 1.0
        assert net.layers[0].w[0, 0] != dup.layers[0].w[0, 0]
        assert net.layers[0].beta[0] == 1.0

    def test_parameter_items_order_and_count(self):
        net = init_network([5, 4, 2], model="cached-aia", timesteps=2, seed=0)
        names = [name for name, _ in net.parameter_items()]
        assert names == ["layer0.w", "layer0.beta", "layer1.w", "layer1.beta"]
        assert net.parameter_count() == 5 * 4 + 4 + 4 * 2 + 2


class TestReadoutLoss:
    def test_uniform_rates_give_log_class_count(self):
        loss, grad, _ = readout_and_loss(np.full((3, 4), 0.25), np.array([0, 1, 3]))
        npt.assert_allclose(loss, math.log(4.0), rtol=1e-14)
        # Uniform probabilities: gradient is (1/C - onehot) / batch.
        expect = np.full((3, 4), 0.25)
        expect[[0, 1, 2], [0, 1, 3]] -= 1.0
        npt.assert_allclose(grad, expect / 3.0, rtol=1e-14)

    def test_gradient_matches_softmax_minus_onehot(self):
        rng = np.random.default_rng(7)
        readout = rng.random((6, 5))
        labels = rng.integers(0, 5, size=6)
        _, grad, _ = readout_and_loss(readout, labels)
        probs = softmax(readout)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), labels] = 1.0
        npt.assert_allclose(grad, (probs - onehot) / 6.0, rtol=1e-13)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        readout = rng.random((4, 3))
        _, grad, _ = readout_and_loss(readout, rng.integers(0, 3, size=4))
        npt.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)

    def test_prediction_ties_break_low(self):
        readout = np.array([[0.2, 0.5, 0.5], [0.7, 0.7, 0.1]])
        _, _, predictions = readout_and_loss(readout, np.array([1, 0]))
        npt.assert_array_equal(predictions, [1, 0])

    def test_label_validation(self):
        readout = np.zeros((2, 3))
        with pytest.raises(DataError):
            readout_and_loss(readout, np.array([0, 3]))
        with pytest.raises(DataError):
            readout_and_loss(readout, np.array([-1, 0]))
        with pytest.raises(DimensionError):
            readout_and_loss(readout, np.array([0, 1, 2]))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        s = softmax(rng.normal(size=(5, 7)))
        npt.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-14)
        assert np.all(s > 0)

    def test_shift_invariance_handles_large_scores(self):
        row = np.array([[1000.0, 1001.0, 999.0]])
        s = softmax(row)
        assert np.all(np.isfinite(s))
        npt.assert_allclose(s, softmax(row - 1000.0), rtol=1e-14)


class TestMergeBeta:
    def _cached_net(self, seed=3):
        rng = np.random.default_rng(seed)
        net = init_network([10, 8, 4], model="cached-aia", timesteps=6, seed=seed)
        for layer in net.layers:
            layer.beta[:] = rng.uniform(0.25, 2.0, size=layer.beta.shape)
        return net

    def test_readout_deviation_tiny(self):
        rng = np.random.default_rng(10)
        net = self._cached_net()
        merged = merge_beta(net)
        inputs = (rng.random((12, 10, 6)) < 0.4).astype(np.float64)
        _, r_plain = forward_record(net, inputs)
        _, r_merged = forward_record(merged, inputs)
        assert np.max(np.abs(r_plain - r_merged)) <= 1e-9

    def test_merged_gains_are_exactly_one(self):
        merged = merge_beta(self._cached_net())
        for layer in merged.layers:
            assert np.all(layer.beta == 1.0)

    def test_original_untouched(self):
        net = self._cached_net()
        before = [layer.w.copy() for layer in net.layers]
        beta_before = [layer.beta.copy() for layer in net.layers]
        merge_beta(net)
        for layer, w, b in zip(net.layers, before, beta_before):
            assert layer.w.tobytes() == w.tobytes()
            assert layer.beta.tobytes() == b.tobytes()

    def test_noop_on_plain_layers(self):
        rng = np.random.default_rng(11)
        net = init_network([6, 5, 2], model="lif", timesteps=3, seed=12)
        merged = merge_beta(net)
        inputs = (rng.random((4, 6, 3)) < 0.5).astype(np.float64)
        _, a = forward_record(net, inputs)
        _, b = forward_record(merged, inputs)
        assert a.tobytes() == b.tobytes()

    # The merged drive sums the terms fl(beta * w) * p, while the plain one
    # scales fl(sum of w * p) by beta. With K <= 12 inputs and T <= 16 steps,
    # the drives, and the potentials up to a neuron's first differing spike,
    # differ by less than (K + 2) eps per step of drive plus 2 eps per step of
    # recurrence, about 1.3e-14 of the summed magnitude of their terms; the
    # bound leaves a factor 7 of margin.
    MERGE_REL = 1e-13

    @settings(max_examples=80, deadline=None)
    @given(widths=st.lists(st.integers(1, 12), min_size=2, max_size=4),
           timesteps=st.integers(1, 16), batch=st.integers(1, 6),
           leak=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           at_threshold=st.booleans())
    def test_merged_layers_agree_within_a_relative_bound(self, widths, timesteps, batch, leak,
                                                         seed, at_threshold):
        rng = np.random.default_rng(seed)
        net = init_network(widths, model="cached-aia", timesteps=timesteps, seed=seed, leak=leak)
        for layer in net.layers:
            layer.beta[:] = rng.uniform(0.5, 2.0, size=layer.beta.shape)
        merged = merge_beta(net)
        pre = (rng.random((timesteps, batch, widths[0])) < 0.5).astype(np.float64)
        flips = 0
        for plain, folded in zip(net.layers, merged.layers):
            rows = pre.reshape(-1, plain.in_width)
            shape = (timesteps, batch, plain.out_width)
            x_plain = numerics.matmul(rows, plain.w.T).reshape(shape)
            x_merged = numerics.matmul(rows, folded.w.T).reshape(shape)
            scale = numerics.matmul(rows, np.abs(plain.w.T)).reshape(shape) * plain.beta
            drive = plain.beta * x_plain  # the merged layer's drive is 1.0 * x_merged
            assert np.all(np.abs(x_merged - drive) <= self.MERGE_REL * scale)
            if at_threshold and drive[0].max() > 0:
                # From rest u[0] is the drive, so this neuron sits exactly at v_th.
                neuron = dataclasses.replace(plain.neuron, v_th=float(drive[0].max()))
                plain.neuron = folded.neuron = neuron
            u_plain, o_plain = scan(x_plain, plain.params(), plain.beta)
            u_merged, o_merged = scan(x_merged, folded.params(), folded.beta)
            # A neuron's first differing spike changes its later resets, so
            # each is compared up to and including its first flip.
            differ = o_plain != o_merged
            upto = np.cumsum(differ, axis=0) - differ == 0
            bound = self.MERGE_REL * np.cumsum(scale, axis=0)
            assert np.all((np.abs(u_merged - u_plain) <= bound)[upto])
            first = differ & upto
            assert np.all((np.abs(u_plain - plain.neuron.v_th) <= bound)[first])
            flips += int(first.sum())
            pre = o_plain.astype(np.float64)  # both layers above read the plain spikes
        event(f"merge_beta spike flips: {flips}")

    def test_merge_drops_inference_parameters_to_lif_count(self):
        net = self._cached_net()
        lif = init_network([10, 8, 4], model="lif", timesteps=6, seed=1)
        assert net.inference_parameter_count() > lif.parameter_count()
        merged = merge_beta(net)
        assert merged.inference_parameter_count() == lif.parameter_count()
        assert merged.parameter_count() == net.parameter_count()


class TestCheckpoint:
    @pytest.mark.parametrize("model", ["lif", "if", "plif", "aia", "cached-aia"])
    def test_round_trip_is_value_exact(self, model, tmp_path):
        rng = np.random.default_rng(13)
        net = init_network([7, 5, 3], model=model, timesteps=4, seed=14,
                           v_th=1.25, leak=0.5, surrogate_width=0.8)
        for layer in net.layers:
            if layer.beta is not None:
                layer.beta[:] = rng.uniform(0.5, 1.5, size=layer.beta.shape)
            if layer.plif_raw is not None:
                layer.plif_raw[...] = 0.37
        path = tmp_path / "net.json"
        save_checkpoint(net, path, seed=14)
        loaded, seed = load_checkpoint(path)
        assert seed == 14
        assert loaded.input_width == net.input_width
        assert [la.w.shape for la in loaded.layers] == [la.w.shape for la in net.layers]
        assert loaded.timesteps == net.timesteps
        for la, lb in zip(net.layers, loaded.layers):
            assert la.w.tobytes() == lb.w.tobytes()
            assert la.neuron.model == lb.neuron.model
            assert la.neuron.v_th == lb.neuron.v_th
            assert la.neuron.surrogate_width == lb.neuron.surrogate_width
            if la.beta is None:
                assert lb.beta is None
            else:
                assert la.beta.tobytes() == lb.beta.tobytes()
            if la.plif_raw is None:
                assert lb.plif_raw is None
            else:
                assert la.plif_raw.tobytes() == lb.plif_raw.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_round_trip_is_bit_exact_for_random_parameters(self, widths, seed, data):
        # Any finite float64 survives: subnormals, -0.0 and the extremes
        # included, in a network whose layers may each run another model.
        models = data.draw(st.lists(st.sampled_from(MODELS), min_size=len(widths) - 1,
                                    max_size=len(widths) - 1), label="models")
        net = Network(3, [init_network(pair, model=model, timesteps=3, seed=0).layers[0]
                          for pair, model in zip(zip(widths, widths[1:]), models)])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        for _, array in net.parameter_items():
            array[...] = data.draw(hnp.arrays(np.float64, array.shape, elements=finite))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.json"
            save_checkpoint(net, path, seed=seed)
            loaded, loaded_seed = load_checkpoint(path)
        assert loaded_seed == seed
        assert [la.neuron for la in loaded.layers] == [la.neuron for la in net.layers]
        saved = list(net.parameter_items())
        assert [name for name, _ in loaded.parameter_items()] == [name for name, _ in saved]
        for (_, a), (_, b) in zip(saved, loaded.parameter_items()):
            assert (b.dtype, b.shape) == (a.dtype, a.shape)
            assert a.tobytes() == b.tobytes()

    def test_awkward_float_values_survive(self, tmp_path):
        # Values that lose digits through repr round get preserved via the
        # bit-pattern encoding.
        net = init_network([2, 2], model="lif", timesteps=1, seed=0)
        net.layers[0].w[:] = [[0.1 + 0.2, 1e-310], [np.pi, -0.0]]
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.layers[0].w.tobytes() == net.layers[0].w.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        net = init_network([4, 2], model="cached-aia", timesteps=2, seed=3)
        save_checkpoint(net, tmp_path / "a.json", seed=3)
        save_checkpoint(net, tmp_path / "b.json", seed=3)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(DataError):
            load_checkpoint(bad)
        bad.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(DataError):
            load_checkpoint(bad)

    def test_rejects_unknown_version(self, tmp_path):
        net = init_network([3, 2], model="lif", timesteps=1, seed=0)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, stored, actual", [("input_width", 4, 3),
                                                     ("class_count", 3, 2)])
    def test_stored_width_must_match_the_layers(self, tmp_path, key, stored, actual):
        path = tmp_path / "net.json"
        save_checkpoint(init_network([3, 2], model="lif", timesteps=1, seed=0), path)
        doc = json.loads(path.read_text())
        doc[key] = stored
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"checkpoint {path}: {key} is {stored}, "
                                   f"but the layers give {actual}")

    def test_rejects_truncated_arrays(self, tmp_path):
        net = init_network([3, 2], model="lif", timesteps=1, seed=0)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["w"] = doc["layers"][0]["w"][:-16]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_checkpoint(path)
