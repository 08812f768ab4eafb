import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikekit import neurons, numerics, training
from spikekit.data import Dataset, gen_poisson_patterns
from spikekit.errors import ConfigError, DimensionError, StateError, TrainingDiverged
from spikekit.network import init_network
from spikekit.neurons import MODELS
from spikekit.training import (
    Adam,
    RunMetrics,
    TrainConfig,
    covering_bin_edges,
    evaluate,
    train,
    weight_shift_report,
    write_metrics_csv,
    write_metrics_json,
    write_spike_counts_csv,
    write_weight_shift_csv,
)


def _held_bytes(tape) -> int:
    """Bytes the tape holds; ``tape.o`` and ``.u`` are read from these on access."""
    return sum(a.nbytes for series in (tape.x, tape.held_membrane, tape.held_o) for a in series)


def _toy():
    kw = dict(class_count=2, neurons=8, timesteps=3, rate_lo=0.1, rate_hi=0.9, seed=2)
    return (gen_poisson_patterns(n_per_class=6, split="train", **kw),
            gen_poisson_patterns(n_per_class=4, split="test", **kw))


def _toy_net(model="lif", seed=1):
    return init_network([8, 6, 2], model=model, timesteps=3, seed=seed)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
        assert cfg.learning_rate == 1e-3
        assert cfg.adam_beta1 == 0.9
        assert cfg.adam_beta2 == 0.999
        assert cfg.adam_eps == 1e-8

    @pytest.mark.parametrize("key", ["learning_rate", "adam_eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rates_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(epochs=1, batch_size=1, seed=0, **{key: value})

    def test_validation(self):
        good = dict(epochs=1, batch_size=1, seed=0)
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "epochs": 0})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "batch_size": 0})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "learning_rate": -1e-3})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "adam_beta1": 1.0})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "adam_eps": 0.0})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "model": "gru"})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "timesteps": 0})
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, "seed": -1})


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        """With m-hat = v-hat = 1 the first step is lr / (1 + eps)."""
        for lr in (1e-3, 0.05):
            p = np.array([0.0])
            opt = Adam([("p", p)], learning_rate=lr)
            opt.step([("p", np.array([1.0]))])
            npt.assert_allclose(-p[0], lr, rtol=1e-6)
            assert p[0] == -(lr * 1.0 / (np.sqrt(1.0) + 1e-8))

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(3, 4))
        p_ref = p.copy()
        opt = Adam([("w", p)], learning_rate=0.01, beta1=0.9, beta2=0.99, eps=1e-8)
        m = np.zeros_like(p_ref)
        v = np.zeros_like(p_ref)
        for t in range(1, 11):
            g = rng.normal(size=(3, 4))
            opt.step([("w", g)])
            m = 0.9 * m + 0.1 * g
            v = 0.99 * v + 0.01 * g * g
            p_ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.99 ** t)) + 1e-8)
            npt.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-15)

    def test_handles_zero_d_parameters(self):
        p = np.zeros(())
        opt = Adam([("raw", p)], learning_rate=0.1)
        opt.step([("raw", np.asarray(1.0))])
        assert p.shape == ()
        assert p < 0

    def test_missing_gradient_rejected(self):
        opt = Adam([("a", np.zeros(2)), ("b", np.zeros(2))], learning_rate=0.1)
        with pytest.raises(StateError, match="b"):
            opt.step([("a", np.ones(2))])


class TestTrainLoop:
    def test_zero_learning_rate_is_a_bitwise_fixpoint(self):
        train_ds, test_ds = _toy()
        net = _toy_net()
        before = [arr.copy() for _, arr in net.parameter_items()]
        cfg = TrainConfig(epochs=3, batch_size=4, seed=9, learning_rate=0.0)
        trained, metrics = train(net, train_ds, cfg, test_ds)
        for (name, arr), orig in zip(trained.parameter_items(), before):
            assert arr.tobytes() == orig.tobytes(), name
        assert metrics.epoch_count == 3

    def test_input_network_not_mutated(self):
        train_ds, _ = _toy()
        net = _toy_net()
        before = net.layers[0].w.copy()
        train(net, train_ds, TrainConfig(epochs=2, batch_size=4, seed=0))
        assert net.layers[0].w.tobytes() == before.tobytes()

    def test_same_config_twice_gives_identical_runs(self):
        train_ds, test_ds = _toy()
        cfg = TrainConfig(epochs=4, batch_size=4, seed=5)
        n1, m1 = train(_toy_net(), train_ds, cfg, test_ds)
        n2, m2 = train(_toy_net(), train_ds, cfg, test_ds)
        assert m1.train_loss == m2.train_loss
        assert m1.test_accuracy == m2.test_accuracy
        assert m1.shuffle_seeds == m2.shuffle_seeds
        assert m1.spike_counts == m2.spike_counts
        for (_, a), (_, b) in zip(n1.parameter_items(), n2.parameter_items()):
            assert a.tobytes() == b.tobytes()

    def test_epoch_orders_differ_but_are_recorded(self):
        train_ds, _ = _toy()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
        _, metrics = train(_toy_net(), train_ds, cfg)
        assert len(set(metrics.shuffle_seeds)) == 3

    @pytest.mark.parametrize("model", ["lif", "if", "plif", "aia", "cached-aia"])
    def test_every_model_trains_without_error(self, model):
        train_ds, test_ds = _toy()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3, model=model)
        trained, metrics = train(_toy_net(model), train_ds, cfg, test_ds)
        assert metrics.epoch_count == 2
        assert all(0.0 <= a <= 1.0 for a in metrics.train_accuracy + metrics.test_accuracy)

    def test_plif_leak_actually_moves(self):
        train_ds, _ = _toy()
        net = _toy_net("plif")
        cfg = TrainConfig(epochs=3, batch_size=4, seed=3, model="plif", learning_rate=1e-2)
        trained, _ = train(net, train_ds, cfg)
        assert float(trained.layers[0].plif_raw) != 0.0

    def test_final_test_row_reproducible_by_evaluate(self):
        train_ds, test_ds = _toy()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=7)
        trained, metrics = train(_toy_net(), train_ds, cfg, test_ds)
        result = evaluate(trained, test_ds)
        assert result.loss == metrics.test_loss[-1]
        assert result.accuracy == metrics.test_accuracy[-1]
        assert result.spike_counts == metrics.spike_counts

    def test_test_set_evaluated_once_per_epoch(self, monkeypatch):
        calls = []

        def counted(net, dataset):
            calls.append(dataset)
            return evaluate(net, dataset)

        monkeypatch.setattr(training, "evaluate", counted)
        train_ds, test_ds = _toy()
        train(_toy_net(), train_ds, TrainConfig(epochs=3, batch_size=4, seed=7), test_ds)
        assert len(calls) == 3
        assert all(ds is test_ds for ds in calls)

    def test_divergence_names_first_bad_parameter(self):
        train_ds, _ = _toy()
        net = _toy_net()
        net.layers[0].w[0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            train(net, train_ds, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert info.value.parameter == "layer0.w"
        assert "layer0.w" in str(info.value)

    def test_non_finite_plif_leak_is_divergence(self):
        train_ds, _ = _toy()
        net = _toy_net("plif")
        net.layers[1].plif_raw[...] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            train(net, train_ds, TrainConfig(epochs=1, batch_size=4, seed=0, model="plif"))
        assert info.value.parameter == "layer1.plif_raw"

    def test_nan_loss_with_finite_parameters(self, monkeypatch):
        train_ds, _ = _toy()

        def poisoned(readout, labels):
            return float("nan"), np.zeros_like(readout), np.zeros(len(labels), dtype=int)

        monkeypatch.setattr(training, "readout_and_loss", poisoned)
        with pytest.raises(TrainingDiverged) as info:
            train(_toy_net(), train_ds, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert info.value.parameter == "loss"

    def test_each_step_releases_its_tape(self):
        # Two equal batches: the first batch's tape, inputs and gradients must
        # be gone before the second forward, so the peak stays near one tape.
        kw = dict(class_count=2, neurons=4, timesteps=128, rate_lo=0.2, rate_hi=0.8, seed=5)
        data = gen_poisson_patterns(n_per_class=64, split="train", **kw)
        held_out = gen_poisson_patterns(n_per_class=2, split="test", **kw)
        net = init_network([4, 32, 32, 2], model="lif", timesteps=128, seed=6)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=0, timesteps=128)
        tape, _ = training.bptt.forward_record(net, data.data[:64])
        tape_bytes = _held_bytes(tape)
        del tape

        tracemalloc.start()
        try:
            train(net, data, cfg, test_dataset=held_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tape_bytes, (
            f"peak {peak / 1e6:.1f} MB, one tape {tape_bytes / 1e6:.1f} MB")

    def test_dense_batch_is_freed_after_layer_0s_gemm(self, monkeypatch):
        # 512 inputs, T=64, B=32: the uint8 batch (1.05 MB) outweighs the tape.
        # The forward frees it once the tape holds it as bits, before any
        # GEMM, so what is checked is the memory live when each of a step's
        # scans and its backward start: the tape, whose inputs are bits, and
        # the parameter state (the trained copy, Adam's two moments and the
        # gradients), but not the batch.
        width, timesteps, batch = 512, 64, 32
        kw = dict(class_count=2, neurons=width, timesteps=timesteps, rate_lo=0.2, rate_hi=0.8,
                  seed=5)
        data = gen_poisson_patterns(n_per_class=batch, split="train", **kw)
        net = init_network([width, 16, 2], model="lif", timesteps=timesteps, seed=6)
        tape, _ = training.bptt.forward_record(net, data.data[:batch])
        bits = timesteps * batch * -(-width // 8)  # the inputs, held as bits
        state = 4 * sum(p.nbytes for _, p in net.parameter_items())
        allowed = _held_bytes(tape) + bits + state + 64_000  # and a step's small objects
        del tape
        dense = timesteps * batch * width
        assert dense > 1.5 * allowed

        live = []

        def traced(name, fn):
            def call(*args, **kwargs):
                # The training forward's scans keep the window; evaluate's keep
                # nothing. Before 3.11 the forward's caller keeps its temporary
                # argument, the batch, until the forward returns, so there only
                # the backward is checked.
                if name == "backward" or (kwargs.get("keep") and sys.version_info >= (3, 11)):
                    live.append((name, tracemalloc.get_traced_memory()[0]))
                return fn(*args, **kwargs)
            return call

        for name in ("scan", "backward"):
            monkeypatch.setattr(training.bptt, name, traced(name, getattr(training.bptt, name)))
        tracemalloc.start()
        try:
            train(net, data, TrainConfig(epochs=1, batch_size=batch, seed=0))
        finally:
            tracemalloc.stop()
        # Two steps, each of two scans and a backward.
        assert [name for name, _ in live].count("backward") == 2
        assert len(live) == (6 if sys.version_info >= (3, 11) else 2)
        for name, held in live:
            assert held < allowed, (f"{held / 1e6:.3f} MB live at {name}, allowed "
                                    f"{allowed / 1e6:.3f} MB; the dense batch is {dense / 1e6:.3f} MB")

    def test_width_mismatch_rejected(self):
        train_ds, _ = _toy()
        bad = init_network([9, 6, 2], model="lif", timesteps=3, seed=1)
        with pytest.raises(DimensionError):
            train(bad, train_ds, TrainConfig(epochs=1, batch_size=4, seed=0))
        bad_t = init_network([8, 6, 2], model="lif", timesteps=4, seed=1)
        with pytest.raises(DimensionError):
            train(bad_t, train_ds, TrainConfig(epochs=1, batch_size=4, seed=0))


class TestEvaluate:
    def test_zero_input_gives_zero_spikes_and_chance_loss(self):
        ds = gen_poisson_patterns(2, 8, 3, 0.1, 0.9, n_per_class=3, seed=1)
        ds.data[:] = 0.0
        result = evaluate(_toy_net(), ds)
        assert result.spike_counts == [0, 0]
        npt.assert_allclose(result.loss, np.log(2.0), rtol=1e-12)

    def test_counts_respect_binarity_bound(self):
        train_ds, _ = _toy()
        net = _toy_net()
        result = evaluate(net, train_ds)
        for count, width in zip(result.spike_counts, [6, 2]):
            assert 0 <= count <= len(train_ds) * width * train_ds.timesteps

    @pytest.mark.parametrize("model", ["lif", "if", "plif", "aia", "cached-aia"])
    @settings(max_examples=12, deadline=None)
    @given(timesteps=st.integers(1, 12), whole_chunks=st.integers(0, 3),
           remainder=st.floats(0.0, 1.0, exclude_max=True), hidden=st.integers(3, 6),
           classes=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_chunks_equal_one_whole_set_forward(self, model, timesteps, whole_chunks, remainder,
                                                hidden, classes, seed):
        # From below one chunk to three chunks and a remainder, with an output
        # layer narrow enough (N <= 4) that GEMM row grouping has been seen to
        # change results.
        chunk = -(-numerics.GEMM_ROWS // timesteps)
        n = max(whole_chunks * chunk + int(remainder * chunk), 1)
        rng = np.random.default_rng(seed)
        spikes = rng.random((n, 6, timesteps)) < 0.4
        spikes[0, :, 0] = True  # so each layer's neuron 0, wired to 1s, fires at step 0
        ds = Dataset(spikes.astype(np.float64), rng.integers(0, classes, size=n),
                     class_count=classes)
        net = init_network([6, hidden, classes], model=model, timesteps=timesteps, seed=seed,
                           v_th=0.5)
        for layer in net.layers:
            layer.w[0] = 1.0
            if layer.beta is not None:
                layer.beta[:] = rng.uniform(0.5, 1.5, size=layer.beta.shape)
            if layer.plif_raw is not None:
                layer.plif_raw[...] = 0.4
        tape, readout = training.bptt.forward_record(net, ds.data)
        loss, _, _ = training.readout_and_loss(readout, ds.labels)

        result = evaluate(net, ds)
        assert result.readout.shape == (n, classes)
        npt.assert_array_equal(result.readout, readout)
        assert result.spike_counts == [int(o.sum()) for o in tape.o]
        assert all(count > 0 for count in result.spike_counts)
        assert result.loss == loss

    def test_keeps_no_tape_and_forms_no_surrogate_window(self, monkeypatch):
        # Beside keeping no tape, each chunk runs one GEMM and one scan per layer.
        calls = {"forward_record": 0, "surrogate_window": 0, "scan": 0, "matmul": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(training.bptt, "forward_record")
        counting(neurons, "surrogate_window")
        counting(training.bptt, "scan")
        counting(numerics, "matmul")
        train_ds, _ = _toy()
        chunk = -(-numerics.GEMM_ROWS // train_ds.timesteps)
        three_chunks = gen_poisson_patterns(n_per_class=chunk + 1, split="test", class_count=2,
                                            neurons=8, timesteps=3, rate_lo=0.1, rate_hi=0.9,
                                            seed=2)
        per_layer_and_chunk = 0
        for model in ("lif", "plif", "cached-aia"):
            net = _toy_net(model)
            for ds in (train_ds, three_chunks):
                evaluate(net, ds)
                per_layer_and_chunk += len(net.layers) * -(-len(ds) // chunk)
        assert per_layer_and_chunk == 3 * 2 * (1 + 3)
        assert calls == {"forward_record": 0, "surrogate_window": 0,
                         "scan": per_layer_and_chunk, "matmul": per_layer_and_chunk}

    def test_peak_is_one_chunks_gemm_operands(self):
        # The layer-0 GEMM holds the chunk's time-major input and its drive,
        # both in the hard GEMMs' dtype; the input width is the larger, so
        # that GEMM sets the peak. Another copy of the chunk, in any dtype,
        # breaks the bound.
        timesteps, width, hidden = 16, 96, 16
        chunk = -(-numerics.GEMM_ROWS // timesteps)
        kw = dict(class_count=2, neurons=width, timesteps=timesteps, rate_lo=0.2, rate_hi=0.8,
                  seed=4)
        ds = gen_poisson_patterns(n_per_class=3 * chunk // 2, split="test", **kw)
        net = init_network([width, hidden, 2], model="lif", timesteps=timesteps, seed=5)
        operands = chunk * timesteps * (width + hidden) * np.dtype(numerics.HARD_DTYPE).itemsize

        tracemalloc.start()
        try:
            evaluate(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = operands + chunk * timesteps * width // 2
        assert peak < bound, f"peak {peak / 1e6:.3f} MB, bound {bound / 1e6:.3f} MB"

    @pytest.mark.parametrize("model", MODELS)
    def test_scan_holds_rows_of_potential_not_a_window(self, model):
        # Two chunks of 16 samples, R = 1024 rows. The widest layer's GEMM
        # (64 -> 64) holds its float32 operand and product, R x (in + out) x 4
        # bytes, beside the bool spikes it was cast from, R x in. The scans
        # hold rows of float64, batch x neurons x 8 bytes each: the potential,
        # its carry factor and a gain model's drive. The float32 weights are
        # cast once for every chunk. A whole-window float64 potential is
        # R x 64 x 8 bytes, and a whole-window gain drive as much again.
        timesteps, widths = 64, [16, 64, 64, 2]
        chunk = -(-numerics.GEMM_ROWS // timesteps)
        kw = dict(class_count=2, neurons=widths[0], timesteps=timesteps, rate_lo=0.2,
                  rate_hi=0.8, seed=9)
        ds = gen_poisson_patterns(n_per_class=chunk, split="test", **kw)
        net = init_network(widths, model=model, timesteps=timesteps, seed=10)
        tracemalloc.start()
        try:
            result = evaluate(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 2 * chunk and all(count > 0 for count in result.spike_counts[:-1])
        rows, itemsize = chunk * timesteps, np.dtype(numerics.HARD_DTYPE).itemsize
        gemm = max(rows * ((a + b) * itemsize + a) for a, b in zip(widths, widths[1:]))
        weights = sum(layer.w.size * itemsize for layer in net.layers)
        potential = 3 * chunk * max(widths) * 8
        bound = gemm + weights + potential
        assert peak < bound, f"peak {peak} B, bound {bound} B"

    def test_memory_bounded_by_one_chunk(self):
        # Five chunks: a whole-set tape would be five times one chunk's.
        timesteps = 64
        chunk = -(-numerics.GEMM_ROWS // timesteps)
        kw = dict(class_count=2, neurons=16, timesteps=timesteps, rate_lo=0.2, rate_hi=0.8,
                  seed=9)
        ds = gen_poisson_patterns(n_per_class=5 * chunk // 2, split="test", **kw)
        net = init_network([16, 64, 64, 2], model="lif", timesteps=timesteps, seed=10)
        tape, _ = training.bptt.forward_record(net, ds.data[:chunk])
        tape_bytes = _held_bytes(tape)
        del tape

        tracemalloc.start()
        try:
            evaluate(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * tape_bytes, (
            f"peak {peak / 1e6:.1f} MB, one chunk's tape {tape_bytes / 1e6:.1f} MB")


class TestWeightShift:
    def test_identical_networks_give_zero_deltas(self):
        net = _toy_net()
        edges = covering_bin_edges(net, net)
        npt.assert_array_equal(weight_shift_report(net, net, edges), 0.0)

    def test_hand_computed_two_bin_case(self):
        a = _toy_net()
        b = a.copy()
        for layer in a.layers:
            layer.w[:] = 0.5
        for layer in b.layers:
            layer.w[:] = -0.5
        deltas = weight_shift_report(a, b, np.array([-1.0, 0.0, 1.0]))
        npt.assert_array_equal(deltas, [1.0, -1.0])

    def test_deltas_conserve_mass_over_covering_range(self):
        rng = np.random.default_rng(23)
        a = _toy_net(seed=4)
        b = _toy_net(seed=5)
        for layer in b.layers:
            layer.w += rng.normal(0, 0.2, size=layer.w.shape)
        edges = covering_bin_edges(a, b)
        deltas = weight_shift_report(a, b, edges)
        assert abs(deltas.sum()) <= 1e-12
        assert np.any(deltas != 0.0)

    def test_covering_edges_actually_cover(self):
        a, b = _toy_net(seed=6), _toy_net(seed=7)
        edges = covering_bin_edges(a, b)
        pooled = np.concatenate([l.w.ravel() for l in a.layers + b.layers])
        assert edges[0] < pooled.min() and pooled.max() < edges[-1]

    def test_shape_mismatch_rejected(self):
        a = _toy_net()
        b = init_network([8, 5, 2], model="lif", timesteps=3, seed=0)
        with pytest.raises(DimensionError):
            weight_shift_report(a, b, np.array([-1.0, 0.0, 1.0]))


class TestReports:
    def _metrics(self):
        train_ds, test_ds = _toy()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
        return train(_toy_net(), train_ds, cfg, test_ds)[1]

    def test_metrics_csv_layout_and_precision(self, tmp_path):
        metrics = self._metrics()
        path = tmp_path / "metrics.csv"
        write_metrics_csv(metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy"
        assert len(lines) == 1 + 2 * 2  # train and test row per epoch
        epoch, split, loss, acc = lines[1].split(",")
        assert (epoch, split) == ("1", "train")
        # printed with enough digits to reparse to the identical float
        assert float(loss) == metrics.train_loss[0]
        assert float(acc) == metrics.train_accuracy[0]
        assert "wall" not in path.read_text()

    def test_metrics_csv_is_byte_stable(self, tmp_path):
        metrics = self._metrics()
        write_metrics_csv(metrics, tmp_path / "a.csv")
        write_metrics_csv(metrics, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_metrics_json_carries_timing_and_seeds(self, tmp_path):
        import json
        metrics = self._metrics()
        path = tmp_path / "metrics.json"
        write_metrics_json(metrics, path)
        doc = json.loads(path.read_text())
        assert len(doc["epochs"]) == 2
        assert {"epoch", "shuffle_seed", "train_loss", "train_accuracy", "wall_clock_s",
                "test_loss", "test_accuracy"} <= set(doc["epochs"][0])
        assert doc["spike_counts"] == metrics.spike_counts

    def test_weight_shift_csv(self, tmp_path):
        path = tmp_path / "shift.csv"
        write_weight_shift_csv(np.array([-1.0, 0.0, 1.0]), np.array([0.25, -0.25]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,delta"
        assert lines[1] == "-1,0,0.25"
        assert len(lines) == 3

    def test_spike_counts_csv(self, tmp_path):
        path = tmp_path / "spikes.csv"
        write_spike_counts_csv({"checkpoint_a": [10, 3], "checkpoint_b": [8, 4]}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "layer,checkpoint_a,checkpoint_b"
        assert lines[1] == "0,10,8"
        assert lines[2] == "1,3,4"
