"""Adam training loop, evaluation, and post-hoc weight/spike diagnostics.

The loop is deterministic end to end: batch order each epoch comes from a
seed derived as ``SeedSequence(seed, spawn_key=(3, epoch))``, recorded in
the metrics so any epoch's ordering can be replayed. Wall-clock time is
kept in the JSON metrics only; the CSV holds nothing machine-dependent, so
two runs with the same config produce byte-identical CSV files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import bptt, numerics
from .data import Dataset
from .errors import ConfigError, DimensionError, NumericError, StateError, TrainingDiverged
from .network import Network, readout_and_loss
from .neurons import MODELS, NeuronParams


@dataclass
class TrainConfig:
    """Adam and batching settings for :func:`train`.

    ``model`` and ``timesteps`` are checked but not read: the network
    carries both. They stay only because ``perfbench/workloads.py`` passes
    them.
    """

    epochs: int
    batch_size: int
    seed: int
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    model: str = NeuronParams.model
    timesteps: int = 10

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # 0 is allowed so the no-op fixpoint stays expressible in tests.
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if not 0 < self.adam_eps < np.inf:
            raise ConfigError("adam_eps must be finite and > 0")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.timesteps < 1:
            raise ConfigError("timesteps must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


@dataclass
class RunMetrics:
    train_loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    test_loss: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    wall_clock_s: list = field(default_factory=list)
    shuffle_seeds: list = field(default_factory=list)
    spike_counts: list = field(default_factory=list)

    @property
    def epoch_count(self) -> int:
        return len(self.train_loss)


class Adam:
    """Adam with standard bias correction, updating arrays in place.

    With a constant unit gradient the very first step moves a parameter by
    learning_rate / (1 + eps), i.e. almost exactly one learning rate.
    """

    def __init__(self, named_params, learning_rate, beta1=TrainConfig.adam_beta1,
                 beta2=TrainConfig.adam_beta2, eps=TrainConfig.adam_eps):
        self.params = [(name, p) for name, p in named_params]
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {name: np.zeros_like(p) for name, p in self.params}
        self.v = {name: np.zeros_like(p) for name, p in self.params}
        self.t = 0

    def step(self, grads) -> None:
        by_name = dict(grads.items())
        self.t += 1
        for name, p in self.params:
            if name not in by_name:
                raise StateError(f"no gradient supplied for parameter {name!r}")
            g = np.asarray(by_name[name], dtype=np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _divergence(net: Network) -> TrainingDiverged | None:
    """The divergence naming the first parameter that is non-finite, or a weight
    that no longer fits a hard-mode GEMM; None while every parameter is sound."""
    for name, p in net.parameter_items():
        if not np.all(np.isfinite(p)):
            return TrainingDiverged(name)
        if name.endswith(".w"):
            try:
                numerics.require_hard_range(p, name)
            except NumericError as exc:
                return TrainingDiverged(name, f"training diverged: {exc}")
    return None


def _check_dataset(net: Network, dataset: Dataset, what: str) -> None:
    if dataset.neurons != net.input_width:
        raise DimensionError(
            f"{what} has {dataset.neurons} input neurons, network expects {net.input_width}"
        )
    if dataset.timesteps != net.timesteps:
        raise DimensionError(
            f"{what} window is {dataset.timesteps} timesteps, network runs {net.timesteps}"
        )
    if dataset.class_count != net.class_count:
        raise DimensionError(
            f"{what} has {dataset.class_count} classes, network outputs {net.class_count}"
        )


@dataclass
class EvalResult:
    loss: float
    accuracy: float
    spike_counts: list
    readout: np.ndarray  # (samples, classes) output firing rates


def evaluate(net: Network, dataset: Dataset) -> EvalResult:
    """Loss, accuracy, per-layer spike totals and readout of the whole set.

    Evaluation keeps no tape: :func:`spikekit.bptt.forward_rates` runs the
    hard forward on the block grid's chunks of at most ``ceil(GEMM_ROWS /
    timesteps)`` samples, and a chunk holds about rows x (4 x (in + out) +
    in) bytes at its largest GEMM (the float32 operand and product, and the
    ``bool`` spikes the operand was cast from), whatever the set's size. Its
    scans hold the float32 drive, the spikes and a few ``(chunk, neurons)``
    rows of float64 potential.
    """
    _check_dataset(net, dataset, "dataset")
    readout, counts = bptt.forward_rates(net, dataset.data)
    loss, _, predictions = readout_and_loss(readout, dataset.labels)
    accuracy = float(np.mean(predictions == dataset.labels))
    return EvalResult(loss=float(loss), accuracy=accuracy, spike_counts=counts,
                      readout=readout)


def _epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(3, epoch)).generate_state(1)[0])


def _train_step(net: Network, opt: Adam, data: np.ndarray, index: np.ndarray,
                labels: np.ndarray):
    """Forward, backward and one Adam update on samples ``index`` of ``data``,
    whose labels are ``labels``; returns ``(loss, predictions)``.

    The dense batch is built time-major as a temporary argument of
    :func:`spikekit.bptt.forward_record`, so no frame here holds it, and it
    is freed once the tape holds the inputs as bits, before any GEMM (from
    CPython 3.11, which gives a temporary argument to the callee alone). The
    tape and the gradients live only in this frame, so they are freed before
    the next batch's forward and before any evaluation.
    """
    try:
        tape, readout = bptt.forward_record(net, bptt.time_major_batch(data, index))
        loss, upstream, predictions = readout_and_loss(readout, labels)
    except (NumericError, ConfigError):
        # Blown-up parameters surface mid-forward as weights past the GEMMs'
        # range, non-finite drive or a non-finite plif leak parameter.
        raise _divergence(net) or TrainingDiverged("loss") from None
    if not np.isfinite(loss):
        raise _divergence(net) or TrainingDiverged("loss")
    opt.step(bptt.backward(tape, upstream, net))
    return loss, predictions


def train(net: Network, dataset: Dataset, cfg: TrainConfig, test_dataset: Dataset | None = None):
    """Run Adam over the dataset; returns ``(trained copy, RunMetrics)``.

    The input network is left untouched. Train loss/accuracy are the
    running values observed on each batch before its update; test metrics
    come from :func:`evaluate` on the epoch-end parameters, so a later
    ``evaluate`` of the saved network reproduces the final row exactly,
    spike counts included (of the train set when there is no test set).
    """
    _check_dataset(net, dataset, "train dataset")
    if test_dataset is not None:
        _check_dataset(net, test_dataset, "test dataset")

    net = net.copy()
    opt = Adam(
        net.parameter_items(),
        learning_rate=cfg.learning_rate,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
        eps=cfg.adam_eps,
    )
    metrics = RunMetrics()
    n = len(dataset)

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        shuffle_seed = _epoch_shuffle_seed(cfg.seed, epoch)
        order = np.random.default_rng(shuffle_seed).permutation(n)

        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            labels = dataset.labels[idx]
            loss, predictions = _train_step(net, opt, dataset.data, idx, labels)
            loss_sum += float(loss) * len(idx)
            correct += int(np.sum(predictions == labels))

        diverged = _divergence(net)
        if diverged is not None:
            raise diverged

        metrics.shuffle_seeds.append(shuffle_seed)
        metrics.train_loss.append(loss_sum / n)
        metrics.train_accuracy.append(correct / n)
        if test_dataset is not None:
            result = evaluate(net, test_dataset)
            metrics.test_loss.append(result.loss)
            metrics.test_accuracy.append(result.accuracy)
        metrics.wall_clock_s.append(time.perf_counter() - started)

    if test_dataset is None:
        result = evaluate(net, dataset)
    metrics.spike_counts = result.spike_counts
    return net, metrics


def weight_shift_report(net_a: Network, net_b: Network, bin_edges) -> np.ndarray:
    """Normalized per-bin change in the pooled weight distribution.

    Pools every connection weight of each network, histograms both over
    ``bin_edges``, and returns (count_b - count_a) / total_weights per bin.
    When the edges cover both weight ranges the deltas sum to zero.
    """
    shapes_a = [layer.w.shape for layer in net_a.layers]
    shapes_b = [layer.w.shape for layer in net_b.layers]
    if shapes_a != shapes_b:
        raise DimensionError(f"layer shapes differ: {shapes_a} vs {shapes_b}")
    pooled_a = np.concatenate([layer.w.ravel() for layer in net_a.layers])
    pooled_b = np.concatenate([layer.w.ravel() for layer in net_b.layers])
    counts_a = numerics.histogram(pooled_a, bin_edges)
    counts_b = numerics.histogram(pooled_b, bin_edges)
    return (counts_b - counts_a) / float(pooled_a.size)


def covering_bin_edges(net_a: Network, net_b: Network) -> np.ndarray:
    """Edges of 40 symmetric equal-width bins guaranteed to cover both weight ranges."""
    widest = max(
        float(np.max(np.abs(layer.w))) for net in (net_a, net_b) for layer in net.layers
    )
    limit = widest * 1.001 + 1e-12
    return np.linspace(-limit, limit, 40 + 1)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def write_metrics_csv(metrics: RunMetrics, path) -> None:
    """Flat per-epoch CSV: epoch, split, loss, accuracy. Nothing wall-clock."""
    lines = ["epoch,split,loss,accuracy"]
    for e in range(metrics.epoch_count):
        lines.append(f"{e + 1},train,{_fmt(metrics.train_loss[e])},{_fmt(metrics.train_accuracy[e])}")
        if e < len(metrics.test_loss):
            lines.append(f"{e + 1},test,{_fmt(metrics.test_loss[e])},{_fmt(metrics.test_accuracy[e])}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_json(metrics: RunMetrics, path) -> None:
    epochs = []
    for e in range(metrics.epoch_count):
        row = {
            "epoch": e + 1,
            "shuffle_seed": metrics.shuffle_seeds[e],
            "train_loss": metrics.train_loss[e],
            "train_accuracy": metrics.train_accuracy[e],
            "wall_clock_s": metrics.wall_clock_s[e],
        }
        if e < len(metrics.test_loss):
            row["test_loss"] = metrics.test_loss[e]
            row["test_accuracy"] = metrics.test_accuracy[e]
        epochs.append(row)
    payload = {"epochs": epochs, "spike_counts": metrics.spike_counts}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_weight_shift_csv(bin_edges, deltas, path) -> None:
    bin_edges = np.asarray(bin_edges, dtype=np.float64)
    lines = ["bin_lo,bin_hi,delta"]
    for i, delta in enumerate(np.asarray(deltas, dtype=np.float64)):
        lines.append(f"{_fmt(bin_edges[i])},{_fmt(bin_edges[i + 1])},{_fmt(delta)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_spike_counts_csv(rows, path) -> None:
    """``rows`` maps a column name to its per-layer counts, e.g. {"lif": [...]}."""
    names = list(rows)
    depth = len(next(iter(rows.values())))
    lines = ["layer," + ",".join(names)]
    for layer_idx in range(depth):
        cells = ",".join(str(int(rows[name][layer_idx])) for name in names)
        lines.append(f"{layer_idx},{cells}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
