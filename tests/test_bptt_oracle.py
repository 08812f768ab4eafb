"""Hard-mode ``backward()`` against a deliberately naive reference BPTT.

The reference shares no code with the engine beyond the network's arrays.
It runs its own forward pass and then walks the gradient back with explicit
loops over sample, timestep, neuron and synapse, one scalar at a time, in
the spirit of ``aia_update_gated_sum`` in ``tests/aia_update_forms.py``.
It follows the hard-mode rules in the :mod:`spikekit.bptt` docstring:

* readout = mean over time of the output layer's spikes;
* dL/du[t] = dL/do[t] * surrogate(u[t]) + dL/du[t+1] * leak * (1 - o[t]),
  with the reset gate ``1 - o`` held constant;
* the spatial gradient into the layer below carries ``beta`` for
  ``cached-aia`` layers and is plain dL/du otherwise;
* the weight-update site is dL/du, times the drive x for ``aia``, times
  ``beta`` for ``cached-aia``; ``beta`` accumulates dL/du * x; a ``plif``
  leak accumulates dL/du[t] * u[t-1] * (1 - o[t-1]).

Summation orders differ from the engine's GEMMs, so with float64 GEMMs
(the ``float64_gemms`` fixture) the comparison uses a tolerance of 1e-12
relative to the largest reference entry. The engine's default float32 GEMMs
are checked against the same float64 reference with :data:`RTOL_FLOAT32`.
"""

import math

import numpy as np
import pytest

from spikekit import bptt, numerics
from spikekit.network import Network, init_network, readout_and_loss

RTOL = 1e-12


def _float32_rtol(net) -> float:
    """The bound on float32 GEMMs: 2 * float32 eps * the net's largest fan-in.

    A float32 GEMM rounds each operand once and sums K terms, so a product
    is within (K + 1) * eps / 2 of the float64 one, relative to the sum of
    its terms' sizes (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 3.1). Each weight gradient entry passes through such
    products whose K is a layer width: the forward drive (the ``aia`` site,
    ``d_beta`` and ``plif``'s potential read it) and the spatial GEMM that
    sends dL/du down. Its own ``d_w`` sum over time steps and samples rounds
    each term's site once and accumulates in independent lanes, which in
    these cases stayed within a few eps. Doubling covers the two chained
    kinds of product. The worst error seen over these cases was 3.3 eps
    (3.9e-7) at fan-in 5, against a bound of 10 eps.
    """
    widest = max(max(layer.w.shape) for layer in net.layers)
    return 2.0 * float(np.finfo(np.float32).eps) * widest


def _leak(layer) -> float:
    if layer.neuron.model == "if":
        return 1.0
    if layer.neuron.model == "plif":
        return 1.0 / (1.0 + math.exp(-float(layer.plif_raw)))
    return layer.neuron.leak


def _naive_forward(net, inputs):
    """Per-sample, per-timestep, per-neuron forward; returns x, u, o as [n][b][t][i]."""
    batch, _, timesteps = inputs.shape
    x = [[[[0.0] * layer.out_width for _ in range(timesteps)] for _ in range(batch)]
         for layer in net.layers]
    u = [[[[0.0] * layer.out_width for _ in range(timesteps)] for _ in range(batch)]
         for layer in net.layers]
    o = [[[[0.0] * layer.out_width for _ in range(timesteps)] for _ in range(batch)]
         for layer in net.layers]
    for b in range(batch):
        for t in range(timesteps):
            pre = [float(v) for v in inputs[b, :, t]]
            for n, layer in enumerate(net.layers):
                leak = _leak(layer)
                for i in range(layer.out_width):
                    drive = 0.0
                    for j in range(layer.in_width):
                        drive += layer.w[i, j] * pre[j]
                    x[n][b][t][i] = drive
                    if layer.beta is not None:
                        drive = layer.beta[i] * drive
                    u_prev = u[n][b][t - 1][i] if t > 0 else 0.0
                    o_prev = o[n][b][t - 1][i] if t > 0 else 0.0
                    u[n][b][t][i] = leak * u_prev * (1.0 - o_prev) + drive
                    o[n][b][t][i] = 1.0 if u[n][b][t][i] >= layer.neuron.v_th else 0.0
                pre = o[n][b][t]
    return x, u, o


def _naive_backward(net, inputs, upstream):
    """Reference gradients by scalar loops; returns {parameter name: array}."""
    batch, _, timesteps = inputs.shape
    x, u, o = _naive_forward(net, inputs)
    layers = net.layers
    d_w = [np.zeros(layer.w.shape) for layer in layers]
    d_beta = [np.zeros(layer.out_width) for layer in layers]
    d_leak = [0.0 for _ in layers]

    for b in range(batch):
        # dL/du of every layer at the timestep after the current one.
        du_next = [[0.0] * layer.out_width for layer in layers]
        for t in reversed(range(timesteps)):
            do_from_above = None
            for n in reversed(range(len(layers))):
                layer = layers[n]
                p = layer.neuron
                leak = _leak(layer)
                du = [0.0] * layer.out_width
                for i in range(layer.out_width):
                    if n == len(layers) - 1:
                        do = upstream[b, i] / timesteps
                    else:
                        do = do_from_above[i]
                    inside = abs(u[n][b][t][i] - p.v_th) <= p.surrogate_width / 2.0
                    du[i] = do * (1.0 / p.surrogate_width if inside else 0.0)
                    if t + 1 < timesteps:
                        du[i] += du_next[n][i] * leak * (1.0 - o[n][b][t][i])
                for i in range(layer.out_width):
                    site = du[i]
                    if p.model == "aia":
                        site = du[i] * x[n][b][t][i]
                    elif p.model == "cached-aia":
                        site = du[i] * layer.beta[i]
                    for j in range(layer.in_width):
                        pre = inputs[b, j, t] if n == 0 else o[n - 1][b][t][j]
                        d_w[n][i, j] += site * pre
                    if p.model == "cached-aia":
                        d_beta[n][i] += du[i] * x[n][b][t][i]
                    if p.model == "plif" and t > 0:
                        d_leak[n] += du[i] * u[n][b][t - 1][i] * (1.0 - o[n][b][t - 1][i])
                if n > 0:
                    do_from_above = [0.0] * layer.in_width
                    for j in range(layer.in_width):
                        for i in range(layer.out_width):
                            through = du[i]
                            if p.model == "cached-aia":
                                through = du[i] * layer.beta[i]
                            do_from_above[j] += through * layer.w[i, j]
                du_next[n] = du

    grads = {}
    for n, layer in enumerate(layers):
        grads[f"layer{n}.w"] = d_w[n]
        if layer.beta is not None:
            grads[f"layer{n}.beta"] = d_beta[n]
        if layer.plif_raw is not None:
            s = 1.0 / (1.0 + math.exp(-float(layer.plif_raw)))
            grads[f"layer{n}.plif_raw"] = np.asarray(d_leak[n] * s * (1.0 - s))
    return grads, o


def _network(widths, model, timesteps, seed):
    """A network of one tag, or of one tag per layer: layer ``n`` is layer ``n`` of
    ``init_network`` for its tag, whose weights do not depend on the tag."""
    tags = [model] * (len(widths) - 1) if isinstance(model, str) else model
    rng = np.random.default_rng(seed)
    net = Network(timesteps, [init_network(widths, tag, timesteps=timesteps, seed=seed, v_th=0.6,
                                           leak=0.8, surrogate_width=0.9).layers[n]
                              for n, tag in enumerate(tags)])
    for layer in net.layers:
        if layer.beta is not None:
            layer.beta[:] = rng.uniform(0.6, 1.4, size=layer.beta.shape)
        if layer.plif_raw is not None:
            layer.plif_raw[...] = rng.uniform(-1.0, 1.5)
    return net


def _check_against_oracle(net, batch, seed, rtol=RTOL):
    rng = np.random.default_rng(seed + 1000)
    inputs = (rng.random((batch, net.input_width, net.timesteps)) < 0.5).astype(np.float64)
    labels = rng.integers(0, net.class_count, size=batch)
    tape, _ = bptt.forward_record(net, inputs)
    _, upstream, _ = readout_and_loss(tape.readout, labels)
    engine = dict(bptt.backward(tape, upstream, net).items())
    reference, ref_spikes = _naive_backward(net, inputs, upstream)

    # Both passes must see the same spikes, or the gradients answer different questions.
    for n in range(len(net.layers)):
        spikes = np.asarray(ref_spikes[n]).transpose(1, 0, 2)  # (T, B, N)
        assert np.array_equal(np.asarray(tape.o[n]), spikes), f"layer {n} spikes differ"

    assert list(engine) == list(reference)
    for name, want in reference.items():
        got = np.asarray(engine[name], dtype=np.float64)
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = float(np.max(np.abs(got - want))) / scale
        assert err <= rtol, f"{name}: relative error {err:.3e} against the naive reference"
    silent = [name for name, want in reference.items() if not np.any(want != 0.0)]
    assert not silent, f"zero reference gradient for {silent}; the check would be vacuous"


# (widths, model or per-layer tags, timesteps, seed, batch), with the test ids of
# the float64 tests.
SINGLE = [pytest.param([6, 5, 4], model, 5, 3, 3, id=model)
          for model in ["lif", "if", "plif", "aia", "cached-aia"]]
MIXED = [pytest.param([5, 6, 4, 3], list(tags), 4, 11, 3, id=f"tags{i}") for i, tags in enumerate([
    ("plif", "cached-aia", "aia"),
    ("aia", "lif", "if"),
    ("cached-aia", "plif", "lif"),
])]
# B * T spans more than one backward block, with a shorter last block.
BLOCKED = [pytest.param([5, 4, 3], model, 20, 11, 64, id=model)
           for model in ["aia", "plif", "cached-aia"]]
# Layer widths of 1 and 7 to 10 neurons put the tape's packed rows at and
# around a byte's edge, over two backward blocks of 11 and 1 steps.
PACKED = [pytest.param(*case, id=f"widths{i}") for i, case in enumerate([
    ([6, 9, 1, 7], "lif", 12, 5, 96),
    ([7, 10, 8, 9], "aia", 12, 5, 96),
    ([5, 10, 1, 8], ["cached-aia", "plif", "if"], 12, 3, 96),
])]
CASE = "widths, model, timesteps, seed, batch"


def _check_case(widths, model, timesteps, seed, batch, rtol=None):
    net = _network(widths, model, timesteps=timesteps, seed=seed)
    _check_against_oracle(net, batch=batch, seed=seed, rtol=rtol or RTOL)


@pytest.mark.usefixtures("float64_gemms")
@pytest.mark.parametrize(CASE, SINGLE)
def test_backward_matches_naive_reference(widths, model, timesteps, seed, batch):
    _check_case(widths, model, timesteps, seed, batch)


@pytest.mark.usefixtures("float64_gemms")
@pytest.mark.parametrize(CASE, MIXED)
def test_mixed_per_layer_tags_match_naive_reference(widths, model, timesteps, seed, batch):
    _check_case(widths, model, timesteps, seed, batch)


@pytest.mark.usefixtures("float64_gemms")
@pytest.mark.parametrize(CASE, BLOCKED + PACKED)
def test_several_backward_blocks_match_naive_reference(widths, model, timesteps, seed, batch):
    grid = numerics.blocks(timesteps, batch)  # several blocks, the first one short
    assert len(grid) > 1 and grid[0].stop < grid[1].stop - grid[1].start
    _check_case(widths, model, timesteps, seed, batch)


@pytest.mark.parametrize(CASE, [pytest.param(*case.values, id=f"{kind}-{case.id}")
                                for kind, cases in (("single", SINGLE), ("mixed", MIXED),
                                                    ("blocked", BLOCKED + PACKED))
                                for case in cases])
def test_float32_backward_matches_naive_reference(widths, model, timesteps, seed, batch):
    # The same cases, with the engine's default float32 GEMMs.
    assert numerics.HARD_DTYPE == np.float32
    net = _network(widths, model, timesteps=timesteps, seed=seed)
    _check_case(widths, model, timesteps, seed, batch, rtol=_float32_rtol(net))
