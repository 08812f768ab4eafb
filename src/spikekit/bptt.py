"""Backpropagation through time for spiking layers.

The forward pass unrolls the network over the simulation window and records
a tape of three ``(timesteps, batch, neurons)`` arrays per layer: the
weighted input ``x``, what the backward reads of the post-update membrane
potential ``u``, and the emitted spikes ``o`` (``bool`` in hard mode). Hard
mode's GEMMs read and write :data:`spikekit.numerics.HARD_DTYPE` (float32),
so its ``x`` is float32; each layer's weights are cast to it once per pass,
and the potential, dL/du and every gradient stay float64. The hard backward
reads ``u`` only through the surrogate window ``|u - v_th| <= a/2``, so a
hard-mode layer keeps that ``bool`` mask instead of ``u``, unless its model
row is marked ``trained_leak`` (``plif``, whose leak gradient reads ``u``):
6 bytes per neuron and step rather than 13. Input and hidden spikes stay one
byte each until a GEMM reads them, and :func:`spikekit.numerics.matmul`
casts a tall spike operand to the GEMM's dtype ``GEMM_ROWS`` rows at a
time. The backward pass walks the tape in reverse, propagating the loss gradient through space (layer to layer, within one
timestep) and through time (the leaky membrane recurrence of each layer),
and accumulates gradients for every trainable array.

The engine is layer-major. There are no recurrent weights, so a layer's
drive for every timestep comes from one GEMM over the spikes of the layer
below, and one :func:`spikekit.neurons.scan` call then runs the elementwise
membrane recurrence over the window, giving the layer's ``o`` and ``u`` or,
for a layer that keeps only the window mask, that mask: such a scan holds
``u`` for one block of ``ceil(GEMM_ROWS / batch)`` steps at a time. So,
beyond the tape it keeps, the forward's working memory scales with
``GEMM_ROWS``, not with timesteps x batch. :func:`forward_rates`, which
keeps no tape, asks the scan for the spikes alone, so each of its scans
holds one ``(batch, neurons)`` row of potential. The
backward pass walks time in blocks of ``ceil(GEMM_ROWS / batch)`` steps,
latest block first. Within a block it takes each layer from the top down:
an elementwise reverse scan of dL/du, then one GEMM for the weight gradient
and one for the gradient sent to the layer below. The scan carries dL/du
from one block to the next, so the blocking changes only how the sums are
grouped, and the block size bounds the backward's working memory.

The layer's row of :data:`spikekit.neurons.MODEL_TABLE` is all that tells
the models apart here: its leak and drive shape the forward, and its site
factor scales dL/du where the weight gradient forms. ``aia``'s site is the
recorded drive ``x``, so only co-active synapses move and stronger drive
means a stronger update; ``cached-aia``'s site is its per-neuron gain
``beta``, and ``beta`` itself accumulates the drive-weighted gradient it
stands in for. ``plif`` adds the gradient of its trainable leak. Two modes
share this machinery:

* **hard mode** (training): spikes are exact 0/1 threshold crossings. The
  non-differentiable threshold is handled with a rectangular surrogate
  derivative, and no gradient flows through the reset gate (the ``1 - o``
  factor is treated as a constant), the usual stabilization for hard-reset
  training. A row marked ``hard_spatial_bare`` (``aia``) sends dL/du to the
  layer below without its site factor.

* **smoothed mode** (gradient checking), float64 throughout: the threshold
  becomes a logistic ramp, the reset gate is differentiated exactly, the
  forward integrates the row's smoothed drive, and each model's backward is
  the exact reverse-mode gradient of its smoothed forward. ``aia``'s smoothed drive ``x**2 / 2``
  has derivative ``x``, so its drive-modulated rule is itself checkable
  against finite differences, with the site factor on the spatial path too.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionError, StateError
from .network import Network, named_parameters, readout_and_loss, softmax
from .neurons import MODEL_TABLE, NeuronParams, scan, sigmoid_prime, surrogate_window
from .neurons import step  # noqa: F401  (perfbench traces the one-step entry point here)

# Rows (timesteps x batch) per backward GEMM: the time-block size is
# ceil(GEMM_ROWS / batch) steps. One constant with the forward's blocks.
GEMM_ROWS = numerics.GEMM_ROWS


@dataclass
class BpttTape:
    """Forward record consumed by the backward pass.

    ``x[n]``, ``membrane[n]`` and ``o[n]`` are arrays of shape
    ``(timesteps, batch, neurons of layer n)``, so ``x[n][t]`` is layer
    ``n``'s weighted input at step ``t``. ``x`` is the product of the
    forward's GEMMs: :data:`spikekit.numerics.HARD_DTYPE` (float32) in hard
    mode, float64 in smoothed mode; the backward's GEMMs run in its dtype.
    ``o`` is ``bool`` in hard mode and float64 (spike probabilities) in
    smoothed mode. ``membrane[n]`` is the float64 potential ``u`` in
    smoothed mode and for a ``trained_leak`` model, and otherwise the
    ``bool`` surrogate window of ``u``
    (:func:`spikekit.neurons.surrogate_window`).
    ``inputs`` keeps the dtype it was given, such as a ``uint8`` batch.

    ``u[n]`` is layer ``n``'s float64 potential either way: the held array,
    or one re-run of :func:`spikekit.neurons.scan` over ``x[n]`` with the
    layer's neuron parameters and ``beta`` as they were at forward time
    (``neurons``, kept by hard-mode tapes only). Each access derives only
    layer ``n`` and nothing is cached.
    """

    inputs: np.ndarray
    x: list[np.ndarray]
    membrane: list[np.ndarray]
    o: list[np.ndarray]
    readout: np.ndarray
    smoothed: bool = False
    neurons: list[tuple[NeuronParams, np.ndarray | None]] | None = None

    @property
    def timesteps(self) -> int:
        return self.inputs.shape[2]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]

    @property
    def u(self) -> "_Potentials":
        return _Potentials(self)

    def validate(self, net: Network) -> None:
        n_layers = len(net.layers)
        if any(len(series) != n_layers for series in (self.x, self.membrane, self.o)):
            raise StateError(f"tape holds {len(self.x)} layers, network has {n_layers}")
        spikes = np.float64 if self.smoothed else np.bool_
        drive = np.float64 if self.smoothed else numerics.HARD_DTYPE
        for n, layer in enumerate(net.layers):
            expected = (self.timesteps, self.batch_size, layer.out_width)
            holds_u = self.smoothed or MODEL_TABLE[layer.neuron.model].trained_leak
            for name, series, dtype in (("x", self.x[n], drive),
                                        ("membrane", self.membrane[n],
                                         np.float64 if holds_u else np.bool_),
                                        ("o", self.o[n], spikes)):
                if not isinstance(series, np.ndarray) or series.dtype != dtype:
                    raise StateError(f"tape {name}[{n}] must be a {np.dtype(dtype)} array")
                if series.shape != expected:
                    raise StateError(
                        f"tape {name}[{n}] has shape {series.shape}, expected {expected}"
                    )


class _Potentials(Sequence):
    """``BpttTape.u``: each layer's float64 potential, held or re-derived on access."""

    def __init__(self, tape: BpttTape):
        self._tape = tape

    def __len__(self) -> int:
        return len(self._tape.membrane)

    def __getitem__(self, n: int) -> np.ndarray:
        held = self._tape.membrane[n]
        if held.dtype != np.bool_:
            return held
        p, beta = self._tape.neurons[n]
        return scan(self._tape.x[n], p, beta)[0]


@dataclass
class GradientSet:
    """Gradients mirroring the network's trainable arrays, in the same order."""

    d_w: list[np.ndarray]
    d_beta: list[np.ndarray | None]
    d_plif_raw: list[np.ndarray | None]

    def items(self):
        return named_parameters(zip(self.d_w, self.d_beta, self.d_plif_raw))


def time_major_batch(data, index) -> np.ndarray:
    """Samples ``index`` of a (samples, width, timesteps) tensor, time-major in memory.

    The result has shape (batch, width, timesteps) but is a view of a
    (timesteps, batch, width) array of the data's own dtype, so ``uint8``
    spikes stay one byte each and the engine reads each timestep's input
    rows in place. A C-ordered batch costs it one transposed copy in the
    forward pass and one per backward block. The copy goes one sample at a
    time, which keeps its reads within a cache-sized tile.
    """
    data = np.asarray(data)
    out = np.empty((data.shape[2], len(index), data.shape[1]), dtype=data.dtype)
    for k, i in enumerate(index):
        out[:, k, :] = data[i].T
    return out.transpose(1, 2, 0)


def _time_major(inputs: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Input spikes of steps ``[start, stop)`` as a ``(steps * batch, width)`` matrix.

    The matrix keeps the inputs' dtype; :func:`spikekit.numerics.matmul`
    makes the float64 copy that BLAS reads.
    """
    block = inputs[:, :, start:stop]
    if not block.transpose(2, 0, 1).flags.c_contiguous:
        block = time_major_batch(block, range(len(block)))
    return block.transpose(2, 0, 1).reshape(-1, inputs.shape[1])


def _hard_weights(layer, n: int) -> np.ndarray:
    """Layer ``n``'s weights as a hard-mode GEMM operand, cast once for the pass."""
    w = numerics.require_hard_range(layer.w, f"layer{n}.w")
    return w.astype(numerics.HARD_DTYPE, copy=False)


def forward_record(net: Network, inputs, smoothed: bool = False):
    """Unroll the network over the window; returns ``(tape, readout)``.

    ``inputs`` is a spike tensor of shape (batch, input_width, timesteps),
    of any real, integer or boolean dtype; :func:`spikekit.numerics.matmul`
    casts it to the GEMM's dtype as it reads it, in row blocks once it is
    tall. Hard mode casts each layer's weights to
    :data:`spikekit.numerics.HARD_DTYPE` once, so its GEMMs and ``x`` are in
    that dtype; smoothed mode stays float64.
    All membrane potentials start at 0 with no prior spike. The readout is
    the output layer's per-class firing rate, averaged over the window.
    In hard mode a layer's scan writes its surrogate-window mask straight
    into the tape, block by block, and never holds the whole ``u``, unless
    its model's hard backward reads ``u`` itself.
    """
    inputs = np.asarray(inputs)  # keeps a time-major batch's layout and its dtype
    if inputs.ndim != 3:
        raise DimensionError(f"inputs must be (batch, neurons, timesteps), got shape {inputs.shape}")
    batch, width, timesteps = inputs.shape
    if width != net.input_width:
        raise DimensionError(
            f"input width {width} does not match network input width {net.input_width}"
        )
    if timesteps != net.timesteps:
        raise DimensionError(
            f"input window {timesteps} does not match network timesteps {net.timesteps}"
        )
    numerics.require_finite(inputs, "inputs")

    tape = BpttTape(inputs=inputs, x=[], membrane=[], o=[], readout=None, smoothed=smoothed,
                    neurons=None if smoothed else [])
    pre = _time_major(inputs, 0, timesteps)
    for n, layer in enumerate(net.layers):
        w = layer.w if smoothed else _hard_weights(layer, n)
        x = numerics.matmul(pre, w.T).reshape(timesteps, batch, layer.out_width)
        del pre  # layer 0's time-major input copy is not kept past its GEMM
        p = layer.params()
        keep = "u" if smoothed or MODEL_TABLE[p.model].trained_leak else "window"
        membrane, o = scan(x, p, layer.beta, smoothed=smoothed, keep=keep)
        if not smoothed:
            tape.neurons.append((p, None if layer.beta is None else layer.beta.copy()))
        tape.x.append(x)
        tape.membrane.append(membrane)
        tape.o.append(o)
        pre = o.reshape(-1, layer.out_width)

    tape.readout = np.sum(tape.o[-1], axis=0) / float(timesteps)
    return tape, tape.readout


def forward_rates(net: Network, data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Hard-mode readout and per-layer spike totals of a spike set that fits ``net``.

    Keeps no tape: each chunk of ``ceil(GEMM_ROWS / timesteps)`` samples is cast
    straight to its :data:`spikekit.numerics.HARD_DTYPE` time-major GEMM operand,
    each layer's drive is freed once its spikes exist, and every GEMM reads what
    :func:`forward_record`'s would; the weights are cast once, for every chunk.
    Each layer's scan returns only its spikes, holding one row of potential.
    """
    chunk = -(-GEMM_ROWS // net.timesteps)
    readouts, counts = [], [0] * len(net.layers)
    weights = [_hard_weights(layer, n) for n, layer in enumerate(net.layers)]
    for start in range(0, len(data), chunk):
        pre = data[start:start + chunk].transpose(2, 0, 1).astype(numerics.HARD_DTYPE, order="C")
        for n, (layer, w) in enumerate(zip(net.layers, weights)):
            x = numerics.matmul(pre.reshape(-1, layer.in_width), w.T)
            del pre
            o = scan(x.reshape(net.timesteps, -1, x.shape[1]), layer.params(), layer.beta,
                     keep=None)[1]
            del x
            counts[n] += int(o.sum())
            pre = o
        readouts.append(np.sum(o, axis=0) / float(net.timesteps))
    return np.concatenate(readouts), counts


def _block_du(do, u: np.ndarray, o: np.ndarray, p, smoothed: bool, carry) -> np.ndarray:
    """dL/du over one time block of one layer, by a reverse scan.

    ``do`` is dL/do for the block (or one (batch, neurons) slice broadcast
    over it) and ``carry`` is dL/du at the step after the block, or None at
    the end of the window. ``u`` is the block of the tape's ``membrane``:
    the potential, or in hard mode possibly its surrogate-window mask.
    """
    leak = p.effective_leak()
    if smoothed:
        # o = logistic((u - v_th) / a), so do/du = o (1 - o) / a; the reset
        # gate is differentiated exactly.
        spike_deriv = o * (1.0 - o) / p.surrogate_width
        through_time = leak * (1.0 - o) - leak * u * spike_deriv
    else:
        # The reset gate is a constant in hard mode, and the rectangular
        # surrogate is the window mask divided by its width.
        window = u if u.dtype == np.bool_ else surrogate_window(u, p)
        spike_deriv = window / p.surrogate_width
        through_time = 1.0 - o
        through_time *= leak
    du = spike_deriv
    du *= do
    if carry is not None:
        du[-1] += through_time[-1] * carry
    for k in reversed(range(len(du) - 1)):
        through_time[k] *= du[k + 1]
        du[k] += through_time[k]
    return du


def backward(tape: BpttTape, upstream, net: Network) -> GradientSet:
    """Gradients through the forward that recorded ``tape``, in that tape's mode.

    Each layer follows its model's table row. The GEMMs run in the dtype of
    the tape's ``x``, each layer's weights cast to it once; their products
    are added into float64 gradients, and dL/du is float64.
    """
    tape.validate(net)
    upstream = numerics.as_dense(upstream)
    if upstream.shape != tape.readout.shape:
        raise DimensionError(
            f"upstream gradient shape {upstream.shape} does not match readout "
            f"shape {tape.readout.shape}"
        )

    n_layers = len(net.layers)
    timesteps, batch = tape.timesteps, tape.batch_size
    block_steps = -(-GEMM_ROWS // max(batch, 1))
    params = [layer.params() for layer in net.layers]
    gemm = tape.x[0].dtype
    # The spatial GEMMs' weights, cast once; layer 0 sends no gradient down.
    weights = [None] + [layer.w.astype(gemm, copy=False) for layer in net.layers[1:]]
    d_w = [np.zeros_like(layer.w) for layer in net.layers]
    d_beta = [None if layer.beta is None else np.zeros_like(layer.beta) for layer in net.layers]
    leak_acc = [0.0 if layer.plif_raw is not None else None for layer in net.layers]
    # dL/du of each layer at the first step of the block processed last, a
    # copy of one row: a view would keep the layer's whole block alive while
    # the layers below make theirs.
    du_carry = [None] * n_layers

    for stop in range(timesteps, 0, -block_steps):
        start = max(stop - block_steps, 0)
        steps = slice(start, stop)
        do = upstream / float(timesteps)  # dL/do of the layer being processed
        for n in reversed(range(n_layers)):
            layer, p = net.layers[n], params[n]
            x = tape.x[n][steps]
            du = _block_du(do, tape.membrane[n][steps], tape.o[n][steps], p, tape.smoothed,
                           du_carry[n])
            du_carry[n] = du[0].copy()
            do = None  # consumed: freed before this layer's GEMMs make their own arrays

            if leak_acc[n] is not None:
                first = max(start, 1)
                prev = slice(first - 1, stop - 1)
                carried = tape.membrane[n][prev] * (1.0 - tape.o[n][prev])
                leak_acc[n] += float(np.sum(du[first - start:] * carried))

            model = MODEL_TABLE[p.model]
            site = du if model.site is None else du * model.site(x, layer.beta)
            site = site.astype(gemm, copy=False)
            if n == 0:
                o_pre = _time_major(tape.inputs, start, stop)
            else:
                o_pre = tape.o[n - 1][steps].reshape(-1, layer.in_width)
            d_w[n] += numerics.matmul(site.reshape(-1, layer.out_width).T, o_pre)

            if d_beta[n] is not None:
                d_beta[n] += np.sum(du * x, axis=(0, 1))

            if n > 0:
                through = du if model.hard_spatial_bare and not tape.smoothed else site
                do = numerics.matmul(through.reshape(-1, layer.out_width), weights[n])
                do = do.reshape(stop - start, batch, layer.in_width)
            # Free this layer's block arrays before the next layer makes its own.
            du = site = through = o_pre = None

    d_plif_raw = []
    for n, layer in enumerate(net.layers):
        if leak_acc[n] is None:
            d_plif_raw.append(None)
        else:
            raw = float(layer.plif_raw)
            d_plif_raw.append(np.asarray(leak_acc[n] * sigmoid_prime(raw)))
    return GradientSet(d_w=d_w, d_beta=d_beta, d_plif_raw=d_plif_raw)


@dataclass
class GradcheckEntry:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    entries: list[GradcheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def render(self) -> str:
        lines = [f"{e.name:<18} max_rel_err={e.max_rel_err:.3e}  "
                 f"{'pass' if e.passed else 'FAIL'}" for e in self.entries]
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} (tolerance {self.tolerance:g})")
        return "\n".join(lines)


def gradcheck(net: Network, inputs, labels, step_size: float = 1e-4,
              tolerance: float = 1e-3) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    Runs in smoothed mode, where the network is genuinely differentiable,
    so the analytic backward must match the numeric derivative of the loss
    for every trainable array. Relative error per entry uses
    ``max(|analytic|, |numeric|, 1e-6)`` in the denominator.

    A layer-``n`` entry reruns only layers ``n`` and above, on the unperturbed
    spikes of layer ``n - 1``, so every GEMM reads what a whole-network
    forward would give it. A weight entry's ``+h`` and ``-h`` forwards share
    each layer's :func:`spikekit.neurons.scan`, which is elementwise, over a
    two-sign axis after time: each sign gets the bits of a forward of its
    own. A ``beta`` or ``plif_raw`` entry, which ``scan`` takes once per
    call, still costs two forwards.
    """
    work = net.copy()
    inputs = numerics.as_dense(inputs)
    tape, readout = forward_record(work, inputs, smoothed=True)
    _, upstream, _ = readout_and_loss(readout, labels)
    analytic_by_name = dict(backward(tape, upstream, work).items())
    spikes, tape = tape.o[:-1], None  # all the suffixes read of the tape
    labels = np.asarray(labels, dtype=np.int64)  # validated by readout_and_loss above
    timesteps, batch = net.timesteps, len(inputs)

    def loss_at(suffix: Network, suffix_inputs) -> float:
        _, readout = forward_record(suffix, suffix_inputs, smoothed=True)
        return readout_and_loss(readout, labels)[0]

    def loss_pair(suffix: Network, idx, pre: np.ndarray) -> np.ndarray:
        """The losses at ``w[idx] + h`` and ``w[idx] - h`` of the suffix's first layer."""
        w = suffix.layers[0].w
        saved, o = w[idx], None
        for layer in suffix.layers:
            x = np.empty((timesteps, 2, batch, layer.out_width))
            for k, value in enumerate((saved + step_size, saved - step_size)):
                if o is None:  # the first layer: moved weights over the spikes below
                    w[idx], below = value, pre
                else:
                    below = o[:, k].reshape(-1, layer.in_width)
                x[:, k] = numerics.matmul(below, layer.w.T).reshape(timesteps, batch, -1)
            w[idx] = saved
            o = scan(x, layer.params(), layer.beta, smoothed=True)[1]
        probs = softmax(np.sum(o, axis=0) / float(timesteps))
        return -np.mean(np.log(probs[:, np.arange(batch), labels]), axis=-1)

    entries = []
    for name, param in work.parameter_items():
        n = int(name.partition(".")[0].removeprefix("layer"))
        suffix = Network(net.timesteps, work.layers[n:])
        suffix_inputs = spikes[n - 1].transpose(1, 2, 0) if n else inputs
        pre = _time_major(suffix_inputs, 0, timesteps)
        analytic = np.asarray(analytic_by_name[name], dtype=np.float64)
        numeric = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            if param is suffix.layers[0].w:
                loss_plus, loss_minus = loss_pair(suffix, idx, pre)
            else:
                saved = param[idx]
                param[idx] = saved + step_size
                loss_plus = loss_at(suffix, suffix_inputs)
                param[idx] = saved - step_size
                loss_minus = loss_at(suffix, suffix_inputs)
                param[idx] = saved
            numeric[idx] = (loss_plus - loss_minus) / (2.0 * step_size)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        err = float(np.max(np.abs(analytic - numeric) / denom))
        entries.append(GradcheckEntry(name=name, max_rel_err=err, passed=err <= tolerance))
    return GradcheckReport(entries=entries, tolerance=tolerance)
