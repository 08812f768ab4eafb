"""Backpropagation through time for spiking layers.

The engine is layer-major. There are no recurrent weights, so a layer's
drive ``x`` for every timestep comes from GEMMs over the spikes of the
layer below, and one :func:`spikekit.neurons.scan` call then runs the
elementwise membrane recurrence over the window. One loop runs this chain
for every forward pass, and each caller states only what it keeps:
:func:`forward_record` a tape for the backward (:class:`BpttTape`),
:func:`forward_rates` per-layer spike totals, and :func:`gradcheck`'s reruns
nothing, reading the spikes of the one tape it records. Every forward takes
0/1 spike inputs. Hard mode's GEMMs read and write
:data:`spikekit.numerics.HARD_DTYPE` (float32), each layer's weights cast to
it once per pass, and the potential ``u``, dL/du and every gradient stay
float64. The hard backward reads ``u`` only through its surrogate window, so
a hard tape keeps that mask (``u`` for a ``trained_leak`` row) and the
spikes at one bit per neuron and step, and every tape the inputs at one bit
too.

One block grid, :func:`spikekit.numerics.blocks`, cuts the window into
blocks of ``ceil(GEMM_ROWS / batch)`` steps counted back from its end.
:func:`forward_record` and :func:`gradcheck` run each layer's GEMM one
block at a time, unpacking the block's rows of the inputs or spikes below
it, and a scan that keeps the window holds ``u`` for one block. The
backward walks the same blocks, latest first. Within a block it takes each
layer from the top down: an elementwise reverse scan of dL/du, then one
GEMM for the weight gradient and one for the gradient sent to the layer
below, each over one block of rows. The scan carries dL/du from one block
to the next, so the blocking changes only how the sums are grouped. So,
beyond what the tape keeps, working memory scales with ``GEMM_ROWS``, not
with timesteps x batch. :func:`forward_rates` cuts the samples by the same
grid, ``timesteps`` rows each, and runs each chunk as one block.

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


@dataclass
class BpttTape:
    """Forward record consumed by the backward pass.

    ``x[n]`` is layer ``n``'s weighted input, of shape ``(timesteps, batch,
    neurons of layer n)``, so ``x[n][t]`` is its drive at step ``t``: the
    product of the forward's GEMMs, :data:`spikekit.numerics.HARD_DTYPE`
    (float32) in hard mode and float64 in smoothed mode; the backward's
    GEMMs run in its dtype.

    ``inputs`` is the 0/1 input batch, time-major, held as bits the way the
    hidden spikes are, ``(timesteps, batch, ceil(width / 8))`` ``uint8``, so
    it adds ``ceil(width / 8)`` bytes per step and sample, not ``width``.

    ``held_o[n]`` and ``held_membrane[n]`` are what the tape keeps of the
    spikes and of the potential. Smoothed mode keeps both as float64 arrays
    of ``x[n]``'s shape: spike probabilities and the potential ``u``. Hard
    mode keeps bits, ``np.packbits`` along the neuron axis, ``(timesteps,
    batch, ceil(neurons / 8))`` ``uint8``: the spikes, and the surrogate
    window of ``u`` (:func:`spikekit.neurons.surrogate_window`), unless the
    layer's model is ``trained_leak``, whose hard ``held_membrane`` is the
    float64 ``u``. So a hard layer holds ``4 * neurons + 2 * ceil(neurons /
    8)`` bytes per step and sample, and a ``plif`` layer ``12 * neurons +
    ceil(neurons / 8)``.

    Readers see ``o[n]`` and ``u[n]`` with ``x[n]``'s shape: ``o`` is
    ``bool`` in hard mode and float64 in smoothed mode, and ``u`` is float64
    either way: the held potential, or one re-run of
    :func:`spikekit.neurons.scan` over ``x[n]`` with the layer's neuron
    parameters and ``beta`` as they were at forward time (``neurons``, kept
    by hard-mode tapes only). Each access unpacks or derives layer ``n``
    alone, and nothing is cached.
    """

    inputs: np.ndarray
    x: list[np.ndarray]
    held_membrane: list[np.ndarray]
    held_o: list[np.ndarray]
    readout: np.ndarray
    smoothed: bool = False
    neurons: list[tuple[NeuronParams, np.ndarray | None]] | None = None

    @property
    def timesteps(self) -> int:
        return self.inputs.shape[0]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[1]

    @property
    def o(self) -> "_Layers":
        return _Layers(self, "o")

    @property
    def u(self) -> "_Layers":
        return _Layers(self, "u")

    def validate(self, net: Network) -> None:
        n_layers = len(net.layers)
        lengths = [len(series) for series in (self.x, self.held_membrane, self.held_o)]
        if lengths != [n_layers] * 3:
            raise StateError(f"tape holds x, held_membrane and held_o of {lengths} layers, "
                             f"network has {n_layers}")
        inputs, width = self.inputs, net.input_width
        if not isinstance(inputs, np.ndarray) or inputs.dtype != np.uint8:
            raise StateError("tape inputs must be a uint8 array of bits")
        if inputs.ndim != 3 or inputs.shape[2] != -(-width // 8):
            raise StateError(f"tape inputs has shape {inputs.shape}, expected (timesteps, "
                             f"batch, {-(-width // 8)}) for {width} inputs held as bits")
        drive = np.float64 if self.smoothed else numerics.HARD_DTYPE
        for n, layer in enumerate(net.layers):
            dense = (self.timesteps, self.batch_size, layer.out_width)
            floats, bits = (np.float64, dense), (np.uint8, (*dense[:2], -(-dense[2] // 8)))
            holds_u = self.smoothed or MODEL_TABLE[layer.neuron.model].trained_leak
            for name, series, (dtype, expected) in (
                    ("x", self.x[n], (drive, dense)),
                    ("held_membrane", self.held_membrane[n], floats if holds_u else bits),
                    ("held_o", self.held_o[n], floats if self.smoothed else bits)):
                if not isinstance(series, np.ndarray) or series.dtype != dtype:
                    raise StateError(f"tape {name}[{n}] must be a {np.dtype(dtype)} array")
                if series.shape != expected:
                    raise StateError(
                        f"tape {name}[{n}] has shape {series.shape}, expected {expected}"
                    )


def _unpacked(held: np.ndarray, width: int) -> np.ndarray:
    """Rows of a held series as readers see them: packed bits as ``bool``, floats as they are."""
    return numerics.unpack_rows(held, width) if held.dtype == np.uint8 else held


class _Layers(Sequence):
    """``BpttTape.o`` or ``.u``: one layer unpacked or re-derived per access."""

    def __init__(self, tape: BpttTape, name: str):
        self._tape, self._name = tape, name

    def __len__(self) -> int:
        return len(self._tape.x)

    def __getitem__(self, n: int):
        tape = self._tape
        if self._name == "o":
            return _unpacked(tape.held_o[n], tape.x[n].shape[-1])
        if tape.held_membrane[n].dtype == np.float64:
            return tape.held_membrane[n]
        p, beta = tape.neurons[n]
        return scan(tape.x[n], p, beta)[0]


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
    rows in place. A C-ordered batch costs :func:`forward_record` one
    transposed copy as it packs the inputs. The copy here goes one sample at
    a time, which keeps its reads within a cache-sized tile.
    """
    data = np.asarray(data)
    out = np.empty((data.shape[2], len(index), data.shape[1]), dtype=data.dtype)
    for k, i in enumerate(index):
        out[:, k, :] = data[i].T
    return out.transpose(1, 2, 0)


def _weights(layer, n: int, smoothed: bool = False) -> np.ndarray:
    """Layer ``n``'s weights as a GEMM operand: smoothed mode's float64 ``layer.w``
    itself, or hard mode's cast to :data:`spikekit.numerics.HARD_DTYPE`, checked
    first by :func:`spikekit.numerics.require_hard_range`."""
    if smoothed:
        return layer.w
    w = numerics.require_hard_range(layer.w, f"layer{n}.w")
    return w.astype(numerics.HARD_DTYPE, copy=False)


def _layer_loop(layers, pre, gemm, keep, take, smoothed: bool = False):
    """The one layer loop of every forward pass; returns the output layer's readout.

    ``pre`` is layer 0's input rows, time-major. Per layer, in this order:
    ``gemm(n, layer, pre)`` forms the drive ``x``, ``(timesteps, ...,
    neurons)``, and ``pre`` is dropped, so a weight cast made for that GEMM
    alone is freed before the scan; one :func:`spikekit.neurons.scan` of
    ``x`` keeps ``keep`` (``"window"``: the packed surrogate window, or
    ``u`` for a ``trained_leak`` row); ``take(n, x, held, o)`` gets the
    layer's arrays, and what it does not keep is freed before the next GEMM,
    whose operand is the spikes ``o``.

    A GEMM's row grouping can change its products' last bits, so an
    ``evaluate`` chunk, one GEMM per layer, may differ in last bits from a
    training forward, whose GEMMs run on the block grid, in a layer of 1 or 2
    neurons, and in a float32 layer of 9 or more neurons on OpenBLAS's
    Haswell and Zen kernels (see ``numerics.GEMM_ROWS``).
    """
    for n, layer in enumerate(layers):
        x = gemm(n, layer, pre)
        del pre
        p = layer.params()
        kept = "u" if keep == "window" and MODEL_TABLE[p.model].trained_leak else keep
        held, pre = scan(x, p, layer.beta, smoothed=smoothed, keep=kept)
        take(n, x, held, pre)
        del x, held
    return np.sum(pre, axis=0) / float(len(pre))


def _blocked_drive(pre, w: np.ndarray, grid, x: np.ndarray) -> np.ndarray:
    """``x``, written with ``pre @ w.T`` over time-major rows ``pre``, packed
    bits or floats, one :func:`spikekit.numerics.matmul` per block of steps
    in ``grid``; a block's bits are unpacked for its GEMM alone."""
    width = w.shape[1]
    for steps in grid:
        rows = _unpacked(pre[steps], width).reshape(-1, width)
        x[steps] = numerics.matmul(rows, w.T).reshape(x[steps].shape)
    return x


def forward_record(net: Network, inputs, smoothed: bool = False):
    """Unroll the network over the window; returns ``(tape, readout)``.

    ``inputs`` is a spike tensor of shape (batch, input_width, timesteps),
    of any real, integer or boolean dtype, whose entries are 0 or 1: any
    other raises :class:`~spikekit.errors.DataError`, by the check a
    :class:`~spikekit.data.Dataset` makes (:func:`spikekit.numerics.binary_uint8`).
    All membrane potentials start at 0 with no prior spike. The tape keeps
    the inputs as bits, and each layer's drive, its surrogate window or
    potential, and its spikes, a hard layer's bits packed as its scan
    returns them (see :class:`BpttTape`). The readout is the output layer's
    per-class firing rate, averaged over the window.

    Layer 0's GEMM reads the tape's inputs, so the dense batch is freed
    once they are held: a caller that passes it as a temporary, as
    :func:`spikekit.training.train` does, has it freed before any GEMM.
    Every layer's GEMM runs one block of :func:`spikekit.numerics.blocks`'
    grid at a time, the grid the backward walks.
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
    held = numerics.pack_rows(numerics.binary_uint8(inputs).transpose(2, 0, 1))
    del inputs
    tape = BpttTape(inputs=held, x=[], held_membrane=[], held_o=[], readout=None,
                    smoothed=smoothed, neurons=None if smoothed else [
                        (layer.params(), None if layer.beta is None else layer.beta.copy())
                        for layer in net.layers])
    grid = numerics.blocks(timesteps, batch)

    def drive(n, layer, pre):
        w = _weights(layer, n, smoothed)
        return _blocked_drive(pre, w, grid, np.empty((timesteps, batch, len(w)), w.dtype))

    def record(n, x, held, o):
        tape.x.append(x)
        tape.held_membrane.append(held)
        tape.held_o.append(o if smoothed else numerics.pack_rows(o))

    tape.readout = _layer_loop(net.layers, tape.inputs, drive, "u" if smoothed else "window",
                               record, smoothed)
    return tape, tape.readout


def forward_rates(net: Network, data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Hard-mode readout and per-layer spike totals of a spike set that fits ``net``.

    Keeps no tape, only the spike totals: each chunk of samples on
    :func:`spikekit.numerics.blocks`' grid is cast straight to its
    :data:`spikekit.numerics.HARD_DTYPE` time-major GEMM operand, the weights
    are cast once for every chunk, and each scan keeps only the spikes.
    """
    readouts, counts = [], [0] * len(net.layers)
    weights = [_weights(layer, n) for n, layer in enumerate(net.layers)]

    def count(n, x, held, o):
        counts[n] += int(o.sum())

    for samples in numerics.blocks(len(data), net.timesteps):
        readouts.append(_layer_loop(
            net.layers,
            data[samples].transpose(2, 0, 1).astype(numerics.HARD_DTYPE, order="C"),
            lambda n, layer, pre: numerics.matmul(pre.reshape(-1, layer.in_width), weights[n].T)
            .reshape(len(pre), -1, layer.out_width), None, count))
    return np.concatenate(readouts), counts


def _block_du(do, u: np.ndarray, o: np.ndarray, p, smoothed: bool, carry) -> np.ndarray:
    """dL/du over one time block of one layer, by a reverse scan.

    ``do`` is dL/do for the block (or one (batch, neurons) slice broadcast
    over it) and ``carry`` is dL/du at the step after the block, or None at
    the end of the window. ``u`` is the block of the tape's
    ``held_membrane``: the potential, or in hard mode possibly its unpacked
    surrogate-window mask.
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
    the tape's ``x``, each layer's weights cast to it once, and a site
    factor's product with dL/du is written straight in that dtype; the
    GEMMs' products are added into float64 gradients, and dL/du is float64.
    A block's packed spikes and window are unpacked for that block alone.
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
    params = [layer.params() for layer in net.layers]
    gemm = tape.x[0].dtype
    # The spatial GEMMs' weights, cast once; layer 0 sends no gradient down.
    # The forward that recorded the tape checked their range.
    weights = [layer.w.astype(gemm, copy=False) if n else None
               for n, layer in enumerate(net.layers)]
    # Each layer's input spikes as the tape holds them: bits, or floats.
    below = [tape.inputs, *tape.held_o]
    d_w = [np.zeros_like(layer.w) for layer in net.layers]
    d_beta = [None if layer.beta is None else np.zeros_like(layer.beta) for layer in net.layers]
    leak_acc = [0.0 if layer.plif_raw is not None else None for layer in net.layers]
    # dL/du of each layer at the first step of the block processed last, a
    # copy of one row: a view would keep the layer's whole block alive while
    # the layers below make theirs.
    du_carry = [None] * n_layers

    for steps in reversed(numerics.blocks(timesteps, batch)):
        start, stop = steps.start, steps.stop
        # dL/do and the spikes of the layer being processed; a layer's block of
        # spikes is unpacked once, as the operand of the d_w GEMM above it.
        do = upstream / float(timesteps)
        o = _unpacked(below[-1][steps], net.layers[-1].out_width)
        for n in reversed(range(n_layers)):
            layer, p = net.layers[n], params[n]
            width = layer.out_width
            x = tape.x[n][steps]
            du = _block_du(do, _unpacked(tape.held_membrane[n][steps], width), o, p,
                           tape.smoothed, du_carry[n])
            du_carry[n] = du[0].copy()
            do = o = None  # consumed: freed before this layer's GEMMs make their own arrays

            if leak_acc[n] is not None:
                first = max(start, 1)
                prev = slice(first - 1, stop - 1)
                u_prev = tape.held_membrane[n][prev]
                # One float64 block: u * (1 - o), formed with the gate as a bool;
                # a hard gate 1 - o is u < v_th, so no spikes are unpacked for it.
                carried = np.multiply(u_prev, 1.0 - tape.held_o[n][prev] if tape.smoothed
                                      else u_prev < p.v_th)
                carried *= du[first - start:]
                leak_acc[n] += float(np.sum(carried))
                carried = None

            model = MODEL_TABLE[p.model]
            if model.site is None:
                site = du.astype(gemm, copy=False)
            else:  # formed straight in the GEMM's dtype, with no float64 block of its own
                site = np.multiply(du, model.site(x, layer.beta), out=np.empty(du.shape, gemm),
                                   casting="same_kind")
            o = _unpacked(below[n][steps], layer.in_width)
            d_w[n] += numerics.matmul(site.reshape(-1, layer.out_width).T,
                                      o.reshape(-1, layer.in_width))

            if d_beta[n] is not None:
                d_beta[n] += np.sum(du * x, axis=(0, 1))

            if n > 0:
                through = du if model.hard_spatial_bare and not tape.smoothed else site
                do = numerics.matmul(through.reshape(-1, layer.out_width), weights[n])
                do = do.reshape(stop - start, batch, layer.in_width)
            # Free this layer's block arrays before the next layer makes its own.
            du = site = through = None

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
    ``max(|analytic|, |numeric|, 1e-6)`` in the denominator. ``inputs`` is a
    0/1 spike tensor, as :func:`forward_record` takes it, and that function
    runs once, for the analytic gradients.

    A layer-``n`` entry reruns only layers ``n`` and above through the one
    layer loop, on layer ``n - 1``'s spikes as the analytic tape holds them
    (for ``n = 0``, its input bits unpacked once to float64), so every GEMM
    reads what a whole-network forward would give it. A weight entry's ``+h``
    and ``-h`` forwards share each layer's :func:`spikekit.neurons.scan`,
    which is elementwise, over a two-sign axis after time: each sign gets
    the bits of a forward of its own. A ``beta`` or ``plif_raw`` entry, which
    ``scan`` takes once per call, runs one pass of the loop per sign.
    """
    work = net.copy()
    tape, readout = forward_record(work, inputs, smoothed=True)
    _, upstream, _ = readout_and_loss(readout, labels)
    analytic_by_name = dict(backward(tape, upstream, work).items())
    inputs = numerics.unpack_rows(tape.inputs, work.input_width).astype(np.float64)
    below = [inputs, *tape.held_o[:-1]]  # all the suffixes read of the tape
    timesteps, batch = tape.timesteps, tape.batch_size
    tape = None
    labels = np.asarray(labels, dtype=np.int64)  # validated by readout_and_loss above
    grid = numerics.blocks(timesteps, batch)

    def drive(n, layer, pre):
        """The suffix's layer ``n`` drive; for a weight entry, at ``moved[0]`` and
        ``moved[1]``, each sign by GEMMs of its own, on an axis after time."""
        if moved is None:
            return _blocked_drive(pre, layer.w, grid, np.empty((timesteps, batch, len(layer.w))))
        x = np.empty((timesteps, 2, batch, layer.out_width))
        for k in range(2):  # one sign below layer 0
            _blocked_drive(pre[:, k] if n else pre, layer.w if n else moved[k], grid, x[:, k])
        return x

    entries = []
    for name, param in work.parameter_items():
        n = int(name.partition(".")[0].removeprefix("layer"))
        layers = work.layers[n:]
        # A weight entry's two signs read two copies of the suffix's first weights.
        moved = (param.copy(), param.copy()) if param is layers[0].w else None
        analytic = np.asarray(analytic_by_name[name], dtype=np.float64)
        numeric = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            saved = param[idx]
            if moved:
                moved[0][idx], moved[1][idx] = saved + step_size, saved - step_size
                readout = _layer_loop(layers, below[n], drive, "u", lambda *_: None,
                                      smoothed=True)
                moved[0][idx] = moved[1][idx] = saved
            else:
                readout = []
                for value in (saved + step_size, saved - step_size):
                    param[idx] = value
                    readout.append(_layer_loop(layers, below[n], drive, "u", lambda *_: None,
                                               smoothed=True))
                param[idx] = saved
            # readout_and_loss's loss at both signs: np.mean's sum and division
            probs = softmax(np.reshape(readout, (2, batch, -1)))
            loss_plus, loss_minus = -np.log(probs[:, np.arange(batch), labels]).sum(axis=-1) / batch
            numeric[idx] = (loss_plus - loss_minus) / (2.0 * step_size)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        err = float(np.max(np.abs(analytic - numeric) / denom))
        entries.append(GradcheckEntry(name=name, max_rel_err=err, passed=err <= tolerance))
    return GradcheckReport(entries=entries, tolerance=tolerance)
