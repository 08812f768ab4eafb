"""Outside-in span tracing of spikekit's layer entry points.

:class:`Tracer` replaces module and class attributes of the installed
``spikekit`` package with timing wrappers for as long as it is active and
restores the originals afterwards. Every entry point it wraps is looked up
at call time by its callers, so nothing in the program is edited.

Spans are kept in memory as parallel arrays (name, parent, start, end);
a span's self time is its duration minus the durations of its direct
children. Counts (operand shapes, copies, tape size, spike statistics) are
recorded at the same boundaries.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# Span name -> the (module, attribute) places that hold the same function.
# A name is wrapped once and the wrapper is put at every place listed.
ENTRY_POINTS = {
    "cli.main": [("cli", "main")],
    "training.train": [("training", "train"), ("cli", "train")],
    "training.evaluate": [("training", "evaluate"), ("cli", "evaluate")],
    "training.adam": [("training.Adam", "step")],
    "network.readout_and_loss": [("training", "readout_and_loss"),
                                 ("bptt", "readout_and_loss")],
    "network.save_checkpoint": [("network", "save_checkpoint"), ("cli", "save_checkpoint")],
    "network.load_checkpoint": [("network", "load_checkpoint"), ("cli", "load_checkpoint")],
    "bptt.forward": [("bptt", "forward_record")],
    "bptt.backward": [("bptt", "backward")],
    "bptt.gradcheck": [("bptt", "gradcheck")],
    "neurons.step": [("bptt", "step")],
    "numerics.matmul": [("numerics", "matmul")],
    "data.gen_poisson_patterns": [("data", "gen_poisson_patterns"),
                                  ("cli", "gen_poisson_patterns")],
    "data.load_events_csv": [("data", "load_events_csv"), ("cli", "load_events_csv")],
    "data.bin_events": [("data", "bin_events"), ("cli", "bin_events")],
    "data.dataset_init": [("data.Dataset", "__post_init__")],
}

MAX_LAYERS = 3


def _owner(spikekit_modules: dict, dotted: str):
    module, _, cls = dotted.partition(".")
    owner = spikekit_modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Wraps the entry points while active; aggregates spans per name."""

    def __init__(self):
        self._ids: dict = {}
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._spike_sums = defaultdict(float)
        self._spike_cells = defaultdict(float)
        self._occupied = defaultdict(float)
        self._saved: list = []

    # -- span bookkeeping -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _parent_is(self, nid: int) -> bool:
        top = self._stack[-1]
        return top >= 0 and self.name_id[top] == nid

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name, fn):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _matmul(self, fn):
        forward = self._id("bptt.forward")
        kinds = {True: (self._id("numerics.matmul.fwd"), "numerics.matmul.fwd.gflop"),
                 False: (self._id("numerics.matmul.bwd"), "numerics.matmul.bwd.gflop")}

        def wrapper(a, b):
            nid, gflop = kinds[self._parent_is(forward)]
            self.counts[gflop] += 2.0 * a.shape[0] * a.shape[1] * b.shape[-1] / 1e9
            for operand in (a, b):
                if not (isinstance(operand, np.ndarray) and operand.dtype == np.float64
                        and operand.flags.c_contiguous):
                    self.counts["numerics.matmul.copied_mb"] += np.size(operand) * 8 / 1e6
            idx = self._open(nid)
            try:
                return fn(a, b)
            finally:
                self._close(idx)
        return wrapper

    def _forward(self, fn):
        forward, gradcheck, stats_id = (self._id(name) for name in
                                        ("bptt.forward", "bptt.gradcheck", "trace.stats"))

        def wrapper(net, inputs, smoothed=False):
            if self._parent_is(gradcheck):
                self.counts["bptt.gradcheck.forwards"] += 1
            idx = self._open(forward)
            try:
                tape, readout = fn(net, inputs, smoothed=smoothed)
            finally:
                self._close(idx)
            stats = self._open(stats_id)
            try:
                self._tape_stats(net, tape)
            finally:
                self._close(stats)
            return tape, readout
        return wrapper

    def _tape_stats(self, net, tape) -> None:
        nbytes = sum(a.nbytes for series in (tape.x, tape.u, tape.o)
                     for layer in series for a in layer)
        self.maxima["bptt.tape_mb"] = max(self.maxima["bptt.tape_mb"], nbytes / 1e6)
        if tape.smoothed:
            return  # smoothed spikes are probabilities, not firing
        for n, layer in enumerate(net.layers[:MAX_LAYERS]):
            p = layer.neuron
            for o, u in zip(tape.o[n], tape.u[n]):
                self._spike_sums[n] += float(o.sum())
                self._spike_cells[n] += o.size
                self._occupied[n] += float(np.count_nonzero(
                    np.abs(u - p.v_th) <= p.surrogate_width / 2.0))

    # -- activation -------------------------------------------------------

    def __enter__(self):
        from spikekit import bptt, cli, data, network, numerics, training
        modules = {"bptt": bptt, "cli": cli, "data": data, "network": network,
                   "numerics": numerics, "training": training}
        try:
            for name, places in ENTRY_POINTS.items():
                original = getattr(_owner(modules, places[0][0]), places[0][1])
                if name == "numerics.matmul":
                    wrapped = self._matmul(original)
                elif name == "bptt.forward":
                    wrapped = self._forward(original)
                else:
                    wrapped = self._plain(name, original)
                for dotted, attr in places:
                    owner = _owner(modules, dotted)
                    self._saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapped)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- results ----------------------------------------------------------

    def figures(self) -> dict:
        """Flat totals: ``<span>.s``, ``<span>.self_s``, ``<span>.calls`` and counts."""
        out = dict(self.counts)
        out.update(self.maxima)
        if not self.start:
            return out
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        width = len(self.names)
        inclusive = np.bincount(names, weights=dur, minlength=width)
        self_s = np.bincount(names, weights=dur - child, minlength=width)
        calls = np.bincount(names, minlength=width)
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = float(inclusive[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.calls"] = float(calls[i])
        return out

    def layer_rates(self) -> dict:
        """Percent firing and surrogate-window occupancy per layer."""
        out = {}
        for n in range(MAX_LAYERS):
            cells = self._spike_cells.get(n, 0.0)
            out[f"bptt.fire_rate.l{n}"] = 100.0 * self._spike_sums[n] / cells if cells else 0.0
            out[f"bptt.surrogate_occupancy.l{n}"] = (
                100.0 * self._occupied[n] / cells if cells else 0.0)
        return out
