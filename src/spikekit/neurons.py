"""Neuron dynamics for the five supported models.

All models share one discrete hard-reset membrane update of the weighted
input ``x``

    u' = leak * u * (1 - o) + drive(x)
    o' = 1 if u' >= v_th else 0

The `(1 - o)` factor implements the hard reset: a neuron that fired on the
previous step carries no potential forward. Hard-mode spikes are ``bool``
arrays, one byte per neuron and step (a BPTT tape packs them to one bit).
:func:`scan` is the one place this update is written: it runs a neuron's
whole ``(T, ...)`` window in one call, checking its input once, and its
smoothed mode swaps the threshold for a logistic ramp (see
:mod:`spikekit.bptt`). :func:`step` is its one-step case.

:data:`MODEL_TABLE` holds one :class:`Model` row per tag, and the rows are
all that tells the models apart:

==============  ==================  ============  ==============  ===========
tag             leak                drive         smoothed drive  site factor
==============  ==================  ============  ==============  ===========
``lif``         ``leak``            ``x``         ``x``           none
``if``          1                   ``x``         ``x``           none
``plif``        logistic(plif_raw)  ``x``         ``x``           none
``aia``         ``leak``            ``x``         ``x * x / 2``   ``x`` (*)
``cached-aia``  ``leak``            ``beta * x``  ``beta * x``    ``beta``
==============  ==================  ============  ==============  ===========

The site factor multiplies dL/du where the weight gradient forms (see
:mod:`spikekit.bptt`). ``aia`` is forward-identical to ``lif``: only its
weight update is scaled by the neuron's own drive, and (*) hard mode keeps
that factor off the gradient sent to the layer below. The smoothed drive
``x * x / 2`` has derivative ``x``, which makes that update checkable by
finite differences. ``cached-aia`` replaces the drive factor with a
per-neuron gain ``beta``, initialized to 1 so the untrained model matches
``lif`` exactly; ``beta`` folds into the weights at inference time (see
:func:`spikekit.network.merge_beta`).

State arrays may be ``(neurons,)`` or ``(batch, neurons)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .errors import ConfigError, DimensionError


def sigmoid(z, out=None):
    """Numerically stable logistic function: ``exp`` only sees ``-|z|``."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    s = np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)
    return s if s.ndim else float(s)


def sigmoid_prime(z):
    s = sigmoid(z)
    return s * (1.0 - s)


def _configured_leak(p):
    return p.leak


def _x(x, beta):
    return x


def _beta(x, beta):
    return beta


def _beta_x(x, beta):
    return beta * x


@dataclass(frozen=True)
class Model:
    """One row of :data:`MODEL_TABLE`.

    ``leak`` maps the layer's :class:`NeuronParams` to the leak the
    dynamics use (by default its configured ``leak``). ``drive``
    and ``smoothed_drive`` map ``(x, beta)`` to the drive of hard and
    smoothed mode. ``site`` maps ``(x, beta)`` to the factor on dL/du at
    which the weight gradient forms, or is None for a factor of 1.
    ``hard_spatial_bare`` keeps that factor off the hard-mode gradient sent
    to the layer below. ``gain`` marks a model whose layers carry ``beta``.
    ``trained_leak`` marks a model whose leak is the layer's trained
    ``plif_raw``: its layers carry that array, and so its hard backward reads
    the potential itself, not only its surrogate window (the leak's gradient).
    """

    leak: Callable = _configured_leak
    drive: Callable = _x
    smoothed_drive: Callable = _x
    site: Callable | None = None
    hard_spatial_bare: bool = False
    gain: bool = False
    trained_leak: bool = False


MODEL_TABLE = {
    "lif": Model(),
    "if": Model(leak=lambda p: 1.0),
    "plif": Model(leak=lambda p: float(sigmoid(p.plif_raw)), trained_leak=True),
    "aia": Model(smoothed_drive=lambda x, beta: 0.5 * x * x, site=_x, hard_spatial_bare=True),
    "cached-aia": Model(drive=_beta_x, smoothed_drive=_beta_x, site=_beta, gain=True),
}
MODELS = tuple(MODEL_TABLE)


@dataclass(frozen=True)
class NeuronParams:
    """Static per-layer neuron configuration.

    ``leak`` is the decay coefficient in [0, 1]; ``v_th`` the firing
    threshold; ``surrogate_width`` the width of the rectangular surrogate
    window used in the backward pass. ``plif_raw`` is the unconstrained
    trainable leak parameter, only meaningful for the ``plif`` model.
    """

    model: str = "lif"
    v_th: float = 1.0
    leak: float = 0.5
    plif_raw: float = 0.0
    surrogate_width: float = 1.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown neuron model {self.model!r}; expected one of {MODELS}")
        if not 0.0 <= self.leak <= 1.0:
            raise ConfigError(f"leak must be in [0, 1], got {self.leak}")
        for name in ("v_th", "surrogate_width", "plif_raw"):
            # A comparison, not math.isfinite: an int past a float's range is not
            # finite here, where isfinite would raise OverflowError.
            if not -sys.float_info.max <= getattr(self, name) <= sys.float_info.max:
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.v_th <= 0.0:
            raise ConfigError(f"v_th must be positive, got {self.v_th}")
        if self.surrogate_width <= 0.0:
            raise ConfigError(f"surrogate_width must be positive, got {self.surrogate_width}")

    def effective_leak(self) -> float:
        """Leak actually used by the dynamics: 1 for ``if``, logistic(plif_raw) for ``plif``."""
        return MODEL_TABLE[self.model].leak(self)


@dataclass(frozen=True)
class NeuronState:
    """Immutable snapshot of membrane potential and last output spike."""

    u: np.ndarray
    o: np.ndarray

    @staticmethod
    def zeros(shape) -> "NeuronState":
        return NeuronState(u=np.zeros(shape, dtype=np.float64), o=np.zeros(shape, dtype=np.float64))


def scan(x, p: NeuronParams, beta=None, state: NeuronState | None = None,
         smoothed: bool = False, keep: str | None = "u"):
    """Run the model named by ``p.model`` over a ``(T, ...)`` drive; returns ``(held, o)``.

    ``o[t]`` is the output after step ``t``, starting from ``state`` (rest,
    with no prior spike, when None); ``beta`` is the model's gain, if it has
    one. A drive in :data:`~spikekit.numerics.HARD_DTYPE` (a hard GEMM's
    product) is read as it is, each block's rows widened into the float64
    potential; any other is coerced to float64. Hard mode fires at
    ``u >= v_th`` and returns ``o`` as ``bool``. Smoothed mode integrates
    the row's smoothed drive and emits the float64
    ``logistic((u - v_th) / surrogate_width)``.

    ``keep`` names what ``held`` is, and so how much potential the scan
    holds. Every call runs one loop over blocks of steps, each block's drive
    formed on its own, the potential ``u`` held in one buffer of a block's
    steps:

    * ``"u"``: ``held`` is the float64 ``u``, ``u[t]`` the potential after
      step ``t``; one block holds the whole window.
    * ``"window"``: ``held`` is ``u``'s :func:`surrogate_window`, bit-packed
      along the neuron axis by :func:`~spikekit.numerics.pack_rows`:
      ``uint8``, ``ceil(neurons / 8)`` bytes per row, one bit per neuron and
      step; :func:`~spikekit.numerics.unpack_rows` gives the ``bool`` mask.
      Its blocks are :func:`~spikekit.numerics.blocks`' grid, and each
      block's mask is packed into ``held`` as it forms, so no whole-window
      ``bool`` mask exists.
    * None: ``held`` is None. A block is one step, so the scan holds one
      ``(batch..., neurons)`` row of potential, updated in place, and a gain
      model's drive is formed one row at a time.

    Each step writes its preallocated rows with ``out=`` ufuncs. Hard mode
    carries one factor ``leak * (1 - o)``, exactly ``leak`` or ``+0.0`` for
    its 0/1 spikes, so ``u * carry`` equals ``(leak * u) * (1 - o)`` bit for
    bit; smoothed mode keeps that grouping. The spikes are the same bits
    whatever ``keep`` is.
    """
    model = MODEL_TABLE[p.model]
    x = np.asarray(x)
    if x.dtype != numerics.HARD_DTYPE:  # a hard GEMM's drive is read by blocks, not copied
        x = numerics.as_dense(x)
    numerics.require_finite(x, "weighted input")
    if model.gain:
        if beta is None:
            raise ConfigError(f"{p.model} requires a beta vector")
        beta = numerics.as_dense(beta)
        if beta.shape != x.shape[-1:]:
            raise DimensionError(
                f"beta shape {beta.shape} does not match neuron count of input shape {x.shape}"
            )
    leak = model.leak(p)
    drive = model.smoothed_drive if smoothed else model.drive
    if keep == "u":
        grid = [slice(0, len(x))]
    elif keep == "window":
        grid = numerics.blocks(len(x), math.prod(x.shape[1:-1]))
    elif keep is None:
        grid = [slice(t, t + 1) for t in range(len(x))]
    else:
        raise ConfigError(f"scan keeps 'u', 'window' or None, got {keep!r}")
    o = np.empty(x.shape) if smoothed else np.empty(x.shape, dtype=bool)
    u_prev, o_prev = (0.0, 0.0) if state is None else (state.u, state.o)
    u_prev = u_prev if smoothed else leak * u_prev  # the start state, in the textbook grouping
    carry = np.subtract(1.0, o_prev, out=np.empty(x.shape[1:]))
    u = np.empty(x[grid[-1]].shape if grid else x.shape)  # the last block is the longest
    held = u if keep == "u" else None
    if keep == "window":
        held = np.empty((*x.shape[:-1], -(-x.shape[-1] // 8)), dtype=np.uint8)
        # Rows of whole bytes whose padding stays 0, so they pack as one run.
        mask = np.zeros((*u.shape[:-1], 8 * held.shape[-1]), dtype=bool)
    for steps in grid:
        start, stop = steps.start, steps.stop
        for k, d in enumerate(drive(x[steps], beta)):
            if smoothed:
                u_prev = np.multiply(u_prev, leak, out=u[k])
            np.multiply(u_prev, carry, out=u[k])
            u_prev = np.add(u[k], d, out=u[k])
            if smoothed:
                z = np.divide(np.subtract(u_prev, p.v_th, out=carry), p.surrogate_width, out=carry)
                np.subtract(1.0, sigmoid(z, out=o[start + k]), out=carry)
            else:
                np.logical_not(np.greater_equal(u_prev, p.v_th, out=o[start + k]), out=carry)
                carry *= leak
        if keep == "window":
            u_prev = u_prev.copy()  # the buffer becomes the mask's scratch
            surrogate_window(u[:stop - start], p, out=mask[:stop - start, ..., :x.shape[-1]])
            held[start:stop] = numerics.pack_rows(mask[:stop - start])
    return held, o


def step(state: NeuronState, x, p: NeuronParams, beta=None) -> NeuronState:
    """One timestep from ``state``: :func:`scan` over a window of one."""
    u, o = scan(numerics.as_dense(x)[None], p, beta, state)
    return NeuronState(u=u[0], o=o[0])


def surrogate_window(u, p: NeuronParams, out: np.ndarray | None = None) -> np.ndarray:
    """The ``bool`` mask ``|u - v_th| <= surrogate_width / 2``.

    It marks where the rectangular surrogate lets a spiking gradient
    through; the surrogate derivative is this mask divided by
    ``surrogate_width``. Given a ``bool`` array ``out``, the mask is written
    there and the float64 array ``u`` is used as scratch, left holding
    ``|u - v_th|``.
    """
    scratch = None if out is None else u
    return np.less_equal(np.abs(np.subtract(u, p.v_th, out=scratch), out=scratch),
                         p.surrogate_width / 2.0, out=out)
