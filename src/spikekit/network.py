"""Feed-forward spiking network assembly.

A :class:`Network` is an ordered stack of fully connected spiking layers,
each holding a weight matrix, static neuron parameters, and the model's
trainable extras (the per-neuron cache gain ``beta`` for ``cached-aia``
layers, the raw leak parameter for ``plif`` layers). Its input width and
class count are those of its first and last layers. Class scores are read
out as the output layer's firing rate over the simulation window.

Checkpoints are JSON documents in which every 64-bit parameter array is
stored as a hex-encoded little-endian bit pattern, so a save/load round
trip is value-exact.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, read_json
from .neurons import MODEL_TABLE, NeuronParams

CHECKPOINT_FORMAT = "spikekit-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class Layer:
    """One fully connected spiking layer.

    ``w`` has shape (out_neurons, in_neurons). ``beta`` is present only for
    ``cached-aia`` layers (one gain per postsynaptic neuron); ``plif_raw``
    only for ``plif`` layers (a 0-d array so the trainer can update it in
    place).
    """

    w: np.ndarray
    neuron: NeuronParams
    beta: np.ndarray | None = None
    plif_raw: np.ndarray | None = None

    @property
    def out_width(self) -> int:
        return self.w.shape[0]

    @property
    def in_width(self) -> int:
        return self.w.shape[1]

    def params(self) -> NeuronParams:
        """Neuron parameters with the current trainable leak snapshot."""
        if self.plif_raw is not None:
            return dataclasses.replace(self.neuron, plif_raw=float(self.plif_raw))
        return self.neuron

    def copy(self) -> "Layer":
        return Layer(
            w=self.w.copy(),
            neuron=self.neuron,
            beta=None if self.beta is None else self.beta.copy(),
            plif_raw=None if self.plif_raw is None else self.plif_raw.copy(),
        )


def named_parameters(per_layer):
    """``("layer{i}.w", w)``, ``.beta`` and ``.plif_raw`` pairs, in order, of each layer's
    ``(w, beta, plif_raw)`` arrays or their gradients; a None array gets no name."""
    for i, arrays in enumerate(per_layer):
        for kind, arr in zip(("w", "beta", "plif_raw"), arrays):
            if arr is not None:
                yield f"layer{i}.{kind}", arr


@dataclass
class Network:
    """Ordered feed-forward stack, each layer's input width its predecessor's width."""

    timesteps: int
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("a network needs at least one layer")
        if self.timesteps < 1:
            raise ConfigError(f"timesteps must be >= 1, got {self.timesteps}")
        prev = self.input_width
        for i, layer in enumerate(self.layers):
            if layer.in_width != prev:
                raise DimensionError(
                    f"layer {i} expects input width {layer.in_width}, previous width is {prev}"
                )
            prev = layer.out_width

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    @property
    def class_count(self) -> int:
        return self.layers[-1].out_width

    def copy(self) -> "Network":
        return Network(self.timesteps, [layer.copy() for layer in self.layers])

    def parameter_items(self):
        """All trainable arrays as (name, array) pairs in a fixed order."""
        return named_parameters((layer.w, layer.beta, layer.plif_raw) for layer in self.layers)

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.parameter_items())

    def inference_parameter_count(self) -> int:
        """Parameters carrying information at inference time.

        Cache gains equal to the multiplicative identity are mergeable into
        the weights and therefore not counted; this is what makes a merged
        ``cached-aia`` network structurally equivalent to a plain ``lif``
        one.
        """
        return sum(arr.size for name, arr in self.parameter_items()
                   if not (name.endswith(".beta") and np.all(arr == 1.0)))


def init_network(
    layer_widths,
    model,
    timesteps: int,
    seed: int,
    v_th: float = NeuronParams.v_th,
    leak: float = NeuronParams.leak,
    surrogate_width: float = NeuronParams.surrogate_width,
) -> Network:
    """Build a network with scaled-normal ("kaiming") weight initialization.

    ``layer_widths`` runs from the input width to the class count, e.g.
    ``[64, 32, 4]``. Weights are drawn from a zero-mean normal with standard
    deviation sqrt(2 / fan_in); cache gains start at exactly 1 and the raw
    leak parameter at 0 (an effective leak of 0.5). The result is fully
    determined by ``seed``.

    ``model`` is one tag, applied to every layer. A leak the model does not
    train is stored as the one its dynamics use, so ``if`` layers store 1.
    """
    widths = list(layer_widths)
    if len(widths) < 2:
        raise ConfigError("layer_widths needs an input width and at least one layer")
    if any(w < 1 for w in widths):
        raise ConfigError(f"layer widths must be >= 1, got {widths}")
    neuron = NeuronParams(model=model, v_th=v_th, leak=leak, surrogate_width=surrogate_width)
    row = MODEL_TABLE[model]
    if not row.trained_leak:
        neuron = dataclasses.replace(neuron, leak=neuron.effective_leak())

    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        layers.append(
            Layer(
                w=w,
                neuron=neuron,
                beta=np.ones(fan_out) if row.gain else None,
                plif_raw=np.zeros(()) if row.trained_leak else None,
            )
        )
    return Network(timesteps, layers)


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def readout_and_loss(readout, labels):
    """Cross-entropy on the output firing rate.

    Takes the readout (a (batch, classes) array of per-sample firing rates)
    and integer labels; returns ``(loss, dL/d-readout, predictions)`` where
    the loss is averaged over the batch and predictions break rate ties
    toward the lower class index.
    """
    labels = np.asarray(labels, dtype=np.int64)
    batch, class_count = readout.shape
    if labels.shape != (batch,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch size {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise DataError(f"labels must lie in [0, {class_count}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    probs = softmax(readout)
    loss = float(-np.mean(np.log(probs[np.arange(batch), labels])))
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    grad /= batch
    predictions = np.argmax(readout, axis=1)
    return loss, grad, predictions


def merge_beta(net: Network) -> Network:
    """Fold cache gains into the weights: a pure transformation.

    Every ``cached-aia`` layer of the result has its weight rows scaled by
    the layer's gains and the gains reset to exactly 1, so the layer behaves
    as a plain leaky layer at inference while the readout changes only by
    floating-point association. Other layers are copied unchanged.
    """
    merged = net.copy()
    for layer in merged.layers:
        if layer.beta is not None:
            layer.w *= layer.beta[:, None]
            layer.beta[:] = 1.0
    return merged


def _encode_array(arr: np.ndarray) -> str:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes().hex()


def _decode_array(text, shape, path, field) -> np.ndarray:
    if not isinstance(text, str):
        raise DataError(f"checkpoint {path}: {field} must be a hex string")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise DataError(f"checkpoint {path}: {field} is not valid hex") from None
    expected = int(np.prod(shape)) if shape else 1
    if len(raw) != 8 * expected:
        raise DataError(
            f"checkpoint {path}: {field} holds {len(raw) / 8:g} values, expected {expected}"
        )
    flat = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise DataError(f"checkpoint {path}: {field} contains non-finite values")
    return flat.reshape(shape).copy()


def save_checkpoint(net: Network, path, seed: int | None = None) -> None:
    """Write the network to ``path`` as JSON with bit-exact parameter arrays."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": seed,
        "input_width": net.input_width,
        "timesteps": net.timesteps,
        "class_count": net.class_count,
        "layers": [
            {
                "model": layer.neuron.model,
                "v_th": layer.neuron.v_th,
                "leak": layer.neuron.leak,
                "surrogate_width": layer.neuron.surrogate_width,
                "shape": list(layer.w.shape),
                "w": _encode_array(layer.w),
                "beta": None if layer.beta is None else _encode_array(layer.beta),
                "plif_raw": None if layer.plif_raw is None else _encode_array(layer.plif_raw),
            }
            for layer in net.layers
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


_LAYER_FIELDS = ("model", "v_th", "leak", "surrogate_width", "shape", "w", "beta", "plif_raw")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_layer(entry, i: int, path) -> Layer:
    name = f"layer{i}"
    if not isinstance(entry, dict):
        raise DataError(f"checkpoint {path}: {name} must be an object")
    missing = [key for key in _LAYER_FIELDS if key not in entry]
    if missing:
        raise DataError(f"checkpoint {path}: {name} is missing {', '.join(missing)}")
    shape = entry["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(_is_int(v) and v >= 1 for v in shape)):
        raise DataError(f"checkpoint {path}: {name}.shape must be two positive integers")
    for key in ("v_th", "leak", "surrogate_width"):
        if not _is_number(entry[key]):
            raise DataError(f"checkpoint {path}: {name}.{key} must be a number")
    try:
        neuron = NeuronParams(model=entry["model"], v_th=entry["v_th"], leak=entry["leak"],
                              surrogate_width=entry["surrogate_width"])
    except ConfigError as exc:
        raise DataError(f"checkpoint {path}: {name}: {exc}") from None
    row = MODEL_TABLE[neuron.model]
    extras = {}
    for key, carried, extra_shape in (("beta", row.gain, (shape[0],)),
                                      ("plif_raw", row.trained_leak, ())):
        if (entry[key] is not None) != carried:
            state = "null" if entry[key] is None else "given"
            raise DataError(f"checkpoint {path}: {name}.{key} is {state} for a "
                            f"{neuron.model} layer")
        if entry[key] is not None:
            extras[key] = _decode_array(entry[key], extra_shape, path, f"{name}.{key}")
    return Layer(w=_decode_array(entry["w"], tuple(shape), path, f"{name}.w"),
                 neuron=neuron, **extras)


def load_checkpoint(path):
    """Read a checkpoint; returns ``(network, seed)``.

    A file that is not a well-formed checkpoint raises :class:`DataError`
    naming the file and the offending field, e.g. ``layer0.w``; so does a
    parameter array holding NaN or infinity, and a stored ``input_width`` or
    ``class_count`` that differs from the layers' own.
    """
    doc = read_json(path, "checkpoint", DataError)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a spikekit checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint {path}: unsupported version {doc.get('version')!r}")
    for key in ("input_width", "timesteps", "class_count"):
        if not _is_int(doc.get(key)):
            raise DataError(f"checkpoint {path}: {key} must be an integer")
    entries = doc.get("layers")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"checkpoint {path}: layers must be a non-empty list")
    layers = [_load_layer(entry, i, path) for i, entry in enumerate(entries)]
    try:
        net = Network(doc["timesteps"], layers)
    except (ConfigError, DimensionError) as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None
    for key, width in (("input_width", net.input_width), ("class_count", net.class_count)):
        if doc[key] != width:
            raise DataError(f"checkpoint {path}: {key} is {doc[key]}, but the layers give {width}")
    return net, doc.get("seed")
