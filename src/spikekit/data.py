"""Spike datasets: Poisson pattern generation, event-file ingestion, binning.

Three ways to get a binary spike tensor of shape (samples, neurons, T):

* generate class-templated Poisson patterns (:func:`gen_poisson_patterns`),
* load event streams from CSV files listed in a JSON manifest
  (:func:`load_events_csv`) and bin them onto a pixel/polarity grid
  (:func:`bin_events`),
* reload a previously saved binary cache (:func:`load_dataset_cache`).

Every path ends in a :class:`Dataset` whose entries are exactly 0 or 1,
held as ``uint8``: a spike takes one byte until the engine casts a batch
of them to float64 for its GEMM.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheMismatchError, ConfigError, DataError, EmptySampleError

log = logging.getLogger(__name__)

EVENT_HEADER = "t,x,y,polarity"
_INT64_MAX = int(np.iinfo(np.int64).max)
_STRIP_ONLY_SPACE = "\x1c\x1d\x1e\x1f"  # whitespace to str.strip(), not to int()
# A line both parsers read alike: four ASCII integer fields that fit int64
# (18 digits do), polarity 0 or 1. Any other line is odd.
_ODD_LINE = re.compile(r"^(?![0-9]{1,18},[0-9]{1,18},[0-9]{1,18},[01]$).*$", re.MULTILINE)

_CACHE_MAGIC = b"SKCACHE"
_CACHE_VERSION = 1
# The largest class count the cache header's uint32 field holds; a label
# must lie below it.
MAX_CLASS_COUNT = 2**32 - 1
_SPLITS = ("train", "test")


def _binary_uint8(data: np.ndarray) -> np.ndarray:
    """``data`` as ``uint8``, after checking on its own dtype that it holds only 0 and 1.

    Checking before the cast keeps an integer such as 256 from wrapping to
    a valid 0; integer input costs a reduction or two, not a full-size
    boolean temporary.
    """
    kind = data.dtype.kind
    if kind == "f":
        binary = np.all((data == 0.0) | (data == 1.0))
    elif kind in "iu":
        binary = data.max(initial=0) <= 1 and (kind == "u" or data.min(initial=0) >= 0)
    else:
        binary = kind == "b"
    if not binary:
        raise DataError(f"spike tensor entries must be exactly 0 or 1 (got {data.dtype} data)")
    return data.astype(np.uint8, copy=False)


@dataclass
class Dataset:
    """Spike tensor ``data`` of shape (samples, neurons, timesteps), held as ``uint8``.

    Any real, integer or boolean array of 0s and 1s is accepted; anything
    else raises :class:`DataError`.
    """

    data: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str = "train"

    def __post_init__(self):
        self.data = np.asarray(self.data)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.data.ndim != 3:
            raise DataError(f"dataset tensor must be 3-d, got shape {self.data.shape}")
        if self.data.shape[0] == 0:
            raise DataError("dataset holds no samples")
        if self.labels.shape != (self.data.shape[0],):
            raise DataError(
                f"{self.labels.shape[0] if self.labels.ndim == 1 else self.labels.shape} "
                f"labels for {self.data.shape[0]} samples"
            )
        if self.split not in _SPLITS:
            raise DataError(f"split must be one of {_SPLITS}, got {self.split!r}")
        if self.class_count < 1:
            raise DataError("class_count must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(
                f"labels must lie in [0, {self.class_count}), found range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        self.data = _binary_uint8(self.data)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def neurons(self) -> int:
        return self.data.shape[1]

    @property
    def timesteps(self) -> int:
        return self.data.shape[2]


def gen_poisson_patterns(class_count, neurons, timesteps, rate_lo, rate_hi,
                         n_per_class, seed, split="train") -> Dataset:
    """Bernoulli spike trains drawn from fixed per-class rate templates.

    Each class gets a per-neuron firing rate drawn uniformly from
    [rate_lo, rate_hi); every sample then spikes independently per
    (neuron, timestep) at its class rate. The templates depend only on
    ``seed``, so the train and test splits of the same seed share class
    structure while drawing disjoint sample noise.
    """
    if not (0.0 <= rate_lo < rate_hi <= 1.0):
        raise ConfigError(
            f"rates must satisfy 0 <= rate_lo < rate_hi <= 1, got [{rate_lo}, {rate_hi}]"
        )
    if class_count < 1 or neurons < 1 or timesteps < 1 or n_per_class < 1:
        raise ConfigError("class_count, neurons, timesteps, n_per_class must all be >= 1")
    if split not in _SPLITS:
        raise ConfigError(f"split must be one of {_SPLITS}, got {split!r}")

    template_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    templates = template_rng.uniform(rate_lo, rate_hi, size=(class_count, neurons))

    draw_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(1 if split == "train" else 2,))
    )
    data = np.empty((class_count * n_per_class, neurons, timesteps), dtype=np.uint8)
    for c in range(class_count):
        uniforms = draw_rng.random((n_per_class, neurons, timesteps))
        data[c * n_per_class:(c + 1) * n_per_class] = uniforms < templates[c][None, :, None]
    labels = np.repeat(np.arange(class_count, dtype=np.int64), n_per_class)
    return Dataset(data=data, labels=labels, class_count=class_count, split=split)


def _first_invalid_row(events: np.ndarray) -> int | None:
    """Index of the first row breaking t, x, y >= 0 or polarity in {0, 1}; None if none does.

    ``events`` must be non-empty.
    """
    if events.min() >= 0 and events[:, 3].max() <= 1:
        return None
    return int(np.argmax((events < 0).any(axis=1) | (events[:, 3] > 1)))


def _loadtxt(body: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, comments=None, ndmin=2)


def _parse_fast(text: str) -> np.ndarray | None:
    """All lines as int64 columns in one parse, or None if the file needs the odd-line path."""
    # numpy's (2.4) integer parser reads non-ASCII letters as digits and can
    # segfault on astral ones, and it skips \x1c-\x1f around a field where
    # int() does not; such text goes to _parse_odd_lines, which hands loadtxt
    # only lines of the plain form.
    if not text.isascii() or any(c in text for c in _STRIP_ONLY_SPACE):
        return None
    first, _, rest = text.partition("\n")
    body = rest if first.strip() == EVENT_HEADER else text
    try:
        # Any warning, such as "input contained no data", falls back too.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = _loadtxt(body)
    except (ValueError, Warning):
        return None
    if events.shape[1] != 4 or _first_invalid_row(events) is not None:
        return None
    return events


def _parse_lines(lines) -> tuple:
    """The per-line rules: returns ({line index: row} of kept lines, number of lines dropped)."""
    kept = {}
    dropped = 0
    for k, raw in enumerate(lines):
        line = raw.strip()
        if not line or line == EVENT_HEADER:
            continue
        try:
            t, x, y, polarity = map(int, line.split(","))  # four fields, or ValueError
        except ValueError:
            dropped += 1
            continue
        if t < 0 or x < 0 or y < 0 or polarity not in (0, 1) or max(t, x, y) > _INT64_MAX:
            dropped += 1
        else:
            kept[k] = (t, x, y, polarity)
    return kept, dropped


def _parse_odd_lines(text: str) -> tuple:
    """Events in file order and the number of lines dropped, for a text
    :func:`_parse_fast` refused.

    Only the odd lines, those not of the plain form, take the per-line
    rules; all other lines go through one ``np.loadtxt``, and the kept odd
    rows are put back at their file positions.
    """
    odd = list(_ODD_LINE.finditer(text))
    kept, dropped = _parse_lines(m[0] for m in odd)
    pieces, plain_before, plain_lines, start = [], [], 0, 0
    for m in odd:
        piece = text[start:m.start()]  # whole plain lines, each ending in "\n"
        pieces.append(piece)
        plain_lines += piece.count("\n")
        plain_before.append(plain_lines)
        start = m.end() + 1
    pieces.append(text[start:])
    body = "".join(pieces)
    events = _loadtxt(body) if body else np.empty((0, 4), dtype=np.int64)
    if kept:
        events = np.insert(events, [plain_before[k] for k in kept], list(kept.values()), axis=0)
    return events, dropped


def load_events_csv(manifest_path) -> list:
    """Load event streams listed in a JSON manifest of {path, label} pairs.

    Returns one ``(events, label)`` pair per entry, where ``events`` is an
    ``(n, 4)`` int64 array of ``t, x, y, polarity`` rows, stably sorted by
    ``t``. Paths are resolved relative to the manifest; an entry needs a
    string ``path`` and an integer ``label`` in [0, ``MAX_CLASS_COUNT``).
    Each file is parsed in one vectorized pass. In a file that pass cannot
    take whole, one regex pass finds the odd lines, those that are not four
    ASCII digit fields of at most 18 digits with polarity 0 or 1: only they
    take the per-line rules, and one more ``np.loadtxt`` reads the rest, so
    numpy's parser never sees non-ASCII text. Under those rules, lines that
    do not parse as "t,x,y,polarity" with valid ranges and values that fit
    int64 are dropped and counted. A file whose malformed lines exceed 1% of
    its event lines is rejected. An empty file yields a ``(0, 4)`` array,
    left for the binning stage to reject.
    """
    manifest_path = Path(manifest_path)
    try:
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise DataError(f"manifest {manifest_path} must be a JSON list of {{path, label}}")

    out = []
    for i, entry in enumerate(entries):
        where = f"manifest {manifest_path} entry {i}"
        if not isinstance(entry, dict) or "path" not in entry or "label" not in entry:
            raise DataError(f"{where} must be an object with path and label")
        label = entry["label"]
        if (isinstance(label, bool) or not isinstance(label, int)
                or not 0 <= label < MAX_CLASS_COUNT):
            raise DataError(
                f"{where} label must be a non-negative integer below {MAX_CLASS_COUNT}"
            )
        if not isinstance(entry["path"], str):
            raise DataError(f"{where} path must be a string")
        file_path = Path(entry["path"])
        if not file_path.is_absolute():
            file_path = manifest_path.parent / file_path

        try:
            # Text mode: universal newlines, and lines split on "\n" only,
            # as iterating the file would.
            with open(file_path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{file_path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        events, dropped = _parse_fast(text), 0
        if events is None:
            events, dropped = _parse_odd_lines(text)
        considered = len(events) + dropped
        if considered and dropped / considered > 0.01:
            raise DataError(
                f"{file_path}: {dropped} of {considered} event lines malformed (> 1%)"
            )
        if dropped:
            log.warning("%s: dropped %d malformed event line(s)", file_path, dropped)
        t = events[:, 0]
        if np.any(t[1:] < t[:-1]):  # a sorted stream is its own stable sort
            events = events[np.argsort(t, kind="stable")]
        out.append((events, label))
    return out


def bin_events(stream, grid_w, grid_h, timesteps) -> np.ndarray:
    """Bin an event stream into a ``uint8`` (2 * grid_w * grid_h, timesteps) spike frame.

    ``stream`` is an ``(n, 4)`` integer array, or a sequence of
    ``(t, x, y, polarity)`` rows. The stream's time range [t_min, t_max] is
    split into equal bins with the last bin right-closed so t_max lands in
    bin T-1; all arithmetic is integer, so bin placement is exact, and a
    stream whose time span times ``timesteps`` would overflow int64 is
    rejected. Pixel coordinates are downscaled onto the grid by an integer
    factor inferred from the stream's own extent, and the two polarity
    channels are stacked along the neuron axis. A cell is 1 if at least
    one event maps into it.
    """
    if timesteps < 1:
        raise ConfigError("timesteps must be >= 1")
    if grid_w < 1 or grid_h < 1:
        raise ConfigError("grid dimensions must be >= 1")
    events = np.asarray(stream)
    if events.size == 0:
        raise EmptySampleError("cannot bin a stream with no events")
    if events.ndim != 2 or events.shape[1] != 4 or events.dtype.kind not in "iu":
        raise DataError(f"events must be an (n, 4) integer array, got shape "
                        f"{events.shape} of {events.dtype}")
    events = events.astype(np.int64, copy=False)
    bad = _first_invalid_row(events)
    if bad is not None:
        raise DataError(f"invalid event {tuple(events[bad].tolist())} at row {bad}")

    t, x, y, polarity = events.T
    sensor_w = int(x.max()) + 1
    sensor_h = int(y.max()) + 1
    t_min = int(t.min())
    span = int(t.max()) - t_min
    if span * timesteps > _INT64_MAX:
        raise DataError(f"time span {span} x {timesteps} timesteps overflows int64")
    scale_x = -(-sensor_w // grid_w)
    scale_y = -(-sensor_h // grid_h)
    if max(scale_x, scale_y) > _INT64_MAX:
        raise DataError(f"pixel extent {sensor_w} x {sensor_h} over a {grid_w} x {grid_h} "
                        f"grid overflows int64")

    if span == 0:
        time_bin = np.zeros_like(t)
    else:
        time_bin = np.minimum(timesteps - 1, ((t - t_min) * timesteps) // span)
    neuron = polarity * (grid_w * grid_h) + (y // scale_y) * grid_w + (x // scale_x)
    frame = np.zeros((2 * grid_w * grid_h, timesteps), dtype=np.uint8)
    frame[neuron, time_bin] = 1
    return frame


def _params_digest(params: dict) -> bytes:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def save_dataset_cache(dataset: Dataset, path, params: dict) -> None:
    """Write the dataset as a versioned binary cache keyed by ``params``.

    ``params`` is whatever configuration produced the tensors (generator or
    binning settings); its hash goes into the header so a stale cache is
    detected instead of silently reused.
    """
    path = Path(path)
    header = struct.pack(
        "<7sB32sBIQII",
        _CACHE_MAGIC,
        _CACHE_VERSION,
        _params_digest(params),
        _SPLITS.index(dataset.split),
        dataset.class_count,
        len(dataset),
        dataset.neurons,
        dataset.timesteps,
    )
    body = dataset.labels.astype("<i8").tobytes() + dataset.data.tobytes()
    path.write_bytes(header + body)


def load_dataset_cache(path, params: dict) -> Dataset:
    path = Path(path)
    blob = path.read_bytes()
    header_size = struct.calcsize("<7sB32sBIQII")
    if len(blob) < header_size or blob[:7] != _CACHE_MAGIC:
        raise DataError(f"{path} is not a dataset cache")
    _, version, digest, split_idx, class_count, n, neurons, timesteps = struct.unpack(
        "<7sB32sBIQII", blob[:header_size]
    )
    if version != _CACHE_VERSION:
        raise DataError(f"{path}: unsupported cache version {version}")
    if digest != _params_digest(params):
        raise CacheMismatchError(
            f"{path}: cache was built with different parameters; regenerate it"
        )
    if split_idx >= len(_SPLITS):
        raise DataError(f"{path}: corrupt split tag {split_idx}")
    expected = header_size + n * 8 + n * neurons * timesteps
    if len(blob) != expected:
        raise DataError(f"{path}: cache is {len(blob)} bytes, expected {expected}")
    labels = np.frombuffer(blob, dtype="<i8", count=n, offset=header_size).copy()
    data = np.frombuffer(blob, dtype=np.uint8, count=n * neurons * timesteps,
                         offset=header_size + n * 8)
    data = data.reshape(n, neurons, timesteps).copy()  # writable, and not tied to ``blob``
    return Dataset(data=data, labels=labels, class_count=class_count,
                   split=_SPLITS[split_idx])
