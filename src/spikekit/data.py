"""Spike datasets: Poisson pattern generation, event-file ingestion, binning.

Three ways to get a binary spike tensor of shape (samples, neurons, T):

* generate class-templated Poisson patterns (:func:`gen_poisson_patterns`),
* load event streams from CSV files listed in a JSON manifest
  (:func:`load_events_csv`) and bin them onto a pixel/polarity grid
  (:func:`bin_events`),
* reload a previously saved binary cache (:func:`load_dataset_cache`).

Every path ends in a :class:`Dataset` whose entries are exactly 0 or 1.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheMismatchError, ConfigError, DataError, EmptySampleError

log = logging.getLogger(__name__)

EVENT_HEADER = "t,x,y,polarity"

_CACHE_MAGIC = b"SKCACHE"
_CACHE_VERSION = 1
_SPLITS = ("train", "test")


@dataclass(frozen=True)
class EventRecord:
    """One camera event: microsecond timestamp, pixel, polarity channel."""

    t: int
    x: int
    y: int
    polarity: int


@dataclass
class Dataset:
    data: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str = "train"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.data.ndim != 3:
            raise DataError(f"dataset tensor must be 3-d, got shape {self.data.shape}")
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
        if not np.all((self.data == 0.0) | (self.data == 1.0)):
            raise DataError("spike tensor entries must be exactly 0 or 1")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def neurons(self) -> int:
        return self.data.shape[1]

    @property
    def timesteps(self) -> int:
        return self.data.shape[2]

    @property
    def samples(self) -> list:
        return [(self.data[i], int(self.labels[i])) for i in range(len(self))]


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
    blocks = []
    for c in range(class_count):
        uniforms = draw_rng.random((n_per_class, neurons, timesteps))
        blocks.append((uniforms < templates[c][None, :, None]).astype(np.float64))
    data = np.concatenate(blocks, axis=0)
    labels = np.repeat(np.arange(class_count, dtype=np.int64), n_per_class)
    return Dataset(data=data, labels=labels, class_count=class_count, split=split)


def _parse_event_line(line: str) -> EventRecord | None:
    parts = line.split(",")
    if len(parts) != 4:
        return None
    try:
        t, x, y, polarity = (int(p) for p in parts)
    except ValueError:
        return None
    if t < 0 or x < 0 or y < 0 or polarity not in (0, 1):
        return None
    return EventRecord(t=t, x=x, y=y, polarity=polarity)


def load_events_csv(manifest_path) -> list:
    """Load event streams listed in a JSON manifest of {path, label} pairs.

    Paths are resolved relative to the manifest. Lines that do not parse as
    "t,x,y,polarity" with valid ranges are dropped and counted; a file
    whose malformed lines exceed 1% of its event lines is rejected.
    Streams come back sorted by timestamp (stable). An empty file yields an
    empty stream, left for the binning stage to reject.
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
        if not isinstance(entry, dict) or "path" not in entry or "label" not in entry:
            raise DataError(f"manifest entry {i} must be an object with path and label")
        label = entry["label"]
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            raise DataError(f"manifest entry {i} label must be a non-negative integer")
        file_path = Path(entry["path"])
        if not file_path.is_absolute():
            file_path = manifest_path.parent / file_path

        records = []
        dropped = 0
        try:
            with open(file_path, encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line or line == EVENT_HEADER:
                        continue
                    record = _parse_event_line(line)
                    if record is None:
                        dropped += 1
                    else:
                        records.append(record)
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{file_path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        considered = len(records) + dropped
        if considered and dropped / considered > 0.01:
            raise DataError(
                f"{file_path}: {dropped} of {considered} event lines malformed (> 1%)"
            )
        if dropped:
            log.warning("%s: dropped %d malformed event line(s)", file_path, dropped)
        records.sort(key=lambda r: r.t)
        out.append((records, label))
    return out


def bin_events(stream, grid_w, grid_h, timesteps) -> np.ndarray:
    """Bin an event stream into a (2 * grid_w * grid_h, timesteps) spike frame.

    The stream's time range [t_min, t_max] is split into equal bins with
    the last bin right-closed so t_max lands in bin T-1; all arithmetic is
    integer, so bin placement is exact. Pixel coordinates are downscaled
    onto the grid by an integer factor inferred from the stream's own
    extent, and the two polarity channels are stacked along the neuron
    axis. A cell is 1 if at least one event maps into it.
    """
    if timesteps < 1:
        raise ConfigError("timesteps must be >= 1")
    if grid_w < 1 or grid_h < 1:
        raise ConfigError("grid dimensions must be >= 1")
    stream = list(stream)
    if not stream:
        raise EmptySampleError("cannot bin a stream with no events")
    for r in stream:
        if r.t < 0 or r.x < 0 or r.y < 0 or r.polarity not in (0, 1):
            raise DataError(f"invalid event record {r}")

    sensor_w = max(r.x for r in stream) + 1
    sensor_h = max(r.y for r in stream) + 1
    scale_x = -(-sensor_w // grid_w)
    scale_y = -(-sensor_h // grid_h)
    t_min = min(r.t for r in stream)
    t_max = max(r.t for r in stream)
    span = t_max - t_min

    frame = np.zeros((2 * grid_w * grid_h, timesteps), dtype=np.float64)
    for r in stream:
        time_bin = 0 if span == 0 else min(timesteps - 1, ((r.t - t_min) * timesteps) // span)
        neuron = r.polarity * (grid_w * grid_h) + (r.y // scale_y) * grid_w + (r.x // scale_x)
        frame[neuron, time_bin] = 1.0
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
    body = dataset.labels.astype("<i8").tobytes() + dataset.data.astype(np.uint8).tobytes()
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
    data = data.reshape(n, neurons, timesteps).astype(np.float64)
    return Dataset(data=data, labels=labels, class_count=class_count,
                   split=_SPLITS[split_idx])
