"""Seeded event-set generator and an independent reference binning.

The generator writes CSV event files plus a JSON manifest, the only things
the program under test is handed, and returns the ground truth it wrote:
every valid event as integer columns and the number of malformed lines it
injected into each file.

File mix (fixed shares, so every seed has the same structure):

* ``clean``   - events sorted by timestamp, every line valid;
* ``unsorted``- the same kind of events in a shuffled line order;
* ``noisy``   - sorted, with malformed lines injected at random positions,
  fewer than 1% of the file's event lines, so the loader drops and counts
  them instead of rejecting the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FILE_MIX = {"clean": 0.7, "unsorted": 0.2, "noisy": 0.1}
SENSOR = 34              # 34 x 34 pixel sensor
CLASSES = 10
WINDOW_US = 300_000      # each recording spans at most 0.3 s
NOISY_MAX_SHARE = 0.008  # injected lines per valid event line, below the 1% limit

# Each malformed line breaks the "t,x,y,polarity" contract in its own way.
_MALFORMED = (
    "{t},{x},{y}",          # too few fields
    "{t},{x},{y},{p},0",    # too many fields
    "{t},{x},abc,{p}",      # not an integer
    "-{t},{x},{y},{p}",     # negative timestamp
    "{t},{x},{y},2",        # polarity outside {0, 1}
    "{t};{x};{y};{p}",      # wrong separator
)


@dataclass
class EventFile:
    path: Path
    label: int
    kind: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    injected: int

    @property
    def events(self) -> int:
        return int(self.t.size)


def _kinds(n_files: int, rng: np.random.Generator) -> list:
    counts = {kind: int(round(share * n_files)) for kind, share in FILE_MIX.items()}
    counts["clean"] += n_files - sum(counts.values())
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    return [kinds[i] for i in rng.permutation(n_files)]


def _events(label: int, n: int, rng: np.random.Generator):
    # A class-specific blob on the sensor plus uniform background activity.
    centre = np.array([(label % 5) * 7 + 3, (label // 5) * 17 + 8])
    blob = rng.random(n) < 0.7
    xy = np.where(blob[:, None],
                  np.rint(rng.normal(centre, 4.0, size=(n, 2))),
                  rng.integers(0, SENSOR, size=(n, 2)))
    xy = np.clip(xy, 0, SENSOR - 1).astype(np.int64)
    t = np.sort(rng.integers(0, WINDOW_US, size=n))
    p = rng.integers(0, 2, size=n)
    return t, xy[:, 0], xy[:, 1], p


def generate(out_dir, seed: int, n_files: int = 300, mean_events: int = 1000) -> tuple:
    """Write ``n_files`` event CSVs and a manifest under ``out_dir``.

    Returns ``(manifest_path, files)`` where ``files`` lists the ground
    truth of each file in manifest order. The same seed writes the same
    bytes.
    """
    if int(NOISY_MAX_SHARE * (mean_events * 4 // 5)) < 1:
        raise ValueError(f"mean_events {mean_events} is too few to inject a malformed line "
                         f"below the 1% limit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xE7,)))
    files = []
    for i, kind in enumerate(_kinds(n_files, rng)):
        label = int(rng.integers(0, CLASSES))
        n = int(rng.integers(mean_events * 4 // 5, mean_events * 6 // 5 + 1))
        t, x, y, p = _events(label, n, rng)
        order = rng.permutation(n) if kind == "unsorted" else np.arange(n)
        lines = [f"{a},{b},{c},{d}" for a, b, c, d in
                 zip(t[order].tolist(), x[order].tolist(), y[order].tolist(), p[order].tolist())]
        injected = 0
        if kind == "noisy":
            injected = int(rng.integers(1, int(NOISY_MAX_SHARE * n) + 1))
            slots = np.sort(rng.choice(n + injected, size=injected, replace=False))
            for slot in slots.tolist():
                form = _MALFORMED[int(rng.integers(0, len(_MALFORMED)))]
                j = int(rng.integers(0, n))
                lines.insert(slot, form.format(t=t[j] + 1, x=x[j], y=y[j], p=p[j]))
        path = out_dir / f"rec{i:04d}.csv"
        path.write_text("t,x,y,polarity\n" + "\n".join(lines) + "\n", encoding="utf-8")
        files.append(EventFile(path=path, label=label, kind=kind, t=t, x=x, y=y, p=p,
                               injected=injected))
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps([{"path": f.path.name, "label": f.label} for f in files]),
                        encoding="utf-8")
    return manifest, files


def reference_frame(f: EventFile, grid_w: int, grid_h: int, timesteps: int) -> np.ndarray:
    """Bin one file's ground-truth events with integer column arithmetic.

    Same documented placement rule as the program's binning: the stream's
    time range is split into ``timesteps`` equal bins with the last one
    right-closed, pixels are downscaled by the ceiling of the stream's own
    extent over the grid size, and the two polarities are stacked.
    """
    t, x, y, p = f.t, f.x, f.y, f.p
    scale_x = -(-(int(x.max()) + 1) // grid_w)
    scale_y = -(-(int(y.max()) + 1) // grid_h)
    t0 = int(t.min())
    span = int(t.max()) - t0
    if span == 0:
        time_bin = np.zeros_like(t)
    else:
        time_bin = np.minimum(timesteps - 1, ((t - t0) * timesteps) // span)
    neuron = p * (grid_w * grid_h) + (y // scale_y) * grid_w + (x // scale_x)
    frame = np.zeros((2 * grid_w * grid_h, timesteps), dtype=np.uint8)
    frame[neuron, time_bin] = 1
    return frame
