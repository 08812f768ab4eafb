"""Golden outputs: sha256 digests of what the usual spikekit command set writes.

Run from anywhere; the commands run from the repository root:

    python tools/golden.py --write   # record tests/golden/digests.json
    python tools/golden.py --check   # recompute and compare with the record

The command set is ``train`` for all five models on configs/toy_poisson.json
and on configs/events_grid.json, ``eval`` and ``eval --merge-beta`` of every
trained checkpoint, ``analyze`` (lif against aia), ``gradcheck`` with the
default config and configs/gradcheck_wide.json, demos 01-05 and a fixed list
of bad configs (one names a checkpoint whose weight lies past the float32
range of hard-mode GEMMs). Each command's stdout, stderr and exit code are
recorded, and every file of its run directory except the wall-clock
``metrics.json``. In text, the ``<stamp>`` of a ``<stamp>-<command>`` run
directory and the temporary directory's path are normalized first. Beside
the commands, the record holds the datasets ``train`` builds from both
configs (each split's spikes and labels, the class count, the empty samples
skipped and the loader's warnings) and the ``bin_events`` frames of
tests/data/events.

The record holds the environment: Python, numpy, the BLAS numpy was built
with and the BLAS kernel. GEMM results can change with the BLAS build and CPU
kernel, so ``--check`` refuses to compare in another environment. The numpy
wheel's OpenBLAS picks its kernel from the CPU when it loads; this tool pins
it to ``Haswell`` (``OPENBLAS_CORETYPE``), which any x86-64 CPU with AVX2 can
run, so that the record checks on such hosts whatever their CPU. Exit codes:
0 every digest matches, 1 some differ, 3 the environment differs or the host
cannot run the pinned kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden" / "digests.json"
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
BLAS_CORE = "Haswell"
ENV_MISMATCH = 3


def runs_blas_core(machine: str = platform.machine(), cpuinfo: str = "/proc/cpuinfo") -> bool:
    """Whether this host is x86-64 with the ``avx2`` CPU flag that ``BLAS_CORE`` needs."""
    if machine.lower() not in ("x86_64", "amd64"):
        return False
    try:
        with open(cpuinfo, encoding="utf-8") as lines:
            return any(line.startswith("flags") and "avx2" in line.split() for line in lines)
    except OSError:
        return False


if __name__ == "__main__":
    if not runs_blas_core():
        print(f"golden: the record is pinned to OpenBLAS's {BLAS_CORE} kernel, which needs "
              f"an x86-64 CPU with AVX2; this {platform.machine()} host has none")
        sys.exit(ENV_MISMATCH)
    os.environ.update(BLAS_THREADS, OPENBLAS_CORETYPE=BLAS_CORE)  # before numpy loads
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spikekit import cli  # noqa: E402
from spikekit.data import bin_events, load_events_csv  # noqa: E402
from spikekit.errors import EmptySampleError  # noqa: E402
from spikekit.neurons import MODELS  # noqa: E402

TOY = "configs/toy_poisson.json"
EVENTS = "configs/events_grid.json"
EVENTS_MANIFEST = "tests/data/events/manifest.json"
STAMP = re.compile(r"\d{8}-\d{6}-\d{6}(?=-)")
WRITERS = ("train", "analyze")  # the commands that take --out

# name: (command, config file text); each runs with --config, and --out if it takes one.
BAD_CONFIGS = {
    "unknown-key": ("train", '{"train": {"lerning_rate": 0.1}}'),
    "wrong-type": ("gradcheck", '{"seed": "one"}'),
    "unknown-model": ("train", '{"model": "nope"}'),
    "out-of-range": ("train", '{"network": {"leak": 1.5}}'),
    "size-bound": ("train", '{"network": {"hidden": [9223372036854775808]}}'),
    "null-value": ("train", '{"timesteps": null}'),
    "not-json": ("gradcheck", '{"seed": 1,'),
    "not-an-object": ("train", "[1, 2]"),
    "rates-reversed": ("train", '{"dataset": {"rate_lo": 0.5, "rate_hi": 0.1}}'),
    "no-manifest": ("train", '{"dataset": {"kind": "events"}}'),
    "missing-manifest": ("train", '{"dataset": {"kind": "events", '
                                  '"manifest": "tests/data/events/missing.json"}}'),
    "corrupt-events": ("train", '{"dataset": {"kind": "events", '
                                '"manifest": "tests/data/events/bad_manifest.json"}}'),
    "class-count-below-label": ("train", '{"dataset": {"kind": "events", "manifest": '
                                         f'"{EVENTS_MANIFEST}", "class_count": 1}}}}'),
    "eval-without-checkpoint": ("eval", "{}"),
    "huge-integer": ("gradcheck", '{"seed": ' + "9" * 5000 + "}"),
    "nul-in-path": ("train", '{"dataset": {"kind": "events", "manifest": "a\\u0000b"}}'),
    "weight-past-float32": ("eval", '{"checkpoint": "tests/data/checkpoints/weight_past_float32'
                                    '.json", "dataset": {"neurons": 2, "class_count": 2}}'),
}


def env() -> dict:
    """The environment a record is valid in."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_core": BLAS_CORE}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha256(array) -> str:
    return _sha256(f"{array.dtype} {array.shape}\n".encode() + array.tobytes())


def _normalize(text: str, tmp: Path) -> bytes:
    return STAMP.sub("<stamp>", text.replace(str(tmp), "<tmp>")).encode()


class Recorder:
    """Runs commands under one temporary directory and collects their digests."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.exit: dict[str, int] = {}
        self.sha256: dict[str, str] = {}

    def _record(self, label: str, code: int, stdout: str, stderr: str) -> None:
        self.exit[label] = code
        self.sha256[f"{label}/stdout"] = _sha256(_normalize(stdout, self.tmp))
        self.sha256[f"{label}/stderr"] = _sha256(_normalize(stderr, self.tmp))

    def cli(self, label: str, *argv: str) -> Path | None:
        """``spikekit <argv>`` in this process; returns its run directory, if any.

        A command that takes ``--out`` writes under ``<tmp>/<label>``.
        """
        out = self.tmp / label
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, *(["--out", str(out)] if argv[0] in WRITERS else [])])
        self._record(label, code, stdout.getvalue(), stderr.getvalue())
        run_dirs = sorted(out.glob("*")) if out.is_dir() else []
        if len(run_dirs) > 1:
            raise RuntimeError(f"{label} made {len(run_dirs)} run directories")
        for run_dir in run_dirs:
            for path in sorted(run_dir.iterdir()):
                if path.name == "metrics.json":  # wall-clock time
                    continue
                text = path.read_text(encoding="utf-8")
                self.sha256[f"{label}/{path.name}"] = _sha256(_normalize(text, self.tmp))
        return run_dirs[0] if run_dirs else None

    def datasets(self) -> None:
        """What ``train`` builds from each config: every split's spikes and
        labels, the class count, the empty samples skipped and the warnings
        the loader logs."""
        logger = logging.getLogger("spikekit")
        for name, config in (("toy", TOY), ("events", EVENTS)):
            warnings = io.StringIO()
            handler = logging.StreamHandler(warnings)
            logger.addHandler(handler)
            try:
                datasets, skipped = cli._datasets(cli.validate_config(cli.load_config(config)))
            finally:
                logger.removeHandler(handler)
            for split, dataset in datasets.items():
                self.sha256[f"dataset-{name}/{split}.data"] = _array_sha256(dataset.data)
                self.sha256[f"dataset-{name}/{split}.labels"] = _array_sha256(dataset.labels)
            counts = f"class_count {datasets['train'].class_count}, skipped {skipped}\n"
            self.sha256[f"dataset-{name}/counts"] = _sha256(counts.encode())
            self.sha256[f"dataset-{name}/warnings"] = _sha256(warnings.getvalue().encode())

    def frames(self) -> None:
        """``bin_events`` of every tests/data/events stream, at two grids and windows."""
        digest = hashlib.sha256()
        # noisy.csv's dropped-line warning: the dataset-events record holds it,
        # so here it goes to a handler that drops it.
        quiet = logging.NullHandler()
        logging.getLogger("spikekit").addHandler(quiet)
        try:
            streams = load_events_csv(EVENTS_MANIFEST)
        finally:
            logging.getLogger("spikekit").removeHandler(quiet)
        for grid_w, grid_h, timesteps in ((8, 8, 8), (3, 5, 13)):
            for events, label in streams:
                try:
                    frame = bin_events(events, grid_w, grid_h, timesteps)
                except EmptySampleError:
                    digest.update(f"label {label}: empty\n".encode())
                    continue
                digest.update(f"label {label}: {frame.dtype} {frame.shape}\n".encode())
                digest.update(frame.tobytes())
        self.sha256["bin-events/frames"] = digest.hexdigest()

    def bad_configs(self) -> None:
        for name, (command, text) in BAD_CONFIGS.items():
            path = self.tmp / f"bad-{name}.json"
            path.write_text(text, encoding="utf-8")
            self.cli(f"bad-{name}", command, "--config", str(path))

    def blas_free(self) -> None:
        """What no GEMM touches: datasets, frames, bad configs."""
        self.datasets()
        self.frames()
        self.bad_configs()

    def models(self) -> None:
        checkpoints = {}
        for model in MODELS:
            run_dir = self.cli(f"train-{model}", "train", "--config", TOY, "--model", model)
            checkpoints[model] = (TOY, run_dir / "checkpoint.json")
        run_dir = self.cli("train-events", "train", "--config", EVENTS)
        checkpoints["events"] = (EVENTS, run_dir / "checkpoint.json")
        for name, (config, checkpoint) in checkpoints.items():
            for extra in ((), ("--merge-beta",)):
                label = f"eval-{name}" + ("-merge-beta" if extra else "")
                self.cli(label, "eval", "--config", config, "--checkpoint", str(checkpoint),
                         *extra)
        self.cli("analyze", "analyze", "--config", TOY,
                 "--checkpoint-a", str(checkpoints["lif"][1]),
                 "--checkpoint-b", str(checkpoints["aia"][1]))
        self.cli("gradcheck", "gradcheck")
        self.cli("gradcheck-wide", "gradcheck", "--config", "configs/gradcheck_wide.json")

    def demos(self) -> None:
        run_env = {**os.environ, **BLAS_THREADS, "OPENBLAS_CORETYPE": BLAS_CORE,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        for demo in sorted((ROOT / "demos").glob("[0-9][0-9]_*.py")):
            done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=run_env,
                                  capture_output=True, text=True, timeout=600)
            self._record(f"demo-{demo.stem}", done.returncode, done.stdout, done.stderr)

    def everything(self) -> dict:
        self.blas_free()
        self.models()
        self.demos()
        return {"exit": dict(sorted(self.exit.items())),
                "sha256": dict(sorted(self.sha256.items()))}


def _compare(recorded: dict, got: dict) -> list[str]:
    problems = []
    for section in ("exit", "sha256"):
        want, have = recorded[section], got[section]
        for key in sorted(want.keys() | have.keys()):
            if key not in have:
                problems.append(f"{section} {key}: recorded, not produced")
            elif key not in want:
                problems.append(f"{section} {key}: produced, not recorded")
            elif want[key] != have[key]:
                problems.append(f"{section} {key}: {want[key]} recorded, {have[key]} now")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"record {RECORD.relative_to(ROOT)}")
    mode.add_argument("--check", action="store_true", help="compare with the record")
    args = parser.parse_args(argv)

    if args.check:
        recorded = json.loads(RECORD.read_text(encoding="utf-8"))
        if recorded["env"] != env():
            print(f"golden: environment {env()} differs from the recorded "
                  f"{recorded['env']}; not comparing")
            return ENV_MISMATCH
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix="spikekit-golden-") as tmp:
        got = Recorder(Path(tmp)).everything()
    count = len(got["exit"]) + len(got["sha256"])
    if args.write:
        RECORD.parent.mkdir(parents=True, exist_ok=True)
        RECORD.write_text(json.dumps({"env": env(), **got}, indent=1) + "\n", encoding="utf-8")
        print(f"golden: wrote {count} entries to {RECORD.relative_to(ROOT)}")
        return 0
    problems = _compare(recorded, got)
    for line in problems:
        print(f"golden: {line}")
    print(f"golden: FAIL, {len(problems)} entries differ" if problems
          else f"golden: pass, all {count} entries match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
