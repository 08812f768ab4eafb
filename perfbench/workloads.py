"""The benchmark workloads, each driving spikekit's public functions.

Each workload's task is one user-visible job, so that the gated
end-to-end figures of a workload time that job alone: a phase that
shared a task with a larger one would hide inside its time.

A workload has three parts:

* ``prepare(work_dir)`` writes the inputs the program is handed (event
  files, a checkpoint). It is the benchmark's own work and is not timed.
* ``setup()`` is what a user's process does before its first task:
  imports and any in-memory inputs the program builds itself. Its time
  from a fresh interpreter is ``setup_s``.
* ``task(obs)`` runs one task and returns an :class:`Outcome` with its
  phase timings and every failed output check.

``obs`` is a tracer (or ``None``) that receives the counts made at the
benchmark's own call boundaries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODELS = ("lif", "if", "plif", "aia", "cached-aia")


@dataclass
class Outcome:
    phases: dict = field(default_factory=dict)    # phase name -> wall seconds
    ops: int = 1                                  # operations attempted in the task
    failures: list = field(default_factory=list)  # one message per failed op

    @property
    def seconds(self) -> float:
        return sum(self.phases.values())


def _failed(failures: list, op: str, message: str) -> None:
    failures.append(f"{op}: {message}")


# ---------------------------------------------------------------------------


class WideTrain:
    """``training.train`` on a 700-256-256-10 ``aia`` network, T=100, B=128."""

    name = "wide_train"
    SIZES = {
        # widths, timesteps, samples per class, batch, epochs
        "full": ([700, 256, 256, 10], 100, 13, 128, 2),
        "tiny": ([70, 16, 16, 10], 20, 2, 8, 2),
    }
    # At the defaults (v_th 1, learning rate 1e-3) the four Adam steps push
    # the 10-neuron output layer towards silence, and at about one seed in
    # fifteen the liveness guard fails it. v_th 0.5 with rate 1e-4 keeps
    # every layer at 7-36% firing and 12% or more occupancy over 70 seeds.
    # The learning rate scales the steps, not the work done.
    V_TH = 0.5
    LEARNING_RATE = 1e-4
    FIRE_RANGE = (0.01, 0.50)
    MIN_OCCUPANCY = 0.05
    PROBE_SAMPLES = 16

    def __init__(self, root: Path, seed: int, size: str):
        self.seed = seed
        self.widths, self.timesteps, self.per_class, self.batch, self.epochs = self.SIZES[size]
        self.reference_losses = None

    def prepare(self, work: Path) -> None:
        pass

    def setup(self) -> None:
        from spikekit import bptt, data, network, training
        self.bptt, self.training = bptt, training
        self.dataset = data.gen_poisson_patterns(
            class_count=self.widths[-1], neurons=self.widths[0], timesteps=self.timesteps,
            rate_lo=0.05, rate_hi=0.5, n_per_class=self.per_class, seed=self.seed)
        self.net = network.init_network(self.widths, "aia", self.timesteps, self.seed,
                                        v_th=self.V_TH, leak=0.9)
        self.cfg = training.TrainConfig(epochs=self.epochs, batch_size=self.batch,
                                        seed=self.seed, learning_rate=self.LEARNING_RATE,
                                        model="aia", timesteps=self.timesteps)

    def task(self, obs=None) -> Outcome:
        started = time.perf_counter()
        trained, metrics = self.training.train(self.net, self.dataset, self.cfg)
        out = Outcome(phases={"train": time.perf_counter() - started})
        losses = [float(v) for v in metrics.train_loss]
        if not all(math.isfinite(v) for v in losses):
            _failed(out.failures, "train", f"non-finite loss {losses}")
        if self.reference_losses is None:
            self.reference_losses = losses
        elif losses != self.reference_losses:
            _failed(out.failures, "train", f"losses {losses} differ from the same-seed "
                                           f"run's {self.reference_losses}")
        cells = len(self.dataset) * self.timesteps
        for n, count in enumerate(metrics.spike_counts):
            rate = count / (cells * self.widths[n + 1])
            if not self.FIRE_RANGE[0] <= rate <= self.FIRE_RANGE[1]:
                _failed(out.failures, "train", f"layer {n} fires {rate:.2%}, outside "
                                               f"{self.FIRE_RANGE[0]:.0%}-{self.FIRE_RANGE[1]:.0%}")
        if obs is None:  # the probe's own forward pass must not land in a trace
            self._check_occupancy(trained, out.failures)
        return out

    def _check_occupancy(self, net, failures: list) -> None:
        """Share of membrane potentials inside the surrogate window, per layer."""
        tape, _ = self.bptt.forward_record(net, self.dataset.data[:self.PROBE_SAMPLES])
        for n, layer in enumerate(net.layers):
            p = layer.neuron
            u = np.stack(tape.u[n])
            share = float(np.mean(np.abs(u - p.v_th) <= p.surrogate_width / 2.0))
            if share <= self.MIN_OCCUPANCY:
                _failed(failures, "train", f"layer {n} surrogate-window occupancy "
                                           f"{share:.2%} <= {self.MIN_OCCUPANCY:.0%}")

    def throughput(self, typical: dict) -> float:
        """Trained samples per second."""
        return len(self.dataset) * self.epochs / typical["train"]

    def named(self, typical: dict, peak_mb: float) -> dict:
        return {"train_samples_per_s": (self.throughput(typical), "1/s"),
                "train_peak_mb": (peak_mb, "MB")}


# ---------------------------------------------------------------------------


class _Cli:
    """In-process ``spikekit`` commands, with their output captured.

    The inputs are the repository's own configs, which pin their seeds, so
    the benchmark seed does not vary them.
    """

    def setup(self) -> None:
        from spikekit import cli
        self.cli = cli

    def _run(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - started
        return code, seconds, sink.getvalue()


class ToyCli(_Cli):
    """``spikekit train`` on configs/toy_poisson.json, once per model."""

    name = "toy_cli"
    MIN_ACCURACY = 0.9

    def __init__(self, root: Path, seed: int, size: str):
        self.config = root / "configs" / "toy_poisson.json"
        self.reference = {}

    def prepare(self, work: Path) -> None:
        self.out = work / "runs"
        cfg = json.loads(self.config.read_text(encoding="utf-8"))
        ds = cfg["dataset"]
        self.samples_per_train = ds["train_per_class"] * ds["class_count"] * cfg["train"]["epochs"]

    def task(self, obs=None) -> Outcome:
        out = Outcome(ops=len(MODELS))
        for model in MODELS:
            code, seconds, text = self._run(["train", "--config", str(self.config),
                                             "--model", model, "--out", str(self.out)])
            out.phases[f"train.{model}"] = seconds
            if code != 0:
                _failed(out.failures, model, f"exit code {code}: {text.strip()[-300:]}")
                continue
            run_dir = Path(text.split("run directory: ", 1)[1].splitlines()[0])
            self._check_run(model, run_dir, out.failures)
            shutil.rmtree(run_dir)
        return out

    def _check_run(self, model: str, run_dir: Path, failures: list) -> None:
        csv = (run_dir / "metrics.csv").read_bytes()
        test_rows = [line.split(",") for line in csv.decode().splitlines()
                     if ",test," in line]
        accuracy = float(test_rows[-1][3]) if test_rows else float("nan")
        if not accuracy >= self.MIN_ACCURACY:
            _failed(failures, model, f"test accuracy {accuracy} < {self.MIN_ACCURACY}")
        digest = hashlib.sha256(csv + (run_dir / "checkpoint.json").read_bytes()).hexdigest()
        if self.reference.setdefault(model, digest) != digest:
            _failed(failures, model, "metrics.csv or checkpoint.json differs from the "
                                     "same-seed run")

    def throughput(self, typical: dict) -> float:
        """Trained samples per second over the five commands."""
        return len(MODELS) * self.samples_per_train / sum(typical.values())

    def named(self, typical: dict, peak_mb: float) -> dict:
        return {f"toy_train_s.{m}": (typical[f"train.{m}"], "s") for m in MODELS}


class GradcheckCli(_Cli):
    """``spikekit gradcheck`` on configs/gradcheck_wide.json: every model."""

    name = "gradcheck_cli"

    def __init__(self, root: Path, seed: int, size: str):
        self.config = root / "configs" / "gradcheck_wide.json"

    def prepare(self, work: Path) -> None:
        from spikekit import network
        cfg = json.loads(self.config.read_text(encoding="utf-8"))
        gc = cfg["gradcheck"]
        widths = [gc["input_width"], *gc["hidden"], gc["class_count"]]
        self.entries = sum(
            param.size
            for model in MODELS
            for _, param in network.init_network(widths, model, gc["timesteps"],
                                                 cfg["seed"]).parameter_items())

    def task(self, obs=None) -> Outcome:
        code, seconds, text = self._run(["gradcheck", "--config", str(self.config)])
        out = Outcome(phases={"gradcheck": seconds})
        if code != 0 or "gradcheck: pass" not in text:
            _failed(out.failures, "gradcheck", f"exit code {code}: {text.strip()[-300:]}")
        return out

    def throughput(self, typical: dict) -> float:
        """Parameter entries checked by finite differences per second."""
        return self.entries / typical["gradcheck"]

    def named(self, typical: dict, peak_mb: float) -> dict:
        return {"gradcheck_s": (typical["gradcheck"], "s")}


# ---------------------------------------------------------------------------


class _Capture(logging.Handler):
    """Collects the loader's dropped-line counts per file."""

    def __init__(self):
        super().__init__()
        self.dropped = {}

    def emit(self, record):
        if record.msg.startswith("%s: dropped %d"):
            path, count = record.args
            self.dropped[Path(path).name] = count


class _Events:
    """A seeded set of event CSVs written by ``eventgen`` for the program."""

    GRID, TIMESTEPS, CLASSES = 16, 100, 10
    SIZES = {"full": (300, 1000), "tiny": (20, 200)}  # files, mean events per file

    def __init__(self, root: Path, seed: int, size: str):
        self.seed = seed
        self.n_files, self.mean_events = self.SIZES[size]

    def prepare(self, work: Path) -> None:
        import eventgen
        self.manifest, self.truth = eventgen.generate(work / "events", self.seed,
                                                      self.n_files, self.mean_events)

    def setup(self) -> None:
        from spikekit import data, network, training
        self.data, self.network, self.training = data, network, training

    def _ingest(self, manifest: Path):
        """load_events_csv -> bin_events -> Dataset, as a user's script does.

        Returns the streams, frames, dataset, the wall seconds they took and
        the dropped-line counts the loader logged, per file name.
        """
        data = self.data
        capture = _Capture()
        logger = logging.getLogger("spikekit.data")
        logger.addHandler(capture)
        try:
            started = time.perf_counter()
            streams = data.load_events_csv(manifest)
            frames = [data.bin_events(records, self.GRID, self.GRID, self.TIMESTEPS)
                      for records, _ in streams]
            dataset = data.Dataset(np.stack(frames), [label for _, label in streams],
                                   self.CLASSES)
            seconds = time.perf_counter() - started
        finally:
            logger.removeHandler(capture)
        return streams, frames, dataset, seconds, capture.dropped


class EventsIngest(_Events):
    """Event CSVs -> ``load_events_csv`` -> ``bin_events`` -> ``Dataset``.

    The set is loaded as ten manifests of consecutive files, each a phase,
    as a script that streams a large set in chunks would. Each manifest's
    data is freed before the next is loaded.
    """

    name = "events_ingest"
    PARTS = 10

    def prepare(self, work: Path) -> None:
        import eventgen
        super().prepare(work)
        self.expected_frames = [eventgen.reference_frame(f, self.GRID, self.GRID,
                                                         self.TIMESTEPS) for f in self.truth]
        entries = json.loads(self.manifest.read_text(encoding="utf-8"))
        self.parts = []
        for k in range(self.PARTS):
            part = slice(k * len(entries) // self.PARTS, (k + 1) * len(entries) // self.PARTS)
            path = self.manifest.with_name(f"part{k}.json")
            path.write_text(json.dumps(entries[part]), encoding="utf-8")
            self.parts.append((path, part))

    def task(self, obs=None) -> Outcome:
        out = Outcome()
        for k, (manifest, part) in enumerate(self.parts):
            streams, frames, _, seconds, dropped = self._ingest(manifest)
            out.phases[f"part{k}"] = seconds
            kept = sum(len(records) for records, _ in streams)
            if obs is not None:
                obs.count("data.event_lines_read", kept + sum(dropped.values()))
                obs.count("data.events_kept", kept)
            self._check(part, streams, frames, dropped, out.failures)
        return out

    def _check(self, part: slice, streams, frames, dropped, failures) -> None:
        truth = self.truth[part]
        if len(streams) != len(truth):
            _failed(failures, "ingest", f"{len(streams)} streams for {len(truth)} files")
            return
        for f, (records, label), frame, expected in zip(truth, streams, frames,
                                                        self.expected_frames[part]):
            if label != f.label or len(records) != f.events:
                _failed(failures, "ingest", f"{f.path.name}: {len(records)} events, label "
                                            f"{label}; wrote {f.events}, label {f.label}")
            if dropped.get(f.path.name, 0) != f.injected:
                _failed(failures, "ingest", f"{f.path.name}: dropped "
                                            f"{dropped.get(f.path.name, 0)} lines, "
                                            f"injected {f.injected}")
            if not np.array_equal(frame, expected):
                _failed(failures, "bin", f"{f.path.name}: frame differs from the "
                                         f"reference binning")

    def throughput(self, typical: dict) -> float:
        """Events loaded and binned per second."""
        return sum(f.events for f in self.truth) / sum(typical.values())

    def named(self, typical: dict, peak_mb: float) -> dict:
        return {"ingest_events_per_s": (self.throughput(typical), "1/s")}


class EventsEval(_Events):
    """``load_checkpoint`` -> one ``evaluate`` over the whole ingested event set."""

    name = "events_eval"

    def prepare(self, work: Path) -> None:
        super().prepare(work)
        self.setup()
        # The ingest is the events_ingest workload's task; here it only
        # makes the input, untimed.
        self.dataset = self._ingest(self.manifest)[2]
        widths = [2 * self.GRID * self.GRID, 256, self.CLASSES]
        self.saved_net = self.network.init_network(widths, "lif", self.TIMESTEPS, self.seed,
                                                   v_th=0.5, leak=0.9)
        self.checkpoint = work / "checkpoint.json"
        self.network.save_checkpoint(self.saved_net, self.checkpoint, seed=self.seed)
        self.reference = None

    def task(self, obs=None) -> Outcome:
        started = time.perf_counter()
        net, _ = self.network.load_checkpoint(self.checkpoint)
        result = self.training.evaluate(net, self.dataset)
        out = Outcome(phases={"eval": time.perf_counter() - started})
        for mine, theirs in zip(self.saved_net.layers, net.layers):
            if not np.array_equal(mine.w, theirs.w):
                _failed(out.failures, "checkpoint", "loaded weights differ from the saved ones")
        summary = (result.loss, result.accuracy, tuple(result.spike_counts))
        if not (math.isfinite(result.loss) and 0.0 <= result.accuracy <= 1.0):
            _failed(out.failures, "evaluate", f"loss {result.loss}, "
                                              f"accuracy {result.accuracy}")
        if self.reference is None:
            self.reference = summary
        elif summary != self.reference:
            _failed(out.failures, "evaluate", f"{summary} differs from the same-seed pass "
                                              f"{self.reference}")
        return out

    def throughput(self, typical: dict) -> float:
        """Samples evaluated per second."""
        return len(self.dataset) / typical["eval"]

    def named(self, typical: dict, peak_mb: float) -> dict:
        return {"eval_samples_per_s": (self.throughput(typical), "1/s"),
                "eval_peak_mb": (peak_mb, "MB")}


WORKLOADS = {w.name: w for w in (WideTrain, ToyCli, GradcheckCli, EventsIngest, EventsEval)}
