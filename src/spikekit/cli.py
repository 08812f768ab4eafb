"""Command-line surface: train, eval, gradcheck, analyze.

Configuration is a strict JSON file: every key is checked against the
schema and unknown keys are rejected by their dotted path, so a typo like
"lerning_rate" fails loudly instead of silently using a default. Flags
override file values; the merged effective config is echoed into the run
directory. Each invocation that writes artifacts gets a fresh timestamped
subdirectory under --out, never reusing an existing one.

Every command validates its config, then loads every input (checkpoints,
datasets, the network), and only then makes its run directory, so a
command that exits 2 leaves none behind.

Exit codes: 0 success, 1 check failure, 2 usage/config/data error,
3 training divergence.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from . import bptt
from .data import MAX_COUNT, Dataset, bin_events, gen_poisson_patterns, load_events_csv
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    EmptySampleError,
    NumericError,
    SpikeKitError,
    TrainingDiverged,
    read_json,
)
from .network import init_network, load_checkpoint, merge_beta, save_checkpoint
from .neurons import MODELS, NeuronParams
from .training import (
    TrainConfig,
    covering_bin_edges,
    evaluate,
    train,
    weight_shift_report,
    write_metrics_csv,
    write_metrics_json,
    write_spike_counts_csv,
    write_weight_shift_csv,
)

# ---------------------------------------------------------------------------
# config schema

def _chk_int(path, value, lo=None, hi=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config key {path} must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(f"config key {path} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"config key {path} must be <= {hi}, got {value}")
    return value


def _chk_number(path, value, lo=None, hi=None, lo_strict=False, hi_strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"config key {path} must be a finite number, got {value}")
    if lo is not None and (value <= lo if lo_strict else value < lo):
        op = ">" if lo_strict else ">="
        raise ConfigError(f"config key {path} must be {op} {lo}, got {value}")
    if hi is not None and (value >= hi if hi_strict else value > hi):
        op = "<" if hi_strict else "<="
        raise ConfigError(f"config key {path} must be {op} {hi}, got {value}")
    return value


def _chk_str(path, value, options=None):
    if not isinstance(value, str):
        raise ConfigError(f"config key {path} must be a string")
    if "\0" in value:  # no file name holds one
        raise ConfigError(f"config key {path} must not contain a NUL character")
    if options is not None and value not in options:
        raise ConfigError(f"config key {path} must be one of {options}, got {value!r}")
    return value


# Every size key is bounded by name: by MAX_COUNT, or an event grid's side by
# MAX_GRID_SIDE, so that a square grid's 2 * 2**30 neurons lie inside
# MAX_COUNT. Sizes under these bounds can still ask numpy for more memory
# than there is.
MAX_GRID_SIDE = 2**15


def _size(lo=1, hi=MAX_COUNT):
    return lambda p, v: _chk_int(p, v, lo=lo, hi=hi)


def _number(**bounds):
    return lambda p, v: _chk_number(p, v, **bounds)


def _chk_sizes(path, value):
    if not isinstance(value, list):
        raise ConfigError(f"config key {path} must be a list of integers >= 1")
    return [_chk_int(f"{path}[{i}]", v, lo=1, hi=MAX_COUNT) for i, v in enumerate(value)]


def _apply_schema(section, schema: dict, prefix: str) -> dict:
    """Check ``section`` against ``schema``, whose entries are nested schemas
    or ``(default, checker)`` pairs.

    Only a ``None`` default may stay ``None``; every other value, defaults
    included, goes through its checker, so absent sections come back fully
    filled in.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"config key {prefix} must be an object")
    for key in section:
        if key not in schema:
            dotted = f"{prefix}.{key}" if prefix else key
            raise ConfigError(f"unknown config key {dotted!r}")
    out = {}
    for key, spec in schema.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if isinstance(spec, dict):
            out[key] = _apply_schema(section.get(key, {}), spec, dotted)
            continue
        default, check = spec
        value = section.get(key, default)
        out[key] = None if value is None and default is None else check(dotted, value)
    return out


_POISSON_SCHEMA = {
    "kind": ("poisson", lambda p, v: _chk_str(p, v, options=("poisson", "events"))),
    "class_count": (4, _size()),
    "neurons": (64, _size()),
    "rate_lo": (0.05, _number(lo=0.0, hi=1.0)),
    "rate_hi": (0.5, _number(lo=0.0, hi=1.0)),
    "train_per_class": (50, _size()),
    "test_per_class": (25, _size(lo=0)),
}

_EVENTS_SCHEMA = {
    "kind": ("events", lambda p, v: _chk_str(p, v, options=("poisson", "events"))),
    "manifest": (None, _chk_str),
    "grid_width": (8, _size(hi=MAX_GRID_SIDE)),
    "grid_height": (8, _size(hi=MAX_GRID_SIDE)),
    "class_count": (0, _size(lo=0)),
}


def _chk_dataset(path, value):
    kind = value.get("kind", "poisson") if isinstance(value, dict) else "poisson"
    _chk_str(f"{path}.kind", kind, options=("poisson", "events"))
    out = _apply_schema(value, _POISSON_SCHEMA if kind == "poisson" else _EVENTS_SCHEMA, path)
    if kind == "events" and out["manifest"] is None:
        raise ConfigError(f"config key {path}.manifest is required for events datasets")
    return out


# The network and train sections' keys are init_network's and TrainConfig's
# keyword names; the commands pass them straight through. A default that the
# library holds is read from it: NeuronParams, TrainConfig, bptt.gradcheck.
_GRADCHECK = inspect.signature(bptt.gradcheck).parameters
_TOP_SCHEMA = {
    "seed": (0, lambda p, v: _chk_int(p, v, lo=0)),
    "model": (NeuronParams.model, lambda p, v: _chk_str(p, v, options=MODELS)),
    "timesteps": (10, _size()),
    "checkpoint": (None, _chk_str),
    "checkpoint_a": (None, _chk_str),
    "checkpoint_b": (None, _chk_str),
    "network": {
        "hidden": ([32], _chk_sizes),
        "v_th": (NeuronParams.v_th, _number(lo=0.0, lo_strict=True)),
        "leak": (NeuronParams.leak, _number(lo=0.0, hi=1.0)),
        "surrogate_width": (NeuronParams.surrogate_width, _number(lo=0.0, lo_strict=True)),
    },
    "train": {
        "epochs": (20, lambda p, v: _chk_int(p, v, lo=1)),
        "batch_size": (20, _size()),
        "learning_rate": (TrainConfig.learning_rate, _number(lo=0.0)),
        "adam_beta1": (TrainConfig.adam_beta1, _number(lo=0.0, hi=1.0, hi_strict=True)),
        "adam_beta2": (TrainConfig.adam_beta2, _number(lo=0.0, hi=1.0, hi_strict=True)),
        "adam_eps": (TrainConfig.adam_eps, _number(lo=0.0, lo_strict=True)),
    },
    "dataset": ({}, _chk_dataset),
    "gradcheck": {
        "batch": (2, _size()),
        "input_width": (4, _size()),
        "hidden": ([6], _chk_sizes),
        "class_count": (3, _size(lo=2)),
        "timesteps": (3, _size()),
        "tolerance": (_GRADCHECK["tolerance"].default, _number(lo=0.0, lo_strict=True)),
        "step_size": (_GRADCHECK["step_size"].default, _number(lo=0.0, lo_strict=True)),
    },
}


def validate_config(raw: dict) -> dict:
    """Apply defaults and type checks; unknown keys fail by dotted path."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    effective = _apply_schema(raw, _TOP_SCHEMA, "")
    ds = effective["dataset"]
    if ds["kind"] == "poisson" and not ds["rate_lo"] < ds["rate_hi"]:
        raise ConfigError(
            f"config key dataset.rate_lo must be < dataset.rate_hi, "
            f"got [{ds['rate_lo']}, {ds['rate_hi']}]"
        )
    return effective


def load_config(path) -> dict:
    if path is None:
        return {}
    raw = read_json(path, "config file", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def effective_config(args: argparse.Namespace) -> dict:
    """The config file with the flags given on the command line laid over it."""
    merged = load_config(args.config)
    for key in ("seed", "model", "checkpoint", "checkpoint_a", "checkpoint_b"):
        if vars(args).get(key) is not None:
            merged[key] = vars(args)[key]
    return validate_config(merged)


def _open_run_dir(args: argparse.Namespace, cfg: dict) -> Path:
    """A fresh ``<stamp>-<command>`` directory under --out holding the effective config."""
    base = Path(args.out)
    base.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    run_dir = base / f"{stamp}-{args.command}"
    suffix = 1
    while run_dir.exists():
        run_dir = base / f"{stamp}-{args.command}-{suffix}"
        suffix += 1
    run_dir.mkdir()
    with open(run_dir / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"run directory: {run_dir}")
    return run_dir


def _datasets(cfg: dict, splits=("train", "test")):
    """Returns ({split: Dataset}, empty samples skipped) for those of ``splits`` the config holds.

    A Poisson config holds a test split when ``test_per_class`` > 0; an
    events manifest is loaded, binned and stacked as one train split.
    """
    ds = cfg["dataset"]
    if ds["kind"] == "poisson":
        return {split: gen_poisson_patterns(ds["class_count"], ds["neurons"], cfg["timesteps"],
                                            ds["rate_lo"], ds["rate_hi"],
                                            ds[f"{split}_per_class"], cfg["seed"], split=split)
                for split in splits if ds[f"{split}_per_class"] > 0}, 0

    frames, labels, skipped = [], [], 0
    try:
        streams = load_events_csv(ds["manifest"])
    except OSError as exc:  # an event file's error names that file; the manifest's, its key
        if exc.filename != str(Path(ds["manifest"])):
            raise
        raise ConfigError(f"config key dataset.manifest: cannot read {ds['manifest']}: {exc.strerror}")
    for events, label in streams:
        try:
            frames.append(bin_events(events, ds["grid_width"], ds["grid_height"],
                                     cfg["timesteps"]))
            labels.append(label)
        except EmptySampleError:
            skipped += 1
    if not frames:
        raise DataError(f"no usable samples in {ds['manifest']} ({skipped} empty)")
    largest = max(labels)
    class_count = ds["class_count"] or largest + 1
    if class_count <= largest:
        raise ConfigError(
            f"config key dataset.class_count is {class_count}, but manifest {ds['manifest']} "
            f"has label {largest}; it must be at least {largest + 1}"
        )
    return {"train": Dataset(np.stack(frames), np.asarray(labels, dtype=np.int64),
                             class_count)}, skipped


def _loaded(cfg: dict, splits=("train", "test")) -> dict:
    """:func:`_datasets`' splits, once the empty samples it skipped are reported on stderr."""
    datasets, skipped = _datasets(cfg, splits)
    if skipped:
        print(f"skipped {skipped} empty sample(s)", file=sys.stderr)
    return datasets


def _eval_split(cfg: dict) -> Dataset:
    """The test split when the config has one, else the train split; only that one is built."""
    ds = cfg["dataset"]
    split = "test" if ds["kind"] == "poisson" and ds["test_per_class"] > 0 else "train"
    return _loaded(cfg, (split,))[split]


def _naming(files: str, compute, *args):
    """``compute(*args)``; a checkpoint that does not fit the data, or whose weights
    do not fit a hard-mode GEMM, is an input error naming ``files``."""
    try:
        return compute(*args)
    except (DimensionError, NumericError) as exc:
        raise DataError(f"{files}: {exc}") from None


def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    train_cfg = TrainConfig(**cfg["train"], seed=cfg["seed"])
    datasets = _loaded(cfg)
    train_ds = datasets["train"]
    layer_cfg = dict(cfg["network"])
    widths = [train_ds.neurons, *layer_cfg.pop("hidden"), train_ds.class_count]
    net = init_network(widths, model=cfg["model"], timesteps=cfg["timesteps"],
                       seed=cfg["seed"], **layer_cfg)
    run_dir = _open_run_dir(args, cfg)

    trained, metrics = train(net, train_ds, train_cfg, datasets.get("test"))
    save_checkpoint(trained, run_dir / "checkpoint.json", seed=cfg["seed"])
    write_metrics_csv(metrics, run_dir / "metrics.csv")
    write_metrics_json(metrics, run_dir / "metrics.json")

    last = metrics.epoch_count - 1
    print(f"model {cfg['model']}: train accuracy {metrics.train_accuracy[last]:.4f}")
    if metrics.test_accuracy:
        print(f"model {cfg['model']}: test accuracy {metrics.test_accuracy[last]:.4f}")
    print(f"spike counts {metrics.spike_counts}")
    return 0


def cmd_eval(args: argparse.Namespace, cfg: dict) -> int:
    if cfg["checkpoint"] is None:
        raise ConfigError("eval needs a checkpoint (--checkpoint or config key)")
    net, _ = load_checkpoint(cfg["checkpoint"])
    dataset = _eval_split(cfg)

    result = _naming(f"checkpoint {cfg['checkpoint']}", evaluate, net, dataset)
    if args.merge_beta:
        plain_readout = result.readout
        result = _naming(f"checkpoint {cfg['checkpoint']} with --merge-beta", evaluate,
                         merge_beta(net), dataset)
        deviation = float(np.max(np.abs(plain_readout - result.readout)))
    print(f"loss {result.loss:.6f}")
    print(f"accuracy {result.accuracy:.4f}")
    for i, count in enumerate(result.spike_counts):
        print(f"layer {i} spikes {count}")
    if args.merge_beta:
        print(f"max readout deviation {deviation:.3e}")
    return 0


def cmd_gradcheck(args: argparse.Namespace, cfg: dict) -> int:
    gc = cfg["gradcheck"]
    widths = [gc["input_width"]] + gc["hidden"] + [gc["class_count"]]
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"], spawn_key=(9,)))
    inputs = (rng.random((gc["batch"], gc["input_width"], gc["timesteps"])) < 0.5
              ).astype(np.float64)
    labels = rng.integers(0, gc["class_count"], size=gc["batch"])

    all_passed = True
    for model in MODELS:
        net = init_network(widths, model=model, timesteps=gc["timesteps"], seed=cfg["seed"])
        report = bptt.gradcheck(net, inputs, labels, step_size=gc["step_size"],
                                tolerance=gc["tolerance"])
        print(f"model {model}")
        print(report.render())
        all_passed = all_passed and report.passed

    print(f"gradcheck: {'pass' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def cmd_analyze(args: argparse.Namespace, cfg: dict) -> int:
    path_a, path_b = cfg["checkpoint_a"], cfg["checkpoint_b"]
    if path_a is None or path_b is None:
        raise ConfigError("analyze needs checkpoint_a and checkpoint_b")
    net_a, _ = load_checkpoint(path_a)
    net_b, _ = load_checkpoint(path_b)
    dataset = _eval_split(cfg)

    # Computed before the run directory exists: checkpoints that do not fit
    # each other or the dataset are an input error too.
    edges = covering_bin_edges(net_a, net_b)
    deltas = _naming(f"checkpoints {path_a} and {path_b}", weight_shift_report,
                     net_a, net_b, edges)
    counts_a = _naming(f"checkpoint {path_a}", evaluate, net_a, dataset).spike_counts
    counts_b = _naming(f"checkpoint {path_b}", evaluate, net_b, dataset).spike_counts

    run_dir = _open_run_dir(args, cfg)
    write_weight_shift_csv(edges, deltas, run_dir / "weight_shift.csv")
    write_spike_counts_csv({"checkpoint_a": counts_a, "checkpoint_b": counts_b},
                           run_dir / "spike_counts.csv")
    print(f"weight-shift deltas sum {float(np.sum(deltas)):.3e}")
    print(f"spikes checkpoint_a {counts_a}")
    print(f"spikes checkpoint_b {counts_b}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "analyze": cmd_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikekit",
        description="Train and inspect small spiking networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", metavar="PATH", default=None)
        sp.add_argument("--seed", type=int, default=None, metavar="N")
        if name in ("train", "analyze"):
            sp.add_argument("--out", metavar="DIR", default="runs")
        if name == "train":
            sp.add_argument("--model", choices=MODELS, default=None)
        if name == "eval":
            sp.add_argument("--checkpoint", metavar="PATH", default=None)
            sp.add_argument("--merge-beta", action="store_true")
        if name == "analyze":
            sp.add_argument("--checkpoint-a", metavar="PATH", default=None)
            sp.add_argument("--checkpoint-b", metavar="PATH", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    warnings = logging.StreamHandler(sys.stderr)  # the package's warnings, for this call only
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("spikekit").addHandler(warnings)
    try:
        return _COMMANDS[args.command](args, effective_config(args))
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpikeKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logging.getLogger("spikekit").removeHandler(warnings)


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
