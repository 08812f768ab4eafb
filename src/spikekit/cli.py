"""Command-line surface: train, eval, gradcheck, analyze, gen-data.

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
import json
import math
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from . import bptt
from .data import (
    MAX_CLASS_COUNT,
    Dataset,
    bin_events,
    gen_poisson_patterns,
    load_events_csv,
    save_dataset_cache,
)
from .errors import ConfigError, DataError, EmptySampleError, SpikeKitError, TrainingDiverged
from .network import init_network, load_checkpoint, merge_beta, save_checkpoint
from .neurons import MODELS
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
    if options is not None and value not in options:
        raise ConfigError(f"config key {path} must be one of {options}, got {value!r}")
    return value


def _chk_int_list(path, value, lo=1):
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= lo for v in value
    ):
        raise ConfigError(f"config key {path} must be a list of integers >= {lo}")
    return list(value)


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
    "class_count": (4, lambda p, v: _chk_int(p, v, lo=1, hi=MAX_CLASS_COUNT)),
    "neurons": (64, lambda p, v: _chk_int(p, v, lo=1)),
    "rate_lo": (0.05, lambda p, v: _chk_number(p, v, lo=0.0, hi=1.0)),
    "rate_hi": (0.5, lambda p, v: _chk_number(p, v, lo=0.0, hi=1.0)),
    "train_per_class": (50, lambda p, v: _chk_int(p, v, lo=1)),
    "test_per_class": (25, lambda p, v: _chk_int(p, v, lo=0)),
}

_EVENTS_SCHEMA = {
    "kind": ("events", lambda p, v: _chk_str(p, v, options=("poisson", "events"))),
    "manifest": (None, _chk_str),
    "grid_width": (8, lambda p, v: _chk_int(p, v, lo=1)),
    "grid_height": (8, lambda p, v: _chk_int(p, v, lo=1)),
    "class_count": (0, lambda p, v: _chk_int(p, v, lo=0, hi=MAX_CLASS_COUNT)),
}


def _chk_dataset(path, value):
    kind = value.get("kind", "poisson") if isinstance(value, dict) else "poisson"
    _chk_str(f"{path}.kind", kind, options=("poisson", "events"))
    out = _apply_schema(value, _POISSON_SCHEMA if kind == "poisson" else _EVENTS_SCHEMA, path)
    if kind == "events" and out["manifest"] is None:
        raise ConfigError(f"config key {path}.manifest is required for events datasets")
    return out


# The network and train sections' keys are init_network's and TrainConfig's
# keyword names; the commands pass them straight through.
_TOP_SCHEMA = {
    "seed": (0, lambda p, v: _chk_int(p, v, lo=0)),
    "model": ("lif", lambda p, v: _chk_str(p, v, options=MODELS)),
    "timesteps": (10, lambda p, v: _chk_int(p, v, lo=1)),
    "checkpoint": (None, _chk_str),
    "checkpoint_a": (None, _chk_str),
    "checkpoint_b": (None, _chk_str),
    "network": {
        "hidden": ([32], _chk_int_list),
        "v_th": (1.0, lambda p, v: _chk_number(p, v, lo=0.0, lo_strict=True)),
        "leak": (0.5, lambda p, v: _chk_number(p, v, lo=0.0, hi=1.0)),
        "surrogate_width": (1.0, lambda p, v: _chk_number(p, v, lo=0.0, lo_strict=True)),
    },
    "train": {
        "epochs": (20, lambda p, v: _chk_int(p, v, lo=1)),
        "batch_size": (20, lambda p, v: _chk_int(p, v, lo=1)),
        "learning_rate": (1e-3, lambda p, v: _chk_number(p, v, lo=0.0)),
        "adam_beta1": (0.9, lambda p, v: _chk_number(p, v, lo=0.0, hi=1.0, hi_strict=True)),
        "adam_beta2": (0.999, lambda p, v: _chk_number(p, v, lo=0.0, hi=1.0, hi_strict=True)),
        "adam_eps": (1e-8, lambda p, v: _chk_number(p, v, lo=0.0, lo_strict=True)),
    },
    "dataset": ({}, _chk_dataset),
    "gradcheck": {
        "batch": (2, lambda p, v: _chk_int(p, v, lo=1)),
        "input_width": (4, lambda p, v: _chk_int(p, v, lo=1)),
        "hidden": ([6], _chk_int_list),
        "class_count": (3, lambda p, v: _chk_int(p, v, lo=2)),
        "timesteps": (3, lambda p, v: _chk_int(p, v, lo=1)),
        "tolerance": (1e-3, lambda p, v: _chk_number(p, v, lo=0.0, lo_strict=True)),
        "step_size": (1e-4, lambda p, v: _chk_number(p, v, lo=0.0, lo_strict=True)),
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
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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

    frames = []
    labels = []
    skipped = 0
    for events, label in load_events_csv(ds["manifest"]):
        try:
            frames.append(bin_events(events, ds["grid_width"], ds["grid_height"],
                                     cfg["timesteps"]))
            labels.append(label)
        except EmptySampleError:
            skipped += 1
    if not frames:
        raise DataError(f"no usable samples in {ds['manifest']} ({skipped} empty)")
    class_count = ds["class_count"] or max(labels) + 1
    return {"train": Dataset(np.stack(frames), np.asarray(labels, dtype=np.int64),
                             class_count, split="train")}, skipped


def _eval_split(cfg: dict) -> Dataset:
    """The test split when the config has one, else the train split; only that one is built."""
    ds = cfg["dataset"]
    split = "test" if ds["kind"] == "poisson" and ds["test_per_class"] > 0 else "train"
    datasets, skipped = _datasets(cfg, (split,))
    if skipped:
        print(f"skipped {skipped} empty sample(s)", file=sys.stderr)
    return datasets[split]


def cmd_train(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    train_cfg = TrainConfig(**cfg["train"], seed=cfg["seed"])
    datasets, skipped = _datasets(cfg)
    if skipped:
        print(f"skipped {skipped} empty sample(s)", file=sys.stderr)
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


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    if cfg["checkpoint"] is None:
        raise ConfigError("eval needs a checkpoint (--checkpoint or config key)")
    net, _ = load_checkpoint(cfg["checkpoint"])
    dataset = _eval_split(cfg)

    result = evaluate(net, dataset)
    if args.merge_beta:
        plain_readout = result.readout
        result = evaluate(merge_beta(net), dataset)
        deviation = float(np.max(np.abs(plain_readout - result.readout)))
    print(f"loss {result.loss:.6f}")
    print(f"accuracy {result.accuracy:.4f}")
    for i, count in enumerate(result.spike_counts):
        print(f"layer {i} spikes {count}")
    if args.merge_beta:
        print(f"max readout deviation {deviation:.3e}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
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


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    if cfg["checkpoint_a"] is None or cfg["checkpoint_b"] is None:
        raise ConfigError("analyze needs checkpoint_a and checkpoint_b")
    net_a, _ = load_checkpoint(cfg["checkpoint_a"])
    net_b, _ = load_checkpoint(cfg["checkpoint_b"])
    dataset = _eval_split(cfg)

    # Computed before the run directory exists: a checkpoint that does not
    # fit the dataset is an input error too.
    edges = covering_bin_edges(net_a, net_b)
    deltas = weight_shift_report(net_a, net_b, edges)
    counts_a = evaluate(net_a, dataset).spike_counts
    counts_b = evaluate(net_b, dataset).spike_counts

    run_dir = _open_run_dir(args, cfg)
    write_weight_shift_csv(edges, deltas, run_dir / "weight_shift.csv")
    write_spike_counts_csv({"checkpoint_a": counts_a, "checkpoint_b": counts_b},
                           run_dir / "spike_counts.csv")
    print(f"weight-shift deltas sum {float(np.sum(deltas)):.3e}")
    print(f"spikes checkpoint_a {counts_a}")
    print(f"spikes checkpoint_b {counts_b}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    ds = cfg["dataset"]
    datasets, skipped = _datasets(cfg)
    run_dir = _open_run_dir(args, cfg)

    train_ds = datasets["train"]
    if ds["kind"] == "poisson":
        test_samples = len(datasets["test"]) if "test" in datasets else 0
        manifest = {"train_samples": len(train_ds), "test_samples": test_samples}
        summary = f"train samples {len(train_ds)}, test samples {test_samples}"
    else:
        manifest = {"labels": train_ds.labels.tolist(), "samples": len(train_ds),
                    "skipped_empty": skipped}
        summary = f"samples {len(train_ds)}, skipped {skipped} empty"
    manifest.update(kind=ds["kind"], class_count=train_ds.class_count, files={})
    for split, dataset in datasets.items():
        name = "events.cache" if ds["kind"] == "events" else f"{split}.cache"
        params = {"dataset": ds, "timesteps": cfg["timesteps"], "seed": cfg["seed"],
                  "split": split}
        save_dataset_cache(dataset, run_dir / name, params)
        manifest["files"][split] = name
    with open(run_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"classes {train_ds.class_count}, {summary}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "analyze": cmd_analyze,
    "gen-data": cmd_gen_data,
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
        if name in ("train", "analyze", "gen-data"):
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
    try:
        return _COMMANDS[args.command](args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpikeKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
