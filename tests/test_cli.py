import contextlib
import inspect
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikekit import bptt, cli
from spikekit.cli import load_config, main, validate_config
from spikekit.errors import ConfigError, TrainingDiverged
from spikekit.network import init_network, save_checkpoint
from spikekit.neurons import NeuronParams
from spikekit.training import Adam, TrainConfig
from test_public_api import _entry_points

FLOAT32_MAX = float(np.finfo(np.float32).max)

EVENTS_MANIFEST = Path(__file__).parent / "data" / "events" / "manifest.json"
TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy_poisson.json"

# A 5,000-digit integer where each role's file holds an integer.
HUGE_INTEGER = {"config": f'{{"seed": {"9" * 5000}}}',
                "manifest": f'[{{"path": "x.csv", "label": {"9" * 5000}}}]',
                "checkpoint": f'{{"format": "spikekit-checkpoint", "seed": {"9" * 5000}}}'}
HUGE_INTEGER_REASON = "an integer of 5000 digits exceeds the limit of 4300\n"

# Small enough that a full train run takes well under a second.
TINY = {
    "seed": 11,
    "timesteps": 3,
    "network": {"hidden": [6]},
    "train": {"epochs": 2, "batch_size": 4},
    "dataset": {
        "kind": "poisson",
        "class_count": 2,
        "neurons": 8,
        "rate_lo": 0.1,
        "rate_hi": 0.9,
        "train_per_class": 5,
        "test_per_class": 3,
    },
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run_dirs(out):
    return sorted(p for p in Path(out).iterdir() if p.is_dir())


def _train_tiny(tmp_path, *extra, out="runs"):
    cfg = _write_config(tmp_path, TINY)
    out_dir = tmp_path / out
    rc = main(["train", "--config", cfg, "--out", str(out_dir), *extra])
    assert rc == 0
    return _run_dirs(out_dir)[-1]


class TestConfigValidation:
    def test_empty_config_fills_every_default(self):
        cfg = validate_config({})
        assert cfg["train"]["epochs"] == 20
        assert cfg["network"]["hidden"] == [32]
        assert cfg["dataset"]["kind"] == "poisson"
        assert cfg["model"] == "lif"
        assert cfg["timesteps"] == 10

    def test_defaults_are_read_from_the_library(self):
        cfg = validate_config({})
        neuron = NeuronParams()
        assert cfg["model"] == neuron.model
        for key in ("v_th", "leak", "surrogate_width"):
            assert cfg["network"][key] == getattr(neuron, key), key
        train_cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
        for key in ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps"):
            assert cfg["train"][key] == getattr(train_cfg, key), key
        gradcheck = inspect.signature(bptt.gradcheck).parameters
        for key in ("step_size", "tolerance"):
            assert cfg["gradcheck"][key] == gradcheck[key].default, key
        # The library's own callers default to the same values.
        assert init_network([2, 1], model="lif", timesteps=1, seed=0).layers[0].neuron == neuron
        adam = Adam([], learning_rate=train_cfg.learning_rate)
        assert (adam.beta1, adam.beta2, adam.eps) == (cfg["train"]["adam_beta1"],
                                                      cfg["train"]["adam_beta2"],
                                                      cfg["train"]["adam_eps"])

    def test_unknown_nested_key_named_by_dotted_path(self):
        with pytest.raises(ConfigError, match=r"train\.lerning_rate"):
            validate_config({"train": {"lerning_rate": 1e-3}})

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="'lerning_rate'"):
            validate_config({"lerning_rate": 1e-3})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match=r"train\.epochs"):
            validate_config({"train": {"epochs": "5"}})
        with pytest.raises(ConfigError, match=r"network\.leak"):
            validate_config({"network": {"leak": 1.5}})
        with pytest.raises(ConfigError, match="model"):
            validate_config({"model": "gru"})
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": True})

    def test_rate_window_must_be_increasing(self):
        with pytest.raises(ConfigError, match="rate_lo"):
            validate_config({"dataset": {"rate_lo": 0.5, "rate_hi": 0.5}})

    def test_events_dataset_requires_manifest(self):
        with pytest.raises(ConfigError, match="manifest"):
            validate_config({"dataset": {"kind": "events"}})

    @pytest.mark.parametrize("dataset", [
        {"kind": "poisson"}, {"kind": "events", "manifest": "m.json"},
    ])
    def test_class_count_is_bounded_by_max_count(self, dataset):
        with pytest.raises(ConfigError, match=r"dataset\.class_count must be <= 4294967295, "
                                              r"got 4294967296"):
            validate_config({"dataset": {**dataset, "class_count": 2**32}})

    @pytest.mark.parametrize("path, bound", [
        ("network.hidden[1]", cli.MAX_COUNT),
        ("timesteps", cli.MAX_COUNT),
        ("dataset.neurons", cli.MAX_COUNT),
        ("dataset.train_per_class", cli.MAX_COUNT),
        ("dataset.test_per_class", cli.MAX_COUNT),
        ("dataset.grid_width", cli.MAX_GRID_SIDE),
        ("dataset.grid_height", cli.MAX_GRID_SIDE),
        ("train.batch_size", cli.MAX_COUNT),
        ("gradcheck.batch", cli.MAX_COUNT),
        ("gradcheck.input_width", cli.MAX_COUNT),
        ("gradcheck.hidden[0]", cli.MAX_COUNT),
        ("gradcheck.class_count", cli.MAX_COUNT),
        ("gradcheck.timesteps", cli.MAX_COUNT),
    ])
    def test_size_keys_are_bounded_by_name(self, path, bound):
        # Validation only: nothing here asks numpy for the memory these sizes need.
        def doc(value):
            section, _, key = path.rpartition(".")
            name, _, index = key.partition("[")
            leaf = {name: [3] * int(index[:-1]) + [value]} if index else {name: value}
            if name.startswith("grid"):
                leaf.update(kind="events", manifest="m.json")
            return {section: leaf} if section else leaf

        validate_config(doc(bound))
        for value in (bound + 1, 2**63):
            with pytest.raises(ConfigError, match=rf"config key {re.escape(path)} must be "
                                                  rf"<= {bound}, got {value}$"):
                validate_config(doc(value))

    @pytest.mark.parametrize("doc, message", [
        ({"seed": None}, "config key seed must be an integer"),
        ({"train": {"epochs": None}}, "config key train.epochs must be an integer"),
        ({"network": None}, "config key network must be an object"),
        ({"dataset": None}, "config key dataset must be an object"),
    ])
    def test_null_is_rejected_where_the_default_is_not_null(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(doc)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_load_config_none_is_empty(self):
        assert load_config(None) == {}


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["florble"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus"]) == 2
        capsys.readouterr()

    def test_config_typo_maps_to_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"train": {"lerning_rate": 1e-3}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert "train.lerning_rate" in capsys.readouterr().err

    def test_missing_config_file_maps_to_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["train", "--config", missing]) == 2
        capsys.readouterr()

    def test_merge_beta_is_an_eval_flag_only(self, capsys):
        assert main(["train", "--merge-beta"]) == 2
        assert "unrecognized arguments: --merge-beta" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("eval", "--model", "aia"),
        ("analyze", "--model", "aia"),
        ("gradcheck", "--model", "aia"),
        ("eval", "--out", "runs"),
        ("gradcheck", "--out", "runs"),
    ])
    def test_flag_is_registered_only_where_it_is_read(self, command, flag, value, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_the_deleted_data_command_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["gen-data", "--config", _write_config(tmp_path, TINY), "--out", str(out)])
        assert rc == 2
        assert "invalid choice: 'gen-data'" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_writes_run_artifacts(self, tmp_path, capsys):
        run_dir = _train_tiny(tmp_path, "--seed", "3")
        out = capsys.readouterr().out
        assert f"run directory: {run_dir}" in out
        assert "test accuracy" in out
        for name in ("effective_config.json", "checkpoint.json", "metrics.csv",
                     "metrics.json"):
            assert (run_dir / name).is_file(), name

    def test_effective_config_reflects_flag_overrides(self, tmp_path, capsys):
        run_dir = _train_tiny(tmp_path, "--seed", "42", "--model", "aia")
        capsys.readouterr()
        echoed = json.loads((run_dir / "effective_config.json").read_text())
        assert echoed["seed"] == 42
        assert echoed["model"] == "aia"
        assert echoed["train"]["epochs"] == 2
        # defaults absent from the file are echoed too
        assert echoed["train"]["adam_beta1"] == 0.9

    def test_same_seed_twice_gives_identical_metrics_bytes(self, tmp_path, capsys):
        a = _train_tiny(tmp_path, "--seed", "5", out="runs_a")
        b = _train_tiny(tmp_path, "--seed", "5", out="runs_b")
        capsys.readouterr()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_run_directories_are_never_reused(self, tmp_path, capsys):
        _train_tiny(tmp_path)
        _train_tiny(tmp_path)
        capsys.readouterr()
        assert len(_run_dirs(tmp_path / "runs")) == 2

    def test_events_dataset_trains(self, tmp_path, capsys):
        doc = {
            "timesteps": 3,
            "network": {"hidden": [4]},
            "train": {"epochs": 1, "batch_size": 4},
            "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST)},
        }
        cfg = _write_config(tmp_path, doc)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "train accuracy" in captured.out
        assert "skipped 1 empty" in captured.err
        run_dir = _run_dirs(tmp_path / "runs")[-1]
        rows = (run_dir / "metrics.csv").read_text().splitlines()
        assert all(",test," not in row for row in rows[1:])
        # three usable samples, labels 0, 1, 0: the inferred class count is 2
        assert json.loads((run_dir / "checkpoint.json").read_text())["class_count"] == 2

    def test_dropped_lines_warn_on_stderr_once_per_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        doc = {"timesteps": 3, "network": {"hidden": [4]}, "train": {"epochs": 1},
               "dataset": {"kind": "events", "manifest": "tests/data/events/manifest.json"}}
        cfg = _write_config(tmp_path, doc)
        logger = logging.getLogger("spikekit")
        handlers = list(logger.handlers)
        for out in ("runs_a", "runs_b"):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / out)]) == 0
            assert capsys.readouterr().err == (
                "warning: tests/data/events/noisy.csv: dropped 1 malformed event line(s)\n"
                "skipped 1 empty sample(s)\n")
            assert logger.handlers == handlers

    def test_divergence_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def blow_up(*args, **kwargs):
            raise TrainingDiverged("layer0.w")

        monkeypatch.setattr(cli, "train", blow_up)
        cfg = _write_config(tmp_path, TINY)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert rc == 3
        assert "layer0.w" in capsys.readouterr().err

    def test_weights_past_float32_range_are_divergence(self, tmp_path, capsys, recwarn):
        # A step of 1e39 moves every weight past the float32 range of the next
        # forward's GEMMs: training stops by name, before any cast overflows.
        doc = {**TINY, "train": {**TINY["train"], "learning_rate": 1e39}}
        cfg = _write_config(tmp_path, doc)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.search(r"^error: training diverged: layer0\.w has a row of weights whose "
                         r"magnitudes sum to \S+, past the float32 range of hard-mode GEMMs$",
                         err, re.MULTILINE), err
        assert not recwarn.list


def _stdout_value(out, prefix):
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{out}")


class TestEvalCommand:
    def test_reproduces_final_test_metrics(self, tmp_path, capsys):
        run_dir = _train_tiny(tmp_path, "--seed", "3")
        capsys.readouterr()
        cfg = _write_config(tmp_path, TINY)
        rc = main(["eval", "--config", cfg, "--seed", "3",
                   "--checkpoint", str(run_dir / "checkpoint.json")])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads((run_dir / "metrics.json").read_text())
        final = doc["epochs"][-1]
        assert _stdout_value(out, "accuracy ") == f"{final['test_accuracy']:.4f}"
        assert _stdout_value(out, "loss ") == f"{final['test_loss']:.6f}"

    def test_missing_checkpoint_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY)
        assert main(["eval", "--config", cfg]) == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("model,expect_zero", [("lif", True), ("cached-aia", False)])
    def test_merge_beta_deviation_is_tiny(self, tmp_path, capsys, model, expect_zero):
        run_dir = _train_tiny(tmp_path, "--seed", "3", "--model", model)
        capsys.readouterr()
        cfg = _write_config(tmp_path, TINY)
        rc = main(["eval", "--config", cfg, "--seed", "3", "--merge-beta",
                   "--checkpoint", str(run_dir / "checkpoint.json")])
        out = capsys.readouterr().out
        assert rc == 0
        deviation = float(_stdout_value(out, "max readout deviation "))
        assert deviation <= 1e-9
        if expect_zero:
            assert deviation == 0.0

    def test_merge_beta_past_float32_range_names_the_parameter(self, tmp_path, capsys,
                                                               recwarn):
        # A gain of 1e39 is float64 arithmetic in the plain forward, but folded
        # into layer 1's weights it is past the float32 range of their GEMM.
        path = tmp_path / "net.json"
        net = init_network([8, 6, 2], model="cached-aia", timesteps=3, seed=0)
        net.layers[1].beta[0] = 1e39
        save_checkpoint(net, path)
        cfg = _write_config(tmp_path, TINY)
        assert main(["eval", "--config", cfg, "--checkpoint", str(path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(path), "--merge-beta"]) == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {path} with --merge-beta: layer1.w has a row of weights" in err
        assert "past the float32 range of hard-mode GEMMs" in err
        assert not recwarn.list


class TestMalformedInputs:
    """Bad files end in exit 2 with a message naming the file and the field."""

    def _eval_checkpoint(self, tmp_path, capsys, corrupt):
        path = tmp_path / "net.json"
        save_checkpoint(init_network([8, 6, 2], model="lif", timesteps=3, seed=0), path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, TINY)
        rc = main(["eval", "--config", cfg, "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(path) in err
        return err

    def test_checkpoint_missing_key(self, tmp_path, capsys):
        err = self._eval_checkpoint(tmp_path, capsys, lambda doc: doc["layers"][1].pop("leak"))
        assert "layer1 is missing leak" in err

    def test_checkpoint_bad_hex(self, tmp_path, capsys):
        def corrupt(doc):
            doc["layers"][0]["w"] = "zz" + doc["layers"][0]["w"][2:]
        err = self._eval_checkpoint(tmp_path, capsys, corrupt)
        assert "layer0.w is not valid hex" in err

    def test_checkpoint_non_finite_weights(self, tmp_path, capsys):
        def corrupt(doc):
            w = np.zeros((6, 8))
            w[2, 3] = np.nan
            doc["layers"][0]["w"] = w.astype("<f8").tobytes().hex()
        err = self._eval_checkpoint(tmp_path, capsys, corrupt)
        assert "layer0.w contains non-finite values" in err

    @pytest.mark.parametrize("row, rc", [
        pytest.param([1e39], 2, id="1e+39-2"),
        # Inside float32's range in float64 (their sum is 2**75 - 2**78 short
        # of its max), but the cast rounds them to the max and 2**103, whose
        # float32 sum rounds to infinity: the margin for rounding refuses it.
        pytest.param([FLOAT32_MAX - 2.0**103 + 2.0**75, 2.0**103 - 2.0**78], 2,
                     id="rounding-edge-2"),
        pytest.param([3e38], 0, id="3e+38-0"),
    ])
    def test_checkpoint_weight_past_float32_range(self, tmp_path, capsys, recwarn, row, rc):
        # A row of layer0.w summing past float32's range, less room for the
        # GEMM's rounding, is refused by name before any GEMM; one inside it
        # evaluates, its drive finite in float32.
        path = tmp_path / "net.json"
        net = init_network([8, 6, 2], model="lif", timesteps=3, seed=0)
        net.layers[0].w[2] = 0.0
        net.layers[0].w[2, 3:3 + len(row)] = row
        save_checkpoint(net, path)
        cfg = _write_config(tmp_path, TINY)
        assert main(["eval", "--config", cfg, "--checkpoint", str(path)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err == (f"error: checkpoint {path}: layer0.w has a row of weights whose "
                           f"magnitudes sum to {sum(row):g}, past the float32 range of "
                           f"hard-mode GEMMs\n")
        assert not recwarn.list

    def test_checkpoint_that_does_not_fit_the_dataset(self, tmp_path, capsys):
        err = self._eval_checkpoint(tmp_path, capsys, lambda doc: doc.update(timesteps=4))
        assert "dataset window is 3 timesteps, network runs 4" in err

    def test_checkpoint_unknown_version(self, tmp_path, capsys):
        err = self._eval_checkpoint(tmp_path, capsys, lambda doc: doc.update(version=99))
        assert f"checkpoint {tmp_path / 'net.json'}: unsupported version 99" in err

    def _read_bad_file(self, tmp_path, capsys, role, content: bytes):
        """Exit code and stderr of the command that reads ``content`` as a ``role`` file;
        a manifest's command leaves no run directory."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        tiny = _write_config(tmp_path, TINY)
        events = _write_config(tmp_path, {"dataset": {"kind": "events", "manifest": str(bad)}},
                               "events.json")
        out = tmp_path / "runs"
        argv = {"config": ["gradcheck", "--config", str(bad)],
                "manifest": ["train", "--config", events, "--out", str(out)],
                "checkpoint": ["eval", "--config", tiny, "--checkpoint", str(bad)]}[role]
        rc = main(argv)
        assert not out.exists()
        return rc, capsys.readouterr().err, bad

    def _read_json_error(self, tmp_path, capsys, role, text, reason):
        rc, err, bad = self._read_bad_file(tmp_path, capsys, role, text.encode())
        assert rc == 2
        assert err.startswith(f"error: {role} {'file ' if role == 'config' else ''}{bad} "
                              f"is not valid JSON: {reason}")

    @pytest.mark.parametrize("role", ["config", "manifest", "checkpoint"])
    def test_deeply_nested_json_names_the_file(self, tmp_path, capsys, role):
        # Nesting past the recursion limit stops Python's JSON parser with a
        # RecursionError, and read_json refuses an integer of more than 4,300
        # digits; each is a malformed input like any other.
        for text, reason in (("[" * 3000 + "]" * 3000, "maximum recursion depth exceeded"),
                             (HUGE_INTEGER[role], HUGE_INTEGER_REASON)):
            self._read_json_error(tmp_path, capsys, role, text, reason)

    @pytest.mark.parametrize("role", ["config", "manifest", "checkpoint"])
    def test_huge_integer_is_refused_without_an_interpreter_limit(self, tmp_path, capsys, role):
        # With the interpreter's own int() digit limit off, json would parse
        # the integer, and a gradcheck config would run.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            self._read_json_error(tmp_path, capsys, role, HUGE_INTEGER[role], HUGE_INTEGER_REASON)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("role", ["manifest", "checkpoint"])
    def test_non_utf8_json_names_the_file(self, tmp_path, capsys, role):
        rc, err, bad = self._read_bad_file(tmp_path, capsys, role, b'[{"path": "\xff"}]')
        assert rc == 2
        assert err == (f"error: {role} {bad} is not UTF-8 text "
                       f"(invalid start byte at byte 11)\n")

    @pytest.mark.parametrize("command, doc, key", [
        ("eval", {"checkpoint": "a\0b"}, "checkpoint"),
        ("train", {"dataset": {"kind": "events", "manifest": "a\0b"}}, "dataset.manifest"),
    ])
    def test_nul_in_a_config_path_names_the_key(self, tmp_path, capsys, command, doc, key):
        out = tmp_path / "runs"
        extra = ["--out", str(out)] if command == "train" else []
        rc = main([command, "--config", _write_config(tmp_path, doc), *extra])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: config key {key} must not contain "
                                           f"a NUL character\n")
        assert not out.exists()

    def test_checkpoint_non_finite_threshold(self, tmp_path, capsys):
        def corrupt(doc):
            doc["layers"][0]["v_th"] = float("nan")
        err = self._eval_checkpoint(tmp_path, capsys, corrupt)
        assert "layer0: v_th must be finite" in err

    @pytest.mark.parametrize("section, key, value", [
        ("network", "v_th", float("nan")),
        ("network", "v_th", float("inf")),
        ("network", "surrogate_width", float("nan")),
        ("train", "learning_rate", float("nan")),
        ("train", "learning_rate", 10 ** 400),  # a JSON integer too large for a float
    ])
    def test_config_non_finite_number(self, tmp_path, capsys, section, key, value):
        doc = json.loads(json.dumps(TINY))
        doc[section][key] = value
        rc = main(["train", "--config", _write_config(tmp_path, doc),
                   "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config key {section}.{key} must be a finite number" in err

    @pytest.mark.parametrize("section, key, value, bound", [
        ("train", "adam_beta1", 1.0, "< 1.0"),
        ("train", "adam_beta2", 1.0, "< 1.0"),
        ("network", "v_th", -1.0, "> 0.0"),
        ("network", "v_th", 0.0, "> 0.0"),
    ])
    def test_config_out_of_range_leaves_no_run_dir(self, tmp_path, capsys, section, key,
                                                   value, bound):
        doc = json.loads(json.dumps(TINY))
        doc[section][key] = value
        out = tmp_path / "runs"
        rc = main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config key {section}.{key} must be {bound}, got {value}" in err
        assert not out.exists()

    def test_non_utf8_event_csv(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_bytes(b"t,x,y,p\n1,2,3,1\n\xff\xfe,1,1,0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "bad.csv", "label": 0}]))
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(manifest)}}
        cfg = _write_config(tmp_path, doc)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad.csv" in err and "not UTF-8" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", [
        ("path", 5), ("path", ["x"]), ("path", None),
        ("label", True), ("label", 1.5), ("label", "0"), ("label", -1),
        ("label", 10**30), ("label", 2**32 - 1), ("path", "a\0b.csv"),
    ])
    def test_bad_manifest_entry(self, tmp_path, capsys, key, value):
        entry = {"path": "x.csv", "label": 0, key: value}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(manifest)}}
        rc = main(["train", "--config", _write_config(tmp_path, doc),
                   "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"manifest {manifest} entry 0 {key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                              (".", "Is a directory")])
    def test_unreadable_manifest_names_the_key_and_the_file(self, tmp_path, capsys, name,
                                                            reason):
        manifest = tmp_path / name
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(manifest)}}
        out = tmp_path / "runs"
        rc = main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: config key dataset.manifest: cannot read {manifest}: "
                       f"{reason}\n")
        assert not out.exists()

    def test_unreadable_event_file_names_that_file(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "gone.csv", "label": 0}]))
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(manifest)}}
        rc = main(["train", "--config", _write_config(tmp_path, doc),
                   "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(tmp_path / "gone.csv") in err and "dataset.manifest" not in err

    def test_events_class_count_too_large_leaves_no_run_dir(self, tmp_path, capsys):
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST),
                                           "class_count": 2**32}}
        out = tmp_path / "runs"
        rc = main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config key dataset.class_count must be <= 4294967295" in err
        assert not out.exists()

    def test_events_class_count_below_a_manifest_label_names_both(self, tmp_path, capsys):
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST),
                                           "class_count": 1}}
        out = tmp_path / "runs"
        rc = main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config key dataset.class_count is 1" in err
        assert f"manifest {EVENTS_MANIFEST} has label 1" in err
        assert not out.exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": 1, "model": "\xff"}')
        rc = main(["gradcheck", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(path) in err and "not UTF-8" in err


def _main_quietly(argv):
    """``main(argv)``'s exit code and stderr; the stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


# Values a mutated field may take: every JSON type, JSON's NaN and infinity
# extensions, and integers past int64 and past a float.
_ANY_VALUE = st.sampled_from([None, True, False, 0, -1, 1, 2, 1.5, -0.5, "x", "", [], {},
                              [1, 2], [[6, 8]], {"a": 1}, math.nan, math.inf, -math.inf,
                              2**63, -(2**63) - 1, 10**30, 10**400])


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """TINY as a config file, and a checkpoint that fits it of each model that
    stores an extra array: ``cached-aia``'s ``beta`` and ``plif``'s ``plif_raw``."""
    tmp = tmp_path_factory.mktemp("contract")
    config = tmp / "config.json"
    config.write_text(json.dumps(TINY))
    checkpoints = {}
    for model in ("cached-aia", "plif"):
        path = tmp / f"{model}.json"
        save_checkpoint(init_network([8, 6, 2], model=model, timesteps=3, seed=0), path)
        checkpoints[model] = json.loads(path.read_text())
    return tmp, str(config), checkpoints


def _leaves(doc, prefix=()):
    """The key path of every object member in ``doc``, sections included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*prefix, key))


class TestErrorContract:
    """A malformed input ends in exit 2 naming it, never in a traceback or exit 1."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), model=st.sampled_from(["cached-aia", "plif"]))
    def test_one_checkpoint_field_changed_exits_0_or_2(self, contract_files, data, model):
        tmp, config, checkpoints = contract_files
        doc = json.loads(json.dumps(checkpoints[model]))
        *parents, key = data.draw(st.sampled_from(sorted(_leaves(doc), key=str)), label="field")
        owner = doc
        for step in parents:
            owner = owner[step]
        value = owner[key]
        change = data.draw(st.sampled_from(["delete", "value", "truncate", "non-finite",
                                            "shape"]), label="change")
        if change == "delete" and isinstance(owner, dict):
            del owner[key]
        elif change == "truncate" and isinstance(value, str) and value:
            owner[key] = value[:data.draw(st.integers(0, len(value) - 1))]
        elif change == "non-finite" and isinstance(value, str) and len(value) >= 16:
            slot = 16 * data.draw(st.integers(0, len(value) // 16 - 1))
            bits = np.array([data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))], "<f8")
            owner[key] = value[:slot] + bits.tobytes().hex() + value[slot + 16:]
        elif change == "shape" and key == "shape":
            sizes = st.sampled_from([-1, 0, 1, 2, 6, 8, 9, 2**63, 10**30])
            owner[key] = data.draw(st.lists(sizes, max_size=3))
        else:
            owner[key] = data.draw(_ANY_VALUE)
        path = tmp / "mutated.json"
        path.write_text(json.dumps(doc))
        rc, err = _main_quietly(["eval", "--config", config, "--checkpoint", str(path)])
        assert rc in (0, 2), err
        if rc == 2:
            assert str(path) in err

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_config_key_changed_exits_2(self, contract_files, data):
        tmp = contract_files[0]
        doc = json.loads(TOY_CONFIG.read_text())
        if data.draw(st.booleans(), label="add an unknown key"):
            sections = [doc] + [value for value in doc.values() if isinstance(value, dict)]
            owner = data.draw(st.sampled_from(sections))
            key = data.draw(st.text().filter(lambda k: k not in owner))
        else:
            *parents, key = data.draw(st.sampled_from(sorted(_leaves(doc), key=str)))
            owner = doc
            for step in parents:
                owner = owner[step]
        owner[key] = data.draw(_ANY_VALUE | st.text(max_size=5))
        path = tmp / "config-mutated.json"
        path.write_text(json.dumps(doc))
        rc, err = _main_quietly(["eval", "--config", str(path)])
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestGradcheckCommand:
    def test_all_models_pass(self, capsys):
        rc = main(["gradcheck", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        for model in ("lif", "if", "plif", "aia", "cached-aia"):
            assert f"model {model}" in out
        assert "gradcheck: pass" in out

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        true_backward = bptt.backward

        def skewed(tape, upstream, net):
            grads = true_backward(tape, upstream, net)
            for g in grads.d_w:
                g *= 1.01
            return grads

        monkeypatch.setattr(bptt, "backward", skewed)
        rc = main(["gradcheck", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "gradcheck: FAIL" in out


class TestEntryPoints:
    """``python -m spikekit`` runs ``cli.entrypoint``, which exits with ``main``'s code."""

    def _run(self, *argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "spikekit", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_gradcheck_passes(self):
        done = self._run("gradcheck")
        assert done.returncode == 0, done.stderr
        assert "gradcheck: pass" in done.stdout

    def test_usage_error_exits_2(self):
        done = self._run("eval", "--model", "lif")
        assert done.returncode == 2
        assert "unrecognized arguments: --model lif" in done.stderr


class TestAnalyzeCommand:
    def test_compares_two_checkpoints(self, tmp_path, capsys):
        ckpt_a = _train_tiny(tmp_path, "--seed", "3", out="runs_a") / "checkpoint.json"
        ckpt_b = _train_tiny(tmp_path, "--seed", "3", "--model", "aia",
                             out="runs_b") / "checkpoint.json"
        capsys.readouterr()
        cfg = _write_config(tmp_path, TINY)
        out_dir = tmp_path / "analysis"
        rc = main(["analyze", "--config", cfg, "--seed", "3", "--out", str(out_dir),
                   "--checkpoint-a", str(ckpt_a), "--checkpoint-b", str(ckpt_b)])
        out = capsys.readouterr().out
        assert rc == 0
        run_dir = _run_dirs(out_dir)[-1]
        assert (run_dir / "weight_shift.csv").is_file()
        assert (run_dir / "spike_counts.csv").is_file()
        deltas_sum = float(_stdout_value(out, "weight-shift deltas sum "))
        assert abs(deltas_sum) <= 1e-12

    def test_missing_checkpoints_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY)
        assert main(["analyze", "--config", cfg]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_a_checkpoint_that_does_not_fit_the_dataset_is_named(self, tmp_path, capsys):
        ckpt_a, ckpt_b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(init_network([8, 6, 2], model="lif", timesteps=3, seed=0), ckpt_a)
        save_checkpoint(init_network([8, 6, 2], model="lif", timesteps=4, seed=0), ckpt_b)
        out = tmp_path / "analysis"
        rc = main(["analyze", "--config", _write_config(tmp_path, TINY), "--out", str(out),
                   "--checkpoint-a", str(ckpt_a), "--checkpoint-b", str(ckpt_b)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: checkpoint {ckpt_b}: dataset window is 3 "
                                           f"timesteps, network runs 4\n")
        assert not out.exists()

    def test_checkpoints_of_different_shapes_are_named(self, tmp_path, capsys):
        ckpt_a, ckpt_b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(init_network([8, 6, 2], model="lif", timesteps=3, seed=0), ckpt_a)
        save_checkpoint(init_network([8, 5, 2], model="lif", timesteps=3, seed=0), ckpt_b)
        out = tmp_path / "analysis"
        rc = main(["analyze", "--config", _write_config(tmp_path, TINY), "--out", str(out),
                   "--checkpoint-a", str(ckpt_a), "--checkpoint-b", str(ckpt_b)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: checkpoints {ckpt_a} and {ckpt_b}: layer "
                                           f"shapes differ: [(6, 8), (2, 6)] vs "
                                           f"[(5, 8), (2, 5)]\n")
        assert not out.exists()


def test_every_traced_cli_name_is_called(tmp_path, monkeypatch, capsys):
    """perfbench's tracer wraps these names on ``cli`` itself; a command that
    reached the function some other way would hide its time from the trace."""
    names = [attr for owner, attr in _entry_points() if owner == "cli" and attr != "main"]
    calls = set()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.add(name)
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    run_dir = _train_tiny(tmp_path)
    assert main(["eval", "--config", _write_config(tmp_path, TINY),
                 "--checkpoint", str(run_dir / "checkpoint.json")]) == 0
    events = {"timesteps": 3, "network": {"hidden": [4]}, "train": {"epochs": 1},
              "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST)}}
    assert main(["train", "--config", _write_config(tmp_path, events, "events.json"),
                 "--out", str(tmp_path / "events")]) == 0
    capsys.readouterr()
    assert names and calls == set(names)
