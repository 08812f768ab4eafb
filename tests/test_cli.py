import json
from pathlib import Path

import numpy as np
import pytest

from spikekit import bptt, cli
from spikekit.cli import load_config, main, validate_config
from spikekit.data import load_dataset_cache
from spikekit.errors import ConfigError, TrainingDiverged
from spikekit.network import init_network, save_checkpoint
from test_public_api import _entry_points

EVENTS_MANIFEST = Path(__file__).parent / "data" / "events" / "manifest.json"

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
    def test_class_count_must_fit_the_cache_header(self, dataset):
        with pytest.raises(ConfigError, match=r"dataset\.class_count must be <= 4294967295, "
                                              r"got 4294967296"):
            validate_config({"dataset": {**dataset, "class_count": 2**32}})

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
        ("gen-data", "--model", "plif"),
        ("eval", "--out", "runs"),
        ("gradcheck", "--out", "runs"),
    ])
    def test_flag_is_registered_only_where_it_is_read(self, command, flag, value, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


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

    def test_divergence_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def blow_up(*args, **kwargs):
            raise TrainingDiverged("layer0.w")

        monkeypatch.setattr(cli, "train", blow_up)
        cfg = _write_config(tmp_path, TINY)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert rc == 3
        assert "layer0.w" in capsys.readouterr().err


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
        rc = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "gen")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad.csv" in err and "not UTF-8" in err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("key, value", [
        ("path", 5), ("path", ["x"]), ("path", None),
        ("label", True), ("label", 1.5), ("label", "0"), ("label", -1),
        ("label", 10**30), ("label", 2**32 - 1),
    ])
    def test_bad_manifest_entry(self, tmp_path, capsys, key, value):
        entry = {"path": "x.csv", "label": 0, key: value}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(manifest)}}
        rc = main(["gen-data", "--config", _write_config(tmp_path, doc),
                   "--out", str(tmp_path / "gen")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"manifest {manifest} entry 0 {key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gen").exists()

    def test_events_class_count_too_large_leaves_no_run_dir(self, tmp_path, capsys):
        doc = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST),
                                           "class_count": 2**32}}
        out = tmp_path / "gen"
        rc = main(["gen-data", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config key dataset.class_count must be <= 4294967295" in err
        assert not out.exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": 1, "model": "\xff"}')
        rc = main(["gradcheck", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(path) in err and "not UTF-8" in err


class TestGradcheckCommand:
    def test_all_models_pass(self, capsys):
        rc = main(["gradcheck", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        for model in ("lif", "if", "plif", "aia", "cached-aia"):
            assert f"model {model}" in out
        assert "gradcheck: pass" in out

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        true_backward = bptt._backward

        def skewed(tape, upstream, net, smoothed=False):
            grads = true_backward(tape, upstream, net, smoothed=smoothed)
            for g in grads.d_w:
                g *= 1.01
            return grads

        monkeypatch.setattr(bptt, "_backward", skewed)
        rc = main(["gradcheck", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "gradcheck: FAIL" in out


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


class TestGenDataCommand:
    def test_poisson_caches_round_trip(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY)
        out_dir = tmp_path / "gen"
        rc = main(["gen-data", "--config", cfg, "--seed", "11", "--out", str(out_dir)])
        capsys.readouterr()
        assert rc == 0
        run_dir = _run_dirs(out_dir)[-1]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "poisson"
        assert manifest["train_samples"] == 10
        assert manifest["test_samples"] == 6
        effective = json.loads((run_dir / "effective_config.json").read_text())
        params = {"dataset": effective["dataset"], "timesteps": 3, "seed": 11,
                  "split": "train"}
        loaded = load_dataset_cache(run_dir / "train.cache", params)
        assert loaded.split == "train"
        assert len(loaded) == 10
        assert loaded.neurons == 8 and loaded.timesteps == 3

    def test_same_seed_gives_identical_cache_bytes(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY)
        for out in ("gen_a", "gen_b"):
            assert main(["gen-data", "--config", cfg, "--seed", "11",
                         "--out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        a = _run_dirs(tmp_path / "gen_a")[-1]
        b = _run_dirs(tmp_path / "gen_b")[-1]
        assert (a / "train.cache").read_bytes() == (b / "train.cache").read_bytes()
        assert (a / "test.cache").read_bytes() == (b / "test.cache").read_bytes()

    def test_events_mode_reports_skips(self, tmp_path, capsys):
        doc = {
            "timesteps": 4,
            "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST)},
        }
        cfg = _write_config(tmp_path, doc)
        out_dir = tmp_path / "gen"
        rc = main(["gen-data", "--config", cfg, "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipped 1 empty" in out
        run_dir = _run_dirs(out_dir)[-1]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["labels"] == [0, 1, 0]
        assert manifest["class_count"] == 2
        assert manifest["skipped_empty"] == 1
        assert (run_dir / "events.cache").is_file()


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
    events = {"timesteps": 3, "dataset": {"kind": "events", "manifest": str(EVENTS_MANIFEST)}}
    assert main(["gen-data", "--config", _write_config(tmp_path, events, "events.json"),
                 "--out", str(tmp_path / "gen")]) == 0
    capsys.readouterr()
    assert names and calls == set(names)
