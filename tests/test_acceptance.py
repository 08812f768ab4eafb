"""End-to-end acceptance checks.

Each test prints a single numbered PASS/FAIL line straight to the terminal
(bypassing capture) so a full run shows the whole checklist at a glance.
The toy training runs are shared through a session fixture; everything here
goes through public entry points only.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from spikekit.bptt import backward, forward_record, gradcheck
from spikekit.cli import main as cli_main
from spikekit.network import init_network, merge_beta
from spikekit.neurons import MODELS, NeuronParams, NeuronState, step

from aia_update_forms import aia_update_from_drive, aia_update_gated_sum

TOY_MODELS = ("lif", "aia", "cached-aia")


def _line(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _newest_run(out_dir):
    return sorted(p for p in Path(out_dir).iterdir() if p.is_dir())[-1]


def _train_toy(base, model, tag=""):
    """One toy-scale training run through the real CLI; returns its run dir."""
    out = Path(base) / f"{model}{tag}"
    started = time.perf_counter()
    rc = cli_main(["train", "--seed", "7", "--model", model, "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0, f"train exited {rc} for {model}"
    return _newest_run(out), elapsed


@pytest.fixture(scope="session")
def toy_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy_runs")
    runs = {}
    for model in TOY_MODELS:
        run_dir, elapsed = _train_toy(base, model)
        doc = json.loads((run_dir / "metrics.json").read_text())
        runs[model] = {
            "dir": run_dir,
            "elapsed": elapsed,
            "best_test_acc": max(e["test_accuracy"] for e in doc["epochs"]),
            "final_test_acc": doc["epochs"][-1]["test_accuracy"],
            "epochs": len(doc["epochs"]),
            "spikes": sum(doc["spike_counts"]),
        }
    runs["base"] = base
    return runs


def test_gradient_oracle_all_models(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    inputs = (rng.random((2, 8, 3)) < 0.5).astype(np.float64)
    labels = rng.integers(0, 4, size=2)

    worst = 0.0
    checked = set()
    all_passed = True
    for model in MODELS:
        net = init_network([8, 8, 4], model=model, timesteps=3, seed=3)
        report = gradcheck(net, inputs, labels, step_size=1e-4, tolerance=1e-3)
        all_passed = all_passed and report.passed
        worst = max(worst, max(e.max_rel_err for e in report.entries))
        checked |= {e.name.split(".", 1)[1] for e in report.entries}
    elapsed = time.perf_counter() - started

    ok = all_passed and {"w", "beta", "plif_raw"} <= checked and elapsed < 10.0
    _line(capsys, 1, ok,
          f"finite-difference gradients, 5 models, worst rel err {worst:.2e}, "
          f"{elapsed:.1f}s")
    assert all_passed
    assert {"w", "beta", "plif_raw"} <= checked
    assert elapsed < 10.0


def test_association_update_identity(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        out_n = int(rng.integers(1, 7))
        in_n = int(rng.integers(1, 7))
        w = rng.normal(size=(out_n, in_n))
        o_pre = (rng.random(in_n) < 0.5).astype(np.float64)
        dldu = rng.normal(size=out_n)
        a = aia_update_from_drive(w, o_pre, dldu)
        b = aia_update_gated_sum(w, o_pre, dldu)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-12 and elapsed < 5.0
    _line(capsys, 2, ok,
          f"drive-form vs gated-sum update, 100 instances, worst rel err "
          f"{worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_forward_equivalences_bit_exact(capsys):
    rng = np.random.default_rng(31)
    p_lif = NeuronParams(model="lif")
    p_lif_full = NeuronParams(model="lif", leak=1.0)
    p_if = NeuronParams(model="if")
    p_aia = NeuronParams(model="aia")
    p_cached = NeuronParams(model="cached-aia")

    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        state = NeuronState(
            u=rng.normal(size=n), o=(rng.random(n) < 0.5).astype(np.float64)
        )
        x = rng.normal(size=n)
        ref = step(state, x, p_lif)
        ref_full = step(state, x, p_lif_full)
        pairs = [
            (step(state, x, p_aia), ref),
            (step(state, x, p_if), ref_full),
            (step(state, x, p_cached, np.ones(n)), ref),
        ]
        for got, want in pairs:
            if got.u.tobytes() != want.u.tobytes() or got.o.tobytes() != want.o.tobytes():
                mismatches += 1

    ok = mismatches == 0
    _line(capsys, 3, ok,
          f"bit-exact forward equivalences over 1000 draws, {mismatches} mismatches")
    assert mismatches == 0


def test_merge_equivalence(capsys):
    rng = np.random.default_rng(37)
    net = init_network([10, 7, 4], model="cached-aia", timesteps=5, seed=5)
    for layer in net.layers:
        layer.beta[:] = rng.uniform(0.5, 1.5, size=layer.beta.shape)
    inputs = (rng.random((16, 10, 5)) < 0.4).astype(np.float64)

    merged = merge_beta(net)
    _, plain = forward_record(net, inputs)
    _, folded = forward_record(merged, inputs)
    per_class = np.max(np.abs(plain - folded), axis=0)
    deviation = float(per_class.max())

    plain_lif = init_network([10, 7, 4], model="lif", timesteps=5, seed=5)
    merged_count = merged.inference_parameter_count()
    lif_count = plain_lif.parameter_count()

    ok = deviation <= 1e-9 and merged_count == lif_count
    _line(capsys, 4, ok,
          f"gain folding: max per-class readout deviation {deviation:.2e}, "
          f"inference params {merged_count} == plain {lif_count}")
    assert np.all(per_class <= 1e-9)
    assert merged_count == lif_count


@pytest.mark.parametrize("model", TOY_MODELS)
def test_silent_synapse_column_is_zero(capsys, model):
    rng = np.random.default_rng(41)
    net = init_network([6, 5, 3], model=model, timesteps=4, seed=9)
    inputs = (rng.random((3, 6, 4)) < 0.6).astype(np.float64)
    silent = 2
    inputs[:, silent, :] = 0.0

    tape, readout = forward_record(net, inputs)
    upstream = rng.normal(size=readout.shape)
    grads = backward(tape, upstream, net)

    column = grads.d_w[0][:, silent]
    ok = np.all(column == 0.0) and np.any(grads.d_w[0] != 0.0)
    _line(capsys, 5, ok,
          f"{model}: silent presynaptic column has exactly-zero weight gradient")
    assert np.all(column == 0.0)
    assert np.any(grads.d_w[0] != 0.0)


def test_toy_task_learning(capsys, toy_runs):
    ok = all(
        toy_runs[m]["best_test_acc"] >= 0.90
        and toy_runs[m]["epochs"] <= 50
        and toy_runs[m]["elapsed"] < 120.0
        for m in TOY_MODELS
    )
    lif = toy_runs["lif"]
    parts = [
        f"{m}: best test acc {toy_runs[m]['best_test_acc']:.4f} "
        f"in {toy_runs[m]['epochs']} epochs ({toy_runs[m]['elapsed']:.1f}s)"
        for m in TOY_MODELS
    ]
    _line(capsys, 6, ok, "4-class toy task - " + "; ".join(parts))
    with capsys.disabled():
        for m in ("aia", "cached-aia"):
            print(f"  report {m} vs lif: final test acc "
                  f"{toy_runs[m]['final_test_acc']:.4f} vs {lif['final_test_acc']:.4f}, "
                  f"total spikes {toy_runs[m]['spikes']} vs {lif['spikes']}")
    for m in TOY_MODELS:
        assert toy_runs[m]["best_test_acc"] >= 0.90, m
        assert toy_runs[m]["epochs"] <= 50, m
        assert toy_runs[m]["elapsed"] < 120.0, m


def test_analysis_pipeline(capsys, toy_runs, tmp_path):
    rc = cli_main([
        "analyze", "--seed", "7", "--out", str(tmp_path),
        "--checkpoint-a", str(toy_runs["lif"]["dir"] / "checkpoint.json"),
        "--checkpoint-b", str(toy_runs["aia"]["dir"] / "checkpoint.json"),
    ])
    assert rc == 0
    run_dir = _newest_run(tmp_path)

    shift_rows = (run_dir / "weight_shift.csv").read_text().splitlines()
    assert shift_rows[0] == "bin_lo,bin_hi,delta"
    deltas_sum = sum(float(r.split(",")[2]) for r in shift_rows[1:])

    spike_rows = (run_dir / "spike_counts.csv").read_text().splitlines()
    assert spike_rows[0] == "layer,checkpoint_a,checkpoint_b"
    # 100 test samples, layer widths 32 and 4, 10 timesteps
    bounds = [100 * 32 * 10, 100 * 4 * 10]
    counts_ok = True
    for row, bound in zip(spike_rows[1:], bounds):
        for cell in row.split(",")[1:]:
            counts_ok = counts_ok and 0 <= int(cell) <= bound

    ok = abs(deltas_sum) <= 1e-12 and counts_ok
    _line(capsys, 7, ok,
          f"analysis run: weight-shift deltas sum {deltas_sum:.2e}, spike counts "
          f"within binarity bounds")
    assert abs(deltas_sum) <= 1e-12
    assert counts_ok


def test_repeat_runs_are_byte_identical(capsys, toy_runs):
    identical = True
    for model in TOY_MODELS:
        rerun_dir, _ = _train_toy(toy_runs["base"], model, tag="-rerun")
        first = (toy_runs[model]["dir"] / "metrics.csv").read_bytes()
        second = (rerun_dir / "metrics.csv").read_bytes()
        identical = identical and first == second

    _line(capsys, 8, identical,
          "re-training with the same seed reproduces metrics.csv byte for byte")
    assert identical
