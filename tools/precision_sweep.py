"""Precision gate: the Poisson-toy audit run with float64 and with float32 hard-mode GEMMs.

Trains seeds 0-9 x every model x surrogate width at demo 04's settings (64-32-4,
T=10, 15 epochs, batch 20, Adam lr 1e-3, v_th 1, 200 train and 100 test
samples, one seed for the data, the initial weights and the batch order)
once per precision of ``spikekit.numerics.HARD_DTYPE``, and writes every
run's final test accuracy, hidden-layer test spikes and test loss as JSON.

It prints, per setting and precision, the median accuracy, the number of
seeds below 0.9 and the median hidden spikes, and then the gate: for each
setting and figure, the largest per-seed move from float64 to float32 beside
the float64 spread over seeds (the interquartile range). The gate passes when
no move exceeds its spread, that is, when precision moves no per-seed outcome
further than the seeds alone move it; exit code 0 if it passes, 1 if not.

    python tools/precision_sweep.py --out precision.json

About 15 s on one core of an x86-64 host; BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})  # before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from spikekit import numerics  # noqa: E402
from spikekit.data import gen_poisson_patterns  # noqa: E402
from spikekit.network import init_network  # noqa: E402
from spikekit.training import TrainConfig, train  # noqa: E402

WIDTHS, TIMESTEPS = [64, 32, 4], 10
MODELS = ("lif", "aia", "cached-aia")
SURROGATE_WIDTHS = (1.0, 2.0)
SEEDS = range(10)
PRECISIONS = {"float64": np.float64, "float32": np.float32}
FIGURES = ("accuracy", "hidden_spikes", "loss")


def run(model: str, surrogate_width: float, seed: int) -> dict:
    """One demo-04 training run; its final test figures."""
    splits = {split: gen_poisson_patterns(class_count=4, neurons=WIDTHS[0], timesteps=TIMESTEPS,
                                          rate_lo=0.05, rate_hi=0.5, n_per_class=n,
                                          seed=seed, split=split)
              for split, n in (("train", 50), ("test", 25))}
    net = init_network(WIDTHS, model=model, timesteps=TIMESTEPS, seed=seed,
                       surrogate_width=surrogate_width)
    cfg = TrainConfig(epochs=15, batch_size=20, seed=seed)
    _, metrics = train(net, splits["train"], cfg, splits["test"])
    return {"accuracy": metrics.test_accuracy[-1], "hidden_spikes": metrics.spike_counts[0],
            "loss": metrics.test_loss[-1]}


def _iqr(values) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON of every run")
    args = parser.parse_args(argv)

    runs = []
    for precision, dtype in PRECISIONS.items():
        numerics.HARD_DTYPE = dtype
        for model in MODELS:
            for width in SURROGATE_WIDTHS:
                for seed in SEEDS:
                    runs.append({"precision": precision, "model": model,
                                 "surrogate_width": width, "seed": seed,
                                 **run(model, width, seed)})
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")

    def series(precision, model, width, figure):
        return [r[figure] for r in runs if (r["precision"], r["model"], r["surrogate_width"])
                == (precision, model, width)]

    print(f"{'setting':<18} {'precision':<9} {'median acc':>10} {'< 0.9':>5} "
          f"{'median hidden spikes':>20}")
    passed = True
    gate = []
    for model in MODELS:
        for width in SURROGATE_WIDTHS:
            setting = f"{model} a={width:g}"
            for precision in PRECISIONS:
                acc = series(precision, model, width, "accuracy")
                spikes = series(precision, model, width, "hidden_spikes")
                print(f"{setting:<18} {precision:<9} {np.median(acc):>10.3f} "
                      f"{sum(a < 0.9 for a in acc):>5} {np.median(spikes):>20g}")
            for figure in FIGURES:
                f64 = np.array(series("float64", model, width, figure), dtype=float)
                f32 = np.array(series("float32", model, width, figure), dtype=float)
                move, spread = float(np.max(np.abs(f32 - f64))), _iqr(f64)
                changed = int(np.sum(f32 != f64))
                passed = passed and move <= spread
                gate.append(f"{setting:<18} {figure:<13} seeds changed {changed:>2}/{len(f64)}  "
                            f"largest move {move:<8.4g} float64 IQR {spread:.4g}"
                            f"{'' if move <= spread else '  EXCEEDS'}")
    print("\n" + "\n".join(gate))
    print(f"\nprecision gate: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
