"""Folding learned per-neuron gains back into the weight matrices.

The cached association model trains a gain vector per layer alongside
the weights. Because the gain only ever scales the weighted input sum,
it can be multiplied into the incoming weights after training, leaving a
plain leaky network with the identical readout and no extra inference
parameters. This script trains briefly, folds, and verifies both claims.

Run from the repository root:

    python3 demos/05_merge_gains.py
"""

import numpy as np

from spikekit.data import gen_poisson_patterns
from spikekit.network import init_network, merge_beta
from spikekit.training import TrainConfig, evaluate, train

SEED = 7
WIDTHS = [64, 32, 4]
TIMESTEPS = 10


def main():
    common = dict(class_count=4, neurons=WIDTHS[0], timesteps=TIMESTEPS,
                  rate_lo=0.05, rate_hi=0.5, seed=SEED)
    train_ds = gen_poisson_patterns(n_per_class=40, split="train", **common)
    test_ds = gen_poisson_patterns(n_per_class=15, split="test", **common)

    net = init_network(WIDTHS, model="cached-aia", timesteps=TIMESTEPS, seed=SEED)
    cfg = TrainConfig(epochs=15, batch_size=20, seed=SEED)
    trained, metrics = train(net, train_ds, cfg, test_ds)
    print(f"trained cached-aia: test accuracy {metrics.test_accuracy[-1]:.4f}")
    for i, layer in enumerate(trained.layers):
        lo, hi = float(layer.beta.min()), float(layer.beta.max())
        print(f"layer {i} gains in [{lo:.4f}, {hi:.4f}]")

    merged = merge_beta(trained)
    plain = evaluate(trained, test_ds).readout
    folded = evaluate(merged, test_ds).readout
    deviation = float(np.max(np.abs(plain - folded)))
    print(f"\nmax readout deviation after folding: {deviation:.3e}")

    lif_twin = init_network(WIDTHS, model="lif", timesteps=TIMESTEPS, seed=SEED)
    print(f"parameters carried at inference: {merged.inference_parameter_count()} "
          f"(plain baseline has {lif_twin.parameter_count()})")
    print(f"parameters during training:      {trained.parameter_count()}")


if __name__ == "__main__":
    main()
