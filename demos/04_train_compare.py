"""Training comparison on the Poisson-pattern toy task.

Trains the plain leaky baseline and both association-rule variants on
the same seed-fixed 4-class dataset, then prints final accuracy and the
per-layer spike counts side by side. The association updates tend to
finish with fewer hidden-layer spikes at the same accuracy, which is the
behaviour the per-layer counts are there to surface.

Run from the repository root (about a second in total):

    python3 demos/04_train_compare.py
"""

from spikekit.data import gen_poisson_patterns
from spikekit.network import init_network
from spikekit.training import TrainConfig, train

SEED = 7
WIDTHS = [64, 32, 4]
TIMESTEPS = 10


def make_split(split, n_per_class):
    return gen_poisson_patterns(
        class_count=4, neurons=WIDTHS[0], timesteps=TIMESTEPS,
        rate_lo=0.05, rate_hi=0.5, n_per_class=n_per_class,
        seed=SEED, split=split,
    )


def main():
    train_ds = make_split("train", 50)
    test_ds = make_split("test", 25)
    print(f"{len(train_ds)} train / {len(test_ds)} test samples, "
          f"{WIDTHS[0]} inputs, {TIMESTEPS} timesteps\n")

    results = {}
    cfg = TrainConfig(epochs=15, batch_size=20, seed=SEED)
    for model in ("lif", "aia", "cached-aia"):
        net = init_network(WIDTHS, model=model, timesteps=TIMESTEPS, seed=SEED)
        _, metrics = train(net, train_ds, cfg, test_ds)
        results[model] = metrics
        reached = next(
            (i + 1 for i, a in enumerate(metrics.test_accuracy) if a >= 0.9), None
        )
        print(f"{model:<11} test acc {metrics.test_accuracy[-1]:.4f}  "
              f"(>=90% at epoch {reached})")

    print(f"\n{'model':<11} {'spikes layer0':>13} {'layer1':>8} {'total':>8}")
    for model, metrics in results.items():
        a, b = metrics.spike_counts
        print(f"{model:<11} {a:>13} {b:>8} {a + b:>8}")


if __name__ == "__main__":
    main()
