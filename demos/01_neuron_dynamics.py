"""Membrane dynamics of a single neuron under a fixed drive schedule.

Steps one neuron of each model through the same input sequence and prints
the membrane potential next to its spike train, so the differences are
visible directly: the leaky models decay between inputs, the integrate
model does not, and the gain-carrying model reaches threshold earlier
because its drive is scaled.

Run from the repository root:

    python3 demos/01_neuron_dynamics.py
"""

import numpy as np

from spikekit.neurons import NeuronParams, NeuronState, step

STEPS = 16
# a drip of sub-threshold input with one strong burst in the middle
DRIVE = np.array([0.3] * 5 + [0.9] + [0.0] * 4 + [0.3] * 6)


def trace(label, params, beta=None):
    state = NeuronState.zeros(1)
    us, os_ = [], []
    for t in range(STEPS):
        state = step(state, np.array([DRIVE[t]]), params, beta)
        us.append(float(state.u[0]))
        os_.append(int(state.o[0]))
    spikes = "".join("|" if o else "." for o in os_)
    print(f"{label:<22} {spikes}")
    print(f"{'':<22} " + " ".join(f"{u:+.1f}" for u in us))
    print()


def main():
    print(f"input drive per step: {' '.join(f'{d:.1f}' for d in DRIVE)}")
    print(f"threshold 1.0, {STEPS} steps; '|' marks a spike\n")

    trace("leaky (leak 0.5)", NeuronParams(model="lif", leak=0.5))
    trace("non-leaky", NeuronParams(model="if"))
    trace("learned leak (~0.88)", NeuronParams(model="plif", plif_raw=2.0))  # sigmoid(2) ~ 0.88

    # gain 2.2 lifts the 0.3 drip to 0.66, enough to cross threshold even
    # with leak 0.5; the plain leaky neuron above only fires on the burst
    trace("gain 2.2 on drive", NeuronParams(model="cached-aia", leak=0.5), np.array([2.2]))


if __name__ == "__main__":
    main()
