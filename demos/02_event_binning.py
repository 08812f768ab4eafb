"""From an event stream to a dense binary spike tensor.

Builds a small synthetic stream of (t, x, y, polarity) camera events,
bins it onto a 2x2 spatial grid over 4 timesteps, and prints the
resulting frames. Each output neuron is one (polarity, cell) pair, so a
2x2 grid gives 8 input neurons. Repeated events in the same cell and
time bin collapse to a single spike.

Run from the repository root:

    python3 demos/02_event_binning.py
"""

from spikekit.data import bin_events

GRID_W = GRID_H = 2
TIMESTEPS = 4


def main():
    # an "object" drifting from the top-left cell to the bottom-right one,
    # with OFF events trailing the ON events
    events = [  # (t, x, y, polarity)
        (0, 0, 0, 1),
        (100, 1, 0, 1),
        (150, 0, 0, 0),
        (400, 2, 1, 1),
        (420, 2, 1, 1),  # duplicate cell+bin
        (500, 1, 1, 0),
        (900, 3, 3, 1),
        (999, 3, 2, 0),
    ]
    print(f"{len(events)} events, sensor extent inferred from the stream")

    frame = bin_events(events, GRID_W, GRID_H, TIMESTEPS)
    print(f"tensor shape {frame.shape} = (2 polarities x {GRID_W}x{GRID_H} cells, "
          f"{TIMESTEPS} timesteps)\n")

    for t in range(TIMESTEPS):
        print(f"timestep {t}")
        for pol, tag in ((1, "ON "), (0, "OFF")):
            rows = []
            for gy in range(GRID_H):
                cells = []
                for gx in range(GRID_W):
                    neuron = pol * GRID_W * GRID_H + gy * GRID_W + gx
                    cells.append("#" if frame[neuron, t] else ".")
                rows.append("".join(cells))
            print(f"  {tag} " + " / ".join(rows))
    print("\nnote: the two t~400 events in the same cell produced one spike")


if __name__ == "__main__":
    main()
