"""``neurons.scan`` runs a layer's whole window; ``step`` is its one-step case."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikekit.errors import ConfigError
from spikekit.neurons import MODELS, NeuronParams, NeuronState, scan, step

from step_oracles import masked_sigmoid, textbook_scan

T, B, N = 7, 3, 5
LEAK, V_TH, PLIF_RAW, WIDTH = 0.7, 0.8, 0.9, 0.6


def _window(model, seed):
    """A layer's (params, beta, drive) with a non-unit gain and a non-default plif leak."""
    rng = np.random.default_rng(seed)
    p = NeuronParams(model=model, leak=LEAK, v_th=V_TH, plif_raw=PLIF_RAW,
                     surrogate_width=WIDTH)
    beta = rng.uniform(0.5, 1.5, size=N) if model == "cached-aia" else None
    return p, beta, rng.normal(size=(T, B, N))


@pytest.mark.parametrize("model", MODELS)
def test_scan_is_bitwise_chained_steps(model):
    p, beta, x = _window(model, 1)
    rng = np.random.default_rng(2)
    state = NeuronState(u=rng.normal(size=(B, N)), o=(rng.random((B, N)) < 0.5).astype(float))
    u, o = scan(x, p, beta, state)
    for t in range(T):
        state = step(state, x[t], p, beta)
        assert u[t].tobytes() == state.u.tobytes()
        assert o[t].dtype == state.o.dtype == np.bool_
        npt.assert_array_equal(o[t], state.o)


@pytest.mark.parametrize("model", MODELS)
def test_smoothed_scan_is_the_logistic_recurrence(model):
    p, beta, x = _window(model, 3)
    leak = {"if": 1.0, "plif": 1.0 / (1.0 + math.exp(-PLIF_RAW))}.get(model, LEAK)
    drive = 0.5 * x * x if model == "aia" else x if beta is None else beta * x
    u, o = scan(x, p, beta, smoothed=True)
    u_prev = o_prev = np.zeros((B, N))
    for t in range(T):
        u_t = leak * u_prev * (1.0 - o_prev) + drive[t]
        o_t = masked_sigmoid((u_t - V_TH) / WIDTH)
        assert u[t].tobytes() == u_t.tobytes()
        assert o[t].tobytes() == o_t.tobytes()
        u_prev, o_prev = u_t, o_t


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
KEEPS = ["u", "window", None]


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODELS), smoothed=st.booleans(), keep=st.sampled_from(KEEPS),
       started=st.booleans(), data=st.data(),
       steps=st.integers(1, 6), batch=st.sampled_from([1, 2, 3, 400, 700]),
       neurons=st.sampled_from([1, 2, 3, 7, 8, 9, 10]),
       leak=SIGNED_ZEROS.map(abs) | st.just(1.0) | st.floats(0.0, 1.0),
       plif_raw=st.sampled_from([-800.0, 40.0]) | st.floats(-5.0, 5.0),
       v_th=st.floats(0.05, 3.0), width=st.floats(0.05, 3.0))
def test_scan_is_the_textbook_loop_byte_for_byte(model, smoothed, keep, started, data,
                                                 steps, batch, neurons, leak, plif_raw,
                                                 v_th, width):
    # Batches of 400 and 700 rows make a window run in blocks of 3 and 2 steps;
    # a scan that keeps nothing runs in blocks of one step whatever the batch.
    # plif_raw -800 and 40 give plif a leak of exactly 0 and 1.
    values = st.floats(-3.0, 3.0) | SIGNED_ZEROS
    x = data.draw(hnp.arrays(np.float64, (steps, batch, neurons), elements=values))
    p = NeuronParams(model=model, leak=leak, plif_raw=plif_raw, v_th=v_th,
                     surrogate_width=width)
    beta = None
    if model == "cached-aia":
        beta = data.draw(hnp.arrays(np.float64, (neurons,), elements=values))
    state = None
    if started:
        state = NeuronState(
            u=data.draw(hnp.arrays(np.float64, (batch, neurons), elements=values)),
            o=data.draw(hnp.arrays(np.float64, (batch, neurons), elements=st.floats(0.0, 1.0))))

    drive = 0.5 * x * x if model == "aia" and smoothed else x if beta is None else beta * x
    start = {} if state is None else {"u": state.u, "o": state.o}
    u, o = textbook_scan(drive, p.effective_leak(), v_th, width, smoothed, **start)
    window = np.packbits(np.abs(u - v_th) <= width / 2.0, axis=-1)  # one bit per neuron
    held = {"u": u, "window": window, None: None}[keep]

    got_held, got_o = scan(x, p, beta, state, smoothed=smoothed, keep=keep)
    assert (got_held is None) == (held is None)
    for got, want in ((got_held, held), (got_o, o)):
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [400, 700])
@pytest.mark.parametrize("model", MODELS)
def test_keeping_nothing_gives_the_textbook_spikes(model, batch):
    # The hard scan that keeps no potential, from a started state, at the
    # batches that make a window scan run in blocks of 3 and 2 steps.
    rng = np.random.default_rng(batch)
    p = NeuronParams(model=model, leak=LEAK, v_th=V_TH, plif_raw=PLIF_RAW,
                     surrogate_width=WIDTH)
    beta = rng.uniform(0.5, 1.5, size=N) if model == "cached-aia" else None
    x = rng.normal(size=(T, batch, N))
    state = NeuronState(u=rng.normal(size=(batch, N)),
                        o=(rng.random((batch, N)) < 0.5).astype(float))
    _, o = textbook_scan(x if beta is None else beta * x, p.effective_leak(), V_TH, WIDTH,
                         False, u=state.u, o=state.o)
    held, got = scan(x, p, beta, state, keep=None)
    assert held is None and 0.0 < np.mean(o) < 1.0
    assert got.dtype == o.dtype and got.tobytes() == o.tobytes()


def test_unknown_keep_is_refused():
    with pytest.raises(ConfigError, match="'mask'"):
        scan(np.zeros((T, B, N)), NeuronParams(), keep="mask")


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(MODELS), data=st.data(),
       shape=st.tuples(st.integers(1, 40), st.integers(1, 4)),
       leak=st.floats(0.0, 1.0), plif_raw=st.floats(allow_nan=False, allow_infinity=False),
       v_th=st.floats(0.01, 6.0), rise=st.floats(0.0, 6.0, exclude_min=True))
def test_spike_count_does_not_rise_with_the_threshold(model, data, shape, leak, plif_raw,
                                                      v_th, rise):
    # One layer, one fixed drive: raising v_th never adds a neuron's spike.
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-5.0, 5.0)))
    beta = None
    if model == "cached-aia":
        beta = data.draw(hnp.arrays(np.float64, shape[1:],
                                    elements=st.floats(0.0, 5.0, exclude_min=True)))
    counts = [scan(x, NeuronParams(model=model, leak=leak, v_th=v, plif_raw=plif_raw),
                   beta)[1].sum(axis=0) for v in (v_th, v_th + rise)]
    assert np.all(counts[1] <= counts[0])
