"""``neurons.scan`` runs a layer's whole window; ``step`` is its one-step case."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikekit.neurons import MODELS, NeuronParams, NeuronState, scan, step

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
        o_t = 1.0 / (1.0 + np.exp(-(u_t - V_TH) / WIDTH))
        npt.assert_allclose(u[t], u_t, rtol=1e-13, atol=1e-15)
        npt.assert_allclose(o[t], o_t, rtol=1e-13, atol=1e-15)
        u_prev, o_prev = u_t, o_t


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
